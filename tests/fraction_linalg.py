"""Gauss-Jordan elimination over Fractions: independent references for the
integer kernel in ``nsbox.linalg``."""

from fractions import Fraction
from math import gcd

from nsbox.linalg import clear_denominators, reduce_content


def clear_denominators_reference(row):
    """Scale a row to coprime integers in Fraction arithmetic: the lcm of
    the denominators, one Fraction product per entry, then the content."""
    den = 1
    for v in row:
        d = Fraction(v).denominator
        den = den * d // gcd(den, d)
    ints = [int(Fraction(v) * den) for v in row]
    return reduce_content(ints)


def rref(rows):
    """Reduced row echelon form over Fractions; returns (rows, pivot_columns)."""
    m = [[Fraction(v) for v in r] for r in rows]
    if not m:
        return [], []
    nc = len(m[0])
    pivots = []
    r = 0
    for c in range(nc):
        piv = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = 1 / m[r][c]
        m[r] = [v * inv for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m[:r], pivots


def nullspace(rows):
    """Primitive integer basis of the right nullspace: one vector per free
    column f of the rref, with entry 1 at f before denominators are
    cleared."""
    nc = len(rows[0])
    red, pivots = rref(rows)
    basis = []
    for f in (c for c in range(nc) if c not in pivots):
        vec = [Fraction(0)] * nc
        vec[f] = Fraction(1)
        for i, p in enumerate(pivots):
            vec[p] = -red[i][f]
        basis.append(clear_denominators(vec))
    return basis


def solve(rows, rhs):
    """One exact solution of rows·x = rhs (free variables at 0), or None."""
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    red, pivots = rref(aug)
    nc = len(rows[0]) if rows else 0
    x = [Fraction(0)] * nc
    for i, p in enumerate(pivots):
        if p == nc:
            return None
        x[p] = red[i][nc]
    return x
