"""Exact linear algebra over integers and fractions."""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

import numpy as np


def clear_denominators(row):
    """Scale a Fraction row to coprime integers (sign preserved)."""
    den = 1
    for v in row:
        d = Fraction(v).denominator
        den = den * d // gcd(den, d)
    ints = [int(Fraction(v) * den) for v in row]
    return reduce_content(ints)


def reduce_content(ints):
    g = 0
    for v in ints:
        g = gcd(g, v)
    if g > 1:
        ints = [v // g for v in ints]
    return list(ints)


def _max_abs(m):
    if isinstance(m, np.ndarray):
        return max(int(m.max()), -int(m.min()))
    return max(max(max(r), -min(r)) for r in m)


def _int_products(rows, cols):
    """Exact products rows x colsᵀ as an array.  Either operand may be a
    list of int lists or an integer array; the products are int64 when the
    magnitudes provably fit in it, and Python ints in an object array
    otherwise."""
    if not len(rows) or not len(cols):
        return np.zeros((len(rows), len(cols)), dtype=np.int64)
    d = len(cols[0])
    dtype = np.int64 if _max_abs(rows) * _max_abs(cols) * d < 2 ** 62 else object
    return np.asarray(rows, dtype=dtype) @ np.asarray(cols, dtype=dtype).T


def _int_matmul(rows, cols):
    """Exact products rows x colsᵀ as a list of int lists (see
    ``_int_products``)."""
    return _int_products(rows, cols).tolist()


def _bareiss(m):
    """Fraction-free (Bareiss) forward elimination of an integer matrix,
    a list of row lists, in place; returns the pivot columns.  Every entry
    stays an integer minor of the input, so the divisions are exact, and
    the pivot columns are the first maximal independent set of columns."""
    nr = len(m)
    nc = len(m[0]) if m else 0
    pivots = []
    prev = 1
    for col in range(nc):
        rank = len(pivots)
        piv = next((r for r in range(rank, nr) if m[r][col]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        lead = m[rank]
        p = lead[col]
        for r in range(rank + 1, nr):
            row = m[r]
            f = row[col]
            for c in range(col + 1, nc):
                row[c] = (p * row[c] - f * lead[c]) // prev
            row[col] = 0
        prev = p
        pivots.append(col)
        if len(pivots) == nr:
            break
    return pivots


def int_rank(rows):
    """Rank of an integer matrix, by fraction-free (Bareiss) elimination."""
    return len(_bareiss([list(r) for r in rows if any(r)]))


def rref(rows):
    """Reduced row echelon form over Fractions; returns (rows, pivot_columns)."""
    m = [[Fraction(v) for v in r] for r in rows]
    if not m:
        return [], []
    nc = len(m[0])
    pivots = []
    r = 0
    for c in range(nc):
        piv = None
        for i in range(r, len(m)):
            if m[i][c] != 0:
                piv = i
                break
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


def nullspace_int(rows):
    """Primitive integer basis of the right nullspace of an integer matrix."""
    if not rows:
        raise ValueError("nullspace of an empty matrix is ambiguous")
    nc = len(rows[0])
    red, pivots = rref(rows)
    free = [c for c in range(nc) if c not in pivots]
    basis = []
    for f in free:
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
    for r in red:
        if all(v == 0 for v in r[:nc]) and r[nc] != 0:
            return None
    x = [Fraction(0)] * nc
    for i, p in enumerate(pivots):
        if p == nc:
            return None
        x[p] = red[i][nc]
    return x


def _int_inverse(rows):
    """(D, X) with rows·X = D·I for a nonsingular square integer matrix.

    Bareiss elimination of [rows | I], then fraction-free back
    substitution.  D is the last pivot, ±det(rows), so X = D·rows⁻¹ is
    integral (Cramer) and every division is exact."""
    n = len(rows)
    m = [list(r) + [int(i == j) for j in range(n)] for i, r in enumerate(rows)]
    _bareiss(m)
    den = m[-1][n - 1]
    x = [[0] * n for _ in range(n)]
    for i in range(n - 1, -1, -1):
        row = m[i]
        for c in range(n):
            x[i][c] = (den * row[n + c]
                       - sum(row[j] * x[j][c] for j in range(i + 1, n))) // row[i]
    return den, x


def project_out_rowspace(vec, rows):
    """Component of vec orthogonal to the row space of ``rows`` (exact).

    Computed in integers: with B the first independent rows (denominators
    cleared) and v the vector scaled to integers, the component is
    v - Bᵀ z for the solution z = y / d of the Gram system (B Bᵀ) z = B v,
    which Bareiss elimination gives with y and d = det(B Bᵀ) integral."""
    vec = [Fraction(v) for v in vec]
    ints = [clear_denominators(r) for r in rows]
    basis = [ints[i] for i in _bareiss([list(c) for c in zip(*ints)])]
    if not basis:
        return vec
    den = lcm(*(x.denominator for x in vec))
    v = [x.numerator * (den // x.denominator) for x in vec]
    k = len(basis)
    # B Bᵀ is positive definite, so its leading minors are the pivots
    system = [g + b for g, b in zip(_int_matmul(basis, basis),
                                    _int_matmul(basis, [v]))]
    _bareiss(system)
    d = system[-1][k - 1]
    y = [0] * k
    for i in range(k - 1, -1, -1):
        row = system[i]
        y[i] = (d * row[k] - sum(row[j] * y[j] for j in range(i + 1, k))) // row[i]
    back = _int_matmul([y], [list(c) for c in zip(*basis)])[0]
    return [Fraction(d * x - b, d * den) for x, b in zip(v, back)]
