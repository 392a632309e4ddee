"""Exact linear algebra over the integers.  One elimination kernel serves
every caller: fraction-free (Bareiss) forward elimination, then
fraction-free back substitution; every division is exact, so no
``Fraction`` is formed inside.  Rational input is scaled to integers at the
boundary."""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

import numpy as np


def _rational(v):
    """A rational that is neither int nor Fraction (numpy integers, floats,
    strings) as a Fraction of Python ints."""
    v = Fraction(v)
    return Fraction(int(v.numerator), int(v.denominator))


def clear_denominators(row):
    """Scale a row of rationals to coprime integers (sign preserved)."""
    row = [v if isinstance(v, (int, Fraction)) else _rational(v) for v in row]
    den = lcm(*(v.denominator for v in row))
    return reduce_content([v.numerator * (den // v.denominator) for v in row])


def reduce_content(ints):
    g = gcd(*ints)
    return [v // g for v in ints] if g > 1 else list(ints)


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


def _back_substitute(m, pivots, cols):
    """Fraction-free back substitution on a Bareiss echelon form ``m`` with
    the given pivot columns.  Returns (D, ys): D is the last pivot, ±det of
    the pivot block P, and for each column c in ``cols`` the integer y with
    P·y = D·m[:, c] over the pivot rows.  y = D·P⁻¹·m[:, c] is integral
    (Cramer), so every division is exact."""
    r = len(pivots)
    den = m[r - 1][pivots[-1]] if r else 1
    ys = []
    for c in cols:
        y = [0] * r
        for i in range(r - 1, -1, -1):
            row = m[i]
            y[i] = (den * row[c] - sum(row[pivots[j]] * y[j]
                                       for j in range(i + 1, r))) // row[pivots[i]]
        ys.append(y)
    return den, ys


def nullspace_int(rows):
    """Primitive integer basis of the right nullspace of an integer matrix:
    one vector per non-pivot column f, with a positive entry at f and zero
    at the other non-pivot columns."""
    if not rows:
        raise ValueError("nullspace of an empty matrix is ambiguous")
    m = [list(r) for r in rows]
    nc = len(m[0])
    pivots = _bareiss(m)
    free = sorted(set(range(nc)) - set(pivots))
    den, ys = _back_substitute(m, pivots, free)
    sign = 1 if den > 0 else -1
    basis = []
    for f, y in zip(free, ys):
        vec = [0] * nc
        vec[f] = sign * den
        for p, v in zip(pivots, y):
            vec[p] = -sign * v
        basis.append(reduce_content(vec))
    return basis


def _int_inverse(rows):
    """(D, X) with rows·X = D·I for a nonsingular square integer matrix:
    Bareiss elimination of [rows | I], then back substitution.  D is the
    last pivot, ±det(rows), so X = D·rows⁻¹ is integral (Cramer)."""
    n = len(rows)
    m = [list(r) + [int(i == j) for j in range(n)] for i, r in enumerate(rows)]
    den, cols = _back_substitute(m, _bareiss(m), range(n, 2 * n))
    return den, [list(r) for r in zip(*cols)]


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
    d, (y,) = _back_substitute(system, _bareiss(system), [k])
    back = _int_matmul([y], [list(c) for c in zip(*basis)])[0]
    return [Fraction(d * x - b, d * den) for x, b in zip(v, back)]
