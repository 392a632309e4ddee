"""Exact linear algebra over the integers.  One elimination kernel serves
every caller: fraction-free (Bareiss) forward elimination, then
fraction-free back substitution, on numpy integer arrays; every division is
exact, so no ``Fraction`` is formed inside.  Each step runs on int64 while
a per-step guard proves it cannot overflow, and on Python ints past it.
Rational input is scaled to integers at the boundary."""

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
    return max(int(m.max()), -int(m.min()))


def _int_products(rows, cols):
    """Exact products rows x colsᵀ of two integer arrays, as int64 when the
    magnitudes provably fit in it, and as Python ints in an object array
    otherwise.  A zero factor gives int64 zeros, whatever the other holds."""
    hi = _max_abs(rows) * _max_abs(cols) if rows.size and cols.size else 0
    if not hi:
        return np.zeros((len(rows), len(cols)), dtype=np.int64)
    dtype = np.int64 if hi * cols.shape[1] < 2 ** 62 else object
    return rows.astype(dtype, copy=False) @ cols.astype(dtype, copy=False).T


def _fit(a):
    """An integer array as int64 when every entry fits, else unchanged."""
    if a.dtype == object and (not a.size or _max_abs(a) < 2 ** 63):
        return a.astype(np.int64)
    return a


def _int_array(rows):
    """Integer rows as an int64 array when every entry fits, else as an
    object array of Python ints."""
    return _fit(np.array(rows, dtype=object))


def _primitive_rows(a):
    """The distinct nonzero rows of a 2-D integer array, each divided by
    its content (the gcd of its entries), in first-seen order."""
    a = a[a.any(axis=1)]
    a = _fit(a // np.gcd.reduce(a, axis=1)[:, None])
    # one index per distinct row, in the order the rows first appear
    index = {key: i for i, key in enumerate(map(tuple, a.tolist()))}
    return a[list(index.values())]


def _row_max_abs(a):
    """The largest magnitude in each row of a 2-D integer array, as Python
    ints."""
    return [max(hi, -lo) for hi, lo in zip(a.max(axis=1).tolist(), a.min(axis=1).tolist())]


def _eliminate(a):
    """Fraction-free (Bareiss) forward elimination of a 2-D integer array
    (int64 or object); returns (echelon form, pivot columns) and leaves
    ``a`` as it is.  Every entry stays an integer minor of the input, so
    the divisions are exact, and the pivot columns are the first maximal
    independent set of columns.

    Each pivot step updates the whole block below and right of its pivot
    at once.  A step runs on int64 while every entry of its active block
    (the rows from the pivot's down, the columns from the pivot's on) is
    below 2**31 in magnitude, so p·x - f·y stays below 2**63; from the first
    step where that fails, the rest runs on Python ints in an object array,
    with the same arithmetic.  The active block of a step is the block the
    step before it updated, less columns that are zero there, so its
    largest magnitude is read off that update."""
    m = _fit(a.copy()) if a.dtype == object else a.astype(np.int64)
    nr, nc = m.shape
    # the largest magnitude in the active block
    big = _max_abs(m) if m.size else 0
    pivots = []
    prev = 1
    for col in range(nc):
        rank = len(pivots)
        nonzero = m[rank:, col].nonzero()[0]
        if not len(nonzero):
            continue
        if nonzero[0]:
            m[[rank, rank + nonzero[0]]] = m[[rank + nonzero[0], rank]]
        if m.dtype != object and big >= 2 ** 31:
            m = m.astype(object)
        p = m[rank, col]
        below = m[rank + 1:]
        block = (p * below[:, col + 1:] - below[:, col:col + 1] * m[rank, col + 1:]) // prev
        below[:, col + 1:] = block
        below[:, col] = 0
        if m.dtype != object:
            big = int(np.abs(block).max()) if block.size else 0
        prev = int(p)
        pivots.append(col)
        if len(pivots) == nr:
            break
    return m, pivots


def _solve(m, pivots, cols):
    """Fraction-free back substitution on an echelon form ``m`` from
    ``_eliminate`` with its pivot columns.  Returns (D, Y): D is the last
    pivot, ±det of the pivot block P = m[:r, pivots], and column j of Y is
    the integer y with P·y = D·m[:r, cols[j]].  y = D·P⁻¹·m[:r, c] is
    integral (Cramer), so every division is exact.

    Row i of Y is solved for every column at once, from the last row up.
    With B = m[:r, cols], Pᵢ the entries of row i right of its pivot and y
    the rows solved so far, row i runs on int64 while |D|·max|Bᵢ| +
    terms·max|Pᵢ|·max|y| < 2**63 bounds every partial sum; from the first
    row where that fails, the rest runs on Python ints."""
    r = len(pivots)
    den = int(m[r - 1, pivots[-1]]) if r else 1
    p, b = m[:r, pivots], m[:r, list(cols)]
    y = np.zeros(b.shape, dtype=m.dtype)
    if not y.size:
        return den, y
    b_hi, p_hi = _row_max_abs(b), _row_max_abs(np.triu(p, 1))
    y_hi = 0
    for i in range(r - 1, -1, -1):
        if y.dtype != object and abs(den) * b_hi[i] + (r - 1 - i) * p_hi[i] * y_hi >= 2 ** 63:
            p, b, y = p.astype(object), b.astype(object), y.astype(object)
        y[i] = (den * b[i] - p[i, i + 1:] @ y[i + 1:]) // p[i, i]
        if y.dtype != object:
            y_hi = max(y_hi, int(np.abs(y[i]).max()))
    return den, y


def int_rank(rows):
    """Rank of an integer matrix (a list of rows or a 2-D integer array),
    by fraction-free (Bareiss) elimination."""
    a = rows if isinstance(rows, np.ndarray) else _int_array(rows)
    return len(_eliminate(a)[1]) if a.size else 0


def _nullspace(a):
    """Primitive integer basis of the right nullspace of a 2-D integer
    array, as the rows of one integer array, int64 when every entry fits,
    else Python ints: one vector per non-pivot column f, with a positive
    entry at f and zero at the other non-pivot columns."""
    if not len(a):
        raise ValueError("nullspace of an empty matrix is ambiguous")
    m, pivots = _eliminate(a)
    free = sorted(set(range(m.shape[1])) - set(pivots))
    den, y = _solve(m, pivots, free)
    sign = 1 if den > 0 else -1
    basis = np.zeros((len(free), m.shape[1]), dtype=y.dtype)
    basis[np.arange(len(free)), free] = sign * den
    basis[:, pivots] = -sign * y.T
    return _fit(basis // np.gcd.reduce(basis, axis=1)[:, None])


def _projector(rows):
    """The read-only integer projector P off the row space of a 2-D integer
    array: ``reduce_content(P·v)`` is the primitive integer vector along the
    component of v orthogonal to the rows (exact).  With B the first
    independent rows, G = B Bᵀ is positive definite, so its last Bareiss
    pivot is D = det G > 0; back substitution against the identity gives
    Y = D·G⁻¹, and P is D·I - Bᵀ Y B over its content."""
    basis = rows[_eliminate(rows.T)[1]]
    k = len(basis)
    gram = np.concatenate([_int_products(basis, basis), np.eye(k, dtype=np.int64)], axis=1)
    d, y = _solve(*_eliminate(gram), range(k, 2 * k))
    proj = (np.diag(np.full(rows.shape[1], d, dtype=object))
            - _int_products(basis.T, _int_products(y, basis.T).T))
    # rows spanning the whole space leave P = 0, of content 0
    proj = _fit(proj // max(int(np.gcd.reduce(proj, axis=None)), 1))
    proj.setflags(write=False)
    return proj
