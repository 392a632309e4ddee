"""Exact two-phase simplex over rationals: full tableau, largest reduced cost
with a Bland's-rule fallback.

The tableau is one 2-D numpy integer array: the m constraint rows, then the
objective row.  Columns are the n structural variables, the m artificial
ones, the right-hand side and, last, the row's denominator: row i is a list
of integer numerators over its own positive denominator, so it stands for
the rationals ``T[i, j] / T[i, -1]``.  A pivot on row r and column e first
puts row r over its pivot entry and divides out the row's gcd; call its
new denominator p.  Every other row with a nonzero entry f in the pivot
column, the objective row included, becomes ``other - (f / p) * row``.
When p is 1, which is most pivots on 0/1 strategy columns, that is
``other - f * row`` over the row's own denominator, which is left as it is.
Otherwise it is ``p * other - f * row`` over ``p * den_other``, and that
row's gcd is divided out.  So a row is not always primitive, but it always
stands for the same rationals, and no rule reads a row's positive scale:
the entering rule compares the entries of the objective row alone, the
ratio test cross-multiplies the numerators of one column and of the
right-hand side (each row's denominator cancels), and the stall check
compares the objective value as a rational.  So pivots and answers are
those of the plain rational algorithm.  ``Fraction``s are made only from
rational LP input and for an ``LPResult``'s x, objective and dual: phase 1
gives its Farkas certificate as integer numerators, which ``maximize``
alone puts over their denominator.

The array is int64 only while a bound proves that a pivot cannot overflow:
with M the largest |entry| of the whole array, every product of a pivot is
at most M² and every difference at most 2·M², so the check 2·M² < 2⁶² runs
before each pivot.  Once it fails, the same values go on as an ``object``
array of Python ints for the rest of the solve; the code path is the same
for both dtypes.  The ratio test and the stall check compare Python ints.

Phase 1 is one object, ``_Phase1``, that can be resumed.  Its artificial
block holds B⁻¹ of the current basis B, each row up to its own sign flip
and scale, so a column appended to the LP gets its tableau entries as one
exact integer product with that block, and its phase-1 reduced cost from
the objective row's artificial entries.  ``solve`` then goes on pivoting
from the last basis.  It returns a Farkas certificate, or the basic
solution x: the drive-out and phase 2 of ``maximize`` leave x unchanged
under a zero objective, so feasibility callers stop at phase 1, and column
generation appends its columns to one tableau instead of solving each
round from the start.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

import numpy as np

from .linalg import _int_array, _int_products, _max_abs, _rational, clear_denominators


@dataclass(frozen=True)
class LPResult:
    """status is one of "optimal", "infeasible", "unbounded".

    For "optimal": x, objective and a dual vector y with y.A >= c
    componentwise on the columns and y.b = objective.  For "infeasible":
    dual is a Farkas certificate, y.A >= 0 and y.b < 0.
    """

    status: str
    x: tuple[Fraction, ...] | None = None
    objective: Fraction | None = None
    dual: tuple[Fraction, ...] | None = None


def _fits(bound):
    """Whether integers of magnitude at most ``bound`` may be pivoted in
    int64: products are at most bound², differences 2·bound²."""
    return 2 * bound * bound < 2 ** 62


def _value(row, j):
    return Fraction(int(row[j]), int(row[-1]))


def _pivot(T, basis, r, e):
    """Pivot on row r, column e; returns the tableau, as Python ints once
    int64 is no longer proven safe."""
    if T.dtype != object and not _fits(_max_abs(T)):
        T = T.astype(object)
    row = T[r].copy()
    row[-1] = row[e]
    if row[-1] < 0:
        row = -row
    row //= np.gcd.reduce(row)
    T[r] = row
    rows = np.flatnonzero(T[:, e])
    rows = rows[rows != r]
    if len(rows):
        other = T[rows]
        p = row[-1]
        if p == 1:
            new = other - other[:, e, None] * row
            new[:, -1] = other[:, -1]
        else:
            new = p * other - other[:, e, None] * row
            new[:, -1] = other[:, -1] * p
            new //= np.gcd.reduce(new, axis=1)[:, None]
        T[rows] = new
    basis[r] = e
    return T


def _run(T, basis, n):
    """Pivot until optimal or unbounded; entering restricted to the first n
    (structural) columns, the objective row being the last row of T.
    Returns "optimal" or "unbounded" and the final tableau.

    Entering rule: largest reduced cost, the first column on ties, falling
    back to Bland's rule for good once a long degenerate stall is detected
    (termination guarantee).  Leaving rule: least ratio, the least basic
    column on ties."""
    stall = 0
    bland = False
    last = (int(T[-1, -2]), int(T[-1, -1]))
    while True:
        cost = T[-1, :n]
        positive = np.flatnonzero(cost > 0)
        if not len(positive):
            return "optimal", T
        e = int(positive[0] if bland else np.argmax(cost))
        candidates = np.flatnonzero(T[:-1, e] > 0).tolist()
        if not candidates:
            return "unbounded", T
        r = None
        for i, a, b in zip(candidates, T[candidates, e].tolist(),
                           T[candidates, -2].tolist()):
            if r is None:
                r, num, den = i, b, a
                continue
            lhs, rhs = b * den, num * a
            if lhs < rhs or (lhs == rhs and basis[i] < basis[r]):
                r, num, den = i, b, a
        T = _pivot(T, basis, r, e)
        if not bland:
            value = (int(T[-1, -2]), int(T[-1, -1]))
            if value[0] * last[1] == last[0] * value[1]:
                stall += 1
                if stall > 120:
                    bland = True
            else:
                stall = 0
                last = value


def _with_objective(T, basis, cost):
    """T with its last row set to the reduced-cost row of ``cost`` (one
    rational per structural or artificial column): cost less each basic
    row times the cost of its basic column, over one denominator."""
    *c, k = clear_denominators([*cost, 1])
    used = [i for i, b in enumerate(basis) if b < len(c) and c[b]]
    dens = T[used, -1].tolist()
    den = lcm(*dens)
    weights = [c[basis[i]] * (den // d) for i, d in zip(used, dens)]
    obj = np.zeros(T.shape[1], dtype=object)
    obj[:len(c)] = [v * den for v in c]
    if used:
        obj[:-1] -= _int_products(_int_array([weights]), T[used, :-1].T)[0].astype(object)
    obj[-1] = k * den
    obj //= np.gcd.reduce(obj)
    if T.dtype != object and not _fits(_max_abs(obj)):
        T = T.astype(object)
    T[-1] = obj
    return T


def _tableau(a, b, den, dtype):
    """The starting tableau for the lines [a[i] | b[i]] over den[i], and the
    sign of each line: row i is [a[i] | den[i]·e_i | b[i] | den[i]], with
    a[i] and b[i] negated (sign -1) when b[i] < 0; the objective row is
    left zero."""
    m, n = a.shape
    sign = np.array([-1 if v < 0 else 1 for v in b], dtype=dtype)
    T = np.zeros((m + 1, n + m + 2), dtype=dtype)
    T[:m, :n] = a * sign[:, None]
    T[np.arange(m), n + np.arange(m)] = den
    T[:m, -2] = np.array(b, dtype=dtype) * sign
    T[:m, -1] = den
    return T, sign


def _integer_tableau(rows, rhs):
    """The tableau of an integer array of rows: row i is scaled by the
    denominator of rhs[i] only, which leaves the line primitive."""
    rhs = [b if isinstance(b, (int, Fraction)) else _rational(b) for b in rhs]
    num = [b.numerator for b in rhs]
    den = [b.denominator for b in rhs]
    bound = max([0, *den, *map(abs, num)])
    if rows.size:
        bound = max(bound, _max_abs(rows) * max(den))
    dtype = np.int64 if _fits(bound) else object
    scale = np.array(den, dtype=dtype)[:, None]
    return _tableau(rows.astype(dtype) * scale, num, den, dtype)


def _rational_tableau(rows, rhs, n):
    """The tableau of n-wide rows of rationals, each line [row | rhs]
    scaled to coprime integers."""
    lines = [clear_denominators([*row, b, 1]) for row, b in zip(rows, rhs)]
    bound = max((max(max(v), -min(v)) for v in lines), default=0)
    dtype = np.int64 if _fits(bound) else object
    a = np.array([v[:-2] for v in lines], dtype=dtype).reshape(len(lines), n)
    return _tableau(a, [v[-2] for v in lines], [v[-1] for v in lines], dtype)


class _Phase1:
    """Phase 1 of the simplex for rows . x = rhs, x >= 0, on a tableau that
    columns can be appended to between solves.  ``rows`` is as for
    ``maximize`` and has n columns."""

    def __init__(self, rows, rhs, n):
        m = len(rows)
        if isinstance(rows, np.ndarray) and rows.dtype.kind in "iu":
            if rows.shape != (m, n) or len(rhs) != m:
                raise ValueError("inconsistent LP dimensions")
            T, self.sign = _integer_tableau(rows, rhs)
        else:
            if any(len(r) != n for r in rows) or len(rhs) != m:
                raise ValueError("inconsistent LP dimensions")
            T, self.sign = _rational_tableau(rows, rhs, n)
        self.n = n
        self.basis = [n + i for i in range(m)]
        self.T = _with_objective(T, self.basis, [0] * n + [-1] * m)

    def add_columns(self, cols):
        """Append the columns of an (m, k) integer array to the LP.  The
        artificial block stands for B⁻¹ applied to the sign-flipped rows, so
        column c's tableau entries are that block times the flipped c, and
        its phase-1 reduced cost, -(c_B·B⁻¹)·c with c_B -1 on artificials,
        is the objective row's artificial entries plus its denominator,
        times the flipped c."""
        T, n, m = self.T, self.n, len(self.basis)
        k = cols.shape[1]
        signed = self.sign[:, None] * cols
        # each entry is at most 2^62 after a guarded pivot, so the sum with
        # the objective row's denominator stays below 2^63
        block = T[:, n:n + m].copy()
        block[-1] += T[-1, -1]
        new = _int_products(block, signed.T)
        self.T = np.concatenate([T[:, :n], new, T[:, n:]], axis=1)
        self.basis = [b + k if b >= n else b for b in self.basis]
        self.n = n + k

    def solve(self):
        """Pivot from the last basis to the phase-1 optimum: an LPResult
        with x ("optimal"), or with a Farkas certificate ("infeasible") as
        int numerators over the objective row's denominator ``T[-1, -1]``."""
        status, self.T = _run(self.T, self.basis, self.n)
        T, basis, n = self.T, self.basis, self.n
        if status != "optimal":
            raise AssertionError(f"phase 1 ended {status}, not optimal")
        m = len(basis)
        # every right-hand side is nonnegative here, so the phase-1 value
        # -sum(artificial rhs) is negative iff one of them is positive
        if any(T[i, -2] > 0 for i in range(m) if basis[i] >= n):
            den = int(T[-1, -1])
            return LPResult("infeasible", dual=tuple(
                -s * (den + v) for s, v in zip(self.sign.tolist(), T[-1, n:n + m].tolist())))
        x = [Fraction(0)] * n
        for i, bi in enumerate(basis):
            if bi < n:
                x[bi] = _value(T[i], -2)
        return LPResult("optimal", x=tuple(x))


def maximize(rows, rhs, objective):
    """Maximize objective . x subject to rows . x = rhs, x >= 0.

    ``rows`` is a sequence of rows of rationals (ints, ``Fraction``s or
    anything ``Fraction`` accepts) or a 2-D numpy integer array, which is
    scaled by the right-hand side denominators only; other arrays are read
    as rows of rationals.  ``rhs`` and ``objective`` are rationals."""
    n = len(objective)
    lp = _Phase1(rows, rhs, n)
    res = lp.solve()
    if res.status == "infeasible":
        den = int(lp.T[-1, -1])
        return LPResult("infeasible", dual=tuple(Fraction(y, den) for y in res.dual))
    T, basis = lp.T, lp.basis

    # drive artificials out of the basis where a structural pivot exists;
    # rows that stay artificial-basic are identically zero on structural
    # columns and inert from here on
    for i in range(len(basis)):
        if basis[i] >= n:
            nonzero = np.flatnonzero(T[i, :n])
            if len(nonzero):
                T = _pivot(T, basis, i, int(nonzero[0]))

    cost = [Fraction(v) for v in objective]
    status, T = _run(_with_objective(T, basis, cost), basis, n)
    if status == "unbounded":
        return LPResult("unbounded")
    x = [Fraction(0)] * n
    z = Fraction(0)
    for i, bi in enumerate(basis):
        if bi < n:
            x[bi] = _value(T[i], -2)
            z += cost[bi] * x[bi]
    den, m = int(T[-1, -1]), len(basis)
    dual = [Fraction(-s * v, den) for s, v in zip(lp.sign.tolist(), T[-1, n:n + m].tolist())]
    return LPResult("optimal", x=tuple(x), objective=z, dual=tuple(dual))


def find_nonneg_solution(rows, rhs):
    """Some x >= 0 with rows . x = rhs, or a Farkas certificate.

    ``rows`` is as for ``maximize``.  Returns an LPResult whose status is
    "optimal" (x set) or "infeasible" (dual set)."""
    if isinstance(rows, np.ndarray):
        n = rows.shape[1]
    else:
        n = len(rows[0]) if rows else 0
    return maximize(rows, rhs, [0] * n)
