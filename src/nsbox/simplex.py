"""Exact two-phase simplex over rationals: full tableau, Bland's rule."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


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


def _pivot(tableau, basis, r, e):
    row = tableau[r]
    piv = row[e]
    inv = 1 / piv
    tableau[r] = row = [v * inv for v in row]
    for i, other in enumerate(tableau):
        if i == r:
            continue
        f = other[e]
        if f:
            tableau[i] = [a - f * b for a, b in zip(other, row)]
    basis[r] = e


def _run(tableau, basis, obj, n):
    """Pivot until optimal or unbounded; entering restricted to the first n
    (structural) columns.  Returns "optimal" or "unbounded".

    Entering rule: largest reduced cost, falling back to Bland's rule for
    good once a long degenerate stall is detected (termination guarantee)."""
    stall = 0
    bland = False
    last = obj[-1]
    while True:
        if bland:
            e = next((j for j in range(n) if obj[j] > 0), None)
        else:
            e = None
            for j in range(n):
                if obj[j] > 0 and (e is None or obj[j] > obj[e]):
                    e = j
        if e is None:
            return "optimal"
        r = None
        best = None
        for i, row in enumerate(tableau):
            if row[e] > 0:
                ratio = row[-1] / row[e]
                if best is None or ratio < best or (ratio == best and basis[i] < basis[r]):
                    best, r = ratio, i
        if r is None:
            return "unbounded"
        _pivot(tableau, basis, r, e)
        f = obj[e]
        if f:
            row = tableau[r]
            for j in range(len(obj)):
                obj[j] -= f * row[j]
        if not bland:
            if obj[-1] == last:
                stall += 1
                if stall > 120:
                    bland = True
            else:
                stall = 0
                last = obj[-1]


def _objective_row(tableau, basis, cost, width):
    obj = list(cost) + [Fraction(0)] * (width - len(cost))
    for i, row in enumerate(tableau):
        cb = cost[basis[i]] if basis[i] < len(cost) else Fraction(0)
        if cb:
            for j in range(width):
                obj[j] -= cb * row[j]
    return obj


def maximize(rows, rhs, objective):
    """Maximize objective . x subject to rows . x = rhs, x >= 0."""
    m = len(rows)
    n = len(objective)
    if any(len(r) != n for r in rows) or len(rhs) != m:
        raise ValueError("inconsistent LP dimensions")
    flipped = [Fraction(b) < 0 for b in rhs]
    tableau = []
    for i, (row, b) in enumerate(zip(rows, rhs)):
        sign = -1 if flipped[i] else 1
        line = [sign * Fraction(v) for v in row]
        line += [Fraction(1) if j == i else Fraction(0) for j in range(m)]
        line.append(sign * Fraction(b))
        tableau.append(line)
    basis = [n + i for i in range(m)]
    width = n + m + 1

    phase1_cost = [Fraction(0)] * n + [Fraction(-1)] * m
    obj = _objective_row(tableau, basis, phase1_cost, width)
    status = _run(tableau, basis, obj, n)
    if status != "optimal":
        raise AssertionError(f"phase 1 ended {status}, not optimal")
    value = -sum(tableau[i][-1] for i in range(m) if basis[i] >= n)
    if value < 0:
        farkas = [-(1 + obj[n + i]) for i in range(m)]
        farkas = [-y if f else y for y, f in zip(farkas, flipped)]
        return LPResult("infeasible", dual=tuple(farkas))

    # drive artificials out of the basis where a structural pivot exists;
    # rows that stay artificial-basic are identically zero on structural
    # columns and inert from here on
    for i in range(m):
        if basis[i] >= n:
            e = next((j for j in range(n) if tableau[i][j] != 0), None)
            if e is not None:
                _pivot(tableau, basis, i, e)

    cost = [Fraction(v) for v in objective]
    obj = _objective_row(tableau, basis, cost, width)
    status = _run(tableau, basis, obj, n)
    if status == "unbounded":
        return LPResult("unbounded")
    x = [Fraction(0)] * n
    z = Fraction(0)
    for i, bi in enumerate(basis):
        if bi < n:
            x[bi] = tableau[i][-1]
            z += cost[bi] * tableau[i][-1]
    dual = [-obj[n + i] for i in range(m)]
    dual = [-y if f else y for y, f in zip(dual, flipped)]
    return LPResult("optimal", x=tuple(x), objective=z, dual=tuple(dual))


def find_nonneg_solution(rows, rhs):
    """Some x >= 0 with rows . x = rhs, or a Farkas certificate.

    Returns an LPResult whose status is "optimal" (x set) or "infeasible"
    (dual set)."""
    n = len(rows[0]) if rows else 0
    return maximize(rows, rhs, [Fraction(0)] * n)
