"""Membership tests for the local and two-way-local polytopes, with exact
separating certificates, plus the CHSH and Svetlichny functionals."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product as iproduct

from .boxes import Box, BoxShape, ShapeError
from .dd import EnumerationCapError
from .families import uniform
from .linalg import clear_denominators, project_out_rowspace
from .polytope import build_hrep, normalization_rows
from .simplex import find_nonneg_solution, maximize


@dataclass(frozen=True)
class DeterministicStrategy:
    """One output per (party, input), chosen in advance."""

    shape: BoxShape
    assignments: tuple[tuple[int, ...], ...]

    def box(self):
        def fn(outs, ins):
            hit = all(outs[k] == self.assignments[k][ins[k]]
                      for k in range(self.shape.parties))
            return Fraction(1) if hit else Fraction(0)
        return Box.from_function(self.shape, fn)


@dataclass(frozen=True)
class TwoWayStrategy:
    """A bipartition with the pair answering as one (possibly signalling)
    unit and the remaining party answering alone."""

    shape: BoxShape
    pair: tuple[int, int]
    single: int
    pair_map: tuple[tuple[int, int], ...]   # indexed by pair joint input
    single_map: tuple[int, ...]

    def _pair_index(self, ins):
        i, j = self.pair
        return ins[i] * self.shape.inputs[j] + ins[j]

    def box(self):
        i, j = self.pair

        def fn(outs, ins):
            want = self.pair_map[self._pair_index(ins)]
            hit = ((outs[i], outs[j]) == want
                   and outs[self.single] == self.single_map[ins[self.single]])
            return Fraction(1) if hit else Fraction(0)
        return Box.from_function(self.shape, fn)


def enumerate_local_strategies(shape, cap=200_000):
    """Every deterministic strategy of a shape; count is the product of all
    per-(party, input) output counts."""
    total = 1
    for k in range(shape.parties):
        for x in range(shape.inputs[k]):
            total *= shape.outputs[k][x]
    if total > cap:
        raise EnumerationCapError(
            f"{total} deterministic strategies exceed the cap of {cap}")
    per_party = []
    for k in range(shape.parties):
        choices = iproduct(*[range(shape.outputs[k][x])
                             for x in range(shape.inputs[k])])
        per_party.append([tuple(c) for c in choices])
    return tuple(DeterministicStrategy(shape, assign)
                 for assign in iproduct(*per_party))


def enumerate_twoway_strategies(shape, cap=200_000):
    """Every bipartition strategy of a tripartite shape: the pair plays an
    arbitrary joint function of both its inputs, the single party plays
    alone.  Signalling inside the pair is allowed by construction."""
    if shape.parties != 3:
        raise ShapeError("two-way locality is defined for three parties")
    out = []
    for single in range(3):
        i, j = [k for k in range(3) if k != single]
        pair_inputs = [(xi, xj) for xi in range(shape.inputs[i])
                       for xj in range(shape.inputs[j])]
        total = 1
        for xi, xj in pair_inputs:
            total *= shape.outputs[i][xi] * shape.outputs[j][xj]
        for xk in range(shape.inputs[single]):
            total *= shape.outputs[single][xk]
        if total * 3 > cap:
            raise EnumerationCapError(
                f"about {total * 3} bipartition strategies exceed the cap of {cap}")
        pair_choices = iproduct(*[
            [(ai, aj) for ai in range(shape.outputs[i][xi])
             for aj in range(shape.outputs[j][xj])]
            for xi, xj in pair_inputs])
        pair_choices = [tuple(c) for c in pair_choices]
        single_choices = [tuple(c) for c in iproduct(
            *[range(shape.outputs[single][xk])
              for xk in range(shape.inputs[single])])]
        for pm in pair_choices:
            for sm in single_choices:
                out.append(TwoWayStrategy(shape, (i, j), single, pm, sm))
    return tuple(out)


@dataclass(frozen=True)
class BellFunctional:
    """A linear form over box tables, with its documented bounds.

    local_bound is the maximum over the strategy class the functional is
    quoted for (deterministic strategies for CHSH, two-way-local boxes for
    the Svetlichny form); algebraic_max is the maximum over all valid boxes.
    """

    shape: BoxShape
    coefficients: tuple[Fraction, ...]
    local_bound: Fraction | None = None
    algebraic_max: Fraction | None = None


def evaluate_functional(box, functional):
    if box.shape != functional.shape:
        raise ShapeError("functional and box have different shapes")
    return sum(c * p for c, p in zip(functional.coefficients, box.table))


@dataclass(frozen=True)
class LocalModel:
    """Exact convex decomposition of a box over deterministic strategies."""

    strategies: tuple
    weights: tuple[Fraction, ...]

    def mixture(self):
        boxes = [s.box() for s in self.strategies]
        shape = boxes[0].shape
        table = [Fraction(0)] * shape.table_size
        for w, b in zip(self.weights, boxes):
            for i, v in enumerate(b.table):
                table[i] += w * v
        return Box(shape, tuple(table))

    def verify(self, target):
        if any(w < 0 for w in self.weights):
            return False
        if sum(self.weights) != 1:
            return False
        return self.mixture().table == target.table

    def __bool__(self):
        return True


@dataclass(frozen=True)
class SeparatingCertificate:
    """A linear form with threshold = exact maximum over the tested strategy
    class, strictly exceeded by the separated box."""

    shape: BoxShape
    coefficients: tuple[Fraction, ...]
    threshold: Fraction
    value: Fraction

    def functional(self):
        return BellFunctional(self.shape, self.coefficients,
                              local_bound=self.threshold)

    def evaluate(self, box):
        return evaluate_functional(box, self.functional())

    def verify(self, box, strategies):
        if self.evaluate(box) != self.value or self.value <= self.threshold:
            return False
        return all(self.evaluate(s.box()) <= self.threshold
                   for s in strategies)

    def __bool__(self):
        return False


def convex_membership(target, boxes):
    """Exact nonnegative weights expressing target as a mixture of the given
    boxes (a dict index -> weight), or None."""
    for b in boxes:
        if b.shape != target.shape:
            raise ShapeError("mixture candidates must share the target's shape")
    return _mixture_weights(target.table, [b.table for b in boxes])


def _mixture_weights(target_table, tables):
    """LP feasibility core of convex_membership, over flat tables.  Tables
    putting mass outside the target's support are pruned up front; that is
    exact, since any decomposition must give them weight zero."""
    support_ok = [j for j, t in enumerate(tables)
                  if all(tv > 0 or v == 0 for tv, v in zip(target_table, t))]
    if not support_ok:
        return None
    rows = [[tables[j][i] for j in support_ok]
            for i in range(len(target_table))]
    res = find_nonneg_solution(rows, list(target_table))
    if res.status != "optimal":
        return None
    weights = {}
    for j, w in zip(support_ok, res.x):
        if w:
            weights[j] = w
    return weights


def _dedup_strategies(strategies):
    seen = {}
    for s in strategies:
        key = s.box().table
        if key not in seen:
            seen[key] = (s, key)
    pairs = list(seen.values())
    return [s for s, _ in pairs], [t for _, t in pairs]


def _normalized_separator(raw, box, tables, constant_rows):
    """Project a dual vector off a rowspace, scale to primitive integers,
    and recompute the threshold over the whole strategy set.  Only rows
    whose inner product is the same for every strategy may be projected
    out; anything else would reorder the scores."""
    shape = box.shape
    coeffs = project_out_rowspace(raw, constant_rows)
    coeffs = [Fraction(c) for c in clear_denominators(coeffs)]
    threshold = max(sum(c * p for c, p in zip(coeffs, t)) for t in tables)
    value = sum(c * p for c, p in zip(coeffs, box.table))
    return SeparatingCertificate(shape, tuple(coeffs), threshold, value)


def _certificate_visibility(box, strategies, tables, constant_rows):
    """Separator from the dual of the visibility LP: how far towards the box
    one can move from uniform while staying a mixture of strategies.  The
    crossing point lies on a face, which pins the dual down to the facet
    normal (up to the equality rowspace)."""
    shape = box.shape
    u = uniform(shape).table
    n = shape.table_size
    rows = []
    rhs = []
    for i in range(n):
        rows.append([t[i] for t in tables]
                    + [u[i] - box.table[i], Fraction(0)])
        rhs.append(u[i])
    rows.append([Fraction(1)] * len(tables) + [Fraction(0), Fraction(0)])
    rhs.append(Fraction(1))
    rows.append([Fraction(0)] * len(tables) + [Fraction(1), Fraction(1)])
    rhs.append(Fraction(1))
    objective = [Fraction(0)] * len(tables) + [Fraction(1), Fraction(0)]
    res = maximize(rows, rhs, objective)
    if res.status != "optimal":
        raise AssertionError(f"visibility LP ended {res.status}, not optimal")
    if res.objective >= 1:
        raise AssertionError("certificate requested for a member box")
    cert = _normalized_separator([-y for y in res.dual[:n]], box, tables,
                                 constant_rows)
    if cert.value <= cert.threshold:
        raise AssertionError("separator extraction failed; dual degenerate")
    return cert


def _certificate_colgen(box, strategies, tables, constant_rows):
    """Separator by column generation: Farkas duals of growing subset
    feasibility problems, until one cuts off every strategy."""
    n = box.shape.table_size
    centred = [p - u for p, u in zip(box.table, uniform(box.shape).table)]
    merit = [sum(c * v for c, v in zip(centred, t)) for t in tables]
    order = sorted(range(len(tables)), key=lambda j: merit[j], reverse=True)
    active = order[:64]
    active_set = set(active)
    while True:
        rows = [[tables[j][i] for j in active] for i in range(n)]
        res = find_nonneg_solution(rows, list(box.table))
        if res.status != "infeasible":
            raise AssertionError(
                f"subset feasibility LP ended {res.status}, not infeasible")
        cert = _normalized_separator([-y for y in res.dual], box, tables,
                                     constant_rows)
        if cert.value > cert.threshold:
            return cert
        scores = [sum(c * p for c, p in zip(cert.coefficients, t))
                  for t in tables]
        cutoff = max(scores[j] for j in active)
        violators = sorted((j for j in range(len(tables))
                            if j not in active_set and scores[j] > cutoff),
                           key=lambda j: scores[j], reverse=True)
        if not violators:
            raise AssertionError("no progress in column generation")
        for j in violators[:64]:
            active.append(j)
            active_set.add(j)


def _membership(box, strategies, constant_rows):
    box.require_valid()
    strategies, tables = _dedup_strategies(strategies)
    weights = _mixture_weights(box.table, tables)
    if weights is not None:
        kept = sorted(weights)
        return LocalModel(tuple(strategies[j] for j in kept),
                          tuple(weights[j] for j in kept))
    if len(strategies) <= 600:
        return _certificate_visibility(box, strategies, tables, constant_rows)
    return _certificate_colgen(box, strategies, tables, constant_rows)


def is_local(box, cap=200_000):
    """A LocalModel if the box is a mixture of deterministic strategies,
    else a SeparatingCertificate (truthy and falsy respectively)."""
    rows = [list(r) for r, _ in build_hrep(box.shape).equalities]
    return _membership(box, enumerate_local_strategies(box.shape, cap), rows)


def is_two_way_local(box, cap=200_000):
    """Like is_local but over all bipartition strategies of a tripartite
    box.  Pair strategies may signal inside the pair, so only the
    normalization rows are safe to project out of certificates."""
    rows = [list(r) for r in normalization_rows(box.shape)]
    return _membership(box, enumerate_twoway_strategies(box.shape, cap), rows)


def _require_binary(box):
    if any(d != 2 for party in box.shape.outputs for d in party):
        raise ShapeError("correlators need binary outputs")


def correlator(box, ins):
    """Expectation of (-1) to the sum of all outputs at a joint input."""
    _require_binary(box)
    off, size = box.shape.block(tuple(ins))
    total = Fraction(0)
    for outs in box.shape.joint_outputs(tuple(ins)):
        sign = -1 if sum(outs) % 2 else 1
        total += sign * box.prob(outs, tuple(ins))
    return total


def _chsh_signs(alpha, beta, gamma):
    return {
        (0, 0): (-1) ** gamma,
        (0, 1): (-1) ** (beta + gamma),
        (1, 0): (-1) ** (alpha + gamma),
        (1, 1): (-1) ** (alpha + beta + gamma + 1),
    }


def _chsh_shape(shape):
    if shape.parties != 2 or shape.inputs != (2, 2):
        raise ShapeError("CHSH needs two parties with two inputs each")
    if any(d != 2 for party in shape.outputs for d in party):
        raise ShapeError("CHSH needs binary outputs")


def chsh(box, alpha=0, beta=0, gamma=0):
    """One of the eight CHSH correlator combinations."""
    _chsh_shape(box.shape)
    signs = _chsh_signs(alpha, beta, gamma)
    return sum(signs[ins] * correlator(box, ins) for ins in signs)


def chsh_functional(alpha=0, beta=0, gamma=0):
    """Coefficient form of chsh(..., alpha, beta, gamma); bound 2 over
    deterministic strategies, algebraic maximum 4."""
    shape = BoxShape.homogeneous(2, 2, 2)
    signs = _chsh_signs(alpha, beta, gamma)

    coeffs = [Fraction(0)] * shape.table_size
    for ins, sign in signs.items():
        for outs in shape.joint_outputs(ins):
            par = -1 if sum(outs) % 2 else 1
            coeffs[shape.index(outs, ins)] = Fraction(sign * par)
    return BellFunctional(shape, tuple(coeffs), Fraction(2), Fraction(4))


def svetlichny_functional(eps=0, zeta=0, eta=0):
    """One member of the Svetlichny family: correlators signed by
    (-1) to [X=Y=Z] XOR eps.X XOR zeta.Y XOR eta.Z; bound 4 over two-way-local
    boxes, algebraic maximum 8."""
    shape = BoxShape.homogeneous(3, 2, 2)
    coeffs = [Fraction(0)] * shape.table_size
    for ins in shape.joint_inputs:
        x, y, z = ins
        e = int(x == y == z) ^ (eps & x) ^ (zeta & y) ^ (eta & z)
        sign = (-1) ** e
        for outs in shape.joint_outputs(ins):
            par = -1 if sum(outs) % 2 else 1
            coeffs[shape.index(outs, ins)] = Fraction(sign * par)
    return BellFunctional(shape, tuple(coeffs), Fraction(4), Fraction(8))


def svetlichny(box):
    """Largest violation among the Svetlichny family members (in absolute
    value); two-way-local boxes stay at or below 4."""
    if box.shape != BoxShape.homogeneous(3, 2, 2):
        raise ShapeError("the Svetlichny family needs the three-party "
                         "two-input binary shape")
    corr = {ins: correlator(box, ins) for ins in box.shape.joint_inputs}
    best = Fraction(0)
    for eps, zeta, eta in iproduct(range(2), repeat=3):
        total = Fraction(0)
        for (x, y, z), c in corr.items():
            e = int(x == y == z) ^ (eps & x) ^ (zeta & y) ^ (eta & z)
            total += (-1) ** e * c
        best = max(best, abs(total))
    return best
