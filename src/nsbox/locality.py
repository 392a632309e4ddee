"""Membership tests for the local and two-way-local polytopes, with exact
separating certificates, plus the CHSH and Svetlichny functionals."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import product as iproduct

import numpy as np

from .boxes import Box, BoxShape, ShapeError, _layout
from .dd import EnumerationCapError
from .families import _check_bits, uniform
from .linalg import _int_matmul, clear_denominators, project_out_rowspace
from .polytope import build_hrep, normalization_rows
from .simplex import find_nonneg_solution


@dataclass(frozen=True)
class DeterministicStrategy:
    """One output per (party, input), chosen in advance."""

    shape: BoxShape
    assignments: tuple[tuple[int, ...], ...]

    def support(self):
        """The flat table index hit at each joint input, in table order;
        computed once per strategy."""
        return self._support

    @cached_property
    def _support(self):
        return tuple(
            off + sum(a[x] * st for a, x, st in zip(self.assignments, ins, strides))
            for ins, (off, strides) in _layout(self.shape).blocks.items())

    def box(self):
        return _support_box(self.shape, self.support())


@dataclass(frozen=True)
class TwoWayStrategy:
    """A bipartition with the pair answering as one (possibly signalling)
    unit and the remaining party answering alone."""

    shape: BoxShape
    pair: tuple[int, int]
    single: int
    pair_map: tuple[tuple[int, int], ...]   # indexed by pair joint input
    single_map: tuple[int, ...]

    def support(self):
        """The flat table index hit at each joint input, in table order;
        computed once per strategy."""
        return self._support

    @cached_property
    def _support(self):
        i, j = self.pair
        k = self.single
        width = self.shape.inputs[j]
        out = []
        for ins, (off, st) in _layout(self.shape).blocks.items():
            ai, aj = self.pair_map[ins[i] * width + ins[j]]
            out.append(off + ai * st[i] + aj * st[j]
                       + self.single_map[ins[k]] * st[k])
        return tuple(out)

    def box(self):
        return _support_box(self.shape, self.support())


def _support_box(shape, support):
    """The deterministic box with a 1 at each index of ``support``."""
    table = [0] * shape.table_size
    for i in support:
        table[i] = 1
    return Box(shape, tuple(table))


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
        shape = self.strategies[0].shape
        table = [Fraction(0)] * shape.table_size
        for w, s in zip(self.weights, self.strategies):
            for i in s.support():
                table[i] += w
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
    class, strictly exceeded by the separated box.

    The membership tests return the Farkas separator on which their
    column generation stopped, verified against every strategy; it need
    not be a facet of the strategies' polytope."""

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
        """Whether the form gives the box its value above the threshold and
        no strategy more than the threshold.  Strategies are scored from
        their supports in Python ints."""
        if self.evaluate(box) != self.value or self.value <= self.threshold:
            return False
        # scaled by one positive factor, so an integer score s of the
        # scaled form satisfies s <= bound iff the form's is <= threshold
        *coeffs, bound = clear_denominators([*self.coefficients, self.threshold])
        for s in strategies:
            if s.shape != self.shape:
                raise ShapeError("functional and strategy have different shapes")
            if sum(coeffs[i] for i in s.support()) > bound:
                return False
        return True

    def __bool__(self):
        return False


def convex_membership(target, boxes):
    """Exact nonnegative weights expressing target as a mixture of the given
    boxes (a dict index -> weight), or None."""
    for b in boxes:
        if b.shape != target.shape:
            raise ShapeError("mixture candidates must share the target's shape")
    tables = np.empty((len(boxes), target.shape.table_size), dtype=object)
    for j, b in enumerate(boxes):
        tables[j] = b.table
    return _mixture_weights(target.table, tables)


def _mixture_weights(target_table, tables):
    """LP feasibility over the rows of a 2-D array of tables: Fractions
    from convex_membership, 0/1 int64 strategy matrices from
    comm.min_oneway_comm_with_SR, which the simplex takes as integer rows
    with no rescaling.  Tables putting mass outside the target's
    support are pruned up front; that is exact, since any decomposition
    must give them weight zero."""
    outside = np.array([v <= 0 for v in target_table], dtype=bool)
    support_ok = np.flatnonzero(~(tables[:, outside] != 0).any(axis=1))
    if not len(support_ok):
        return None
    res = find_nonneg_solution(tables[support_ok].T, list(target_table))
    if res.status != "optimal":
        return None
    weights = {}
    for j, w in zip(support_ok.tolist(), res.x):
        if w:
            weights[j] = w
    return weights


def _support_matrix(supports, table_size):
    """The 0/1 int64 matrix whose rows are the tables of the supports."""
    matrix = np.zeros((len(supports), table_size), dtype=np.int64)
    np.put_along_axis(matrix, np.array(supports, dtype=np.intp), 1, axis=1)
    return matrix


def _dedup_strategies(strategies):
    """The strategies with distinct supports, first of each kept, and
    their tables as the rows of one 0/1 int64 matrix."""
    seen = {}
    for s in strategies:
        seen.setdefault(s.support(), s)
    kept = list(seen.values())
    return kept, _support_matrix(list(seen), kept[0].shape.table_size)


@lru_cache(maxsize=8)
def _strategy_matrix(enumerate_strategies, shape, cap):
    """``_dedup_strategies`` of a shape's strategies as (tuple, matrix),
    cached per (enumerator, shape, cap), so the matrix is read-only."""
    kept, matrix = _dedup_strategies(enumerate_strategies(shape, cap))
    matrix.setflags(write=False)
    return tuple(kept), matrix


def _scores(coeffs, matrix):
    """Integer coefficients dotted with every strategy table."""
    return _int_matmul([coeffs], matrix)[0]


def _normalized_separator(raw, box, matrix, constant_rows):
    """Project a dual vector off a rowspace, scale to primitive integers,
    and recompute the threshold over the whole strategy set.  Only rows
    whose inner product is the same for every strategy may be projected
    out; anything else would reorder the scores."""
    ints = clear_denominators(project_out_rowspace(raw, constant_rows))
    coeffs = tuple(Fraction(c) for c in ints)
    value = sum(c * p for c, p in zip(coeffs, box.table))
    return SeparatingCertificate(box.shape, coeffs,
                                 Fraction(max(_scores(ints, matrix))), value)


def _membership(box, strategies, matrix, constant_rows):
    """A LocalModel or a SeparatingCertificate, found by column generation
    over deduplicated strategies and their 0/1 matrix (as from
    ``_strategy_matrix``), and re-verified from the strategies' own
    supports before it is returned.

    The active columns start as the 64 strategies that score highest
    against the box centred at uniform, kept in strategy order.  Each round
    solves the feasibility LP on them: weights give the LocalModel, and
    otherwise the negated Farkas vector is a form the box beats and no
    active strategy does.  When the box also beats every other strategy
    the form is the certificate; else the strategies scoring above the
    active maximum join, best first and at most as many as are active."""
    box.require_valid()
    centred = [p - u for p, u in zip(box.table, uniform(box.shape).table)]
    # a positive rescale of the centred box, so the order is unchanged
    merit = _scores(clear_denominators(centred), matrix)
    active = sorted(sorted(range(len(matrix)), key=merit.__getitem__,
                           reverse=True)[:64])
    while True:
        res = find_nonneg_solution(matrix[active].T, list(box.table))
        if res.status == "optimal":
            used = [(j, w) for j, w in zip(active, res.x) if w]
            model = LocalModel(tuple(strategies[j] for j, _ in used),
                               tuple(w for _, w in used))
            if not model.verify(box):
                raise AssertionError("local model does not reproduce the box")
            return model
        raw = clear_denominators([-y for y in res.dual])
        scores = _scores(raw, matrix)
        if sum(c * p for c, p in zip(raw, box.table)) > max(scores):
            cert = _normalized_separator(raw, box, matrix, constant_rows)
            if not cert.verify(box, strategies):
                raise AssertionError("separating certificate does not verify")
            return cert
        cutoff = max(scores[j] for j in active)
        taken = set(active)
        violators = sorted((j for j in range(len(matrix))
                            if j not in taken and scores[j] > cutoff),
                           key=scores.__getitem__, reverse=True)
        if not violators:
            raise AssertionError("no progress in column generation")
        active = sorted(active + violators[:len(active)])


def is_local(box, cap=200_000):
    """A LocalModel if the box is a mixture of deterministic strategies,
    else a SeparatingCertificate (truthy and falsy respectively).  Either
    is verified before it is returned.  The certificate is the Farkas
    separator the column generation stopped on, not necessarily a facet
    of the local polytope."""
    rows = [list(r) for r, _ in build_hrep(box.shape).equalities]
    return _membership(box, *_strategy_matrix(enumerate_local_strategies,
                                              box.shape, cap), rows)


def is_two_way_local(box, cap=200_000):
    """Like is_local but over all bipartition strategies of a tripartite
    box.  Pair strategies may signal inside the pair, so only the
    normalization rows are safe to project out of certificates."""
    rows = [list(r) for r in normalization_rows(box.shape)]
    return _membership(box, *_strategy_matrix(enumerate_twoway_strategies,
                                              box.shape, cap), rows)


def _require_binary(box):
    if any(d != 2 for party in box.shape.outputs for d in party):
        raise ShapeError("correlators need binary outputs")


def correlator(box, ins):
    """Expectation of (-1) to the sum of all outputs at a joint input."""
    _require_binary(box)
    ins = tuple(ins)
    block = box.block(ins)
    return sum((-1 if sum(outs) % 2 else 1) * p
               for outs, p in zip(box.shape.joint_outputs(ins), block))


def _chsh_signs(alpha, beta, gamma):
    _check_bits(alpha=alpha, beta=beta, gamma=gamma)
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


def _correlator_form(shape, signs):
    """Coefficients of the sum over joint inputs ins of signs[ins] times the
    correlator at ins: signs[ins] * (-1) ** sum(outputs) on each entry."""
    lay = _layout(shape)
    at_ins = np.array([signs[ins] for ins in lay.blocks])[lay.joint]
    return tuple(map(Fraction, (at_ins * (1 - lay.outs.sum(axis=1) % 2 * 2)).tolist()))


def chsh_functional(alpha=0, beta=0, gamma=0):
    """Coefficient form of chsh(..., alpha, beta, gamma); bound 2 over
    deterministic strategies, algebraic maximum 4."""
    shape = BoxShape.homogeneous(2, 2, 2)
    coeffs = _correlator_form(shape, _chsh_signs(alpha, beta, gamma))
    return BellFunctional(shape, coeffs, Fraction(2), Fraction(4))


def svetlichny_functional(eps=0, zeta=0, eta=0):
    """One member of the Svetlichny family: correlators signed by
    (-1) to [X=Y=Z] XOR eps.X XOR zeta.Y XOR eta.Z; bound 4 over two-way-local
    boxes, algebraic maximum 8."""
    _check_bits(eps=eps, zeta=zeta, eta=eta)
    shape = BoxShape.homogeneous(3, 2, 2)
    signs = {(x, y, z): (-1) ** (int(x == y == z) ^ (eps & x) ^ (zeta & y) ^ (eta & z))
             for x, y, z in shape.joint_inputs}
    return BellFunctional(shape, _correlator_form(shape, signs), Fraction(4), Fraction(8))


def svetlichny(box):
    """Largest violation among the Svetlichny family members (in absolute
    value); two-way-local boxes stay at or below 4."""
    if box.shape != BoxShape.homogeneous(3, 2, 2):
        raise ShapeError("the Svetlichny family needs the three-party "
                         "two-input binary shape")
    return max(abs(evaluate_functional(box, svetlichny_functional(*bits)))
               for bits in iproduct(range(2), repeat=3))
