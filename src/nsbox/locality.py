"""Membership tests for the local and two-way-local polytopes, with exact
separating certificates, plus the CHSH and Svetlichny functionals."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import product as iproduct
from math import prod

import numpy as np

from .boxes import Box, BoxShape, ShapeError, _as_int, _layout, _numerators, flat
from .dd import EnumerationCapError
from .families import _check_bits
from .linalg import (_int_array, _int_products, _max_abs, _projector, clear_denominators,
                     reduce_content)
from .polytope import build_hrep, normalization_rows
from .simplex import _Phase1


class _Strategy:
    """A deterministic strategy of ``_strategy_class``'s class ``_kind``;
    ``_digits`` encodes its own fields as choice digits of its part (the
    single party's for two-way strategies)."""

    def support(self):
        """The flat table index hit at each joint input, in table order;
        computed once per strategy, by ``_supports``."""
        if "_support" not in vars(self):
            _supports([self])
        return vars(self)["_support"]

    def box(self):
        """The deterministic box with a 1 at each index of the support."""
        table = np.bincount(self.support(), minlength=self.shape.table_size)
        return Box(self.shape, table.tolist())


@dataclass(frozen=True)
class DeterministicStrategy(_Strategy):
    """One output per (party, input), chosen in advance."""

    shape: BoxShape
    assignments: tuple[tuple[int, ...], ...]
    _kind = "local"

    def _digits(self):
        return sum(self.assignments, ())


@dataclass(frozen=True)
class TwoWayStrategy(_Strategy):
    """A bipartition with the pair answering as one (possibly signalling)
    unit and the remaining party answering alone."""

    shape: BoxShape
    pair: tuple[int, int]
    single: int
    pair_map: tuple[tuple[int, int], ...]   # indexed by pair joint input
    single_map: tuple[int, ...]
    _kind = "twoway"

    def _digits(self):
        (i, j), outs = self.pair, self.shape.outputs
        return (*(a * n + b for (a, b), n in zip(self.pair_map, outs[j] * len(outs[i]))),
                *self.single_map)


def _supports(strategies):
    """The strategies' supports as an (S, joint inputs) array.  Each is
    computed once, from the strategy's own fields, never read from a cached
    table: one ``flat`` gather per class part on the digits they encode."""
    todo = {}
    for s in strategies:
        if "_support" not in vars(s):
            todo.setdefault((s._kind, s.shape, getattr(s, "single", 0)), []).append(s)
    for (kind, shape, part), group in todo.items():
        outs = _strategy_class(kind, shape)[part][1](np.array([s._digits() for s in group]))
        for s, row in zip(group, flat(shape, _layout(shape).inputs, outs).tolist()):
            vars(s)["_support"] = tuple(row)
    return np.array([vars(s)["_support"] for s in strategies], np.intp)


@lru_cache(maxsize=16)
def _strategy_class(kind, shape, bits=0):
    """A strategy class as parts (radices, outs, make): a strategy picks one
    digit below the radix of each choice slot, ``outs`` maps (S, slots)
    digits to every party's output at every joint input, (S, J, parties),
    and ``make`` builds the strategies from their digits.  "local": one slot
    per (party, input), party-major.  "twoway": one part per single party k,
    one slot per pair input (xi, xj) holding ai * (j's outputs at xj) + aj,
    then one per input of k.  "oneway" (messages m < M = 2**bits): one slot
    per input x of Alice holding m * (outputs at x) + a, then one per
    (Bob's input, m); its strategies are their digit tuples."""
    ins, counts = _layout(shape).inputs, _layout(shape).counts
    if kind == "local":
        starts = np.cumsum((0, *shape.inputs[:-1]))
        cuts = list(zip(starts.tolist(), (starts + shape.inputs).tolist()))
        return [([d for p in shape.outputs for d in p],
                 lambda digits: digits[:, starts + ins],
                 lambda digits: [DeterministicStrategy(shape, a) for a in zip(
                     *(_shared(digits[:, a:b], tuple) for a, b in cuts))])]
    if kind == "oneway":
        m_count, xs = 2 ** bits, shape.inputs[0]

        def outs(digits):
            m, a = np.divmod(digits[:, ins[:, 0]], counts[0, ins[:, 0]])
            return np.stack([a, np.take_along_axis(digits, xs + ins[:, 1] * m_count + m, 1)], -1)
        return [([m_count * d for d in shape.outputs[0]]
                 + [d for d in shape.outputs[1] for _ in range(m_count)], outs,
                 lambda digits: list(map(tuple, digits.tolist())))]
    if shape.parties != 3:
        raise ShapeError("two-way locality is defined for three parties")
    return [_bipartition(shape, *(m for m in range(3) if m != k), k) for k in range(3)]


def _check_cap(kind, shape, cap, bits=0):
    """Refuse a class whose exact strategy count exceeds the cap, before
    anything of it is built or looked up."""
    cap = _as_int(cap, "the strategy cap")
    count = sum(prod(radices) for radices, _, _ in _strategy_class(kind, shape, bits))
    if count > cap:
        at = f" at {bits} message bits" if kind == "oneway" else ""
        # str() refuses integers of more than 4300 digits
        shown = count if count.bit_length() <= 64 else f"at least 2^{count.bit_length() - 1}"
        raise EnumerationCapError(f"{shown} {kind} strategies{at} exceed the cap of {cap}")


def _strategy_table(kind, shape, bits=0):
    """Every strategy of a class in iproduct order over each part's slots,
    and per part (digits, outs), the (S, slots) digits decoded from the
    strategy numbers."""
    strategies, table = [], []
    for radices, outs, make in _strategy_class(kind, shape, bits):
        place = np.cumprod([1, *radices[:0:-1]])[::-1]
        digits = np.arange(prod(radices))[:, None] // place % radices
        strategies += make(digits)
        table.append((digits, outs))
    return tuple(strategies), table


def _bipartition(shape, i, j, k):
    """The "twoway" part of ``_strategy_class`` whose single party is k."""
    ins, counts = _layout(shape).inputs, _layout(shape).counts
    npair, pair = shape.inputs[i] * shape.inputs[j], ins[:, i] * shape.inputs[j] + ins[:, j]
    bs = shape.outputs[j] * shape.inputs[i]
    radices = [a * b for a in shape.outputs[i] for b in shape.outputs[j]]
    radices += shape.outputs[k]

    def outs(digits):
        got = np.empty((len(digits), *ins.shape), digits.dtype)
        got[..., i], got[..., j] = np.divmod(digits[:, pair], counts[j, ins[:, j]])
        got[..., k] = digits[:, npair + ins[:, k]]
        return got

    def make(digits):
        return [TwoWayStrategy(shape, (i, j), k, pm, sm) for pm, sm in zip(
            _shared(digits[:, :npair], lambda row: tuple(map(divmod, row, bs))),
            _shared(digits[:, npair:], tuple))]
    return radices, outs, make


def _shared(digits, build):
    """``build(row)`` for each row of digits, made once per distinct row and
    shared by the rows equal to it, as the fields of strategies are.  Rows
    are told apart by their mixed-radix codes over the column maxima."""
    codes = digits @ np.cumprod([1, *digits.max(axis=0)[:0:-1] + 1])[::-1]
    _, first, inverse = np.unique(codes, return_index=True, return_inverse=True)
    built = [build(row) for row in digits[first].tolist()]
    return [built[g] for g in inverse.tolist()]


def enumerate_local_strategies(shape, cap=200_000):
    """Every deterministic strategy of a shape; count is the product of all
    per-(party, input) output counts."""
    _check_cap("local", shape, cap)
    return _strategy_table("local", shape)[0]


def enumerate_twoway_strategies(shape, cap=200_000):
    """Every bipartition strategy of a tripartite shape: the pair plays an
    arbitrary joint function of both its inputs, the single party plays
    alone.  Signalling inside the pair is allowed by construction."""
    _check_cap("twoway", shape, cap)
    return _strategy_table("twoway", shape)[0]


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
        """One integer scatter of the weights' numerators over the strategies'
        own supports, int64 while their absolute sum is below 2**62."""
        shape = self.strategies[0].shape
        nums, den = _numerators(self.weights)
        table = np.zeros(shape.table_size, nums.dtype)
        np.add.at(table, _supports(self.strategies), nums[:, None])
        return Box(shape, tuple(Fraction(v, den) for v in table.tolist()))

    def verify(self, target):
        return (all(w >= 0 for w in self.weights) and sum(self.weights) == 1
                and self.mixture().table == target.table)

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
        no strategy more than the threshold, by ``_verify`` on the
        strategies' own supports."""
        strategies = tuple(strategies)
        if any(s.shape != self.shape for s in strategies):
            raise ShapeError("functional and strategy have different shapes")
        joint = len(_layout(self.shape).offsets)
        return self._verify(box, _supports(strategies).reshape(-1, joint))

    def _verify(self, box, supports):
        """``verify`` on an (S, joint inputs) array of supports, scored by
        one integer gather of the coefficients, int64 while max |coefficient|
        times the joint inputs is below 2**62."""
        if self.evaluate(box) != self.value or self.value <= self.threshold:
            return False
        # scaled by one positive factor, so an integer score s of the
        # scaled form satisfies s <= bound iff the form's is <= threshold
        *coeffs, bound = clear_denominators([*self.coefficients, self.threshold])
        dtype = np.int64 if max(map(abs, coeffs)) * supports.shape[1] < 2 ** 62 else object
        scores = np.array(coeffs, dtype)[supports].sum(axis=1)
        return not len(scores) or int(scores.max()) <= bound

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
    res = _Phase1(tables[support_ok].T, list(target_table), len(support_ok)).solve()
    if res.status != "optimal":
        return None
    weights = {}
    for j, w in zip(support_ok.tolist(), res.x):
        if w:
            weights[j] = w
    return weights


class _StrategyRecord:
    """What every membership test of a class reads: the first strategy of
    each distinct support, in class order, and their tables as the rows of
    a read-only 0/1 int64 matrix, one 1 per joint input.  The supports and
    the projector are made on the class's first certificate."""

    def __init__(self, kind, shape, strategies, matrix):
        self.kind, self.shape, self.strategies, self.matrix = kind, shape, strategies, matrix
        self.joint = len(_layout(shape).offsets)

    @cached_property
    def supports(self):
        """The strategies' supports, stacked by ``_supports`` from their fields."""
        supports = _supports(self.strategies)
        supports.setflags(write=False)
        return supports

    @cached_property
    def projector(self):
        """``linalg._projector`` off rows every strategy scores alike (the
        H-rep rows for "local", the normalization rows for "twoway"): any
        other row would reorder the scores."""
        return _projector(build_hrep(self.shape)._int_rows()[:, 1:] if self.kind == "local"
                          else normalization_rows(self.shape))


def _strategy_record(kind, shape, cap, bits=0):
    """The cached record of a class whose exact count is within the cap."""
    _check_cap(kind, shape, cap, bits)
    return _class_record(kind, shape, bits)


@lru_cache(maxsize=8)
def _class_record(kind, shape, bits):
    """``_strategy_record`` keyed on the class alone; the supports that
    deduplicate it are one ``flat`` gather on the table's digits."""
    (strategies, table), ins = _strategy_table(kind, shape, bits), _layout(shape).inputs
    supports = np.concatenate([flat(shape, ins, outs(digits)) for digits, outs in table])
    _, first = np.unique(supports, axis=0, return_index=True)
    first.sort()
    matrix = np.zeros((len(first), shape.table_size), dtype=np.int64)
    np.put_along_axis(matrix, supports[first], 1, axis=1)
    matrix.setflags(write=False)
    return _StrategyRecord(kind, shape, tuple(strategies[i] for i in first.tolist()), matrix)


def _scores(coeffs, record):
    """Integer coefficients dotted with every strategy table of a record, as
    one array: int64 while max |coefficient| times the ones of a row (one
    per joint input) is below 2**62, which bounds every partial sum, and
    Python ints past it."""
    c = _int_array(coeffs)
    dtype = np.int64 if c.dtype != object and _max_abs(c) * record.joint < 2 ** 62 else object
    return record.matrix.astype(dtype, copy=False) @ c.astype(dtype, copy=False)


def _box_score(coeffs, nums):
    """Integer coefficients dotted with a box's numerators, as a Python int."""
    return int(_int_products(_int_array([coeffs]), nums[None])[0, 0])


def _best_first(scores, candidates):
    """Increasing candidate indices by score, highest first and ties in
    index order, as ``sorted(..., key=scores.__getitem__, reverse=True)``."""
    return candidates[np.argsort(-scores[candidates], kind="stable")]


def _normalized_separator(raw, nums, den, record):
    """Project an integer dual vector with the record's projector to
    primitive integers, valued on the box nums / den, and recompute the
    threshold over the record's whole strategy set."""
    ints = reduce_content(_int_products(_int_array([raw]), record.projector)[0].tolist())
    return SeparatingCertificate(record.shape, tuple(map(Fraction, ints)),
                                 Fraction(int(_scores(ints, record).max())),
                                 Fraction(_box_score(ints, nums), den))


def _membership(box, record):
    """A LocalModel or a SeparatingCertificate, found by column generation
    over a class's record (from ``_strategy_record``), which holds all but
    the box's own work, and re-verified from the strategies' own supports
    before it is returned (``SeparatingCertificate._verify``).

    The box is read once as integer numerators over one denominator.  The
    active columns start as the 64 strategies that score highest against
    it, in strategy order, as the columns of one phase-1 simplex tableau
    (``simplex._Phase1``).  Each round solves it from the last round's
    basis: weights give the LocalModel, its strategies in strategy order,
    and otherwise the primitive part of the negated integer Farkas vector
    is a form the box beats and no active strategy does.  When the box
    also beats every other strategy the form, projected by the record's
    projector, is the certificate; else the strategies scoring above the
    active maximum are appended to the tableau, best first and at most as
    many as are active; ties keep strategy order (``_best_first``)."""
    box.require_valid()
    nums, den = _numerators(box.table)
    strategies, matrix = record.strategies, record.matrix
    active = np.sort(_best_first(_scores(nums, record), np.arange(len(matrix)))[:64]).tolist()
    inactive = np.ones(len(matrix), bool)
    inactive[active] = False
    lp = _Phase1(matrix[active].T, list(box.table), len(active))
    while True:
        res = lp.solve()
        if res.status == "optimal":
            used = sorted((j, w) for j, w in zip(active, res.x) if w)
            model = LocalModel(tuple(strategies[j] for j, _ in used),
                               tuple(w for _, w in used))
            if not model.verify(box):
                raise AssertionError("local model does not reproduce the box")
            return model
        raw = reduce_content([-y for y in res.dual])
        scores = _scores(raw, record)
        if _box_score(raw, nums) > den * int(scores.max()):
            cert = _normalized_separator(raw, nums, den, record)
            if not cert._verify(box, record.supports):
                raise AssertionError("separating certificate does not verify")
            return cert
        over = np.flatnonzero(inactive & (scores > scores[active].max()))
        if not len(over):
            raise AssertionError("no progress in column generation")
        joining = _best_first(scores, over)[:len(active)]
        lp.add_columns(matrix[joining].T)
        inactive[joining] = False
        active += joining.tolist()


def is_local(box, cap=200_000):
    """A LocalModel if the box is a mixture of deterministic strategies,
    else a SeparatingCertificate (truthy and falsy respectively).  Either
    is verified before it is returned.  The certificate is the Farkas
    separator the column generation stopped on, not necessarily a facet
    of the local polytope."""
    return _membership(box, _strategy_record("local", box.shape, cap))


def is_two_way_local(box, cap=200_000):
    """Like is_local but over all bipartition strategies of a tripartite
    box.  Pair strategies may signal inside the pair, so only the
    normalization rows are safe to project out of certificates."""
    return _membership(box, _strategy_record("twoway", box.shape, cap))


def correlator(box, ins):
    """Expectation of (-1) to the sum of all outputs at a joint input."""
    if any(d != 2 for party in box.shape.outputs for d in party):
        raise ShapeError("correlators need binary outputs")
    ins = tuple(ins)
    block = box.block(ins)
    return sum((-1 if sum(outs) % 2 else 1) * p
               for outs, p in zip(box.shape.joint_outputs(ins), block))


def chsh(box, alpha=0, beta=0, gamma=0):
    """One of the eight CHSH correlator combinations, ``chsh_functional``'s."""
    if box.shape.parties != 2 or box.shape.inputs != (2, 2):
        raise ShapeError("CHSH needs two parties with two inputs each")
    if any(d != 2 for party in box.shape.outputs for d in party):
        raise ShapeError("CHSH needs binary outputs")
    return evaluate_functional(box, chsh_functional(alpha, beta, gamma))


def _correlator_form(shape, signs):
    """Coefficients of the sum over joint inputs ins of signs[ins] times the
    correlator at ins: signs[ins] * (-1) ** sum(outputs) on each entry."""
    lay = _layout(shape)
    at_ins = np.array([signs[ins] for ins in shape.joint_inputs])[lay.joint]
    return tuple(map(Fraction, (at_ins * (1 - lay.outs.sum(axis=1) % 2 * 2)).tolist()))


def chsh_functional(alpha=0, beta=0, gamma=0):
    """The CHSH correlator combination signed by alpha, beta and gamma as a
    coefficient form; bound 2 over deterministic strategies, algebraic
    maximum 4."""
    _check_bits(alpha=alpha, beta=beta, gamma=gamma)
    signs = {(0, 0): (-1) ** gamma, (0, 1): (-1) ** (beta + gamma),
             (1, 0): (-1) ** (alpha + gamma), (1, 1): (-1) ** (alpha + beta + gamma + 1)}
    shape = BoxShape.homogeneous(2, 2, 2)
    return BellFunctional(shape, _correlator_form(shape, signs), Fraction(2), Fraction(4))


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
