"""Correlation boxes: exact conditional probability tables p(outputs | inputs).

The flat table runs over joint inputs with party 0 slowest, and inside each
joint input's block over joint outputs, again party 0 slowest.  Only this
module knows that layout: ``_layout`` holds it once per shape and ``flat``
looks positions up in it, so every re-indexing of a table is a gather."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product as iproduct
from numbers import Integral
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

Rational = Fraction

# Joint inputs are materialised when a shape is built; shapes with more are
# refused before that.  Tables are materialised when a box is built; shapes
# with more entries are refused when the shape is built.
_MAX_JOINT_INPUTS = 1 << 18
_MAX_TABLE_SIZE = 1 << 22


class ShapeError(ValueError):
    """Indices, tables or operands that do not fit a box shape."""


class InvalidBoxError(ValueError):
    """An operation needed a valid box and validation failed."""

    def __init__(self, report):
        super().__init__("invalid box: " + "; ".join(report.problems))
        self.report = report


def _as_int(v, what, error=ShapeError):
    """v as an int; bools and non-integers are refused, not truncated."""
    if isinstance(v, bool) or not isinstance(v, Integral):
        raise error(f"{what} must be an integer, got {v!r}")
    return int(v)


def _as_fraction(v):
    if isinstance(v, Fraction):
        return v
    if isinstance(v, int):
        return Fraction(v)
    raise ShapeError(f"table entries must be Fraction or int, got {type(v).__name__}")


@dataclass(frozen=True)
class BoxShape:
    """Output counts per (party, input); fixes the canonical table layout.

    ``outputs[k][x]`` is the number of outputs party ``k`` has for input ``x``.
    The flat table runs over joint inputs with party 0 slowest, and inside
    each joint-input block over joint outputs, again party 0 slowest.
    """

    outputs: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        outs = tuple(tuple(_as_int(d, "an output count") for d in p) for p in self.outputs)
        if not outs:
            raise ShapeError("a shape needs at least one party")
        for k, per_party in enumerate(outs):
            if not per_party:
                raise ShapeError(f"party {k} has no inputs")
            for x, d in enumerate(per_party):
                if d < 1:
                    raise ShapeError(f"party {k}, input {x}: output count {d} < 1")
        object.__setattr__(self, "outputs", outs)
        count = math.prod(len(p) for p in outs)
        if count > _MAX_JOINT_INPUTS:
            raise ShapeError(f"{count} joint inputs exceed the cap of "
                             f"{_MAX_JOINT_INPUTS}")
        # each joint block is a product over parties, so the table size is
        # the product of each party's summed output counts
        size = math.prod(sum(p) for p in outs)
        if size > _MAX_TABLE_SIZE:
            raise ShapeError(f"{size} table entries exceed the cap of "
                             f"{_MAX_TABLE_SIZE}")
        object.__setattr__(self, "_size", size)
        # hashed once: every cached layout and marginal map looks shapes up
        object.__setattr__(self, "_hash", hash(outs))

    def __hash__(self):
        return self._hash

    @classmethod
    def homogeneous(cls, parties, inputs, outputs):
        return cls(((outputs,) * inputs,) * parties)

    @classmethod
    def from_string(cls, text):
        """Parse shape strings like ``2,2/2,2`` or ``2:3/2:3,3``.

        Parties are separated by ``/``.  A party is a comma list of output
        counts, one per input; ``M:d`` is shorthand for M inputs with d
        outputs each, and ``M:d1,...,dM`` spells the counts out.
        """
        try:
            parties = []
            for token in text.split("/"):
                token = token.strip()
                if not token:
                    raise ValueError
                if ":" in token:
                    head, _, tail = token.partition(":")
                    m = int(head)
                    ds = [int(t) for t in tail.split(",")]
                    if m > _MAX_JOINT_INPUTS:
                        raise ShapeError(f"shape token {token!r}: {m} inputs "
                                         f"exceed the cap of {_MAX_JOINT_INPUTS}")
                    if len(ds) == 1:
                        ds = ds * m
                    if len(ds) != m:
                        raise ShapeError(
                            f"shape token {token!r}: {m} inputs but {len(ds)} output counts")
                else:
                    ds = [int(t) for t in token.split(",")]
                parties.append(tuple(ds))
        except ValueError as e:
            if isinstance(e, ShapeError):
                raise
            raise ShapeError(f"cannot parse shape string {text!r}") from None
        return cls(tuple(parties))

    def __str__(self):
        return "/".join(",".join(str(d) for d in p) for p in self.outputs)

    @property
    def parties(self):
        return len(self.outputs)

    @property
    def inputs(self):
        """Input count per party."""
        return tuple(len(p) for p in self.outputs)

    @property
    def table_size(self):
        return self._size

    @property
    def joint_inputs(self):
        return tuple(_layout(self).blocks)

    def outputs_at(self, ins):
        return tuple(self.outputs[k][x] for k, x in enumerate(ins))

    def joint_outputs(self, ins):
        return iproduct(*[range(d) for d in self.outputs_at(ins)])

    def block(self, ins):
        """(offset, size) of the table slice for one joint input."""
        try:
            off = _layout(self).blocks[tuple(ins)]
        except KeyError:
            raise ShapeError(f"joint input {tuple(ins)!r} not in shape {self}") from None
        return off, math.prod(self.outputs_at(ins))

    def index(self, outs, ins):
        ins = tuple(ins)
        off, _ = self.block(ins)
        dims = self.outputs_at(ins)
        if len(outs) != len(dims):
            raise ShapeError(f"joint output {tuple(outs)!r} has wrong arity for {self}")
        idx = 0
        for a, d in zip(outs, dims):
            if not 0 <= a < d:
                raise ShapeError(f"output {tuple(outs)!r} out of range at input {ins}")
            idx = idx * d + a
        return off + idx

    def entries(self):
        """Yield (joint_input, joint_output) pairs in canonical table order."""
        for ins in self.joint_inputs:
            for outs in self.joint_outputs(ins):
                yield ins, outs


class _Layout(NamedTuple):
    """A shape's table layout (J joint inputs, N entries, n parties); read-only."""

    blocks: MappingProxyType  # joint input -> block offset, in table order
    counts: np.ndarray        # (n, most inputs): outputs[k][x], 0 past party k's inputs
    inputs: np.ndarray        # (J, n): the digits of each joint input
    offsets: np.ndarray       # (J,): block offsets
    strides: np.ndarray       # (J, n): output strides in each block
    joint: np.ndarray         # (N,): each entry's joint-input number
    outs: np.ndarray          # (N, n): each entry's output digits


@lru_cache(maxsize=64)
def _layout(shape):
    """A shape's layout: the blocks follow each other, and outputs outs at
    joint input j sit at ``offsets[j] + sum(outs * strides[j])``."""
    width = max(shape.inputs)
    counts = np.array([p + (0,) * (width - len(p)) for p in shape.outputs])
    inputs = np.indices(shape.inputs).reshape(shape.parties, -1).T
    dims = counts[np.arange(shape.parties), inputs]
    strides = np.ones_like(dims)
    strides[:, :-1] = np.cumprod(dims[:, :0:-1], axis=1)[:, ::-1]
    sizes = dims.prod(axis=1)
    offsets = np.cumsum(sizes) - sizes
    joint = np.repeat(np.arange(len(sizes)), sizes)
    outs = (np.arange(shape.table_size) - offsets[joint])[:, None] // strides[joint] % dims[joint]
    arrays = (counts, inputs, offsets, strides, joint, outs)
    for a in arrays:
        a.setflags(write=False)
    blocks = dict(zip(map(tuple, inputs.tolist()), offsets.tolist()))
    return _Layout(MappingProxyType(blocks), *arrays)


def _entry(shape, i):
    """The (joint input, joint output) digit tuples of flat entry i."""
    lay = _layout(shape)
    return tuple(lay.inputs[lay.joint[i]].tolist()), tuple(lay.outs[i].tolist())


def flat(shape, ins, outs):
    """Flat indices from input and output digit arrays, whose last axes run
    over the parties and which broadcast together; outputs must be in range."""
    lay = _layout(shape)
    j = np.ravel_multi_index(tuple(np.moveaxis(ins, -1, 0)), shape.inputs)
    return lay.offsets[j] + (outs * lay.strides[j]).sum(axis=-1)


@dataclass(frozen=True)
class ValidationReport:
    problems: tuple[str, ...]

    @property
    def ok(self):
        return not self.problems

    def __str__(self):
        return "ok" if self.ok else "\n".join(self.problems)


@dataclass(frozen=True)
class Box:
    """A conditional probability table over a BoxShape, entries exact rationals.

    Construction only checks structure (table length); probabilistic
    soundness is a separate, explicit step: ``validate`` reports violations,
    ``require_valid`` raises on them.
    """

    shape: BoxShape
    table: tuple[Fraction, ...]

    def __post_init__(self):
        tab = tuple(self.table)
        if not set(map(type, tab)) <= {Fraction}:
            tab = tuple(_as_fraction(v) for v in tab)
        if len(tab) != self.shape.table_size:
            raise ShapeError(
                f"table has {len(tab)} entries, shape {self.shape} needs "
                f"{self.shape.table_size}")
        object.__setattr__(self, "table", tab)

    @classmethod
    def from_function(cls, shape, fn):
        """Fill the table by calling ``fn(joint_output, joint_input)``."""
        return cls(shape, tuple(fn(outs, ins) for ins, outs in shape.entries()))

    def prob(self, outs, ins):
        return self.table[self.shape.index(outs, ins)]

    def block(self, ins):
        off, size = self.shape.block(ins)
        return self.table[off:off + size]

    def validate(self):
        """Check positivity, normalization (each block sums to 1) and
        no-signalling (party k's inputs x and x + 1 give the rest the same
        marginal), all exactly, on sums over ``_marginal_map`` groups."""
        shape, table = self.shape, self.table
        nums, den = _numerators(table)
        problems = []
        for i in np.flatnonzero(nums < 0).tolist():
            ins, outs = _entry(shape, i)
            problems.append(f"negative entry p{outs}|{ins} = {table[i]}")
        _, sums = _group_sums(shape, (), nums)
        inputs = _layout(shape).inputs
        problems += [f"input {tuple(inputs[j].tolist())}: block sums to "
                     f"{Fraction(int(sums[j, 0]), den)}, not 1"
                     for j in np.flatnonzero(sums[:, 0] != den).tolist()]
        for k in range(shape.parties):
            others = tuple(j for j in range(shape.parties) if j != k)
            rest, sums = _group_sums(shape, others, nums)
            for x, r in np.argwhere(sums[:-1] != sums[1:]).tolist():
                oins, oouts = _entry(rest, r) if rest else ((), ())
                lo, hi = (Fraction(int(v), den) for v in sums[x:x + 2, r])
                problems.append(
                    f"party {k} signals: marginal of parties {others} at "
                    f"output {oouts}|input {oins} is {lo} for input {x} but "
                    f"{hi} for input {x + 1}")
        return ValidationReport(tuple(problems))

    def require_valid(self):
        report = self.validate()
        if not report.ok:
            raise InvalidBoxError(report)
        return self

    def marginal(self, parties):
        """Box on a party subset (ascending original order), outputs summed out.

        Each entry sums one group of ``_marginal_map``, once per joint input
        of the summed-out parties.  Well-definedness is checked: if those
        sums differ, the summed-out parties steer the kept marginal through
        their inputs, the marginal does not exist and InvalidBoxError is
        raised.
        """
        keep = sorted(set(_as_int(k, "a party") for k in parties))
        if not keep:
            raise ShapeError("marginal needs a nonempty party subset")
        if keep[0] < 0 or keep[-1] >= self.shape.parties:
            raise ShapeError(f"party subset {keep} out of range for {self.shape}")
        if len(keep) != len(tuple(parties)):
            raise ShapeError("party subset has repeats")
        nums, den = _numerators(self.table)
        kept, sums = _group_sums(self.shape, tuple(keep), nums)
        if (sums != sums[0]).any():
            drop = tuple(j for j in range(self.shape.parties) if j not in keep)
            raise InvalidBoxError(ValidationReport((
                f"marginal over parties {keep} ill-defined: depends on the "
                f"dropped parties' inputs {drop}",)))
        return Box(kept, tuple(Fraction(v, den) for v in sums[0].tolist()))

    def is_deterministic(self):
        return all(v == 0 or v == 1 for v in self.table)

    def __repr__(self):
        return f"Box({self.shape}, <{len(self.table)} entries>)"


@lru_cache(maxsize=64)
def _marginal_map(shape, keep):
    """Which entry of the marginal on the parties ``keep`` (an ascending
    tuple) each flat entry sums into, as (kept, gid).  ``kept`` is the kept
    parties' shape, None when ``keep`` is empty.  ``gid`` is read-only and
    holds, per flat entry, the dropped parties' joint input (in iproduct
    order) times K plus the entry's flat index in ``kept``, K being
    ``kept``'s table size (1 when ``keep`` is empty).  The last entry,
    every digit at its top, has the largest id."""
    drop = [j for j in range(shape.parties) if j not in keep]
    kept = BoxShape(tuple(shape.outputs[k] for k in keep)) if keep else None
    lay = _layout(shape)
    ins = lay.inputs[lay.joint]
    kflat = flat(kept, ins[:, keep], lay.outs[:, keep]) if keep else np.zeros_like(lay.joint)
    gid = np.ravel_multi_index((*ins[:, drop].T, kflat), [shape.inputs[j] for j in drop]
                               + [kept.table_size if keep else 1])
    gid.setflags(write=False)
    return kept, gid


def _numerators(table):
    """(nums, den): a table of Fractions as integer numerators over their
    lcm denominator, int64 while their absolute sum is below 2**62 (so
    every sum of them fits) and Python ints past that."""
    den = math.lcm(*{v.denominator for v in table})
    nums = [v.numerator * (den // v.denominator) for v in table]
    return np.array(nums, np.int64 if sum(map(abs, nums)) < 2 ** 62 else object), den


def _group_sums(shape, keep, nums):
    """(kept, sums): the numerators ``nums`` summed over the groups of
    ``_marginal_map(shape, keep)``, one row per joint input of the dropped
    parties and one column per entry of ``kept``."""
    kept, gid = _marginal_map(shape, keep)
    sums = np.zeros(gid[-1] + 1, nums.dtype)
    np.add.at(sums, gid, nums)
    return kept, sums.reshape(-1, kept.table_size if kept else 1)


def validate(box):
    return box.validate()


def marginal(box, parties):
    return box.marginal(parties)


def mix(a, b, weight):
    """weight*a + (1-weight)*b, entrywise."""
    if a.shape != b.shape:
        raise ShapeError("mixing boxes of different shapes")
    w = _as_fraction(weight)
    return Box(a.shape, tuple(w * x + (1 - w) * y for x, y in zip(a.table, b.table)))


def product(a, b):
    """Composite box: each party feeds one input to each factor and keeps both outputs.

    Party k's composite input x encodes (x0, x1) as x = M0*x1 + x0 where M0
    is that party's input count in ``a``; the composite output encodes
    (a0, a1) as d0*a1 + a0 likewise.  ``a`` is the low digit.
    """
    if a.shape.parties != b.shape.parties:
        raise ShapeError("product needs boxes with the same party count")
    n = a.shape.parties
    new_outputs = []
    for k in range(n):
        per = []
        for xb in range(b.shape.inputs[k]):
            for xa in range(a.shape.inputs[k]):
                per.append(a.shape.outputs[k][xa] * b.shape.outputs[k][xb])
        new_outputs.append(tuple(per))
    shape = BoxShape(tuple(new_outputs))
    lay = _layout(shape)
    ins_b, ins_a = np.divmod(lay.inputs[lay.joint], a.shape.inputs)
    outs_b, outs_a = np.divmod(lay.outs, _layout(a.shape).counts[np.arange(n), ins_a])
    at_a, at_b = flat(a.shape, ins_a, outs_a).tolist(), flat(b.shape, ins_b, outs_b).tolist()
    return Box(shape, tuple(a.table[i] * b.table[j] for i, j in zip(at_a, at_b)))


def tensor(a, b):
    """Juxtapose two boxes on disjoint party sets (a's parties first)."""
    shape = BoxShape(a.shape.outputs + b.shape.outputs)
    lay, na = _layout(shape), a.shape.parties
    ins, outs = lay.inputs[lay.joint], lay.outs
    at_a = flat(a.shape, ins[:, :na], outs[:, :na]).tolist()
    at_b = flat(b.shape, ins[:, na:], outs[:, na:]).tolist()
    return Box(shape, tuple(a.table[i] * b.table[j] for i, j in zip(at_a, at_b)))


def has_unique_completion(box):
    """Whether each party's outcome is pinned by both inputs plus the other outcome.

    True iff for every (x, y) and every a with p(a|x) > 0 there is exactly
    one b with p(ab|xy) > 0, and symmetrically with the parties swapped.
    """
    if box.shape.parties != 2:
        raise ShapeError("unique completion is defined for bipartite boxes")
    marg = [box.marginal([0]), box.marginal([1])]
    for x, y in box.shape.joint_inputs:
        for a in range(box.shape.outputs[0][x]):
            if marg[0].prob((a,), (x,)) > 0:
                hits = sum(1 for b in range(box.shape.outputs[1][y])
                           if box.prob((a, b), (x, y)) > 0)
                if hits != 1:
                    return False
        for b in range(box.shape.outputs[1][y]):
            if marg[1].prob((b,), (y,)) > 0:
                hits = sum(1 for a in range(box.shape.outputs[0][x])
                           if box.prob((a, b), (x, y)) > 0)
                if hits != 1:
                    return False
    return True
