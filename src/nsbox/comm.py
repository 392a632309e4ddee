"""Simulation protocols over component boxes, with optional one-way
classical messages and shared randomness: one validator, one exact
evaluator (wirings lower to these protocols), and a brute-force search for
the cheapest message budget.

The evaluator is exact on integer arrays: dense int64 event and output
tables over their scope domains, dense component numerators over each
component's lcm denominator, and the (joint input, shared value, output
assignment) triples as one mixed-radix range walked in blocks.  Sums are
numerators over den = lcm(shared denominators) * the component
denominators, int64 while den * triples per joint input < 2**62 and Python
ints past that."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product as iproduct
from math import lcm, prod
from numbers import Integral

import numpy as np

from .boxes import Box, ShapeError, _as_fraction, _as_int, _layout, flat
from .dd import _BUDGET
from .families import dbox
from .locality import EnumerationCapError, _mixture_weights, _strategy_record

# joint assignments (protocol inputs x shared values x component outputs)
# an exact enumeration may visit
_MAX_ASSIGNMENTS = 2 ** 22


class WiringError(ValueError):
    """A protocol references out-of-scope data or misuses a component side."""


@dataclass(frozen=True)
class Component:
    """A box together with the protocol party playing each of its sides."""

    box: Box
    parties: tuple[int, ...]


def _within_cap(factors):
    """Whether the product of factors stays within _MAX_ASSIGNMENTS.  Stops
    at the first partial product past it, so factors may be long and lazy."""
    count = 1
    for f in factors:
        count *= f
        if count > _MAX_ASSIGNMENTS:
            return False
    return True


@dataclass(frozen=True)
class SharedRandomness:
    """A finite rational distribution over integer values, visible to every
    party before any message is sent."""

    values: tuple

    def __post_init__(self):
        vals = tuple((_as_int(v, "a shared value", WiringError), _as_fraction(p))
                     for v, p in self.values)
        if not vals:
            raise WiringError("shared randomness needs at least one value")
        if any(p < 0 for _, p in vals):
            raise WiringError("shared randomness has a negative probability")
        if sum(p for _, p in vals) != 1:
            raise WiringError("shared randomness does not sum to one")
        if len({v for v, _ in vals}) != len(vals):
            raise WiringError("shared randomness repeats a value")
        object.__setattr__(self, "values", vals)

    @classmethod
    def uniform(cls, n):
        return cls(tuple((v, Fraction(1, n)) for v in range(n)))

    @classmethod
    def trivial(cls):
        return cls(((0, Fraction(1)),))


@dataclass(frozen=True)
class BoxUse:
    """One party feeds one side of a component box; the input is a total
    function of everything that party has seen so far."""

    party: int
    component: int
    side: int
    inputs: dict


@dataclass(frozen=True)
class Message:
    """A one-way transmission of ``width`` bits; the value is a total
    function of the sender's scope and lands in the receiver's."""

    sender: int
    receiver: int
    width: int
    values: dict


@dataclass(frozen=True)
class CommProtocol:
    """Box uses and messages in one global order, so a message can only
    depend on what its sender holds when it is sent; cyclic dependencies
    are unrepresentable.  Each party's scope starts with its protocol
    input and the shared value, and grows as events touch the party."""

    shape: object
    shared: SharedRandomness
    components: tuple
    events: tuple
    outputs: tuple

    @property
    def bits(self):
        return sum(ev.width for ev in self.events
                   if isinstance(ev, Message))


def _dense_table(table, doms, tops, owner, what, outside):
    """A scope table as an int64 array over its scope domain, first entry slowest;
    refuses domains past the cap, missing scopes, non-integers and values past tops[x]."""
    if not _within_cap(map(len, doms)):
        raise EnumerationCapError(f"{owner}'s {what} table would have more than "
                                  f"{_MAX_ASSIGNMENTS} scopes")
    vals = []
    for key in iproduct(*doms):
        if key not in table:
            raise WiringError(f"{owner} has no {what} for scope {key}")
        val = table[key]
        if isinstance(val, bool) or not isinstance(val, Integral):
            raise WiringError(f"{owner} maps scope {key} to {val!r}, which is not an integer")
        if not 0 <= val < tops[key[0]]:
            raise WiringError(outside.format(key=key, val=val))
        vals.append(val)
    return np.array(vals, dtype=np.int64)


def _validate_protocol(protocol, boxes):
    """Check a protocol against its boxes.  Returns per event (dense table,
    party read, party grown, radix of the growth, event) and per party its
    dense output table."""
    shape = protocol.shape
    if len(protocol.outputs) != shape.parties:
        raise WiringError("one output table per party is required")
    if len(boxes) != len(protocol.components):
        raise WiringError("component box count mismatch")
    for comp, box in zip(protocol.components, boxes):
        if box.shape != comp.box.shape:
            raise WiringError("component override changes the box shape")
        if len(comp.parties) != box.shape.parties:
            raise WiringError("component assignment must name one protocol "
                              "party per box party")
        if any(not 0 <= p < shape.parties for p in comp.parties):
            raise WiringError("component assigned to a nonexistent party")

    used, steps = set(), []
    domains = [[range(n), [v for v, _ in protocol.shared.values]] for n in shape.inputs]
    for n, ev in enumerate(protocol.events):
        if isinstance(ev, BoxUse):
            if not 0 <= ev.component < len(boxes):
                raise WiringError(f"event {n} references component "
                                  f"{ev.component} which does not exist")
            comp = protocol.components[ev.component]
            if not 0 <= ev.side < len(comp.parties):
                raise WiringError(f"event {n} references a nonexistent "
                                  "box side")
            if comp.parties[ev.side] != ev.party:
                raise WiringError(
                    f"event {n}: party {ev.party} uses side {ev.side} of "
                    f"component {ev.component}, which belongs to party "
                    f"{comp.parties[ev.side]}")
            key = (ev.component, ev.side)
            if key in used:
                raise WiringError(f"component {ev.component} side {ev.side} "
                                  "is used twice")
            used.add(key)
            src = dst = ev.party
            table, entry, allowed = ev.inputs, "input", "the component's input range"
            top, grown = comp.box.shape.inputs[ev.side], max(comp.box.shape.outputs[ev.side])
        elif isinstance(ev, Message):
            if not (0 <= ev.sender < shape.parties
                    and 0 <= ev.receiver < shape.parties):
                raise WiringError(f"event {n} names a nonexistent party")
            if ev.sender == ev.receiver:
                raise WiringError(f"event {n} sends a message to its own "
                                  "sender")
            if isinstance(ev.width, bool) or not isinstance(ev.width, Integral) or ev.width < 1:
                raise WiringError(f"event {n} needs a positive bit width")
            if ev.width > _MAX_ASSIGNMENTS.bit_length():
                raise EnumerationCapError(f"event {n}: a {ev.width}-bit message has more "
                                          f"than {_MAX_ASSIGNMENTS} values")
            src, dst, table, entry = ev.sender, ev.receiver, ev.values, "entry"
            top, grown, allowed = 2 ** ev.width, 2 ** ev.width, "the allowed range"
        else:
            raise WiringError(f"event {n} is neither a box use nor a message")
        steps.append((_dense_table(table, domains[src], (top,) * shape.inputs[src], f"event {n}",
                                   entry, f"event {n} maps scope {{key}} to {{val}}, outside "
                                   f"{allowed}"), src, dst, grown, ev))
        domains[dst].append(range(grown))
    expected = {(c, s) for c, b in enumerate(boxes) for s in range(b.shape.parties)}
    if used != expected:
        raise WiringError(f"unused component sides: {sorted(expected - used)}")
    return steps, [_dense_table(
        protocol.outputs[k], domains[k], shape.outputs[k], f"party {k}",
        "final output", f"party {k} output {{val}} is outside the declared output range")
        for k in range(shape.parties)]


def _numerators(box, den, dtype):
    """den times the box's entries, dense over (joint input, joint output
    over the side ranges), zero where an output is past its input's count."""
    shape, lay = box.shape, _layout(box.shape)
    outs = np.indices([max(o) for o in shape.outputs]).reshape(shape.parties, -1).T
    ins = lay.inputs[:, None]
    inside = (outs < lay.counts[np.arange(shape.parties), ins]).all(axis=-1)
    nums = np.array([v.numerator * (den // v.denominator) for v in box.table], dtype)
    return np.where(inside, nums.take(flat(shape, ins, outs), mode="clip"), 0).ravel()


def evaluate_comm_protocol(protocol, components=None):
    """The box a protocol simulates and the total message bits it uses.

    A triple weighs the shared value's probability times the component
    probabilities at the inputs its traces induce.  Each block (at most
    _BUDGET elements over all its arrays) advances the scope codes event by
    event by gathers from the dense tables and adds the weights, products of
    gathered numerators, into numerators over den.  Components may be
    overridden positionally; they are validated first, so signalling ones
    are rejected.  More than _MAX_ASSIGNMENTS triples, or entries of a dense
    component array, are refused before anything is validated."""
    boxes = ([c.box for c in protocol.components] if components is None
             else list(components))
    shape, K = protocol.shape, protocol.shape.parties
    sides = [(c, s) for c, b in enumerate(boxes) for s in range(b.shape.parties)]
    radix = [*shape.inputs, len(protocol.shared.values),   # digits of a triple
             *(max(boxes[c].shape.outputs[s]) for c, s in sides)]
    sizes = [prod(max(o) for o in b.shape.outputs) for b in boxes]
    if not (_within_cap(radix) and all(len(b.shape.joint_inputs) * size <= _MAX_ASSIGNMENTS
                                       for b, size in zip(boxes, sizes))):
        raise EnumerationCapError(f"evaluation would enumerate more than "
                                  f"{_MAX_ASSIGNMENTS} joint assignments")
    for b in boxes:
        b.require_valid()
    steps, out_tables = _validate_protocol(protocol, boxes)

    place = [prod(radix[i + 1:]) for i in range(len(radix))]
    at = {cs: place[K + 1 + i] for i, cs in enumerate(sides)}   # place of a side's digit
    mult = {(c, s): prod(boxes[c].shape.inputs[s + 1:]) * sizes[c] for c, s in sides}
    dens = [lcm(*(p.denominator for _, p in protocol.shared.values)),
            *(lcm(*(v.denominator for v in b.table)) for b in boxes)]
    dtype = np.int64 if prod(dens) * place[K - 1] < 2 ** 62 else object
    shared = np.array([p.numerator * (dens[0] // p.denominator)
                       for _, p in protocol.shared.values], dtype)
    nums = [_numerators(b, d, dtype) for b, d in zip(boxes, dens[1:])]
    lay = _layout(shape)
    acc = np.zeros(shape.table_size, dtype)
    total, block = prod(radix), max(1, _BUDGET // (K + len(boxes) + 4))
    for start in range(0, total, block):
        t = np.arange(start, min(start + block, total))
        lam, ji = t // place[K] % radix[K], t // place[K - 1]
        codes = [t // place[k] % radix[k] * radix[K] + lam for k in range(K)]
        idx = [t // at[c, b.shape.parties - 1] % sizes[c] for c, b in enumerate(boxes)]
        for table, src, dst, r, ev in steps:
            val = table[codes[src]]
            if isinstance(ev, BoxUse):
                idx[ev.component] += val * mult[ev.component, ev.side]
                val = t // at[ev.component, ev.side] % r
            codes[dst] = codes[dst] * r + val
        weight, pos = shared[lam], lay.offsets[ji]
        for num, i in zip(nums, idx):
            weight = weight * num[i]
        for k, table in enumerate(out_tables):
            pos = pos + table[codes[k]] * lay.strides[ji, k]
        keep = weight != 0
        np.add.at(acc, pos[keep], weight[keep])
    den = prod(dens)
    return Box(shape, tuple(Fraction(v, den) for v in acc.tolist())), protocol.bits


def protocol4(d):
    """One bit from Alice to Bob plus a shared uniform value simulates the
    d-box: Alice announces her input and outputs the shared value, Bob
    outputs (shared + X.Y) mod d."""
    d = _as_int(d, "d", WiringError)
    if d < 2:
        raise WiringError(f"d must be an integer at least 2, got {d}")
    shape = dbox(d).shape
    lam = range(d)
    send_x = Message(sender=0, receiver=1, width=1,
                     values={(x, a): x for x in range(2) for a in lam})
    outputs = ({(x, a): a for x in range(2) for a in lam},
               {(y, a, m): (a + m * y) % d
                for y in range(2) for a in lam for m in range(2)})
    return CommProtocol(shape, SharedRandomness.uniform(d), (), (send_x,),
                        outputs)


def min_oneway_comm_with_SR(target, max_bits, cap=200_000):
    """Least number of one-way bits that lets shared randomness reproduce
    the target exactly, or None if every budget up to max_bits fails.

    Shared randomness convexifies, so budget c suffices exactly when the
    target is a mixture of the deterministic c-bit ("oneway") strategies;
    zero bits recovers plain locality."""
    if _as_int(max_bits, "max_bits") < 0:
        raise ShapeError(f"max_bits must be at least 0, got {max_bits}")
    target.require_valid()
    shape = target.shape
    if shape.parties != 2:
        raise ShapeError("communication bounds are for bipartite boxes")
    for c in range(max_bits + 1):
        matrix = _strategy_record("oneway", shape, cap, c).matrix
        if _mixture_weights(target.table, matrix) is not None:
            return c
    return None
