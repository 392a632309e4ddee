"""Simulation protocols over component boxes, with optional one-way
classical messages and shared randomness: one validator, one exact
evaluator (wirings lower to these protocols), and a brute-force search for
the cheapest message budget."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product as iproduct

from .boxes import Box, ShapeError, _as_fraction
from .families import dbox
from .locality import (EnumerationCapError, _layout, _mixture_weights,
                       _support_matrix)

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


def _side_output_range(box, side):
    return max(box.shape.outputs[side])


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
        vals = tuple((int(v), _as_fraction(p)) for v, p in self.values)
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


def _scope_domains(protocol, boxes):
    """Per-party value domains of the growing scopes, in event order."""
    shape = protocol.shape
    lam_values = [v for v, _ in protocol.shared.values]
    domains = [[range(shape.inputs[k]), lam_values]
               for k in range(shape.parties)]
    per_event = []
    for ev in protocol.events:
        if isinstance(ev, BoxUse):
            per_event.append([list(d) for d in domains[ev.party]])
            domains[ev.party].append(
                range(_side_output_range(boxes[ev.component], ev.side)))
        else:
            per_event.append([list(d) for d in domains[ev.sender]])
            domains[ev.receiver].append(range(2 ** ev.width))
    return domains, per_event


def _validate_protocol(protocol, boxes):
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

    used = set()
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
        elif isinstance(ev, Message):
            if not (0 <= ev.sender < shape.parties
                    and 0 <= ev.receiver < shape.parties):
                raise WiringError(f"event {n} names a nonexistent party")
            if ev.sender == ev.receiver:
                raise WiringError(f"event {n} sends a message to its own "
                                  "sender")
            if not (isinstance(ev.width, int) and ev.width >= 1):
                raise WiringError(f"event {n} needs a positive bit width")
        else:
            raise WiringError(f"event {n} is neither a box use nor a message")
    expected = {(c, s) for c, comp in enumerate(protocol.components)
                for s in range(len(comp.parties))}
    if used != expected:
        missing = sorted(expected - used)
        raise WiringError(f"unused component sides: {missing}")

    domains, per_event = _scope_domains(protocol, boxes)
    for n, (ev, doms) in enumerate(zip(protocol.events, per_event)):
        if isinstance(ev, BoxUse):
            table, top = ev.inputs, boxes[ev.component].shape.inputs[ev.side]
            entry, allowed = "input", "the component's input range"
        else:
            table, top = ev.values, 2 ** ev.width
            entry, allowed = "entry", "the allowed range"
        for key in iproduct(*doms):
            if key not in table:
                raise WiringError(f"event {n} has no {entry} for scope {key}")
            val = table[key]
            if not 0 <= val < top:
                raise WiringError(f"event {n} maps scope {key} to {val}, "
                                  f"outside {allowed}")
    for k in range(shape.parties):
        for key in iproduct(*domains[k]):
            if key not in protocol.outputs[k]:
                raise WiringError(
                    f"party {k} has no final output for scope {key}")
            val = protocol.outputs[k][key]
            if not 0 <= val < shape.outputs[k][key[0]]:
                raise WiringError(
                    f"party {k} output {val} is outside the declared "
                    "output range")


def evaluate_comm_protocol(protocol, components=None):
    """The box a protocol simulates and the total message bits it uses.

    For every joint protocol input and shared value, every joint
    assignment of component outputs is weighted by the shared value's
    probability times the component probabilities at the inputs the
    traces induce; messages are deterministic once those are fixed.
    Components may be overridden positionally; they are validated first,
    so signalling components are rejected.  More than _MAX_ASSIGNMENTS
    joint assignments are refused before anything is validated."""
    boxes = ([c.box for c in protocol.components] if components is None
             else list(components))
    shape = protocol.shape
    if not _within_cap([*shape.inputs, len(protocol.shared.values),
                        *(_side_output_range(b, s) for b in boxes
                          for s in range(b.shape.parties))]):
        raise EnumerationCapError(
            f"evaluation would enumerate more than {_MAX_ASSIGNMENTS} "
            "joint assignments")
    for b in boxes:
        b.require_valid()
    _validate_protocol(protocol, boxes)

    sides = [(c, s) for c, comp in enumerate(protocol.components)
             for s in range(len(comp.parties))]
    pos = {cs: i for i, cs in enumerate(sides)}
    ranges = [range(_side_output_range(boxes[c], s)) for c, s in sides]

    table = [Fraction(0)] * shape.table_size
    for ins in shape.joint_inputs:
        for lam, p_lam in protocol.shared.values:
            if not p_lam:
                continue
            for assign in iproduct(*ranges):
                scopes = [[ins[k], lam] for k in range(shape.parties)]
                comp_ins = [[None] * len(comp.parties)
                            for comp in protocol.components]
                for ev in protocol.events:
                    if isinstance(ev, BoxUse):
                        key = tuple(scopes[ev.party])
                        comp_ins[ev.component][ev.side] = ev.inputs[key]
                        scopes[ev.party].append(
                            assign[pos[(ev.component, ev.side)]])
                    else:
                        key = tuple(scopes[ev.sender])
                        scopes[ev.receiver].append(ev.values[key])
                weight = p_lam
                for c, box in enumerate(boxes):
                    cins = tuple(comp_ins[c])
                    couts = tuple(assign[pos[(c, s)]]
                                  for s in range(box.shape.parties))
                    if any(o >= box.shape.outputs[s][x]
                           for s, (o, x) in enumerate(zip(couts, cins))):
                        weight = Fraction(0)
                        break
                    weight *= box.prob(couts, cins)
                    if not weight:
                        break
                if weight:
                    outs = tuple(protocol.outputs[k][tuple(scopes[k])]
                                 for k in range(shape.parties))
                    table[shape.index(outs, ins)] += weight
    return Box(shape, tuple(table)), protocol.bits


def protocol4(d):
    """One bit from Alice to Bob plus a shared uniform value simulates the
    d-box: Alice announces her input and outputs the shared value, Bob
    outputs (shared + X.Y) mod d."""
    if not (isinstance(d, int) and d >= 2):
        raise WiringError("d must be an integer at least 2")
    shape = dbox(d).shape
    lam = range(d)
    send_x = Message(sender=0, receiver=1, width=1,
                     values={(x, a): x for x in range(2) for a in lam})
    outputs = ({(x, a): a for x in range(2) for a in lam},
               {(y, a, m): (a + m * y) % d
                for y in range(2) for a in lam for m in range(2)})
    return CommProtocol(shape, SharedRandomness.uniform(d), (), (send_x,),
                        outputs)


def _oneway_tables(shape, c):
    """Supports of all deterministic strategies where Alice picks a message
    and an output from her input and Bob answers from his input and the
    message: one flat table index per joint input, in table order."""
    xs = range(shape.inputs[0])
    msgs = range(2 ** c)
    alice_choices = [[(m, a) for m in msgs for a in range(shape.outputs[0][x])]
                     for x in xs]
    bob_keys = [(y, m) for y in range(shape.inputs[1]) for m in msgs]
    bob_choices = [range(shape.outputs[1][y]) for y, _ in bob_keys]
    layout = _layout(shape)
    for alice in iproduct(*alice_choices):
        for bob in iproduct(*bob_choices):
            bfun = dict(zip(bob_keys, bob))
            yield tuple(off + alice[x][1] * sa + bfun[(y, alice[x][0])] * sb
                        for (x, y), off, (sa, sb) in layout)


def min_oneway_comm_with_SR(target, max_bits, cap=200_000):
    """Least number of one-way bits that lets shared randomness reproduce
    the target exactly, or None if every budget up to max_bits fails.

    Shared randomness convexifies, so budget c suffices exactly when the
    target is a mixture of the deterministic c-bit strategies; zero bits
    recovers plain locality."""
    target.require_valid()
    shape = target.shape
    if shape.parties != 2:
        raise ShapeError("communication bounds are for bipartite boxes")
    for c in range(max_bits + 1):
        count = 1
        for x in range(shape.inputs[0]):
            count *= 2 ** c * shape.outputs[0][x]
        for y in range(shape.inputs[1]):
            count *= shape.outputs[1][y] ** (2 ** c)
        if count > cap:
            raise EnumerationCapError(
                f"{count} strategies at {c} bits exceeds the cap ({cap})")
        supports = list(dict.fromkeys(_oneway_tables(shape, c)))
        matrix = _support_matrix(supports, shape.table_size)
        if _mixture_weights(target.table, matrix) is not None:
            return c
    return None
