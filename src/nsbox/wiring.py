"""Per-party adaptive circuits over component boxes, lowered to
communication protocols for validation and exact evaluation, and the stock
conversion protocols between named boxes."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, product as iproduct, repeat

from .boxes import BoxShape, _as_int
from .comm import (BoxUse, CommProtocol, Component, SharedRandomness,
                   WiringError, _MAX_ASSIGNMENTS, _within_cap,
                   evaluate_comm_protocol)
from .families import dbox, pr


@dataclass(frozen=True)
class Step:
    """One use of a component box side; the input table is a total function
    of the protocol input and this party's earlier step outputs."""

    component: int
    side: int
    inputs: dict


@dataclass(frozen=True)
class PartyProgram:
    steps: tuple[Step, ...]
    outputs: dict   # (protocol input, *step outputs) -> final output


@dataclass(frozen=True)
class Wiring:
    """Component boxes and one program per party: a communication protocol
    with no messages and trivial shared randomness.  Scopes are keyed
    (input, *step outputs); lowered, they carry the shared value 0 after
    the input, which is how scopes appear in validation errors."""

    shape: BoxShape
    components: tuple[Component, ...]
    programs: tuple[PartyProgram, ...]


def _lower(wiring):
    """The CommProtocol of a wiring: each step a BoxUse, in party order,
    with every scope (x, *prev) rekeyed to (x, 0, *prev)."""
    if len(wiring.programs) != wiring.shape.parties:
        raise WiringError("one program per protocol party is required")

    def rekey(table):
        # key[:1], not key[0]: an empty scope read from a file stays an
        # unused entry instead of an IndexError
        return {(*key[:1], 0, *key[1:]): v for key, v in table.items()}
    events = tuple(BoxUse(k, st.component, st.side, rekey(st.inputs))
                   for k, prog in enumerate(wiring.programs)
                   for st in prog.steps)
    outputs = tuple(rekey(prog.outputs) for prog in wiring.programs)
    return CommProtocol(wiring.shape, SharedRandomness.trivial(),
                        wiring.components, events, outputs)


def evaluate_wiring(wiring, components=None):
    """The box a wiring simulates, by exact enumeration of its lowered
    protocol (see evaluate_comm_protocol).  Components may be overridden
    positionally; they are validated first, so signalling components are
    rejected.  Scopes in validation errors carry the shared value 0 after
    the input."""
    return evaluate_comm_protocol(_lower(wiring), components)[0]


def _identity_table(n_inputs):
    return {(x,): x for x in range(n_inputs)}


def _p1(d, dp):
    shape = BoxShape.homogeneous(2, 2, d * dp)
    comps = (Component(dbox(d), (0, 1)), Component(dbox(dp), (0, 1)))
    alice = PartyProgram(
        steps=(Step(0, 0, _identity_table(2)),
               Step(1, 0, {(x, al): x if al == d - 1 else 0
                           for x in range(2) for al in range(d)})),
        outputs={(x, al, alp): alp * d + al
                 for x in range(2) for al in range(d) for alp in range(dp)})
    bob = PartyProgram(
        steps=(Step(0, 1, _identity_table(2)),
               Step(1, 1, {(y, be): y for y in range(2) for be in range(d)})),
        outputs={(y, be, bep): bep * d + be
                 for y in range(2) for be in range(d) for bep in range(dp)})
    return Wiring(shape, comps, (alice, bob))


def _p2(d, dp):
    shape = BoxShape.homogeneous(2, 2, d)
    comps = (Component(dbox(d * dp), (0, 1)),)
    alice = PartyProgram(
        steps=(Step(0, 0, _identity_table(2)),),
        outputs={(x, al): al % d for x in range(2) for al in range(d * dp)})
    bob = PartyProgram(
        steps=(Step(0, 1, _identity_table(2)),),
        outputs={(y, be): be % d for y in range(2) for be in range(d * dp)})
    return Wiring(shape, comps, (alice, bob))


def _p3(d, dp, n):
    shape = BoxShape.homogeneous(2, 2, dp)
    comps = tuple(Component(dbox(d), (0, 1)) for _ in range(n))
    alice_steps = []
    bob_steps = []
    for i in range(n):
        alice_steps.append(Step(i, 0, {
            (x, *prev): x if all(a == d - 1 for a in prev) else 0
            for x in range(2) for prev in iproduct(range(d), repeat=i)}))
        bob_steps.append(Step(i, 1, {
            (y, *prev): y
            for y in range(2) for prev in iproduct(range(d), repeat=i)}))

    def digits_mod(vals):
        return sum(a * d ** i for i, a in enumerate(vals)) % dp

    alice = PartyProgram(tuple(alice_steps), {
        (x, *alphas): digits_mod(alphas)
        for x in range(2) for alphas in iproduct(range(d), repeat=n)})
    bob = PartyProgram(tuple(bob_steps), {
        (y, *betas): digits_mod(betas)
        for y in range(2) for betas in iproduct(range(d), repeat=n)})
    return Wiring(shape, comps, (alice, bob))


def _xor_pair_program(first, second, my_input_count=2):
    """Feed the protocol input into two box sides and output the XOR."""
    return PartyProgram(
        steps=(Step(first[0], first[1], _identity_table(my_input_count)),
               Step(second[0], second[1],
                    {(x, o1): x for x in range(my_input_count)
                     for o1 in range(2)})),
        outputs={(x, o1, o2): o1 ^ o2 for x in range(my_input_count)
                 for o1 in range(2) for o2 in range(2)})


def _p5():
    shape = BoxShape.homogeneous(3, 2, 2)
    comps = (Component(pr(), (0, 1)), Component(pr(), (0, 2)))
    alice = _xor_pair_program((0, 0), (1, 0))
    bob = PartyProgram((Step(0, 1, _identity_table(2)),),
                       {(y, b): b for y in range(2) for b in range(2)})
    charles = PartyProgram((Step(1, 1, _identity_table(2)),),
                           {(z, c): c for z in range(2) for c in range(2)})
    return Wiring(shape, comps, (alice, bob, charles))


def _p6():
    shape = BoxShape.homogeneous(3, 2, 2)
    comps = (Component(pr(), (0, 1)), Component(pr(), (0, 2)),
             Component(pr(), (1, 2)))
    alice = _xor_pair_program((0, 0), (1, 0))
    bob = _xor_pair_program((0, 1), (2, 0))
    charles = _xor_pair_program((1, 1), (2, 1))
    return Wiring(shape, comps, (alice, bob, charles))


def _chain_program(first, second):
    """Feed the protocol input into one side, its output into another, and
    output the second result."""
    return PartyProgram(
        steps=(Step(first[0], first[1], _identity_table(2)),
               Step(second[0], second[1],
                    {(x, o1): o1 for x in range(2) for o1 in range(2)})),
        outputs={(x, o1, o2): o2 for x in range(2)
                 for o1 in range(2) for o2 in range(2)})


def _p7():
    shape = BoxShape.homogeneous(3, 2, 2)
    comps = (Component(pr(), (0, 1)), Component(pr(), (0, 2)),
             Component(pr(), (1, 2)))
    alice = _chain_program((0, 0), (1, 0))
    bob = _chain_program((0, 1), (2, 0))
    charles = _xor_pair_program((1, 1), (2, 1))
    return Wiring(shape, comps, (alice, bob, charles))


def preset(name, *params):
    """The stock wirings: P1(d, d'), P2(d, d'), P3(d, d', n), P5, P6, P7."""
    key = str(name).upper()
    arity = {"P1": 2, "P2": 2, "P3": 3, "P5": 0, "P6": 0, "P7": 0}
    if key not in arity:
        raise WiringError(f"unknown preset {name!r}")
    if len(params) != arity[key]:
        raise WiringError(f"{key} takes {arity[key]} parameters, "
                          f"got {len(params)}")
    params = tuple(_as_int(p, f"a {key} parameter", WiringError) for p in params)
    if key == "P3" and params[2] < 1:
        raise WiringError("P3 needs at least one component box")
    if any(p < 2 for p in params[:2]):
        raise WiringError("box dimensions must be at least 2")
    if key == "P3":
        # 4 joint inputs times two sides of d outputs per box; as d >= 2,
        # the cap's bit length in factors of d already passes the cap
        sides = min(2 * params[2], _MAX_ASSIGNMENTS.bit_length())
        if not _within_cap(chain((2, 2), repeat(params[0], sides))):
            raise WiringError(f"P3{params} would enumerate more than "
                              f"{_MAX_ASSIGNMENTS} joint assignments")
    maker = {"P1": _p1, "P2": _p2, "P3": _p3,
             "P5": _p5, "P6": _p6, "P7": _p7}[key]
    return maker(*params)


def protocol3_error(d, dp, n):
    """Worst-case (over joint inputs) total variation distance between the
    chained-conversion output and the exact target box; zero exactly when
    d' divides d**n."""
    got, want = evaluate_wiring(preset("P3", d, dp, n)), dbox(dp)
    return max(sum(abs(g - w) for g, w in zip(got.block(ins), want.block(ins))) / 2
               for ins in got.shape.joint_inputs)
