import dataclasses
import functools
import random
import time
import tracemalloc
from fractions import Fraction
from itertools import product as iproduct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nsbox import comm
from nsbox.boxes import Box, BoxShape, ShapeError, mix
from nsbox.comm import (BoxUse, CommProtocol, Component, Message,
                        SharedRandomness, evaluate_comm_protocol,
                        min_oneway_comm_with_SR, protocol4)
from nsbox.dd import EnumerationCapError
from nsbox.families import dbox, local_deterministic, pr, uniform, xyplusz
from nsbox.locality import DeterministicStrategy, _strategy_record, is_local
from nsbox.wiring import (PartyProgram, WiringError, _lower, evaluate_wiring,
                          preset, protocol3_error)


def test_shared_randomness_checks_its_distribution():
    SharedRandomness(((0, Fraction(1, 2)), (3, Fraction(1, 2))))
    with pytest.raises(WiringError):
        SharedRandomness(())
    with pytest.raises(WiringError):
        SharedRandomness(((0, Fraction(3, 2)), (1, Fraction(-1, 2))))
    with pytest.raises(WiringError):
        SharedRandomness(((0, Fraction(1, 2)),))
    with pytest.raises(WiringError):
        SharedRandomness(((0, Fraction(1, 2)), (0, Fraction(1, 2))))
    with pytest.raises(ShapeError):
        SharedRandomness(((0, 0.5), (1, 0.5)))
    assert SharedRandomness.uniform(3).values == (
        (0, Fraction(1, 3)), (1, Fraction(1, 3)), (2, Fraction(1, 3)))
    assert SharedRandomness.trivial().values == ((0, Fraction(1)),)


@pytest.mark.parametrize("bad", [0.5, 3.0, True, "3", Fraction(3)])
def test_shared_values_must_be_integers(bad):
    with pytest.raises(WiringError, match="shared value must be an integer"):
        SharedRandomness(((0, Fraction(1, 2)), (bad, Fraction(1, 2))))
    assert SharedRandomness(((np.int8(0), Fraction(1, 2)), (np.int64(3), Fraction(1, 2)))
                            ).values == ((0, Fraction(1, 2)), (3, Fraction(1, 2)))


@pytest.mark.parametrize("d", [2, 3, 4])
def test_one_bit_and_shared_randomness_simulate_the_dbox(d):
    box, bits = evaluate_comm_protocol(protocol4(d))
    assert bits == 1
    assert box.table == dbox(d).table


def test_protocol4_rejects_bad_dimensions():
    with pytest.raises(WiringError):
        protocol4(1)
    with pytest.raises(WiringError):
        protocol4("2")
    with pytest.raises(WiringError):
        protocol4(2.0)
    with pytest.raises(WiringError):
        protocol4(True)
    assert protocol4(np.int64(2)) == protocol4(2)


def test_dropping_the_message_leaves_a_local_box():
    d = 2
    shape = dbox(d).shape
    silent = CommProtocol(
        shape, SharedRandomness.uniform(d), (), (),
        ({(x, a): a for x in range(2) for a in range(d)},
         {(y, a): a for y in range(2) for a in range(d)}))
    box, bits = evaluate_comm_protocol(silent)
    assert bits == 0
    assert box.table != dbox(d).table
    assert is_local(box)


def test_no_events_and_trivial_randomness_is_deterministic():
    shape = pr().shape
    proto = CommProtocol(
        shape, SharedRandomness.trivial(), (), (),
        ({(x, 0): x for x in range(2)}, {(y, 0): 0 for y in range(2)}))
    box, bits = evaluate_comm_protocol(proto)
    assert bits == 0
    assert box.is_deterministic()


def test_protocol_validation_errors():
    shape = pr().shape
    ok_out = ({(x, 0): 0 for x in range(2)}, {(y, 0): 0 for y in range(2)})
    with pytest.raises(WiringError, match="one output table per party"):
        evaluate_comm_protocol(CommProtocol(
            shape, SharedRandomness.trivial(), (), (), (ok_out[0],)))
    with pytest.raises(WiringError, match="sends a message to its own"):
        evaluate_comm_protocol(CommProtocol(
            shape, SharedRandomness.trivial(), (),
            (Message(0, 0, 1, {}),), ok_out))
    with pytest.raises(WiringError, match="positive bit width"):
        evaluate_comm_protocol(CommProtocol(
            shape, SharedRandomness.trivial(), (),
            (Message(0, 1, 0, {}),), ok_out))
    with pytest.raises(WiringError, match="no entry for scope"):
        evaluate_comm_protocol(CommProtocol(
            shape, SharedRandomness.trivial(), (),
            (Message(0, 1, 1, {}),), ok_out))
    with pytest.raises(WiringError, match="outside the allowed range"):
        evaluate_comm_protocol(CommProtocol(
            shape, SharedRandomness.trivial(), (),
            (Message(0, 1, 1, {(x, 0): 5 for x in range(2)}),), ok_out))
    with pytest.raises(WiringError, match="no final output for scope"):
        evaluate_comm_protocol(CommProtocol(
            shape, SharedRandomness.trivial(), (), (),
            ({(0, 0): 0}, ok_out[1])))
    with pytest.raises(WiringError, match="nonexistent party"):
        evaluate_comm_protocol(CommProtocol(
            shape, SharedRandomness.trivial(), (),
            (Message(0, 7, 1, {(x, 0): 0 for x in range(2)}),), ok_out))


def test_minimum_message_budgets():
    assert min_oneway_comm_with_SR(local_deterministic(1, 0, 0, 1), 2) == 0
    assert min_oneway_comm_with_SR(uniform(pr().shape), 2) == 0
    assert min_oneway_comm_with_SR(pr(), 2) == 1
    assert min_oneway_comm_with_SR(dbox(3), 2) == 1


def test_budget_zero_agrees_with_locality():
    for box in (pr(), uniform(pr().shape), local_deterministic(0, 1, 1, 0)):
        zero_enough = min_oneway_comm_with_SR(box, 0)
        assert (zero_enough == 0) == bool(is_local(box))


def test_budget_can_be_exhausted():
    assert min_oneway_comm_with_SR(pr(), 0) is None


def test_mincomm_guards():
    with pytest.raises(ShapeError):
        min_oneway_comm_with_SR(xyplusz(), 1)
    with pytest.raises(EnumerationCapError):
        min_oneway_comm_with_SR(dbox(5), 3, cap=100)


@pytest.mark.parametrize("max_bits", [1.5, 1.0, True, "1", -1])
def test_mincomm_refuses_a_bad_bit_budget(max_bits):
    with pytest.raises(ShapeError):
        min_oneway_comm_with_SR(pr(), max_bits)


def test_mincomm_takes_numpy_integers_and_refuses_a_float_cap():
    assert min_oneway_comm_with_SR(pr(), np.int64(2)) == 1
    assert min_oneway_comm_with_SR(pr(), 2, cap=np.int64(1000)) == 1
    with pytest.raises(ShapeError):
        min_oneway_comm_with_SR(pr(), 2, cap=2.5)


def test_evaluation_size_is_checked_before_validation():
    shape = pr().shape
    comps = tuple(Component(pr(), (0, 1)) for _ in range(11))
    # 4 joint inputs x 2**22 joint component outputs, and no events at all
    too_big = CommProtocol(shape, SharedRandomness.trivial(), comps, (),
                           ({}, {}))
    with pytest.raises(EnumerationCapError):
        evaluate_comm_protocol(too_big)
    # 64 inputs a side, one of them with 64 outputs: 16129 table entries, but
    # 2**12 joint inputs x 2**12 joint outputs in the dense component array
    skewed = BoxShape(((64,) + (1,) * 63, (64,) + (1,) * 63))
    big_comp = Component(Box(skewed, (0,) * skewed.table_size), (0, 1))
    with pytest.raises(EnumerationCapError):
        evaluate_comm_protocol(CommProtocol(
            shape, SharedRandomness.trivial(), (big_comp,), (), ({}, {})))


def _reference_oneway_supports(shape, c):
    """The one-way strategies' supports as mincomm built them before the
    strategy table: Alice picks (message, output) per input, Bob an output
    per (input, message), one flat index per joint input."""
    xs = range(shape.inputs[0])
    msgs = range(2 ** c)
    alice_choices = [[(m, a) for m in msgs for a in range(shape.outputs[0][x])]
                     for x in xs]
    bob_keys = [(y, m) for y in range(shape.inputs[1]) for m in msgs]
    bob_choices = [range(shape.outputs[1][y]) for y, _ in bob_keys]
    for alice in iproduct(*alice_choices):
        for bob in iproduct(*bob_choices):
            bfun = dict(zip(bob_keys, bob))
            yield tuple(shape.index((alice[x][1], bfun[(y, alice[x][0])]), (x, y))
                        for x, y in shape.joint_inputs)


def _random_bipartite_shape(rng):
    return BoxShape(tuple(tuple(rng.randint(1, 3) for _ in range(rng.randint(1, 3)))
                          for _ in range(2)))


def test_oneway_table_matches_the_reference_on_seeded_shapes():
    """Uneven output counts and single-output inputs, at 0, 1 and 2
    message bits, wherever the count stays under a small cap."""
    rng = random.Random(14)
    checked = []
    while len(checked) < 24:
        shape, c = _random_bipartite_shape(rng), rng.randint(0, 2)
        try:
            record = _strategy_record("oneway", shape, 5000, c)
        except EnumerationCapError:
            continue
        want = list(dict.fromkeys(_reference_oneway_supports(shape, c)))
        assert [tuple(np.flatnonzero(row).tolist()) for row in record.matrix] == want
        assert len(record.strategies) == len(want)
        checked.append((shape, c))
    assert {c for _, c in checked} == {0, 1, 2}
    counts = [set(p) for shape, _ in checked for p in shape.outputs]
    assert any(1 in p for p in counts) and any(len(p) > 1 for p in counts)


def _reference_oneway_tables(shape, c):
    """The one-way strategies as full Fraction tables, as mincomm built
    them before it switched to supports."""
    xs = range(shape.inputs[0])
    ys = range(shape.inputs[1])
    msgs = range(2 ** c)
    alice_choices = [[(m, a) for m in msgs for a in range(shape.outputs[0][x])]
                     for x in xs]
    bob_keys = [(y, m) for y in ys for m in msgs]
    bob_choices = [range(shape.outputs[1][y]) for y, _ in bob_keys]
    for alice in iproduct(*alice_choices):
        for bob in iproduct(*bob_choices):
            bfun = dict(zip(bob_keys, bob))
            table = [Fraction(0)] * shape.table_size
            for x in xs:
                m, a = alice[x]
                for y in ys:
                    table[shape.index((a, bfun[(y, m)]), (x, y))] = Fraction(1)
            yield tuple(table)


@pytest.mark.parametrize("shape", ["2,2/2,2", "3,3/3,3", "2,3/3,2"])
@pytest.mark.parametrize("c", [0, 1])
def test_strategy_supports_match_the_fraction_tables(shape, c):
    shape = BoxShape.from_string(shape)
    want = [[int(v) for v in t] for t in dict.fromkeys(_reference_oneway_tables(shape, c))]
    assert _strategy_record("oneway", shape, 200_000, c).matrix.tolist() == want


def _reference_comm_evaluate(protocol, components=None):
    """The per-assignment Fraction loop evaluate_comm_protocol ran before it
    moved to integer arrays, kept as an independent oracle (no cap and no
    validation: call it on protocols the library accepted)."""
    boxes = ([c.box for c in protocol.components] if components is None
             else list(components))
    shape = protocol.shape
    sides = [(c, s) for c, comp in enumerate(protocol.components)
             for s in range(len(comp.parties))]
    pos = {cs: i for i, cs in enumerate(sides)}
    ranges = [range(max(boxes[c].shape.outputs[s])) for c, s in sides]

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


def _mixture(shape, rng, count=3):
    """A rational mixture of seeded deterministic strategies: a valid box
    whose entries have small uneven denominators."""
    weights = [Fraction(rng.randint(1, 9)) for _ in range(count)]
    total = sum(weights)
    table = [Fraction(0)] * shape.table_size
    for w in weights:
        strategy = DeterministicStrategy(shape, tuple(
            tuple(rng.randrange(n) for n in per_party)
            for per_party in shape.outputs))
        for i, v in enumerate(strategy.box().table):
            table[i] += w / total * v
    return Box(shape, tuple(table))


@functools.cache
def _component_pool():
    """Valid boxes grouped by shape, so any of them can override another."""
    rng = random.Random(11)
    chsh = pr().shape
    uneven = BoxShape.from_string("2,3/3,2")
    return {
        chsh: [pr(), pr(1, 0, 1), dbox(2), uniform(chsh), _mixture(chsh, rng),
               mix(pr(), uniform(chsh), Fraction(2, 7))],
        uneven: [uniform(uneven), _mixture(uneven, rng), _mixture(uneven, rng)],
        dbox(3).shape: [dbox(3), uniform(dbox(3).shape)],
        xyplusz().shape: [xyplusz(), uniform(xyplusz().shape)],
    }


_SHARED = [SharedRandomness.trivial(), SharedRandomness.uniform(2),
           SharedRandomness(((-3, Fraction(1, 3)), (7, Fraction(2, 3)))),
           SharedRandomness(((-3, Fraction(0)), (7, Fraction(1)))),
           SharedRandomness(((7, Fraction(3, 5)), (0, Fraction(0)),
                             (-3, Fraction(2, 5))))]


def _random_protocol(rng, pool):
    """A valid protocol: random components and parties, box uses and up to
    two messages in random order and directions, random total tables."""
    shape = BoxShape.from_string(rng.choice(
        ["2,2/2,2", "2,3/3,2", "3,2/2,2", "2,2/2,2/2,2"]))
    parties = shape.parties
    comps, sides = [], 0
    for _ in range(rng.randint(0, 2)):
        box = rng.choice(pool[rng.choice(list(pool))])
        if sides + box.shape.parties <= 4:
            sides += box.shape.parties
            comps.append(Component(box, tuple(
                rng.randrange(parties) for _ in range(box.shape.parties))))
    plan = [(c, s) for c, comp in enumerate(comps)
            for s in range(len(comp.parties))]
    plan += [None] * rng.randint(0, 2)
    rng.shuffle(plan)
    shared = rng.choice(_SHARED)
    domains = [[range(n), [v for v, _ in shared.values]]
               for n in shape.inputs]
    events = []
    for item in plan:
        if item is None:
            sender, receiver = rng.sample(range(parties), 2)
            width = rng.choice((1, 1, 2))
            events.append(Message(sender, receiver, width, {
                key: rng.randrange(2 ** width)
                for key in iproduct(*domains[sender])}))
            domains[receiver].append(range(2 ** width))
        else:
            c, s = item
            box, party = comps[c].box, comps[c].parties[s]
            events.append(BoxUse(party, c, s, {
                key: rng.randrange(box.shape.inputs[s])
                for key in iproduct(*domains[party])}))
            domains[party].append(range(max(box.shape.outputs[s])))
    outputs = tuple({key: rng.randrange(shape.outputs[k][key[0]])
                     for key in iproduct(*domains[k])}
                    for k in range(parties))
    return CommProtocol(shape, shared, tuple(comps), tuple(events), outputs)


def _override(protocol, rng, pool):
    return [rng.choice(pool[comp.box.shape]) for comp in protocol.components]


def test_integer_evaluator_matches_the_reference_loop():
    rng = random.Random(2024)
    pool = _component_pool()
    seen = set()
    for _ in range(150):
        proto = _random_protocol(rng, pool)
        overrides = [None, _override(proto, rng, pool)]
        for components in overrides:
            got = evaluate_comm_protocol(proto, components)
            assert got == _reference_comm_evaluate(proto, components)
        seen |= {(ev.sender, ev.receiver) for ev in proto.events
                 if isinstance(ev, Message)}
        seen |= {"zero shared" for _, p in proto.shared.values if p == 0}
        seen |= {"uneven" for comp in proto.components
                 if comp.box.shape == BoxShape.from_string("2,3/3,2")}
        seen |= {"three parties"} if proto.shape.parties == 3 else set()
    assert {(0, 1), (1, 0), "zero shared", "uneven", "three parties"} <= seen


def _recording_numerators(monkeypatch):
    dtypes = []
    original = comm._dense_numerators

    def spy(box, nums):
        dtypes.append(nums.dtype)
        return original(box, nums)
    monkeypatch.setattr(comm, "_dense_numerators", spy)
    return dtypes


def test_denominators_past_the_guard_run_on_python_ints(monkeypatch):
    dtypes = _recording_numerators(monkeypatch)
    chsh = pr().shape
    prime = 2 ** 61 - 1   # 4 * prime alone is past 2**62
    huge = [mix(pr(), uniform(chsh), Fraction(1, prime)),
            mix(pr(1, 1, 0), dbox(2), Fraction(prime - 1, prime + 2))]
    # den >= 2**59 fits int64, but not den times the >= 16 triples per input
    edge = [mix(pr(), local_deterministic(1, 0, 0, 1), Fraction(1, 2 ** 57)),
            pr()]
    rng = random.Random(5)
    pool = {chsh: [pr()]}
    checked = 0
    while checked < 30:
        proto = _random_protocol(rng, pool)
        if len(proto.components) != 2:
            continue
        for components in (huge, edge, [huge[0], edge[0]]):
            dtypes.clear()
            got = evaluate_comm_protocol(proto, components)
            assert got == _reference_comm_evaluate(proto, components)
            assert dtypes == [object, object]
        checked += 1
    # den * 16 triples per joint input = 2**61: int64 near the bound
    inside = [mix(pr(), local_deterministic(1, 0, 0, 1), Fraction(1, 2 ** 55)),
              pr()]
    for wiring, components in ((preset("P5"), None), (preset("P1", 2, 2), inside)):
        dtypes.clear()
        got = evaluate_wiring(wiring, components)
        assert got == _reference_comm_evaluate(_lower(wiring), components)[0]
        assert dtypes == [np.int64, np.int64]


def test_non_integer_scope_values_are_refused():
    p5 = preset("P5")
    alice = p5.programs[0]
    for bad in (0.5, True):
        bad_step = dataclasses.replace(alice.steps[0], inputs={
            **alice.steps[0].inputs, (1,): bad})
        bad_alice = PartyProgram((bad_step, *alice.steps[1:]), alice.outputs)
        with pytest.raises(WiringError, match=r"event 0 maps scope \(1, 0\) "
                           f"to {bad}, which is not an integer"):
            evaluate_wiring(dataclasses.replace(
                p5, programs=(bad_alice, *p5.programs[1:])))
    bob = p5.programs[1]
    for bad in (0.5, True, 1.0, "1", None, Fraction(1)):
        bad_bob = PartyProgram(bob.steps, {**bob.outputs, (1, 0): bad})
        with pytest.raises(WiringError, match=r"party 1 maps scope "
                           r"\(1, 0, 0\) to .*, which is not an integer"):
            evaluate_wiring(dataclasses.replace(
                p5, programs=(p5.programs[0], bad_bob, p5.programs[2])))

    shape = pr().shape
    ok_out = ({(x, 0): 0 for x in range(2)}, {(y, 0): 0 for y in range(2)})
    for bad in (0.5, False):
        values = {(0, 0): 0, (1, 0): bad}
        with pytest.raises(WiringError, match=r"event 0 maps scope "
                           r"\(1, 0\) to .*, which is not an integer"):
            evaluate_comm_protocol(CommProtocol(
                shape, SharedRandomness.trivial(), (),
                (Message(0, 1, 1, values),),
                (ok_out[0], {(y, 0, m): 0 for y in range(2)
                             for m in range(2)})))
    for width in (0.5, 1.0, True, "1", None):
        with pytest.raises(WiringError, match="event 0 needs a positive bit "
                           "width"):
            evaluate_comm_protocol(CommProtocol(
                shape, SharedRandomness.trivial(), (),
                (Message(0, 1, width, {(x, 0): 0 for x in range(2)}),),
                ok_out))
    # numpy integers are integers
    proto = CommProtocol(shape, SharedRandomness.trivial(), (), (),
                         ({(x, 0): np.int64(x) for x in range(2)},
                          {(y, 0): np.int8(0) for y in range(2)}))
    assert evaluate_comm_protocol(proto) == _reference_comm_evaluate(proto)


def test_message_widths_are_capped_before_any_table_is_built():
    """A 40-bit message would have 2**40 values in its receiver's scope; a
    22-bit one passes the width check but its receiver's output table would
    have 2**23 scopes.  Both are refused before a table is built."""
    shape = pr().shape
    sent = {(x, 0): 0 for x in range(2)}
    start = time.perf_counter()
    with pytest.raises(EnumerationCapError, match="40-bit message"):
        evaluate_comm_protocol(CommProtocol(
            shape, SharedRandomness.trivial(), (), (Message(0, 1, 40, sent),), ({}, {})))
    with pytest.raises(EnumerationCapError, match="party 1's final output table"):
        evaluate_comm_protocol(CommProtocol(
            shape, SharedRandomness.trivial(), (), (Message(0, 1, 22, sent),),
            ({(x, 0): 0 for x in range(2)}, {})))
    assert time.perf_counter() - start < 5
    assert evaluate_comm_protocol(protocol4(3)) == (dbox(3), 1)


def test_largest_chain_is_evaluated_in_bounded_memory():
    """P3(2, 3, 10) enumerates 4 * 2**20 triples, exactly _MAX_ASSIGNMENTS;
    the blocks keep every temporary small."""
    tracemalloc.start()
    try:
        start = time.perf_counter()
        err = protocol3_error(2, 3, 10)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert err == Fraction(1, 1024)
    assert peak < 64 * 2 ** 20
    assert elapsed < 60


_CORRUPTIONS = ["none", "float", "integral float", "bool", "too big",
               "negative", "missing scope", "extra scope", "unused side",
               "float width", "bool width"]


def _corrupt_table(table, kind, rng):
    """A copy of a scope table with one malformed entry of the given kind
    (unchanged for kinds that are not about table entries)."""
    table = dict(table)
    key = rng.choice(sorted(table))
    if kind == "missing scope":
        del table[key]
    elif kind == "extra scope":
        table[(*key, 0)] = 0
    elif kind in ("float", "integral float", "bool", "too big", "negative"):
        table[key] = {"float": 0.5, "integral float": float(table[key]),
                      "bool": bool(table[key]), "too big": 99,
                      "negative": -1}[kind]
    return table


def _corrupt_protocol(protocol, kind, rng):
    events = list(protocol.events)
    uses = [i for i, ev in enumerate(events) if isinstance(ev, BoxUse)]
    msgs = [i for i, ev in enumerate(events) if isinstance(ev, Message)]
    if kind == "unused side" and uses:
        del events[rng.choice(uses)]
    elif kind in ("float width", "bool width") and msgs:
        i = rng.choice(msgs)
        events[i] = dataclasses.replace(
            events[i], width=1.0 if kind == "float width" else True)
    target = rng.randrange(len(events) + protocol.shape.parties)
    outputs = list(protocol.outputs)
    if target < len(events):
        ev = events[target]
        field = "inputs" if isinstance(ev, BoxUse) else "values"
        events[target] = dataclasses.replace(
            ev, **{field: _corrupt_table(getattr(ev, field), kind, rng)})
    else:
        k = target - len(events)
        outputs[k] = _corrupt_table(outputs[k], kind, rng)
    return dataclasses.replace(protocol, events=tuple(events),
                               outputs=tuple(outputs))


def _corrupt_wiring(wiring, kind, rng):
    programs = list(wiring.programs)
    k = rng.randrange(len(programs))
    steps = list(programs[k].steps)
    if kind == "unused side" and steps:
        del steps[rng.randrange(len(steps))]
    target = rng.randrange(len(steps) + 1)
    outputs = programs[k].outputs
    if target < len(steps):
        steps[target] = dataclasses.replace(steps[target], inputs=_corrupt_table(
            steps[target].inputs, kind, rng))
    else:
        outputs = _corrupt_table(outputs, kind, rng)
    programs[k] = PartyProgram(tuple(steps), outputs)
    return dataclasses.replace(wiring, programs=tuple(programs))


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2 ** 32), kind=st.sampled_from(_CORRUPTIONS),
       wiring=st.booleans(), override=st.booleans())
def test_malformed_protocols_and_wirings_raise_typed_errors(seed, kind, wiring,
                                                            override):
    """Evaluation either equals the reference loop or raises WiringError,
    ShapeError or EnumerationCapError; never TypeError, KeyError or
    IndexError."""
    from wiring_helpers import random_wiring
    rng = random.Random(seed)
    pool = _component_pool()
    if wiring:
        w = _corrupt_wiring(random_wiring(rng), kind, rng)
        proto = _lower(w)
    else:
        proto = _corrupt_protocol(_random_protocol(rng, pool), kind, rng)
    components = _override(proto, rng, pool) if override else None
    try:
        got = (evaluate_wiring(w, components) if wiring
               else evaluate_comm_protocol(proto, components)[0])
    except (WiringError, ShapeError, EnumerationCapError):
        assert kind != "none"
        return
    assert got == _reference_comm_evaluate(proto, components)[0]


def test_component_and_event_errors():
    shape = pr().shape
    ok_out = ({(x, 0): 0 for x in range(2)}, {(y, 0): 0 for y in range(2)})

    def evaluate(components, events):
        return evaluate_comm_protocol(CommProtocol(
            shape, SharedRandomness.trivial(), components, events, ok_out))
    with pytest.raises(WiringError, match="one protocol party per box party"):
        evaluate((Component(pr(), (0,)),), ())
    with pytest.raises(WiringError, match="component assigned to a nonexistent party"):
        evaluate((Component(pr(), (0, 5)),), ())
    with pytest.raises(WiringError, match="event 0 references a nonexistent box side"):
        evaluate((Component(pr(), (0, 1)),), (BoxUse(0, 0, 2, {}),))
    with pytest.raises(WiringError, match="event 0 is neither a box use nor a message"):
        evaluate((), ("send",))
