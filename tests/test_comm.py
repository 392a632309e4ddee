from fractions import Fraction
from itertools import product as iproduct

import pytest

from nsbox.boxes import BoxShape, ShapeError
from nsbox.comm import (BoxUse, CommProtocol, Component, Message,
                        SharedRandomness, _oneway_tables,
                        evaluate_comm_protocol, min_oneway_comm_with_SR,
                        protocol4)
from nsbox.dd import EnumerationCapError
from nsbox.families import dbox, local_deterministic, pr, uniform, xyplusz
from nsbox.locality import is_local
from nsbox.wiring import WiringError


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


def test_evaluation_size_is_checked_before_validation():
    shape = pr().shape
    comps = tuple(Component(pr(), (0, 1)) for _ in range(11))
    # 4 joint inputs x 2**22 joint component outputs, and no events at all
    too_big = CommProtocol(shape, SharedRandomness.trivial(), comps, (),
                           ({}, {}))
    with pytest.raises(EnumerationCapError):
        evaluate_comm_protocol(too_big)


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
    want = [tuple(i for i, v in enumerate(t) if v)
            for t in dict.fromkeys(_reference_oneway_tables(shape, c))]
    assert list(dict.fromkeys(_oneway_tables(shape, c))) == want
