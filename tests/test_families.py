from fractions import Fraction
from itertools import product as iproduct
from math import prod

import numpy as np
import pytest

from nsbox.boxes import BoxShape, ShapeError, marginal
from nsbox.families import (dbox, local_deterministic, make_named_box, pr,
                            svetlichny_box, two_way_vertex, uniform, xyplusz,
                            xyz_box)

HALF = Fraction(1, 2)


@pytest.mark.parametrize("alpha,beta,gamma", list(iproduct((0, 1), repeat=3)))
def test_pr_family_support(alpha, beta, gamma):
    box = pr(alpha, beta, gamma)
    for (x, y), (a, b) in box.shape.entries():
        hit = (a ^ b) == (x * y) ^ (alpha * x) ^ (beta * y) ^ gamma
        assert box.prob((a, b), (x, y)) == (HALF if hit else 0)


def test_pr_parameters_are_bits():
    with pytest.raises(ShapeError):
        pr(2, 0, 0)


@pytest.mark.parametrize("bad", [2.9, 3.0, True, "3"])
def test_family_sizes_must_be_integers(bad):
    with pytest.raises(ShapeError, match="dbox's k must be an integer"):
        dbox(bad)
    with pytest.raises(ShapeError, match="party count must be an integer"):
        xyz_box(bad)
    assert dbox(np.int64(3)) == dbox(3)
    assert xyz_box(np.int8(3)) == xyz_box(3)


def test_dbox_two_is_the_pr_box():
    assert dbox(2) == pr()


def test_dbox_support_and_marginals():
    box = dbox(3)
    for (x, y), (a, b) in box.shape.entries():
        want = Fraction(1, 3) if (b - a) % 3 == x * y else 0
        assert box.prob((a, b), (x, y)) == want
    assert set(marginal(box, (0,)).table) == {Fraction(1, 3)}
    with pytest.raises(ShapeError):
        dbox(1)


def test_tripartite_parity_families():
    cases = (
        (xyplusz(), lambda x, y, z: (x * y) ^ (x * z)),
        (svetlichny_box(), lambda x, y, z: (x * y) ^ (y * z) ^ (x * z)),
        (xyz_box(), lambda x, y, z: x * y * z),
    )
    for box, predicate in cases:
        for (x, y, z), (a, b, c) in box.shape.entries():
            hit = (a ^ b ^ c) == predicate(x, y, z)
            assert box.prob((a, b, c), (x, y, z)) == (Fraction(1, 4) if hit else 0)


def test_xyz_box_at_two_parties_degenerates_to_pr():
    assert xyz_box(2) == pr()
    with pytest.raises(ShapeError):
        xyz_box(1)


def test_two_way_vertex_structure():
    box = two_way_vertex()
    assert marginal(box, (0, 1)) == pr()
    third = marginal(box, (2,))
    assert all(third.prob((0,), (z,)) == 1 for z in range(2))


def test_uniform_accepts_shape_or_string():
    assert uniform("2,2/2,2") == uniform(pr().shape)
    assert set(uniform(dbox(3).shape).table) == {Fraction(1, 9)}


@pytest.mark.parametrize("text", ["3,3/3,3", "2:4/2:4/2", "2,3/3,2", "2,5,1/3/2,2"])
def test_uniform_reads_block_sizes_from_the_layout(text, monkeypatch):
    shape = BoxShape.from_string(text)
    want = tuple(Fraction(1, d) for ins in shape.joint_inputs
                 for d in [prod(shape.outputs_at(ins))] for _ in range(d))

    def refuse(self, ins):
        raise AssertionError("uniform looked up a block")
    monkeypatch.setattr(BoxShape, "block", refuse)
    assert uniform(shape).table == want
    # an equal shape whose layout is cached already
    assert uniform(BoxShape.from_string(text)).table == want


def test_all_families_validate():
    boxes = [pr(1, 0, 1), local_deterministic(1, 1, 0, 1), dbox(4),
             xyplusz(), svetlichny_box(), xyz_box(4), two_way_vertex(),
             uniform("3,3/3,3")]
    for box in boxes:
        assert box.validate().ok


def test_make_named_box_dispatch():
    assert make_named_box("pr") == pr()
    assert make_named_box("PR", 1, 1, 1) == pr(1, 1, 1)
    assert make_named_box("d-box", 3) == dbox(3)
    assert make_named_box("two_way") == two_way_vertex()
    assert make_named_box("uniform", "2,2/2,2") == uniform(pr().shape)
    with pytest.raises(ShapeError) as exc:
        make_named_box("nosuch")
    assert "known" in str(exc.value)
