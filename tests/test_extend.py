from fractions import Fraction
from itertools import product as iproduct

import numpy as np
import pytest

from nsbox.boxes import BoxShape, ShapeError, marginal, tensor
from nsbox.extend import (all_extensions_factorize, build_extension_polytope,
                          product_extension)
from nsbox.families import dbox, local_deterministic, pr, uniform
from nsbox.polytope import HPolytope, build_hrep, enumerate_vertices


def test_extremal_bases_admit_only_product_extensions():
    for base in (pr(), dbox(3)):
        for env_in, env_out in iproduct((1, 2), (2, 3)):
            ok, witness = all_extensions_factorize(base, env_in, env_out)
            assert ok, (base.shape, env_in, env_out)
            assert witness is None


def test_interior_base_has_entangled_extensions():
    base = uniform(pr().shape)
    ok, witness = all_extensions_factorize(base, 1, 2)
    assert not ok
    witness.require_valid()
    assert marginal(witness, (0, 1)) == base
    assert witness != tensor(marginal(witness, (0, 1)), marginal(witness, (2,)))
    assert witness != product_extension(base, 1, 2)


def test_product_extension_is_always_a_member():
    for base in (pr(), uniform(pr().shape), dbox(3)):
        ext = build_extension_polytope(base, 2, 2)
        point = product_extension(base, 2, 2)
        assert ext.hrep.contains(point.table)
        assert marginal(point, (0, 1)) == base


def test_deterministic_base_extension_vertices_are_env_strategies():
    base = local_deterministic(0, 1, 1, 0)
    ext = build_extension_polytope(base, 2, 3)
    vrep = enumerate_vertices(ext.hrep)
    assert len(vrep.vertices) == 3 ** 2
    for v in vrep.vertices:
        assert v == tensor(marginal(v, (0, 1)), marginal(v, (2,)))
        assert marginal(v, (0, 1)) == base
        assert marginal(v, (2,)).is_deterministic()


def test_extension_guards():
    with pytest.raises(ShapeError):
        build_extension_polytope(product_extension(pr(), 1, 2), 1, 2)
    with pytest.raises(ShapeError):
        build_extension_polytope(pr(), 0, 2)
    with pytest.raises(ShapeError):
        build_extension_polytope(pr(), 1, 0)
    with pytest.raises(ShapeError):
        build_extension_polytope(pr(), 1.5, 2)
    with pytest.raises(ShapeError):
        build_extension_polytope(pr(), True, 2)
    with pytest.raises(ShapeError):
        product_extension(pr(), 1, 2.0)


def test_extensions_take_numpy_integers():
    assert product_extension(pr(), np.int64(1), np.int64(2)) == product_extension(pr(), 1, 2)


def _reference_rows(base, env_inputs, env_outputs):
    """The pinning rows as a per-entry loop built them before the extension
    read ``boxes._marginal_map``: one per joint input and outcome pair."""
    shape = BoxShape(base.shape.outputs + ((env_outputs,) * env_inputs,))
    extra = []
    for ins in shape.joint_inputs:
        x, y, _ = ins
        for a in range(shape.outputs[0][x]):
            for b in range(shape.outputs[1][y]):
                row = [Fraction(0)] * shape.table_size
                for e in range(env_outputs):
                    row[shape.index((a, b, e), ins)] = Fraction(1)
                extra.append((tuple(row), base.prob((a, b), (x, y))))
    return shape, extra


@pytest.mark.parametrize("name", ["pr", "dbox3", "uniform"])
@pytest.mark.parametrize("env", [(1, 2), (2, 2), (2, 3)], ids=str)
def test_extension_rows_match_the_loop_reference(name, env):
    base = {"pr": pr(), "dbox3": dbox(3), "uniform": uniform(pr().shape)}[name]
    ext = build_extension_polytope(base, *env)
    shape, extra = _reference_rows(base, *env)
    plain = build_hrep(shape).equalities
    assert ext.shape == shape
    assert ext.hrep.equalities[:len(plain)] == plain
    assert len(ext.hrep.equalities) == len(plain) + len(extra)
    assert set(ext.hrep.equalities[len(plain):]) == set(extra)
    if env[0] == 1:
        assert ext.hrep.equalities[len(plain):] == tuple(extra)
    # the uniform base's polytope has 8100 vertices at (2, 2) and more than
    # two million at (2, 3)
    if name != "uniform" or env == (1, 2):
        reference = HPolytope(shape.table_size, plain + tuple(extra), shape)
        assert enumerate_vertices(ext.hrep) == enumerate_vertices(reference)
