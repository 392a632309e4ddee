"""Extensions of a bipartite box by an environment party, and the check
that extremal boxes only extend as products."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from random import Random

from .boxes import (_MAX_JOINT_INPUTS, Box, BoxShape, ShapeError, _as_int,
                    _marginal_map, marginal, mix, tensor)
from .families import uniform
from .polytope import HPolytope, _indicator_rows, build_hrep, enumerate_vertices


@dataclass(frozen=True)
class ExtensionPolytope:
    """Tripartite no-signalling boxes whose AB marginal equals the base for
    every environment input."""

    base: Box
    shape: BoxShape
    hrep: HPolytope


def _env_shape(env_inputs, env_outputs):
    if _as_int(env_inputs, "the environment's input count") < 1:
        raise ShapeError("the environment needs at least one input")
    if _as_int(env_outputs, "the environment's output count") < 1:
        raise ShapeError("the environment needs at least one output")
    if env_inputs > _MAX_JOINT_INPUTS:
        raise ShapeError(f"{env_inputs} environment inputs exceed the cap of "
                         f"{_MAX_JOINT_INPUTS} joint inputs")
    return BoxShape(((env_outputs,) * env_inputs,))


def build_extension_polytope(base, env_inputs, env_outputs):
    """No-signalling constraints for parties A, B, E plus one row per
    environment input e and base entry r, in that order, pinning the AB
    marginal's group e·K + r (``_marginal_map`` keeping A and B, K the
    base's table size) to the base.  Always nonempty: the base tensored
    with any environment distribution satisfies every row."""
    base.require_valid()
    if base.shape.parties != 2:
        raise ShapeError("extensions are built over bipartite bases")
    env = _env_shape(env_inputs, env_outputs)
    shape = BoxShape(base.shape.outputs + env.outputs)
    _, gid = _marginal_map(shape, (0, 1))
    rows = _indicator_rows(gid, env.inputs[0] * base.shape.table_size)
    extra = tuple(zip(rows, base.table * env.inputs[0]))
    hrep = HPolytope(shape.table_size, build_hrep(shape).equalities + extra, shape)
    return ExtensionPolytope(base, shape, hrep)


def _factorizes(point):
    ab = marginal(point, (0, 1))
    env = marginal(point, (2,))
    return point == tensor(ab, env)


def all_extensions_factorize(base, env_inputs, env_outputs,
                             max_rays=2_000_000, time_budget=None):
    """Whether every extension splits as base times an environment
    distribution; on failure, also a validated counterexample vertex.

    Points with the pinned AB marginal that factorize form a convex set,
    so checking the vertices settles the whole polytope.  A sampled set of
    vertex midpoints re-checks that claim at runtime."""
    ext = build_extension_polytope(base, env_inputs, env_outputs)
    vrep = enumerate_vertices(ext.hrep, max_rays=max_rays,
                              time_budget=time_budget)
    witness = None
    for v in vrep.vertices:
        if not _factorizes(v):
            witness = v
            break
    if witness is not None:
        witness.require_valid()
        if marginal(witness, (0, 1)) != base:
            raise RuntimeError("witness does not reduce to the base box; "
                               "the extension rows are wrong")
        return False, witness
    rng = Random(0)
    n = len(vrep.vertices)
    for _ in range(min(50, n * (n - 1) // 2)):
        i = rng.randrange(n)
        j = rng.randrange(n)
        if i == j:
            continue
        mid = mix(vrep.vertices[i], vrep.vertices[j], Fraction(1, 2))
        if not _factorizes(mid):
            raise RuntimeError("a midpoint fails to factorize although every "
                               "vertex does; the vertex list is suspect")
    return True, None


def product_extension(base, env_inputs, env_outputs):
    """The base tensored with a uniform environment; a member of every
    extension polytope."""
    return tensor(base, uniform(_env_shape(env_inputs, env_outputs)))
