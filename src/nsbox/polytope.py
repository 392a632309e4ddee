"""H- and V-representations of no-signalling polytopes, vertex enumeration
and orbit classification."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm

import numpy as np

from . import relabel
from .boxes import Box, BoxShape, InvalidBoxError, ShapeError, _equality_rows
from .dd import extreme_rays
from .families import dbox
from .linalg import _int_products, _max_abs, clear_denominators, int_rank, nullspace_int


@dataclass(frozen=True)
class HPolytope:
    """Equalities (row, rhs) over the flat table; the only inequalities are
    positivity, one per coordinate."""

    ambient: int
    equalities: tuple[tuple[tuple[Fraction, ...], Fraction], ...]
    shape: BoxShape | None = None

    def contains(self, point):
        if len(point) != self.ambient:
            raise ShapeError("point has wrong dimension")
        if any(v < 0 for v in point):
            return False
        return all(sum(c * v for c, v in zip(row, point)) == rhs
                   for row, rhs in self.equalities)


@dataclass(frozen=True)
class VRep:
    vertices: tuple[Box, ...]
    full: bool = True


def _dense_row(n, plus, minus):
    """A Fraction row over a flat table of n entries: +1 at plus, -1 at
    minus."""
    row = [Fraction(0)] * n
    for i in plus:
        row[i] = Fraction(1)
    for i in minus:
        row[i] = Fraction(-1)
    return tuple(row)


def normalization_rows(shape):
    """One indicator row per joint input: the block must sum to one."""
    n = shape.table_size
    return [_dense_row(n, plus, minus) for plus, minus, _, _
            in _equality_rows(shape)[:len(shape.joint_inputs)]]


def build_hrep(shape):
    """Normalization and no-signalling equalities for a shape, one
    no-signalling family per party against the joint rest."""
    n = shape.table_size
    return HPolytope(n, tuple((_dense_row(n, plus, minus), Fraction(rhs))
                              for plus, minus, rhs, _ in _equality_rows(shape)),
                     shape)


@lru_cache(maxsize=None)
def _dimension_cached(shape):
    h = build_hrep(shape)
    rows = [clear_denominators(list(row)) for row, _ in h.equalities]
    return shape.table_size - int_rank(rows)


def dimension(shape):
    """Affine dimension of the no-signalling polytope of a shape."""
    return _dimension_cached(shape)


def _presolve_zeros(eq_int):
    """Coordinates forced to zero by same-sign rows with rhs 0; fixpoint."""
    ncols = len(eq_int[0]) - 1 if eq_int else 0
    fixed = set()
    changed = True
    while changed:
        changed = False
        for row in eq_int:
            rhs, coeffs = row[0], row[1:]
            if rhs != 0:
                continue
            live = [(i, c) for i, c in enumerate(coeffs) if c != 0 and i not in fixed]
            if not live:
                continue
            if all(c > 0 for _, c in live) or all(c < 0 for _, c in live):
                for i, _ in live:
                    fixed.add(i)
                changed = True
    return fixed


def _homogenized_cone(h):
    """(keep, coord_rows) for the vertices of {x >= 0, equalities}: the
    coordinates not forced to zero, and one integer row per coordinate of
    (t, x_keep) over a nullspace basis of the equalities.  Each extreme ray
    y of the cone {y : coord_rows·y >= 0} is one vertex x_keep / t."""
    eq_int = []
    seen = set()
    for row, rhs in h.equalities:
        cleared = clear_denominators([-rhs] + list(row))
        key = tuple(cleared)
        if key not in seen and any(cleared):
            seen.add(key)
            eq_int.append(cleared)
    if not eq_int:
        raise ShapeError("a polytope needs at least one equality (normalization)")

    fixed = _presolve_zeros(eq_int)
    keep = [i for i in range(h.ambient) if i not in fixed]
    reduced = []
    seen = set()
    for row in eq_int:
        r = [row[0]] + [row[1 + c] for c in keep]
        if any(r):
            key = tuple(r)
            if key not in seen:
                seen.add(key)
                reduced.append(r)

    basis = nullspace_int(reduced)
    if not basis:
        raise ShapeError("equalities admit only the zero solution; no polytope")
    coord_rows = [[vec[i] for vec in basis] for i in range(1 + len(keep))]
    return keep, coord_rows


def enumerate_vertices(h, max_rays=2_000_000, time_budget=None):
    """All vertices of {x >= 0, equalities}, via rays of the homogenized cone.

    Deterministic: vertices come back sorted by their flat tables.  Raises
    EnumerationCapError (never truncates silently) if caps are hit.
    """
    keep, coord_rows = _homogenized_cone(h)
    rays = extreme_rays(coord_rows, max_rays=max_rays, time_budget=time_budget)
    if not rays:
        return VRep((), full=True)
    # vertex i is z[i, 1:] / t[i]; scaled to the common denominator den of
    # all t, the integer rows order exactly as the Fraction tables do, and
    # each distinct entry becomes one Fraction
    z = _int_products(rays, coord_rows)
    t = z[:, 0].tolist()
    if min(t) <= 0:
        raise AssertionError(
            "homogenization ray with t <= 0 on a bounded polytope")
    den = lcm(*t)
    scale = [den // v for v in t]
    if _max_abs(z) * max(scale) >= 2 ** 63:
        z = z.astype(object)
    scaled = z[:, 1:] * np.array(scale, dtype=z.dtype)[:, None]
    # lexsort's primary key is its last
    values, inverse = np.unique(scaled[np.lexsort(scaled.T[::-1])], return_inverse=True)
    fractions = np.array([Fraction(v, den) for v in values.tolist()], dtype=object)
    table = np.full((len(scaled), h.ambient), Fraction(0), dtype=object)
    table[:, keep] = fractions[inverse].reshape(scaled.shape)
    vertices = [tuple(v) for v in table.tolist()]
    if h.shape is not None:
        boxes = tuple(Box(h.shape, v) for v in vertices)
    else:
        boxes = tuple(vertices)
    return VRep(boxes, full=True)


def is_extremal(box, polytope=None):
    """Whether a valid box is a vertex: the equalities plus its tight
    positivity constraints pin it uniquely (rank argument, exact)."""
    box.require_valid()
    h = build_hrep(box.shape) if polytope is None else polytope
    if len(box.table) != h.ambient:
        raise ShapeError("box does not live in the polytope's ambient space")
    if not h.contains(box.table):
        raise InvalidBoxError(box.validate() if polytope is None else
                              _not_member_report())
    support = [i for i, v in enumerate(box.table) if v > 0]
    rows = []
    for row, _ in h.equalities:
        rows.append(clear_denominators([row[i] for i in support]))
    return int_rank(rows) == len(support)


def _not_member_report():
    from .boxes import ValidationReport
    return ValidationReport(("box is not a member of the given polytope",))


@dataclass(frozen=True)
class OrbitClass:
    representative: Box
    size: int
    members: tuple[int, ...]


def classify_vertices(vrep, allow_party_permutation=True):
    """Partition a complete vertex list into relabelling orbits.

    Returns OrbitClass tuples sorted by representative table; representatives
    are the lexicographically smallest members.  Orbits are walked over the
    vertices' value-id rows, whose bytes order exactly as the tables do
    lexicographically, so the least row in an orbit is its representative."""
    if not vrep.vertices:
        return ()
    if not vrep.full:
        raise ShapeError("classification needs a complete vertex list")
    shape = vrep.vertices[0].shape
    _, maps = relabel._generator_maps(shape, allow_party_permutation)
    _, codes = relabel._encode([b.table for b in vrep.vertices])
    index_of = {key: i for i, key in enumerate(relabel._row_keys(codes))}
    if len(index_of) != len(codes):
        raise ShapeError("duplicate vertices in VRep")

    unseen = set(range(len(codes)))
    classes = []
    while unseen:
        orbit_keys = relabel._walk(codes[[min(unseen)]], maps)
        if not orbit_keys.keys() <= index_of.keys():
            raise ShapeError(
                "orbit leaves the vertex list; VRep is not a complete "
                "enumeration of a relabelling-closed set")
        members = sorted(index_of[key] for key in orbit_keys)
        rep = vrep.vertices[index_of[min(orbit_keys)]]
        classes.append(OrbitClass(rep, len(members), tuple(members)))
        unseen -= set(members)
    classes.sort(key=lambda c: c.representative.table)
    return tuple(classes)


def lift_box(box, target_shape):
    """Embed a box into a shape with more outputs per input (identity map on
    outcomes, zero probability on the new ones)."""
    if box.shape.inputs != target_shape.inputs:
        raise ShapeError("lifting cannot change input structure")
    for k in range(box.shape.parties):
        for x in range(box.shape.inputs[k]):
            if box.shape.outputs[k][x] > target_shape.outputs[k][x]:
                raise ShapeError("lifting cannot drop outputs")

    def fn(outs, ins):
        for k, a in enumerate(outs):
            if a >= box.shape.outputs[k][ins[k]]:
                return Fraction(0)
        return box.prob(outs, ins)

    return Box.from_function(target_shape, fn)


@dataclass(frozen=True)
class KBoxClass:
    representative: Box
    size: int
    k: int | None          # None marks the deterministic (local) classes
    lifted: bool

    @property
    def nonlocal_(self):
        return self.k is not None


@dataclass(frozen=True)
class KBoxCensus:
    shape: BoxShape
    classes: tuple[KBoxClass, ...]

    @property
    def all_nonlocal_matched(self):
        return all(c.k is not None for c in self.classes if not c.representative.is_deterministic())

    @property
    def ks(self):
        return tuple(sorted({c.k for c in self.classes if c.k is not None}))

    @property
    def vertex_count(self):
        return sum(c.size for c in self.classes)


def kbox_census(d_alice, d_bob, max_rays=2_000_000, time_budget=None):
    """Enumerate a two-input bipartite polytope and match every non-local
    vertex class to a (possibly lifted) k-box by exhaustive relabelling
    search; k runs over 2..min(output counts)."""
    d_alice, d_bob = tuple(d_alice), tuple(d_bob)
    if len(d_alice) != 2 or len(d_bob) != 2:
        raise ShapeError("the census covers two-input bipartite shapes")
    shape = BoxShape((d_alice, d_bob))
    vrep = enumerate_vertices(build_hrep(shape), max_rays=max_rays,
                              time_budget=time_budget)
    classes = classify_vertices(vrep)
    kmax = min(min(d_alice), min(d_bob))
    out = []
    for cls in classes:
        rep = cls.representative
        if rep.is_deterministic():
            out.append(KBoxClass(rep, cls.size, None, _uses_partial_outputs(rep)))
            continue
        found = []
        for k in range(2, kmax + 1):
            target = lift_box(dbox(k), shape)
            if relabel.equivalent_under_relabelling(rep, target) is not None:
                found.append(k)
        if len(found) != 1:
            raise ShapeError(
                f"non-local vertex class matched k-boxes {found}; expected "
                f"exactly one match")
        out.append(KBoxClass(rep, cls.size, found[0], _uses_partial_outputs(rep)))
    return KBoxCensus(shape, tuple(out))


def _uses_partial_outputs(box):
    """Whether some outcome of some (party, input) never occurs."""
    for k in range(box.shape.parties):
        m = box.marginal([k])
        for x in range(box.shape.inputs[k]):
            for a in range(box.shape.outputs[k][x]):
                if m.prob((a,), (x,)) == 0:
                    return True
    return False
