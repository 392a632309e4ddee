"""The finite group of reversible local relabellings acting on boxes.

A relabelling acts on flat tables as a gather map (``index_map``); every
orbit is walked by ``_walk`` over tables coded by ``_encode``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import permutations
from math import factorial, prod

import numpy as np

from .boxes import Box, BoxShape, ShapeError, _as_int, _layout, flat
from .dd import EnumerationCapError

# ``group`` lists every element; larger groups are refused before any is
# built, and ``orbit`` stops once its walk passes this many rows
_MAX_GROUP_ORDER = 1 << 20


def _check_perm(p, n, what):
    if len(p) != n or sorted(_as_int(v, f"{what} entry") for v in p) != list(range(n)):
        raise ShapeError(f"{what}: {tuple(p)!r} is not a permutation of 0..{n - 1}")


@dataclass(frozen=True)
class Relabelling:
    """A local symmetry: permute parties, each party's inputs, and each
    party's outputs conditionally on that party's input.

    ``party_perm[k]`` is the slot party k moves to; ``input_perms[k][x]`` the
    new input index; ``output_perms[k][x][a]`` the new output index.  Input
    and output permutations are indexed by the original party and input.
    """

    party_perm: tuple[int, ...]
    input_perms: tuple[tuple[int, ...], ...]
    output_perms: tuple[tuple[tuple[int, ...], ...], ...]

    @classmethod
    def identity(cls, shape):
        return cls(
            tuple(range(shape.parties)),
            tuple(tuple(range(m)) for m in shape.inputs),
            tuple(tuple(tuple(range(d)) for d in per_party)
                  for per_party in shape.outputs),
        )

    def check_against(self, shape):
        """Validate against a shape; returns the shape of the relabelled box."""
        n = shape.parties
        _check_perm(self.party_perm, n, "party permutation")
        if len(self.input_perms) != n or len(self.output_perms) != n:
            raise ShapeError("relabelling arity does not match shape")
        new_outputs = [None] * n
        for k in range(n):
            m = shape.inputs[k]
            _check_perm(self.input_perms[k], m, f"party {k} input permutation")
            if len(self.output_perms[k]) != m:
                raise ShapeError(f"party {k}: need one output permutation per input")
            per = [None] * m
            for x in range(m):
                d = shape.outputs[k][x]
                _check_perm(self.output_perms[k][x], d,
                            f"party {k} input {x} output permutation")
                per[self.input_perms[k][x]] = d
            new_outputs[self.party_perm[k]] = tuple(per)
        return BoxShape(tuple(new_outputs))

    def index_map(self, shape):
        """The action on flat tables: ``(new_shape, gather)`` such that the
        relabelled table is ``old_table[gather]``."""
        new_shape = self.check_against(shape)
        lay = _layout(shape)
        ins, outs = lay.inputs[lay.joint], lay.outs
        ins2, outs2 = np.empty_like(ins), np.empty_like(outs)
        for k, j in enumerate(self.party_perm):
            width = max(shape.outputs[k])
            perms = np.array([list(p) + [0] * (width - len(p)) for p in self.output_perms[k]])
            ins2[:, j] = np.take(self.input_perms[k], ins[:, k])
            outs2[:, j] = perms[ins[:, k], outs[:, k]]
        gather = np.empty(shape.table_size, dtype=np.intp)
        gather[flat(new_shape, ins2, outs2)] = np.arange(shape.table_size)
        return new_shape, gather


def apply_relabelling(box, r):
    """Permute a box's table along a relabelling; shape may move under the
    party permutation but relabelling a box twice with r then inverse(r)
    always restores it."""
    new_shape, gather = r.index_map(box.shape)
    return Box(new_shape, tuple(box.table[i] for i in gather.tolist()))


def compose(r1, r2):
    """The relabelling "apply r1, then r2"."""
    if len(r2.party_perm) != len(r1.party_perm):
        raise ShapeError("composing relabellings of different party counts")
    moved = list(zip(r1.party_perm, r1.input_perms, r1.output_perms))
    pp = tuple(r2.party_perm[j] for j, _, _ in moved)
    ips = tuple(tuple(r2.input_perms[j][x] for x in ip) for j, ip, _ in moved)
    ops = tuple(tuple(tuple(r2.output_perms[j][x][a] for a in op)
                      for x, op in zip(ip, per_input))
                for j, ip, per_input in moved)
    return Relabelling(pp, ips, ops)


def _invert(perm):
    inv = [0] * len(perm)
    for i, j in enumerate(perm):
        inv[j] = i
    return tuple(inv)


def _swapped(t, i, j):
    t = list(t)
    t[i], t[j] = t[j], t[i]
    return tuple(t)


def _replaced(t, i, v):
    return t[:i] + (v,) + t[i + 1:]


def inverse(r):
    pp = _invert(r.party_perm)
    ips = tuple(_invert(r.input_perms[k]) for k in pp)
    ops = tuple(tuple(_invert(r.output_perms[k][x]) for x in ip)
                for k, ip in zip(pp, ips))
    return Relabelling(pp, ips, ops)


def _classes(items):
    """The positions of each distinct item, grouped, in first-seen order."""
    by_item = {}
    for i, item in enumerate(items):
        by_item.setdefault(item, []).append(i)
    return list(by_item.values())


def _moves(ident, slots):
    """A small generating set of the permutations of ``slots`` (positions
    in the identity permutation ``ident``): the transposition of the first
    two and, for three or more, the cycle sending each slot to the next."""
    slots = list(slots)
    if len(slots) < 2:
        return []
    moves = [_swapped(ident, slots[0], slots[1])]
    if len(slots) > 2:
        cycle = list(ident)
        for a, b in zip(slots, slots[1:] + slots[:1]):
            cycle[a] = b
        moves.append(tuple(cycle))
    return moves


def generators(shape, allow_party_permutation=True):
    """A small generating set of the shape-preserving relabellings.

    A transposition and a full cycle generate every permutation of their
    slots, so it takes (the cycle only for three slots or more): per class
    of parties with identical output counts, when party permutations are
    allowed, the transposition of its first two and the cycle over it; per
    party that leads its class (every party otherwise), those of each
    class of its inputs with equal output counts; and at the first input
    of each such class, with d outputs, the output transposition (0 1) and
    the d-cycle.  Conjugating by the input and party permutations carries
    a class's first input's and first party's generators to the others, so
    these span the whole group."""
    ident = Relabelling.identity(shape)
    pp, ips, ops = ident.party_perm, ident.input_perms, ident.output_perms
    gens = []
    party_classes = _classes(shape.outputs)
    if allow_party_permutation:
        for parties in party_classes:
            gens += (Relabelling(p, ips, ops) for p in _moves(pp, parties))
    leads = ([parties[0] for parties in party_classes] if allow_party_permutation
             else range(shape.parties))
    for k in leads:
        for inputs in _classes(shape.outputs[k]):
            # output permutations stay indexed by the original input, so
            # the identity ones still fit
            gens += (Relabelling(pp, _replaced(ips, k, ip), ops)
                     for ip in _moves(ips[k], inputs))
            x = inputs[0]
            gens += (Relabelling(pp, ips, _replaced(ops, k, _replaced(ops[k], x, op)))
                     for op in _moves(ops[k][x], range(len(ops[k][x]))))
    return gens


def _group_order(shape, allow_party_permutation=True):
    """The order of the group the generators span: per party, the input
    permutations within each class of equal output counts and an output
    permutation per input; then, when allowed, the permutations of each
    class of identical parties."""
    def classes(items):
        return prod(map(factorial, Counter(items).values()))
    order = prod(classes(p) * prod(map(factorial, p)) for p in shape.outputs)
    return order * classes(shape.outputs) if allow_party_permutation else order


def group(shape, allow_party_permutation=True):
    """All shape-preserving relabellings, by closure of the generators.
    Refused with EnumerationCapError when the group has more than
    ``_MAX_GROUP_ORDER`` elements."""
    order = _group_order(shape, allow_party_permutation)
    if order > _MAX_GROUP_ORDER:
        raise EnumerationCapError(f"the relabelling group of {shape} has {order} "
                                  f"elements, past the cap of {_MAX_GROUP_ORDER}")
    gens = generators(shape, allow_party_permutation)
    ident = Relabelling.identity(shape)
    seen = {ident: None}
    frontier = [ident]
    while frontier:
        nxt = []
        for r in frontier:
            for g in gens:
                rg = compose(r, g)
                if rg not in seen:
                    seen[rg] = None
                    nxt.append(rg)
        frontier = nxt
    return list(seen)


def _encode(tables):
    """Code equal-length tables as the rows of one array of value ids.

    Ids follow sorted value order and are stored big-endian in the narrowest
    unsigned dtype that holds them, so the bytes of two rows compare exactly
    as the tables do, lexicographically.  Returns ``(values, codes)``, where
    ``values[i]`` is the entry that id i codes.
    """
    first_seen = {}   # keyed by (numerator, denominator): cheaper to hash
    raw = [[first_seen.setdefault(v.as_integer_ratio(), len(first_seen))
            for v in table] for table in tables]
    ratios = sorted(first_seen, key=lambda r: Fraction(*r))
    width = next(w for w in (1, 2, 4, 8) if len(ratios) <= 256 ** w)
    rank = np.empty(len(ratios), dtype=f">u{width}")
    rank[[first_seen[r] for r in ratios]] = np.arange(len(ratios))
    return [Fraction(*r) for r in ratios], rank[np.array(raw, dtype=np.intp)]


def _decode(shape, values, dtype, key):
    """The box whose value-id row, of the given dtype, has the bytes key."""
    row = np.frombuffer(key, dtype=dtype)
    return Box(shape, tuple(values[i] for i in row.tolist()))


def _row_keys(rows):
    """The bytes of each row of a 2-D code array."""
    rows = np.ascontiguousarray(rows)
    return rows.view(np.dtype((np.void, rows.shape[1] * rows.itemsize))).ravel().tolist()


@lru_cache(maxsize=32)
def _generator_maps(shape, allow_party_permutation):
    """The generators of a shape and their gather maps, one row each;
    cached per shape, so both are read-only."""
    gens = tuple(generators(shape, allow_party_permutation))
    maps = np.array([g.index_map(shape)[1] for g in gens], dtype=np.intp)
    maps = maps.reshape(len(gens), shape.table_size)
    maps.setflags(write=False)
    return gens, maps


def _walk(starts, maps, target=None, limit=None):
    """Breadth-first search from the code rows ``starts`` under the gather
    maps, level by level; within a level each row's images are taken under
    each map in turn.

    Returns a dict from each row's bytes, in the order found, to how it was
    reached: ``(parent's bytes, map number)``, or ``(None, s)`` for start s.
    With ``target`` (a row's bytes) the search stops once it is found; with
    ``limit`` it raises EnumerationCapError once it finds more rows.
    """
    keys = _row_keys(starts)
    found = {}
    for s, key in enumerate(keys):
        found.setdefault(key, (None, s))
    frontier = starts
    while len(frontier) and target not in found:
        images = frontier[:, maps].reshape(-1, starts.shape[1])
        parents, keys, fresh = keys, [], []
        for j, key in enumerate(_row_keys(images)):
            if key not in found:
                found[key] = (parents[j // len(maps)], j % len(maps))
                keys.append(key)
                fresh.append(j)
                if key == target:
                    break
                if limit is not None and len(found) > limit:
                    raise EnumerationCapError(
                        f"orbit walk passed {limit} rows, the cap on an orbit")
        frontier = images[fresh]
    return found


def orbit(box, allow_party_permutation=True):
    """All distinct boxes reachable by relabelling, in breadth-first order
    over the small generating set of ``generators``, which takes fewer
    images per box than the group's every transposition would but more
    levels to reach the whole orbit.  Raises EnumerationCapError once the
    walk passes ``_MAX_GROUP_ORDER`` boxes, before the boxes are built.

    The walk compares tables through their value-id rows, whose bytes order
    exactly as the tables do lexicographically; in particular two rows are
    equal exactly when their tables are."""
    values, codes = _encode([box.table])
    found = _walk(codes, _generator_maps(box.shape, allow_party_permutation)[1],
                  limit=_MAX_GROUP_ORDER)
    return [_decode(box.shape, values, codes.dtype, key) for key in found]


def canonical_form(box, allow_party_permutation=True):
    """The lexicographically smallest table in the box's orbit.

    It is found as the orbit's least value-id row: value ids follow sorted
    value order and are stored big-endian, so the rows' bytes order exactly
    as the tables do lexicographically.  Raises EnumerationCapError once the
    walk passes ``_MAX_GROUP_ORDER`` rows."""
    values, codes = _encode([box.table])
    found = _walk(codes, _generator_maps(box.shape, allow_party_permutation)[1],
                  limit=_MAX_GROUP_ORDER)
    return _decode(box.shape, values, codes.dtype, min(found))


def equivalent_under_relabelling(a, b, allow_party_permutation=True):
    """Search the relabelling group for a witness mapping a onto b.

    Returns the witness Relabelling, or None.  When the flag is set the two
    shapes may differ by a party permutation; otherwise they must be equal.
    The search starts from a moved by each party permutation onto b's shape
    (identity first) and walks breadth-first until it meets b.  a and b are
    coded with one set of value ids, whose rows order exactly as the tables
    do lexicographically, so a row equals b's row exactly when its table
    equals b's.  The witness is the start composed with the generators on
    the path to b.  Raises EnumerationCapError once the walk passes
    ``_MAX_GROUP_ORDER`` rows without meeting b.
    """
    n = a.shape.parties
    if b.shape.parties != n:
        return None
    ident = Relabelling.identity(a.shape)
    orders = permutations(range(n)) if allow_party_permutation else [ident.party_perm]
    starts = [Relabelling(pp, ident.input_perms, ident.output_perms) for pp in orders]
    starts = [r0 for r0 in starts if r0.check_against(a.shape) == b.shape]
    if not starts:
        return None
    _, codes = _encode([a.table, b.table])
    gens, maps = _generator_maps(b.shape, allow_party_permutation)
    start_rows = codes[0][np.array([r0.index_map(a.shape)[1] for r0 in starts])]
    target = codes[1].tobytes()
    found = _walk(start_rows, maps, target, limit=_MAX_GROUP_ORDER)
    if target not in found:
        return None
    word = []
    parent, g = found[target]
    while parent is not None:
        word.append(gens[g])
        parent, g = found[parent]
    return reduce(compose, reversed(word), starts[g])
