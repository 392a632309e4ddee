"""Extreme rays of pointed rational cones by the double description method."""

from __future__ import annotations

import time

import numpy as np

from .boxes import _as_int
from .linalg import _eliminate, _fit, _int_array, _int_products, _max_abs, _primitive_rows, _solve

# elements in the largest temporary of the adjacency test
_BUDGET = 1 << 20


class EnumerationCapError(RuntimeError):
    """A configured resource cap (ray count or wall clock) was hit; the
    enumeration result would be partial, so nothing is returned."""


def _pack(tight, nwords):
    """Rows of a bool matrix as uint64 masks: column i is bit i % 64 of
    word i // 64."""
    bits = np.zeros((len(tight), nwords * 64), dtype=bool)
    bits[:, :tight.shape[1]] = tight
    return np.packbits(bits, axis=1, bitorder="little").view("<u8").astype(np.uint64)


def _start(table):
    """(basis, rays) of the simplicial start, for distinct nonzero rows
    ``table``: the indices of the first independent rows once rows with
    more zero entries come first (input order on ties), and the primitive
    rays of the cone those rows bound, ray j tight on every basis row but
    row j.  Raises ValueError if the rows have rank below the dimension.

    One elimination of [rowsᵀ | I] gives both: its pivot columns among the
    rows' columns are the basis B, and back substitution on the identity
    block gives D·(Bᵀ)⁻¹, whose row j is orthogonal to every basis row but
    row j."""
    n, d = table.shape
    order = np.argsort(-(table == 0).sum(axis=1), kind="stable")
    m, pivots = _eliminate(np.concatenate([table[order].T, np.eye(d, dtype=table.dtype)], axis=1))
    if pivots[-1] >= n:
        raise ValueError("cone has a lineality space (constraint rank < dimension)")
    den, y = _solve(m, pivots, range(n, n + d))
    rays = (1 if den > 0 else -1) * y
    return order[pivots].tolist(), _fit(rays // np.gcd.reduce(rays, axis=1)[:, None])


def extreme_rays(rows, max_rays=2_000_000, time_budget=None):
    """All extreme rays of the pointed cone {y : a·y >= 0 for each row a}
    of a 2-D integer array or equal-length integer rows ``rows``, as a
    sorted list of primitive integer tuples; see ``_extreme_rays``.  Other
    input (ragged, not 2-D, bool or non-integer entries) raises ValueError
    before any elimination."""
    try:
        rows = [list(r) for r in rows]
    except TypeError:
        raise ValueError("rows must be 2-D: a sequence of integer rows") from None
    lengths = sorted({len(r) for r in rows})
    if len(lengths) > 1:
        raise ValueError(f"rows must have one length, got lengths {lengths}")
    ints = [[_as_int(v, "a row entry", ValueError) for v in r] for r in rows]
    table = _int_array(ints).reshape(len(rows), max(lengths, default=0))
    return sorted(map(tuple, _extreme_rays(table, max_rays, time_budget).tolist()))


def _extreme_rays(rows, max_rays, time_budget):
    """The extreme rays of the pointed cone {y : rows·y >= 0} for a 2-D
    integer array ``rows``, as primitive rows of one integer array in the
    order the loop leaves them; (0, d) when the cone is {0}.  Raises
    ValueError if the cone is not pointed and EnumerationCapError if
    ``max_rays`` intermediate rays or the ``time_budget`` (seconds) is
    exceeded.  The clock is read before each row and, inside a row's
    adjacency test, before each block of ends and each chunk of an end's
    candidates.

    The rows are first made primitive and distinct (``_primitive_rows``).
    The start is the simplicial cone of the first independent rows when
    rows with more zero entries come first (input order on ties).  The
    other rows are added one at a time, each time the row that makes the
    fewest candidate pairs, #pos·#neg over the current rays, the first
    such row on ties; so rows with no ray on one side score 0 and go
    first.  The order changes only the intermediate ray sets, the time and
    the order of the rays returned.  Each ray keeps a bit mask of the
    processed rows it is tight on.  A ray p on the positive side of the new
    row and a ray n on its negative side are adjacent iff no third ray is
    tight on all of their common tight rows cm = mask_p ∧ mask_n, which
    needs |cm| >= d - 2 (the combinatorial test).  A ray r tight on all of
    cm is near p, |mask_r ∧ mask_p| >= d - 2, because cm ⊆ mask_r gives
    cm ⊆ mask_r ∧ mask_p; likewise it is near n.  So the candidates of a
    ray are the rays near it on the other side, and each pair is tested
    against the rays near one of its two ends only.
    """
    t0 = time.monotonic()

    def check_clock():
        elapsed = time.monotonic() - t0
        if time_budget is not None and elapsed > time_budget:
            raise EnumerationCapError(
                f"time budget {time_budget}s exceeded after {elapsed:.1f}s "
                f"with {len(remaining)} of {len(table)} rows left and "
                f"{len(rays)} rays")

    table = _primitive_rows(rows)
    if not len(table):
        raise ValueError("no constraints: cone is all of space, not pointed")
    d = table.shape[1]
    base_idx, rays = _start(table)
    # bit k of a ray's mask is set iff the ray is tight on processed row k
    nwords = (len(table) + 63) // 64
    masks = _pack(~np.eye(d, dtype=bool), nwords)
    processed = list(base_idx)
    remaining = [i for i in range(len(table)) if i not in set(base_idx)]

    while remaining:
        check_clock()
        values = _int_products(table[remaining], rays)
        # the row with the fewest candidate pairs #pos·#neg, first on ties;
        # a row with no ray on one side scores 0 and makes no pair
        pairs = (values > 0).sum(axis=1) * (values < 0).sum(axis=1)
        i_row = int(np.argmin(pairs))
        vals = values[i_row]
        pos, neg = vals > 0, vals < 0
        zero = ~(pos | neg)
        if not pos.any() and not zero.any():
            # every ray is cut off, so the cone has collapsed to {0}
            return rays[:0]
        word, bit = divmod(len(processed), 64)
        bit = np.uint64(1 << bit)
        if not neg.any():
            processed.append(remaining.pop(i_row))
            masks[zero, word] |= bit
            continue

        # the row stays in ``remaining`` until its fresh rays are made, so a
        # timeout inside it counts it among the rows left
        fresh = _fresh_rays(rays, masks, vals, d, check_clock)
        processed.append(remaining.pop(i_row))
        keep = ~neg
        masks = masks[keep]
        masks[zero[keep], word] |= bit
        masks = np.concatenate([masks, _pack(_int_products(fresh, table[processed]) == 0, nwords)])
        rays = _fit(np.concatenate([rays[keep], fresh]))
        if len(rays) > max_rays:
            raise EnumerationCapError(
                f"ray cap {max_rays} exceeded ({len(rays)} rays, "
                f"{len(remaining)} rows left)")
    return rays


def _adjacent_pairs(masks, vals, need, check_clock):
    """Index arrays (p, n) of the adjacent pairs with vals[p] > 0 > vals[n],
    for rays tight on at least ``need`` + 1 rows each.

    Each pair is tested from its end with fewer tight rows, which has the
    fewer near rays; ties go to the positive end.  Blocks of ends share one
    numpy pass for their near rays and candidates.  ``check_clock`` is
    called before each block and each chunk of an end's candidates, so
    between two calls every temporary holds at most ``_BUDGET`` elements."""
    nrays = len(masks)
    # the words of rows not processed yet are zero in every mask
    words = [np.ascontiguousarray(col) for col in masks.T if col.any()]
    pos, neg = vals > 0, vals < 0
    key = 2 * np.bitwise_count(masks).sum(axis=1, dtype=np.int64) + neg
    ends = np.flatnonzero(pos | neg)
    # the smallest unsigned type that holds a popcount over all the words
    count = np.min_scalar_type(64 * len(words))
    anchors, partners = [], []
    block = max(1, _BUDGET // nrays)
    for lo in range(0, len(ends), block):
        check_clock()
        blk = ends[lo:lo + block]
        shared = np.zeros((len(blk), nrays), dtype=count)
        for w in words:
            shared += np.bitwise_count(w & w[blk, None])
        # the rays near each end, grouped by end, and which are its candidates
        near_b, near_r = np.divmod(np.flatnonzero(shared >= need), nrays)
        end_of = blk[near_b]
        cand = (np.where(pos[end_of], neg[near_r], pos[near_r])
                & (key[near_r] > key[end_of]))
        size = np.bincount(near_b, minlength=len(blk))
        stops = np.cumsum(size)
        starts, stops = (stops - size).tolist(), stops.tolist()
        for i in np.flatnonzero(np.bincount(near_b[cand], minlength=len(blk))).tolist():
            a, near = blk[i], near_r[starts[i]:stops[i]]
            cands = near[cand[starts[i]:stops[i]]]
            live = [w for w in words if w[a]]
            step = max(1, _BUDGET // len(near))
            for lo2 in range(0, len(cands), step):
                check_clock()
                b = cands[lo2:lo2 + step]
                held = None
                for w in live:
                    cm = (w[b] & w[a])[:, None]
                    inside = (w[near] & cm) == cm
                    held = inside if held is None else held & inside
                anchors.append(a)
                partners.append(b[held.sum(axis=1) == 2])
    if not anchors:
        return np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.intp)
    b = np.concatenate(partners)
    a = np.repeat(anchors, [len(x) for x in partners])
    return np.where(pos[a], a, b), np.where(pos[a], b, a)


def _fresh_rays(rays, masks, vals, d, check_clock):
    """The primitive ray vals[p]·rays[n] − vals[n]·rays[p] of each adjacent
    pair (p, n), which lies on the new row's hyperplane.  Distinct pairs
    span distinct 2-faces, so the fresh rays are distinct.  With vals[p] >
    0 > vals[n] each term is below 2**62 in magnitude under the guard, so
    the sum fits in int64; past the guard the arithmetic is on Python ints."""
    p, n = _adjacent_pairs(masks, vals, d - 2, check_clock)
    if not len(p):
        return np.zeros((0, d), dtype=np.int64)
    if _max_abs(vals) * _max_abs(rays) >= 2 ** 62:
        rays, vals = rays.astype(object), vals.astype(object)
    w = vals[p][:, None] * rays[n] - vals[n][:, None] * rays[p]
    return w // np.gcd.reduce(w, axis=1)[:, None]
