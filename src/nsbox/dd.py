"""Extreme rays of pointed rational cones by the double description method."""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .linalg import _bareiss, _int_matmul, inverse_and_det, reduce_content

_WORD = np.uint64(0xFFFFFFFFFFFFFFFF)


class EnumerationCapError(RuntimeError):
    """A configured resource cap (ray count or wall clock) was hit; the
    enumeration result would be partial, so nothing is returned."""


def _popcount(arr):
    return np.bitwise_count(arr)


def _masks_to_words(masks, nwords):
    out = np.zeros((len(masks), nwords), dtype=np.uint64)
    for i, m in enumerate(masks):
        w = 0
        while m:
            out[i, w] = m & 0xFFFFFFFFFFFFFFFF
            m >>= 64
            w += 1
    return out


def extreme_rays(rows, max_rays=2_000_000, time_budget=None, threads=1):
    """All extreme rays of the pointed cone {y : a·y >= 0 for each row a}.

    ``rows`` are integer vectors; the result is a sorted list of primitive
    integer tuples.  Raises ValueError if the cone is not pointed and
    EnumerationCapError if ``max_rays`` intermediate rays or the
    ``time_budget`` (seconds) is exceeded.
    """
    t0 = time.monotonic()
    rows = [tuple(reduce_content(list(r))) for r in rows]
    seen_rows = set()
    uniq = []
    for r in rows:
        if any(r) and r not in seen_rows:
            seen_rows.add(r)
            uniq.append(r)
    rows = uniq
    if not rows:
        raise ValueError("no constraints: cone is all of space, not pointed")
    d = len(rows[0])
    # pivot columns of the transpose: the first independent rows, in order
    base_idx = _bareiss([list(c) for c in zip(*rows)])
    if len(base_idx) < d:
        raise ValueError("cone has a lineality space (constraint rank < dimension)")

    inv, det = inverse_and_det([rows[i] for i in base_idx])
    sign = 1 if det > 0 else -1
    rays = []
    for j in range(d):
        col = [inv[i][j] * det * sign for i in range(d)]
        if any(v.denominator != 1 for v in col):
            raise AssertionError("initial ray of an integer basis is not integral")
        rays.append(tuple(reduce_content([int(v) for v in col])))
    # processed-row masks: bit i set iff the ray is tight on processed row i
    masks = [((1 << d) - 1) ^ (1 << j) for j in range(d)]
    processed = [rows[i] for i in base_idx]
    remaining = [r for i, r in enumerate(rows) if i not in set(base_idx)]

    def check_budget():
        if time_budget is not None and time.monotonic() - t0 > time_budget:
            raise EnumerationCapError(
                f"time budget {time_budget}s exceeded with "
                f"{len(remaining)} rows left and {len(rays)} rays")

    pool = ThreadPoolExecutor(max_workers=threads) if threads > 1 else None
    try:
        while remaining:
            check_budget()
            values = _int_matmul(remaining, rays)
            best = None
            for i, vals in enumerate(values):
                pos = sum(1 for v in vals if v > 0)
                neg = sum(1 for v in vals if v < 0)
                score = abs(pos - neg)
                if best is None or score < best[0]:
                    best = (score, i)
            i_row = best[1]
            row = remaining.pop(i_row)
            vals = values[i_row]

            pos_i = [i for i, v in enumerate(vals) if v > 0]
            zero_i = [i for i, v in enumerate(vals) if v == 0]
            neg_i = [i for i, v in enumerate(vals) if v < 0]
            if not pos_i and not zero_i:
                # every ray is cut off, so the cone has collapsed to {0}
                return []
            bit = 1 << len(processed)
            if not neg_i:
                masks = [m | bit if v == 0 else m for m, v in zip(masks, vals)]
                processed.append(row)
                continue

            new_rays = _combine_adjacent(
                rays, masks, vals, pos_i, neg_i, len(processed), d, pool, threads)
            # exact tight-sets for the survivors and the fresh rays
            keep = pos_i + zero_i
            zero_set = set(zero_i)
            rays2 = [rays[i] for i in keep]
            masks2 = [masks[i] | (bit if i in zero_set else 0) for i in keep]
            processed.append(row)
            if new_rays:
                prods = _int_matmul(processed, new_rays)
                for j, ray in enumerate(new_rays):
                    m = 0
                    for ib in range(len(processed)):
                        if prods[ib][j] == 0:
                            m |= 1 << ib
                    rays2.append(ray)
                    masks2.append(m)
            rays, masks = rays2, masks2
            if len(rays) > max_rays:
                raise EnumerationCapError(
                    f"ray cap {max_rays} exceeded ({len(rays)} rays, "
                    f"{len(remaining)} rows left)")
    finally:
        if pool is not None:
            pool.shutdown()
    return sorted(rays)


def _combine_adjacent(rays, masks, vals, pos_i, neg_i, nbits, d, pool, threads):
    """New rays from adjacent (positive, negative) pairs for the current row."""
    nwords = max(1, (nbits + 63) // 64)
    all_words = _masks_to_words(masks, nwords)
    pos_words = all_words[np.array(pos_i, dtype=np.intp)]
    need = d - 2

    cand_pairs = []
    r_count = len(rays)
    chunk = max(1, int(2e7) // max(len(pos_i), 1))
    for lo in range(0, len(neg_i), chunk):
        sel = neg_i[lo:lo + chunk]
        neg_words = all_words[np.array(sel, dtype=np.intp)]
        cnt = np.zeros((len(sel), len(pos_i)), dtype=np.int64)
        for w in range(nwords):
            cnt += _popcount(neg_words[:, w][:, None] & pos_words[:, w][None, :])
        ni, pi = np.nonzero(cnt >= need)
        for a, b in zip(ni.tolist(), pi.tolist()):
            cand_pairs.append((pos_i[b], sel[a]))
    if not cand_pairs:
        return []

    # a candidate pair is adjacent iff only the two parents contain its
    # common tight set
    def survivors(pairs):
        out = []
        cm = np.zeros((len(pairs), nwords), dtype=np.uint64)
        for i, (p, n) in enumerate(pairs):
            cm[i] = all_words[p] & all_words[n]
        ok = np.ones((len(pairs), r_count), dtype=bool)
        for w in range(nwords):
            ok &= (all_words[:, w][None, :] & cm[:, w][:, None]) == cm[:, w][:, None]
        counts = ok.sum(axis=1)
        for i, c in enumerate(counts.tolist()):
            if c == 2:
                out.append(pairs[i])
        return out

    chunk2 = max(1, int(2e7) // max(r_count, 1))
    batches = [cand_pairs[lo:lo + chunk2] for lo in range(0, len(cand_pairs), chunk2)]
    if pool is not None and len(batches) > 1:
        adjacent = []
        for part in pool.map(survivors, batches):
            adjacent.extend(part)
    else:
        adjacent = []
        for b in batches:
            adjacent.extend(survivors(b))

    fresh = {}
    for p, n in adjacent:
        vp, vn = int(vals[p]), int(vals[n])
        w = [vp * rn - vn * rp for rp, rn in zip(rays[p], rays[n])]
        w = tuple(reduce_content(w))
        fresh.setdefault(w, None)
    return list(fresh)
