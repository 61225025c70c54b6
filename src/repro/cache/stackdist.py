"""Offline, fully vectorized truncated-LRU stack-distance kernel.

This module removes the last per-reference Python loop from the
single-pass cache engine (:mod:`repro.cache.cheetah`): instead of
touching per-set LRU stacks one reference at a time, it computes the
stack distance of *every* reference of a set-partitioned line stream
with whole-array numpy operations, then bin-counts the distances into
the familiar depth histogram.

Identity
--------
Take a stream partitioned by set (segments contiguous, original time
order preserved within each segment).  Because a line's value determines
its set, equal values always live in the same segment, so linking every
reference ``i`` to the previous occurrence ``P_i`` of the same line (one
stable value sort) never crosses a segment boundary — and neither does
the reuse window ``(P_i, i)``.  The LRU stack distance of ``i`` is the
number of distinct lines referenced inside that window.  Every distinct
line in the window has exactly one *last* occurrence there, i.e. one
position ``j`` whose next occurrence ``nxt_j`` is at or after ``i``;
with ``gap_j = nxt_j - j`` that membership test becomes the shifted
comparison ``gap[i - o] >= o``:

    dist_i = #{ o in 1..wl_i : gap[i - o] >= o },   wl_i = i - P_i - 1

A cold reference (no previous occurrence) misses every cache, and the
existing ``max_assoc`` truncation means any distance >= ``max_assoc``
lands in the shared "deeper-or-absent" bucket, so distances only need to
be *resolved* up to ``max_assoc`` — clamping the exact infinite-stack
distance is bit-identical to simulating truncated stacks (truncation
preserves the order of the top ``max_assoc`` entries, and a line below
that depth is evicted in the truncated simulation, i.e. absent).

Tiers
-----
1. **Tail scan** — accumulate the summand above for ``o = 1..W`` with
   clipped ``uint8`` compares (sequential access, no gathers).  This is
   exact for every reference with ``wl <= W``; for longer windows it
   counts distinct lines in the window *tail*, a lower bound, so a count
   reaching ``max_assoc`` already proves the deeper-or-absent bucket.
   The scan widens adaptively (up to :data:`SCAN_MAX_WINDOW`) while many
   references remain unresolved.
2. **Window expansion** — the residue (long window, tail count still
   below ``max_assoc``) is expanded explicitly with ``repeat``/``arange``
   index arithmetic under a total-size budget, growing a per-reference
   cap geometrically so cheap residues never pay for pathological ones.
3. **Dominance fallback** — if the residue exceeds the budget, the whole
   family is recomputed with an exact offline dominance count
   (:func:`distances_dominance`): distance = (left neighbours with a
   smaller previous-occurrence slot) - (own slot), counted by a
   bit-sliced MSD radix pass in O(n log n) array operations.

The kernel is exact — histograms stay bit-identical to the scalar
``_touch`` path and to :mod:`repro.cache._legacy` — and the property
suite in ``tests/cache/test_stackdist.py`` pins that equivalence on
adversarial streams.  ``docs/PERFORMANCE.md`` documents the design.
"""

from __future__ import annotations

from typing import Any

import numpy as np

__all__ = [
    "SCAN_BASE_WINDOW",
    "SCAN_MAX_WINDOW",
    "EXPAND_BUDGET_FACTOR",
    "count_left_less",
    "distances_dominance",
    "occurrence_links",
    "partition_by_set",
    "radix_argsort",
    "refine_partition",
    "split_value_groups",
    "stack_distances",
]

#: Initial tail-scan window (offsets scanned for every reference).
SCAN_BASE_WINDOW = 16

#: Hard ceiling for the adaptive tail scan; must stay < 255 because the
#: scan compares against uint8-clipped gaps and window lengths.
SCAN_MAX_WINDOW = 128

#: Expansion budget: total expanded window cells per kernel call,
#: as a multiple of the stream length, before falling back to the
#: dominance count.
EXPAND_BUDGET_FACTOR = 32

#: Group size below which the bit-sliced radix pass switches to
#: shifted-compare brute force.
_DOMINANCE_BRUTE_BELOW = 16


def radix_argsort(values: np.ndarray, vmax: int | None = None) -> np.ndarray:
    """Stable argsort of a non-negative integer array.

    Numpy's stable sort on ``uint16`` keys is a radix sort (~7x faster
    than comparison-sorting ``int32``), so wide values are sorted with
    two chained 16-bit passes.  Falls back to a plain stable argsort
    when values may be negative.
    """
    if values.size == 0:
        return np.empty(0, dtype=np.intp)
    if vmax is None:
        vmax = int(values.max())
    if vmax < 0 or int(values.min()) < 0:
        return np.argsort(values, kind="stable")
    lo = (values & 0xFFFF).astype(np.uint16)
    order = np.argsort(lo, kind="stable")
    if vmax >> 16:
        hi = (values >> 16).astype(np.uint16)
        order = order[np.argsort(hi[order], kind="stable")]
        if vmax >> 32:  # pragma: no cover - >48-bit line indices
            top = (values >> 32).astype(np.uint32)
            order = order[np.argsort(top[order], kind="stable")]
    return order


def occurrence_links(
    values: np.ndarray, vmax: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Consecutive occurrences of equal values: ``(link_from, link_to)``.

    One stable value sort puts each value's occurrences next to each
    other in time order; adjacent equal sorted values are one link.
    ``link_from`` lists exactly the positions whose value recurs later.
    The sort's temporaries die on return, before any counting runs.
    """
    order = radix_argsort(values, vmax)
    sv = values[order]
    # Mask-compress instead of materializing the (nearly full-length)
    # index array of equal-value adjacencies.
    same = sv[1:] == sv[:-1]
    return order[:-1][same], order[1:][same]


def partition_by_set(
    lines: np.ndarray, nsets: int, vmax: int | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray | None]:
    """Partition a line stream by set index, keeping within-set order.

    Returns ``(part, seg_lens, seg_sets, order)``: the reordered stream,
    one segment per set (possibly empty, so ``len(seg_lens) == nsets``),
    the set index of each segment, and the stable permutation such that
    ``part == lines[order]`` (``None`` for the identity when
    ``nsets == 1``).  Segment starts are ``cumsum(seg_lens) - seg_lens``.
    """
    n = len(lines)
    if nsets == 1:
        return (
            lines, np.array([n], dtype=np.intp), np.zeros(1, dtype=np.intp),
            None,
        )
    sidx = lines & (nsets - 1)
    key = sidx.astype(np.uint16) if nsets <= (1 << 16) else sidx
    order = np.argsort(key, kind="stable")
    seg_lens = np.bincount(key, minlength=nsets).astype(np.intp)
    return lines[order], seg_lens, np.arange(nsets, dtype=np.intp), order


def refine_partition(
    part: np.ndarray,
    seg_lens: np.ndarray,
    seg_sets: np.ndarray,
    old_nsets: int,
    new_nsets: int,
    order: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray | None]:
    """Refine a set partition from ``old_nsets`` to ``new_nsets`` sets.

    The set bits of family ``2k`` extend those of family ``k``, so each
    segment splits by one extra line-index bit per doubling — a stable
    O(n) scatter instead of a fresh argsort.  Segment order after a
    split is (parent order, new bit), which is irrelevant to the kernel;
    ``seg_sets`` tracks each segment's true set index.  When ``order``
    (the ``lines -> part`` permutation) is given it is carried through
    every split, so callers can keep mapping stream positions into the
    refined layout.
    """
    if new_nsets % old_nsets or new_nsets < old_nsets:
        raise ValueError(
            f"cannot refine a {old_nsets}-set partition into {new_nsets} sets"
        )
    m = len(part)
    bit = old_nsets
    while bit < new_nsets:
        nseg = len(seg_lens)
        ends = np.cumsum(seg_lens)
        starts = ends - seg_lens
        ones = (part & bit) != 0
        zeros = ~ones
        czpad = np.empty(m + 1, dtype=np.int32)
        czpad[0] = 0
        np.cumsum(zeros, out=czpad[1:])            # zeros up to position
        zex = czpad[:m]                            # zeros strictly before
        ztot = czpad[ends] - czpad[starts]         # zeros per segment
        seg_id = np.repeat(np.arange(nseg, dtype=np.intp), seg_lens)
        # dest(zero)  = start + zeros-before-in-segment
        #             = zex + (start - zeros-before-segment)
        # dest(one)   = start + ztot + ones-before-in-segment
        #             = i + (ztot + zeros-before-segment) - zex
        base_zero = (starts - czpad[starts]).astype(np.int32)
        base_one = (ztot + czpad[starts]).astype(np.int32)
        ar = np.arange(m, dtype=np.int32)
        dest = np.where(
            ones, ar + base_one[seg_id] - zex, zex + base_zero[seg_id]
        ).astype(np.intp)
        new_part = np.empty_like(part)
        new_part[dest] = part
        part = new_part
        if order is not None:
            new_order = np.empty_like(order)
            new_order[dest] = order
            order = new_order
        new_lens = np.empty(2 * nseg, dtype=np.intp)
        new_lens[0::2] = ztot
        new_lens[1::2] = seg_lens - ztot
        new_sets = np.empty(2 * nseg, dtype=np.intp)
        new_sets[0::2] = seg_sets
        new_sets[1::2] = seg_sets + bit
        seg_lens, seg_sets = new_lens, new_sets
        bit <<= 1
    return part, seg_lens, seg_sets, order


def split_value_groups(
    order: np.ndarray, group_lens: np.ndarray, ones: np.ndarray
) -> np.ndarray:
    """Stable split of consecutive equal-value groups by one extra bit.

    ``order`` is a permutation of stream positions sorted by
    ``(value, time)`` — equal values contiguous, time-ascending within
    each run; ``group_lens`` are those runs' lengths; ``ones`` flags,
    per *stream* position, the next lower value bit.  Each group
    stably partitions into its zero half then its one half, turning
    ``(v, time)`` order into ``(2v + bit, time)`` order — the sorted
    order one granularity finer — with one O(n) scatter instead of a
    fresh sort.  This is how the whole-design-space simulator derives
    every line size's previous-occurrence links from a single sort of
    the coarsest values (see :mod:`repro.cache.designspace`).
    """
    m = len(order)
    if m == 0:
        return order
    ob = ones[order]
    zeros = ~ob
    ends = np.cumsum(group_lens)
    starts = ends - group_lens
    # int32 bookkeeping throughout: destinations index a stream that is
    # always far below 2**31 elements, and halving the temporaries'
    # width roughly halves this pass's memory traffic.
    czpad = np.empty(m + 1, dtype=np.int32)
    czpad[0] = 0
    np.cumsum(zeros, out=czpad[1:])            # zeros up to position
    zex = czpad[:m]                            # zeros strictly before
    ztot = czpad[ends] - czpad[starts]         # zeros per group
    seg_id = np.repeat(
        np.arange(len(group_lens), dtype=np.int32), group_lens
    )
    # Same scatter arithmetic as refine_partition (which splits by a
    # *set* bit of the partitioned values; here the bit arrives as a
    # separate mask because it sits below the sorted values' lsb).
    base_zero = (starts - czpad[starts]).astype(np.int32)
    base_one = (ztot + czpad[starts]).astype(np.int32)
    ar = np.arange(m, dtype=np.int32)
    dest = np.where(ob, ar + base_one[seg_id] - zex, zex + base_zero[seg_id])
    new_order = np.empty_like(order)
    new_order[dest] = order
    return new_order


def count_left_less(
    v: np.ndarray,
    g0: np.ndarray,
    gnext: np.ndarray,
    brute_below: int = _DOMINANCE_BRUTE_BELOW,
) -> np.ndarray:
    """``c[i] = #{j < i : same group, v[j] < v[i]}`` for distinct-in-group v.

    MSD binary radix: at each bit, the ones of a group gain the count of
    zeros before them (all smaller), then every group stably partitions
    by the bit, preserving original relative order so "before" keeps its
    meaning.  Small residual groups finish with shifted compares.
    """
    m = len(v)
    c = np.zeros(m, np.int32)
    if m == 0:
        return c
    v = v.astype(np.int32, copy=True)
    idx = np.arange(m, dtype=np.intp)
    ar = np.arange(m, dtype=np.intp)
    g0 = g0.astype(np.intp, copy=True)
    gnext = gnext.astype(np.intp, copy=True)
    for bit in range(int(v.max()).bit_length() - 1, -1, -1):
        if int((gnext - g0).max()) <= brute_below:
            break
        ones = (v >> bit) & 1
        zeros = 1 - ones
        cz = np.cumsum(zeros, dtype=np.intp)
        zex = cz - zeros                    # zeros strictly before, global
        zstart = zex[g0]
        zb = zex - zstart                   # zeros strictly before, in group
        c += (zb * ones).astype(np.int32)
        zingrp = cz[gnext - 1] - zstart     # zeros in the whole group
        ones_b = ones.astype(bool)
        left = g0 + zingrp
        ob = ar - g0 - zb
        dest = np.where(ones_b, left + ob, g0 + zb)
        ng0 = np.where(ones_b, left, g0)
        ngnext = np.where(ones_b, gnext, left)
        v2 = np.empty_like(v); v2[dest] = v
        c2 = np.empty_like(c); c2[dest] = c
        i2 = np.empty_like(idx); i2[dest] = idx
        a2 = np.empty_like(g0); a2[dest] = ng0
        b2 = np.empty_like(gnext); b2[dest] = ngnext
        v, c, idx, g0, gnext = v2, c2, i2, a2, b2
    for off in range(1, int((gnext - g0).max())):
        ok = (v[:-off] < v[off:]) & (ar[off:] - off >= g0[off:])
        c[off:] += ok
    out = np.empty(m, np.int32)
    out[idx] = c
    return out


def distances_dominance(
    part: np.ndarray, seg_lens: np.ndarray, max_assoc: int
) -> np.ndarray:
    """Exact clamped stack distances via offline dominance counting.

    For non-cold reference ``i`` with previous-occurrence slot
    ``V_i = P_i + 1`` (segment-local), every window member contributes
    one position ``j < i`` in the segment with ``V_j < V_i`` (cold
    members via a cheap prefix count, warm members via
    :func:`count_left_less` on the all-distinct warm slots), so
    ``dist_i = c_i + cold_before_i - V_i``.  Cold references are
    excluded from the radix pass — their tied slots would keep groups
    from ever resolving.
    """
    m = len(part)
    seg_lens = np.asarray(seg_lens)
    seg_starts = np.cumsum(seg_lens) - seg_lens
    link_from, link_to = occurrence_links(part)
    seg_start_per = np.repeat(seg_starts, seg_lens)
    P = np.full(m, -1, np.int64)
    P[link_to] = link_from
    cold = P < 0
    noncold = ~cold
    V = np.where(cold, 0, P + 1 - seg_start_per)

    czc = np.cumsum(cold, dtype=np.int64)
    cold_before = (czc - cold) - (czc - cold)[seg_start_per]

    nc_idx = np.flatnonzero(noncold)
    c = np.zeros(m, np.int64)
    if len(nc_idx):
        czcomp = np.cumsum(noncold, dtype=np.int64)
        nc_excl = czcomp - noncold
        g0c = nc_excl[seg_start_per][nc_idx]
        seg_end_per = seg_start_per + np.repeat(seg_lens, seg_lens)
        gnextc = np.concatenate((nc_excl, [len(nc_idx)]))[seg_end_per][nc_idx]
        c[nc_idx] = count_left_less(V[nc_idx], g0c, gnextc)

    dist = c + cold_before - V
    dist[cold] = max_assoc
    np.minimum(dist, max_assoc, out=dist)
    return dist


def stack_distances(
    part: np.ndarray,
    seg_lens: np.ndarray,
    max_assoc: int,
    *,
    vmax: int | None = None,
    links: tuple[np.ndarray, np.ndarray] | None = None,
    base_window: int = SCAN_BASE_WINDOW,
    max_window: int = SCAN_MAX_WINDOW,
    expand_budget: int | None = None,
) -> tuple[np.ndarray, dict[str, Any]]:
    """Clamped LRU stack distance of every reference of a partitioned stream.

    ``part`` must be segment-contiguous with within-set time order (see
    :func:`partition_by_set`); ``seg_lens`` is only consulted by the
    dominance fallback.  Returns ``(dist, info)`` where ``dist[i]`` in
    ``[0, max_assoc]`` (``max_assoc`` = deeper-or-absent) and ``info``
    carries kernel telemetry (``path``, ``window``, ``residues``,
    ``expanded_cells``) plus ``recurs_idx``, the positions whose line
    recurs later in the stream — callers use it to rebuild final LRU
    stack contents without replaying the stream.

    ``links``, when given, is the precomputed ``(link_from, link_to)``
    pair of consecutive same-line occurrence positions *in part
    coordinates* and skips the value sort here.  Occurrence order of a
    line is the same in every set partition of one stream (equal lines
    share a set, and partitioning keeps within-set order), so one value
    sort of the raw stream serves every stack family — see
    :meth:`repro.cache.cheetah.CheetahSimulator.consume`.
    """
    m = len(part)
    A = int(max_assoc)
    info: dict[str, Any] = {
        "path": "scan",
        "refs": m,
        "window": 0,
        "residues": 0,
        "expanded_cells": 0,
        "recurs_idx": np.empty(0, dtype=np.intp),
    }
    if m == 0:
        return np.zeros(0, np.int32), info
    if expand_budget is None:
        expand_budget = max(EXPAND_BUDGET_FACTOR * m, 1 << 16)

    link_from, link_to = (
        links if links is not None else occurrence_links(part, vmax)
    )
    info["recurs_idx"] = link_from

    P = np.full(m, -1, np.int32)
    P[link_to] = link_from
    gd = link_to - link_from                   # gap to next occurrence, >= 1
    gapF = np.full(m, m + 1, np.int32)         # m + 1 == "no next"
    gapF[link_from] = gd
    gap8 = np.full(m, 255, np.uint8)
    gap8[link_from] = np.minimum(gd, 255)

    ar = np.arange(m, dtype=np.int32)
    g = ar - P                                 # i - P_i  (cold: i + 1)
    g8 = np.minimum(g, 255).astype(np.uint8)
    cold = P < 0

    # Tier 1: adaptive tail scan.  dist_i = sum over o of
    # [gap[i-o] >= o and o <= wl_i]; uint8-clipped operands keep every
    # compare exact for o <= 254 while quartering memory traffic.
    w_lim = max(1, min(max_window, 254, m - 1))
    w_cur = min(max(base_window, 1), w_lim)
    unresolved_target = max(256, m >> 8)
    TD = np.zeros(m, np.uint8)
    buf_a = np.empty(m, bool)
    buf_b = np.empty(m, bool)
    o = 1
    while True:
        for o in range(o, w_cur + 1):
            n = m - o
            a = buf_a[:n]
            b = buf_b[:n]
            np.greater_equal(gap8[:n], o, out=a)
            np.greater(g8[o:], o, out=b)       # o <= wl  <=>  o < i - P_i
            np.logical_and(a, b, out=a)
            TD[o:] += a
        o = w_cur + 1
        if w_cur >= w_lim:
            break
        n_unres = int(((g8 > w_cur + 1) & (TD < A) & ~cold).sum())
        if n_unres <= unresolved_target:
            break
        w_cur = min(2 * w_cur, w_lim)
    info["window"] = w_cur

    dist = np.minimum(TD, A).astype(np.int32)
    dist[cold] = A

    # Tier 2: geometric window expansion of the residue.  TD undercounts
    # only when the window outruns the scan, so everything with
    # wl <= w_cur (i.e. g <= w_cur + 1) is already exact.
    resid = (g > w_cur + 1) & (TD < A) & ~cold
    unresolved = np.flatnonzero(resid).astype(np.intp)
    info["residues"] = int(unresolved.size)
    if unresolved.size:
        wls = (g[unresolved] - 1).astype(np.int32)
        cap = 8 * w_cur
        spent = 0
        while unresolved.size:
            k = np.minimum(wls, cap)
            total = int(k.sum())
            if spent + total > expand_budget:
                # Tier 3: exact dominance count for the whole family.
                info["path"] = "dominance"
                info["expanded_cells"] = spent
                return (
                    distances_dominance(part, seg_lens, A).astype(np.int32),
                    info,
                )
            cw = np.cumsum(k)
            sx = (cw - k).astype(np.intp)
            offs = np.arange(total, dtype=np.int32) - np.repeat(sx, k) + 1
            jpos = np.repeat(unresolved, k) - offs
            cnt = np.add.reduceat(gapF[jpos] >= offs, sx, dtype=np.int32)
            done = (cnt >= A) | (wls <= cap)
            sel = unresolved[done]
            dist[sel] = np.minimum(cnt[done], A)
            keep = ~done
            unresolved = unresolved[keep]
            wls = wls[keep]
            spent += total
            cap *= 8
        info["path"] = "scan+expand"
        info["expanded_cells"] = spent
    return dist, info
