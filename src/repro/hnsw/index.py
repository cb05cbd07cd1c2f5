"""The HNSW index: construction and search, on flat array storage.

Follows Malkov & Yashunin's Algorithms 1 (INSERT), 2 (SEARCH-LAYER),
4 (SELECT-NEIGHBORS-HEURISTIC) and 5 (K-NN-SEARCH).  Distance evaluations
are counted in ``self.n_dist_evals`` (monotone counter) so callers — the
simulated workers — can charge exact virtual time for the work an operation
performed:

    before = index.n_dist_evals
    dists, ids = index.knn_search(q, k)
    evals = index.n_dist_evals - before

Storage layout (the perf-critical part; see docs/performance.md):

- points are one float32 matrix ``_X`` of shape (capacity, dim);
- adjacency is CSR-with-fixed-stride: per level, an int32 matrix
  ``_nbrs[lv]`` of shape (capacity, limit+1) plus an int32 count vector
  ``_cnts[lv]``, where ``limit`` is M0 on layer 0 and M above.  A node's
  neighbor list is the slice ``_nbrs[lv][node, :_cnts[lv][node]]`` — no
  dict lookups, no list objects, and the +1 slot holds the transient
  over-full list between a link append and the ``_shrink`` that follows;
- the visited set of SEARCH-LAYER is an epoch-stamped int64 array
  ``_visit_stamp``: a node is visited iff its stamp equals the current
  search's epoch, so "clearing" the set is one integer increment instead
  of allocating a fresh ``set`` per search (int64 so the stamp can never
  wrap back onto a live epoch);
- membership of a node in layer ``lv`` is simply ``_node_level[node] >= lv``.

The traversal loops run on plain :mod:`heapq` lists of ``(dist, id)``
tuples — the same tuple ordering as :class:`~repro.utils.heaps.MinHeap` /
``MaxHeap``, so pop order and tie-breaking are unchanged — and convert each
kernel result once with ``.tolist()`` instead of calling ``float()``/
``int()`` per element.  The dict-based pre-refactor implementation survives
as :class:`~repro.hnsw.reference.ReferenceHnswIndex`, and the equivalence
tests pin this backend to it bit for bit (same distances, same ids, same
``n_dist_evals``).
"""

from __future__ import annotations

from bisect import bisect_left
from heapq import heapify, heappop, heappush, heapreplace
from typing import Sequence

import numpy as np

from repro.hnsw.kernels import (
    ROW_EXACT_METRICS,
    buffered_kernel_for,
    fast_kernel_for,
    fast_self_pairwise_for,
)
from repro.hnsw.native import NATIVE_METRICS, native_for
from repro.hnsw.params import HnswParams
from repro.hnsw.select import select_heuristic, select_heuristic_rows, select_simple
from repro.metrics import Metric, get_metric
from repro.protocols import check_filter_mask
from repro.utils.validation import check_matrix, check_positive_int, check_vector

__all__ = ["HnswIndex"]

#: number of int64 fields in the saved ``meta`` array (full param set);
#: legacy files carry only the first 6 (see ``load``)
_META_LEN = 10


class HnswIndex:
    """Hierarchical navigable small-world graph over a point matrix.

    Parameters
    ----------
    dim:
        Vector dimensionality.
    params:
        :class:`HnswParams` (M, ef_construction, ...).
    metric:
        Metric name or instance; any dissimilarity works (HNSW does not
        need the triangle inequality).
    capacity:
        Initial number of point slots; the buffers double on demand, so
        passing the final size up front avoids regrow copies during a
        bulk build.
    """

    def __init__(
        self,
        dim: int,
        params: HnswParams | None = None,
        metric: str | Metric = "l2",
        capacity: int = 1024,
    ) -> None:
        check_positive_int(dim, "dim")
        self.dim = dim
        self.params = params or HnswParams()
        self.metric = get_metric(metric)
        cap = max(capacity, 16)
        self._X = np.empty((cap, dim), dtype=np.float32)
        self._ext = np.empty(cap, dtype=np.int64)
        self._node_level = np.empty(cap, dtype=np.int32)
        self._visit_stamp = np.zeros(cap, dtype=np.int64)
        self._visit_epoch = 0
        self._n = 0
        #: per-level adjacency: _nbrs[lv] is (capacity, limit+1) int32,
        #: _cnts[lv] is (capacity,) int32; see the module docstring
        self._nbrs: list[np.ndarray] = []
        self._cnts: list[np.ndarray] = []
        self._entry: int | None = None
        self._rng = np.random.default_rng(np.random.SeedSequence([self.params.seed, 0x45F]))
        #: monotone distance-evaluation counter
        self.n_dist_evals = 0
        #: monotone link-shrink counter (one per over-full list re-selection)
        self.n_shrink_ops = 0
        # Fast float32 kernels for the metrics whose formula we can inline;
        # avoids the generic path's float64 conversion copy on every call,
        # which dominates build time (profiling-driven, per the HPC guides).
        self._fast_kernel = fast_kernel_for(self.metric.name)
        self._fast_self_pairwise = fast_self_pairwise_for(self.metric.name)
        self._row_exact = self.metric.name in ROW_EXACT_METRICS
        # allocation-free traversal kernel; degree cap bounds the row count
        self._buf_kernel = buffered_kernel_for(
            self.metric.name, dim, self.params.M0 + 1
        )
        # Compiled K-NN-SEARCH and INSERT (see _hotpath.c): enabled only
        # after a runtime self-check proves the C kernel bit-identical to
        # the numpy reference; otherwise None, and ``native_reason`` says
        # why every operation stays on the python paths below.
        self._native, self.native_reason = native_for(self.metric.name)
        self._native_sqrt = NATIVE_METRICS.get(self.metric.name, 0)
        self._native_scratch: tuple | None = None
        self._level_ptrs_cache: tuple | None = None
        # candidate extension walks python-side sets: build stays python
        self._native_build = None if self.params.extend_candidates else self._native
        self._native_build_scratch: dict | None = None
        # Incremental shrink cache (see _shrink): per level, node ->
        # (ids, dists, kept_flags, kept_rows, kept_positions) describing the
        # last selection over that node's neighbor list.  Valid only when
        # selection depends on nothing but the candidate list itself and the
        # metric admits bit-identical single-row pairwise extension.
        self._shrink_caching = (
            self.params.select_heuristic
            and not self.params.extend_candidates
            and self._row_exact
        )
        self._shrink_cache: list[dict[int, tuple]] = []
        self._shrink_cache_cap: list[int] = []

    # -- basic introspection ------------------------------------------------

    def __len__(self) -> int:
        return self._n

    @property
    def max_level(self) -> int:
        """Top layer index (-1 when empty)."""
        return len(self._nbrs) - 1

    @property
    def entry_point(self) -> int | None:
        return self._entry

    @property
    def native_search_active(self) -> bool:
        """True when the compiled SEARCH-LAYER passed its bit-identity gate."""
        return self._native is not None

    @property
    def native_build_active(self) -> bool:
        """True when the compiled INSERT path passed its bit-identity gate."""
        return self._native_build is not None

    @property
    def native_build_reason(self) -> str:
        """Why the INSERT path is (``"ok"``) or is not compiled."""
        if self.native_reason == "ok" and self.params.extend_candidates:
            return "extend_candidates"
        return self.native_reason

    def neighbors(self, node: int, level: int) -> list[int]:
        """Adjacency list of ``node`` at ``level`` (internal ids)."""
        if int(self._node_level[node]) < level:
            return []
        cnt = int(self._cnts[level][node])
        return self._nbrs[level][node, :cnt].tolist()

    def nodes_at_level(self, level: int) -> np.ndarray:
        """Internal ids of the nodes present on ``level`` (ascending)."""
        return np.flatnonzero(self._node_level[: self._n] >= level)

    def node_level(self, node: int) -> int:
        """Top layer ``node`` appears on."""
        return int(self._node_level[node])

    def external_id(self, node: int) -> int:
        return int(self._ext[node])

    def vector(self, node: int) -> np.ndarray:
        return self._X[node]

    @property
    def points(self) -> np.ndarray:
        """View of the stored points (n, dim)."""
        return self._X[: self._n]

    # -- distance helpers ------------------------------------------------------

    def _dist_one(self, q: np.ndarray, node: int) -> float:
        self.n_dist_evals += 1
        if self._fast_kernel is not None:
            return float(self._fast_kernel(q, self._X[node : node + 1])[0])
        return float(self.metric.one_to_many(q, self._X[node : node + 1])[0])

    def _dist_many(self, q: np.ndarray, nodes: np.ndarray) -> np.ndarray:
        self.n_dist_evals += len(nodes)
        if self._fast_kernel is not None:
            return self._fast_kernel(q, self._X[nodes])
        return self.metric.one_to_many(q, self._X[nodes])

    # -- construction ------------------------------------------------------------

    def _grow(self, need: int) -> None:
        cap = self._X.shape[0]
        if need <= cap:
            return
        cap = max(need, cap * 2)
        n = self._n
        for name in ("_X", "_ext", "_node_level"):
            old = getattr(self, name)
            new = np.empty((cap,) + old.shape[1:], dtype=old.dtype)
            new[:n] = old[:n]
            setattr(self, name, new)
        # stamps start at 0; epochs start at 1, so new slots read unvisited
        stamp = np.zeros(cap, dtype=np.int64)
        stamp[:n] = self._visit_stamp[:n]
        self._visit_stamp = stamp
        for lv in range(len(self._nbrs)):
            nbrs = np.empty((cap, self._nbrs[lv].shape[1]), dtype=np.int32)
            nbrs[:n] = self._nbrs[lv][:n]
            cnts = np.zeros(cap, dtype=np.int32)
            cnts[:n] = self._cnts[lv][:n]
            self._nbrs[lv], self._cnts[lv] = nbrs, cnts
        self._level_ptrs_cache = None

    def _ensure_level(self, level: int) -> None:
        cap = self._X.shape[0]
        while len(self._nbrs) <= level:
            limit = self.params.M0 if len(self._nbrs) == 0 else self.params.M
            self._nbrs.append(np.empty((cap, limit + 1), dtype=np.int32))
            self._cnts.append(np.zeros(cap, dtype=np.int32))
            self._level_ptrs_cache = None
            self._shrink_cache.append({})
            # bound each level's cache memory (entries are O(limit^2) floats)
            self._shrink_cache_cap.append(max(1024, (1 << 28) // (8 * (limit + 1) ** 2)))

    def _sample_level(self) -> int:
        if self.params.flat:
            return 0  # plain NSW: everything lives on one layer
        u = self._rng.random()
        # skiplist-style exponential promotion, mL = 1/ln(M)
        return int(-np.log(max(u, 1e-300)) * self.params.level_mult)

    def add(self, vector: np.ndarray, ext_id: int | None = None) -> int:
        """Insert one point; returns its internal id."""
        q = check_vector(vector, "vector", dim=self.dim)
        if self._native_build is not None:
            node = self._n
            self._grow(node + 1)
            self._add_items_native(q[np.newaxis, :], None if ext_id is None else [ext_id])
            return node
        return self._add_prepared(q, ext_id)

    def _add_prepared(self, q: np.ndarray, ext_id: int | None) -> int:
        """INSERT (paper Alg. 1) for an already-validated float32 vector."""
        self._grow(self._n + 1)
        node = self._n
        self._X[node] = q
        self._n += 1
        self._ext[node] = int(ext_id) if ext_id is not None else node

        level = self._sample_level()
        self._node_level[node] = level
        self._ensure_level(level)

        if self._entry is None:
            self._entry = node
            return node

        ep = self._entry
        top = int(self._node_level[ep])
        qf = self._X[node]

        # phase 1: greedy descent through layers above the insert level
        ep_dist = self._dist_one(qf, ep)
        for lv in range(top, level, -1):
            ep, ep_dist = self._greedy_step(qf, ep, ep_dist, lv)

        # phase 2: beam search + connect on layers min(top, level)..0
        efc = self.params.ef_construction
        for lv in range(min(top, level), -1, -1):
            w = self._search_layer(qf, [(ep_dist, ep)], efc, lv)
            limit = self.params.M0 if lv == 0 else self.params.M
            chosen = self._select(qf, w, limit, lv)
            nbrs, cnts = self._nbrs[lv], self._cnts[lv]
            if chosen:
                nbrs[node, : len(chosen)] = [c for _, c in chosen]
            cnts[node] = len(chosen)
            for dist_qc, c in chosen:
                cc = int(cnts[c])
                nbrs[c, cc] = node
                cc += 1
                cnts[c] = cc
                if cc > limit:
                    self._shrink(c, lv, limit, dist_qc)
            best = min(chosen) if chosen else (ep_dist, ep)
            ep_dist, ep = best

        if level > top:
            self._entry = node
        return node

    def add_items(self, X: np.ndarray, ids: Sequence[int] | None = None) -> None:
        """Bulk insert (row order preserved).

        ``check_matrix`` validates the whole matrix once; the per-row
        ``check_vector`` of :meth:`add` (dtype check + contiguity copy per
        row) is skipped entirely.
        """
        X = check_matrix(X, "X")
        if X.shape[1] != self.dim:
            raise ValueError(f"expected dim {self.dim}, got {X.shape[1]}")
        if ids is not None and len(ids) != X.shape[0]:
            raise ValueError(f"{len(ids)} ids for {X.shape[0]} points")
        self._grow(self._n + X.shape[0])
        if self._native_build is not None:
            self._add_items_native(X, ids)
            return
        for i in range(X.shape[0]):
            self._add_prepared(X[i], None if ids is None else ids[i])

    def _add_items_native(self, X: np.ndarray, ids: Sequence[int] | None) -> None:
        """Bulk INSERT via the compiled batch helper (bit-identical by contract).

        The python side stays the single source of truth: it stores the
        points, samples every level (one RNG draw per point, in insert
        order — exactly the draws the sequential path would make), sizes
        the per-level adjacency, and hands the C helper raw buffer
        addresses; the helper returns the updated entry point, visit
        epoch, and the logical eval/shrink counts.
        """
        n0 = self._n
        n_new = X.shape[0]
        if n_new == 0:
            return
        self._X[n0 : n0 + n_new] = X
        if ids is None:
            self._ext[n0 : n0 + n_new] = np.arange(n0, n0 + n_new)
        else:
            self._ext[n0 : n0 + n_new] = [int(i) for i in ids]
        levels = np.array([self._sample_level() for _ in range(n_new)], dtype=np.int32)
        self._node_level[n0 : n0 + n_new] = levels
        self._n = n0 + n_new
        self._ensure_level(int(levels.max()))

        nbrs_ptrs, strides, cnts_ptrs = self._level_ptrs()
        sc = self._build_scratch(self._n)
        epoch_io = np.array([self._visit_epoch], dtype=np.int64)
        entry_io = np.array([-1 if self._entry is None else self._entry], dtype=np.int64)
        evals_out = np.zeros(1, dtype=np.int64)
        shrinks_out = np.zeros(1, dtype=np.int64)
        self._native_build.hnsw_insert_batch(
            self._X.ctypes.data,
            self.dim,
            self._node_level.ctypes.data,
            n0,
            n_new,
            levels.ctypes.data,
            nbrs_ptrs.ctypes.data,
            strides.ctypes.data,
            cnts_ptrs.ctypes.data,
            self.params.M,
            self.params.M0,
            self.params.ef_construction,
            1 if self.params.select_heuristic else 0,
            1 if self.params.keep_pruned else 0,
            self._native_sqrt,
            self._visit_stamp.ctypes.data,
            epoch_io.ctypes.data,
            entry_io.ctypes.data,
            sc["cd"].ctypes.data,
            sc["ci"].ctypes.data,
            sc["rd"].ctypes.data,
            sc["ri"].ctypes.data,
            sc["rows"].ctypes.data,
            sc["maxn"],
            sc["flags"].ctypes.data,
            sc["tmp_d"].ctypes.data,
            sc["tmp_i"].ctypes.data,
            sc["ch_d"].ctypes.data,
            sc["ch_i"].ctypes.data,
            sc["sh_d"].ctypes.data,
            sc["sh_i"].ctypes.data,
            evals_out.ctypes.data,
            shrinks_out.ctypes.data,
        )
        self._visit_epoch = int(epoch_io[0])
        self._entry = int(entry_io[0])
        self.n_dist_evals += int(evals_out[0])
        self.n_shrink_ops += int(shrinks_out[0])

    def _level_ptrs(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-level adjacency addresses, row strides and count addresses
        for the C helpers; cached until ``_grow``/``_ensure_level``
        reallocate the buffers."""
        if self._level_ptrs_cache is None:
            self._level_ptrs_cache = (
                np.array([a.ctypes.data for a in self._nbrs], dtype=np.int64),
                np.array([a.shape[1] for a in self._nbrs], dtype=np.int64),
                np.array([a.ctypes.data for a in self._cnts], dtype=np.int64),
            )
        return self._level_ptrs_cache

    def _build_scratch(self, need_n: int) -> dict:
        """Reusable scratch for the compiled INSERT batch.

        The search heaps must fit every possible push (every point plus
        the entry pair); selection scratch is bounded by the beam width
        and the largest over-full list (``max(M, M0) + 1``).
        """
        deg = max(self.params.M, self.params.M0)
        maxn = max(self.params.ef_construction, deg + 2)
        need = need_n + 16
        sc = self._native_build_scratch
        if sc is None or len(sc["cd"]) < need:
            sc = {
                "cd": np.empty(need, dtype=np.float64),
                "ci": np.empty(need, dtype=np.int32),
                "rd": np.empty(need, dtype=np.float64),
                "ri": np.empty(need, dtype=np.int32),
                "rows": np.empty((deg + 1) * maxn, dtype=np.float64),
                "flags": np.empty(maxn, dtype=np.uint8),
                "tmp_d": np.empty(maxn, dtype=np.float64),
                "tmp_i": np.empty(maxn, dtype=np.int32),
                "ch_d": np.empty(deg + 1, dtype=np.float64),
                "ch_i": np.empty(deg + 1, dtype=np.int32),
                "sh_d": np.empty(deg + 1, dtype=np.float64),
                "sh_i": np.empty(deg + 1, dtype=np.int32),
                "maxn": maxn,
            }
            self._native_build_scratch = sc
        return sc

    def _shrink(self, node: int, level: int, limit: int, d_nx: float | None = None) -> None:
        """Re-select ``node``'s neighbor list down to ``limit`` links.

        ``d_nx`` is the already-computed distance between ``node`` and the
        link just appended (the inserting point), when the caller has it;
        for the kernels the cache supports it is bit-identical to
        recomputing (the canonical l2 reduction is symmetric in its
        arguments and row-independent).

        A shrink fires on every link append past ``limit`` — ~M0 times per
        insert once the graph saturates — and each one re-runs selection
        over ``limit + 1`` candidates of which ``limit`` were already
        selected last time.  When selection depends only on the candidate
        list (heuristic on, no candidate extension) and the metric admits
        bit-identical single-pair recomputation (the canonical
        l2/sqeuclidean kernel), the previous round's decisions are provably
        reusable: dropping non-kept candidates removes no comparison
        source, so every keep/discard decision before the new link's
        sorted position — and, if the new link is discarded or dominates
        no kept neighbor, after it too — is unchanged.  The cached path
        (:meth:`_shrink_fast`) therefore tests only the new link and
        re-derives the result from the stored flags, falling back to a
        full re-selection on any cascade.

        ``n_dist_evals`` is a *logical* counter: both paths charge exactly
        what the reference implementation computes (``cnt`` query distances
        plus the ``cnt``-candidate cross matrix), so virtual-time
        accounting is bit-identical regardless of which physical path ran.
        """
        cnt = int(self._cnts[level][node])
        row = self._nbrs[level][node]
        self.n_shrink_ops += 1
        if self._shrink_caching:
            self.n_dist_evals += cnt + cnt * (cnt - 1) // 2
            cache = self._shrink_cache[level]
            entry = cache.get(node)
            if (
                entry is not None
                and d_nx is not None
                and len(entry[1]) + 1 == cnt
                and self._shrink_fast(node, level, limit, row, entry, cache, d_nx)
            ):
                return
            self._shrink_full(node, level, limit, row, cnt, cache)
            return
        nbrs = row[:cnt]
        self.n_dist_evals += cnt
        if self._fast_kernel is not None:
            dists = self._fast_kernel(self._X[node], self._X[nbrs])
        else:
            dists = self.metric.one_to_many(self._X[node], self._X[nbrs])
        cands = list(zip(dists.tolist(), nbrs.tolist()))
        chosen = self._select(self._X[node], cands, limit, level, exclude=node)
        for j, (_, c) in enumerate(chosen):
            row[j] = c
        self._cnts[level][node] = len(chosen)

    def _shrink_full(
        self,
        node: int,
        level: int,
        limit: int,
        row: np.ndarray,
        cnt: int,
        cache: dict[int, tuple],
    ) -> None:
        """Full re-selection over ``node``'s list, recording a cache entry.

        Decision-identical to ``select_heuristic`` over the sorted
        candidates with the full pairwise matrix (the reference path); on
        top of the result it records each surviving candidate's
        keep/discard flag, which is the whole state :meth:`_shrink_fast`
        needs — cached pairwise rows are never re-read, because the only
        fresh comparisons a one-link update needs involve the new link
        itself and are recomputed exactly.
        """
        X = self._X
        nbrs_ids = row[:cnt]
        d32 = self._fast_kernel(X[node], X[nbrs_ids])
        # sorting (dist, id) tuples == lexsort with dist primary, id tie-break
        cands = sorted(zip(d32.tolist(), nbrs_ids.tolist()))
        dlist = [t[0] for t in cands]
        ilist_s = [t[1] for t in cands]
        ids_s = np.array(ilist_s, dtype=np.int32)
        cross = self._fast_self_pairwise(X[ids_s])
        flags_all = [False] * cnt
        # dom_all[i]: id of the first kept candidate dominating a discarded
        # candidate i (None for kept ones) — lets _shrink_fast tell which
        # discards might flip when that dominator is itself discarded
        dom_all: list[int | None] = [None] * cnt
        kept_positions: list[int] = []
        kept_rows: list[tuple[list[float], int]] = []
        discarded_positions: list[int] = []
        kcount = 0
        for i in range(cnt):
            if kcount >= limit:
                break
            di = dlist[i]
            hit = None
            for r, rid in kept_rows:
                if r[i] <= di:
                    hit = rid
                    break
            if hit is None:
                flags_all[i] = True
                kept_positions.append(i)
                kept_rows.append((cross[i].tolist(), ilist_s[i]))
                kcount += 1
            else:
                dom_all[i] = hit
                discarded_positions.append(i)
        if self.params.keep_pruned and kcount < limit and discarded_positions:
            result_pos = sorted(
                kept_positions + discarded_positions[: limit - kcount]
            )
        else:
            result_pos = kept_positions
        ids_n = ids_s[result_pos]
        m_out = len(ids_n)
        row[:m_out] = ids_n
        self._cnts[level][node] = m_out
        if len(cache) >= self._shrink_cache_cap[level]:
            cache.pop(next(iter(cache)))
        cache[node] = (
            ids_n,
            [(dlist[i], ilist_s[i]) for i in result_pos],
            [flags_all[i] for i in result_pos],
            [dom_all[i] for i in result_pos],
            kcount,
        )

    def _shrink_fast(
        self,
        node: int,
        level: int,
        limit: int,
        row: np.ndarray,
        entry: tuple,
        cache: dict[int, tuple],
        d_x: float,
    ) -> bool:
        """Incremental shrink: fold one appended link into the cached state.

        When the new link is kept and dominates previously-kept neighbors,
        those victims flip to discarded (with the new link recorded as
        their dominator) — sound as long as no *discarded* candidate
        depended on a victim as its first dominator, because a discard is
        justified by any still-kept dominator and pair distances never
        change.  Only when such a dependent discard exists can decisions
        genuinely cascade; then the entry is invalidated and the caller
        re-runs the full path (returns False).

        The result of the previous selection always has exactly ``limit``
        entries here (``keep_pruned`` backfills to the cap), so folding in
        one link means dropping exactly one position: the positionally
        last kept one when the kept count overflows ``limit`` (selection
        breaks at the cap), else the last non-kept one (backfill quota
        shrinks by one).
        """
        ids, pairs, flags, dom, kcount = entry
        k = len(pairs)
        x = int(row[k])
        X = self._X
        p = bisect_left(pairs, (d_x, x))
        # distances x -> cached candidates; bit-identical to the rows/cols
        # the full pairwise matrix would hold for these pairs
        cv = self._fast_kernel(X[x], X[ids]).tolist()
        x_kept = True
        x_dom = None
        for pos in range(p):
            if flags[pos] and cv[pos] <= d_x:
                x_kept = False
                x_dom = pairs[pos][1]
                break
        if x_kept:
            victims = [
                pos for pos in range(p, k) if flags[pos] and cv[pos] <= pairs[pos][0]
            ]
            if victims:
                vids = {pairs[pos][1] for pos in victims}
                for pos in range(victims[0] + 1, k):
                    if not flags[pos] and dom[pos] in vids:
                        # a discard justified only by a victim may flip:
                        # genuine cascade — recompute from scratch
                        del cache[node]
                        return False
                for pos in victims:
                    flags[pos] = False
                    dom[pos] = x
                kcount -= len(victims)
            kcount += 1
        pairs.insert(p, (d_x, x))
        flags.insert(p, x_kept)
        dom.insert(p, x_dom)
        if not self.params.keep_pruned:
            ids2 = np.empty(k + 1, dtype=np.int32)
            ids2[:p] = ids[:p]
            ids2[p] = x
            ids2[p + 1 :] = ids[p:]
            keep_idx = [i for i, f in enumerate(flags) if f][:limit]
            ids_n = ids2[keep_idx]
            m_out = len(ids_n)
            row[:m_out] = ids_n
            self._cnts[level][node] = m_out
            cache[node] = (
                ids_n,
                [pairs[i] for i in keep_idx],
                [True] * m_out,
                [None] * m_out,
                m_out,
            )
            return True
        if kcount > limit:
            q = k  # kept count overflows: all k+1 are kept, drop the last
            kcount -= 1
        else:
            q = k
            while flags[q]:
                q -= 1
        del pairs[q]
        del flags[q]
        del dom[q]
        if q == p:
            # the dropped position is the new link itself: the stored ids
            # (and the row prefix, which still holds them) are unchanged
            self._cnts[level][node] = k
            cache[node] = (ids, pairs, flags, dom, kcount)
            return True
        # ids with x spliced in at p and position q removed, in one copy
        ids3 = np.empty(k, dtype=np.int32)
        if q > p:
            ids3[:p] = ids[:p]
            ids3[p] = x
            ids3[p + 1 : q] = ids[p : q - 1]
            ids3[q:] = ids[q:]
        else:
            ids3[:q] = ids[:q]
            ids3[q : p - 1] = ids[q + 1 : p]
            ids3[p - 1] = x
            ids3[p:] = ids[p:]
        row[:k] = ids3
        self._cnts[level][node] = k
        cache[node] = (ids3, pairs, flags, dom, kcount)
        return True

    def _select(
        self,
        q: np.ndarray,
        candidates: list[tuple[float, int]],
        m: int,
        level: int,
        exclude: int | None = None,
    ) -> list[tuple[float, int]]:
        """SELECT-NEIGHBORS for ``q`` among ``candidates``.

        ``exclude`` is the node whose list is being re-selected (a shrink):
        candidate extension must not pull it in from its own neighbors'
        lists, or it would be kept at distance 0 and, by the heuristic,
        dominate every other candidate.
        """
        if not self.params.select_heuristic:
            return select_simple(candidates, m)
        cands = sorted(candidates)
        if self.params.extend_candidates:
            seen = {c for _, c in cands}
            seen.add(exclude)
            extras: list[int] = []
            nbrs, cnts = self._nbrs[level], self._cnts[level]
            for _, c in list(cands):
                for nb in nbrs[c, : cnts[c]].tolist():
                    if nb not in seen:
                        seen.add(nb)
                        extras.append(nb)
            if extras:
                arr = np.asarray(extras, dtype=np.int64)
                for d, i in zip(self._dist_many(q, arr).tolist(), extras):
                    cands.append((d, i))
                cands.sort()
        ids = np.array([c for _, c in cands], dtype=np.int64)
        n = len(ids)
        self.n_dist_evals += n * (n - 1) // 2
        sub = self._X[ids]
        if self._row_exact and n >= 64:
            # Large candidate sets (the per-insert ef_construction beam)
            # keep only ~M of n rows: compute just those, lazily.  The row
            # kernel is bit-identical to the matrix row, and virtual time
            # was already charged for the full n^2/2 above.
            kernel = self._fast_kernel
            return select_heuristic_rows(
                cands,
                m,
                lambda i: kernel(sub[i], sub).tolist(),
                keep_pruned=self.params.keep_pruned,
            )
        if self._fast_self_pairwise is not None:
            cross = self._fast_self_pairwise(sub)
        else:
            cross = self.metric.pairwise(sub, sub)
        return select_heuristic(cands, m, cross, keep_pruned=self.params.keep_pruned)

    # -- search ------------------------------------------------------------------

    def _greedy_step(
        self, q: np.ndarray, ep: int, ep_dist: float, level: int
    ) -> tuple[int, float]:
        """Greedy search with beam 1 on one layer (upper-layer descent)."""
        nbrs, cnts = self._nbrs[level], self._cnts[level]
        X = self._X
        buf = self._buf_kernel
        kernel = self._fast_kernel
        one_to_many = self.metric.one_to_many
        n_evals = 0
        while True:
            cnt = cnts[ep]
            if not cnt:
                break
            nb = nbrs[ep, :cnt]
            if buf is not None:
                d = buf(X, nb, q)
            elif kernel is not None:
                d = kernel(q, X[nb])
            else:
                d = one_to_many(q, X[nb])
            n_evals += int(cnt)
            j = int(np.argmin(d))
            if d[j] < ep_dist:
                ep, ep_dist = int(nb[j]), float(d[j])
            else:
                break
        self.n_dist_evals += n_evals
        return ep, ep_dist

    def _search_layer(
        self,
        q: np.ndarray,
        entry: list[tuple[float, int]],
        ef: int,
        level: int,
    ) -> list[tuple[float, int]]:
        """SEARCH-LAYER (HNSW paper Alg. 2): beam search of width ``ef``.

        Returns the result set as (distance, id) pairs sorted closest
        first.  The candidate frontier and the bounded result set are raw
        ``heapq`` lists with the exact tuple ordering of the pre-refactor
        ``MinHeap``/``MaxHeap``; the visited set is the epoch-stamped array.
        """
        nbrs, cnts = self._nbrs[level], self._cnts[level]
        X = self._X
        stamp = self._visit_stamp
        self._visit_epoch += 1
        epoch = self._visit_epoch
        buf = self._buf_kernel
        kernel = self._fast_kernel
        one_to_many = self.metric.one_to_many
        for _, c in entry:
            stamp[c] = epoch
        candidates = list(entry)
        heapify(candidates)
        results = [(-d, n) for d, n in entry]
        heapify(results)
        nres = len(results)
        n_evals = 0
        while candidates:
            c_dist, c = heappop(candidates)
            bound = -results[0][0]
            full = nres >= ef
            if full and c_dist > bound:
                break
            cnt = cnts[c]
            if not cnt:
                continue
            nb = nbrs[c, :cnt]
            fresh = nb[stamp[nb] != epoch]
            if not fresh.size:
                continue
            stamp[fresh] = epoch
            if buf is not None:
                dists = buf(X, fresh, q)
            elif kernel is not None:
                dists = kernel(q, X[fresh])
            else:
                dists = one_to_many(q, X[fresh])
            n_evals += fresh.size
            if full:
                # ``bound`` only tightens while the set stays full, so
                # dropping >= bound up front skips exactly the candidates
                # the per-item check below would reject anyway.
                keep = dists < bound
                dlist = dists[keep].tolist()
                nlist = fresh[keep].tolist()
            else:
                dlist = dists.tolist()
                nlist = fresh.tolist()
            for d, n in zip(dlist, nlist):
                if nres < ef:
                    # push + conditional pop == heapreplace when full: the
                    # pushed item always exceeds the max-heap root here
                    heappush(candidates, (d, n))
                    heappush(results, (-d, n))
                    nres += 1
                    bound = -results[0][0]
                elif d < bound:
                    heappush(candidates, (d, n))
                    heapreplace(results, (-d, n))
                    bound = -results[0][0]
        self.n_dist_evals += n_evals
        return sorted([(-d, n) for d, n in results])

    def knn_search(
        self,
        query: np.ndarray,
        k: int,
        ef: int | None = None,
        *,
        filter: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Approximate k-NN; returns (distances, external ids), closest first.

        ``filter``: optional boolean mask over insertion-order rows (which
        equal internal node ids); only unmasked rows may appear in the
        result, but masked rows still conduct the traversal — see
        :meth:`_search_layer_filtered`.  ``filter=None`` is bit-identical
        to the unfiltered call.
        """
        check_positive_int(k, "k")
        q = check_vector(query, "query", dim=self.dim)
        if self._n == 0:
            return np.empty(0, dtype=np.float64), np.empty(0, dtype=np.int64)
        ef = max(ef or self.params.ef_search, k)
        mask = None if filter is None else check_filter_mask(filter, self._n)
        if self._native is not None:
            D, I, found = self._knn_native(q[np.newaxis, :], k, ef, mask)
            n = int(np.count_nonzero(found))
            return D[0, :n], I[0, :n]
        return self._search_prepared(q, k, ef, mask)

    def _search_prepared(
        self, q: np.ndarray, k: int, ef: int, allowed: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """K-NN-SEARCH (paper Alg. 5) for a validated query and effective ef.

        With a row mask ``allowed`` the upper-layer greedy descent stays
        unfiltered (it only picks the layer-0 entry point, which need not
        match) and the layer-0 beam runs the filtered SEARCH-LAYER variant.
        """
        ep = self._entry
        ep_dist = self._dist_one(q, ep)
        for lv in range(self.max_level, 0, -1):
            ep, ep_dist = self._greedy_step(q, ep, ep_dist, lv)
        if allowed is None:
            pairs = self._search_layer(q, [(ep_dist, ep)], ef, 0)[:k]
        else:
            pairs = self._search_layer_filtered(q, [(ep_dist, ep)], ef, 0, allowed)[:k]
        d = np.array([p[0] for p in pairs], dtype=np.float64)
        ids = np.array([self._ext[p[1]] for p in pairs], dtype=np.int64)
        return d, ids

    def _knn_native(
        self, Q: np.ndarray, k: int, ef: int, allowed: np.ndarray | None
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """K-NN-SEARCH for every row of ``Q`` in one compiled call.

        The same traversal as :meth:`_search_prepared` (entry distance,
        unfiltered greedy descent, optionally masked layer-0 beam), so the
        results and the ``n_dist_evals`` charge are identical.  Returns
        the padded ``(D, I)`` of :meth:`knn_search_batch` plus the mask of
        filled slots.  The scratch heaps fit every possible push (each
        node at most once, plus the entry) and are reused across calls.
        """
        nq = Q.shape[0]
        D = np.full((nq, k), np.inf, dtype=np.float64)
        I = np.full((nq, k), -1, dtype=np.int64)
        if allowed is not None:
            allowed = np.ascontiguousarray(allowed)  # held across the call
        need = self._n + 8
        sc = self._native_scratch
        if sc is None or len(sc[0]) < need:
            sc = tuple(np.empty(need, dtype=t) for t in (np.float64, np.int32) * 2)
            self._native_scratch = sc
        nbrs_ptrs, strides, cnts_ptrs = self._level_ptrs()
        epoch_io = np.array([self._visit_epoch], dtype=np.int64)
        evals_io = np.zeros(1, dtype=np.int64)
        self._native.hnsw_knn_batch(
            self._X.ctypes.data,
            self.dim,
            nbrs_ptrs.ctypes.data,
            strides.ctypes.data,
            cnts_ptrs.ctypes.data,
            self.max_level,
            self._entry,
            Q.ctypes.data,
            nq,
            k,
            ef,
            None if allowed is None else allowed.ctypes.data,
            self._native_sqrt,
            self._visit_stamp.ctypes.data,
            epoch_io.ctypes.data,
            *(a.ctypes.data for a in sc),
            D.ctypes.data,
            I.ctypes.data,
            evals_io.ctypes.data,
        )
        self._visit_epoch = int(epoch_io[0])
        self.n_dist_evals += int(evals_io[0])
        found = I >= 0
        I[found] = self._ext[I[found]]
        return D, I, found

    def _search_layer_filtered(
        self,
        q: np.ndarray,
        entry: list[tuple[float, int]],
        ef: int,
        level: int,
        allowed: np.ndarray,
    ) -> list[tuple[float, int]]:
        """SEARCH-LAYER over a row mask: filtered results, unfiltered frontier.

        Non-matching nodes are evaluated and expanded exactly like the
        plain beam — they enter the candidate frontier and conduct the
        walk — but only ``allowed`` nodes may enter the bounded result
        set.  Pruning non-matching nodes from the frontier instead would
        disconnect the traversal whenever the matching rows don't form a
        connected subgraph; keeping them preserves the full graph's
        connectivity at the cost of extra evaluations (which
        ``n_dist_evals`` charges normally).  Until ``ef`` matching nodes
        are found the result bound is infinite, so no expansion is cut
        short early.  The compiled beam (``search_layer`` in
        ``_hotpath.c``) implements the same rule under its ``allowed`` mask.
        """
        nbrs, cnts = self._nbrs[level], self._cnts[level]
        X = self._X
        stamp = self._visit_stamp
        self._visit_epoch += 1
        epoch = self._visit_epoch
        buf = self._buf_kernel
        kernel = self._fast_kernel
        one_to_many = self.metric.one_to_many
        for _, c in entry:
            stamp[c] = epoch
        candidates = list(entry)
        heapify(candidates)
        results = [(-d, n) for d, n in entry if allowed[n]]
        heapify(results)
        nres = len(results)
        n_evals = 0
        while candidates:
            c_dist, c = heappop(candidates)
            full = nres >= ef
            bound = -results[0][0] if nres else np.inf
            if full and c_dist > bound:
                break
            cnt = cnts[c]
            if not cnt:
                continue
            nb = nbrs[c, :cnt]
            fresh = nb[stamp[nb] != epoch]
            if not fresh.size:
                continue
            stamp[fresh] = epoch
            if buf is not None:
                dists = buf(X, fresh, q)
            elif kernel is not None:
                dists = kernel(q, X[fresh])
            else:
                dists = one_to_many(q, X[fresh])
            n_evals += fresh.size
            for d, n in zip(dists.tolist(), fresh.tolist()):
                if full and d >= bound:
                    continue
                heappush(candidates, (d, n))
                if allowed[n]:
                    if nres < ef:
                        heappush(results, (-d, n))
                        nres += 1
                        full = nres >= ef
                    else:
                        heapreplace(results, (-d, n))
                    bound = -results[0][0]
        self.n_dist_evals += n_evals
        return sorted([(-d, n) for d, n in results])

    def knn_search_batch(
        self,
        Q: np.ndarray,
        k: int,
        ef: int | None = None,
        *,
        filter: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Approximate k-NN for a whole query matrix.

        Returns ``(D, I)`` of shape (n_queries, k): row ``i`` holds the
        results for ``Q[i]`` closest first, padded with ``inf`` / ``-1``
        when fewer than ``k`` points exist — always ``float64`` distances
        and ``int64`` ids (the pinned batch-surface dtype contract).
        Each row's traversal — and therefore its results and its
        ``n_dist_evals`` charge — is identical to a
        ``knn_search(Q[i], k, ef, filter=...)`` call; batching only
        amortizes the per-call validation and Python dispatch, which is
        what the cluster workers exploit (see ``core/worker.py``).
        """
        check_positive_int(k, "k")
        Q = check_matrix(Q, "Q")
        if Q.shape[1] != self.dim:
            raise ValueError(f"expected dim {self.dim}, got {Q.shape[1]}")
        nq = Q.shape[0]
        D = np.full((nq, k), np.inf, dtype=np.float64)
        I = np.full((nq, k), -1, dtype=np.int64)
        if self._n == 0:
            return D, I
        ef_eff = max(ef or self.params.ef_search, k)
        mask = None if filter is None else check_filter_mask(filter, self._n)
        if self._native is not None:
            return self._knn_native(Q, k, ef_eff, mask)[:2]
        for i in range(nq):
            d, ids = self._search_prepared(Q[i], k, ef_eff, mask)
            D[i, : len(d)] = d
            I[i, : len(ids)] = ids
        return D, I

    # -- serialization --------------------------------------------------------------

    def save(self, path: str) -> None:
        """Persist to an ``.npz`` file (points, links, levels, params).

        The ``meta`` record carries the full parameter set — including
        ``M0``, ``extend_candidates``, ``keep_pruned`` and ``flat`` — so a
        reloaded index shrinks and selects exactly like the saved one.
        """
        flat_links: list[np.ndarray] = []
        link_index: list[tuple[int, int, int]] = []  # (level, node, count)
        for lv in range(len(self._nbrs)):
            cnts = self._cnts[lv]
            nbrs = self._nbrs[lv]
            for node in self.nodes_at_level(lv).tolist():
                cnt = int(cnts[node])
                link_index.append((lv, node, cnt))
                flat_links.append(nbrs[node, :cnt].astype(np.int64))
        np.savez_compressed(
            path,
            X=self._X[: self._n],
            ext_ids=self._ext[: self._n],
            node_level=self._node_level[: self._n].astype(np.int64),
            entry=np.asarray([-1 if self._entry is None else self._entry]),
            link_index=np.asarray(link_index, dtype=np.int64).reshape(-1, 3),
            links=np.concatenate(flat_links) if flat_links else np.empty(0, dtype=np.int64),
            meta=np.asarray(
                [
                    self.dim,
                    self.params.M,
                    self.params.ef_construction,
                    self.params.ef_search,
                    int(self.params.select_heuristic),
                    self.params.seed,
                    self.params.M0,
                    int(self.params.extend_candidates),
                    int(self.params.keep_pruned),
                    int(self.params.flat),
                ],
                dtype=np.int64,
            ),
        )

    @classmethod
    def load(cls, path: str, metric: str | Metric = "l2") -> "HnswIndex":
        data = np.load(path)
        meta = data["meta"]
        kwargs = dict(
            M=int(meta[1]),
            ef_construction=int(meta[2]),
            ef_search=int(meta[3]),
            select_heuristic=bool(meta[4]),
            seed=int(meta[5]),
        )
        if len(meta) >= _META_LEN:
            kwargs.update(
                M0=int(meta[6]),
                extend_candidates=bool(meta[7]),
                keep_pruned=bool(meta[8]),
                flat=bool(meta[9]),
            )
        # else: legacy 6-field file — fall back to the params defaults
        params = HnswParams(**kwargs)
        n = len(data["X"])
        idx = cls(dim=int(meta[0]), params=params, metric=metric, capacity=n)
        idx._X[:n] = data["X"]
        idx._n = n
        idx._ext[:n] = data["ext_ids"]
        idx._node_level[:n] = data["node_level"]
        entry = int(data["entry"][0])
        idx._entry = None if entry < 0 else entry
        levels = data["node_level"]
        idx._ensure_level(int(levels.max()) if len(levels) else -1)
        pos = 0
        links = data["links"]
        for lv, node, count in data["link_index"].tolist():
            idx._nbrs[lv][node, :count] = links[pos : pos + count]
            idx._cnts[lv][node] = count
            pos += count
        return idx
