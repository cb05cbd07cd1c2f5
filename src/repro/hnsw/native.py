"""ctypes loader for the compiled HNSW hot paths (``_hotpath.c``).

Two helpers live in the shared object: the batched K-NN-SEARCH (greedy
descent plus the layer-0 beam, optionally under a row mask) and the
batched INSERT (greedy descent, beam search, neighbor selection, link
shrinking).  Both are *optional* accelerators with a strict bit-identity
contract.  Every l2 distance they compute goes through the C twin of the
repo's canonical float32 reduction (:func:`repro.hnsw.kernels.l2sq_lanes`),
which is the same kernel the python paths call, so one self-check covers
everything: at load, the C kernel must match the numpy reference bit for
bit on seeded random rows at several dimensions, with and without the
sqrt.

:func:`native_for` says whether the helpers can serve a metric and, if
not, why — the reason is surfaced on every index (``native_reason``), in
the ``native.active`` gauge and by the CLI, so no fallback is silent:

- ``ok``: compiled, self-checked, in use;
- ``metric_unsupported``: only ``l2``/``sqeuclidean`` are compiled
  (``ip``/``cosine`` stay on BLAS);
- ``env_hatch``: ``REPRO_HNSW_NO_NATIVE`` is set (the equivalence tests
  use it to cover the python paths);
- ``no_compiler``: no working C compiler, or the object failed to load;
- ``selfcheck_failed``: the C kernel disagrees with the numpy reference
  on this machine.

Whatever the reason, the python paths give identical results and
``n_dist_evals``; the helpers change wall-clock time only.
"""

from __future__ import annotations

import ctypes
import os

import numpy as np

from repro.hnsw.kernels import l2sq_lanes
from repro.utils.cbuild import compile_and_load

__all__ = ["native_for", "NATIVE_METRICS"]

_SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_hotpath.c")

#: metrics the compiled kernel serves (``do_sqrt`` per metric)
NATIVE_METRICS = {"l2": 1, "sqeuclidean": 0}

#: dims the load-time self-check covers: below, at and across the lane
#: width, tails of every kind, and the paper's descriptor sizes
SELFCHECK_DIMS = (1, 7, 8, 31, 32, 96, 128, 960)

_lib = None
_lib_state = "unloaded"  # unloaded -> ready | env_hatch | no_compiler (sticky)
_checked: dict[int, bool] = {}


def _load():
    global _lib, _lib_state
    if _lib_state != "unloaded":
        return _lib
    if os.environ.get("REPRO_HNSW_NO_NATIVE"):
        _lib_state = "env_hatch"
        return None
    lib = compile_and_load(_SRC, "repro-hnsw")
    if lib is None:
        _lib_state = "no_compiler"
        return None
    p = ctypes.c_void_p
    i64 = ctypes.c_int64
    i32 = ctypes.c_int32
    lib.l2_batch.restype = None
    lib.l2_batch.argtypes = [p, p, i64, i64, i32, p]
    lib.hnsw_knn_batch.restype = None
    lib.hnsw_knn_batch.argtypes = [
        p, i64,  # X, dim
        p, p, p,  # nbrs_ptrs, strides, cnts_ptrs
        i64, i64,  # max_level, entry
        p, i64, i64, i64,  # Q, nq, k, ef
        p,  # allowed (NULL = unfiltered)
        i32,  # do_sqrt
        p, p,  # stamp, epoch_io
        p, p, p, p,  # cd, ci, rd, ri
        p, p, p,  # D, I, evals_io
    ]
    lib.hnsw_insert_batch.restype = i64
    lib.hnsw_insert_batch.argtypes = [
        p, i64,  # X, dim
        p,  # node_level
        i64, i64,  # n_start, n_new
        p,  # new_levels
        p, p, p,  # nbrs_ptrs, strides, cnts_ptrs
        i64, i64, i64,  # M, M0, efc
        i32, i32, i32,  # heuristic, keep_pruned, do_sqrt
        p, p, p,  # stamp, epoch_io, entry_io
        p, p, p, p,  # cd, ci, rd, ri
        p, i64, p,  # rows, row_stride, flags
        p, p, p, p, p, p,  # tmp_d, tmp_i, ch_d, ch_i, sh_d, sh_i
        p, p,  # evals_out, shrinks_out
    ]
    _lib = lib
    _lib_state = "ready"
    return lib


def _selfcheck(lib, do_sqrt: int) -> bool:
    """Compare the C kernel against the numpy reference, bit for bit.

    Rows at every :data:`SELFCHECK_DIMS` width, with magnitudes spread
    over six decades so rounding in every lane and tree step is
    exercised.
    """
    hit = _checked.get(do_sqrt)
    if hit is not None:
        return hit
    rng = np.random.default_rng(0xC0FFEE)
    ok = True
    for dim in SELFCHECK_DIMS:
        scale = 10.0 ** rng.uniform(-3, 3, size=(64, 1))
        A = (rng.normal(size=(64, dim)) * scale).astype(np.float32)
        B = (rng.normal(size=(64, dim)) * scale[::-1]).astype(np.float32)
        ref = l2sq_lanes(A - B)
        if do_sqrt:
            ref = np.sqrt(ref)
        out = np.empty(64, dtype=np.float32)
        lib.l2_batch(A.ctypes.data, B.ctypes.data, 64, dim, do_sqrt, out.ctypes.data)
        ok = ok and bool(np.array_equal(ref.view(np.int32), out.view(np.int32)))
    _checked[do_sqrt] = ok
    return ok


def native_for(metric_name: str):
    """``(lib, reason)``: the compiled library when it can serve
    ``metric_name`` bit-exactly (reason ``"ok"``), else ``(None, reason)``."""
    do_sqrt = NATIVE_METRICS.get(metric_name)
    if do_sqrt is None:
        return None, "metric_unsupported"
    lib = _load()
    if lib is None:
        return None, _lib_state
    if not _selfcheck(lib, do_sqrt):
        return None, "selfcheck_failed"
    return lib, "ok"
