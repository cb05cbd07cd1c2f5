"""Fast float32 distance kernels for the HNSW hot path.

The generic :class:`~repro.metrics.base.Metric` implementations convert to
float64 on every call; inside a graph traversal that conversion copy
dominates (profiling-driven, per the HPC guides).  For the metrics whose
formula we can inline — ``l2``, ``sqeuclidean``, ``ip``, and ``cosine`` —
these kernels operate directly on the index's float32 point buffer.

``l2``/``sqeuclidean`` use the repo's one canonical float32 reduction
(:func:`l2sq_lanes`), which is the specification the compiled kernel in
``_hotpath.c`` reproduces bit for bit at every dimension.  ``ip`` and
``cosine`` stay on BLAS products.

Shared by :class:`~repro.hnsw.index.HnswIndex` (the flat production
backend) and :class:`~repro.hnsw.reference.ReferenceHnswIndex` (the
dict-based test oracle), so the two backends are bit-identical by
construction: same kernel, same summation order.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "LANES",
    "ROW_EXACT_METRICS",
    "l2sq_lanes",
    "fast_kernel_for",
    "fast_self_pairwise_for",
]

_EPS32 = np.float32(1e-30)

#: accumulator lanes of the canonical l2 reduction
LANES = 8

#: metrics on the canonical reduction: every distance is computed on its
#: own (no BLAS blocking), so one row of the pairwise matrix equals the
#: one-to-many kernel over the same rows, entry for entry, and
#: ``d(a, b) == d(b, a)`` exactly — the properties lazy selection rows and
#: the incremental shrink cache rely on
ROW_EXACT_METRICS = ("l2", "sqeuclidean")


def l2sq_lanes(diff: np.ndarray) -> np.ndarray:
    """The canonical float32 squared norm over the last axis of ``diff``.

    The squares are summed in ``LANES`` = 8 float32 lanes: element ``j``
    goes to lane ``j % 8``, and each lane adds its blocks sequentially in
    ascending order (a ``dim % 8`` tail is zero-padded, which changes no
    lane).  The lanes then meet in a fixed halving tree:
    ``(l0+l4, l1+l5, l2+l6, l3+l7)`` -> ``(r0+r2, r1+r3)`` -> one sum.
    ``_hotpath.c`` implements the same order; ``native.py`` checks the
    two agree bit for bit before the compiled paths are used.
    """
    sq = diff * diff
    pad = -sq.shape[-1] % LANES
    if pad:
        sq = np.concatenate([sq, np.zeros(sq.shape[:-1] + (pad,), np.float32)], axis=-1)
    lead = sq.shape[:-1]
    # block-major copy: blocks[b] is block b of every row.  numpy reduces
    # along any axis but the fast one by adding element by element, in
    # index order (pairwise summation only runs along the fast axis), so
    # this adds each lane's blocks sequentially, as the spec says
    blocks = sq.reshape(-1, sq.shape[-1] // LANES, LANES).transpose(1, 0, 2).copy()
    acc = np.add.reduce(blocks, axis=0).reshape(lead + (LANES,))
    r = acc[..., :4] + acc[..., 4:]
    r = r[..., :2] + r[..., 2:]
    return r[..., 0] + r[..., 1]


def _l2sq_f32(q: np.ndarray, sub: np.ndarray) -> np.ndarray:
    return l2sq_lanes(sub - q)


def _l2_f32(q: np.ndarray, sub: np.ndarray) -> np.ndarray:
    return np.sqrt(l2sq_lanes(sub - q))


def _ip_f32(q: np.ndarray, sub: np.ndarray) -> np.ndarray:
    return -(sub @ q)


def _cosine_f32(q: np.ndarray, sub: np.ndarray) -> np.ndarray:
    nq = np.sqrt(q @ q) + _EPS32
    ns = np.sqrt(np.einsum("ij,ij->i", sub, sub)) + _EPS32
    return 1.0 - (sub @ q) / (ns * nq)


def _l2sq_pairwise_f32(A: np.ndarray) -> np.ndarray:
    return l2sq_lanes(A[:, np.newaxis, :] - A[np.newaxis, :, :])


def _l2_pairwise_f32(A: np.ndarray) -> np.ndarray:
    return np.sqrt(_l2sq_pairwise_f32(A))


def _ip_pairwise_f32(A: np.ndarray) -> np.ndarray:
    return -(A @ A.T)


def _cosine_pairwise_f32(A: np.ndarray) -> np.ndarray:
    n = np.sqrt(np.einsum("ij,ij->i", A, A)) + _EPS32
    return 1.0 - (A @ A.T) / np.outer(n, n)


class _IpBuffered:
    """Allocation-free negative-inner-product kernel over index rows.

    ``__call__(X, rows, q)`` returns ``-(X[rows] @ q)``, bit-identical to
    ``_ip_f32(q, X[rows])``, gathering and multiplying into preallocated
    buffers.  The result is a view into an internal buffer: consume it
    before the next call.
    """

    __slots__ = ("_sub", "_out")

    def __init__(self, dim: int, maxn: int) -> None:
        self._sub = np.empty((maxn, dim), dtype=np.float32)
        self._out = np.empty(maxn, dtype=np.float32)

    def __call__(self, X: np.ndarray, rows: np.ndarray, q: np.ndarray) -> np.ndarray:
        n = len(rows)
        sub = self._sub[:n]
        X.take(rows, axis=0, out=sub, mode="clip")
        out = self._out[:n]
        np.matmul(sub, q, out=out)
        return np.negative(out, out=out)


def buffered_kernel_for(metric_name: str, dim: int, maxn: int):
    """Stateful ``(X, rows, q) -> dists`` kernel reusing buffers, or None.

    Bit-identical to ``fast_kernel_for(metric_name)(q, X[rows])`` but
    allocation-free.  ``maxn`` bounds the row-set size (the index passes
    its degree cap).
    """
    return _IpBuffered(dim, maxn) if metric_name == "ip" else None


_ONE_TO_MANY = {
    "l2": _l2_f32,
    "sqeuclidean": _l2sq_f32,
    "ip": _ip_f32,
    "cosine": _cosine_f32,
}

_SELF_PAIRWISE = {
    "l2": _l2_pairwise_f32,
    "sqeuclidean": _l2sq_pairwise_f32,
    "ip": _ip_pairwise_f32,
    "cosine": _cosine_pairwise_f32,
}


def fast_kernel_for(metric_name: str):
    """float32 one-to-many kernel ``(q, sub) -> dists``, or None."""
    return _ONE_TO_MANY.get(metric_name)


def fast_self_pairwise_for(metric_name: str):
    """float32 self-pairwise kernel ``A -> (n, n) dists``, or None."""
    return _SELF_PAIRWISE.get(metric_name)
