"""The canonical l2 reduction: numpy reference == spec == C, bit for bit.

``repro.hnsw.kernels.l2sq_lanes`` is the repo's one definition of float32
squared euclidean distance; ``_hotpath.c`` must reproduce it exactly at
every dimension, or the compiled HNSW paths would change answers.
"""

import numpy as np
import pytest

import repro.hnsw.native as hnsw_native
from repro.hnsw.kernels import (
    LANES,
    fast_kernel_for,
    fast_self_pairwise_for,
    l2sq_lanes,
)

DIMS = (1, 7, 8, 31, 32, 96, 128, 960)

_LIB = hnsw_native.native_for("l2")[0]
needs_native = pytest.mark.skipif(_LIB is None, reason="compiled hnsw kernel unavailable")


def _spec(a: np.ndarray, b: np.ndarray) -> np.float32:
    """The reduction written out scalar by scalar, straight from its spec."""
    f = np.float32
    lanes = [f(0)] * LANES
    for j in range(len(a)):
        d = f(a[j]) - f(b[j])
        lanes[j % LANES] = f(lanes[j % LANES] + f(d * d))
    r = [f(lanes[i] + lanes[i + 4]) for i in range(4)]
    return f(f(r[0] + r[2]) + f(r[1] + r[3]))


def _rows(dim: int, n: int, seed: int):
    """Row pairs with magnitudes spread over six decades."""
    rng = np.random.default_rng([dim, seed])
    scale = 10.0 ** rng.uniform(-3, 3, size=(n, 1))
    A = (rng.normal(size=(n, dim)) * scale).astype(np.float32)
    B = (rng.normal(size=(n, dim)) * scale[::-1]).astype(np.float32)
    return A, B


def _c_kernel(A: np.ndarray, B: np.ndarray, do_sqrt: int) -> np.ndarray:
    out = np.empty(len(A), dtype=np.float32)
    _LIB.l2_batch(A.ctypes.data, B.ctypes.data, len(A), A.shape[1], do_sqrt, out.ctypes.data)
    return out


def _bits_equal(x: np.ndarray, y: np.ndarray) -> bool:
    return np.array_equal(np.asarray(x, np.float32).view(np.int32), np.asarray(y).view(np.int32))


@pytest.mark.parametrize("dim", DIMS)
def test_reference_matches_spec(dim):
    A, B = _rows(dim, 16, seed=0)
    ref = l2sq_lanes(A - B)
    assert ref.dtype == np.float32
    assert _bits_equal(ref, [_spec(a, b) for a, b in zip(A, B)])


@needs_native
@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("do_sqrt", [0, 1])
@pytest.mark.parametrize("dim", DIMS)
def test_c_matches_reference(dim, do_sqrt, seed):
    A, B = _rows(dim, 200, seed)
    ref = l2sq_lanes(A - B)
    if do_sqrt:
        ref = np.sqrt(ref)
    assert _bits_equal(_c_kernel(A, B, do_sqrt), ref)


@needs_native
def test_c_handles_zero_and_identical_rows():
    A = np.zeros((3, 13), dtype=np.float32)
    A[1] = 1e-20  # squares underflow to subnormal / zero
    A[2] = 3.0
    assert _bits_equal(_c_kernel(A, A.copy(), 1), np.zeros(3, np.float32))
    B = np.zeros_like(A)
    assert _bits_equal(_c_kernel(A, B, 0), l2sq_lanes(A - B))


@pytest.mark.parametrize("metric", ["l2", "sqeuclidean"])
@pytest.mark.parametrize("dim", [7, 96])
def test_pairwise_rows_equal_one_to_many_and_symmetric(metric, dim):
    """The properties lazy selection rows and the shrink cache rely on."""
    A, _ = _rows(dim, 20, seed=4)
    one_to_many = fast_kernel_for(metric)
    P = fast_self_pairwise_for(metric)(A)
    for i in range(len(A)):
        assert _bits_equal(P[i], one_to_many(A[i], A))
    assert _bits_equal(P, P.T)


def test_self_check_covers_the_issue_dims():
    assert set(DIMS) <= set(hnsw_native.SELFCHECK_DIMS)
