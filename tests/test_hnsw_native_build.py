"""Native-path bit-identity gate coverage.

The compiled INSERT and K-NN-SEARCH paths must be pure wall-clock
optimisations: same graphs, same counters, same artifacts, same answers
as the python path at every dimension, filtered or not, and any failure
of the kernel self-check (or the escape hatch, or a missing compiler)
must fall back to python cleanly and say why.  The PQ fast-scan kernel
carries the same contract against its numpy fallback.
"""

import numpy as np
import pytest

import repro.hnsw.native as hnsw_native
import repro.pq.native as pq_native
from repro.hnsw import HnswIndex, HnswParams
from repro.pq import IVFPQIndex
from repro.pq.kernels import _adc_scan_numpy, adc_scan, transpose_codes
from repro.pq.quantizer import ProductQuantizer


@pytest.fixture
def corpus():
    rng = np.random.default_rng(11)
    return rng.normal(0, 1, size=(800, 32)).astype(np.float32)


@pytest.fixture
def params():
    return HnswParams(M=8, ef_construction=40, seed=3)


def _build_pair(X, params, metric="l2"):
    """One native-built and one python-built index over the same data."""
    dim = X.shape[1]
    fast = HnswIndex(dim=dim, params=params, metric=metric, capacity=len(X))
    fast.add_items(X)
    slow = HnswIndex(dim=dim, params=params, metric=metric, capacity=len(X))
    slow._native_build = None
    slow._native = None
    slow.add_items(X)
    return fast, slow


def _assert_same_graph(a: HnswIndex, b: HnswIndex):
    assert len(a) == len(b)
    assert a.entry_point == b.entry_point
    assert a.max_level == b.max_level
    np.testing.assert_array_equal(a._node_level[: len(a)], b._node_level[: len(b)])
    for lv in range(a.max_level + 1):
        np.testing.assert_array_equal(a._cnts[lv][: len(a)], b._cnts[lv][: len(b)])
        for node in a.nodes_at_level(lv).tolist():
            np.testing.assert_array_equal(
                a._nbrs[lv][node, : a._cnts[lv][node]],
                b._nbrs[lv][node, : b._cnts[lv][node]],
            )


needs_native_build = pytest.mark.skipif(
    hnsw_native.native_for("l2")[0] is None,
    reason="compiled hnsw paths unavailable on this machine",
)


@pytest.fixture
def hnsw_native_state():
    """Snapshot/restore the hnsw loader's sticky module state."""
    state = (hnsw_native._lib, hnsw_native._lib_state, dict(hnsw_native._checked))
    yield
    hnsw_native._lib, hnsw_native._lib_state = state[0], state[1]
    hnsw_native._checked = state[2]


def _python_index(monkeypatch, dim, params, capacity=1024):
    """An index built with ``REPRO_HNSW_NO_NATIVE=1`` (loader state restored
    by the caller's ``hnsw_native_state`` fixture)."""
    monkeypatch.setenv("REPRO_HNSW_NO_NATIVE", "1")
    monkeypatch.setattr(hnsw_native, "_lib", None)
    monkeypatch.setattr(hnsw_native, "_lib_state", "unloaded")
    idx = HnswIndex(dim=dim, params=params, capacity=capacity)
    monkeypatch.delenv("REPRO_HNSW_NO_NATIVE")
    monkeypatch.setattr(hnsw_native, "_lib_state", "unloaded")
    return idx


@pytest.fixture
def pq_native_state():
    state = (pq_native._lib, pq_native._lib_state, pq_native._scan_checked)
    yield
    pq_native._lib, pq_native._lib_state, pq_native._scan_checked = state


class TestNativeBuild:
    @needs_native_build
    def test_bulk_build_identical(self, corpus, params):
        fast, slow = _build_pair(corpus, params)
        assert fast.native_build_active and not slow.native_build_active
        _assert_same_graph(fast, slow)
        assert fast.n_dist_evals == slow.n_dist_evals
        assert fast.n_shrink_ops == slow.n_shrink_ops

    @needs_native_build
    def test_incremental_add_identical(self, corpus, params):
        fast = HnswIndex(dim=32, params=params, capacity=len(corpus))
        slow = HnswIndex(dim=32, params=params, capacity=len(corpus))
        slow._native_build = None
        slow._native = None
        for i in range(200):
            assert fast.add(corpus[i], ext_id=1000 + i) == i
            slow.add(corpus[i], ext_id=1000 + i)
        _assert_same_graph(fast, slow)
        assert fast.n_dist_evals == slow.n_dist_evals
        np.testing.assert_array_equal(fast._ext[:200], slow._ext[:200])

    @needs_native_build
    def test_search_after_native_build_identical(self, corpus, params):
        fast, slow = _build_pair(corpus, params)
        for q in corpus[:20]:
            df, idf = fast.knn_search(q, 5)
            ds, ids = slow.knn_search(q, 5)
            np.testing.assert_array_equal(idf, ids)
            np.testing.assert_array_equal(df, ds)

    @needs_native_build
    def test_simple_selection_identical(self, corpus):
        params = HnswParams(M=8, ef_construction=40, seed=3, select_heuristic=False)
        fast, slow = _build_pair(corpus, params)
        _assert_same_graph(fast, slow)
        assert fast.n_dist_evals == slow.n_dist_evals

    @needs_native_build
    def test_save_load_byte_identical(self, corpus, params, tmp_path):
        fast, slow = _build_pair(corpus, params)
        pf, ps = str(tmp_path / "fast.npz"), str(tmp_path / "slow.npz")
        fast.save(pf)
        slow.save(ps)
        with np.load(pf) as a, np.load(ps) as b:
            assert sorted(a.files) == sorted(b.files)
            for name in a.files:
                assert a[name].tobytes() == b[name].tobytes(), name
        loaded = HnswIndex.load(pf)
        _assert_same_graph(loaded, slow)


class TestBitIdentityGates:
    def test_forced_einsum_selfcheck_failure_disables_both(
        self, params, monkeypatch, hnsw_native_state
    ):
        monkeypatch.setattr(hnsw_native, "_selfcheck", lambda lib, s: False)
        idx = HnswIndex(dim=32, params=params)
        assert not idx.native_search_active
        assert not idx.native_build_active
        if hnsw_native._lib is not None:
            assert idx.native_reason == idx.native_build_reason == "selfcheck_failed"

    def test_no_native_env_covers_build_and_search(
        self, corpus, params, monkeypatch, hnsw_native_state
    ):
        monkeypatch.setenv("REPRO_HNSW_NO_NATIVE", "1")
        monkeypatch.setattr(hnsw_native, "_lib", None)
        monkeypatch.setattr(hnsw_native, "_lib_state", "unloaded")
        idx = HnswIndex(dim=32, params=params, capacity=len(corpus))
        assert not idx.native_search_active
        assert not idx.native_build_active
        assert idx.native_reason == idx.native_build_reason == "env_hatch"
        idx.add_items(corpus[:100])
        assert len(idx) == 100

    def test_missing_compiler_says_so(
        self, params, monkeypatch, tmp_path, hnsw_native_state
    ):
        import tempfile

        monkeypatch.delenv("REPRO_HNSW_NO_NATIVE", raising=False)
        monkeypatch.setenv("CC", "/bin/false")
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))  # no cached .so
        monkeypatch.setattr(hnsw_native, "_lib", None)
        monkeypatch.setattr(hnsw_native, "_lib_state", "unloaded")
        idx = HnswIndex(dim=128, params=params)
        assert not idx.native_search_active and not idx.native_build_active
        assert idx.native_reason == "no_compiler"

    def test_metrics_dump_names_each_path_and_reason(self, hnsw_native_state):
        from repro import DistributedANN, SystemConfig
        from repro.datasets import sift_like

        X = sift_like(300, dim=96, seed=2)
        ann = DistributedANN(
            SystemConfig(n_cores=2, cores_per_node=2, k=5, hnsw=HnswParams(M=6, ef_construction=24))
        )
        ann.fit(X)
        _, _, rep = ann.query(X[:4])
        ix = ann.partitions[0].index
        gauges = rep.metrics["gauges"]
        for path, reason, active in (
            ("search", ix.native_reason, ix.native_search_active),
            ("build", ix.native_build_reason, ix.native_build_active),
        ):
            assert gauges[f"native.active{{path={path},reason={reason}}}"] == int(active)

    @pytest.mark.parametrize("metric", ["ip", "cosine"])
    def test_blas_metrics_are_unsupported_not_silent(self, params, metric):
        idx = HnswIndex(dim=32, params=params, metric=metric)
        assert not idx.native_search_active and not idx.native_build_active
        assert idx.native_reason == "metric_unsupported"

    def test_extend_candidates_stays_on_python(self, params):
        p = HnswParams(M=8, ef_construction=40, seed=3, extend_candidates=True)
        idx = HnswIndex(dim=32, params=p)
        assert not idx.native_build_active
        if idx.native_search_active:
            assert idx.native_build_reason == "extend_candidates"


#: the paper's descriptor widths plus the old native-only width
DIMS = (32, 96, 128)


@pytest.fixture(scope="module")
def dim_corpora():
    """Per-dim seeded corpus + queries, shared by the cross-dim tests."""
    out = {}
    for dim in DIMS:
        rng = np.random.default_rng([dim, 5])
        centers = rng.normal(0, 4, size=(8, dim))
        X = (centers[rng.integers(0, 8, 500)] + rng.normal(size=(500, dim))).astype(np.float32)
        Q = (X[rng.choice(500, 12, replace=False)] + rng.normal(0, 0.3, (12, dim))).astype(
            np.float32
        )
        out[dim] = X, Q
    return out


@needs_native_build
@pytest.mark.parametrize("dim", DIMS)
class TestNativeAcrossDims:
    """Native == ``REPRO_HNSW_NO_NATIVE=1`` python at every paper dim."""

    def _pair(self, dim, corpora, monkeypatch):
        X, Q = corpora[dim]
        params = HnswParams(M=8, ef_construction=40, seed=3)
        fast = HnswIndex(dim=dim, params=params, capacity=len(X))
        slow = _python_index(monkeypatch, dim, params, capacity=len(X))
        assert fast.native_reason == "ok" and slow.native_reason == "env_hatch"
        fast.add_items(X)
        slow.add_items(X)
        return fast, slow, Q

    def test_graph_counters_and_npz_identical(
        self, dim, dim_corpora, monkeypatch, tmp_path, hnsw_native_state
    ):
        fast, slow, _ = self._pair(dim, dim_corpora, monkeypatch)
        _assert_same_graph(fast, slow)
        assert fast.n_dist_evals == slow.n_dist_evals
        assert fast.n_shrink_ops == slow.n_shrink_ops
        pf, ps = str(tmp_path / "fast.npz"), str(tmp_path / "slow.npz")
        fast.save(pf)
        slow.save(ps)
        with open(pf, "rb") as a, open(ps, "rb") as b:
            assert a.read() == b.read()

    def test_search_identical(self, dim, dim_corpora, monkeypatch, hnsw_native_state):
        fast, slow, Q = self._pair(dim, dim_corpora, monkeypatch)
        e_fast, e_slow = fast.n_dist_evals, slow.n_dist_evals
        Df, If = fast.knn_search_batch(Q, 10, ef=32)
        Ds, Is = slow.knn_search_batch(Q, 10, ef=32)
        np.testing.assert_array_equal(If, Is)
        np.testing.assert_array_equal(Df, Ds)
        assert fast.n_dist_evals - e_fast == slow.n_dist_evals - e_slow


def _masks(n, rng):
    """Random and adversarial row masks over ``n`` rows."""
    far = np.zeros(n, dtype=bool)
    far[-3:] = True  # only the last-inserted rows match
    single = np.zeros(n, dtype=bool)
    single[n // 2] = True
    alternating = np.arange(n) % 2 == 0
    return {
        "random-50": rng.random(n) < 0.5,
        "random-5": rng.random(n) < 0.05,
        "empty": np.zeros(n, dtype=bool),
        "single": single,
        "far": far,
        "alternating": alternating,
        "all": np.ones(n, dtype=bool),
    }


@needs_native_build
class TestNativeMaskedSearch:
    """The compiled masked beam == python ``_search_layer_filtered``."""

    @pytest.mark.parametrize("dim", DIMS)
    def test_masked_search_identical(self, dim, dim_corpora):
        X, Q = dim_corpora[dim]
        idx = HnswIndex(dim=dim, params=HnswParams(M=6, ef_construction=32, seed=4))
        idx.add_items(X)
        rng = np.random.default_rng(dim)
        native = idx._native
        for name, mask in _masks(len(X), rng).items():
            for ef in (10, 40):
                idx._native = native
                before = idx.n_dist_evals
                Dn, In = idx.knn_search_batch(Q, 10, ef=ef, filter=mask)
                native_evals = idx.n_dist_evals - before
                idx._native = None
                before = idx.n_dist_evals
                Dp, Ip = idx.knn_search_batch(Q, 10, ef=ef, filter=mask)
                python_evals = idx.n_dist_evals - before
                np.testing.assert_array_equal(In, Ip, err_msg=name)
                np.testing.assert_array_equal(Dn, Dp, err_msg=name)
                assert native_evals == python_evals, name
                assert mask[In[In >= 0]].all(), name

    def test_all_true_mask_matches_unfiltered(self, dim_corpora):
        X, Q = dim_corpora[96]
        idx = HnswIndex(dim=96, params=HnswParams(M=6, ef_construction=32, seed=4))
        idx.add_items(X)
        D0, I0 = idx.knn_search_batch(Q, 10)
        D1, I1 = idx.knn_search_batch(Q, 10, filter=np.ones(len(X), dtype=bool))
        np.testing.assert_array_equal(I0, I1)
        np.testing.assert_array_equal(D0, D1)

    def test_query_paths_call_no_numpy_distance(self, dim_corpora, monkeypatch):
        """With the compiled kernel active, neither the entry distance, the
        greedy descent nor the (masked) layer-0 beam touches numpy."""
        X, Q = dim_corpora[128]
        idx = HnswIndex(dim=128, params=HnswParams(M=6, ef_construction=32, seed=4))
        idx.add_items(X)

        def boom(*args, **kwargs):
            raise AssertionError("numpy distance kernel called on a native path")

        monkeypatch.setattr(idx, "_fast_kernel", boom)
        monkeypatch.setattr(idx.metric, "one_to_many", boom)
        mask = np.arange(len(X)) % 3 == 0
        idx.knn_search(Q[0], 5)
        idx.knn_search(Q[0], 5, filter=mask)
        idx.knn_search_batch(Q, 5, filter=mask)
        idx.add(X[0] + 1.0)


class TestPqScanGates:
    def test_scan_matches_numpy_fallback(self, corpus):
        pq = ProductQuantizer(8, 64, seed=1).fit(corpus)
        table = pq.adc_table(corpus[0])
        ct = transpose_codes(pq.encode(corpus))
        np.testing.assert_array_equal(adc_scan(table, ct), _adc_scan_numpy(table, ct))

    def test_no_native_env_forces_numpy(self, corpus, monkeypatch, pq_native_state):
        pq = ProductQuantizer(4, 32, seed=1).fit(corpus)
        codes = pq.encode(corpus)
        with_native = pq.adc_distances(corpus[1], codes)
        monkeypatch.setenv("REPRO_PQ_NO_NATIVE", "1")
        monkeypatch.setattr(pq_native, "_lib", None)
        monkeypatch.setattr(pq_native, "_lib_state", "unloaded")
        monkeypatch.setattr(pq_native, "_scan_checked", None)
        assert pq_native.native_adc_scan() is None
        without = pq.adc_distances(corpus[1], codes)
        np.testing.assert_array_equal(with_native, without)

    def test_ivfpq_results_native_independent(self, corpus, monkeypatch, pq_native_state):
        idx = IVFPQIndex(n_cells=8, n_subspaces=4, n_centroids=32, seed=2, n_probe=3)
        idx.fit(corpus)
        d1, i1 = idx.knn_search(corpus[5], 5)
        monkeypatch.setenv("REPRO_PQ_NO_NATIVE", "1")
        monkeypatch.setattr(pq_native, "_lib", None)
        monkeypatch.setattr(pq_native, "_lib_state", "unloaded")
        monkeypatch.setattr(pq_native, "_scan_checked", None)
        d2, i2 = idx.knn_search(corpus[5], 5)
        np.testing.assert_array_equal(i1, i2)
        np.testing.assert_array_equal(d1, d2)
