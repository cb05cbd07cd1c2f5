"""Credit-based flow-controlled dispatch (``repro.core.coordinator``).

``SystemConfig.dispatch_window`` caps tasks in flight per core: dispatch
charges a credit, a returned result (or one-sided credit ack) releases it,
and a dispatch whose target workgroup is out of credits blocks — consuming
in-flight results — until a credit comes home.  The contract
(docs/pipelining.md): window 0 is bit-identical to the eager dispatcher,
any finite window returns bit-identical results in every mode, in-flight
tasks never exceed ``window * n_cores``, and every charged credit is
reclaimed — including by failover when the worker holding it crashes.

These tests pin that contract, the config guard rails, the shared
timeout-derivation helpers, and the LoadTracker timeline downsampling.
"""

import hashlib

import numpy as np
import pytest

from repro.core import DistributedANN, SystemConfig
from repro.faults import FaultPolicy, FaultSpec, RankCrash
from repro.faults.spec import FaultPolicy as _FaultPolicy
from repro.hnsw import HnswParams
from repro.loadbalance import LoadTracker, derive_drain_timeout, derive_task_timeout
from repro.simmpi.errors import SimConfigError
from repro.simmpi.network import NetworkModel

HNSW = HnswParams(M=8, ef_construction=40)


@pytest.fixture(scope="module")
def corpus():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(600, 16)).astype(np.float32)
    Q = rng.normal(size=(24, 16)).astype(np.float32)
    return X, Q


def _run(corpus, **kw):
    X, Q = corpus
    cfg = SystemConfig(
        n_cores=8, cores_per_node=4, k=5, hnsw=HNSW, n_probe=3, seed=0, **kw
    )
    ann = DistributedANN(cfg)
    ann.fit(X)
    return ann.query(Q)


def _digest(D, I):
    return hashlib.sha256(D.tobytes() + I.tobytes()).hexdigest()[:16]


class TestEagerDegeneracy:
    """Window 0 *is* the pre-pipelining master: same frozen digest and
    makespan as the test_core_batching goldens."""

    def test_window_zero_matches_golden_digest(self, corpus):
        D, I, rep = _run(corpus, one_sided=True, dispatch_window=0)
        assert _digest(D, I) == "64e5431c34188cbc"
        assert rep.total_seconds == 4.781760000000001e-05
        assert rep.tasks == 72 and rep.task_messages == 72

    def test_window_zero_report_has_no_flow_control_activity(self, corpus):
        _, _, rep = _run(corpus, one_sided=False, dispatch_window=0)
        assert rep.max_outstanding_tasks == 0
        assert rep.credit_stall_seconds == 0.0
        assert rep.credits_leaked == 0


class TestWindowedEquivalence:
    """A finite window reorders dispatch timing, never answers."""

    @pytest.mark.parametrize("one_sided", [True, False])
    @pytest.mark.parametrize("window", [1, 2, 4])
    def test_results_identical_to_eager(self, corpus, one_sided, window):
        D0, I0, rep0 = _run(
            corpus, one_sided=one_sided, replication_factor=2, dispatch_window=0
        )
        D1, I1, rep1 = _run(
            corpus, one_sided=one_sided, replication_factor=2, dispatch_window=window
        )
        np.testing.assert_array_equal(I0, I1)
        np.testing.assert_array_equal(D0, D1)
        assert rep1.tasks == rep0.tasks
        assert rep1.credits_leaked == 0
        assert 0 < rep1.max_outstanding_tasks <= window * 8

    def test_adaptive_routing_with_window(self, corpus):
        base = dict(one_sided=False, routing="adaptive")
        D0, I0, _ = _run(corpus, dispatch_window=0, **base)
        D1, I1, rep = _run(corpus, dispatch_window=2, **base)
        np.testing.assert_array_equal(I0, I1)
        np.testing.assert_array_equal(D0, D1)
        assert rep.credits_leaked == 0
        assert 0 < rep.max_outstanding_tasks <= 2 * 8

    def test_batched_dispatch_with_window(self, corpus):
        """A batch charges batch_size credits against one core."""
        D0, I0, rep0 = _run(corpus, one_sided=False, batch_size=4, dispatch_window=0)
        D1, I1, rep1 = _run(corpus, one_sided=False, batch_size=4, dispatch_window=4)
        np.testing.assert_array_equal(I0, I1)
        np.testing.assert_array_equal(D0, D1)
        assert rep1.task_messages == rep0.task_messages
        assert rep1.credits_leaked == 0

    def test_selectors_compose_with_window(self, corpus):
        D0, I0, _ = _run(corpus, replication_factor=2, dispatch_window=0)
        D1, I1, rep = _run(
            corpus,
            replication_factor=2,
            dispatch_window=2,
            replica_selector="least_loaded",
        )
        np.testing.assert_array_equal(I0, I1)
        np.testing.assert_array_equal(D0, D1)
        assert rep.credits_leaked == 0

    def test_tight_window_stalls_the_dispatcher(self, corpus):
        """W=1 with fan-out 3 must block dispatch at least once, and the
        stall time is accounted."""
        _, _, rep = _run(corpus, one_sided=False, dispatch_window=1)
        assert rep.credit_stall_seconds > 0.0
        assert rep.max_outstanding_tasks <= 8


class TestConfigValidation:
    def test_negative_window_rejected(self):
        with pytest.raises(SimConfigError, match="dispatch_window"):
            SystemConfig(n_cores=4, cores_per_node=2, dispatch_window=-1)

    def test_window_requires_master_strategy(self):
        with pytest.raises(SimConfigError, match="owner_strategy='master'"):
            SystemConfig(
                n_cores=4, cores_per_node=2, dispatch_window=2, owner_strategy="multiple"
            )

    def test_batch_must_fit_window(self):
        with pytest.raises(SimConfigError, match="batch_size"):
            SystemConfig(n_cores=4, cores_per_node=2, batch_size=4, dispatch_window=2)

    def test_batch_equal_to_window_allowed(self):
        cfg = SystemConfig(n_cores=4, cores_per_node=2, batch_size=4, dispatch_window=4)
        assert cfg.dispatch_window == 4


class TestFaultTolerantWindow:
    """The fault harness and flow control share one credit ledger."""

    @pytest.fixture(scope="class")
    def data(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((600, 12)).astype(np.float32)
        Q = rng.standard_normal((16, 12)).astype(np.float32)
        return X, Q

    def _run(self, data, **kw):
        X, Q = data
        cfg = SystemConfig(
            **{
                "n_cores": 4,
                "cores_per_node": 1,  # workgroups span nodes, so failover works
                "k": 5,
                "n_probe": 2,
                "replication_factor": 2,
                "one_sided": False,
                **kw,
            }
        )
        ann = DistributedANN(cfg)
        ann.fit(X)
        return ann.query(Q)

    @pytest.fixture(scope="class")
    def golden(self, data):
        return self._run(data)

    def test_fault_free_ft_window_matches_golden(self, data, golden):
        D0, I0, _ = golden
        D1, I1, rep = self._run(data, fault_policy=FaultPolicy(), dispatch_window=2)
        np.testing.assert_array_equal(I0, I1)
        np.testing.assert_array_equal(D0, D1)
        assert rep.retries == 0 and rep.failovers == 0
        assert rep.credits_leaked == 0
        assert 0 < rep.max_outstanding_tasks <= 2 * 4

    def test_crashed_worker_credits_reclaimed_by_failover(self, data, golden):
        """A rank crash while tasks are charged against its core must not
        leak the credits: failover releases them, re-charges the surviving
        replica, and the batch completes bit-identical to the golden run."""
        D0, I0, rep0 = golden
        t_crash = rep0.total_seconds * 0.3  # mid-batch: credits are in flight
        spec = FaultSpec(crashes=(RankCrash(node=1, at=t_crash),))
        D, I, rep = self._run(data, fault_spec=spec, dispatch_window=1)
        np.testing.assert_array_equal(I0, I)
        np.testing.assert_array_equal(D0, D)
        assert rep.failovers > 0  # the crash actually hit in-flight work
        assert np.all(rep.completeness == 1.0)
        assert rep.credits_leaked == 0
        assert rep.failed_tasks == 0

    def test_crash_without_replica_still_reclaims_credits(self, data):
        """Even abandoned tasks must hand their credits back."""
        _, _, rep0 = self._run(data)
        spec = FaultSpec(crashes=(RankCrash(node=1, at=rep0.total_seconds * 0.3),))
        _, _, rep = self._run(data, replication_factor=1, fault_spec=spec, dispatch_window=1)
        assert rep.failed_tasks > 0
        assert rep.credits_leaked == 0


class TestTimeoutDerivation:
    """One shared helper derives every fault-tolerance deadline; these pin
    the pre-refactor values so the dedup changed nothing."""

    NET = NetworkModel()  # rtt = 2 * (1.3e-6 + 0.3e-6) = 3.2e-6

    def test_task_timeout_pinned(self):
        p = _FaultPolicy()
        assert derive_task_timeout(p, 2e-3, self.NET) == pytest.approx(0.10016)
        assert derive_task_timeout(p, 0.0, self.NET) == pytest.approx(1.6e-4)

    def test_min_timeout_floor(self):
        p = _FaultPolicy(timeout_multiplier=1.0, min_timeout=0.5)
        assert derive_task_timeout(p, 1e-6, self.NET) == 0.5

    def test_explicit_task_timeout_wins(self):
        p = _FaultPolicy(task_timeout=7.5)
        assert derive_task_timeout(p, 100.0, self.NET) == 7.5

    def test_drain_timeout_pinned(self):
        p = _FaultPolicy()
        base = derive_task_timeout(p, 2e-3, self.NET)
        assert derive_drain_timeout(p, base, self.NET) == pytest.approx(0.10016)
        # floor: four round trips when the task deadline is tiny
        assert derive_drain_timeout(p, 1e-9, self.NET) == pytest.approx(1.28e-5)

    def test_explicit_drain_timeout_wins(self):
        p = _FaultPolicy(drain_timeout=3.0)
        assert derive_drain_timeout(p, 99.0, self.NET) == 3.0

    def test_ft_master_uses_the_shared_helper(self, corpus):
        """An explicit task_timeout must reach the dispatcher unchanged —
        a tiny one forces retries that the derived timeout never would."""
        X, Q = corpus
        cfg = SystemConfig(
            n_cores=4, cores_per_node=2, k=5, hnsw=HNSW, n_probe=2, seed=0,
            one_sided=False,
            fault_policy=FaultPolicy(task_timeout=1e-9, max_attempts=8),
        )
        ann = DistributedANN(cfg)
        ann.fit(X)
        _, _, rep = ann.query(Q)
        assert rep.retries > 0


class TestTimelineDownsampling:
    """The queue-depth timeline is bounded: at the sample cap the tracker
    halves its history and doubles its sampling stride."""

    def test_sample_count_is_bounded(self):
        t = LoadTracker(1, task_cost_hint=1.0, max_timeline_samples=8)
        for i in range(1000):
            t.record_dispatch(0, now=float(i))
        tl = t.timeline()
        assert len(tl) <= 8
        assert np.all(np.diff(tl[:, 0]) > 0)

    def test_downsampled_timeline_spans_the_run(self):
        t = LoadTracker(1, task_cost_hint=1.0, max_timeline_samples=8)
        for i in range(100):
            t.record_dispatch(0, now=float(i))
        tl = t.timeline()
        assert tl[0, 0] < 20.0  # early history survives decimation
        assert tl[-1, 0] >= 80.0  # recent history is still sampled

    def test_small_runs_keep_every_sample(self):
        t = LoadTracker(1, task_cost_hint=1.0)  # default cap 4096
        for i in range(600):
            t.record_dispatch(0, now=float(i))
        assert len(t.timeline()) == 600

    def test_uncapped_tracker_records_everything(self):
        t = LoadTracker(1, task_cost_hint=1.0, max_timeline_samples=None)
        for i in range(5000):
            t.record_dispatch(0, now=float(i))
        assert len(t.timeline()) == 5000

    def test_cap_must_be_at_least_two(self):
        with pytest.raises(SimConfigError, match="max_timeline_samples"):
            LoadTracker(1, 1.0, max_timeline_samples=1)

    def test_report_timeline_stays_bounded_end_to_end(self, corpus):
        X, Q = corpus
        cfg = SystemConfig(
            n_cores=8, cores_per_node=4, k=5, hnsw=HNSW, n_probe=3, seed=0
        )
        ann = DistributedANN(cfg)
        ann.fit(X)
        _, _, rep = ann.query(Q)
        assert rep.queue_depth_timeline is not None
        assert len(rep.queue_depth_timeline) <= 4096
