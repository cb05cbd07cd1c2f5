"""The coordinator's two loops across every mode they serve.

The master runs one of two loops (``repro.core.coordinator``): the
closed-loop fault-free :class:`CoordinatorPipeline` and the event loop
that serves open-loop arrivals and deadline-driven fault tolerance.
The digests below were recorded before the master's serving and fault
loops were merged into that event loop, so they pin that the merge
changed nothing a fault-free run can observe:

- fault-free modes pin answers *and* timing — D, I, the virtual
  makespan, per-query latencies and the task counts;
- fault-tolerant modes pin answers only — D, I and per-query
  completeness.  Their virtual timing follows the loop's discipline and
  is not pinned, so every crash here is placed where what a dead rank
  answered does not depend on dispatch timing (a node that is down
  before any task reaches it, or a crash fully masked by replication).

Two further invariants: a deadline policy that never fires changes
nothing, and the ingress bound holds with a deadline policy attached.
"""

import hashlib

import numpy as np
import pytest

from repro.core import DistributedANN, SystemConfig
from repro.datasets import zipf_query_targets
from repro.faults import FaultPolicy, FaultSpec, RankCrash
from repro.hnsw import HnswParams

HNSW = HnswParams(M=8, ef_construction=40)


def _corpus(seed, n_queries, hot=False):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(600, 16)).astype(np.float32)
    if not hot:
        return X, rng.normal(size=(n_queries, 16)).astype(np.float32)
    # byte-identical repeats so the exact cache hits
    pool = rng.normal(size=(12, 16)).astype(np.float32)
    ranks = zipf_query_targets(n_queries, len(pool), skew=1.3, seed=seed)
    return X, np.ascontiguousarray(pool[ranks])


@pytest.fixture(scope="module")
def corpora():
    return {"plain": _corpus(3, 24), "hot": _corpus(4, 60, hot=True)}


def _run(corpora, corpus="plain", **kw):
    X, Q = corpora[corpus]
    base = dict(n_cores=8, cores_per_node=4, k=5, hnsw=HNSW, n_probe=3, seed=0)
    ann = DistributedANN(SystemConfig(**{**base, **kw}))
    ann.fit(X)
    return ann.query(Q)


def _sha(*parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        if p is None:
            h.update(b"none")
        elif isinstance(p, np.ndarray):
            h.update(np.ascontiguousarray(p).tobytes())
        elif isinstance(p, float):
            h.update(p.hex().encode())
        else:
            h.update(repr(p).encode())
    return h.hexdigest()[:16]


def _timed_digest(D, I, rep) -> str:
    return _sha(D, I, rep.total_seconds, rep.query_latencies, rep.tasks, rep.task_messages)


def _answer_digest(D, I, rep) -> str:
    return _sha(D, I, rep.completeness)


PRESSURE = dict(
    one_sided=False,
    arrival="trace:" + ",".join(["0"] * 24),
    dispatch_window=1,
    queue_depth=3,
)

#: mode -> (corpus, config overrides, digest recorded before the merge)
FAULT_FREE = {
    "closed_two_sided_w0": ("plain", dict(one_sided=False), "ece32c172206695e"),
    "closed_two_sided_w2": (
        "plain", dict(one_sided=False, dispatch_window=2), "e8041dd56a6c4dff"
    ),
    "closed_two_sided_b4": ("plain", dict(one_sided=False, batch_size=4), "4048316a39406c88"),
    "closed_one_sided_w0": ("plain", dict(one_sided=True), "a095c07851ff8c74"),
    "closed_one_sided_w2": (
        "plain", dict(one_sided=True, dispatch_window=2), "fb45b491e31d6181"
    ),
    "closed_one_sided_b4": ("plain", dict(one_sided=True, batch_size=4), "9a3789ccef71cc6f"),
    "adaptive": ("plain", dict(one_sided=False, routing="adaptive"), "63020b54b83ab134"),
    "open_two_sided_cache": (
        "hot",
        dict(one_sided=False, arrival="poisson:5000", cache_size=32),
        "468cc7d8b60c971e",
    ),
    "open_one_sided_w4": (
        "plain",
        dict(one_sided=True, dispatch_window=4, arrival="poisson:5000"),
        "299b634ecb70db33",
    ),
    "pressure_block": ("plain", {**PRESSURE, "overload_policy": "block"}, "9721116eaf60aaaa"),
    "pressure_shed_oldest": (
        "plain", {**PRESSURE, "overload_policy": "shed_oldest"}, "01b5c4033ed08ae0"
    ),
    "pressure_reject": ("plain", {**PRESSURE, "overload_policy": "reject"}, "28632cb7f5643f58"),
    "multiple_owner": (
        "plain", dict(one_sided=False, owner_strategy="multiple"), "65976ddefc894239"
    ),
}

# one core per node, so a workgroup spans nodes and r=2 masks a crash
FT = dict(cores_per_node=1, n_cores=4, n_probe=2, one_sided=False)
#: node 1 is down before any task can reach it
EARLY = FaultSpec(crashes=(RankCrash(node=1, at=0.0),))
#: node 1 dies mid-run; replication masks it whatever the timing
MID = FaultSpec(crashes=(RankCrash(node=1, at=2e-5),))
#: node 1 dies while open-loop arrivals are still landing
MID_SERVING = FaultSpec(crashes=(RankCrash(node=1, at=3e-4),))

FAULT_TOLERANT = {
    "closed_r2_policy": (
        dict(FT, replication_factor=2, fault_policy=FaultPolicy()), "4d1494e9fac58d14"
    ),
    "closed_r2_crash_w1": (
        dict(FT, replication_factor=2, dispatch_window=1, fault_spec=MID),
        "4d1494e9fac58d14",
    ),
    "closed_r1_crash": (dict(FT, replication_factor=1, fault_spec=EARLY), "cbfa96f9b135c24a"),
    "serving_r2_crash": (
        dict(FT, replication_factor=2, arrival="poisson:20000", fault_spec=MID_SERVING),
        "4d1494e9fac58d14",
    ),
}


@pytest.mark.parametrize("mode", list(FAULT_FREE))
def test_fault_free_mode_unchanged(corpora, mode):
    corpus, kw, expected = FAULT_FREE[mode]
    assert _timed_digest(*_run(corpora, corpus, **kw)) == expected


@pytest.mark.parametrize("mode", list(FAULT_TOLERANT))
def test_fault_tolerant_answers_unchanged(corpora, mode):
    kw, expected = FAULT_TOLERANT[mode]
    assert _answer_digest(*_run(corpora, **kw)) == expected


@pytest.mark.parametrize(
    "kw",
    [
        dict(one_sided=False, arrival="poisson:5000"),
        dict(one_sided=False, arrival="poisson:5000", dispatch_window=2),
        {**PRESSURE, "overload_policy": "block"},
    ],
    ids=["poisson_w0", "poisson_w2", "pressure_block"],
)
def test_deadline_policy_that_never_fires_changes_nothing(corpora, kw):
    D0, I0, rep0 = _run(corpora, **kw)
    D1, I1, rep1 = _run(corpora, **kw, fault_policy=FaultPolicy())
    assert rep1.retries == rep1.failovers == rep1.failed_tasks == 0
    np.testing.assert_array_equal(D0, D1)
    np.testing.assert_array_equal(I0, I1)
    np.testing.assert_array_equal(rep0.query_latencies, rep1.query_latencies)
    assert rep0.total_seconds == rep1.total_seconds


@pytest.mark.parametrize("policy", ["block", "shed_oldest", "reject"])
def test_overload_policies_hold_under_a_deadline_policy(corpora, policy):
    """The ingress bound and the admission ledger are the event loop's,
    not the fault-free path's: attaching a deadline policy keeps both."""
    _, Q = corpora["plain"]
    _, _, rep = _run(
        corpora, **{**PRESSURE, "overload_policy": policy}, fault_policy=FaultPolicy()
    )
    assert rep.max_ingress_depth <= 3
    assert (
        rep.admitted_queries + rep.shed_queries + rep.rejected_queries
        == rep.offered_queries
        == len(Q)
    )
    if policy == "block":
        assert rep.admitted_queries == len(Q)
    else:
        assert (rep.shed_queries if policy == "shed_oldest" else rep.rejected_queries) > 0
    assert np.isfinite(rep.query_latencies).sum() == rep.admitted_queries
