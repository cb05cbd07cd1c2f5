#!/usr/bin/env python
"""Fault injection demo: crash a rank mid-batch and keep answering queries.

Runs the same batch search three times on a simulated 4-node cluster:

1. fault-free, as the golden reference;
2. with node 1 crashing mid-run and replication r=2 — the fault-tolerant
   master times the lost tasks out and fails them over to the surviving
   replica, so every query still gets its *full* answer (bit-identical to
   the golden run);
3. the same crash with r=1 (no replicas) — the affected tasks are
   abandoned after bounded retries and the batch completes with flagged
   partial results instead of hanging;
4. open-loop serving under the same kind of crash (r=2, one credit per
   core, a 3-deep ingress queue that sheds its oldest query) — arrivals,
   admission and deadlines run in one coordinator loop, so the ingress
   bound holds, the admission ledger balances, every admitted query
   completes, and every fully answered one matches the golden run.

Exits non-zero if any of those guarantees is violated, so it doubles as a
smoke test (``make faults-demo``).

Run:  python examples/faults_demo.py
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))


import numpy as np

from repro import DistributedANN, SystemConfig
from repro.datasets import brute_force_knn, sample_queries, sift_like
from repro.eval import availability_stats, degraded_recall, recall_at_k
from repro.faults import FaultSpec, RankCrash
from repro.hnsw import HnswParams


def build_and_query(X, Q, replication, fault_spec=None, **serving):
    config = SystemConfig(
        n_cores=4,
        cores_per_node=1,  # one core per node so workgroups span nodes
        k=10,
        hnsw=HnswParams(M=8, ef_construction=60),
        n_probe=2,
        replication_factor=replication,
        one_sided=False,  # the fault-tolerant master needs two-sided results
        fault_spec=fault_spec,
        seed=0,
        **serving,
    )
    ann = DistributedANN(config)
    ann.fit(X)
    return ann.query(Q)


def main() -> int:
    print("generating 3000 SIFT-like vectors + 50 held-out queries ...")
    X = sift_like(3000, seed=0)
    Q = sample_queries(X, 50, noise_scale=0.05, seed=1)
    gt_dists, gt_ids = brute_force_knn(X, Q, k=10)

    # 1. golden fault-free run (r=2, plain dispatch)
    D0, I0, rep0 = build_and_query(X, Q, replication=2)
    recall0 = recall_at_k(I0, gt_ids, gt_dists, D0)
    print(
        f"golden run: {rep0.total_seconds*1e3:.3f} ms virtual, recall@10 = {recall0:.3f}"
    )

    # 2. crash node 1 about a third of the way through the batch, r=2
    spec = FaultSpec(crashes=(RankCrash(node=1, at=rep0.total_seconds * 0.3),))
    D2, I2, rep2 = build_and_query(X, Q, replication=2, fault_spec=spec)
    stats2 = availability_stats(rep2.completeness, rep2.n_queries)
    print(
        f"crash with r=2: {stats2}\n"
        f"  {rep2.failovers} failovers, {rep2.retries} retries, "
        f"{rep2.failed_tasks} abandoned tasks, "
        f"suspected dead cores {rep2.suspected_dead_cores}, "
        f"crashed pids {list(rep2.crashed_pids)}"
    )
    ok = True
    if not np.array_equal(I0, I2):
        print("FAIL: replicated run under a crash must match the golden results")
        ok = False
    if stats2.availability != 1.0:
        print("FAIL: replicated run under a crash must answer every query fully")
        ok = False
    if rep2.failovers == 0:
        print("FAIL: expected at least one failover to the surviving replica")
        ok = False

    # 3. the same crash without replication: degraded but bounded
    D1, I1, rep1 = build_and_query(X, Q, replication=1, fault_spec=spec)
    stats1 = availability_stats(rep1.completeness, rep1.n_queries)
    split = degraded_recall(I1, gt_ids, rep1.completeness, gt_dists, D1)
    print(
        f"crash with r=1: {stats1}\n"
        f"  recall overall {split['overall']:.3f}, "
        f"complete-only {split['complete']:.3f}, degraded-only {split['degraded']:.3f}"
    )
    if stats1.n_degraded == 0:
        print("FAIL: unreplicated run under a crash should flag degraded queries")
        ok = False
    if rep1.failed_tasks == 0:
        print("FAIL: unreplicated run under a crash should abandon the lost tasks")
        ok = False

    # 4. open-loop serving: a crash while the ingress queue sheds
    serving = dict(
        arrival="poisson:200000", dispatch_window=1, queue_depth=3, overload_policy="shed_oldest"
    )
    _, _, rep_ff = build_and_query(X, Q, replication=2, **serving)
    spec4 = FaultSpec(crashes=(RankCrash(node=1, at=rep_ff.total_seconds * 0.3),))
    D4, I4, rep4 = build_and_query(X, Q, replication=2, fault_spec=spec4, **serving)
    admitted = np.isfinite(rep4.query_latencies)
    full = admitted & (rep4.completeness >= 1.0)
    print(
        f"serving under a crash: offered {rep4.offered_queries}, admitted "
        f"{rep4.admitted_queries}, shed {rep4.shed_queries}, rejected "
        f"{rep4.rejected_queries}, peak ingress depth {rep4.max_ingress_depth}\n"
        f"  {rep4.failovers} failovers, {int(full.sum())} fully answered"
    )
    if (
        rep4.admitted_queries + rep4.shed_queries + rep4.rejected_queries
        != rep4.offered_queries
    ):
        print("FAIL: the admission ledger must balance under a crash")
        ok = False
    if rep4.shed_queries == 0:
        print("FAIL: the ingress bound must engage (shed the oldest) under a crash")
        ok = False
    if rep4.max_ingress_depth > 3:
        print("FAIL: the ingress queue must stay within its bound under a crash")
        ok = False
    if admitted.sum() != rep4.admitted_queries:
        print("FAIL: every admitted query must complete under a crash")
        ok = False
    if not (np.array_equal(I0[full], I4[full]) and np.array_equal(D0[full], D4[full])):
        print("FAIL: fully answered served queries must match the golden results")
        ok = False

    print("OK: crash tolerated, degradation flagged" if ok else "demo FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
