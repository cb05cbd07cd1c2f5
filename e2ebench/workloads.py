"""The benchmark's three workloads: inputs, configs and call sequences.

Each workload is a :class:`Plan` built from a seed alone.  The program
under test only ever receives the generated inputs (corpus, metadata,
queries, points to insert) through its public surface; nothing in a plan
depends on how the program partitions or indexes them, so a change to the
program cannot change the workload it is judged on.

Why these three (see README.md for the full table):

- ``sift128-closed`` — the paper's own design (one-sided master-worker,
  real HNSW partitions) under a closed loop of small calls; the HNSW
  kernels do nearly all the host work and the simulated fabric sees only
  short queues.
- ``modeled256-skew`` — many simulated cores, modeled local searches and
  Zipf-skewed large batches (HARMONY's skewed-load runs); the DES engine,
  the coordinator and the VP build do the host work, the HNSW kernels none.
- ``deep96-ingest-serve`` — inserts interleaved with open-loop serving
  through an exact result cache (LANNS's ingest-while-serving); the only
  workload that writes to the HNSW layer while reading and the only one
  that exercises ``repro.serving``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro import FilterSpec, HnswParams, SystemConfig
from repro.datasets import (
    brute_force_knn,
    deep_like,
    sample_queries,
    sift_like,
    zipf_queries,
    zipf_query_targets,
)
from repro.filtering import mask_for

K = 10


@dataclass
class Step:
    """One public call of an episode: a ``query()`` or an ``add_points()``."""

    kind: str  # "query" | "insert"
    X: np.ndarray
    #: query label, for the per-kind tables ("plain", "tenant", "tier")
    label: str = "plain"
    filter: str | None = None
    tenant: int | None = None
    #: open-loop arrival trace ("trace:t1,t2,...") replacing the config's
    arrival: str | None = None


@dataclass
class Plan:
    """Everything one workload run needs, generated from the seed."""

    name: str
    config: SystemConfig
    X: np.ndarray
    metadata: dict | None
    steps: list[Step]
    #: sizes and knobs recorded with every result
    sizes: dict = field(default_factory=dict)

    @property
    def n_queries(self) -> int:
        return sum(len(s.X) for s in self.steps if s.kind == "query")


def _sub_seed(seed: int, *salt: int) -> int:
    return int(np.random.SeedSequence([seed, *salt]).generate_state(1)[0])


def _rng(seed: int, *salt: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, *salt]))


def sift128_closed(seed: int, tiny: bool = False) -> Plan:
    n, n_calls, per_call, cores, cpn = (600, 6, 5, 4, 2) if tiny else (3000, 100, 20, 16, 4)
    n_tenants = 16
    X = sift_like(n, 128, seed=_sub_seed(seed, 1))
    rng = _rng(seed, 2)
    metadata = {
        "tenant": rng.integers(0, n_tenants, n),
        "tier": rng.integers(0, 100, n),
    }
    Q = sample_queries(X, n_calls * per_call, noise_scale=0.1, seed=_sub_seed(seed, 3))
    steps = []
    for c in range(n_calls):
        q = Q[c * per_call : (c + 1) * per_call]
        kind = c % 3
        if kind == 0:
            steps.append(Step("query", q))
        elif kind == 1:  # ~6% selectivity: the brute-force "pre" path
            steps.append(Step("query", q, "tenant", tenant=(c // 3) % n_tenants))
        else:  # half the rows match: the filtered-traversal "post" path
            steps.append(Step("query", q, "tier", filter="tier=0..49"))
    config = SystemConfig(
        n_cores=cores,
        cores_per_node=cpn,
        k=K,
        hnsw=HnswParams(M=12, ef_construction=64, seed=seed),
        ef_search=48,
        n_probe=3,
        one_sided=True,
        seed=seed,
    )
    sizes = {"n": n, "dim": 128, "calls": n_calls, "queries_per_call": per_call,
             "tenants": n_tenants, "cores": cores, "cores_per_node": cpn}
    return Plan("sift128-closed", config, X, metadata, steps, sizes)


def modeled256_skew(seed: int, tiny: bool = False) -> Plan:
    n, n_calls, per_call, cores, cpn = (1000, 2, 100, 32, 8) if tiny else (6000, 32, 250, 256, 16)
    X = sift_like(n, 128, seed=_sub_seed(seed, 1))
    # Zipf over one anchor per partition, drawn from the corpus itself so
    # the skew does not depend on how the program happens to partition.
    # Each call ranks the anchors afresh, so every call has its own hot
    # spot and a run averages over several of them.
    anchors = X[_rng(seed, 2).choice(n, size=cores, replace=False)]
    steps = []
    for c in range(n_calls):
        ranked = anchors[_rng(seed, 3, c).permutation(cores)]
        q = zipf_queries(ranked, per_call, skew=1.1, compactness=0.01, seed=_sub_seed(seed, 4, c))
        steps.append(Step("query", q))
    config = SystemConfig(
        n_cores=cores,
        cores_per_node=cpn,
        k=K,
        hnsw=HnswParams(M=12, ef_construction=64, seed=seed),
        n_probe=3,
        searcher="modeled",
        one_sided=False,
        replication_factor=2,
        replica_selector="least_loaded",
        seed=seed,
    )
    sizes = {"n": n, "dim": 128, "calls": n_calls, "queries_per_call": per_call,
             "skew": 1.1, "cores": cores, "cores_per_node": cpn, "replication": 2}
    return Plan("modeled256-skew", config, X, metadata=None, steps=steps, sizes=sizes)


#: open-loop Poisson rate (queries per virtual second) and SLO of
#: deep96-ingest-serve, fixed just below the latency knee measured on the
#: commit that introduced the benchmark (README.md, "Choosing the rate")
DEEP96_RATE = 400000.0
DEEP96_SLO_MS = 0.02


def deep96_ingest_serve(seed: int, tiny: bool = False) -> Plan:
    n, rounds, per_round, pool, cores, cpn = (
        (400, 2, 20, 16, 4, 2) if tiny else (2000, 12, 100, 64, 8, 4)
    )
    n_tenants = 4
    X_all = deep_like(n + rounds * per_round, 96, seed=_sub_seed(seed, 1))
    X, X_new = X_all[:n], X_all[n:]
    metadata = {"tenant": _rng(seed, 2).integers(0, n_tenants, n)}
    hot = sample_queries(X, pool, noise_scale=0.1, seed=_sub_seed(seed, 3))
    steps = []
    for r in range(rounds):
        steps.append(Step("insert", X_new[r * per_round : (r + 1) * per_round]))
        q = np.ascontiguousarray(
            hot[zipf_query_targets(per_round, pool, 1.1, seed=_sub_seed(seed, 4, r))]
        )
        # each round's Poisson arrivals are drawn here, not by the program
        # from its config seed, so rounds do not all replay one schedule
        times = np.cumsum(_rng(seed, 5, r).exponential(1.0 / DEEP96_RATE, per_round))
        arrival = "trace:" + ",".join(repr(float(t)) for t in times)
        steps.append(Step("query", q, arrival=arrival))
        steps.append(Step("query", q, "tenant", tenant=r % n_tenants, arrival=arrival))
    config = SystemConfig(
        n_cores=cores,
        cores_per_node=cpn,
        k=K,
        one_sided=False,
        arrival=f"poisson:{DEEP96_RATE}",  # every call replaces it with its trace
        cache_size=64,
        slo_ms=DEEP96_SLO_MS,
        seed=seed,
    )
    sizes = {"n": n, "dim": 96, "rounds": rounds, "inserts_per_round": per_round,
             "queries_per_call": per_round, "hot_pool": pool, "tenants": n_tenants,
             "cores": cores, "cores_per_node": cpn, "rate": DEEP96_RATE,
             "slo_ms": DEEP96_SLO_MS, "arrivals": "Poisson trace drawn per round"}
    return Plan("deep96-ingest-serve", config, X, metadata, steps, sizes)


WORKLOADS = {
    "sift128-closed": sift128_closed,
    "modeled256-skew": modeled256_skew,
    "deep96-ingest-serve": deep96_ingest_serve,
}


@dataclass
class Truth:
    """Brute-force answers and predicate masks for every query step."""

    #: per query step: ground-truth ids (n, K)
    ids: list[np.ndarray]
    #: per query step: boolean mask over the current corpus' global ids
    #: of the rows the step's predicate admits (None = unfiltered)
    allowed: list[np.ndarray | None]


def _step_mask(step: Step, attrs: dict | None, n_rows: int) -> np.ndarray | None:
    clauses = []
    if step.filter is not None:
        clauses.append(FilterSpec.parse(step.filter))
    if step.tenant is not None:
        clauses.append(FilterSpec("tenant", "eq", int(step.tenant)))
    if not clauses:
        return None
    return mask_for(attrs, clauses, n_rows)


def ground_truth(plan: Plan) -> Truth:
    """Exact k-NN over the corpus as it stands at each query step.

    Inserted rows get the next global ids in order, as ``add_points``
    assigns them, and carry no attributes (``add_points`` takes none), so
    no predicate admits them.
    """
    corpus = plan.X
    attrs = None
    if plan.metadata is not None:
        attrs = {k: np.asarray(v, dtype=np.int64) for k, v in plan.metadata.items()}
    ids, allowed = [], []
    for step in plan.steps:
        if step.kind == "insert":
            corpus = np.concatenate([corpus, step.X])
            if attrs is not None:
                attrs = {
                    k: np.concatenate([v, np.full(len(step.X), -1, dtype=np.int64)])
                    for k, v in attrs.items()
                }
            continue
        mask = _step_mask(step, attrs, len(corpus))
        rows = np.arange(len(corpus)) if mask is None else np.flatnonzero(mask)
        _, local = brute_force_knn(corpus[rows], step.X, K)
        ids.append(rows[local])
        allowed.append(mask)
    return Truth(ids, allowed)
