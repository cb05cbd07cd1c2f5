"""End-to-end benchmark of ``DistributedANN.fit`` + ``query`` (+ ``add_points``).

Usage, from the root of a checkout::

    python3 e2ebench/run.py --workload sift128-closed --seed 1 --seconds 36 --trace 0

One run measures one workload for ``--seconds`` host seconds.  It repeats
*episodes* — a fresh ``fit`` followed by the workload's fixed sequence of
public calls — until the next episode would overrun the time, and checks
every episode's answers.  ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` alternates untraced and traced episodes and prints the
per-layer metrics (see ``layers.py``).  The last line of standard output
is one JSON object ``{"correct", "attempted", "failed", "metrics"}``; the
lines above it print every metric by name with its unit and clock, the
workload's seed, sizes and config, which HNSW code path ran, and the
``results_sha256`` digest.  README.md beside this file explains the
workloads and metrics.

The program is imported from ``src/`` of the checkout this file sits in;
a run outside a full checkout exits with code 2 before measuring.
"""

from __future__ import annotations

import argparse
import os
import sys

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# one process, no extra threads: pin BLAS before numpy loads, and keep the
# compiled-kernel cache (repro.utils.cbuild writes to the temp dir) inside
# the checkout
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
_CACHE = os.path.join(_ROOT, ".e2ebench_cache")
os.environ["TMPDIR"] = _CACHE

import contextlib  # noqa: E402
import dataclasses  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from time import perf_counter  # noqa: E402

#: recall@10 floors per workload, checked on every run: 0.08 or more below
#: the lowest recall measured on the commit that introduced the benchmark
#: (0.688, 0.547 and 0.883 over 20, 25 and 35 seeds)
RECALL_FLOOR = {
    "sift128-closed": 0.60,
    "modeled256-skew": 0.45,
    "deep96-ingest-serve": 0.80,
}

#: the traced run must attribute at least this share of the host time
#: spent inside fit/query/add_points to wrapped layer spans
ACCOUNTED_FLOOR = 0.90

#: name -> (unit, clock).  The first block is the end-to-end set every
#: workload reports (--trace 0); the second holds end-to-end metrics that
#: exist only on some workloads, printed in the table but not in the JSON
#: line; the third is the per-layer set (--trace 1).
END_TO_END = {
    "setup_s": ("s", "host"),
    "setup_virtual_s": ("s", "virtual"),
    "peak_rss_mb": ("MiB", "host"),
    "query_host_qps": ("queries/s", "host"),
    "query_call_p50_ms": ("ms", "host"),
    "virtual_qps": ("queries/s", "virtual"),
    "recall_at_10": ("ratio", "-"),
}
WORKLOAD_ONLY = {
    "query_call_p90_ms": ("ms", "host"),
    "insert_pts_per_s": ("points/s", "host"),
    "virtual_p50_ms": ("ms", "virtual"),
    "virtual_p99_ms": ("ms", "virtual"),
    "slo_violation_fraction": ("ratio", "virtual"),
    "failed_fraction": ("ratio", "-"),
}
PER_LAYER = {
    "simmpi.run_s": ("s", "host"),
    "simmpi.self_s": ("s", "host"),
    "simmpi.events": ("count", "virtual"),
    "simmpi.msgs": ("count", "virtual"),
    "simmpi.bytes": ("bytes", "virtual"),
    "simmpi.events_per_self_s": ("1/s", "host"),
    "vptree.build_s": ("s", "host"),
    "vptree.route_calls": ("count", "-"),
    "vptree.route_s": ("s", "host"),
    "vptree.route_dist_evals": ("count", "-"),
    "hnsw.insert_calls": ("count", "-"),
    "hnsw.insert_points": ("count", "-"),
    "hnsw.insert_s": ("s", "host"),
    "hnsw.insert_dist_evals": ("count", "-"),
    "hnsw.search_calls": ("count", "-"),
    "hnsw.search_queries": ("count", "-"),
    "hnsw.search_s": ("s", "host"),
    "hnsw.search_dist_evals": ("count", "-"),
    "hnsw.native_search": ("flag", "-"),
    "hnsw.native_build": ("flag", "-"),
    "searcher.tasks": ("count", "-"),
    "searcher.s": ("s", "host"),
    "searcher.self_s": ("s", "host"),
    "filter.tasks_pre": ("count", "-"),
    "filter.tasks_post": ("count", "-"),
    "filter.evals_pre": ("count", "-"),
    "filter.evals_post": ("count", "-"),
    "worker.s": ("s", "host"),
    "worker.self_s": ("s", "host"),
    "worker.busy_fraction": ("ratio", "virtual"),
    "worker.imbalance": ("ratio", "virtual"),
    "coordinator.s": ("s", "host"),
    "coordinator.self_s": ("s", "host"),
    "coordinator.tasks_sent": ("count", "-"),
    "coordinator.task_messages": ("count", "-"),
    "coordinator.peak_queued": ("count", "virtual"),
    "coordinator.credit_stall_virtual_s": ("s", "virtual"),
    "cache.hits": ("count", "-"),
    "cache.misses": ("count", "-"),
    "cache.s": ("s", "host"),
    "admission.offered": ("count", "-"),
    "admission.admitted": ("count", "-"),
    "serving.queue_virtual_ms": ("ms", "virtual"),
    "serving.service_virtual_ms": ("ms", "virtual"),
    "runtime.call_overhead_s": ("s", "host"),
    "runtime.report_s": ("s", "host"),
    "trace.overhead_fraction": ("ratio", "host"),
    "trace.accounted_fraction": ("ratio", "host"),
}


def _import_program():
    """Import the program from this checkout's ``src/`` or exit with 2."""
    src = os.path.join(_ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"e2ebench: no program under {src}", file=sys.stderr)
        raise SystemExit(2)
    os.makedirs(_CACHE, exist_ok=True)
    sys.path.insert(0, src)
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))


_import_program()

import numpy as np  # noqa: E402

from layers import LayerTracer  # noqa: E402
from repro import DistributedANN  # noqa: E402
from repro.eval import per_query_recall  # noqa: E402
from repro.simmpi import ProcError  # noqa: E402
from workloads import WORKLOADS, Plan, Step, Truth, ground_truth  # noqa: E402


@dataclass
class Call:
    """One step of an episode as it ran, and what it returned."""

    step: Step
    host_s: float
    ok: bool = True
    I: np.ndarray | None = None
    report: object = None

    @property
    def kind(self) -> str:
        return self.step.kind

    @property
    def n(self) -> int:
        return len(self.step.X)


@dataclass
class Episode:
    """A fresh fit plus the workload's call sequence."""

    setup_s: float
    build: object
    native_search: bool
    native_build: bool
    calls: list[Call] = field(default_factory=list)
    results_sha256: str = ""
    virtual_sha256: str = ""

    @property
    def wall_s(self) -> float:
        return self.setup_s + sum(c.host_s for c in self.calls)


def run_episode(plan: Plan, tracer: LayerTracer | None = None) -> Episode:
    """Fit, then issue every step; only ProcError counts as a failed call."""
    results = hashlib.sha256()
    virtual = hashlib.sha256()
    with tracer.active() if tracer else contextlib.nullcontext():
        if tracer:
            tracer.phase = "fit"
        ann = DistributedANN(plan.config)
        t0 = perf_counter()
        build = ann.fit(plan.X, metadata=plan.metadata)
        setup_s = perf_counter() - t0
        indexes = [p.index for p in ann.partitions.values() if p.index is not None]
        ep = Episode(
            setup_s,
            build,
            native_search=any(ix.native_search_active for ix in indexes),
            native_build=any(ix.native_build_active for ix in indexes),
        )
        virtual.update(repr((build.total_seconds, build.partition_sizes)).encode())
        for step in plan.steps:
            if tracer:
                tracer.phase = step.kind
            t0 = perf_counter()
            if step.kind == "insert":
                ann.add_points(step.X)
                ep.calls.append(Call(step, perf_counter() - t0))
                continue
            if step.arrival is not None:
                ann.config = dataclasses.replace(ann.config, arrival=step.arrival)
            try:
                D, I, report = ann.query(step.X, filter=step.filter, tenant=step.tenant)
            except ProcError:
                ep.calls.append(Call(step, perf_counter() - t0, ok=False))
                results.update(b"failed")
                virtual.update(b"failed")
                continue
            ep.calls.append(Call(step, perf_counter() - t0, True, I, report))
            results.update(np.ascontiguousarray(D, dtype=np.float64).tobytes())
            results.update(np.ascontiguousarray(I, dtype=np.int64).tobytes())
            lat = report.query_latencies
            virtual.update(repr((report.total_seconds, report.n_events)).encode())
            virtual.update(b"" if lat is None else np.asarray(lat).tobytes())
    ep.results_sha256 = results.hexdigest()
    ep.virtual_sha256 = virtual.hexdigest()
    return ep


def check_episode(plan: Plan, truth: Truth, ep: Episode, errors: list[str]) -> float:
    """Check one episode's answers; returns its recall@10 over answered queries."""
    recalls = []
    qi = 0
    for call in ep.calls:
        if call.kind != "query":
            continue
        gt, allowed = truth.ids[qi], truth.allowed[qi]
        qi += 1
        if not call.ok:
            continue
        if call.I.shape != gt.shape:
            errors.append(f"result shape {call.I.shape} != {gt.shape}")
            continue
        if allowed is not None:
            got = call.I[call.I >= 0]
            if np.any(got >= len(allowed)) or not np.all(allowed[got]):
                errors.append(f"a {call.step.label} call returned rows outside its predicate")
        recalls.append(per_query_recall(call.I, gt))
    recall = float(np.mean(np.concatenate(recalls))) if recalls else float("nan")
    if not recall >= RECALL_FLOOR[plan.name]:
        errors.append(f"recall@10 {recall:.4f} below floor {RECALL_FLOOR[plan.name]}")
    return recall


def _percentile_ms(values: list[float], q: float) -> float | None:
    """The q-th percentile in ms, or None when fewer than ten samples lie beyond it."""
    if len(values) * (100 - q) < 1000:
        return None
    return float(np.percentile(values, q)) * 1e3


def end_to_end(plan: Plan, episodes: list[Episode], recall: float) -> dict:
    """Every end-to-end metric that has a value on this workload."""
    first = episodes[0]
    # every episode repeats each call on identical state, so the spread of
    # one call's repeats is the machine's noise, not the program's: a call's
    # host time is the median of its repeats, which one disturbed episode
    # does not move
    call_s = [
        statistics.median(ep.calls[i].host_s for ep in episodes)
        for i in range(len(first.calls))
    ]
    ok1 = [i for i, c in enumerate(first.calls) if c.kind == "query" and c.ok]
    inserts = [i for i, c in enumerate(first.calls) if c.kind == "insert"]
    failed1 = sum(c.n for c in first.calls if c.kind == "query" and not c.ok)
    out = {
        "setup_s": statistics.median(ep.setup_s for ep in episodes),
        "setup_virtual_s": first.build.total_seconds,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "failed_fraction": failed1 / sum(c.n for c in first.calls),
    }
    reports = [first.calls[i].report for i in ok1]
    if ok1:
        n_ok = sum(first.calls[i].n for i in ok1)
        answered_s = [call_s[i] for i in ok1]
        out["query_host_qps"] = n_ok / sum(answered_s)
        out["query_call_p50_ms"] = statistics.median(answered_s) * 1e3
        out["query_call_p90_ms"] = _percentile_ms(answered_s, 90)
        out["virtual_qps"] = n_ok / sum(r.total_seconds for r in reports)
        out["recall_at_10"] = recall
        lats = [r.query_latencies for r in reports if r.query_latencies is not None]
        if lats:
            lat = np.concatenate(lats)
            lat = lat[np.isfinite(lat)]
            out["virtual_p50_ms"] = float(np.percentile(lat, 50)) * 1e3
            out["virtual_p99_ms"] = _percentile_ms(list(lat), 99)
    if inserts:
        points = sum(first.calls[i].n for i in inserts)
        out["insert_pts_per_s"] = points / sum(call_s[i] for i in inserts)
    if plan.config.slo_ms > 0:
        late = sum(
            int(np.sum(r.query_latencies[np.isfinite(r.query_latencies)] > r.slo_target_seconds))
            + r.shed_queries + r.rejected_queries
            for r in reports
        )
        offered = sum(r.offered_queries for r in reports)
        out["slo_violation_fraction"] = (late + failed1) / (offered + failed1)
    return {k: v for k, v in out.items() if v is not None}


def per_layer(traced: list[tuple[Episode, LayerTracer]], untraced: list[Episode]) -> dict:
    """Per-layer metrics, each the mean over the traced episodes."""
    out: dict[str, float] = {name: 0.0 for name in PER_LAYER}
    for ep, tr in traced:
        def t(phase, layer, table=tr.total):
            return table.get((phase, layer), 0.0)

        def both(table, layer):
            return sum(table.get((p, layer), 0) for p in ("fit", "query", "insert"))

        reports = [c.report for c in ep.calls if c.kind == "query" and c.ok]
        query_host = sum(c.host_s for c in ep.calls if c.kind == "query")
        counters = [r.metrics.get("counters", {}) for r in reports]
        sim_self = t("query", "simmpi", tr.self_time)
        add = {
            "simmpi.run_s": t("query", "simmpi"),
            "simmpi.self_s": sim_self,
            "simmpi.events": sum(r.n_events for r in reports),
            "simmpi.msgs": sum(c.get("sim.msgs_sent", 0) for c in counters),
            "simmpi.bytes": sum(c.get("sim.bytes_sent", 0) for c in counters),
            "vptree.build_s": t("fit", "builder", tr.self_time),
            "vptree.route_calls": both(tr.calls, "vptree.route"),
            "vptree.route_s": both(tr.total, "vptree.route"),
            "vptree.route_dist_evals": both(tr.evals, "vptree.route"),
            "hnsw.insert_calls": both(tr.calls, "hnsw.insert"),
            "hnsw.insert_points": both(tr.units, "hnsw.insert"),
            "hnsw.insert_s": both(tr.total, "hnsw.insert"),
            "hnsw.insert_dist_evals": both(tr.evals, "hnsw.insert"),
            "hnsw.search_calls": both(tr.calls, "hnsw.search"),
            "hnsw.search_queries": both(tr.units, "hnsw.search"),
            "hnsw.search_s": both(tr.total, "hnsw.search"),
            "hnsw.search_dist_evals": both(tr.evals, "hnsw.search"),
            "hnsw.native_search": int(ep.native_search),
            "hnsw.native_build": int(ep.native_build),
            "searcher.tasks": both(tr.units, "searcher"),
            "searcher.s": both(tr.total, "searcher"),
            "searcher.self_s": both(tr.self_time, "searcher"),
            "filter.tasks_pre": sum(r.filter_tasks_pre for r in reports),
            "filter.tasks_post": sum(r.filter_tasks_post for r in reports),
            "filter.evals_pre": sum(r.filter_evals_pre for r in reports),
            "filter.evals_post": sum(r.filter_evals_post for r in reports),
            "worker.s": t("query", "worker"),
            "worker.self_s": t("query", "worker", tr.self_time),
            "coordinator.s": t("query", "coordinator"),
            "coordinator.self_s": t("query", "coordinator", tr.self_time),
            "coordinator.tasks_sent": sum(r.tasks for r in reports),
            "coordinator.task_messages": sum(r.task_messages for r in reports),
            "coordinator.peak_queued": max(
                (float(np.max(r.queue_depth_timeline[:, 1])) for r in reports
                 if r.queue_depth_timeline is not None and len(r.queue_depth_timeline)),
                default=0.0,
            ),
            "coordinator.credit_stall_virtual_s": sum(r.credit_stall_seconds for r in reports),
            "cache.hits": sum(r.cache_hits for r in reports),
            "cache.misses": sum(r.cache_misses for r in reports),
            "cache.s": both(tr.total, "cache"),
            "admission.offered": sum(r.offered_queries for r in reports),
            "admission.admitted": sum(r.admitted_queries for r in reports),
            "serving.queue_virtual_ms": _mean_ms(r.queue_seconds for r in reports),
            "serving.service_virtual_ms": _mean_ms(r.service_seconds for r in reports),
            "runtime.call_overhead_s": query_host - t("query", "simmpi"),
            "runtime.report_s": t("query", "runtime.report"),
            "trace.accounted_fraction": sum(tr.root.values()) / ep.wall_s,
        }
        busy = [r.core_busy_seconds for r in reports if r.core_busy_seconds is not None]
        if busy:
            per_core = np.sum(busy, axis=0)
            span = sum(r.total_seconds for r in reports) * len(per_core)
            add["worker.busy_fraction"] = float(per_core.sum()) / span
            add["worker.imbalance"] = float(per_core.max() / per_core.mean())
        if sim_self > 0:
            add["simmpi.events_per_self_s"] = add["simmpi.events"] / sim_self
        for name, value in add.items():
            out[name] += value / len(traced)
    out["trace.overhead_fraction"] = (
        sum(ep.wall_s for ep, _ in traced) / sum(ep.wall_s for ep in untraced) - 1.0
    )
    return out


def _mean_ms(arrays) -> float:
    vals = [a[np.isfinite(a)] for a in arrays if a is not None]
    vals = np.concatenate(vals) if vals else np.empty(0)
    return float(vals.mean()) * 1e3 if len(vals) else 0.0


def measure(plan: Plan, seconds: float, trace: bool) -> tuple[list, list]:
    """Run episodes until the next one would overrun ``seconds``.

    Untraced runs make at least two episodes; traced runs alternate an
    untraced and a traced episode, at least one pair.
    """
    untraced: list[Episode] = []
    traced: list[tuple[Episode, LayerTracer]] = []
    deadline = perf_counter() + seconds
    while True:
        t0 = perf_counter()
        untraced.append(run_episode(plan))
        # free the finished episode's index before the next fit, so the
        # peak resident memory is one episode's, whenever the collector runs
        gc.collect()
        if trace:
            tracer = LayerTracer()
            traced.append((run_episode(plan, tracer), tracer))
            gc.collect()
        took = perf_counter() - t0
        enough = len(traced) >= 1 if trace else len(untraced) >= 2
        if enough and perf_counter() + took > deadline:
            return untraced, traced


def run(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False,
        out=sys.stdout) -> dict:
    """One benchmark run; prints the report and returns the result object."""
    make = WORKLOADS[workload]
    # untimed warm-up: imports, lazy set-up and the one-time compile of the
    # C kernels happen here, not inside setup_s
    run_episode(make(seed + 1, tiny=True))
    gc.collect()

    plan = make(seed, tiny=tiny)
    truth = ground_truth(plan)
    t0 = perf_counter()
    untraced, traced = measure(plan, seconds, trace)
    measured_s = perf_counter() - t0

    errors: list[str] = []
    recall = check_episode(plan, truth, untraced[0], errors)
    ref = untraced[0]
    for ep in untraced[1:] + [ep for ep, _ in traced]:
        if ep.results_sha256 != ref.results_sha256:
            errors.append("results_sha256 differs between episodes of one seed")
        if ep.virtual_sha256 != ref.virtual_sha256:
            errors.append("virtual metrics differ between episodes of one seed")
    e2e = end_to_end(plan, untraced, recall)
    layer = per_layer(traced, untraced) if trace else {}
    if trace and layer["trace.accounted_fraction"] < ACCOUNTED_FLOOR:
        errors.append(
            f"traced spans account for {layer['trace.accounted_fraction']:.3f} of the "
            f"wall time, below {ACCOUNTED_FLOOR}"
        )

    episodes = untraced + [ep for ep, _ in traced]
    attempted = sum(c.n for ep in episodes for c in ep.calls)
    failed = sum(c.n for ep in episodes for c in ep.calls if not c.ok)

    record = {
        "workload": plan.name,
        "seed": seed,
        "tiny": tiny,
        "sizes": plan.sizes,
        "config": _config_record(plan),
        "hnsw.native_search": int(ref.native_search),
        "hnsw.native_build": int(ref.native_build),
        "episodes": {"untraced": len(untraced), "traced": len(traced)},
        "measured_s": round(measured_s, 3),
        "results_sha256": ref.results_sha256,
        "virtual_sha256": ref.virtual_sha256,
    }
    print("record " + json.dumps(record, sort_keys=True), file=out)
    print(f"hnsw path at d={plan.X.shape[1]}: "
          f"search={'native' if ref.native_search else 'python'} "
          f"build={'native' if ref.native_build else 'python'}", file=out)
    _table("end-to-end (untraced episodes)", {**END_TO_END, **WORKLOAD_ONLY}, e2e, out)
    n_calls = sum(c.kind == "query" and c.ok for c in ref.calls)
    print(f"samples: setup_s is the median of {len(untraced)} fits; each of the "
          f"{n_calls} answered query calls is timed as the median of {len(untraced)} repeats",
          file=out)
    if trace:
        _table("per-layer (traced episodes, mean per episode)", PER_LAYER, layer, out)
        hits, lookups = layer["cache.hits"], layer["cache.hits"] + layer["cache.misses"]
        ratio = f"{hits / lookups:.4f}" if lookups else "n/a"
        print(f"  cache.hit_ratio = {ratio} (base: {lookups:.0f} lookups)", file=out)
    for err in errors:
        print(f"CHECK FAILED: {err}", file=out)

    names = PER_LAYER if trace else END_TO_END
    metrics = {}
    for name, (unit, _) in names.items():
        source = layer if trace else e2e
        if name in source:
            metrics[name] = {"value": source[name], "unit": unit}
    result = {
        "correct": not errors and len(metrics) == len(names),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result), file=out)
    return result


def _config_record(plan: Plan) -> dict:
    cfg = plan.config
    keys = ("n_cores", "cores_per_node", "k", "n_probe", "ef_search", "one_sided",
            "searcher", "replication_factor", "replica_selector", "arrival",
            "cache_size", "slo_ms")
    rec = {k: getattr(cfg, k) for k in keys}
    rec["hnsw"] = {"M": cfg.hnsw.M, "ef_construction": cfg.hnsw.ef_construction}
    return rec


def _table(title: str, names: dict, values: dict, out) -> None:
    print(f"{title}:", file=out)
    for name, (unit, clock) in names.items():
        value = values.get(name)
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:<36} {shown:>14} {unit:<10} {clock}", file=out)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink the workload to a few seconds (for the tests)")
    args = parser.parse_args(argv)
    run(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny)
    return 0


if __name__ == "__main__":
    sys.exit(main())
