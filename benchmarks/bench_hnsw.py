"""HNSW hot-path benchmark: build throughput, query throughput, recall.

The simulated cluster charges *virtual* seconds for every search, but the
algorithmic work — HNSW build and search — runs for real in NumPy, so its
wall-clock cost is the real cost of every experiment and test run in this
repo.  This harness measures that cost on a seeded clustered dataset and
writes ``BENCH_hnsw.json`` at the repo root:

- build points/s (bulk ``add_items`` of the whole corpus),
- single-query qps (one ``knn_search`` call per query),
- batched qps (``knn_search_batch`` over the whole query matrix; falls back
  to the single-query loop on index versions without the batch API),
- recall@k against exact brute force,
- distance evaluations per query (the quantity virtual time is charged on),
- a SHA-256 checksum of the (D, I) results, so two implementations can be
  compared for bit-identical output at a fixed seed.

Every report records which HNSW code path ran and why (``native``: the
index's ``native_reason`` for search and build).  ``--dims 32,96,128``
adds a dimension axis: at each dim, one row on the compiled paths and one
with ``REPRO_HNSW_NO_NATIVE=1`` (the python fallback), plus the per-call
cost of the numpy reference l2 kernel the fallback runs on — so a path
that silently stops being compiled at some dim shows up as a number.

If a previous ``BENCH_hnsw.json`` exists it is folded into the new file as
``previous`` (plus a rolling ``history``), and the combined build+search
speedup against it is computed — the recorded perf trajectory.

Run via ``make bench`` (full size: n=20k, d=32, plus the dim axis at n=5k)
or ``make bench-smoke`` (``--tiny``; used by CI, which also enforces a
recall floor and, with ``--require-native``, that a compiler-equipped host
really runs the compiled paths at d=128).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time
import timeit
from contextlib import contextmanager
from datetime import datetime, timezone

import numpy as np

_HERE = os.path.dirname(os.path.abspath(__file__))
_SRC = os.path.join(os.path.dirname(_HERE), "src")
if _SRC not in sys.path:
    try:
        import repro  # noqa: F401
    except ImportError:
        sys.path.insert(0, _SRC)
if _HERE not in sys.path:
    sys.path.insert(0, _HERE)

from trajectory import (  # noqa: E402
    fold_previous,
    load_previous,
    missing_keys,
    results_checksum,
)

import repro.hnsw.native as hnsw_native  # noqa: E402
from repro.datasets import brute_force_knn  # noqa: E402
from repro.hnsw import HnswIndex, HnswParams  # noqa: E402
from repro.hnsw.kernels import fast_kernel_for  # noqa: E402

#: keys every BENCH_hnsw.json must provide (CI's bench-smoke checks these)
REQUIRED_KEYS = (
    "schema",
    "config",
    "build.seconds",
    "build.points_per_s",
    "search.single_qps",
    "search.batched_qps",
    "search.recall_at_k",
    "search.dist_evals_per_query",
    "combined_seconds",
    "results_sha256",
)


def make_dataset(n: int, dim: int, n_queries: int, seed: int):
    """Seeded clustered corpus + queries (queries are perturbed base points)."""
    rng = np.random.default_rng([seed, 0xBE7C])
    n_clusters = 32
    centers = rng.normal(0.0, 4.0, size=(n_clusters, dim)).astype(np.float32)
    assign = rng.integers(0, n_clusters, size=n)
    X = (centers[assign] + rng.normal(0.0, 1.0, size=(n, dim))).astype(np.float32)
    picks = rng.choice(n, size=n_queries, replace=False)
    Q = (X[picks] + rng.normal(0.0, 0.1, size=(n_queries, dim))).astype(np.float32)
    return X, Q


def search_batched(index: HnswIndex, Q: np.ndarray, k: int, ef: int):
    """Batched search, tolerating index versions without the batch API."""
    batch = getattr(index, "knn_search_batch", None)
    if batch is not None:
        return batch(Q, k, ef=ef)
    D = np.full((len(Q), k), np.inf, dtype=np.float64)
    ids = np.full((len(Q), k), -1, dtype=np.int64)
    for i in range(len(Q)):
        d, nn = index.knn_search(Q[i], k, ef=ef)
        D[i, : len(d)] = d
        ids[i, : len(nn)] = nn
    return D, ids


@contextmanager
def python_fallback():
    """Indexes made inside run on the python paths, as with
    ``REPRO_HNSW_NO_NATIVE=1`` (the loader's sticky state is reset
    around the block so the hatch is honoured mid-process)."""
    saved = hnsw_native._lib, hnsw_native._lib_state
    os.environ["REPRO_HNSW_NO_NATIVE"] = "1"
    hnsw_native._lib, hnsw_native._lib_state = None, "unloaded"
    try:
        yield
    finally:
        del os.environ["REPRO_HNSW_NO_NATIVE"]
        hnsw_native._lib, hnsw_native._lib_state = saved


def kernel_call_us(dim: int, rows: int = 25, seed: int = 0) -> dict:
    """Per-call cost of the python fallback's l2 kernel on one beam hop.

    ``reference``: the canonical-reduction numpy kernel the python paths
    run; ``einsum``: numpy's einsum row-dot, the pre-canonical kernel,
    kept as the yardstick for what the reference costs.
    """
    rng = np.random.default_rng(seed)
    sub = rng.normal(size=(rows, dim)).astype(np.float32)
    q = rng.normal(size=dim).astype(np.float32)
    ref = fast_kernel_for("l2")

    def einsum():
        diff = sub - q
        return np.sqrt(np.einsum("ij,ij->i", diff, diff))

    out = {}
    for name, fn in (("reference", lambda: ref(q, sub)), ("einsum", einsum)):
        n = 2000
        out[name] = round(min(timeit.repeat(fn, number=n, repeat=5)) / n * 1e6, 2)
    return out


#: corpus size of the dimension axis (capped at ``--n``)
SWEEP_N = 5000


def _sweep_row(dim: int, path: str, r: dict) -> dict:
    return {
        "dim": dim,
        "path": path,
        "n": r["config"]["n"],
        "native": r["native"],
        "build_points_per_s": r["build"]["points_per_s"],
        "single_qps": r["search"]["single_qps"],
        "batched_qps": r["search"]["batched_qps"],
        "recall_at_k": r["search"]["recall_at_k"],
        "dist_evals_per_query": r["search"]["dist_evals_per_query"],
        "results_sha256": r["results_sha256"],
    }


def dim_sweep(args: argparse.Namespace) -> list[dict]:
    """Compiled and python-fallback rows at every ``--dims`` width."""
    rows = []
    for dim in args.dims:
        sub = argparse.Namespace(**{**vars(args), "dim": dim, "n": min(SWEEP_N, args.n)})
        native = _sweep_row(dim, "native", run(sub))
        with python_fallback():
            python = _sweep_row(dim, "python", run(sub))
        python["l2_kernel_us_per_25_row_call"] = kernel_call_us(dim)
        python["bit_identical_to_native"] = python["results_sha256"] == native["results_sha256"]
        rows += [native, python]
    return rows


def run(args: argparse.Namespace) -> dict:
    X, Q = make_dataset(args.n, args.dim, args.n_queries, args.seed)
    gt_d, gt_i = brute_force_knn(X, Q, args.k, metric=args.metric)
    params = HnswParams(
        M=args.M, ef_construction=args.ef_construction, ef_search=args.ef_search, seed=args.seed
    )

    index = HnswIndex(dim=args.dim, params=params, metric=args.metric, capacity=args.n)
    native = {
        "search": index.native_reason,
        "build": index.native_build_reason,
        "search_active": index.native_search_active,
        "build_active": index.native_build_active,
    }
    t0 = time.perf_counter()
    index.add_items(X)
    build_seconds = time.perf_counter() - t0
    build_evals = index.n_dist_evals

    # single-query pass (one Python call per query, the worker's unbatched path)
    t0 = time.perf_counter()
    singles = [index.knn_search(Q[i], args.k, ef=args.ef_search) for i in range(len(Q))]
    single_seconds = time.perf_counter() - t0
    search_evals = index.n_dist_evals - build_evals
    D = np.full((len(Q), args.k), np.inf, dtype=np.float64)
    ids = np.full((len(Q), args.k), -1, dtype=np.int64)
    for i, (d, nn) in enumerate(singles):
        D[i, : len(d)] = d
        ids[i, : len(nn)] = nn

    # batched pass (amortized dispatch; identical traversal per query)
    t0 = time.perf_counter()
    Db, idsb = search_batched(index, Q, args.k, args.ef_search)
    batched_seconds = time.perf_counter() - t0

    if not (np.array_equal(ids, idsb) and np.array_equal(D, Db)):
        print("WARNING: batched results differ from single-query results", file=sys.stderr)

    hits = sum(len(set(ids[i][ids[i] >= 0]) & set(gt_i[i])) for i in range(len(Q)))
    recall = hits / (len(Q) * args.k)

    report = {
        "schema": 1,
        "created": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "config": {
            "n": args.n,
            "dim": args.dim,
            "n_queries": args.n_queries,
            "k": args.k,
            "M": args.M,
            "ef_construction": args.ef_construction,
            "ef_search": args.ef_search,
            "metric": args.metric,
            "seed": args.seed,
        },
        "build": {
            "seconds": round(build_seconds, 4),
            "points_per_s": round(args.n / build_seconds, 1),
            "dist_evals": int(build_evals),
        },
        "search": {
            "single_seconds": round(single_seconds, 4),
            "single_qps": round(len(Q) / single_seconds, 1),
            "batched_seconds": round(batched_seconds, 4),
            "batched_qps": round(len(Q) / batched_seconds, 1),
            "recall_at_k": round(recall, 4),
            "dist_evals_per_query": round(search_evals / len(Q), 1),
        },
        "combined_seconds": round(build_seconds + single_seconds + batched_seconds, 4),
        "results_sha256": results_checksum(D, ids),
        "native": native,
    }
    return report


#: fields a previous run keeps when folded into the trajectory history
#: (bespoke flat names mapped onto the nested report — key names are pinned
#: so the recorded history stays continuous across harness versions)
TRIM_FIELDS = {
    "created": "created",
    "config": "config",
    # the full build block (seconds + dist_evals, not just the headline
    # points_per_s) so the build-speedup trajectory is reconstructable
    "build": "build",
    "build_points_per_s": "build.points_per_s",
    "single_qps": "search.single_qps",
    "batched_qps": "search.batched_qps",
    "recall_at_k": "search.recall_at_k",
    "dist_evals_per_query": "search.dist_evals_per_query",
    "combined_seconds": "combined_seconds",
    "results_sha256": "results_sha256",
    "native": "native",
    "dims": "dims",
}


def fold_with_speedup(report: dict, out_path: str) -> dict:
    """Record the previous run (and history) and the speedup against it."""
    prev = load_previous(out_path)
    if prev is None:
        return report
    fold_previous(report, out_path, trim_fields=TRIM_FIELDS)
    prev_combined = prev.get("combined_seconds")
    comparable = prev.get("config") == report["config"]
    if comparable and prev_combined:
        report["speedup_vs_previous"] = round(prev_combined / report["combined_seconds"], 2)
        report["bit_identical_to_previous"] = (
            prev.get("results_sha256") == report["results_sha256"]
        )
    elif not comparable:
        print("NOTE: previous run used a different config; no speedup computed")
    return report


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="HNSW hot-path benchmark")
    ap.add_argument("--n", type=int, default=20_000, help="corpus size")
    ap.add_argument("--dim", type=int, default=32)
    ap.add_argument("--n-queries", type=int, default=200, dest="n_queries")
    ap.add_argument("--k", type=int, default=10)
    ap.add_argument("--M", type=int, default=16)
    ap.add_argument("--ef-construction", type=int, default=100, dest="ef_construction")
    ap.add_argument("--ef-search", type=int, default=64, dest="ef_search")
    ap.add_argument("--metric", default="l2")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", default="BENCH_hnsw.json")
    ap.add_argument(
        "--tiny", action="store_true", help="CI smoke size (n=2000, 50 queries)"
    )
    ap.add_argument(
        "--dims",
        type=lambda s: [int(d) for d in s.split(",")],
        default=None,
        help="comma-separated dims for the native/python dimension axis",
    )
    ap.add_argument(
        "--require-native",
        action="store_true",
        dest="require_native",
        help="exit non-zero if a C compiler exists but a compiled path is off",
    )
    ap.add_argument(
        "--min-recall",
        type=float,
        default=None,
        dest="min_recall",
        help="exit non-zero if recall@k falls below this floor",
    )
    args = ap.parse_args(argv)
    if args.tiny:
        args.n, args.n_queries = 2000, 50

    report = run(args)
    if args.dims:
        report["dims"] = dim_sweep(args)
    report = fold_with_speedup(report, args.out)

    missing = missing_keys(report, REQUIRED_KEYS)
    if missing:
        print(f"ERROR: benchmark report is missing keys: {missing}", file=sys.stderr)
        return 2

    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")

    b, s = report["build"], report["search"]
    print(
        f"build   {b['points_per_s']:>12,.0f} pts/s   ({b['seconds']:.2f}s, "
        f"{b['dist_evals']:,} dist evals)"
    )
    print(f"single  {s['single_qps']:>12,.0f} q/s     ({s['dist_evals_per_query']:.0f} evals/query)")
    print(f"batched {s['batched_qps']:>12,.0f} q/s")
    print(f"recall@{report['config']['k']} = {s['recall_at_k']:.4f}")
    nat = report["native"]
    print(f"hnsw path at d={args.dim}: search={nat['search']} build={nat['build']}")
    for row in report.get("dims", []):
        line = (
            f"  d={row['dim']:<4d} {row['path']:<6s} build {row['build_points_per_s']:>9,.0f} pts/s"
            f"  single {row['single_qps']:>8,.0f} q/s  batched {row['batched_qps']:>8,.0f} q/s"
            f"  recall {row['recall_at_k']:.4f}"
        )
        if row["path"] == "python":
            us = row["l2_kernel_us_per_25_row_call"]
            same = "identical" if row["bit_identical_to_native"] else "DIFFERENT"
            line += f"  (l2 kernel {us['reference']} vs einsum {us['einsum']} us/call; {same})"
        print(line)
    if "speedup_vs_previous" in report:
        ident = "bit-identical" if report.get("bit_identical_to_previous") else "DIFFERENT results"
        print(
            f"combined build+search speedup vs previous run: "
            f"{report['speedup_vs_previous']:.2f}x ({ident})"
        )
    print(f"wrote {args.out}")

    has_cc = shutil.which("gcc") or shutil.which("cc")
    if args.require_native and has_cc and not (nat["search_active"] and nat["build_active"]):
        print(
            f"ERROR: a C compiler is present but the compiled hnsw paths are off at "
            f"d={args.dim} (search={nat['search']}, build={nat['build']})",
            file=sys.stderr,
        )
        return 4
    if any(not row.get("bit_identical_to_native", True) for row in report.get("dims", [])):
        print("ERROR: python-fallback results differ from the compiled paths", file=sys.stderr)
        return 5
    if args.min_recall is not None and s["recall_at_k"] < args.min_recall:
        print(
            f"ERROR: recall@{report['config']['k']} {s['recall_at_k']:.4f} "
            f"below floor {args.min_recall}",
            file=sys.stderr,
        )
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
