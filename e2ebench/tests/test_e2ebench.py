"""Tests of the end-to-end benchmark itself, on the tiny size of each workload.

Run from the root of a checkout::

    python3 -m pytest e2ebench/tests -q
"""

from __future__ import annotations

import io
import json
import os
import sys

import pytest

_HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(_HERE))

import run  # noqa: E402
from layers import LayerTracer  # noqa: E402
from repro import DistributedANN  # noqa: E402
from repro.simmpi import ProcError  # noqa: E402
from repro.simmpi.engine import Simulation  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

NAMES = sorted(WORKLOADS)


def _run(workload: str, trace: bool, seed: int = 5) -> tuple[dict, str]:
    out = io.StringIO()
    result = run.run(workload, seed, 0.1, trace, tiny=True, out=out)
    text = out.getvalue()
    assert json.loads(text.strip().splitlines()[-1]) == result
    return result, text


@pytest.mark.parametrize("workload", NAMES)
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_prints_with_its_unit(workload, trace):
    result, text = _run(workload, trace)
    assert result["correct"], text
    names = run.PER_LAYER if trace else run.END_TO_END
    assert set(result["metrics"]) == set(names)
    for name, (unit, clock) in names.items():
        assert result["metrics"][name]["unit"] == unit
        assert isinstance(result["metrics"][name]["value"], float | int)
    table = {
        line.split()[0]: line.split()
        for line in text.splitlines()
        if line.startswith("  ") and not line.strip().startswith("cache.hit_ratio")
    }
    shown = {**run.END_TO_END, **run.WORKLOAD_ONLY, **(run.PER_LAYER if trace else {})}
    for name, (unit, clock) in shown.items():
        assert table[name][2:] == [unit, clock], name
    if not trace:
        for name in run.END_TO_END:
            assert result["metrics"][name]["value"] > 0, name


@pytest.mark.parametrize("workload", NAMES)
def test_traced_and_untraced_episodes_agree(workload):
    plan = WORKLOADS[workload](3, tiny=True)
    plain = run.run_episode(plan)
    again = run.run_episode(plan)
    traced = run.run_episode(plan, LayerTracer())
    assert plain.results_sha256 == again.results_sha256 == traced.results_sha256
    assert plain.virtual_sha256 == again.virtual_sha256 == traced.virtual_sha256


def test_tracer_restores_the_program():
    originals = {attr: Simulation.__dict__[attr] for attr in ("run", "add_proc")}
    with LayerTracer().active():
        assert Simulation.__dict__["run"] is not originals["run"]
    assert all(Simulation.__dict__[attr] is fn for attr, fn in originals.items())


def test_a_raising_call_counts_as_failed(monkeypatch):
    query = DistributedANN.query

    def flaky(self, Q, k=None, *, filter=None, tenant=None):
        if tenant is not None:
            raise ProcError("injected failure")
        return query(self, Q, k, filter=filter, tenant=tenant)

    monkeypatch.setattr(DistributedANN, "query", flaky)
    plan = WORKLOADS["sift128-closed"](5, tiny=True)
    tenant_queries = sum(len(s.X) for s in plan.steps if s.tenant is not None)
    assert tenant_queries > 0
    result, text = _run("sift128-closed", trace=False)
    episodes = result["attempted"] // plan.n_queries
    assert result["failed"] == episodes * tenant_queries
    failed_line = next(line for line in text.splitlines() if "failed_fraction" in line)
    assert float(failed_line.split()[1]) == pytest.approx(tenant_queries / plan.n_queries, rel=1e-4)


def test_benchmark_json_matches_the_tables():
    with open(os.path.join(os.path.dirname(os.path.dirname(_HERE)), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        k: u for k, (u, _) in run.END_TO_END.items()
    }
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        k: u for k, (u, _) in run.PER_LAYER.items()
    }
