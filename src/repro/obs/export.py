"""Trace and metrics exporters: Chrome trace-event JSON and JSONL events.

Two artifact formats share one source of truth (a
:class:`~repro.obs.trace.TraceRecorder` plus the finished
:class:`~repro.runtime.report.SearchReport`):

- :func:`write_chrome_trace` — the Chrome trace-event format
  (``{"traceEvents": [...]}``), loadable directly in Perfetto / ``chrome://
  tracing``.  One thread track per simulated proc, complete (``X``) events
  for spans, instant (``i``) events for markers, counter (``C``) tracks for
  queue depth and in-flight queries, and flow arrows (``s``/``f``) linking
  each master-side ``task_send`` to the worker-side ``queue`` span that
  received it.  Virtual seconds are exported as microseconds (the format's
  native unit).
- :func:`write_events_jsonl` — a schema-versioned JSONL structured event
  log (:data:`EVENTS_SCHEMA`): a header line, then one JSON object per
  span/instant/counter-sample/query record.  The per-query records fold the
  serving-layer :class:`~repro.serving.slo.ServingTimeline`
  (arrival/dispatch/complete, NaN → null for shed queries) and the
  ``LoadTracker`` queue-depth timeline into the same schema, so downstream
  tooling needs exactly one parser.

Both validators return error lists (empty = valid) and treat an unknown
span/instant name as an error — the CI vocabulary drift guard.
"""

from __future__ import annotations

import json
import math
from collections import defaultdict

__all__ = [
    "EVENTS_SCHEMA",
    "INSTANT_NAMES",
    "SPAN_NAMES",
    "chrome_trace",
    "events_lines",
    "validate_chrome_trace",
    "validate_events",
    "write_chrome_trace",
    "write_events_jsonl",
    "write_metrics_json",
]

#: schema version stamped on the JSONL event log header
EVENTS_SCHEMA = "repro.obs.events/v1"

#: the complete span vocabulary — exporters and CI reject anything else
SPAN_NAMES = frozenset(
    {
        "route",  # VP-tree partition routing at a coordinator
        "dispatch",  # task send path (selector pick + credit charge + send)
        "credit_wait",  # coordinator stalled waiting for a dispatch credit
        "queue",  # task sat in a worker rank's mailbox before pickup
        "search",  # local HNSW search on a worker thread
        "reduce",  # result merge at the coordinator / worker-side accumulate
        "drain",  # shutdown/drain phases
        "retry",  # deadline policy re-sent a timed-out task to the same core
        "failover",  # deadline policy moved a timed-out task to a replica
    }
)

#: the complete instant (zero-width marker) vocabulary
INSTANT_NAMES = frozenset(
    {
        "arrive",  # open-loop query arrival at the coordinator
        "admit",  # admission queue began service for a query
        "cache_probe",  # result-cache lookup (attrs: hit=True/False)
        "task_send",  # a task message left the coordinator
        "task_settle",  # a task's result (or credit ack) settled
        "suspect_core",  # deadline policy marked a core as suspected dead
        "complete",  # all of a query's tasks settled; answer finalized
    }
)

_US = 1e6  # virtual seconds -> trace-event microseconds


def _span_query_ids(attrs):
    if not attrs:
        return ()
    qid = attrs.get("query_id")
    if qid is not None:
        return (qid,)
    return tuple(attrs.get("query_ids") or ())


def _finite(x) -> bool:
    return x is not None and not math.isnan(x)


# --------------------------------------------------------------------------
# Chrome trace-event export
# --------------------------------------------------------------------------


def _flow_events(recorder) -> list:
    """Pair master ``task_send`` instants with worker ``queue`` spans.

    Nothing rides the wire, so pairing is positional: the k-th send for a
    ``(query_id, partition)`` key binds to the k-th worker-side receive for
    the same key in virtual-time order.  Retries/failovers produce extra
    sends *and* extra receives for the key, so attempts line up.
    """
    sends = defaultdict(list)  # (qid, partition) -> [(ts, pid)]
    for inst in recorder.instants:
        if inst.name != "task_send":
            continue
        part = (inst.attrs or {}).get("partition")
        for qid in _span_query_ids(inst.attrs):
            sends[(qid, part)].append((inst.ts, inst.pid))
    recvs = defaultdict(list)
    for span in recorder.spans:
        if span.name != "queue":
            continue
        part = (span.attrs or {}).get("partition")
        for qid in _span_query_ids(span.attrs):
            recvs[(qid, part)].append((span.start, span.pid))
    events = []
    flow_id = 0
    for key, out in sorted(sends.items(), key=lambda kv: (str(kv[0][0]), str(kv[0][1]))):
        inbound = sorted(recvs.get(key, []))
        for (s_ts, s_pid), (r_ts, r_pid) in zip(sorted(out), inbound):
            flow_id += 1
            common = {"cat": "task", "name": "task", "id": flow_id}
            events.append(
                {"ph": "s", "pid": 0, "tid": s_pid, "ts": s_ts * _US, **common}
            )
            events.append(
                {"ph": "f", "bp": "e", "pid": 0, "tid": r_pid, "ts": r_ts * _US, **common}
            )
    return events


def _counter_events(recorder, report) -> list:
    """Counter (``C``) tracks: queue depth + in-flight serving queries."""
    events = []
    timeline = getattr(report, "queue_depth_timeline", None) if report is not None else None
    if timeline is not None and len(timeline):
        for t, depth in timeline:
            events.append(
                {
                    "ph": "C",
                    "name": "queue_depth",
                    "pid": 0,
                    "tid": 0,
                    "ts": float(t) * _US,
                    "args": {"tasks": float(depth)},
                }
            )
    arrivals = getattr(report, "arrival_times", None) if report is not None else None
    completes = getattr(report, "complete_times", None) if report is not None else None
    if arrivals is not None and completes is not None:
        deltas = [(float(t), 1) for t in arrivals if _finite(t)]
        deltas += [(float(t), -1) for t in completes if _finite(t)]
        level = 0
        for t, d in sorted(deltas):
            level += d
            events.append(
                {
                    "ph": "C",
                    "name": "inflight_queries",
                    "pid": 0,
                    "tid": 0,
                    "ts": t * _US,
                    "args": {"queries": level},
                }
            )
    for name, ts, value in recorder.counter_samples:
        events.append(
            {
                "ph": "C",
                "name": name,
                "pid": 0,
                "tid": 0,
                "ts": float(ts) * _US,
                "args": {"value": float(value)},
            }
        )
    return events


def chrome_trace(recorder, report=None) -> dict:
    """Build the Chrome trace-event JSON object for a recorded run."""
    events = [
        {"ph": "M", "name": "process_name", "pid": 0, "args": {"name": "repro-sim"}}
    ]
    for pid in sorted(recorder.procs):
        name, node = recorder.procs[pid]
        events.append(
            {
                "ph": "M",
                "name": "thread_name",
                "pid": 0,
                "tid": pid,
                "args": {"name": f"{name} (node {node})"},
            }
        )
        events.append(
            {
                "ph": "M",
                "name": "thread_sort_index",
                "pid": 0,
                "tid": pid,
                "args": {"sort_index": pid},
            }
        )
    max_end = 0.0
    for s in recorder.spans:
        end = s.end if s.end is not None else s.start
        max_end = max(max_end, end)
    for s in recorder.spans:
        # a crashed proc can die inside a span; clamp open spans to run end
        end = s.end if s.end is not None else max_end
        events.append(
            {
                "ph": "X",
                "name": s.name,
                "cat": "span",
                "pid": 0,
                "tid": s.pid,
                "ts": s.start * _US,
                "dur": (end - s.start) * _US,
                "args": dict(s.attrs) if s.attrs else {},
            }
        )
    for i in recorder.instants:
        events.append(
            {
                "ph": "i",
                "name": i.name,
                "cat": "instant",
                "s": "t",
                "pid": 0,
                "tid": i.pid,
                "ts": i.ts * _US,
                "args": dict(i.attrs) if i.attrs else {},
            }
        )
    events.extend(_counter_events(recorder, report))
    events.extend(_flow_events(recorder))
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"schema": EVENTS_SCHEMA, "source": "repro.obs"},
    }


def write_chrome_trace(path: str, recorder, report=None) -> None:
    with open(path, "w") as fh:
        json.dump(chrome_trace(recorder, report), fh)


# --------------------------------------------------------------------------
# JSONL structured event log
# --------------------------------------------------------------------------


def events_lines(recorder, report=None) -> list[str]:
    """Render the schema-versioned JSONL event log as a list of lines."""
    header = {
        "type": "header",
        "schema": EVENTS_SCHEMA,
        "procs": {
            str(pid): {"name": name, "node": node}
            for pid, (name, node) in sorted(recorder.procs.items())
        },
    }
    lines = [json.dumps(header)]
    for s in recorder.spans:
        lines.append(
            json.dumps(
                {
                    "type": "span",
                    "id": s.id,
                    "pid": s.pid,
                    "name": s.name,
                    "start": s.start,
                    "end": s.end,
                    "parent": s.parent,
                    "attrs": s.attrs,
                }
            )
        )
    for i in recorder.instants:
        lines.append(
            json.dumps(
                {"type": "instant", "pid": i.pid, "name": i.name, "ts": i.ts, "attrs": i.attrs}
            )
        )
    timeline = getattr(report, "queue_depth_timeline", None) if report is not None else None
    if timeline is not None and len(timeline):
        for t, depth in timeline:
            lines.append(
                json.dumps(
                    {"type": "counter", "name": "queue_depth", "ts": float(t),
                     "value": float(depth)}
                )
            )
    for name, ts, value in recorder.counter_samples:
        lines.append(
            json.dumps({"type": "counter", "name": name, "ts": float(ts),
                        "value": float(value)})
        )
    arrivals = getattr(report, "arrival_times", None) if report is not None else None
    if arrivals is not None:
        dispatches = report.dispatch_times
        completes = report.complete_times
        for qid in range(len(arrivals)):
            lines.append(
                json.dumps(
                    {
                        "type": "query",
                        "id": qid,
                        "arrival": float(arrivals[qid]) if _finite(arrivals[qid]) else None,
                        "dispatch": float(dispatches[qid]) if _finite(dispatches[qid]) else None,
                        "complete": float(completes[qid]) if _finite(completes[qid]) else None,
                    }
                )
            )
    return lines


def write_events_jsonl(path: str, recorder, report=None) -> None:
    with open(path, "w") as fh:
        fh.write("\n".join(events_lines(recorder, report)) + "\n")


def write_metrics_json(path: str, metrics: dict) -> None:
    with open(path, "w") as fh:
        json.dump(metrics, fh, indent=2, sort_keys=True)


# --------------------------------------------------------------------------
# Validators (CI schema + vocabulary drift guards)
# --------------------------------------------------------------------------

_PHASES = frozenset({"M", "X", "i", "C", "s", "f", "b", "e"})


def validate_chrome_trace(obj) -> list[str]:
    """Validate a Chrome trace-event JSON object; return a list of errors."""
    errors: list[str] = []
    if not isinstance(obj, dict) or not isinstance(obj.get("traceEvents"), list):
        return ["top level must be an object with a traceEvents list"]
    for n, ev in enumerate(obj["traceEvents"]):
        where = f"traceEvents[{n}]"
        if not isinstance(ev, dict):
            errors.append(f"{where}: not an object")
            continue
        ph = ev.get("ph")
        if ph not in _PHASES:
            errors.append(f"{where}: unknown phase {ph!r}")
            continue
        if ph in ("X", "i", "C", "s", "f"):
            if not isinstance(ev.get("name"), str):
                errors.append(f"{where}: missing name")
                continue
            for field in ("ts", "pid", "tid"):
                if not isinstance(ev.get(field), (int, float)):
                    errors.append(f"{where}: missing numeric {field}")
        if ph == "X":
            if not isinstance(ev.get("dur"), (int, float)) or ev["dur"] < 0:
                errors.append(f"{where}: X event needs dur >= 0")
            if ev["name"] not in SPAN_NAMES:
                errors.append(f"{where}: unknown span name {ev['name']!r}")
        elif ph == "i":
            if ev["name"] not in INSTANT_NAMES:
                errors.append(f"{where}: unknown instant name {ev['name']!r}")
        elif ph in ("s", "f"):
            if "id" not in ev:
                errors.append(f"{where}: flow event needs an id")
    return errors


_EVENT_TYPES = frozenset({"header", "span", "instant", "counter", "query"})


def validate_events(lines) -> list[str]:
    """Validate JSONL event-log lines; return a list of errors."""
    errors: list[str] = []
    records = []
    for n, line in enumerate(lines):
        line = line.strip()
        if not line:
            continue
        try:
            records.append((n, json.loads(line)))
        except json.JSONDecodeError as exc:
            errors.append(f"line {n + 1}: invalid JSON ({exc})")
    if not records:
        return errors + ["empty event log"]
    first = records[0][1]
    if first.get("type") != "header" or first.get("schema") != EVENTS_SCHEMA:
        errors.append(
            f"line 1: expected a header with schema {EVENTS_SCHEMA!r}, got {first!r:.80}"
        )
    for n, rec in records[1:]:
        where = f"line {n + 1}"
        rtype = rec.get("type")
        if rtype not in _EVENT_TYPES:
            errors.append(f"{where}: unknown event type {rtype!r}")
        elif rtype == "span":
            if rec.get("name") not in SPAN_NAMES:
                errors.append(f"{where}: unknown span name {rec.get('name')!r}")
            if not isinstance(rec.get("start"), (int, float)):
                errors.append(f"{where}: span needs a numeric start")
        elif rtype == "instant":
            if rec.get("name") not in INSTANT_NAMES:
                errors.append(f"{where}: unknown instant name {rec.get('name')!r}")
        elif rtype == "counter":
            if not isinstance(rec.get("value"), (int, float)):
                errors.append(f"{where}: counter needs a numeric value")
        elif rtype == "query":
            if not isinstance(rec.get("id"), int):
                errors.append(f"{where}: query record needs an integer id")
    return errors
