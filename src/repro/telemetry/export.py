"""Trace-log readers and exporters (Chrome trace, Prometheus, summary).

The on-disk format is one JSON object per line (same torn-tail-tolerant
discipline as the campaign ledger):

* ``{"type": "meta", ...}`` — session header (trace id, clock, versions);
* ``{"type": "span", name, ts, dur, tid, span_id, parent_id, attrs}``;
* ``{"type": "event", name, ts, tid, attrs}`` — instantaneous marks;
* ``{"type": "metrics", samples: [...]}`` — the final registry snapshot.

Exporters convert that log into the two lingua francas of the tooling
world: the Chrome trace-event JSON that ``chrome://tracing`` / Perfetto
render as a flame chart, and the Prometheus text exposition format that
any metrics scraper ingests.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Tuple, Union

from ..errors import TelemetryError
from ..units import to_us
from .metrics import MetricSample, RegistrySnapshot

#: Prometheus metric-name prefix for everything this package exports.
PROMETHEUS_PREFIX = "repro_"


def read_events(path: Union[str, Path]) -> List[Dict[str, object]]:
    """All intact records of one JSONL trace, oldest first.

    A torn trailing line (the one write a crash can interrupt) is
    tolerated and dropped, like the campaign ledger's replay.
    """
    trace_path = Path(path)
    if not trace_path.exists():
        raise TelemetryError(f"no such trace file: {trace_path}")
    records: List[Dict[str, object]] = []
    for line in trace_path.read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            continue
        if isinstance(record, dict) and "type" in record:
            records.append(record)
    return records


def final_snapshot(records: List[Dict[str, object]]) -> RegistrySnapshot:
    """The last ``metrics`` record of a trace, as a snapshot.

    Later records win (a resumed session appends a fresh snapshot); a
    trace with no metrics record yields an empty snapshot.
    """
    snapshot = RegistrySnapshot()
    for record in records:
        if record.get("type") == "metrics":
            snapshot = RegistrySnapshot.from_json(record.get("samples", []))
    return snapshot


def span_records(records: List[Dict[str, object]]) -> List[Dict[str, object]]:
    """Just the span records, in file order."""
    return [r for r in records if r.get("type") == "span"]


# -- Chrome trace-event format -------------------------------------------------


def chrome_trace(records: List[Dict[str, object]]) -> Dict[str, object]:
    """Convert a trace log into Chrome trace-event JSON.

    Spans become complete (``ph: "X"``) events with microsecond
    timestamps; instant events become ``ph: "i"`` marks.  Events are
    sorted by timestamp, so per-lane (``tid``) timestamps are monotone —
    the property the CI smoke job asserts before uploading a trace.
    """
    trace_events: List[Dict[str, object]] = []
    pid = 1
    for record in records:
        kind = record.get("type")
        ts = to_us(float(record.get("ts", 0.0)))  # type: ignore[arg-type]
        if kind == "span":
            trace_events.append({
                "name": record.get("name"),
                "cat": "repro",
                "ph": "X",
                "ts": ts,
                "dur": to_us(float(record.get("dur", 0.0))),  # type: ignore[arg-type]
                "pid": pid,
                "tid": int(record.get("tid", 0)),  # type: ignore[arg-type]
                "args": record.get("attrs", {}),
            })
        elif kind == "event":
            trace_events.append({
                "name": record.get("name"),
                "cat": "repro",
                "ph": "i",
                "s": "t",
                "ts": ts,
                "pid": pid,
                "tid": int(record.get("tid", 0)),  # type: ignore[arg-type]
                "args": record.get("attrs", {}),
            })
    trace_events.sort(key=lambda e: (float(e["ts"]), int(e["tid"])))  # type: ignore[arg-type]
    meta = next((r for r in records if r.get("type") == "meta"), {})
    return {
        "traceEvents": trace_events,
        "displayTimeUnit": "ms",
        "otherData": {
            "trace_id": meta.get("trace_id"),
            "package": meta.get("package"),
            "version": meta.get("version"),
        },
    }


# -- Prometheus text exposition ------------------------------------------------


def _escape_label(value: str) -> str:
    return value.replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n")


def _label_suffix(labels: Tuple[Tuple[str, str], ...], extra: str = "") -> str:
    parts = [f'{k}="{_escape_label(v)}"' for k, v in labels]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


def _format_value(value: float) -> str:
    if value == int(value):  # lint: ignore[RPR402] exact integers render without a trailing .0
        return str(int(value))
    return repr(value)


def render_prometheus(snapshot: RegistrySnapshot) -> str:
    """Render a snapshot in the Prometheus text exposition format."""
    by_name: Dict[str, List[MetricSample]] = defaultdict(list)
    for sample in snapshot:
        by_name[sample.name].append(sample)
    lines: List[str] = []
    for name in sorted(by_name):
        samples = by_name[name]
        kind = samples[0].kind
        metric = PROMETHEUS_PREFIX + name
        lines.append(f"# TYPE {metric} {kind}")
        for sample in samples:
            if kind == "histogram":
                cumulative = 0
                for bound, count in zip(sample.buckets, sample.bucket_counts):
                    cumulative += count
                    suffix = _label_suffix(sample.labels, f'le="{bound:g}"')
                    lines.append(f"{metric}_bucket{suffix} {cumulative}")
                suffix = _label_suffix(sample.labels, 'le="+Inf"')
                lines.append(f"{metric}_bucket{suffix} {sample.count}")
                plain = _label_suffix(sample.labels)
                lines.append(f"{metric}_sum{plain} {_format_value(sample.value)}")
                lines.append(f"{metric}_count{plain} {sample.count}")
            else:
                suffix = _label_suffix(sample.labels)
                lines.append(f"{metric}{suffix} {_format_value(sample.value)}")
    return "\n".join(lines) + "\n"


# -- human summary -------------------------------------------------------------


def summarize_spans(
    records: List[Dict[str, object]],
) -> List[Tuple[str, int, float, float, float]]:
    """Per-span-name rollup: (name, count, total_s, mean_s, max_s)."""
    grouped: Dict[str, List[float]] = defaultdict(list)
    for record in span_records(records):
        grouped[str(record.get("name"))].append(float(record.get("dur", 0.0)))  # type: ignore[arg-type]
    out = []
    for name in sorted(grouped):
        durations = grouped[name]
        total = sum(durations)
        out.append((
            name, len(durations), total, total / len(durations), max(durations)
        ))
    out.sort(key=lambda row: -row[2])
    return out


def summarize_scalars(
    snapshot: RegistrySnapshot,
) -> List[Tuple[str, Mapping[str, str], float]]:
    """Counter/gauge rollup rows: (name, labels, value)."""
    rows: List[Tuple[str, Mapping[str, str], float]] = []
    for sample in snapshot:
        if sample.kind in ("counter", "gauge"):
            rows.append((sample.name, dict(sample.labels), sample.value))
    return rows


def validate_chrome_trace(payload: Mapping[str, object]) -> None:
    """Structural validation of a Chrome trace (the CI smoke contract).

    Asserts the payload has a ``traceEvents`` list whose events carry
    non-negative timestamps and durations, and that timestamps are
    monotone non-decreasing within each ``tid`` lane.
    """
    events = payload.get("traceEvents")
    if not isinstance(events, list) or not events:
        raise TelemetryError("chrome trace has no traceEvents")
    last_ts: Dict[int, float] = {}
    for event in events:
        if not isinstance(event, Mapping):
            raise TelemetryError(f"malformed trace event: {event!r}")
        ts = float(event["ts"])  # type: ignore[index, arg-type]
        tid = int(event.get("tid", 0))  # type: ignore[arg-type]
        dur = float(event.get("dur", 0.0))  # type: ignore[arg-type]
        if ts < 0 or dur < 0:
            raise TelemetryError(
                f"negative ts/dur in trace event {event.get('name')!r}"
            )
        if ts < last_ts.get(tid, 0.0):
            raise TelemetryError(
                f"non-monotone ts in tid {tid} at event {event.get('name')!r}"
            )
        last_ts[tid] = ts
