"""Trace exporters: Chrome trace-event JSON and a JSONL event log.

The Chrome format (the ``traceEvents`` array of complete ``"ph": "X"``
events) loads directly in Perfetto (https://ui.perfetto.dev) or
``chrome://tracing``; span categories become named tracks, so a traced
query shows distinct compute / transfer / migration bands — Fig. 4 as an
interactive timeline.  The JSONL log is one structured event per line
(plus a leading ``meta`` line) for programmatic consumption.

Both exporters are deterministic: keys are sorted, timestamps are
rounded to nanosecond resolution, and track ids follow a fixed category
order — identical traces serialize to identical bytes, which is what
the golden-file tests in ``tests/test_observability.py`` pin down.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.observability.spans import CATEGORIES, SpanRecord, Trace

#: Fixed Perfetto track (tid) per well-known category; categories not
#: listed here are assigned the next ids alphabetically per trace.
CATEGORY_TRACKS = {cat: i for i, cat in enumerate(CATEGORIES)}

_SCHEMA_KEYS = ("name", "cat", "ph", "ts", "dur", "pid", "tid")


def _round_us(t_ms: float) -> float:
    """Milliseconds -> microseconds at fixed (nanosecond) resolution."""
    return round(t_ms * 1000.0, 3)


def track_map(categories) -> dict[str, int]:
    """Deterministic category -> tid assignment for one trace."""
    tracks = {}
    extra = sorted(c for c in categories if c not in CATEGORY_TRACKS)
    for cat in categories:
        if cat in CATEGORY_TRACKS:
            tracks[cat] = CATEGORY_TRACKS[cat]
    for i, cat in enumerate(extra):
        tracks[cat] = len(CATEGORY_TRACKS) + i
    return tracks


def complete_event(
    name: str,
    category: str,
    start_ms: float,
    dur_ms: float,
    *,
    tid: int | None = None,
    args: dict | None = None,
) -> dict:
    """One Chrome trace-event ``"ph": "X"`` (complete) event."""
    return {
        "name": name,
        "cat": category,
        "ph": "X",
        "ts": _round_us(start_ms),
        "dur": _round_us(dur_ms),
        "pid": 0,
        "tid": tid if tid is not None else CATEGORY_TRACKS.get(category, 0),
        "args": args or {},
    }


def _span_event(rec: SpanRecord, tid: int) -> dict:
    args = {"sid": rec.sid}
    if rec.parent is not None:
        args["parent"] = rec.parent
    args.update(rec.attrs)
    return complete_event(
        rec.name, rec.category, rec.start_ms, rec.duration_ms,
        tid=tid, args=args,
    )


def to_chrome_trace(trace: Trace) -> dict:
    """The full Chrome/Perfetto JSON object for one :class:`Trace`."""
    tracks = track_map(trace.categories())
    events = [
        {
            "name": "process_name", "cat": "__metadata", "ph": "M",
            "pid": 0, "tid": 0,
            "args": {"name": "repro simulated GPU"},
        },
    ]
    for cat, tid in sorted(tracks.items(), key=lambda kv: kv[1]):
        events.append({
            "name": "thread_name", "cat": "__metadata", "ph": "M",
            "pid": 0, "tid": tid, "args": {"name": cat},
        })
        events.append({
            "name": "thread_sort_index", "cat": "__metadata", "ph": "M",
            "pid": 0, "tid": tid, "args": {"sort_index": tid},
        })
    events += [_span_event(r, tracks[r.category]) for r in trace.spans()]
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": dict(sorted(trace.meta.items(), key=lambda kv: kv[0])),
    }


def dumps_stable(obj) -> str:
    """Deterministic JSON: sorted keys, no whitespace churn."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def write_chrome_trace(trace: Trace, path) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(dumps_stable(to_chrome_trace(trace)) + "\n")
    return path


def to_jsonl_records(trace: Trace) -> list[dict]:
    """One dict per line: a ``meta`` header then every span in timeline
    order."""
    out = [{"type": "meta", **{k: trace.meta[k] for k in sorted(trace.meta)}}]
    for r in trace.spans():
        out.append({
            "type": "span",
            "sid": r.sid,
            "parent": r.parent,
            "name": r.name,
            "category": r.category,
            "start_ms": round(r.start_ms, 6),
            "end_ms": round(r.end_ms, 6),
            "attrs": r.attrs,
        })
    return out


def to_jsonl(trace: Trace) -> str:
    return "\n".join(dumps_stable(rec) for rec in to_jsonl_records(trace)) + "\n"


def write_jsonl(trace: Trace, path) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(to_jsonl(trace))
    return path


def intervals_to_events(intervals) -> list[dict]:
    """Chrome events from :class:`repro.gpu.timeline.Interval` records —
    the single code path shared by ``Timeline.to_trace_events`` and the
    span exporter, so Fig. 4 data and the telemetry timeline agree."""
    events = []
    for iv in intervals:
        args = {}
        if iv.nbytes:
            args["nbytes"] = float(iv.nbytes)
        events.append(complete_event(
            iv.label or iv.kind, iv.kind, iv.start_ms, iv.duration_ms,
            args=args,
        ))
    return events


# ----------------------------------------------------------------------
# Validation / loading (the CI gates job, the summarize CLI)
# ----------------------------------------------------------------------

def validate_chrome_trace(obj) -> list[str]:
    """Schema problems in a Chrome-trace JSON object (empty = valid)."""
    problems = []
    if not isinstance(obj, dict):
        return [f"top level must be an object, got {type(obj).__name__}"]
    events = obj.get("traceEvents")
    if not isinstance(events, list):
        return ["missing or non-list 'traceEvents'"]
    for i, ev in enumerate(events):
        if not isinstance(ev, dict):
            problems.append(f"event {i}: not an object")
            continue
        if ev.get("ph") == "M":
            continue  # metadata events carry no timing
        for key in _SCHEMA_KEYS:
            if key not in ev:
                problems.append(f"event {i} ({ev.get('name')!r}): missing {key!r}")
        ts, dur = ev.get("ts"), ev.get("dur")
        if isinstance(ts, (int, float)) and ts < 0:
            problems.append(f"event {i} ({ev.get('name')!r}): negative ts")
        if isinstance(dur, (int, float)) and dur < 0:
            problems.append(f"event {i} ({ev.get('name')!r}): negative dur")
        if len(problems) >= 20:
            problems.append("... (truncated)")
            break
    return problems


def load_trace(path) -> Trace:
    """Rebuild a :class:`Trace` from either exporter's file."""
    path = Path(path)
    text = path.read_text()
    try:
        whole = json.loads(text)
    except json.JSONDecodeError:
        whole = None
    if isinstance(whole, dict) and "traceEvents" in whole:
        return _trace_from_chrome(whole)
    # JSONL: one object per line.
    records = []
    meta = {}
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        obj = json.loads(line)
        if obj.get("type") == "meta":
            meta = {k: v for k, v in obj.items() if k != "type"}
        elif obj.get("type") == "span":
            records.append(SpanRecord(
                sid=obj["sid"], parent=obj.get("parent"),
                name=obj["name"], category=obj["category"],
                start_ms=obj["start_ms"], end_ms=obj["end_ms"],
                attrs=obj.get("attrs", {}),
            ))
    return Trace(records=records, meta=meta)


def _trace_from_chrome(obj: dict) -> Trace:
    records = []
    fallback_sid = 1_000_000
    for ev in obj.get("traceEvents", []):
        if ev.get("ph") != "X":
            continue
        args = dict(ev.get("args", {}))
        sid = args.pop("sid", None)
        parent = args.pop("parent", None)
        if sid is None:
            sid = fallback_sid
            fallback_sid += 1
        records.append(SpanRecord(
            sid=sid, parent=parent, name=ev["name"], category=ev["cat"],
            start_ms=ev["ts"] / 1000.0,
            end_ms=(ev["ts"] + ev.get("dur", 0.0)) / 1000.0,
            attrs=args,
        ))
    return Trace(records=records, meta=dict(obj.get("otherData", {})))
