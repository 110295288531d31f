"""Trace-event JSON export for schedule traces.

Emits the complete-event ('X') flavor of the trace-event format understood by
chrome://tracing and Perfetto: pid = worker group, tid = lane within the
group, timestamps and durations in microseconds. The shipped JSON schema
(schemas/trace_event.schema.json) pins the exact document shape.
"""

from __future__ import annotations

import json
import math
from importlib import resources

from .sim import ScheduleTrace
from .taskgraph import COMPUTE_LANE, RECV_LANE, SEND_LANE


class SerializationError(Exception):
    pass


_LANE_TID = {COMPUTE_LANE: 0, SEND_LANE: 1, RECV_LANE: 2}


def trace_schema() -> dict:
    schema_text = (
        resources.files("afpipe").joinpath("schemas/trace_event.schema.json").read_text()
    )
    return json.loads(schema_text)


# One event as json.dumps(..., indent=1, sort_keys=True) lays it out inside
# the top-level array, with strings escaped by json's ASCII encoder and
# floats written by repr, as json.dumps does. With indent set, json.dumps
# runs its pure-Python encoder; filling this template gives the same bytes
# several times faster.
_EVENT_JSON = """\
 {
  "args": {
   "direction": %s,
   "kind": %s,
   "lane": %s,
   "layer": %s,
   "microbatch": %d,
   "owner": %s,
   "stream": %s,
   "task": %d,
   "virtual_index": %d
  },
  "dur": %r,
  "name": %s,
  "ph": "X",
  "pid": %d,
  "tid": %d,
  "ts": %r
 }"""


def export_trace_json(trace: ScheduleTrace) -> str:
    """One complete event per scheduled task, in canonical event order, as
    json.dumps(..., indent=1, sort_keys=True) writes the list."""
    if not trace.events:
        return "[]"
    quote = json.encoder.encode_basestring_ascii
    owners = sorted({ev.task.owner for ev in trace.events})
    pid_of = {owner: i for i, owner in enumerate(owners)}
    events = []
    for task, start_ns, end_ns in trace.events:
        ts = start_ns / 1e3
        dur = (end_ns - start_ns) / 1e3
        if not (math.isfinite(ts) and math.isfinite(dur)):
            raise SerializationError(f"non-finite timestamp on task {task.id}")
        kind = task.kind.value
        name = f"{kind} mb{task.microbatch}"
        if task.layer is None:
            layer = "null"
        else:
            layer = "%d" % task.layer
            name += f" L{task.layer}"
        events.append(_EVENT_JSON % (
            quote(task.direction),
            quote(kind),
            quote(task.lane),
            layer,
            task.microbatch,
            quote(task.owner),
            quote(task.stream.value),
            task.id,
            task.virtual_index,
            dur,
            quote(name),
            pid_of[task.owner],
            _LANE_TID[task.lane],
            ts,
        ))
    return "[\n" + ",\n".join(events) + "\n]"


def export_trace(trace: ScheduleTrace) -> list[dict]:
    """export_trace_json's events as dicts."""
    return json.loads(export_trace_json(trace))


def write_trace(trace: ScheduleTrace, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(export_trace_json(trace))


def parse_trace_events(document: str | list) -> list[tuple[int, int, str]]:
    """Recover exact (start_ns, end_ns, owner) triples from an exported document.

    Microsecond floats round-trip to integer nanoseconds exactly because the
    rounding error of ns/1e3 in a double is far below half a nanosecond.
    """
    events = json.loads(document) if isinstance(document, str) else document
    triples = []
    for ev in events:
        start = round(ev["ts"] * 1e3)
        triples.append((start, start + round(ev["dur"] * 1e3), ev["args"]["owner"]))
    return triples
