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


def export_trace(trace: ScheduleTrace) -> list[dict]:
    """One complete event per scheduled task, in canonical event order."""
    owners = sorted({ev.task.owner for ev in trace.events})
    pid_of = {owner: i for i, owner in enumerate(owners)}
    events = []
    for ev in trace.events:
        task = ev.task
        ts = ev.start_ns / 1e3
        dur = (ev.end_ns - ev.start_ns) / 1e3
        if not (math.isfinite(ts) and math.isfinite(dur)):
            raise SerializationError(f"non-finite timestamp on task {task.id}")
        kind = task.kind.value
        name = f"{kind} mb{task.microbatch}"
        if task.layer is not None:
            name += f" L{task.layer}"
        events.append(
            {
                "name": name,
                "ph": "X",
                "ts": ts,
                "dur": dur,
                "pid": pid_of[task.owner],
                "tid": _LANE_TID[task.lane],
                "args": {
                    "owner": task.owner,
                    "stream": task.stream.value,
                    "lane": task.lane,
                    "kind": kind,
                    "microbatch": task.microbatch,
                    "layer": task.layer,
                    "virtual_index": task.virtual_index,
                    "direction": task.direction,
                    "task": task.id,
                },
            }
        )
    return events


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
  "ph": %s,
  "pid": %d,
  "tid": %d,
  "ts": %r
 }"""


def _event_json(event: dict) -> str:
    args = event["args"]
    quote = json.encoder.encode_basestring_ascii
    return _EVENT_JSON % (
        quote(args["direction"]),
        quote(args["kind"]),
        quote(args["lane"]),
        "null" if args["layer"] is None else "%d" % args["layer"],
        args["microbatch"],
        quote(args["owner"]),
        quote(args["stream"]),
        args["task"],
        args["virtual_index"],
        event["dur"],
        quote(event["name"]),
        quote(event["ph"]),
        event["pid"],
        event["tid"],
        event["ts"],
    )


def export_trace_json(trace: ScheduleTrace) -> str:
    """export_trace as json.dumps(..., indent=1, sort_keys=True) writes it."""
    events = export_trace(trace)
    if not events:
        return "[]"
    return "[\n" + ",\n".join(map(_event_json, events)) + "\n]"


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
