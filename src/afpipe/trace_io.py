"""Trace-event JSON export for schedule traces.

Emits the complete-event ('X') flavor of the trace-event format understood by
chrome://tracing and Perfetto: pid = worker group, tid = lane within the
group, timestamps and durations in microseconds. The shipped JSON schema
(schemas/trace_event.schema.json) pins the exact document shape.

The bytes are those of json.dumps(events, indent=1, sort_keys=True), made
from templates. They are made from ScheduleTrace.timeline(), the events'
parts in timeline order: the template's tasks, each event's task index,
its start, and the template tasks' durations. For the trace simulate
returns, those come straight from its plan and run, the template being a
built graph's one micro-batch, so an export builds no TraceEvent and reads
no Task or duration but the template's. Task index k is copy k // size of
template task k % size; every copy of a task has its fields but its
micro-batch and id, and its duration, so each template task's text is
filled once per export and cut into the five fixed pieces around an
event's four variable slots: its micro-batch (twice), id and start. An
event's text is its task's pieces with those four between them, and no
event applies a template: each chunk of _CHUNK events extends one list
with their texts and joins it once. A trace built from given events is its
own template, one copy. write_trace streams the chunks to the file and
export_trace_json joins them. Every time is checked before the first
chunk, so a time with no float value in microseconds raises
SerializationError before a file is opened. A run's trace checks its
iteration_ns, the last end of a run that starts at 0, which bounds every
time it holds; a trace of given events checks its every start and end.
"""

from __future__ import annotations

import json
import operator
import time
from importlib import resources
from typing import Iterator, Sequence

from .sim import ScheduleTrace
from .taskgraph import COMPUTE_LANE, RECV_LANE, SEND_LANE, Task


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
# runs its pure-Python encoder; joining fixed pieces gives the same bytes
# several times faster. Every slot is a %s: _task_template fills each field
# that a task's copies share, once per task, puts _SLOT in each of the
# others and cuts the text there into five pieces; _format joins them around
# each event's micro-batch, id, micro-batch again and ts, the repr of its
# float, with no % per event.
_EVENT_JSON = """\
 {
  "args": {
   "direction": %s,
   "kind": %s,
   "lane": %s,
   "layer": %s,
   "microbatch": %s,
   "owner": %s,
   "stream": %s,
   "task": %s,
   "virtual_index": %s
  },
  "dur": %s,
  "name": %s,
  "ph": "X",
  "pid": %s,
  "tid": %s,
  "ts": %s
 }"""

_CHUNK = 1024  # events per string handed to the file
_SLOT = "\0"  # marks a variable slot: no field's ASCII-escaped text holds it


def _task_template(task: Task, pid: int, duration: int) -> tuple[str, str, str, str, str]:
    """The five fixed pieces of the text of task's copies' events, of pid, lasting duration ns.

    An event's text is the pieces joined around its four variable slots, in
    order: microbatch, task, the name's microbatch, ts. Without a layer the
    layer field reads null and the name has no layer.
    """
    fixed = json.encoder.encode_basestring_ascii
    kind = fixed(task.kind.value)
    layer = "null" if task.layer is None else "%d" % task.layer
    # The name is kind + " mb<microbatch>" [+ " L<layer>"]: the digits need no
    # escaping, so they go inside kind's quotes.
    text = _EVENT_JSON % (
        fixed(task.direction), kind, fixed(task.lane), layer, _SLOT, fixed(task.owner),
        fixed(task.stream.value), _SLOT, "%d" % task.virtual_index, repr(duration / 1e3),
        kind[:-1] + " mb" + _SLOT + ('"' if task.layer is None else f' L{layer}"'),
        pid, _LANE_TID[task.lane], _SLOT,
    )
    return tuple(text.split(_SLOT))


def _chunks(trace: ScheduleTrace) -> tuple[int, Iterator[str]]:
    """The event count and export_trace_json's document in chunks of up to _CHUNK events.

    The times are checked here, before any chunk is made. No start, end or
    duration exceeds in magnitude the width of [min(0, lowest time),
    max(0, highest time)], so if that width converts to a float in
    microseconds, they all do. A run's starts and durations are at least 0
    and its iteration_ns is its last end, as sim.check_schedule checks, so
    its width is its iteration_ns and no end is computed. A trace of given
    events may hold any times; each event is its own template task, so its
    durations are the events', in order.
    """
    tasks, order, starts, durations = trace.timeline()
    if starts:
        width = trace.iteration_ns
        if trace._run is None:
            ends = list(map(operator.add, starts, durations))
            width = max(0, max(starts), max(ends)) - min(0, min(starts), min(ends))
        try:
            width / 1e3
        except OverflowError:
            raise SerializationError("a trace time has no float value in microseconds") from None
    return len(order), _format(tasks, order, starts, durations)


def _format(tasks: tuple[Task, ...], order: Sequence[int], starts: list[int],
            durations: list[int]) -> Iterator[str]:
    """The chunks of _chunks for ScheduleTrace.timeline's parts, made without checking the times.

    Task index k is copy k // len(tasks) of task tasks[k % len(tasks)], which
    lasts durations[k % len(tasks)] ns as every copy does.
    """
    if not order:
        yield "[]"
        return
    size = len(tasks)
    pid_of = {owner: i for i, owner in enumerate(sorted({task.owner for task in tasks}))}
    pieces = [_task_template(task, pid_of[task.owner], duration)
              for task, duration in zip(tasks, durations)]
    ids = [task.id for task in tasks]
    mbs = [task.microbatch for task in tasks]
    head = "[\n"
    last = ts = None  # the previous event's start and its text
    for lo in range(0, len(order), _CHUNK):
        texts = []
        extend = texts.extend
        for k, start in zip(order[lo:lo + _CHUNK], starts[lo:lo + _CHUNK]):
            copy, j = divmod(k, size)
            mb = str(mbs[j] + copy)
            if start != last:  # events in timeline order often share their start
                last, ts = start, repr(start / 1e3)
            p0, p1, p2, p3, p4 = pieces[j]
            extend((p0, mb, p1, str(ids[j] + copy * size), p2, mb, p3, ts, p4, ",\n"))
        texts.pop()  # the separator after the chunk's last event
        yield head + "".join(texts)
        head = ",\n"
    yield "\n]"


def export_trace_json(trace: ScheduleTrace) -> str:
    """One complete event per scheduled task, in canonical event order, as
    json.dumps(..., indent=1, sort_keys=True) writes the list.

    Raises SerializationError when a time has no float value in microseconds.
    """
    return "".join(_chunks(trace)[1])


def export_trace(trace: ScheduleTrace) -> list[dict]:
    """export_trace_json's events as dicts."""
    return json.loads(export_trace_json(trace))


def write_trace(trace: ScheduleTrace, path: str) -> None:
    """Write export_trace_json(trace) to path, streamed in chunks of _CHUNK
    events. A SerializationError is raised before path is opened.

    With AFPIPE_LOG=DEBUG, logger afpipe.trace_io logs the events, bytes and
    wall time of each write.
    """
    begin = time.perf_counter()
    events, chunks = _chunks(trace)
    size = 0  # the document is ASCII, so its length is its size in bytes
    with open(path, "w", encoding="utf-8") as fh:
        for chunk in chunks:
            fh.write(chunk)
            size += len(chunk)
    # Imported here, as in sim._debug: a cold start that never logs skips it.
    import logging

    logging.getLogger("afpipe.trace_io").debug(
        "write_trace: %d events, %d bytes in %.3f ms",
        events, size, (time.perf_counter() - begin) * 1e3,
    )


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
