"""Structured span tracing to append-only JSONL.

A *span* is one timed region of the pipeline — an epoch, a mini-batch, a
shard task, a pipeline stage — with monotonic start/end timestamps, a wall
clock stamp, a parent link, and free-form attributes.  An *event* is a point
record (a named marker, a metrics snapshot).  Both serialise as one JSON
object per line, so a trace survives the process that wrote it and a crashed
run's trace is readable up to its last complete line.

Arming and precedence
---------------------
A process-global :class:`Tracer` is armed exactly like the fault injector
(:mod:`repro.resilience.faults`): ``CoANEConfig(trace_path=...)`` scopes a
tracer around one fit and wins over ``repro train --trace`` (which writes
that config field), which wins over the ``REPRO_TRACE`` environment variable
— read **at import time** so CI subprocesses join the trace without code
changes.  Every record is emitted as a single ``write()`` on an ``O_APPEND``
descriptor, so concurrent writers (subprocesses sharing one trace file, or
processes forked while a tracer is armed) interleave whole lines, never
bytes.

Determinism contract
--------------------
Tracing may never touch an RNG stream or a numeric training path.  Sites
read clocks, counters, and already-computed values (a loss, a row count);
derived diagnostics that cost real work (the trainer's gradient norm) are
computed only when a tracer is armed, from gradients that already exist,
with plain read-only numpy calls.  The pinned golden loss trajectories and
embedding digests must hold byte-identically with tracing fully armed —
``tests/test_backend.py`` enforces exactly that.

Disarmed cost
-------------
When nothing is armed, :func:`span` returns a shared null context and
:func:`event` returns immediately — one module-global ``None`` comparison
per site, the same budget as :func:`~repro.resilience.faults.fault_check`.

Durability
----------
The trace file is opened ``O_APPEND | O_CREAT``; :meth:`Tracer.close` (and
:func:`disarm_trace`) fsyncs before closing, and arming registers an
``atexit`` hook, so an orderly exit never loses buffered lines.  A killed
process loses at most the records the OS had not flushed — acceptable for
telemetry, where the atomic-replace machinery used by checkpoints would
force a rewrite-per-event instead.
"""

from __future__ import annotations

import atexit
import contextlib
import itertools
import json
import os
import threading
import time

#: Environment variable naming a trace file; read at import (see below) so
#: CI subprocesses arm themselves.
TRACE_ENV = "REPRO_TRACE"

#: Trace schema version stamped on every manifest record.
TRACE_FORMAT_VERSION = 1


class _NullSpan:
    """The disarmed span: a reusable, no-state context manager."""

    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, exc_type, exc, tb):
        return False

    def set(self, **attrs):
        return None


_NULL_SPAN = _NullSpan()


class Span:
    """One open span; emitted as ``span_start`` / ``span_end`` records."""

    __slots__ = ("tracer", "name", "span_id", "parent_id", "attrs",
                 "start_mono", "end_mono", "seconds")

    def __init__(self, tracer: "Tracer", name: str, attrs: dict):
        self.tracer = tracer
        self.name = name
        self.attrs = dict(attrs)
        self.span_id = None
        self.parent_id = None
        self.start_mono = None
        self.end_mono = None
        self.seconds = None

    def set(self, **attrs):
        """Attach attributes to the span before it closes (they ride on the
        ``span_end`` record)."""
        self.attrs.update(attrs)
        return self

    def __enter__(self):
        self.tracer._open_span(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        self.tracer._close_span(self, error=exc_type.__name__ if exc_type
                                else None)
        return False


class Tracer:
    """Writes span/event records to one append-only JSONL file.

    One tracer per process (module-global, see :func:`arm_trace`); the
    per-thread span stack gives every record a correct parent link without
    the call sites threading ids around.
    """

    def __init__(self, path: str):
        self.path = str(path)
        directory = os.path.dirname(os.path.abspath(self.path))
        os.makedirs(directory, exist_ok=True)
        self._fd = os.open(self.path,
                           os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
        self._ids = itertools.count()
        self._stacks = threading.local()
        self._closed = False

    # ------------------------------------------------------------- low level
    def _stack(self) -> list:
        stack = getattr(self._stacks, "spans", None)
        if stack is None:
            stack = self._stacks.spans = []
        return stack

    def _next_id(self) -> str:
        # Unique across processes sharing one file: pid + per-process counter.
        return f"{os.getpid():x}-{next(self._ids):x}"

    def _write(self, record: dict):
        if self._closed:
            return
        record.setdefault("pid", os.getpid())
        line = json.dumps(record, separators=(",", ":"),
                          default=_json_default) + "\n"
        # One write() per record: O_APPEND makes concurrent writers
        # interleave whole lines.
        os.write(self._fd, line.encode())

    # ----------------------------------------------------------------- spans
    def span(self, name: str, attrs: dict = None) -> Span:
        return Span(self, name, attrs or {})

    def _open_span(self, span: Span):
        stack = self._stack()
        span.span_id = self._next_id()
        span.parent_id = stack[-1].span_id if stack else None
        stack.append(span)
        span.start_mono = time.perf_counter()
        self._write({"type": "span_start", "name": span.name,
                     "id": span.span_id, "parent": span.parent_id,
                     "mono": span.start_mono, "wall": time.time(),
                     "attrs": span.attrs})

    def _close_span(self, span: Span, error: str = None):
        span.end_mono = time.perf_counter()
        span.seconds = span.end_mono - span.start_mono
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        record = {"type": "span_end", "name": span.name, "id": span.span_id,
                  "mono": span.end_mono, "seconds": span.seconds,
                  "attrs": span.attrs}
        if error is not None:
            record["error"] = error
        self._write(record)

    # ---------------------------------------------------------------- events
    def event(self, name: str, attrs: dict = None):
        stack = self._stack()
        self._write({"type": "event", "name": name,
                     "parent": stack[-1].span_id if stack else None,
                     "mono": time.perf_counter(), "wall": time.time(),
                     "attrs": attrs or {}})

    def manifest(self, attrs: dict):
        """The per-run provenance record (see :mod:`repro.obs.manifest`)."""
        self._write({"type": "manifest", "version": TRACE_FORMAT_VERSION,
                     "wall": time.time(), "attrs": attrs})

    def metrics(self, snapshot: dict, label: str = "final"):
        """Persist a registry snapshot into the trace, so counters survive
        the process that accumulated them."""
        self._write({"type": "metrics", "label": label, "wall": time.time(),
                     "snapshot": snapshot})

    def close(self):
        if self._closed:
            return
        self._closed = True
        try:
            os.fsync(self._fd)
        except OSError:  # pragma: no cover - exotic filesystems
            pass
        os.close(self._fd)


def _json_default(value):
    """Fallback encoder: numpy scalars and arrays appear in attrs naturally;
    render them as plain Python values rather than refusing the record."""
    item = getattr(value, "item", None)
    if callable(item):
        try:
            return item()
        except (TypeError, ValueError):
            pass
    tolist = getattr(value, "tolist", None)
    if callable(tolist):
        return tolist()
    return repr(value)


_tracer = None
_atexit_registered = False


def get_tracer() -> Tracer:
    """The armed process-global tracer, or ``None``."""
    return _tracer


def tracing_active() -> bool:
    return _tracer is not None


def arm_trace(path: str) -> Tracer:
    """Arm tracing to ``path`` process-wide (closing any previous tracer)."""
    global _tracer, _atexit_registered
    previous = _tracer
    _tracer = Tracer(path)
    if previous is not None:
        previous.close()
    if not _atexit_registered:
        atexit.register(disarm_trace)
        _atexit_registered = True
    return _tracer


def disarm_trace():
    """Close and remove the armed tracer; every site reverts to a no-op."""
    global _tracer
    tracer, _tracer = _tracer, None
    if tracer is not None:
        tracer.close()


def arm_from_env() -> Tracer:
    """Arm from ``REPRO_TRACE`` if set; returns the tracer or ``None``."""
    path = os.environ.get(TRACE_ENV)
    if path:
        return arm_trace(path)
    return None


@contextlib.contextmanager
def use_trace(path):
    """Scope a tracer activation (the trainer wraps each fit in this).

    ``None`` keeps the ambient tracer (armed from the CLI or environment, or
    nothing) — the config-beats-CLI-beats-env precedence shared with
    ``REPRO_FAULT_PLAN``.  An explicit path arms a
    tracer for the scope and restores the previous one on exit.
    """
    global _tracer
    if path is None:
        yield _tracer
        return
    previous = _tracer
    scoped = Tracer(path)
    _tracer = scoped
    try:
        yield scoped
    finally:
        _tracer = previous
        scoped.close()


def span(name: str, **attrs):
    """Trace site: a timed span when armed, a shared null context when not.

    The disarmed cost is one module-global ``None`` comparison — the same
    contract as :func:`repro.resilience.faults.fault_check`, so sites can sit
    on hot paths at epoch/batch/shard granularity.
    """
    if _tracer is None:
        return _NULL_SPAN
    return _tracer.span(name, attrs)


def event(name: str, **attrs):
    """Trace site for point events; no-op when disarmed."""
    if _tracer is None:
        return
    _tracer.event(name, attrs)


def record_metrics(snapshot: dict, label: str = "final"):
    """Persist a metrics snapshot into the armed trace (no-op disarmed)."""
    if _tracer is None:
        return
    _tracer.metrics(snapshot, label=label)


# ------------------------------------------------------------------ reading
def read_trace(path: str) -> list:
    """Parse a JSONL trace; returns the records in file order.

    A torn final line (a killed writer) is tolerated and dropped; any other
    unparseable line raises ``ValueError`` naming the line number.
    """
    records = []
    with open(path, "rb") as handle:
        lines = handle.read().split(b"\n")
    for number, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError:
            if number == len(lines) or (number == len(lines) - 1
                                        and not lines[-1].strip()):
                continue  # torn tail from a killed writer
            raise ValueError(f"{path}:{number}: unparseable trace line")
    return records


def summarize_trace(records) -> dict:
    """Aggregate a parsed trace into per-span-name statistics.

    Returns ``{"spans": {name: {count, total_s, mean_s, max_s, unclosed}},
    "events": {name: count}, "manifests": [...], "metrics": [...]}`` — the
    table ``repro trace summarize`` prints.
    """
    open_spans = {}
    spans = {}
    events = {}
    manifests = []
    metrics = []
    for record in records:
        kind = record.get("type")
        if kind == "span_start":
            open_spans[record["id"]] = record
        elif kind == "span_end":
            open_spans.pop(record["id"], None)
            entry = spans.setdefault(record["name"],
                                     {"count": 0, "total_s": 0.0,
                                      "max_s": 0.0, "unclosed": 0})
            entry["count"] += 1
            entry["total_s"] += record.get("seconds", 0.0)
            entry["max_s"] = max(entry["max_s"], record.get("seconds", 0.0))
        elif kind == "event":
            events[record["name"]] = events.get(record["name"], 0) + 1
        elif kind == "manifest":
            manifests.append(record)
        elif kind == "metrics":
            metrics.append(record)
    for record in open_spans.values():
        entry = spans.setdefault(record["name"],
                                 {"count": 0, "total_s": 0.0, "max_s": 0.0,
                                  "unclosed": 0})
        entry["unclosed"] += 1
    for entry in spans.values():
        entry["mean_s"] = (entry["total_s"] / entry["count"]
                           if entry["count"] else 0.0)
    return {"spans": spans, "events": events, "manifests": manifests,
            "metrics": metrics}


# Arm automatically when the environment names a trace file, so CI
# subprocesses join the trace without code changes.
arm_from_env()
