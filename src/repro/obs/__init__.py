"""Observability: metrics, span tracing, profiling, and run provenance.

``repro.obs`` is the one place the system answers "where do time and
failures go".  Four pieces:

* :mod:`repro.obs.metrics` — counters, gauges, log-bucketed histograms with
  p50/p95/p99, labels, a plain-dict ``snapshot()`` and a Prometheus text
  exporter; process-global with ``use_registry()`` scoped override.
* :mod:`repro.obs.tracing` — nested spans and run records in a JSONL trace,
  armed by ``CoANEConfig(trace_path=...)`` / ``repro train --trace`` /
  ``REPRO_TRACE``; a provable no-op when disarmed.
* :mod:`repro.obs.profiling` — an opt-in ``ArrayOps`` proxy recording
  per-op call counts and seconds of the numpy ops.
* :mod:`repro.obs.manifest` — seed / dtype / config-digest / git / host
  provenance stamped on every armed run.

The contract shared by all of it: instrumentation reads clocks and counts,
never an RNG stream or a numeric path — golden loss trajectories and
embedding digests hold byte-identically with everything armed.
"""

from repro.obs.manifest import (
    config_digest,
    git_provenance,
    host_provenance,
    run_manifest,
)
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    default_time_buckets,
    get_registry,
    use_registry,
)
from repro.obs.profiling import ProfilingOps, profiled_backend
from repro.obs.tracing import (
    TRACE_ENV,
    Tracer,
    arm_trace,
    disarm_trace,
    get_tracer,
    read_trace,
    record_metrics,
    span,
    summarize_trace,
    tracing_active,
    use_trace,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "ProfilingOps",
    "TRACE_ENV",
    "Tracer",
    "arm_trace",
    "config_digest",
    "default_time_buckets",
    "disarm_trace",
    "get_registry",
    "get_tracer",
    "git_provenance",
    "host_provenance",
    "profiled_backend",
    "read_trace",
    "record_metrics",
    "run_manifest",
    "span",
    "summarize_trace",
    "tracing_active",
    "use_registry",
    "use_trace",
]
