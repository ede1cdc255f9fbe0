"""Performance harness: stage timers, throughput counters, JSON reporters.

``repro bench`` (see :mod:`repro.cli`) and the env-gated
``benchmarks/perf`` pytest tier both drive :func:`run_pipeline_bench`, which
times every pipeline stage (walks → contexts → co-occurrence → sampler build
→ epoch step) and the vectorised-vs-reference microbenchmarks, emitting
``BENCH_pipeline.json`` so the perf trajectory is tracked across PRs.
``repro bench --stage serve`` drives :func:`run_serve_bench`, which measures
the serving surface (checkpoint round-trip, index build, query latency and
throughput) into ``BENCH_serve.json``.  ``repro bench --stage scale`` drives
:func:`run_scale_bench`, which measures float32 against float64 (epoch time
and embedding drift) into ``BENCH_scale.json``.  ``repro bench --stage
traffic`` drives :func:`run_traffic_bench`, which loads the HTTP edge with
seeded open-loop traffic (rate sweep → overload → hot reload under load)
into ``BENCH_traffic.json``.  Every report is stamped with the shared
git/seed/platform run context by :func:`write_report`.
"""

from repro.perf.bench import (
    run_microbenchmarks,
    run_pipeline_bench,
    write_report,
)
from repro.perf.scale_bench import run_scale_bench
from repro.perf.serve_bench import run_serve_bench
from repro.perf.traffic_bench import run_traffic_bench

__all__ = ["run_pipeline_bench", "run_microbenchmarks", "run_serve_bench",
           "run_scale_bench", "run_traffic_bench", "write_report"]
