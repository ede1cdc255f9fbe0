"""Span tracing: JSONL schema, arming precedence, disarmed cost, and the
trace's agreement with the Timer stages.

The schema contract under test: every line of a trace parses as JSON; span
ids are unique; every ``span_end`` closes a previously opened id exactly
once; parent links only ever reference known spans; a run closes every span
it opens, a crashed shard's span with the error name — and concurrent
writers sharing one file never tear a line.
"""

import json
import os
import time

import pytest

from repro.core import CoANE, CoANEConfig
from repro.obs.tracing import (
    TRACE_ENV,
    TRACE_FORMAT_VERSION,
    _NULL_SPAN,
    arm_from_env,
    arm_trace,
    disarm_trace,
    event,
    get_tracer,
    read_trace,
    span,
    summarize_trace,
    tracing_active,
    use_trace,
)
from repro.resilience import FaultPlan, FaultSpec, InjectedCrash, arm, disarm
from repro.scale import generate_context_shards
from repro.utils.timing import Timer


@pytest.fixture(autouse=True)
def _nothing_leaks():
    """No test may leak an armed tracer or fault injector into the suite."""
    disarm_trace()
    disarm()
    yield
    disarm_trace()
    disarm()


def _fit_config(trace_path=None, **overrides):
    base = dict(embedding_dim=8, decoder_hidden=12, epochs=3, seed=0,
                walk_length=10, num_walks=1, subsample_t=1e-4,
                trace_path=trace_path)
    base.update(overrides)
    return CoANEConfig(**base)


def _ids_by_type(records):
    starts = [r["id"] for r in records if r["type"] == "span_start"]
    ends = [r["id"] for r in records if r["type"] == "span_end"]
    return starts, ends


# ------------------------------------------------------------ disarmed cost
class TestDisarmed:
    def test_span_is_shared_null_singleton(self):
        assert span("anything") is _NULL_SPAN
        assert span("else", attr=1) is _NULL_SPAN
        with span("scope") as active:
            assert active is None
        assert _NULL_SPAN.set(x=1) is None

    def test_event_is_noop(self):
        assert event("anything", detail=1) is None

    def test_tracing_inactive(self):
        assert not tracing_active()
        assert get_tracer() is None

    def test_disarmed_site_overhead_is_negligible(self):
        # The whole point of the one-None-check contract: a hot-path site
        # must cost no more than a function call.  20 µs/call is ~100x the
        # real cost — lenient enough for any loaded CI box, tight enough to
        # catch an accidental allocation or I/O on the disarmed path.
        calls = 100_000
        start = time.perf_counter()
        for _ in range(calls):
            span("train.batch")
        elapsed = time.perf_counter() - start
        assert elapsed / calls < 20e-6


# ------------------------------------------------------- arming & precedence
class TestArming:
    def test_arm_and_disarm(self, tmp_path):
        tracer = arm_trace(str(tmp_path / "t.jsonl"))
        assert get_tracer() is tracer
        assert tracing_active()
        disarm_trace()
        assert get_tracer() is None

    def test_arm_from_env(self, tmp_path, monkeypatch):
        path = str(tmp_path / "env.jsonl")
        monkeypatch.setenv(TRACE_ENV, path)
        tracer = arm_from_env()
        assert tracer is get_tracer()
        assert tracer.path == path

    def test_env_unset_does_not_arm(self, monkeypatch):
        monkeypatch.delenv(TRACE_ENV, raising=False)
        assert arm_from_env() is None

    def test_config_path_wins_over_ambient(self, tmp_path):
        ambient = arm_trace(str(tmp_path / "ambient.jsonl"))
        scoped_path = str(tmp_path / "scoped.jsonl")
        with use_trace(scoped_path) as scoped:
            assert get_tracer() is scoped
            assert scoped.path == scoped_path
        assert get_tracer() is ambient

    def test_use_trace_none_keeps_ambient(self, tmp_path):
        ambient = arm_trace(str(tmp_path / "ambient.jsonl"))
        with use_trace(None) as active:
            assert active is ambient
        assert get_tracer() is ambient

    def test_closed_tracer_drops_writes(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        arm_trace(path)
        event("before")
        disarm_trace()
        assert len(read_trace(path)) == 1


# ------------------------------------------------------------- JSONL schema
class TestTraceSchema:
    @pytest.fixture(scope="class")
    def fit_trace(self, tmp_path_factory, tiny_graph):
        path = str(tmp_path_factory.mktemp("trace") / "fit.jsonl")
        CoANE(_fit_config(trace_path=path, batch_size=16)).fit(tiny_graph)
        return read_trace(path)

    def test_every_line_parses_and_is_typed(self, fit_trace):
        kinds = {record["type"] for record in fit_trace}
        assert kinds == {"manifest", "span_start", "span_end", "metrics"}

    def test_manifest_opens_the_trace(self, fit_trace):
        manifest = fit_trace[0]
        assert manifest["type"] == "manifest"
        assert manifest["version"] == TRACE_FORMAT_VERSION
        attrs = manifest["attrs"]
        assert attrs["seed"] == 0
        assert attrs["dtype"] == "float64"
        assert len(attrs["config_digest"]) == 16
        assert "commit" in attrs

    def test_manifest_carries_host_provenance(self, fit_trace):
        attrs = fit_trace[0]["attrs"]
        for key in ("cpu", "nproc", "blas", "blas_threads", "blas_core"):
            assert key in attrs, key
        assert isinstance(attrs["cpu"], str) and attrs["cpu"]
        assert attrs["nproc"] == (os.cpu_count() or 1)
        assert isinstance(attrs["blas"], str) and attrs["blas"]
        assert attrs["blas_threads"] == "unknown" or attrs["blas_threads"] >= 1
        assert isinstance(attrs["blas_core"], str) and attrs["blas_core"]

    def test_span_ids_unique_and_closed_exactly_once(self, fit_trace):
        starts, ends = _ids_by_type(fit_trace)
        assert len(starts) == len(set(starts))
        assert len(ends) == len(set(ends))
        # A clean fit closes every span it opens.
        assert set(starts) == set(ends)

    def test_parents_reference_known_spans(self, fit_trace):
        starts, _ = _ids_by_type(fit_trace)
        known = set(starts)
        for record in fit_trace:
            if record["type"] == "span_start" and record["parent"] is not None:
                assert record["parent"] in known

    def test_batch_spans_nest_under_their_epoch(self, fit_trace):
        epoch_ids = {r["id"] for r in fit_trace
                     if r["type"] == "span_start" and r["name"] == "train.epoch"}
        batches = [r for r in fit_trace
                   if r["type"] == "span_start" and r["name"] == "train.batch"]
        assert batches
        assert all(r["parent"] in epoch_ids for r in batches)

    def test_epoch_spans_carry_armed_diagnostics(self, fit_trace):
        epochs = [r for r in fit_trace
                  if r["type"] == "span_end" and r["name"] == "train.epoch"]
        assert len(epochs) == 3
        for record in epochs:
            assert record["seconds"] >= 0.0
            assert record["attrs"]["loss"] > 0.0
            assert record["attrs"]["grad_norm"] >= 0.0

    def test_final_metrics_snapshot_recorded(self, fit_trace):
        snapshots = [r for r in fit_trace if r["type"] == "metrics"]
        assert snapshots
        counters = snapshots[-1]["snapshot"]["counters"]
        # The registry is process-global by design, so earlier fits in this
        # pytest process may already have contributed epochs: >= not ==.
        assert counters["train_epochs_total"] >= 3
        assert snapshots[-1]["snapshot"]["histograms"][
            "train_epoch_seconds"]["count"] >= 3

    def test_summarize(self, fit_trace):
        summary = summarize_trace(fit_trace)
        epoch = summary["spans"]["train.epoch"]
        assert epoch["count"] == 3
        assert epoch["unclosed"] == 0
        assert epoch["total_s"] >= epoch["max_s"] >= epoch["mean_s"] > 0.0
        assert len(summary["manifests"]) == 1


class TestTraceReading:
    def test_torn_final_line_tolerated(self, tmp_path):
        path = tmp_path / "torn.jsonl"
        path.write_bytes(b'{"type": "event", "name": "ok", "attrs": {}}\n'
                         b'{"type": "span_st')
        records = read_trace(str(path))
        assert len(records) == 1
        assert records[0]["name"] == "ok"

    def test_garbage_mid_file_raises(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_bytes(b'{"type": "event", "name": "a", "attrs": {}}\n'
                         b'not json at all\n'
                         b'{"type": "event", "name": "b", "attrs": {}}\n')
        with pytest.raises(ValueError, match="unparseable"):
            read_trace(str(path))

    def test_unclosed_spans_counted(self):
        records = [
            {"type": "span_start", "name": "s", "id": "1-1", "parent": None},
            {"type": "span_start", "name": "s", "id": "1-2", "parent": "1-1"},
            {"type": "span_end", "name": "s", "id": "1-2", "seconds": 0.5},
        ]
        summary = summarize_trace(records)
        assert summary["spans"]["s"]["count"] == 1
        assert summary["spans"]["s"]["unclosed"] == 1


# --------------------------------------------------- agreement across views
class TestTimerAgreement:
    def test_timer_stage_and_trace_span_share_one_clock(self, tmp_path):
        path = str(tmp_path / "timer.jsonl")
        timer = Timer()
        with use_trace(path):
            with timer.stage("work"):
                time.sleep(0.01)
        records = read_trace(path)
        ends = [r for r in records if r["type"] == "span_end"
                and r["name"] == "stage.work"]
        assert len(ends) == 1
        # Not approximately: the stage bucket IS the span's measurement.
        assert timer.stages["work"] == ends[0]["seconds"]

    def test_timer_still_works_disarmed(self):
        timer = Timer()
        with timer.stage("work"):
            time.sleep(0.001)
        assert timer.stages["work"] > 0.0
        assert timer.summary()["total"] == timer.stages["work"]


class TestShardSpans:
    def test_crashed_shard_closes_its_span_with_the_error(self, small_graph,
                                                          tmp_path):
        """A crash is an exception: it propagates out of generation, and the
        span context still closes, recording the error name, so the trace
        names the shard that failed."""
        arm(FaultPlan([FaultSpec("shard.walk", "crash", (1,))]))
        path = str(tmp_path / "crash.jsonl")
        with use_trace(path):
            with pytest.raises(InjectedCrash):
                generate_context_shards(
                    small_graph, walk_length=20, num_walks=2, context_size=5,
                    subsample_t=1e-4, seed=0, num_workers=4)
        records = read_trace(path)
        walk_ends = [r for r in records if r["type"] == "span_end"
                     and r["name"] == "shard.walk"]
        # Shard 0 finished; shard 1 crashed; shards 2 and 3 never started.
        assert [r["attrs"]["shard"] for r in walk_ends] == [0, 1]
        assert "error" not in walk_ends[0]
        assert walk_ends[1]["error"] == "InjectedCrash"
        assert walk_ends[1]["attrs"] == {"shard": 1, "nodes": 30}
        assert summarize_trace(records)["spans"]["shard.walk"]["unclosed"] == 0


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
class TestMultiprocessInterleaving:
    def test_forked_writers_append_whole_lines(self, tmp_path):
        """Processes sharing one trace file (forked while it is armed, or
        subprocesses armed through REPRO_TRACE) interleave whole lines: one
        write() per record on an O_APPEND descriptor, ids unique because
        each embeds its writer's pid."""
        path = str(tmp_path / "forked.jsonl")
        writers, records_each = 3, 200
        padding = "x" * 2048  # records far beyond one pipe-sized write
        with use_trace(path):
            children = []
            for writer in range(writers):
                pid = os.fork()
                if pid == 0:  # child: write, then leave without cleanup
                    try:
                        for i in range(records_each):
                            with span("writer.task", writer=writer, i=i,
                                      padding=padding):
                                pass
                    finally:
                        os._exit(0)
                children.append(pid)
            for pid in children:
                _, status = os.waitpid(pid, 0)
                assert os.WEXITSTATUS(status) == 0
        records = read_trace(path)  # raises on any torn or spliced line
        starts = [r for r in records if r["type"] == "span_start"]
        assert len(starts) == writers * records_each
        assert all(r["attrs"]["padding"] == padding for r in starts)
        ids, ends = _ids_by_type(records)
        assert len(ids) == len(set(ids)) and sorted(ids) == sorted(ends)
        pids = {r["pid"] for r in starts}
        assert len(pids) == writers and os.getpid() not in pids
