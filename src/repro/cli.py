"""Command-line interface: train a method on a dataset and report one task,
benchmark the pipeline, or export/serve a trained model.

Examples::

    python -m repro --dataset cora --method coane --task clustering
    python -m repro --dataset webkb-cornell --method vgae --task classification
    python -m repro --dataset citeseer --method coane --task linkpred --scale 0.5
    python -m repro --linqs-dir /data/cora --linqs-name cora --method coane
    python -m repro train --dataset pubmed --workers 4 --dtype float32
    python -m repro bench --dataset pubmed --scale 1.0
    python -m repro bench --stage serve --dataset pubmed --scale 0.5
    python -m repro bench --stage scale --dataset pubmed
    python -m repro export --dataset pubmed --output pubmed.ckpt.npz
    python -m repro query --checkpoint pubmed.ckpt.npz --node 7 --topk 10
    python -m repro serve --checkpoint pubmed.ckpt.npz --port 8080
    python -m repro bench --stage traffic --rates 100,200,400
    python -m repro train --dataset cora --trace run.trace.jsonl
    python -m repro trace summarize run.trace.jsonl
    python -m repro metrics --dump
"""

from __future__ import annotations

import argparse
import sys

from repro.baselines import all_methods, make_method
from repro.eval import (
    evaluate_classification,
    evaluate_clustering,
    link_prediction_auc,
    split_edges,
)
from repro.graph import dataset_names, load_dataset, read_linqs
from repro.utils.tables import format_table


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="CoANE reproduction: train an embedding method and evaluate it.",
        epilog="Subcommands: 'repro bench' times the pipeline or serving "
               "stages, 'repro export' writes a serve checkpoint, "
               "'repro query' answers top-k neighbor queries from one, "
               "'repro serve' exposes one over HTTP, "
               "'repro trace summarize' aggregates a JSONL span trace, and "
               "'repro metrics' exports the metrics registry "
               "(see '<subcommand> --help').",
    )
    source = parser.add_argument_group("data source")
    source.add_argument("--dataset", choices=dataset_names(),
                        help="synthetic analog of a paper dataset")
    source.add_argument("--scale", type=float, default=1.0,
                        help="node-count multiplier for the analog (default 1.0)")
    source.add_argument("--linqs-dir", help="directory with <name>.content/<name>.cites")
    source.add_argument("--linqs-name", help="basename of the LINQS files")
    parser.add_argument("--method", default="coane", choices=all_methods(),
                        help="embedding method (default coane)")
    parser.add_argument("--task", default="clustering",
                        choices=["classification", "clustering", "linkpred"],
                        help="evaluation task (default clustering)")
    parser.add_argument("--dim", type=int, default=128, help="embedding dimension")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--budget", default="bench", choices=["bench", "full"],
                        help="training budget preset")
    return parser


def load_graph(args):
    if args.linqs_dir:
        if not args.linqs_name:
            raise SystemExit("--linqs-name is required with --linqs-dir")
        return read_linqs(args.linqs_dir, args.linqs_name)
    if not args.dataset:
        raise SystemExit("either --dataset or --linqs-dir is required")
    return load_dataset(args.dataset, seed=args.seed, scale=args.scale)


def report_task(task: str, graph, seed: int, title: str, embeddings=None,
                refit=None) -> None:
    """Evaluate one task and print its table (shared by the default command
    and ``repro train``).

    ``embeddings`` serves the transductive tasks; ``refit`` is a
    ``graph -> embeddings`` callable used by link prediction, which must
    train on the edge-split training graph rather than the full one.
    """
    if task == "linkpred":
        split = split_edges(graph, seed=seed)
        scores = link_prediction_auc(refit(split.train_graph), split,
                                     phases=("val", "test"))
        print(format_table(["phase", "AUC"], sorted(scores.items()),
                           title=f"{title} link prediction"))
        return
    if graph.labels is None:
        raise SystemExit("this graph has no labels; only linkpred is available")
    if task == "classification":
        results = evaluate_classification(embeddings, graph.labels, seed=seed)
        rows = [[f"{int(ratio * 100)}%", scores["macro"], scores["micro"]]
                for ratio, scores in sorted(results.items())]
        print(format_table(["train ratio", "Macro-F1", "Micro-F1"], rows,
                           title=f"{title} node classification"))
    else:
        nmi = evaluate_clustering(embeddings, graph.labels, seed=seed)
        print(format_table(["metric", "value"], [["NMI", nmi]],
                           title=f"{title} node clustering"))


def build_bench_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro bench",
        description="Time the training pipeline stages (--stage pipeline), "
                    "the serving path (--stage serve), the scale-out axes "
                    "(--stage scale), or the HTTP edge under open-loop load "
                    "(--stage traffic); write a JSON perf report.",
    )
    parser.add_argument("--stage", default="pipeline",
                        choices=["pipeline", "serve", "scale", "traffic"],
                        help="which tier to benchmark (default pipeline)")
    parser.add_argument("--dataset", default="pubmed", choices=dataset_names(),
                        help="synthetic analog to benchmark on (default pubmed)")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="node-count multiplier for the analog (default 1.0)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--epochs", type=int, default=3,
                        help="training epochs per timing fit (default 3)")
    parser.add_argument("--batch-size", type=int, default=256,
                        help="pipeline: mini-batch stage batch size (0 skips it); "
                             "serve: batched-query size")
    parser.add_argument("--topk", type=int, default=10,
                        help="serve stage: neighbors per query (default 10)")
    parser.add_argument("--dtype", default="float32",
                        choices=["float32", "float64"],
                        help="scale stage: reduced-precision dtype to compare "
                             "against float64 (default float32)")
    parser.add_argument("--no-micro", action="store_true",
                        help="skip the vectorised-vs-reference microbenchmarks")
    parser.add_argument("--ann-nodes", type=int, default=100_000,
                        help="serve stage: synthetic embedding count for the "
                             "exact-vs-IVF comparison (default 100000; 0 "
                             "skips it)")
    parser.add_argument("--ann-dim", type=int, default=64,
                        help="serve stage: synthetic embedding dimension for "
                             "the ANN comparison (default 64)")
    parser.add_argument("--ann-queries", type=int, default=1024,
                        help="serve stage: query batch for the ANN comparison "
                             "(default 1024)")
    traffic = parser.add_argument_group("traffic stage (HTTP edge)")
    traffic.add_argument("--rates", default="100,200,400,800",
                         help="traffic stage: comma-separated offered rates "
                              "(requests/s) for the acceptance sweep "
                              "(default 100,200,400,800)")
    traffic.add_argument("--duration", type=float, default=3.0,
                         help="traffic stage: seconds per burst (default 3.0)")
    traffic.add_argument("--deadline-ms", type=float, default=250.0,
                         help="traffic stage: per-search deadline and the "
                              "p99 acceptance bar (default 250)")
    traffic.add_argument("--max-batch", type=int, default=64,
                         help="traffic stage: coalesced batch ceiling "
                              "(default 64)")
    traffic.add_argument("--max-queue", type=int, default=256,
                         help="traffic stage: admission queue bound; fuller "
                              "queues shed with 503 (default 256)")
    traffic.add_argument("--overload-factor", type=float, default=4.0,
                         help="traffic stage: overload burst rate as a "
                              "multiple of the accepted rate (default 4.0)")
    parser.add_argument("--output", default=None,
                        help="report path (default BENCH_pipeline.json / "
                             "BENCH_serve.json / BENCH_scale.json / "
                             "BENCH_traffic.json by stage)")
    return parser


def _parse_rates(text: str):
    try:
        rates = [float(rate) for rate in str(text).split(",") if rate.strip()]
    except ValueError:
        raise SystemExit(f"--rates must be comma-separated numbers, got {text!r}")
    if not rates or any(rate <= 0 for rate in rates):
        raise SystemExit("--rates must name at least one positive rate")
    return rates


def _burst_row(label: str, entry: dict) -> list:
    latency = entry["latency_ms"]
    fmt = lambda value: f"{value:.1f}" if value is not None else "-"
    return [label, f"{entry['offered_rate']:.0f}",
            f"{entry['sustained_rps']:.0f}", entry["ok"], entry["shed"],
            entry["errors"], fmt(latency["p50"]), fmt(latency["p99"])]


def run_traffic_bench_cli(args) -> int:
    from repro.perf import run_traffic_bench, write_report

    report = run_traffic_bench(
        dataset=args.dataset, scale=args.scale, seed=args.seed,
        epochs=args.epochs, rates=_parse_rates(args.rates),
        duration_s=args.duration, topk=args.topk,
        deadline_ms=args.deadline_ms, max_batch=args.max_batch,
        max_queue=args.max_queue, overload_factor=args.overload_factor,
    )
    rows = [_burst_row("sweep" + (" *" if entry["accepted"] else ""), entry)
            for entry in report["sweep"]]
    rows.append(_burst_row("overload", report["overload"]))
    rows.append(_burst_row("reload burst", report["reload"]))
    print(format_table(
        ["phase", "offered", "rps", "ok", "shed", "err", "p50 ms", "p99 ms"],
        rows, title=f"traffic bench ({report['dataset']}, "
                    f"{report['num_vectors']} vectors, deadline "
                    f"{report['server']['deadline_ms']:.0f} ms)"))
    accepted = report["accepted"]
    print("[accepted operating point: "
          + (f"{accepted['offered_rate']:.0f} req/s, "
             f"p99 {accepted['latency_ms']['p99']:.1f} ms]" if accepted
             else "none — every sweep rate missed the bar]"))
    print(f"[overload absorbed by sheds: "
          f"{report['overload']['absorbed_by_sheds']}; hot reload clean: "
          f"{report['reload']['clean']} "
          f"(generation {report['reload']['reload']['generation_before']} -> "
          f"{report['reload']['reload']['generation_after']})]")
    path = write_report(report, args.output or "BENCH_traffic.json")
    print(f"[report written to {path}]")
    return 0


def run_scale_bench_cli(args) -> int:
    from repro.perf import run_scale_bench, write_report

    report = run_scale_bench(
        dataset=args.dataset, scale=args.scale, seed=args.seed,
        epochs=args.epochs, dtype=args.dtype,
    )
    dtype = report["dtype"]
    reduced = dtype["reduced_dtype"]
    rows = [[label, round(dtype[key], 4) if dtype[key] else "-", "-"]
            for label, key in (("float64 epoch", "float64_epoch_seconds"),
                               (f"{reduced} epoch", "reduced_epoch_seconds"))]
    rows.append([f"{reduced} speedup", "-",
                 f"{dtype['speedup']:.2f}x" if dtype["speedup"] else "-"])
    rows.append([f"{reduced} cosine drift", "-",
                 f"{dtype['cosine_drift']:.6f}"])
    print(format_table(["axis", "seconds", "ratio"], rows,
                       title=f"scale bench ({report['dataset']}, "
                             f"scale {report['scale']})"))
    path = write_report(report, args.output or "BENCH_scale.json")
    print(f"[report written to {path}]")
    return 0


def run_serve_bench_cli(args) -> int:
    from repro.perf import run_serve_bench, write_report

    report = run_serve_bench(
        dataset=args.dataset, scale=args.scale, seed=args.seed,
        epochs=args.epochs, topk=args.topk,
        batch_size=args.batch_size or 256,
        ann_nodes=args.ann_nodes, ann_dim=args.ann_dim,
        ann_queries=args.ann_queries,
    )
    rows = [["train", round(report["train"]["seconds"], 4), "-"],
            ["checkpoint save", round(report["checkpoint"]["save_seconds"], 4), "-"],
            ["checkpoint load", round(report["checkpoint"]["load_seconds"], 4), "-"]]
    for metric, entry in report["index"].items():
        rows.append([f"index build [{metric}]",
                     round(entry["build_seconds"], 4), "-"])
        rows.append([f"single query [{metric}]",
                     f"{entry['single_query_mean_s']:.6f}",
                     f"{1.0 / entry['single_query_mean_s']:.0f} queries/s"])
        rows.append([f"batched x{entry['batch_size']} [{metric}]",
                     round(entry["batch_seconds"], 4),
                     f"{entry['batched_queries_per_s']:.0f} queries/s"])
    rows.append(["cache hit", f"{report['cache']['hit_seconds']:.6f}", "-"])
    print(format_table(["stage", "seconds", "throughput"], rows,
                       title=f"serve bench ({report['dataset']}, "
                             f"scale {report['scale']}, top-{report['topk']})"))
    if "ann" in report:
        ann = report["ann"]
        rows = [["exact", "-", f"{ann['exact']['queries_per_s']:.0f} q/s",
                 "1.00x", "1.0000"]]
        for entry in ann["ivf"]:
            rows.append([f"ivf nprobe={entry['nprobe']}", "-",
                         f"{entry['queries_per_s']:.0f} q/s",
                         f"{entry['speedup_vs_exact']:.1f}x",
                         f"{entry['recall_at_10']:.4f}"])
        print(format_table(
            ["tier", "", "throughput", "speedup", "recall@10"], rows,
            title=f"approximate search ({ann['num_vectors']} vectors, "
                  f"dim {ann['dim']}, {ann['n_cells']} cells)"))
    path = write_report(report, args.output or "BENCH_serve.json")
    print(f"[report written to {path}]")
    return 0


def run_bench(argv) -> int:
    from repro.obs.manifest import host_provenance
    from repro.perf import run_pipeline_bench, write_report

    args = build_bench_parser().parse_args(argv)
    if args.stage == "serve":
        return run_serve_bench_cli(args)
    if args.stage == "scale":
        return run_scale_bench_cli(args)
    if args.stage == "traffic":
        return run_traffic_bench_cli(args)
    report = run_pipeline_bench(
        dataset=args.dataset, scale=args.scale, seed=args.seed,
        epochs=args.epochs, batch_size=args.batch_size, micro=not args.no_micro,
    )
    print(f"[{host_provenance()['blas_threads']} BLAS threads]")
    rows = []
    for name, stage in report["stages"].items():
        throughput = stage["throughput"]
        rows.append([name, round(stage["seconds"], 4) if stage["seconds"] is not None else "-",
                     f"{throughput:.1f} {stage['unit']}" if throughput else "-"])
    print(format_table(["stage", "seconds", "throughput"], rows,
                       title=f"pipeline bench ({report['dataset']}, "
                             f"scale {report['scale']})"))
    if "micro" in report:
        rows = [[name, f"{m['reference_s']:.4f}", f"{m['vectorized_s']:.4f}",
                 f"{m['speedup']:.1f}x" if m["speedup"] else "-"]
                for name, m in report["micro"].items()]
        print(format_table(["microbenchmark", "reference s", "vectorized s", "speedup"],
                           rows, title="vectorised vs reference"))
    path = write_report(report, args.output or "BENCH_pipeline.json")
    print(f"[report written to {path}]")
    return 0


def build_train_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro train",
        description="Train CoANE with the scale-out knobs (sharded corpus "
                    "generation, shard spilling, float32 compute) "
                    "and optionally evaluate or export the result.",
    )
    source = parser.add_argument_group("data source")
    source.add_argument("--dataset", choices=dataset_names(),
                        help="synthetic analog of a paper dataset")
    source.add_argument("--scale", type=float, default=1.0,
                        help="node-count multiplier for the analog (default 1.0)")
    source.add_argument("--linqs-dir", help="directory with <name>.content/<name>.cites")
    source.add_argument("--linqs-name", help="basename of the LINQS files")
    parser.add_argument("--dim", type=int, default=128, help="embedding dimension")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--epochs", type=int, default=30,
                        help="training epochs (default 30)")
    parser.add_argument("--batch-size", type=int, default=None,
                        help="mini-batch size (default: full batch)")
    parser.add_argument("--workers", type=int, default=1,
                        help="number of corpus shards, generated serially "
                             "in this process; the corpus is a pure function "
                             "of (seed, workers)")
    parser.add_argument("--spill-dir", default=None,
                        help="spill context shards to this directory "
                             "(memory-mapped; for larger-than-memory corpora)")
    parser.add_argument("--dtype", default="float64",
                        choices=["float64", "float32"],
                        help="compute precision of the fit (default float64)")
    parser.add_argument("--task", default="none",
                        choices=["none", "classification", "clustering", "linkpred"],
                        help="evaluate the embeddings after training (default none)")
    parser.add_argument("--output", default=None,
                        help="write a serve checkpoint here after training")
    durability = parser.add_argument_group("durability (repro.resilience)")
    durability.add_argument("--checkpoint", default=None,
                            help="write epoch-boundary training state here "
                                 "(atomic, checksummed); enables --resume")
    durability.add_argument("--checkpoint-every", type=int, default=1,
                            help="epochs between training-state writes "
                                 "(default 1; the final epoch always saves)")
    durability.add_argument("--resume", action="store_true",
                            help="continue from the training state at "
                                 "--checkpoint; reproduces the uninterrupted "
                                 "run exactly (fresh start if none exists)")
    durability.add_argument("--fault-plan", default=None,
                            help="arm a deterministic fault plan before "
                                 "training (JSON text or a path to it); for "
                                 "resilience testing")
    obs = parser.add_argument_group("observability (repro.obs)")
    obs.add_argument("--trace", default=None, metavar="PATH",
                     help="append a JSONL span trace of the fit to PATH "
                          "(run manifest, epoch/batch and shard spans, "
                          "final metrics snapshot); equivalent to "
                          "setting REPRO_TRACE, and provably free when off")
    return parser


def run_train(argv) -> int:
    import os

    from repro.resilience import InjectedKill, arm, disarm

    args = build_train_parser().parse_args(argv)
    if args.fault_plan:
        text = args.fault_plan
        if os.path.exists(text):
            with open(text) as handle:
                text = handle.read()
        arm(text)
        print("[fault plan armed]")
    try:
        return _run_train(args)
    except InjectedKill as fault:
        # The simulated process death: surface it loudly with a distinct
        # exit code so restart loops (and the CI smoke job) can tell "killed
        # mid-run, resume me" from ordinary failures.
        print(f"[injected kill] {fault}", file=sys.stderr)
        return 3
    finally:
        disarm()


def _run_train(args) -> int:
    import time
    from dataclasses import replace

    from repro.core import CoANE, CoANEConfig
    from repro.scale import reap_orphans

    graph = load_graph(args)
    print(f"Loaded {graph}")
    if args.spill_dir:
        # Spill directories leaked by previously killed runs never clean
        # themselves; collect them before this run starts filling the disk.
        for path in reap_orphans(args.spill_dir):
            print(f"[reaped orphaned spill directory {path}]")
    config = CoANEConfig(
        embedding_dim=args.dim, epochs=args.epochs, seed=args.seed,
        batch_size=args.batch_size, num_workers=args.workers,
        spill_dir=args.spill_dir, dtype=args.dtype,
        checkpoint_path=args.checkpoint, checkpoint_every=args.checkpoint_every,
        trace_path=args.trace,
    )
    estimator = CoANE(config)
    start = time.perf_counter()
    embeddings = estimator.fit(graph, resume=args.resume).transform()
    seconds = time.perf_counter() - start
    rows = [
        ["nodes x dims", f"{embeddings.shape[0]} x {embeddings.shape[1]}"],
        ["compute dtype", str(embeddings.dtype)],
        ["contexts", int(estimator.context_counts_.sum())],
        ["corpus", ("sharded" if estimator.context_set_ is None
                    else "in-process") + f", workers={config.num_workers}"],
        ["first epoch loss", f"{estimator.history_[0]['loss']:.6f}"],
        ["final epoch loss", f"{estimator.history_[-1]['loss']:.6f}"],
        ["fit seconds", f"{seconds:.2f}"],
    ]
    if args.resume:
        rows.append(["resumed", "yes (exact continuation)"])
    if args.trace:
        rows.append(["trace", f"{args.trace} "
                              "(inspect with 'repro trace summarize')"])
    print(format_table(["field", "value"], rows,
                       title=f"repro train ({graph.name})"))
    if args.output:
        from repro.serve import Checkpoint

        checkpoint = Checkpoint.from_estimator(estimator, graph)
        path = checkpoint.save(args.output)
        print(f"[checkpoint written to {path}]")
    # Link-prediction refits train on a different (edge-split) graph; they
    # must not clobber the main run's training state.
    refit_config = replace(config, checkpoint_path=None)

    def refit(train_graph):
        return CoANE(refit_config).fit(train_graph).transform()

    if args.task != "none":
        report_task(args.task, graph, seed=args.seed, title="coane",
                    embeddings=embeddings, refit=refit)
    return 0


def build_export_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro export",
        description="Train CoANE on a dataset and write a serve checkpoint "
                    "(weights + embeddings + config + dataset fingerprint).",
    )
    source = parser.add_argument_group("data source")
    source.add_argument("--dataset", choices=dataset_names(),
                        help="synthetic analog of a paper dataset")
    source.add_argument("--scale", type=float, default=1.0,
                        help="node-count multiplier for the analog (default 1.0)")
    source.add_argument("--linqs-dir", help="directory with <name>.content/<name>.cites")
    source.add_argument("--linqs-name", help="basename of the LINQS files")
    parser.add_argument("--dim", type=int, default=128, help="embedding dimension")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--epochs", type=int, default=None,
                        help="override the budget preset's epoch count")
    parser.add_argument("--budget", default="bench", choices=["bench", "full"],
                        help="training budget preset")
    parser.add_argument("--output", default="model.ckpt.npz",
                        help="checkpoint path (default model.ckpt.npz)")
    return parser


def run_export(argv) -> int:
    from repro.core import CoANE, CoANEConfig
    from repro.serve import Checkpoint

    args = build_export_parser().parse_args(argv)
    graph = load_graph(args)
    print(f"Loaded {graph}")
    epochs = args.epochs or (50 if args.budget == "full" else 30)
    config = CoANEConfig(embedding_dim=args.dim, epochs=epochs, seed=args.seed)
    estimator = CoANE(config).fit(graph)
    checkpoint = Checkpoint.from_estimator(estimator, graph)
    path = checkpoint.save(args.output)
    print(f"[checkpoint written to {path}: {checkpoint.num_nodes} nodes x "
          f"{checkpoint.embedding_dim} dims, fingerprint {checkpoint.fingerprint}]")
    return 0


def build_query_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro query",
        description="Answer top-k nearest-neighbor queries from a serve "
                    "checkpoint (exact or IVF search; dot / cosine / L2).",
    )
    parser.add_argument("--checkpoint", required=True,
                        help="path written by 'repro export'")
    parser.add_argument("--node", type=int, action="append", required=True,
                        help="query node id (repeatable; queries batch together)")
    parser.add_argument("--topk", type=int, default=10,
                        help="neighbors per query (default 10)")
    parser.add_argument("--metric", default="cosine", choices=["dot", "cosine", "l2"],
                        help="similarity metric (default cosine)")
    parser.add_argument("--include-self", action="store_true",
                        help="keep the query node itself in its results")
    parser.add_argument("--index", default="exact", choices=["exact", "ivf"],
                        help="search tier: 'exact' scans everything, 'ivf' "
                             "probes the best cells and re-ranks exactly "
                             "(default exact)")
    parser.add_argument("--n-cells", type=int, default=None,
                        help="ivf: coarse cells (default ~4*sqrt(n))")
    parser.add_argument("--nprobe", type=int, default=8,
                        help="ivf: cells probed per query (default 8; "
                             "= n-cells gives exact answers)")
    return parser


def run_query(argv) -> int:
    from repro.serve import Checkpoint, EmbeddingIndex, IVFIndex

    args = build_query_parser().parse_args(argv)
    checkpoint = Checkpoint.load(args.checkpoint)
    if args.index == "ivf":
        index = IVFIndex(checkpoint.embeddings, metric=args.metric,
                         n_cells=args.n_cells, nprobe=args.nprobe)
    else:
        index = EmbeddingIndex(checkpoint.embeddings, metric=args.metric)
    ids, scores = index.search_ids(args.node, topk=args.topk,
                                   exclude_self=not args.include_self)
    rows = []
    for row, node in enumerate(args.node):
        for rank in range(ids.shape[1]):
            rows.append([node, rank + 1, int(ids[row, rank]),
                         f"{scores[row, rank]:.6f}"])
    dataset = checkpoint.info.get("dataset", "?")
    print(format_table(["query", "rank", "neighbor", args.metric], rows,
                       title=f"top-{args.topk} neighbors ({dataset}, "
                             f"{checkpoint.num_nodes} nodes)"))
    return 0


def build_serve_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro serve",
        description="Serve a checkpoint over HTTP: /v1/query with request "
                    "coalescing and bounded-queue backpressure, /v1/embed "
                    "and /v1/score (with --dataset), /healthz, Prometheus "
                    "/metrics, and /admin/reload for hot checkpoint swaps.",
    )
    parser.add_argument("--checkpoint", required=True,
                        help="path written by 'repro export'")
    parser.add_argument("--host", default="127.0.0.1",
                        help="bind address (default 127.0.0.1)")
    parser.add_argument("--port", type=int, default=8080,
                        help="bind port; 0 picks a free one (default 8080)")
    parser.add_argument("--metric", default="cosine",
                        choices=["dot", "cosine", "l2"],
                        help="similarity metric (default cosine)")
    parser.add_argument("--index", default="exact", choices=["exact", "ivf"],
                        help="search tier (default exact)")
    parser.add_argument("--n-cells", type=int, default=None,
                        help="ivf: coarse cells (default ~4*sqrt(n))")
    parser.add_argument("--nprobe", type=int, default=8,
                        help="ivf: cells probed per query (default 8)")
    parser.add_argument("--topk", type=int, default=10,
                        help="default neighbors per query (default 10)")
    parser.add_argument("--cache-size", type=int, default=1024,
                        help="LRU query cache entries; 0 disables "
                             "(default 1024)")
    parser.add_argument("--max-batch", type=int, default=64,
                        help="coalesced batch ceiling (default 64)")
    parser.add_argument("--deadline-ms", type=float, default=250.0,
                        help="per-search deadline driving degraded marking "
                             "and pressure shedding; 0 disables "
                             "(default 250)")
    parser.add_argument("--max-queue", type=int, default=256,
                        help="admission queue bound; fuller queues shed with "
                             "503 + Retry-After (default 256)")
    parser.add_argument("--shed-degraded-ratio", type=float, default=0.5,
                        help="degraded fraction of the recent window past "
                             "which new admissions shed (default 0.5)")
    parser.add_argument("--retry-after", type=float, default=1.0,
                        help="Retry-After seconds on shed responses "
                             "(default 1.0)")
    source = parser.add_argument_group(
        "graph attach (enables /v1/embed and /v1/score)")
    source.add_argument("--dataset", choices=dataset_names(),
                        help="regenerate the training analog and attach it")
    source.add_argument("--scale", type=float, default=1.0,
                        help="node-count multiplier for the analog")
    source.add_argument("--seed", type=int, default=0)
    parser.add_argument("--no-verify", action="store_true",
                        help="skip the checkpoint-vs-graph fingerprint check")
    return parser


def run_serve(argv) -> int:
    import asyncio

    from repro.serve.http import EmbeddingServer, ServerConfig

    args = build_serve_parser().parse_args(argv)
    graph = None
    if args.dataset:
        graph = load_dataset(args.dataset, seed=args.seed, scale=args.scale)
        print(f"Loaded {graph}")
    index_options = ({"n_cells": args.n_cells, "nprobe": args.nprobe}
                     if args.index == "ivf" else None)
    config = ServerConfig(
        host=args.host, port=args.port, metric=args.metric,
        index_kind=args.index, index_options=index_options,
        default_topk=args.topk, cache_size=args.cache_size,
        max_batch=args.max_batch,
        deadline_s=(args.deadline_ms / 1000.0) if args.deadline_ms else None,
        max_queue=args.max_queue,
        shed_degraded_ratio=args.shed_degraded_ratio,
        retry_after_s=args.retry_after,
        verify=not args.no_verify, seed=args.seed,
    )
    server = EmbeddingServer(args.checkpoint, graph=graph, config=config)

    async def main():
        await server.start()
        snapshot = server.snapshot
        print(f"[serving {args.checkpoint}: {snapshot.service.index.num_vectors} "
              f"vectors, {args.index}/{args.metric}, generation "
              f"{snapshot.generation}]")
        print(f"[listening on http://{config.host}:{server.port} — "
              f"/v1/query /v1/embed /v1/score /healthz /metrics "
              f"/admin/reload]")
        try:
            await server.serve_forever()
        except asyncio.CancelledError:
            pass
        finally:
            await server.close()

    try:
        asyncio.run(main())
    except KeyboardInterrupt:
        print("[shutting down]")
    return 0


def build_trace_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro trace",
        description="Inspect a JSONL span trace written by an armed run "
                    "('repro train --trace' or REPRO_TRACE).",
    )
    parser.add_argument("action", choices=["summarize"],
                        help="'summarize' prints per-span aggregates, event "
                             "counts, and any recorded metrics snapshots")
    parser.add_argument("path", help="trace file (JSONL)")
    return parser


def run_trace(argv) -> int:
    from repro.obs import read_trace, summarize_trace

    args = build_trace_parser().parse_args(argv)
    records = read_trace(args.path)
    summary = summarize_trace(records)
    for manifest in summary["manifests"]:
        attrs = manifest.get("attrs", {})
        print("[manifest] " + " ".join(f"{key}={attrs[key]}"
                                       for key in sorted(attrs)))
    rows = [[name, entry["count"], round(entry["total_s"], 4),
             f"{entry['mean_s']:.6f}", f"{entry['max_s']:.6f}",
             entry["unclosed"] or "-"]
            for name, entry in sorted(summary["spans"].items(),
                                      key=lambda item: -item[1]["total_s"])]
    print(format_table(
        ["span", "count", "total s", "mean s", "max s", "unclosed"], rows,
        title=f"trace summary ({args.path}, {len(records)} records)"))
    if summary["events"]:
        rows = [[name, count]
                for name, count in sorted(summary["events"].items())]
        print(format_table(["event", "count"], rows, title="events"))
    for snapshot_record in summary["metrics"]:
        counters = snapshot_record.get("snapshot", {}).get("counters", {})
        if counters:
            rows = [[name, value] for name, value in sorted(counters.items())]
            print(format_table(
                ["counter", "value"], rows,
                title=f"metrics ({snapshot_record.get('label', '?')})"))
    return 0


def build_metrics_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro metrics",
        description="Export the process-ambient metrics registry "
                    "(counters, gauges, histogram summaries).",
    )
    parser.add_argument("--dump", action="store_true",
                        help="print the registry in the Prometheus text "
                             "exposition format (default: a JSON snapshot)")
    return parser


def run_metrics(argv) -> int:
    import json

    from repro.obs import get_registry

    args = build_metrics_parser().parse_args(argv)
    registry = get_registry()
    if args.dump:
        text = registry.prometheus_text()
        sys.stdout.write(text if text else "# no metrics recorded\n")
    else:
        print(json.dumps(registry.snapshot(), indent=2))
    return 0


_SUBCOMMANDS = {"train": run_train, "bench": run_bench, "export": run_export,
                "query": run_query, "serve": run_serve, "trace": run_trace,
                "metrics": run_metrics}


def run(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] in _SUBCOMMANDS:
        return _SUBCOMMANDS[argv[0]](argv[1:])
    args = build_parser().parse_args(argv)
    graph = load_graph(args)
    print(f"Loaded {graph}")

    def make():
        return make_method(args.method, embedding_dim=args.dim,
                           seed=args.seed, budget=args.budget)

    if args.task == "linkpred":
        report_task("linkpred", graph, seed=args.seed, title=args.method,
                    refit=lambda train_graph: make().fit_transform(train_graph))
        return 0

    embeddings = make().fit_transform(graph)
    report_task(args.task, graph, seed=args.seed, title=args.method,
                embeddings=embeddings)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(run())
