"""Scale-out benchmark: reduced-precision speedup and drift.

``repro bench --stage scale`` measures the axis the compute-dtype mode adds
and writes it to ``BENCH_scale.json``: **float32 vs float64** — mean epoch
time in each compute dtype and the cosine drift of the final embeddings (how
far reduced precision moves the learned vectors).
"""

from __future__ import annotations

import time

import numpy as np

from repro.core import CoANE, CoANEConfig
from repro.perf.bench import _bench_config, _load_graph


def _fit_seconds(graph, cfg: CoANEConfig) -> tuple:
    """Fit once; return (mean epoch seconds, embeddings)."""
    seconds = None
    marks = []
    cfg.history_hooks.append(lambda epoch, Z: marks.append(time.perf_counter()))
    estimator = CoANE(cfg).fit(graph)
    if len(marks) >= 2:
        seconds = float(np.diff(marks).mean())
    return seconds, estimator.embeddings_


def _cosine_drift(a: np.ndarray, b: np.ndarray) -> float:
    """Mean cosine similarity between matching rows (1.0 = no drift)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    norms = np.linalg.norm(a, axis=1) * np.linalg.norm(b, axis=1)
    valid = norms > 0
    if not valid.any():
        return 1.0
    return float(((a[valid] * b[valid]).sum(axis=1) / norms[valid]).mean())


def run_scale_bench(dataset: str = "pubmed", scale: float = 1.0, seed: int = 0,
                    epochs: int = 3, dtype: str = "float32",
                    graph=None) -> dict:
    """Measure the dtype axis on one dataset analog; return the report."""
    if graph is None:
        graph = _load_graph(dataset, scale, seed)
    base = _bench_config(seed, epochs)

    # --- reduced precision vs float64 ---------------------------------------
    f64_seconds, f64_embeddings = _fit_seconds(graph, _bench_config(seed, epochs))
    low_seconds, low_embeddings = _fit_seconds(
        graph, _bench_config(seed, epochs, dtype=dtype))
    dtype_report = {
        "reduced_dtype": dtype,
        "float64_epoch_seconds": f64_seconds,
        "reduced_epoch_seconds": low_seconds,
        "speedup": (f64_seconds / low_seconds
                    if f64_seconds and low_seconds else None),
        "cosine_drift": _cosine_drift(f64_embeddings, low_embeddings),
    }

    return {
        "benchmark": "scale",
        "dataset": graph.name,
        "scale": scale,
        "seed": seed,
        "num_nodes": graph.num_nodes,
        "num_edges": graph.num_edges,
        "config": {
            "walk_length": base.walk_length,
            "num_walks": base.num_walks,
            "context_size": base.context_size,
            "epochs": epochs,
        },
        "dtype": dtype_report,
    }
