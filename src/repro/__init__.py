"""CoANE reproduction: context co-occurrence-aware attributed network embedding.

Subpackages
-----------
``repro.core``
    The paper's contribution: the CoANE estimator and its three-way objective.
``repro.nn``
    From-scratch reverse-mode autodiff and neural-network layers.
``repro.graph``
    Attributed-graph container, synthetic dataset analogs, LINQS IO.
``repro.walks``
    Random walkers, context extraction, co-occurrence matrices.
``repro.baselines``
    The eleven competing methods of the paper's evaluation.
``repro.eval``
    Classification/clustering/link-prediction protocols and metrics.
``repro.perf``
    Stage timers, microbenchmarks, and JSON perf reports.
``repro.serve``
    Serving layer: checkpoints, exact top-k index, online scorers,
    inductive inference, and the query service front door.
``repro.scale``
    Training scale-out: sharded corpus generation and shard stores with
    disk spill.
"""

from repro.core import CoANE, CoANEConfig
from repro.graph import AttributedGraph, load_dataset

__version__ = "1.0.0"

__all__ = ["CoANE", "CoANEConfig", "AttributedGraph", "load_dataset", "__version__"]
