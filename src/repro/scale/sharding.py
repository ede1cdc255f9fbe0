"""Sharded walk and context generation.

Every start node's walks are independent draws, so the corpus can be cut
into shards by start node at no cost in fidelity; the shards let a fit
spill its windows to disk one block at a time.  Shards run serially, in
shard order, in the calling process.  The only hard part is keeping the
result deterministic; the discipline mirrors the trainer's
:func:`repro.utils.rng.spawn_rngs`:

* ``num_workers == 1`` replays the exact single-shard path — the caller's
  ``walk_rng`` / ``context_rng`` streams drive one whole-graph walk and one
  extraction, so the output is **bit-identical** to ``RandomWalker.walk`` +
  ``extract_contexts``.
* ``num_workers > 1`` (the shard count; the name predates serial execution)
  derives one independent ``SeedSequence`` child per shard from the same
  root the trainer spawns its streams from (grandchildren of the
  walk/context children, so no stream is ever consumed twice).  The output
  is a pure function of ``(seed, num_workers)``.

Word2vec subsampling needs *global* node frequencies, so generation is two
phases: every shard's walks are sampled, their position counts are reduced,
then every shard's windows are extracted against the global frequency table.
"""

from __future__ import annotations

import numpy as np

from repro.obs.metrics import get_registry
from repro.obs.tracing import span as trace_span
from repro.resilience.faults import fault_check
from repro.scale.store import ShardStore
from repro.utils.rng import spawn_rngs
from repro.walks.contexts import extract_contexts
from repro.walks.random_walk import RandomWalker


def plan_shards(num_nodes: int, num_shards: int) -> list:
    """Partition start nodes ``0..n-1`` into at most ``num_shards`` contiguous
    blocks (``np.array_split`` semantics; never more shards than nodes)."""
    if num_shards < 1:
        raise ValueError(f"num_shards must be >= 1, got {num_shards}")
    if num_nodes < 1:
        return [np.empty(0, dtype=np.int64)]
    return np.array_split(np.arange(num_nodes, dtype=np.int64),
                          min(num_shards, num_nodes))


def shard_seed_sequences(seed, num_shards: int) -> tuple:
    """Per-shard ``(walk, context)`` seed sequences for the multi-shard path.

    Children 0 and 1 of ``SeedSequence(seed)`` are the same sequences the
    trainer turns into its walk/context generators; their *grandchildren*
    seed the shards, so shard streams collide neither with each other nor
    with the trainer's sampler/init/batch streams.
    """
    children = np.random.SeedSequence(seed).spawn(2)
    return children[0].spawn(num_shards), children[1].spawn(num_shards)


def generate_context_shards(graph, *, walk_length: int, num_walks: int,
                            context_size: int, subsample_t: float,
                            seed=None, num_workers: int = 1,
                            walk_rng=None, context_rng=None,
                            store: ShardStore = None) -> ShardStore:
    """Generate the walk/context corpus as shards; returns the filled store.

    Parameters
    ----------
    graph:
        The attributed graph to walk.
    walk_length, num_walks, context_size, subsample_t:
        The corpus hyperparameters (see :class:`~repro.core.CoANEConfig`).
    seed:
        Root seed; drives the per-shard streams when ``num_workers > 1``.
    num_workers:
        Number of shards, run serially in shard order.  The output depends
        on this value: the determinism contract is "reproducible given
        ``(seed, num_workers)``".
    walk_rng, context_rng:
        Already-spawned generators for the single-shard path (the trainer
        passes its own so the result is bit-identical to the historical
        in-process pipeline).  Ignored when ``num_workers > 1``.
    store:
        Destination :class:`ShardStore`; a fresh in-memory store by default.
    """
    if num_workers < 1:
        raise ValueError(f"num_workers must be >= 1, got {num_workers}")
    store = ShardStore() if store is None else store
    n = graph.num_nodes

    if num_workers == 1:
        if walk_rng is None or context_rng is None:
            walk_rng, context_rng = spawn_rngs(seed, 2)
        walks = RandomWalker(graph, seed=walk_rng).walk(walk_length,
                                                        num_walks=num_walks)
        context_set = extract_contexts(walks, context_size, n,
                                       subsample_t=subsample_t,
                                       seed=context_rng)
        store.append(context_set.windows, context_set.midst)
        return store

    shards = plan_shards(n, num_workers)
    walk_seqs, context_seqs = shard_seed_sequences(seed, len(shards))
    walk_blocks = []
    for i, start_nodes in enumerate(shards):
        # The span opens before the fault site, so an injected crash closes
        # it with the error: the trace names the shard that died.
        with trace_span("shard.walk", shard=i, nodes=len(start_nodes)):
            fault_check("shard.walk", (i,))
            walker = RandomWalker(graph,
                                  seed=np.random.default_rng(walk_seqs[i]))
            walk_blocks.append(walker.walk(walk_length, num_walks=num_walks,
                                           start_nodes=start_nodes))
    get_registry().counter("shard_tasks_total").inc(len(shards))

    # Global reduce: subsampling probabilities must reflect the frequency of
    # each node across the WHOLE corpus, not one shard's slice of it.
    position_counts = np.zeros(n, dtype=np.int64)
    for walks in walk_blocks:
        position_counts += np.bincount(walks.ravel(), minlength=n)

    for i, walks in enumerate(walk_blocks):
        with trace_span("shard.extract", shard=i) as extract_span:
            context_set = extract_contexts(
                walks, context_size, n, subsample_t=subsample_t,
                seed=np.random.default_rng(context_seqs[i]),
                node_frequency=position_counts,
            )
            if extract_span is not None:
                extract_span.set(windows=int(len(context_set.windows)))
        store.append(context_set.windows, context_set.midst)
    return store
