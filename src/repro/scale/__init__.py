"""Training scale-out: sharded corpus generation and spill storage.

``repro.scale`` is the layer between corpus generation and training that lets
one ``CoANE.fit`` outgrow a single allocation:

* :func:`generate_context_shards` — partition start nodes into
  ``num_workers`` shards, run serially, each with an independent
  ``SeedSequence`` stream; bit-identical to the classic path at
  ``num_workers=1`` and a pure function of ``(seed, num_workers)`` above it,
* :class:`ShardStore` — walk/context shards in memory or spilled to disk as
  memory-mapped ``.npy`` blocks.

The trainer folds each shard into the per-node context shares
(:func:`repro.walks.contexts.context_shares`, over one node-id column space)
and the co-occurrence counts, both additive over window blocks, so the
shards are never concatenated; the context aggregate reads its attribute
rows once, from the summed shares.  Neither the ``(num_contexts, c*d)``
context matrix nor the per-node ``M = [A_1 X | … | A_c X]`` ever exists.

The float32 compute mode (``CoANEConfig(dtype="float32")``) lives in
:mod:`repro.nn.tensor` (:func:`repro.nn.compute_dtype`);
``repro bench --stage scale`` times it against float64.
"""

from repro.scale.sharding import (
    generate_context_shards,
    plan_shards,
    shard_seed_sequences,
)
from repro.scale.store import ShardStore, reap_orphans

__all__ = [
    "generate_context_shards",
    "plan_shards",
    "shard_seed_sequences",
    "ShardStore",
    "reap_orphans",
]
