"""Sharded corpus generation and corpus sources: the determinism contract.

* ``num_workers=1`` must be bit-identical to the classic in-process pipeline
  (same walks, same windows, same RNG streams).
* ``num_workers>1`` must be a pure function of ``(seed, num_workers)`` —
  identical across repeated runs, in memory and spilled, and pinned by
  golden digests so the bytes of every shard count never drift.
* Folding shards one by one into the co-occurrence counts and the context
  aggregate must reproduce the whole-corpus results.
"""

import functools
import hashlib
import operator

import numpy as np
import pytest
import scipy.sparse as sp

from context_oracle import materialized
from repro.scale import ShardStore, generate_context_shards, plan_shards
from repro.utils.rng import spawn_rngs
from repro.walks.contexts import (
    ContextAggregate,
    ContextSet,
    context_aggregate,
    context_shares,
    extract_contexts,
)
from repro.walks.cooccurrence import build_cooccurrence, count_window_cooccurrence
from repro.walks.random_walk import RandomWalker

PARAMS = dict(walk_length=20, num_walks=2, context_size=5, subsample_t=1e-4)


def _generate(graph, seed, workers, spill_dir=None):
    store = ShardStore(spill_dir=str(spill_dir) if spill_dir else None)
    return generate_context_shards(graph, seed=seed, num_workers=workers,
                                   store=store, **PARAMS)


def _concat(store):
    windows = np.vstack([np.asarray(w) for _, w, _ in store.iter_shards()])
    midst = np.concatenate([m for _, _, m in store.iter_shards()])
    return windows, midst


class TestPlanShards:
    def test_partition_covers_all_nodes_contiguously(self):
        shards = plan_shards(11, 3)
        np.testing.assert_array_equal(np.concatenate(shards), np.arange(11))
        assert len(shards) == 3

    def test_never_more_shards_than_nodes(self):
        shards = plan_shards(2, 8)
        assert len(shards) == 2

    def test_invalid_counts(self):
        with pytest.raises(ValueError):
            plan_shards(10, 0)


class TestSingleWorkerBitIdentity:
    def test_matches_classic_pipeline_exactly(self, small_graph):
        """workers=1 replays RandomWalker.walk + extract_contexts verbatim."""
        store = _generate(small_graph, seed=11, workers=1)
        assert store.num_shards == 1

        walk_rng, context_rng = spawn_rngs(11, 2)
        walks = RandomWalker(small_graph, seed=walk_rng).walk(
            PARAMS["walk_length"], num_walks=PARAMS["num_walks"])
        reference = extract_contexts(walks, PARAMS["context_size"],
                                     small_graph.num_nodes,
                                     subsample_t=PARAMS["subsample_t"],
                                     seed=context_rng)
        np.testing.assert_array_equal(store.windows(0), reference.windows)
        np.testing.assert_array_equal(store.midst(0), reference.midst)


class TestMultiWorkerDeterminism:
    def test_repeated_runs_identical(self, small_graph):
        a = _generate(small_graph, seed=5, workers=3)
        b = _generate(small_graph, seed=5, workers=3)
        assert a.num_shards == b.num_shards == 3
        for shard in range(3):
            np.testing.assert_array_equal(a.windows(shard), b.windows(shard))
            np.testing.assert_array_equal(a.midst(shard), b.midst(shard))

    #: md5 of the concatenated int64 windows then midst, seed 5, per shard
    #: count; the digests were taken when shards still ran in a process pool.
    GOLDEN = {
        1: "61347f81bea954a7f8e35be9cdd32ee9",
        2: "3f88c5dfeebc0638d0e75dc7b936d968",
        3: "91520eb7dcd30a635f34ba5feef5715a",
        4: "70457a988edeec243d0e206992507e3a",
    }

    @pytest.mark.parametrize("spill", [False, True], ids=["memory", "spill"])
    @pytest.mark.parametrize("workers", sorted(GOLDEN))
    def test_corpus_bytes_golden(self, small_graph, tmp_path, workers, spill):
        store = _generate(small_graph, seed=5, workers=workers,
                          spill_dir=tmp_path / "shards" if spill else None)
        with store:
            windows, midst = _concat(store)
        digest = hashlib.md5(windows.astype(np.int64).tobytes()
                             + midst.astype(np.int64).tobytes()).hexdigest()
        assert digest == self.GOLDEN[workers]

    def test_seed_changes_output(self, small_graph):
        a, _ = _concat(_generate(small_graph, seed=5, workers=2))
        b, _ = _concat(_generate(small_graph, seed=6, workers=2))
        assert a.shape != b.shape or not np.array_equal(a, b)

    def test_every_node_keeps_a_context(self, small_graph):
        """Position-0 windows are always kept, shard or no shard."""
        store = _generate(small_graph, seed=0, workers=4)
        _, midst = _concat(store)
        counts = np.bincount(midst, minlength=small_graph.num_nodes)
        assert (counts > 0).all()


class TestShardSpill:
    def test_spilled_store_round_trips(self, small_graph, tmp_path):
        memory = _generate(small_graph, seed=9, workers=2)
        spilled = _generate(small_graph, seed=9, workers=2,
                            spill_dir=tmp_path / "shards")
        assert spilled.spilled and not memory.spilled
        for shard in range(2):
            # Spilled windows come back as read-only memmaps of equal bytes.
            assert isinstance(spilled.windows(shard), np.memmap)
            np.testing.assert_array_equal(np.asarray(spilled.windows(shard)),
                                          memory.windows(shard))

    def test_shape_validation(self):
        store = ShardStore()
        with pytest.raises(ValueError):
            store.append(np.zeros((3, 5), dtype=np.int64),
                         np.zeros(2, dtype=np.int64))


class TestShardFolding:
    """The sharded trainer folds each shard into the co-occurrence counts
    and the context aggregate; both must equal the whole-corpus result."""

    def test_folded_cooccurrence_exact(self, small_graph):
        store = generate_context_shards(small_graph, seed=3, num_workers=2,
                                        store=ShardStore(),
                                        **PARAMS)
        windows, midst = _concat(store)
        reference = build_cooccurrence(
            ContextSet(windows, midst, small_graph.num_nodes), small_graph)
        folded = sum(count_window_cooccurrence(np.asarray(w), m,
                                               small_graph.num_nodes)
                     for _, w, m in store.iter_shards())
        assert (reference.D != folded).nnz == 0

    def test_folded_aggregate_matches_whole_corpus(self, small_graph):
        store = generate_context_shards(small_graph, seed=3, num_workers=3,
                                        store=ShardStore(),
                                        **PARAMS)
        windows, midst = _concat(store)
        n = small_graph.num_nodes
        counts = np.bincount(midst, minlength=n)
        whole = context_aggregate(windows, midst, small_graph.attributes, n)
        blocks = [context_shares(np.asarray(w), m, n, counts=counts)
                  for _, w, m in store.iter_shards()]
        # Each shard reads only some table rows, but all blocks share one
        # column space, so their shares sum to the whole corpus's.
        context_size = whole.context_size
        assert any(len(np.unique(block.indices // context_size))
                   < len(whole.nodes) for block in blocks)
        folded = ContextAggregate.from_shares(
            functools.reduce(operator.add, blocks), small_graph.attributes,
            context_size)
        np.testing.assert_array_equal(folded.nodes, whole.nodes)
        assert sp.issparse(whole.table) == sp.issparse(folded.table)
        np.testing.assert_allclose(folded.shares.toarray(),
                                   whole.shares.toarray(), rtol=1e-12,
                                   atol=1e-15)
        np.testing.assert_allclose(materialized(folded), materialized(whole),
                                   rtol=1e-12, atol=1e-15)

    def test_chunked_counting_matches_whole_corpus(self, small_graph):
        store = generate_context_shards(small_graph, seed=3, num_workers=1,
                                        store=ShardStore(), **PARAMS)
        windows, midst = store.windows(0), store.midst(0)
        whole = count_window_cooccurrence(windows, midst,
                                          small_graph.num_nodes)
        total = None
        for start in range(0, len(midst), 111):
            block = count_window_cooccurrence(windows[start:start + 111],
                                              midst[start:start + 111],
                                              small_graph.num_nodes)
            total = block if total is None else total + block
        assert (whole != total).nnz == 0
        reference = build_cooccurrence(
            ContextSet(windows, midst, small_graph.num_nodes), small_graph)
        assert (reference.D != whole).nnz == 0


class TestSpillIsolation:
    def test_two_stores_sharing_a_spill_dir_do_not_collide(self, small_graph,
                                                           tmp_path):
        """Sequential or concurrent runs pointed at one --spill-dir must not
        overwrite each other's shard files."""
        first = _generate(small_graph, seed=1, workers=2,
                          spill_dir=tmp_path / "d")
        before = [np.asarray(first.windows(s)).copy() for s in range(2)]
        second = _generate(small_graph, seed=2, workers=2,
                           spill_dir=tmp_path / "d")
        for shard in range(2):
            np.testing.assert_array_equal(np.asarray(first.windows(shard)),
                                          before[shard])
        assert second.num_contexts > 0
