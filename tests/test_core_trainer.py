"""End-to-end tests of the CoANE estimator."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core import CoANE, CoANEConfig


def _fast_config(**overrides):
    base = dict(embedding_dim=16, epochs=5, walk_length=20, num_walks=1,
                decoder_hidden=16, seed=0)
    base.update(overrides)
    return CoANEConfig(**base)


class TestFit:
    def test_embedding_shape(self, small_graph):
        Z = CoANE(_fast_config()).fit_transform(small_graph)
        assert Z.shape == (small_graph.num_nodes, 16)
        assert np.isfinite(Z).all()

    def test_transform_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            CoANE(_fast_config()).transform()

    def test_history_recorded(self, small_graph):
        model = CoANE(_fast_config(epochs=4)).fit(small_graph)
        assert len(model.history_) == 4
        assert {"loss", "positive", "negative", "attribute", "epoch"} <= set(model.history_[0])

    def test_loss_decreases(self, small_graph):
        model = CoANE(_fast_config(epochs=15)).fit(small_graph)
        first = np.mean([h["loss"] for h in model.history_[:3]])
        last = np.mean([h["loss"] for h in model.history_[-3:]])
        assert last < first

    def test_seeded_determinism(self, small_graph):
        a = CoANE(_fast_config()).fit_transform(small_graph)
        b = CoANE(_fast_config()).fit_transform(small_graph)
        np.testing.assert_array_equal(a, b)

    def test_embeddings_separate_classes(self, small_graph):
        Z = CoANE(_fast_config(epochs=20)).fit_transform(small_graph)
        norms = np.linalg.norm(Z, axis=1, keepdims=True)
        cosine = (Z / np.maximum(norms, 1e-12)) @ (Z / np.maximum(norms, 1e-12)).T
        same = small_graph.labels[:, None] == small_graph.labels[None, :]
        np.fill_diagonal(same, False)
        off = ~same & ~np.eye(len(Z), dtype=bool)
        assert cosine[same].mean() > cosine[off].mean() + 0.05

    def test_overrides_via_kwargs(self, tiny_graph):
        model = CoANE(embedding_dim=8, epochs=2, walk_length=10, decoder_hidden=8, seed=1)
        Z = model.fit_transform(tiny_graph)
        assert Z.shape == (tiny_graph.num_nodes, 8)

    def test_inspection_attributes(self, tiny_graph):
        model = CoANE(_fast_config(epochs=2)).fit(tiny_graph)
        assert model.model_ is not None
        assert model.context_set_.num_nodes == tiny_graph.num_nodes
        assert model.cooccurrence_.kp >= 1


class TestAblationSwitches:
    def test_positive_off(self, tiny_graph):
        model = CoANE(_fast_config(epochs=2, positive_mode="off")).fit(tiny_graph)
        assert all(h["positive"] == 0.0 for h in model.history_)

    def test_skipgram_positive(self, tiny_graph):
        model = CoANE(_fast_config(epochs=2, positive_mode="skipgram")).fit(tiny_graph)
        assert model.history_[0]["positive"] > 0.0

    def test_negative_off(self, tiny_graph):
        model = CoANE(_fast_config(epochs=2, negative_mode="off")).fit(tiny_graph)
        assert all(h["negative"] == 0.0 for h in model.history_)

    def test_uniform_negative(self, tiny_graph):
        model = CoANE(_fast_config(epochs=2, negative_mode="uniform",
                                   negative_strength=0.1)).fit(tiny_graph)
        assert any(h["negative"] > 0.0 for h in model.history_)

    def test_without_attribute_input(self, tiny_graph):
        # WF ablation: identity attributes instead of X.
        Z = CoANE(_fast_config(epochs=2, use_attribute_input=False)).fit_transform(tiny_graph)
        assert Z.shape == (tiny_graph.num_nodes, 16)

    def test_without_attribute_preservation(self, tiny_graph):
        model = CoANE(_fast_config(epochs=2, gamma=0.0)).fit(tiny_graph)
        assert all(h["attribute"] == 0.0 for h in model.history_)

    def test_fc_extractor(self, tiny_graph):
        Z = CoANE(_fast_config(epochs=2, extractor="fc")).fit_transform(tiny_graph)
        assert Z.shape == (tiny_graph.num_nodes, 16)

    def test_onehop_contexts(self, tiny_graph):
        model = CoANE(_fast_config(epochs=2, context_source="onehop")).fit(tiny_graph)
        # Every node must have at least one context in one-hop mode.
        assert (model.context_set_.counts() >= 1).all()


class TestBatchTraining:
    def test_mini_batch_runs_and_matches_shape(self, small_graph):
        Z = CoANE(_fast_config(epochs=3, batch_size=32)).fit_transform(small_graph)
        assert Z.shape == (small_graph.num_nodes, 16)
        assert np.isfinite(Z).all()

    def test_mini_batch_learns(self, small_graph):
        model = CoANE(_fast_config(epochs=10, batch_size=48)).fit(small_graph)
        Z = model.transform()
        norms = np.linalg.norm(Z, axis=1, keepdims=True)
        cosine = (Z / np.maximum(norms, 1e-12)) @ (Z / np.maximum(norms, 1e-12)).T
        same = small_graph.labels[:, None] == small_graph.labels[None, :]
        np.fill_diagonal(same, False)
        off = ~same & ~np.eye(len(Z), dtype=bool)
        assert cosine[same].mean() > cosine[off].mean()


class TestHooks:
    def test_history_hooks_called_each_epoch(self, tiny_graph):
        snapshots = []
        cfg = _fast_config(epochs=3)
        cfg.history_hooks.append(lambda epoch, Z: snapshots.append((epoch, Z.shape)))
        CoANE(cfg).fit(tiny_graph)
        assert [s[0] for s in snapshots] == [0, 1, 2]
        assert all(shape == (tiny_graph.num_nodes, 16) for _, shape in snapshots)


class TestMemoryBound:
    def test_pubmed_epoch_peak_under_112_mib(self):
        """One full-batch epoch on the pubmed analog stays under 112 MiB of
        traced allocations (74 MiB measured).  The pair terms score through
        ``pair_dot``, which never materialises the gathered ``(pairs, d)``
        operands or their gradients (the gather chain peaked near 580 MiB).
        The decoder runs on fused ``dense`` layers and a fused ``mse_loss``,
        and backward frees each activation once the sweep is done with it
        (the decoder chain peaked at 148 MiB)."""
        import tracemalloc

        from repro.graph import load_dataset

        graph = load_dataset("pubmed", seed=0)
        tracemalloc.start()
        try:
            CoANE(CoANEConfig(epochs=1, seed=0)).fit(graph)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 112 * 2**20, f"peak {peak / 2**20:.0f} MiB"

    def test_sgns_step_peak_under_128_mib(self):
        """One SGNS step (50k pairs x 5 negatives, 128-d), the update behind
        DeepWalk, node2vec and LINE, stays under 128 MiB of traced
        allocations: its scores run through ``pair_dot`` (24 MiB measured),
        not the gather chain, which materialised every gathered row and its
        gradient (1,622 MiB)."""
        import tracemalloc

        from repro.baselines.skipgram import SkipGramTrainer

        num_nodes, pairs = 1000, 50_000
        rng = np.random.default_rng(0)
        centers = rng.integers(0, num_nodes, size=pairs)
        contexts = rng.integers(0, num_nodes, size=pairs)
        noise = np.full(num_nodes, 1.0 / num_nodes)
        trainer = SkipGramTrainer(num_nodes, 128, num_negative=5, seed=0)
        tracemalloc.start()
        try:
            trainer._step(centers, contexts, noise)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 128 * 2**20, f"peak {peak / 2**20:.0f} MiB"

    @pytest.mark.parametrize("name", ["anrl", "graphsage", "stne"])
    def test_baseline_fit_peak_under_128_mib(self, name):
        """A bench-budget fit of each baseline that samples pairs every
        epoch stays under 128 MiB of traced allocations on the quarter-size
        pubmed analog: ANRL 35, GraphSAGE 28 and STNE 75 MiB measured with
        ``pair_dot``, against 690, 685 and 613 MiB on the gather chain."""
        import tracemalloc

        from repro.baselines import make_method
        from repro.graph import load_dataset

        graph = load_dataset("pubmed", seed=0, scale=0.25)
        estimator = make_method(name, seed=0)
        tracemalloc.start()
        try:
            estimator.fit(graph)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 128 * 2**20, f"peak {peak / 2**20:.0f} MiB"

    def test_baseline_fit_retains_nothing(self):
        """Once a fitted baseline is dropped, nothing it allocated stays
        behind: no process-wide cache keeps its index arrays' state (a
        selector cache once held 22 MiB after this ANRL fit)."""
        import gc
        import tracemalloc

        from repro.baselines import make_method
        from repro.graph import load_dataset

        graph = load_dataset("pubmed", seed=0, scale=0.25)
        estimator = make_method("anrl", seed=0)
        tracemalloc.start()
        try:
            estimator.fit(graph)
            del estimator
            gc.collect()
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert held < 2**20, f"held {held / 2**20:.1f} MiB"

    def test_pubmed_aggregate_holds_under_4_mib(self):
        """The built context aggregate holds its two factors — the stacked
        position shares and the attribute rows its windows read — not the
        materialised ``M = [A_1 X | … | A_c X]``, whose CSR held 13.8 MiB on
        this corpus (2.2 MiB factored)."""
        import tracemalloc

        from repro.graph import load_dataset
        from repro.utils.rng import spawn_rngs
        from repro.walks import RandomWalker, extract_contexts
        from repro.walks.contexts import context_aggregate

        graph = load_dataset("pubmed", seed=0)
        config = CoANEConfig(seed=0)
        walk_rng, context_rng = spawn_rngs(config.seed, 5)[:2]
        walks = RandomWalker(graph, seed=walk_rng).walk(
            config.walk_length, num_walks=config.num_walks)
        contexts = extract_contexts(walks, config.context_size,
                                    graph.num_nodes,
                                    subsample_t=config.subsample_t,
                                    seed=context_rng)
        tracemalloc.start()
        try:
            aggregate = context_aggregate(contexts.windows, contexts.midst,
                                          graph.attributes, graph.num_nodes,
                                          counts=contexts.counts())
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert aggregate.shape[0] == graph.num_nodes
        assert held < 4 * 2**20, f"held {held / 2**20:.1f} MiB"

    def test_citeseer_sharded_fold_peak_under_40_mib(self):
        """Folding four shards sums their context shares and reads the
        attribute rows once, after the last shard: 29.9 MiB of peak traced
        allocations on the bag-of-words citeseer analog, most of it that one
        ``(1000, 3703)`` float64 gather.  Densifying and restacking the table
        on every fold peaked at 114 MiB."""
        import tracemalloc

        from repro.core.trainer import fold_shard_store
        from repro.graph import load_dataset
        from repro.scale import ShardStore, generate_context_shards
        from repro.walks.contexts import ContextAggregate

        graph = load_dataset("citeseer", seed=0)
        config = CoANEConfig(seed=0)
        store = generate_context_shards(
            graph, walk_length=config.walk_length,
            num_walks=config.num_walks, context_size=config.context_size,
            subsample_t=config.subsample_t, seed=0, num_workers=4,
            store=ShardStore())
        tracemalloc.start()
        try:
            _, _, shares = fold_shard_store(store, graph.num_nodes)
            aggregate = ContextAggregate.from_shares(
                shares, graph.attributes, config.context_size)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sp.issparse(aggregate.table)
        assert peak < 40 * 2**20, f"peak {peak / 2**20:.1f} MiB"
