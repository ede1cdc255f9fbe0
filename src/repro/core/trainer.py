"""The CoANE estimator: end-to-end training pipeline (paper Algorithm 1).

Pre-processing: sample walks, extract subsampled contexts, build the
co-occurrence matrices ``D``/``D1`` and the negative-sampling pool.
Training: each epoch encodes contexts through the convolution, pools node
embeddings, evaluates the three-way objective, and updates the filters and
decoder with Adam.  Full-batch updates are the default (every dataset analog
fits comfortably in memory); ``batch_size`` enables the paper's batch
updating, in which out-of-batch embeddings enter the loss as constants from
the previous refresh.

Each node's contexts enter training through the context aggregate
(:func:`repro.walks.contexts.context_aggregate`), the per-node mean ``M`` of
its flattened context rows, built once per fit in factored form: per-position
context shares ``A_p`` beside the attribute table ``X``.  The encoder is
linear and bias-free with stride equal to its width, so an epoch computes
``M W = Σ_p A_p (X W_p)`` for ``n`` nodes instead of encoding every context,
and ``M`` itself is never built.

Scale-out (see :mod:`repro.scale`): ``num_workers`` cuts walk/context
generation into that many shards, run serially, and ``spill_dir`` spills the
shards to disk; each shard's context shares and co-occurrence counts are
summed in one node-id column space, so the windows are never concatenated
and the attribute table is read once, after the last shard.
``dtype="float32"`` runs the whole fit at reduced precision via
:func:`repro.nn.compute_dtype`.
"""

from __future__ import annotations

import math
import time

import numpy as np

from repro.core.config import CoANEConfig
from repro.core.losses import (
    attribute_preservation_loss,
    contextual_negative_loss,
    positive_graph_likelihood,
    skipgram_positive,
)
from repro.core.model import CoANEModel
from repro.core.negative_sampling import ContextualNegativeSampler, UniformNegativeSampler
from repro.graph.attributed_graph import AttributedGraph
from repro.graph.sparse import SegmentGroups as _SegmentGroups
from repro.graph.sparse import expand_ranges
from repro.nn import Adam, Tensor, compute_dtype, no_grad, pair_dot
from repro.obs.manifest import run_manifest
from repro.obs.metrics import get_registry
from repro.obs.tracing import get_tracer, record_metrics, use_trace
from repro.obs.tracing import span as trace_span
from repro.resilience.faults import fault_check
from repro.resilience.training import (
    TrainingState,
    load_training_state,
    save_training_state,
)
from repro.scale import ShardStore, generate_context_shards
from repro.utils.persistence import graph_fingerprint, normalized_config
from repro.utils.rng import spawn_rngs
from repro.walks.contexts import (
    ContextAggregate,
    ContextSet,
    context_aggregate,
    context_shares,
    extract_contexts,
)
from repro.walks.cooccurrence import (
    build_cooccurrence,
    count_window_cooccurrence,
    finalize_cooccurrence,
)
from repro.walks.random_walk import RandomWalker


def _onehop_contexts(graph: AttributedGraph, context_size: int, rng,
                     nodes=None, repeats: int = 1) -> ContextSet:
    """Contexts built from first-hop neighbors only (Fig. 6a's "Original
    Neighbors" case): each window centres the target and fills the remaining
    slots with neighbors sampled without positional meaning.

    Fully vectorised: every node gets ``max(1, ceil(deg / (c-1)))`` windows;
    low-degree nodes (deg < c-1) fill slots with replacement in one batched
    integer draw, and high-degree nodes sample without replacement via random
    sort keys over their incident edges (Gumbel-top-k style), ranked with one
    global lexsort instead of a per-window ``rng.choice``.

    ``nodes`` restricts window generation to the given midst nodes (the
    serving path embeds small batches, so cost must scale with the request,
    not the graph) and ``repeats`` runs that many independent sampling passes
    per node.  The defaults keep the training path's RNG stream bit-identical
    to the original whole-graph single-pass form.
    """
    n = graph.num_nodes
    fill = max(context_size - 1, 1)
    half = (context_size - 1) // 2
    adj = graph.adjacency
    indptr = adj.indptr
    indices = adj.indices
    degrees = np.diff(indptr)
    seeds = np.arange(n, dtype=np.int64) if nodes is None \
        else np.asarray(nodes, dtype=np.int64)
    if repeats > 1:
        seeds = np.repeat(seeds, repeats)
    num_windows = np.maximum(1, -(-degrees[seeds] // fill))  # ceil(deg / fill), min 1

    total = int(num_windows.sum())
    windows = np.full((total, context_size), -1, dtype=np.int64)
    midsts = np.repeat(seeds, num_windows)
    windows[:, half] = midsts
    window_degrees = degrees[midsts]

    # Low-degree windows (0 < deg < c-1): sample with replacement.
    low = np.flatnonzero((window_degrees > 0) & (window_degrees < fill))
    if len(low):
        draws = (rng.random((len(low), fill)) * window_degrees[low, None]).astype(np.int64)
        low_fill = indices[indptr[midsts[low], None] + draws]
    else:
        low_fill = np.empty((0, fill), dtype=np.int64)

    # High-degree windows (deg >= c-1): sample without replacement by ranking
    # one random key per (window, incident edge) and keeping the smallest
    # ``fill`` keys of each window.
    high = np.flatnonzero(window_degrees >= fill)
    if len(high):
        edge_counts = window_degrees[high]
        edge_windows = np.repeat(np.arange(len(high)), edge_counts)
        edge_positions = expand_ranges(indptr[midsts[high]], edge_counts)
        offsets = np.concatenate([[0], np.cumsum(edge_counts)[:-1]])
        keys = rng.random(len(edge_positions))
        order = np.lexsort((keys, edge_windows))
        rank = np.arange(len(order)) - np.repeat(offsets, edge_counts)
        keep = rank < fill
        high_fill = indices[edge_positions[order[keep]]].reshape(len(high), fill)
    else:
        high_fill = np.empty((0, fill), dtype=np.int64)

    fills = np.full((total, fill), -1, dtype=np.int64)
    fills[low] = low_fill
    fills[high] = high_fill
    windows[:, :half] = fills[:, :half]
    windows[:, half + 1:] = fills[:, half:context_size - 1]
    return ContextSet(windows, midsts, n)


def _embed_all(model: CoANEModel, aggregate) -> np.ndarray:
    """Every node's embedding under the current weights (no graph)."""
    with no_grad():
        return model.embed(aggregate).data


def fold_shard_store(store: ShardStore, num_nodes: int) -> tuple:
    """``(counts, D, shares)`` of a shard store's corpus, folded one shard at
    a time: the per-node context counts, the raw window co-occurrence counts
    and the context shares (:func:`repro.walks.contexts.context_shares`).
    Both sums are additive over window blocks in one node-id column space,
    so the shards are never concatenated."""
    counts = np.bincount(np.concatenate(
        [store.midst(shard) for shard in range(store.num_shards)]),
        minlength=num_nodes)
    D = shares = None
    for _, windows, midst in store.iter_shards():
        windows = np.asarray(windows)
        block_D = count_window_cooccurrence(windows, midst, num_nodes)
        block = context_shares(windows, midst, num_nodes, counts=counts)
        D = block_D if D is None else D + block_D
        shares = block if shares is None else shares + block
    return counts, D, shares


class CoANE:
    """Context Co-occurrence-aware Attributed Network Embedding.

    Scikit-learn style estimator::

        model = CoANE(CoANEConfig(embedding_dim=128, epochs=50, seed=0))
        Z = model.fit_transform(graph)

    After :meth:`fit`, inspection attributes are available:
    ``history_`` (per-epoch loss terms), ``model_`` (the network),
    ``aggregate_`` (the :class:`~repro.walks.contexts.ContextAggregate`:
    context shares and attribute table), ``context_counts_``,
    ``cooccurrence_``, and ``context_set_`` (``None`` when the corpus was
    sharded: its windows are folded shard by shard and never concatenated).
    """

    def __init__(self, config: CoANEConfig = None, **overrides):
        if config is None:
            config = CoANEConfig()
        if overrides:
            config = CoANEConfig(**{**config.__dict__, **overrides})
        self.config = config.validate()
        self.embeddings_ = None
        self.history_ = []
        self.model_ = None
        self.context_set_ = None
        self.context_counts_ = None
        self.aggregate_ = None
        self.cooccurrence_ = None

    # ------------------------------------------------------------- pipeline
    def fit(self, graph: AttributedGraph, resume: bool = False) -> "CoANE":
        """Run pre-processing and training on ``graph``.

        ``resume=True`` restores the last epoch-boundary training state from
        ``config.checkpoint_path`` (written when that field is set) and
        continues from the following epoch; the resumed fit reproduces the
        uninterrupted run's losses and embeddings exactly at float64.  A
        missing state file degrades to a fresh fit, so restart loops can pass
        ``resume`` unconditionally.
        """
        cfg = self.config
        walk_rng, context_rng, sampler_rng, init_rng, batch_rng = spawn_rngs(cfg.seed, 5)
        n = graph.num_nodes

        with use_trace(cfg.trace_path), compute_dtype(cfg.dtype):
            tracer = get_tracer()
            if tracer is not None:
                tracer.manifest(run_manifest(cfg, num_nodes=n))
            attributes = self._input_attributes(graph)
            counts, cooccurrence, aggregate = self._build_corpus(
                graph, attributes, walk_rng, context_rng)

            model = CoANEModel(
                num_attributes=attributes.shape[1],
                embedding_dim=cfg.embedding_dim,
                context_size=cfg.context_size,
                decoder_hidden=cfg.decoder_hidden,
                extractor=cfg.extractor,
                seed=init_rng,
            )
            optimizer = Adam(model.parameters(), lr=cfg.learning_rate)
            sampler = self._build_sampler(cooccurrence, counts, graph,
                                          sampler_rng)
            pos_rows, pos_cols, pos_weights = self._positive_targets(cooccurrence)

            self.model_ = model
            self.context_counts_ = counts
            self.aggregate_ = aggregate
            self.cooccurrence_ = cooccurrence
            self.history_ = []
            self._negative_cache = None
            self._num_nodes = n
            # Grouping indices built once per fit; every mini-batch epoch
            # slices them instead of rescanning all pairs with np.isin.
            self._pair_groups = _SegmentGroups(pos_rows, n)

            checkpointing = cfg.checkpoint_path is not None
            fingerprint = snapshot = None
            if checkpointing or resume:
                fingerprint = graph_fingerprint(graph)
                snapshot = normalized_config(cfg)
            start_epoch = 0
            if resume:
                state = self._load_resume_state(fingerprint, snapshot)
                if state is not None:
                    model.load_state_dict(state.params)
                    optimizer.load_state_dict(state.optimizer)
                    self._restore_rng_states(state.rng_states, batch_rng,
                                             sampler)
                    if state.negatives is not None:
                        self._negative_cache = state.negatives
                    self.history_ = list(state.history)
                    start_epoch = state.epoch + 1

            epoch_seconds = get_registry().histogram("train_epoch_seconds")
            epochs_total = get_registry().counter("train_epochs_total")
            for epoch in range(start_epoch, cfg.epochs):
                epoch_start = time.perf_counter()
                with trace_span("train.epoch", epoch=epoch) as active_span:
                    if cfg.batch_size is None:
                        record = self._full_batch_step(
                            model, optimizer, aggregate, n, attributes,
                            sampler, pos_rows, pos_cols, pos_weights,
                        )
                    else:
                        record = self._mini_batch_epoch(
                            model, optimizer, aggregate, counts, n, attributes,
                            sampler, pos_rows, pos_cols, pos_weights, batch_rng,
                        )
                    if active_span is not None:
                        # Armed-only diagnostics: the grad norm costs real
                        # work (read-only numpy over grads that already
                        # exist), so it is not computed on disarmed runs.
                        active_span.set(**record,
                                        grad_norm=self._grad_norm(model))
                epoch_seconds.observe(time.perf_counter() - epoch_start)
                epochs_total.inc()
                record["epoch"] = epoch
                self.history_.append(record)
                for hook in cfg.history_hooks:
                    hook(epoch, _embed_all(model, aggregate))
                if checkpointing and ((epoch + 1) % cfg.checkpoint_every == 0
                                      or epoch == cfg.epochs - 1):
                    self._save_training_state(epoch, model, optimizer,
                                              batch_rng, sampler,
                                              fingerprint, snapshot)
                # The kill site sits AFTER the durable write: "the process
                # died right at the epoch-e boundary" is the scenario the
                # resume-equivalence tests replay.
                fault_check("train.epoch", (epoch,))

            self.embeddings_ = _embed_all(model, aggregate)
            # Counters evaporate with the process; an armed trace keeps the
            # final snapshot so `repro trace summarize` can report them.
            record_metrics(get_registry().snapshot(), label="train.fit")
        return self

    def _load_resume_state(self, fingerprint, snapshot):
        """The last training state, validated against this run, or ``None``
        when no state file exists yet (fresh start)."""
        cfg = self.config
        if not cfg.checkpoint_path:
            raise ValueError(
                "fit(resume=True) needs config.checkpoint_path to know "
                "where training state lives"
            )
        try:
            state = load_training_state(cfg.checkpoint_path)
        except FileNotFoundError:
            return None
        state.matches(fingerprint, snapshot)
        return state

    def _restore_rng_states(self, rng_states: dict, batch_rng, sampler):
        if "batch" in rng_states:
            batch_rng.bit_generator.state = rng_states["batch"]
        if sampler is not None and "sampler" in rng_states:
            sampler._rng.bit_generator.state = rng_states["sampler"]

    def _save_training_state(self, epoch, model, optimizer, batch_rng,
                             sampler, fingerprint, snapshot):
        """Capture the epoch boundary (see :mod:`repro.resilience.training`)."""
        rng_states = {"batch": batch_rng.bit_generator.state}
        if sampler is not None:
            rng_states["sampler"] = sampler._rng.bit_generator.state
        save_training_state(self.config.checkpoint_path, TrainingState(
            epoch=epoch,
            params=model.state_dict(),
            optimizer=optimizer.state_dict(),
            rng_states=rng_states,
            history=self.history_,
            fingerprint=fingerprint,
            config=snapshot,
            negatives=self._negative_cache,
            info={"num_nodes": self._num_nodes},
        ))

    def _build_corpus(self, graph: AttributedGraph, attributes, walk_rng,
                      context_rng) -> tuple:
        """Generate the context corpus; returns ``(counts, cooccurrence,
        aggregate)`` and sets ``context_set_``.

        The default configuration replays the historical inline pipeline with
        the same ``walk_rng``/``context_rng`` streams, so its corpus is
        bit-identical to previous releases.  The sharded path (``num_workers
        > 1`` or ``spill_dir``) folds each shard into the co-occurrence counts
        and the context aggregate; both are additive over window blocks.
        """
        cfg = self.config
        n = graph.num_nodes
        self.context_set_ = None
        if cfg.context_source != "walk":
            context_set = _onehop_contexts(graph, cfg.context_size, context_rng)
        elif cfg.num_workers == 1 and cfg.spill_dir is None:
            walker = RandomWalker(graph, seed=walk_rng)
            walks = walker.walk(cfg.walk_length, num_walks=cfg.num_walks)
            context_set = extract_contexts(
                walks, cfg.context_size, n, subsample_t=cfg.subsample_t,
                seed=context_rng,
            )
        else:
            return self._fold_shards(graph, attributes, walk_rng, context_rng)
        self.context_set_ = context_set
        counts = context_set.counts()
        aggregate = context_aggregate(context_set.windows, context_set.midst,
                                      attributes, n, counts=counts)
        return counts, build_cooccurrence(context_set, graph), aggregate

    def _fold_shards(self, graph: AttributedGraph, attributes, walk_rng,
                     context_rng) -> tuple:
        """The sharded corpus, folded by :func:`fold_shard_store`; spill
        files are dropped as soon as every shard is folded.  The aggregate
        reads its attribute table once, from the summed shares."""
        cfg = self.config
        with ShardStore(spill_dir=cfg.spill_dir) as store:
            generate_context_shards(
                graph, walk_length=cfg.walk_length, num_walks=cfg.num_walks,
                context_size=cfg.context_size, subsample_t=cfg.subsample_t,
                seed=cfg.seed, num_workers=cfg.num_workers,
                walk_rng=walk_rng, context_rng=context_rng, store=store,
            )
            counts, D, shares = fold_shard_store(store, graph.num_nodes)
        cooccurrence = finalize_cooccurrence(D, graph, int(counts.max()))
        aggregate = ContextAggregate.from_shares(shares, attributes,
                                                 cfg.context_size)
        return counts, cooccurrence, aggregate

    def transform(self) -> np.ndarray:
        """Return the learned ``(n, d')`` embedding matrix."""
        if self.embeddings_ is None:
            raise RuntimeError("call fit() before transform()")
        return self.embeddings_

    def fit_transform(self, graph: AttributedGraph) -> np.ndarray:
        return self.fit(graph).transform()

    # -------------------------------------------------------------- helpers
    @staticmethod
    def _grad_norm(model) -> float:
        """Global L2 norm of the current parameter gradients.

        A trace-only diagnostic: it reads gradients the optimizer step just
        consumed — plain read-only numpy, no RNG, no writes — so computing it
        (or not) can never perturb the fit.
        """
        total = 0.0
        for param in model.parameters():
            grad = getattr(param, "grad", None)
            if grad is None:
                continue
            flat = np.asarray(grad, dtype=np.float64).ravel()
            total += float(flat @ flat)
        return math.sqrt(total)

    def _input_attributes(self, graph: AttributedGraph) -> np.ndarray:
        """Node attributes, or identity rows for the WF (no-attributes) ablation."""
        if self.config.use_attribute_input:
            return graph.attributes
        return np.eye(graph.num_nodes, dtype=np.float64)

    def _build_sampler(self, cooccurrence, context_counts, graph, rng):
        cfg = self.config
        if hasattr(context_counts, "counts"):
            # A ContextSet works too; only the counts matter.
            context_counts = context_counts.counts()
        if cfg.negative_mode == "off" or cfg.num_negative == 0:
            return None
        if cfg.negative_mode == "uniform":
            return UniformNegativeSampler(cooccurrence.D, cfg.num_negative,
                                          adjacency=graph.adjacency, seed=rng)
        mode = cfg.resolve_sampling(graph.density)
        return ContextualNegativeSampler(
            cooccurrence.D, context_counts, cfg.num_negative, mode=mode,
            pool_size=cfg.negative_pool_size, adjacency=graph.adjacency, seed=rng,
        )

    def _positive_targets(self, cooccurrence):
        cfg = self.config
        if cfg.positive_mode == "off":
            empty = np.empty(0, dtype=np.int64)
            return empty, empty, np.empty(0, dtype=np.float64)
        if cfg.positive_mode == "skipgram":
            coo = cooccurrence.D.tocoo()
            return (coo.row.astype(np.int64), coo.col.astype(np.int64),
                    np.ones(len(coo.row), dtype=np.float64))
        return cooccurrence.pairs()

    def _fixed_negatives(self, sampler, targets) -> np.ndarray:
        """Negative sets for full-batch training, drawn once before the first
        update (the paper's offline pre-sampling).  A fixed set keeps the
        repulsion confined to ``n·k`` pairs; resampling every epoch would
        eventually push apart *every* unlinked pair — including pairs whose
        link is merely unobserved, which is exactly what link prediction must
        not do."""
        if not hasattr(self, "_negative_cache") or self._negative_cache is None:
            self._negative_cache = sampler.sample(targets)
        return self._negative_cache

    def refresh_embeddings(self) -> np.ndarray:
        """Recompute ``embeddings_`` from the fitted model and the context
        aggregate (shares and attribute table; ``M`` is never built)."""
        if self.model_ is None or self.aggregate_ is None:
            raise RuntimeError("call fit() before refresh_embeddings()")
        with compute_dtype(self.config.dtype):
            self.embeddings_ = _embed_all(self.model_, self.aggregate_)
        return self.embeddings_

    def _loss_terms(self, model, embeddings, targets, attributes, sampler,
                    pos_rows, pos_cols, pos_weights, num_targets):
        """Evaluate the three loss terms for one full-batch update."""
        cfg = self.config
        left, right = CoANEModel.split_lr(embeddings)
        if cfg.positive_mode == "skipgram":
            pos = skipgram_positive(left, right, pos_rows, pos_cols, num_targets)
        else:
            pos = positive_graph_likelihood(left, right, pos_rows, pos_cols,
                                            pos_weights, num_targets)
        if sampler is not None and cfg.negative_strength > 0:
            negatives = self._fixed_negatives(sampler, targets)
            neg = contextual_negative_loss(embeddings, targets, negatives,
                                           cfg.negative_strength, num_targets)
        else:
            neg = Tensor(np.zeros(()))
        if cfg.gamma > 0:
            reconstruction = model.reconstruct(embeddings)
            att = attribute_preservation_loss(reconstruction, attributes, cfg.gamma)
        else:
            att = Tensor(np.zeros(()))
        return pos, neg, att

    def _full_batch_step(self, model, optimizer, aggregate, n,
                         attributes, sampler, pos_rows, pos_cols, pos_weights) -> dict:
        embeddings = model.embed(aggregate)
        targets = np.arange(n)
        pos, neg, att = self._loss_terms(
            model, embeddings, targets, attributes, sampler,
            pos_rows, pos_cols, pos_weights, num_targets=n,
        )
        total = pos + neg + att
        optimizer.zero_grad()
        total.backward()
        optimizer.step()
        return {"loss": total.item(), "positive": pos.item(),
                "negative": neg.item(), "attribute": att.item()}

    def _mini_batch_epoch(self, model, optimizer, aggregate, counts, n,
                          attributes, sampler, pos_rows, pos_cols, pos_weights,
                          rng) -> dict:
        cfg = self.config
        cached = _embed_all(model, aggregate)
        permutation = rng.permutation(n)
        totals = {"loss": 0.0, "positive": 0.0, "negative": 0.0, "attribute": 0.0}
        num_batches = 0
        half = cfg.embedding_dim // 2
        for start in range(0, n, cfg.batch_size):
            batch = np.sort(permutation[start:start + cfg.batch_size])
            if not counts[batch].any():
                continue
            batch_span = trace_span("train.batch", index=num_batches,
                                    size=len(batch))
            batch_span.__enter__()
            embeddings = model.embed(aggregate[batch])

            pair_rows, pair_counts = self._pair_groups.rows_for(batch)
            rows = np.repeat(np.arange(len(batch)), pair_counts)
            left, _ = CoANEModel.split_lr(embeddings)
            pos = positive_graph_likelihood(
                left, Tensor(cached[:, half:]), rows, pos_cols[pair_rows],
                pos_weights[pair_rows], len(batch))
            if sampler is not None and cfg.negative_strength > 0:
                negatives = sampler.sample(batch)
                k = negatives.shape[1]
                rep = np.repeat(np.arange(len(batch)), k)
                scores = pair_dot(embeddings, Tensor(cached), rep,
                                  negatives.ravel())
                neg = (scores * scores).sum() * (
                    cfg.negative_strength / (max(len(batch), 1) * k)
                )
            else:
                neg = Tensor(np.zeros(()))
            if cfg.gamma > 0:
                reconstruction = model.reconstruct(embeddings)
                att = attribute_preservation_loss(reconstruction, attributes[batch], cfg.gamma)
            else:
                att = Tensor(np.zeros(()))
            total = pos + neg + att
            optimizer.zero_grad()
            total.backward()
            optimizer.step()
            cached[batch] = embeddings.data
            batch_loss = total.item()
            batch_span.set(loss=batch_loss)
            batch_span.__exit__(None, None, None)
            totals["loss"] += batch_loss
            totals["positive"] += pos.item()
            totals["negative"] += neg.item()
            totals["attribute"] += att.item()
            num_batches += 1
        if num_batches:
            totals = {key: value / num_batches for key, value in totals.items()}
        return totals
