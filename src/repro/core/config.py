"""CoANE hyperparameter configuration.

Defaults follow the paper's experiment settings (Sec. 4.1): one walk of
length 80 per node, subsampling threshold ``t = 1e-5``, ``k = 20`` negative
samples, embedding dimension 128, Adam with learning rate 0.001, and a 2-layer
ReLU MLP attribute decoder.  The paper tunes the negative-loss strength ``a``,
the context size ``c``, and the attribute weight ``γ`` per dataset; because
this reproduction normalises each loss term per node (the paper's raw sums
grow with the pair count), the effective ``γ`` scale differs from the paper's
``[1e3, 1e7]`` range — the Fig. 6d benchmark sweeps it and shows the same
interior optimum.

The ablation switches (``positive_mode``, ``negative_mode``, ``use_attribute_
input``, ``extractor``, ``context_source``) implement the Fig. 6a/6c variants.
"""

from __future__ import annotations

from dataclasses import dataclass, field


#: Fields older checkpoints may carry that no longer exist.
_RETIRED_FIELDS = ("stream", "stream_chunk_rows", "backend")


@dataclass
class CoANEConfig:
    """All knobs of the CoANE estimator."""

    # --- embedding ---
    embedding_dim: int = 128
    decoder_hidden: int = 256

    # --- structural context generation (Sec. 3.1) ---
    # The paper uses r=1 and t=1e-5 on the full-size datasets; the synthetic
    # analogs are smaller, so the defaults keep more context windows (r=2,
    # t=1e-4) for equivalent context coverage per node.  Pass the paper's
    # values explicitly to reproduce its exact configuration.
    num_walks: int = 2
    walk_length: int = 80
    context_size: int = 5
    subsample_t: float = 1e-4

    # --- objective (Sec. 3.3) ---
    num_negative: int = 20
    negative_strength: float = 1e-5  # `a` in Eq. (3), tuned in [1e-5, 1e-1]
    gamma: float = 1e3               # attribute-preservation weight, Eq. (4)
    sampling: str = "auto"           # 'pre' | 'batch' | 'auto' (density >= 0.5% -> pre)
    # Offline pool size for pre-sampling mode; None scales with graph size
    # (see repro.core.negative_sampling.default_pool_size).
    negative_pool_size: int | None = None

    # --- optimisation ---
    epochs: int = 50
    learning_rate: float = 0.01
    batch_size: int | None = None    # None = full batch

    # --- scale-out (repro.scale) ---
    # num_workers is the number of shards walk/context generation is cut
    # into (run serially, in shard order); the corpus is bit-identical to the
    # classic path at 1 and a pure function of (seed, num_workers) above it.
    # spill_dir spills shards to disk; either way each shard is folded into
    # the per-node context aggregate and the co-occurrence counts, so the
    # (num_contexts, c*d) context matrix never exists.  dtype picks the
    # compute precision of the whole fit ("float32" halves every parameter,
    # activation and gradient and runs the dense GEMMs in single precision).
    num_workers: int = 1
    spill_dir: str | None = None
    dtype: str = "float64"

    # --- observability (repro.obs) ---
    # trace_path arms span tracing for the fit: epoch/batch spans, a run
    # manifest, and a final metrics snapshot are appended as JSONL to this
    # file.  Precedence: config > `repro train --trace` (which writes this
    # field) > the REPRO_TRACE environment variable (read at import so
    # subprocesses inherit it).  Tracing never touches an RNG stream or a
    # numeric path; an armed fit is bit-identical to a disarmed one.
    trace_path: str | None = None

    # --- durability (repro.resilience) ---
    # checkpoint_path enables epoch-boundary training-state checkpoints
    # (atomic, checksummed); fit(resume=True) restarts from the last one and
    # reproduces the uninterrupted run exactly.  checkpoint_every thins the
    # write cadence (the final epoch is always captured).
    checkpoint_path: str | None = None
    checkpoint_every: int = 1

    # --- ablation switches (Fig. 6a / 6c) ---
    positive_mode: str = "coane"     # 'coane' | 'skipgram' | 'off'
    negative_mode: str = "contextual"  # 'contextual' | 'uniform' | 'off'
    use_attribute_input: bool = True   # False = WF: identity attributes
    extractor: str = "conv"          # 'conv' | 'fc'
    context_source: str = "walk"     # 'walk' | 'onehop'

    seed: int | None = 0
    history_hooks: list = field(default_factory=list)

    @classmethod
    def from_snapshot(cls, snapshot: dict) -> "CoANEConfig":
        """Rebuild a configuration from its normalised snapshot (a
        checkpoint's ``config``).  Older snapshots may carry retired knobs —
        the streaming corpus's ``stream``/``stream_chunk_rows`` and the
        compute ``backend`` selector; those keys are dropped."""
        return cls(**{key: value for key, value in snapshot.items()
                      if key not in _RETIRED_FIELDS})

    def validate(self):
        """Raise ``ValueError`` on any inconsistent setting."""
        if self.embedding_dim < 2 or self.embedding_dim % 2 != 0:
            raise ValueError("embedding_dim must be an even number >= 2 (Z = [L|R])")
        if self.decoder_hidden < 1:
            raise ValueError("decoder_hidden must be positive")
        if self.num_walks < 1:
            raise ValueError("num_walks must be >= 1")
        if self.walk_length < 1:
            raise ValueError("walk_length must be >= 1")
        if self.context_size < 1 or self.context_size % 2 == 0:
            raise ValueError("context_size must be a positive odd number")
        if self.subsample_t <= 0:
            raise ValueError("subsample_t must be positive")
        if self.num_negative < 0:
            raise ValueError("num_negative must be non-negative")
        if self.negative_strength < 0:
            raise ValueError("negative_strength must be non-negative")
        if self.gamma < 0:
            raise ValueError("gamma must be non-negative")
        if self.sampling not in ("pre", "batch", "auto"):
            raise ValueError("sampling must be 'pre', 'batch', or 'auto'")
        if self.negative_pool_size is not None and self.negative_pool_size < 1:
            raise ValueError("negative_pool_size must be None or >= 1")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.batch_size is not None and self.batch_size < 1:
            raise ValueError("batch_size must be None or >= 1")
        if self.num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        if self.dtype not in ("float64", "float32"):
            raise ValueError("dtype must be 'float64' or 'float32'")
        if self.checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")
        if self.trace_path is not None and not str(self.trace_path).strip():
            raise ValueError("trace_path must be None or a non-empty path")
        if ((self.num_workers > 1 or self.spill_dir is not None)
                and self.context_source != "walk"):
            raise ValueError(
                "sharded corpus generation requires context_source='walk'"
            )
        if self.positive_mode not in ("coane", "skipgram", "off"):
            raise ValueError("positive_mode must be 'coane', 'skipgram', or 'off'")
        if self.negative_mode not in ("contextual", "uniform", "off"):
            raise ValueError("negative_mode must be 'contextual', 'uniform', or 'off'")
        if self.extractor not in ("conv", "fc"):
            raise ValueError("extractor must be 'conv' or 'fc'")
        if self.context_source not in ("walk", "onehop"):
            raise ValueError("context_source must be 'walk' or 'onehop'")
        return self

    def resolve_sampling(self, density: float) -> str:
        """Pick the negative-sampling strategy for a graph of given density.

        The paper pre-samples on the denser graphs (WebKB, Flickr) and
        batch-samples on the sparse citation networks (Sec. 4.1).
        """
        if self.sampling != "auto":
            return self.sampling
        return "pre" if density >= 0.005 else "batch"
