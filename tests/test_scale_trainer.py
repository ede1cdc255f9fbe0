"""Trainer-level scale-out guarantees.

* The default configuration stays bit-identical to the classic path, and a
  single spilled shard reproduces it exactly.
* Sharded training is a pure function of ``(seed, num_workers)``; spilling
  the shards to disk changes nothing.
* float32 training tracks float64 within tolerance (losses close, final
  embeddings nearly parallel) at half the memory.
* The configuration surface validates its knobs, the checkpoint format
  round-trips them (and still loads snapshots and resumes training states
  carrying the retired streaming and backend knobs), and the ``repro
  train`` CLI drives the whole stack.
"""

import numpy as np
import pytest

from repro.core import CoANE, CoANEConfig

CFG = dict(embedding_dim=16, decoder_hidden=32, epochs=3, seed=0,
           walk_length=20, num_walks=2, subsample_t=1e-4)


def _fit(graph, **overrides):
    return CoANE(CoANEConfig(**{**CFG, **overrides})).fit(graph)


class TestShardedEquivalence:
    def test_single_spilled_shard_matches_in_process_exactly(self, small_graph,
                                                             tmp_path):
        """workers=1 with a spill directory takes the shard-folding path
        over the in-process corpus: same windows, same aggregate, same fit."""
        classic = _fit(small_graph, batch_size=32)
        spilled = _fit(small_graph, batch_size=32,
                       spill_dir=str(tmp_path / "shards"))
        assert spilled.context_set_ is None
        assert classic.history_ == spilled.history_
        np.testing.assert_array_equal(classic.embeddings_, spilled.embeddings_)

    def test_spilling_shards_changes_nothing(self, small_graph, tmp_path):
        memory = _fit(small_graph, batch_size=32, num_workers=2)
        spilled = _fit(small_graph, batch_size=32, num_workers=2,
                       spill_dir=str(tmp_path / "shards"))
        assert memory.history_ == spilled.history_
        np.testing.assert_array_equal(memory.embeddings_, spilled.embeddings_)
        # Spill files are dropped once every shard is folded.
        assert not any((tmp_path / "shards").rglob("*.npy"))


class TestWorkerDeterminism:
    def test_workers_runs_reproduce(self, small_graph):
        a = _fit(small_graph, num_workers=2)
        b = _fit(small_graph, num_workers=2)
        np.testing.assert_array_equal(a.embeddings_, b.embeddings_)
        assert a.history_ == b.history_


class TestFloat32Mode:
    def test_float32_tracks_float64(self, small_graph):
        f64 = _fit(small_graph, batch_size=32)
        f32 = _fit(small_graph, batch_size=32, dtype="float32")
        assert f32.embeddings_.dtype == np.float32
        assert f64.embeddings_.dtype == np.float64
        losses64 = np.array([r["loss"] for r in f64.history_])
        losses32 = np.array([r["loss"] for r in f32.history_])
        np.testing.assert_allclose(losses32, losses64, rtol=1e-3)
        a, b = f64.embeddings_, f32.embeddings_.astype(np.float64)
        norms = np.linalg.norm(a, axis=1) * np.linalg.norm(b, axis=1)
        valid = norms > 0
        cosine = (a[valid] * b[valid]).sum(axis=1) / norms[valid]
        assert cosine.mean() > 0.99

    def test_float32_params_and_state(self, small_graph):
        f32 = _fit(small_graph, dtype="float32")
        for _, parameter in f32.model_.named_parameters():
            assert parameter.data.dtype == np.float32
        # The compute-dtype context was popped: new tensors are float64 again.
        from repro.nn import Tensor, get_default_dtype
        assert get_default_dtype() == np.float64
        assert Tensor(np.zeros(2, dtype=np.float32)).data.dtype == np.float64

    def test_float32_composes_with_workers(self, small_graph):
        model = _fit(small_graph, batch_size=32, num_workers=2,
                     dtype="float32")
        assert model.embeddings_.dtype == np.float32
        assert np.isfinite([r["loss"] for r in model.history_]).all()


class TestConfigSurface:
    def test_sharding_requires_walk_contexts(self, tmp_path):
        for scale_out in ({"num_workers": 2}, {"spill_dir": str(tmp_path)}):
            with pytest.raises(ValueError, match="context_source"):
                CoANEConfig(context_source="onehop", **scale_out).validate()

    def test_dtype_and_workers_validated(self):
        with pytest.raises(ValueError, match="dtype"):
            CoANEConfig(dtype="float16").validate()
        with pytest.raises(ValueError, match="num_workers"):
            CoANEConfig(num_workers=0).validate()

    def test_checkpoint_round_trips_scale_fields(self, small_graph, tmp_path):
        from repro.serve import Checkpoint

        estimator = _fit(small_graph, batch_size=32, num_workers=2,
                         dtype="float32")
        checkpoint = Checkpoint.from_estimator(estimator, small_graph)
        path = checkpoint.save(str(tmp_path / "scale.ckpt"))
        loaded = Checkpoint.load(path)
        config = loaded.to_config()
        assert config.num_workers == 2
        assert config.dtype == "float32"
        np.testing.assert_allclose(loaded.embeddings, estimator.embeddings_,
                                   rtol=1e-6)

    @pytest.mark.parametrize("retired", [
        {"stream": True, "stream_chunk_rows": 64},  # the streaming corpus
        {"backend": "torch"},                       # the compute backend
    ], ids=["stream", "backend"])
    def test_old_checkpoint_with_retired_fields_loads(self, small_graph,
                                                      tmp_path, retired):
        """Checkpoints written while a retired knob existed carry it in
        their config; it is dropped on load, by the checkpoint, by
        ``CoANEConfig.from_snapshot`` and by the inductive encoder."""
        from repro.serve import Checkpoint, InductiveEncoder

        estimator = _fit(small_graph, batch_size=32, num_workers=2)
        checkpoint = Checkpoint.from_estimator(estimator, small_graph)
        checkpoint.config.update(retired)
        loaded = Checkpoint.load(checkpoint.save(str(tmp_path / "old.ckpt")))
        for key, value in retired.items():
            assert loaded.config[key] == value
        for config in (loaded.to_config(),
                       CoANEConfig.from_snapshot(loaded.config)):
            assert config.num_workers == 2 and config.batch_size == 32
            assert not any(hasattr(config, key) for key in retired)
        encoder = InductiveEncoder(loaded.build_model(), small_graph,
                                   loaded.config, seed=0)
        assert encoder.embed_nodes([0, 1]).shape == (2, 16)
        with pytest.raises(TypeError):
            CoANEConfig(**loaded.config)

    def test_old_training_state_with_backend_field_resumes(self, small_graph,
                                                           tmp_path):
        """A training state written while ``backend`` was a config field
        carries it; ``TrainingState.matches`` ignores it, so the killed run
        resumes to the uninterrupted run's losses and embeddings."""
        from repro.resilience import (
            FaultPlan, FaultSpec, InjectedKill, arm, disarm,
            load_training_state, save_training_state,
        )

        path = str(tmp_path / "state.npz")
        full = _fit(small_graph)
        arm(FaultPlan([FaultSpec("train.epoch", "kill", (1,))]))
        try:
            with pytest.raises(InjectedKill):
                _fit(small_graph, checkpoint_path=path)
        finally:
            disarm()
        state = load_training_state(path)
        state.config["backend"] = "torch"
        save_training_state(path, state)
        resumed = CoANE(CoANEConfig(**CFG, checkpoint_path=path)).fit(
            small_graph, resume=True)
        assert resumed.history_ == full.history_
        np.testing.assert_array_equal(resumed.embeddings_, full.embeddings_)


class TestTrainCli:
    def test_train_subcommand_smoke(self, capsys):
        from repro.cli import run

        code = run(["train", "--dataset", "cora", "--scale", "0.2",
                    "--dim", "16", "--epochs", "2", "--workers", "2",
                    "--dtype", "float32"])
        assert code == 0
        out = capsys.readouterr().out
        assert "repro train" in out
        assert "sharded, workers=2" in out
        assert "float32" in out

    def test_train_export_round_trip(self, capsys, tmp_path):
        from repro.cli import run
        from repro.serve import Checkpoint

        path = str(tmp_path / "t.ckpt.npz")
        code = run(["train", "--dataset", "cora", "--scale", "0.2",
                    "--dim", "16", "--epochs", "2", "--output", path])
        assert code == 0
        checkpoint = Checkpoint.load(path)
        assert checkpoint.embedding_dim == 16
