"""Fault tolerance: deterministic fault injection, durable training state,
and artifact integrity.

``repro.resilience`` is the correctness tooling that lets the scale and
serve layers survive real-world failure — and lets the test suite *prove*
they do:

* :mod:`~repro.resilience.faults` — a replayable
  :class:`FaultPlan`/:class:`FaultInjector` pair that can be armed (in code
  or via ``REPRO_FAULT_PLAN``) to crash shard tasks, delay calls, corrupt
  spill files, tear checkpoint writes, or kill training at chosen points.
  When disarmed, every injection site is a single global ``None`` check.
* :mod:`~repro.resilience.integrity` — content checksums, atomic
  write-temp-fsync-replace file updates, and the
  :class:`ShardCorruptError`/:class:`CheckpointCorruptError` quarantine
  errors raised instead of raw numpy/zipfile tracebacks.
* :mod:`~repro.resilience.training` — epoch-boundary
  :class:`TrainingState` checkpoints with content checksums, powering
  ``repro train --resume`` (resume-after-kill equals an uninterrupted run
  exactly at float64).
"""

from repro.resilience.faults import (
    FaultInjector,
    FaultPlan,
    FaultSpec,
    InjectedCrash,
    InjectedFault,
    InjectedKill,
    arm,
    disarm,
    fault_check,
    fault_corrupt_file,
    get_injector,
)
from repro.resilience.integrity import (
    CheckpointCorruptError,
    IntegrityError,
    ShardCorruptError,
    array_checksum,
    atomic_replace,
    atomic_save_npy,
)
from repro.resilience.training import (
    ResumeMismatchError,
    TrainingState,
    load_training_state,
    save_training_state,
)

__all__ = [
    "FaultPlan",
    "FaultSpec",
    "FaultInjector",
    "InjectedFault",
    "InjectedCrash",
    "InjectedKill",
    "arm",
    "disarm",
    "fault_check",
    "fault_corrupt_file",
    "get_injector",
    "IntegrityError",
    "ShardCorruptError",
    "CheckpointCorruptError",
    "array_checksum",
    "atomic_replace",
    "atomic_save_npy",
    "TrainingState",
    "ResumeMismatchError",
    "save_training_state",
    "load_training_state",
]
