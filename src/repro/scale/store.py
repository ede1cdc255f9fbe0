"""Shard storage for context corpora.

A *shard* is one block of extracted context windows (plus their midst ids),
walked from one block of start nodes by the sharded generation pipeline.
The store keeps shards either in memory or spilled to disk as ``.npy``
files; spilled window blocks are memory-mapped and read one shard at a time
when the trainer folds them into its context shares (the factored aggregate;
``M`` is never built) and co-occurrence counts.

Midst ids always stay in memory: they cost one ``int64`` per context and give
the per-node context counts before any window block is read, while the
window matrix costs ``c`` ints per context — the part worth keeping out of
core.

Spilled shards are fault-hardened (see :mod:`repro.resilience`): every file
is written atomically (temp + fsync + ``os.replace``, so a crash mid-spill
can never leave a truncated shard at the final path), verified against its
in-memory content checksum immediately after the write — a corrupted write
is simply re-written, bounded times — and verified again on first read, so
bit-rot surfaces as a clear :class:`~repro.resilience.ShardCorruptError`
instead of a numpy decoder traceback.  Each store's spill subdirectory
carries an owner marker (:data:`OWNER_MARKER`), letting
:func:`reap_orphans` distinguish directories leaked by crashed runs from
those belonging to live processes.
"""

from __future__ import annotations

import json
import os
import tempfile
import time

import numpy as np

from repro.obs.metrics import get_registry
from repro.resilience.faults import fault_corrupt_file
from repro.resilience.integrity import (
    ShardCorruptError,
    array_checksum,
    atomic_save_npy,
    load_verified_npy,
)

#: File inside each spill subdirectory naming the owning process; written at
#: store creation, consulted by :func:`reap_orphans`.
OWNER_MARKER = "owner.json"

#: How many times a spill write is re-attempted when post-write verification
#: finds the bytes on disk differ from the bytes in memory.
SPILL_WRITE_RETRIES = 3


class ShardStore:
    """Ordered collection of context shards, in memory or spilled to disk.

    Works as a context manager: ``with ShardStore(spill_dir=...) as store:``
    guarantees :meth:`cleanup` on exit, so spill directories cannot leak
    past the block even when generation or training raises.

    Parameters
    ----------
    spill_dir:
        Directory for on-disk shards; created if missing.  ``None`` keeps
        every shard's window matrix in memory.  Each store spills into its
        own fresh subdirectory, so two stores (or two runs) pointed at the
        same ``spill_dir`` can never overwrite each other's shard files;
        subdirectories left behind by crashed runs are collected by
        :func:`reap_orphans`.
    verify_reads:
        Verify each spilled shard against its content checksum on first
        read (default on; one extra sequential read per shard).
    """

    def __init__(self, spill_dir: str = None, verify_reads: bool = True):
        self.spill_dir = spill_dir
        self.verify_reads = bool(verify_reads)
        self._dir = None
        if spill_dir is not None:
            os.makedirs(spill_dir, exist_ok=True)
            self._dir = tempfile.mkdtemp(prefix="shards-", dir=spill_dir)
            marker = {"pid": os.getpid(), "created": time.time()}
            with open(os.path.join(self._dir, OWNER_MARKER), "w") as handle:
                json.dump(marker, handle)
        self._windows = []   # per shard: ndarray (in memory) or str (npy path)
        self._midsts = []    # per shard: ndarray, always in memory
        self._mmaps = {}     # shard id -> open memmap, opened lazily
        self._checksums = {}  # shard id -> content digest of the spilled file
        self._verified = set()  # shard ids whose spilled bytes were checked
        self._context_size = None

    # ------------------------------------------------------- context manager
    def __enter__(self) -> "ShardStore":
        return self

    def __exit__(self, exc_type, exc_value, traceback):
        self.cleanup()
        return False

    # ------------------------------------------------------------ properties
    @property
    def spilled(self) -> bool:
        return self.spill_dir is not None

    @property
    def num_shards(self) -> int:
        return len(self._midsts)

    @property
    def num_contexts(self) -> int:
        return int(sum(len(midst) for midst in self._midsts))

    def midst(self, shard: int) -> np.ndarray:
        """The midst ids of one shard (always in memory)."""
        return self._midsts[shard]

    # -------------------------------------------------------------- mutation
    def _spill(self, shard: int, windows: np.ndarray) -> str:
        """Write one shard atomically and verify the bytes landed.

        A write whose readback fails verification (injected corruption, or a
        flaky disk) is re-written up to :data:`SPILL_WRITE_RETRIES` times —
        the in-memory array is still the truth at this point, so healing is
        free.  Persistent failure raises :class:`ShardCorruptError`.
        """
        path = os.path.join(self._dir, f"shard_{shard:05d}_windows.npy")
        registry = get_registry()
        for attempt in range(SPILL_WRITE_RETRIES + 1):
            checksum = atomic_save_npy(path, windows)
            registry.counter("store_spill_writes_total").inc()
            fault_corrupt_file("store.spill", (shard, attempt), path)
            try:
                load_verified_npy(path, checksum)
            except ShardCorruptError:
                if attempt == SPILL_WRITE_RETRIES:
                    raise ShardCorruptError(
                        f"shard {shard} could not be spilled to {path}: "
                        f"{SPILL_WRITE_RETRIES + 1} consecutive writes "
                        "failed verification — the target filesystem is "
                        "unreliable"
                    )
                # The re-write below is the heal: the in-memory array is
                # still the truth, the on-disk bytes were not.
                registry.counter("store_spill_heals_total").inc()
                continue
            # Not marked read-verified: first access re-checks the file, so
            # corruption arriving *between* write and read is still caught.
            self._checksums[shard] = checksum
            return path
        raise AssertionError("unreachable")

    def append(self, windows: np.ndarray, midst: np.ndarray) -> int:
        """Add one shard; returns its id.  Spills the window matrix when the
        store was created with a ``spill_dir``."""
        windows = np.ascontiguousarray(windows, dtype=np.int64)
        midst = np.ascontiguousarray(midst, dtype=np.int64)
        if windows.ndim != 2 or len(windows) != len(midst):
            raise ValueError("windows must be (rows, c) with one midst per row")
        if self._context_size is None:
            self._context_size = int(windows.shape[1])
        elif windows.shape[1] != self._context_size:
            raise ValueError(
                f"shard context size {windows.shape[1]} != store context size "
                f"{self._context_size}"
            )
        shard = len(self._midsts)
        if self.spilled:
            self._windows.append(self._spill(shard, windows))
        else:
            self._windows.append(windows)
        self._midsts.append(midst)
        return shard

    # --------------------------------------------------------------- reading
    def windows(self, shard: int) -> np.ndarray:
        """The full window matrix of one shard (a memmap when spilled).

        The first read of a spilled shard verifies the file against the
        checksum recorded at write time; corruption raises
        :class:`ShardCorruptError` instead of a numpy traceback.
        """
        block = self._windows[shard]
        if isinstance(block, str):
            mmap = self._mmaps.get(shard)
            if mmap is None:
                get_registry().counter("store_spill_reads_total").inc()
                if self.verify_reads and shard not in self._verified:
                    load_verified_npy(block, self._checksums.get(shard))
                    self._verified.add(shard)
                mmap = np.load(block, mmap_mode="r")
                self._mmaps[shard] = mmap
            return mmap
        return block

    def verify(self) -> int:
        """Re-verify every spilled shard against its recorded checksum now
        (all are also lazily verified on first read); returns how many files
        were checked.  Raises :class:`ShardCorruptError` on the first
        mismatch."""
        checked = 0
        for shard, block in enumerate(self._windows):
            if isinstance(block, str):
                load_verified_npy(block, self._checksums.get(shard))
                self._verified.add(shard)
                checked += 1
        return checked

    def iter_shards(self):
        """Yield ``(shard_id, windows, midst)``; windows may be a memmap."""
        for shard in range(self.num_shards):
            yield shard, self.windows(shard), self._midsts[shard]

    def cleanup(self):
        """Delete this store's spilled files (no-op for in-memory stores).

        The store must not be read again afterwards.  Using the store as a
        context manager (as the trainer does) calls this automatically."""
        import shutil

        self._mmaps.clear()
        if self._dir is not None and os.path.isdir(self._dir):
            shutil.rmtree(self._dir, ignore_errors=True)

    def __repr__(self) -> str:
        where = f"spill_dir={self.spill_dir!r}" if self.spilled else "in-memory"
        return (f"ShardStore({self.num_shards} shards, "
                f"{self.num_contexts} contexts, {where})")


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True  # exists, owned by someone else
    except OSError:
        return False
    return True


def reap_orphans(spill_dir: str) -> list:
    """Remove ``shards-*`` subdirectories leaked by crashed runs.

    A subdirectory is an orphan when its :data:`OWNER_MARKER` names a
    process that no longer exists (the run crashed before its
    :meth:`ShardStore.cleanup`), or when the marker itself is missing or
    unreadable (a run that died mid-creation).  Directories owned by live
    processes are left alone, so concurrent runs can safely share one
    ``spill_dir``.  Returns the removed paths.
    """
    import shutil

    removed = []
    if not spill_dir or not os.path.isdir(spill_dir):
        return removed
    for name in sorted(os.listdir(spill_dir)):
        if not name.startswith("shards-"):
            continue
        path = os.path.join(spill_dir, name)
        if not os.path.isdir(path):
            continue
        owner_pid = None
        try:
            with open(os.path.join(path, OWNER_MARKER)) as handle:
                owner_pid = int(json.load(handle).get("pid"))
        except (OSError, ValueError, TypeError, json.JSONDecodeError):
            owner_pid = None
        if owner_pid is not None and _pid_alive(owner_pid):
            continue
        shutil.rmtree(path, ignore_errors=True)
        removed.append(path)
    return removed
