"""Deterministic, replayable fault injection.

A fault schedule is data, not chance: a :class:`FaultPlan` is a list of
:class:`FaultSpec` entries, each naming an injection *site* (a string like
``"shard.walk"``), an occurrence *key* (for shard tasks, ``(shard,)``),
and a *kind* — what happens when that occurrence is reached.  Plans
serialise to JSON, so the same schedule can be armed in code, shipped to a
CI job through the ``REPRO_FAULT_PLAN`` environment variable, and replayed
byte-for-byte.

Arming installs a process-global :class:`FaultInjector`; production code
calls :func:`fault_check` at its injection sites.  When nothing is armed the
check is a single module-global ``None`` comparison — the sites cost nothing
in normal operation.  Subprocesses re-read the environment variable on
import, so they honour the same plan as the parent.

Fault kinds
-----------
``crash``
    Raise :class:`InjectedCrash` at the site (a task failing).
``kill``
    Raise :class:`InjectedKill` — simulates the *process* dying (training
    kill tests, torn-write tests).  Callers are expected not to catch it.
``corrupt``
    Overwrite the tail of a just-written file with garbage
    (:func:`fault_corrupt_file`) — a torn or bit-rotted spill.
``torn``
    Truncate a file mid-write and raise :class:`InjectedKill` — a process
    killed between write and rename.
``delay``
    Sleep for ``seconds`` (default :data:`DEFAULT_DELAY_SECONDS`) before
    continuing (serving-deadline tests).
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass

#: Environment variable holding a JSON fault plan; read at import and by
#: :func:`arm_from_env`, so subprocesses and CI jobs arm themselves.
FAULT_PLAN_ENV = "REPRO_FAULT_PLAN"

KINDS = ("crash", "kill", "corrupt", "torn", "delay")

#: Sleep of a ``delay`` spec that names no ``seconds``.
DEFAULT_DELAY_SECONDS = 30.0


class InjectedFault(RuntimeError):
    """Base class of every injected failure."""

    def __init__(self, site: str, key: tuple, kind: str):
        super().__init__(
            f"injected {kind} fault at site {site!r}, occurrence {key!r}")
        self.site = site
        self.key = key
        self.kind = kind


class InjectedCrash(InjectedFault):
    """A task failing; the caller sees the exception."""


class InjectedKill(InjectedFault):
    """A simulated process death — not retryable; the run is over."""


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled fault: fire ``kind`` at occurrence ``key`` of ``site``."""

    site: str
    kind: str
    key: tuple
    seconds: float = 0.0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")
        object.__setattr__(self, "key", tuple(int(k) for k in self.key))

    def to_dict(self) -> dict:
        entry = {"site": self.site, "kind": self.kind, "key": list(self.key)}
        if self.seconds:
            entry["seconds"] = self.seconds
        return entry

    @classmethod
    def from_dict(cls, entry: dict) -> "FaultSpec":
        return cls(site=entry["site"], kind=entry["kind"],
                   key=tuple(entry.get("key", ())),
                   seconds=float(entry.get("seconds", 0.0)))


class FaultPlan:
    """An ordered, replayable fault schedule."""

    def __init__(self, specs=()):
        self.specs = [spec if isinstance(spec, FaultSpec)
                      else FaultSpec.from_dict(spec) for spec in specs]

    def __len__(self) -> int:
        return len(self.specs)

    def __iter__(self):
        return iter(self.specs)

    # ---------------------------------------------------------- serialisation
    def to_json(self) -> str:
        return json.dumps({"entries": [spec.to_dict() for spec in self.specs]})

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        payload = json.loads(text)
        if not isinstance(payload, dict) or "entries" not in payload:
            raise ValueError(
                "a fault plan is a JSON object with an 'entries' list")
        return cls(payload["entries"])


class FaultInjector:
    """Consumes a :class:`FaultPlan`: each spec fires once, then is spent."""

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self._armed = {}
        for spec in plan:
            self._armed.setdefault((spec.site, spec.key), []).append(spec)
        self._counters = {}
        self.fired = []

    def take(self, site: str, key=None) -> FaultSpec:
        """Pop the spec scheduled for this occurrence, if any.

        ``key=None`` sites are keyed by a per-injector occurrence counter, so
        plans can target "the third checkpoint write" without the caller
        threading indices around.
        """
        if key is None:
            count = self._counters.get(site, 0)
            self._counters[site] = count + 1
            key = (count,)
        else:
            key = tuple(int(k) for k in key)
        queue = self._armed.get((site, key))
        if not queue:
            return None
        spec = queue.pop(0)
        self.fired.append(spec)
        return spec

    def pending(self) -> int:
        return sum(len(queue) for queue in self._armed.values())


_injector = None


def get_injector() -> FaultInjector:
    """The armed process-global injector, or ``None``."""
    return _injector


def arm(plan) -> FaultInjector:
    """Install a fault plan (a :class:`FaultPlan`, JSON text, or dict)."""
    global _injector
    if isinstance(plan, str):
        plan = FaultPlan.from_json(plan)
    elif isinstance(plan, dict):
        plan = FaultPlan(plan.get("entries", ()))
    elif not isinstance(plan, FaultPlan):
        raise TypeError(f"cannot arm a {type(plan).__name__}")
    _injector = FaultInjector(plan)
    return _injector


def disarm():
    """Remove the armed injector; every site reverts to a no-op."""
    global _injector
    _injector = None


def arm_from_env() -> FaultInjector:
    """Arm from ``REPRO_FAULT_PLAN`` if set; returns the injector or None."""
    text = os.environ.get(FAULT_PLAN_ENV)
    if text:
        return arm(text)
    return None


def fault_check(site: str, key=None):
    """Injection site: a no-op unless an armed spec targets this occurrence.

    Raises :class:`InjectedCrash`/:class:`InjectedKill` or sleeps
    (``delay``) according to the spec.  File-mutating kinds are handled by
    :func:`fault_corrupt_file` and are ignored here.
    """
    if _injector is None:
        return None
    spec = _injector.take(site, key)
    if spec is None:
        return None
    if spec.kind == "crash":
        raise InjectedCrash(site, spec.key, spec.kind)
    if spec.kind == "kill":
        raise InjectedKill(site, spec.key, spec.kind)
    if spec.kind == "delay":
        time.sleep(spec.seconds or DEFAULT_DELAY_SECONDS)
    return spec


def fault_corrupt_file(site: str, key, path: str) -> bool:
    """Injection site for freshly written files.

    ``corrupt`` garbles the tail of ``path`` (truncate + garbage bytes);
    ``torn`` truncates to half and raises :class:`InjectedKill`, simulating
    a process killed mid-write.  Returns whether the file was touched.
    """
    if _injector is None:
        return False
    spec = _injector.take(site, key)
    if spec is None:
        return False
    size = os.path.getsize(path)
    if spec.kind == "corrupt":
        with open(path, "r+b") as handle:
            handle.truncate(max(size // 2, 1))
            handle.seek(max(size // 2 - 8, 0))
            handle.write(b"\xde\xad\xbe\xef")
        return True
    if spec.kind == "torn":
        with open(path, "r+b") as handle:
            handle.truncate(max(size // 2, 1))
        raise InjectedKill(site, spec.key, spec.kind)
    return False


# Arm automatically when the environment carries a plan, so CI subprocesses
# join the schedule without code changes.
arm_from_env()
