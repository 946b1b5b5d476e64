"""Deterministic infrastructure fault injection.

:mod:`repro.llm.errors` injects *generation* faults — the model writing
``center_x`` for ``fof_halo_center_x`` — from a dedicated RNG stream so
the paper's QA-loop dynamics reproduce bit-for-bit.  This module extends
the same philosophy to *infrastructure* faults: the HTTP sandbox gateway
dropping a request, a query-cache ``.npy`` entry coming back with a
flipped bit, a checkpoint blob corrupted on disk.  Each named fault point
draws from its own derived RNG stream (:func:`repro.util.rngs.derive_seed`),
so changing how often one component is exercised never perturbs another,
and the same seed + profile yields the identical fault schedule in every
process.

A :class:`FaultProfile` is **off by default**; with every rate at zero,
:meth:`FaultInjector.fire` returns before touching any RNG, and the
ambient lookup (:func:`get_injector`) is one contextvar read — the same
zero-overhead posture as :func:`repro.obs.tracer.get_tracer`.

Every fired fault is counted (``faults.injected`` plus a per-point
counter in :mod:`repro.obs.metrics`) and stamped onto the innermost open
span (``faults`` / ``fault.<point>`` attributes), which is what
``repro trace summary`` and the chaos benchmarks report.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, fields, replace
from typing import Iterator

import numpy as np

from repro.obs.metrics import get_registry
from repro.obs.tracer import get_tracer
from repro.util.rngs import derive_seed

# ----------------------------------------------------------------------
# named fault points
# ----------------------------------------------------------------------
SANDBOX_DROP = "sandbox.request.drop"          # connection reset before a reply
SANDBOX_HANG = "sandbox.request.hang"          # request exceeds its deadline
SANDBOX_5XX = "sandbox.response.5xx"           # gateway answers 503
SANDBOX_GARBAGE = "sandbox.response.garbage"   # reply body is not valid JSON
STORAGE_TORN_WRITE = "storage.torn_write"      # publish truncated mid-write
STORAGE_BIT_FLIP = "storage.bit_flip"          # one bit flips on a disk read
CHECKPOINT_CORRUPT = "checkpoint.corrupt"      # checkpoint blob corrupted on disk

# Ingest-path kill faults.  These simulate the *ingester process dying* at
# a precise point of the WAL commit protocol (see repro.db.wal), so unlike
# the fault points above they abort the operation in flight rather than
# degrade it.  They only ever fire inside an armed scope
# (:func:`arm_ingest_kills`) — the query path's data-loading appends share
# the same code but must never host a simulated kill.
WAL_TORN_TAIL = "ingest.wal.torn_tail"             # die mid-WAL-append: torn tail
INGEST_KILL_APPLY = "ingest.kill.apply"            # die before staging row groups
INGEST_PARTIAL_ROW_GROUP = "ingest.partial_row_group"  # die mid-segment: torn .npy
INGEST_KILL_PUBLISH = "ingest.kill.publish"        # die after staging, before the catalog commit

FAULT_POINTS = (
    SANDBOX_DROP,
    SANDBOX_HANG,
    SANDBOX_5XX,
    SANDBOX_GARBAGE,
    STORAGE_TORN_WRITE,
    STORAGE_BIT_FLIP,
    CHECKPOINT_CORRUPT,
    WAL_TORN_TAIL,
    INGEST_KILL_APPLY,
    INGEST_PARTIAL_ROW_GROUP,
    INGEST_KILL_PUBLISH,
)

INGEST_KILL_POINTS = (
    WAL_TORN_TAIL,
    INGEST_KILL_APPLY,
    INGEST_PARTIAL_ROW_GROUP,
    INGEST_KILL_PUBLISH,
)

ENV_VAR = "REPRO_FAULT_PROFILE"


@dataclass(frozen=True)
class FaultProfile:
    """Per-fault-point firing probabilities (all zero = injection off)."""

    seed: int = 0
    sandbox_drop: float = 0.0
    sandbox_hang: float = 0.0
    sandbox_5xx: float = 0.0
    sandbox_garbage: float = 0.0
    storage_torn_write: float = 0.0
    storage_bit_flip: float = 0.0
    checkpoint_corrupt: float = 0.0
    wal_torn_tail: float = 0.0
    ingest_kill_apply: float = 0.0
    ingest_partial_row_group: float = 0.0
    ingest_kill_publish: float = 0.0

    _FIELD_BY_POINT = {
        SANDBOX_DROP: "sandbox_drop",
        SANDBOX_HANG: "sandbox_hang",
        SANDBOX_5XX: "sandbox_5xx",
        SANDBOX_GARBAGE: "sandbox_garbage",
        STORAGE_TORN_WRITE: "storage_torn_write",
        STORAGE_BIT_FLIP: "storage_bit_flip",
        CHECKPOINT_CORRUPT: "checkpoint_corrupt",
        WAL_TORN_TAIL: "wal_torn_tail",
        INGEST_KILL_APPLY: "ingest_kill_apply",
        INGEST_PARTIAL_ROW_GROUP: "ingest_partial_row_group",
        INGEST_KILL_PUBLISH: "ingest_kill_publish",
    }

    def rate(self, point: str) -> float:
        field = self._FIELD_BY_POINT.get(point)
        if field is None:
            raise KeyError(f"unknown fault point {point!r} (known: {FAULT_POINTS})")
        return float(getattr(self, field))

    @property
    def enabled(self) -> bool:
        return any(self.rate(p) > 0.0 for p in FAULT_POINTS)

    def with_rates(self, **kwargs: float) -> "FaultProfile":
        return replace(self, **kwargs)

    def as_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    # -- construction ---------------------------------------------------
    @classmethod
    def named(cls, name: str, seed: int = 0) -> "FaultProfile":
        """The ``off`` / ``light`` / ``heavy`` presets of ``--chaos``."""
        name = (name or "off").strip().lower()
        if name in ("off", "none", ""):
            return cls(seed=seed)
        if name == "light":
            return cls(
                seed=seed,
                sandbox_drop=0.05,
                sandbox_5xx=0.05,
                sandbox_garbage=0.03,
                storage_torn_write=0.05,
                storage_bit_flip=0.05,
                checkpoint_corrupt=0.05,
                wal_torn_tail=0.05,
                ingest_kill_apply=0.05,
                ingest_partial_row_group=0.05,
                ingest_kill_publish=0.05,
            )
        if name == "heavy":
            return cls(
                seed=seed,
                sandbox_drop=0.25,
                sandbox_hang=0.10,
                sandbox_5xx=0.25,
                sandbox_garbage=0.15,
                storage_torn_write=0.30,
                storage_bit_flip=0.30,
                checkpoint_corrupt=0.30,
                wal_torn_tail=0.25,
                ingest_kill_apply=0.20,
                ingest_partial_row_group=0.20,
                ingest_kill_publish=0.25,
            )
        raise ValueError(f"unknown fault profile {name!r} (off/light/heavy)")

    @classmethod
    def from_env(cls, environ=None, seed: int = 0) -> "FaultProfile":
        """Resolve ``REPRO_FAULT_PROFILE``: a preset name or a JSON rate map.

        Unset or unparseable values degrade to the off profile — the env
        hook must never be able to break a production run.
        """
        value = (environ if environ is not None else os.environ).get(ENV_VAR, "")
        value = value.strip()
        if not value:
            return cls(seed=seed)
        if value.startswith("{"):
            try:
                rates = {
                    k: float(v)
                    for k, v in json.loads(value).items()
                    if k in {f.name for f in fields(cls)}
                }
            except (json.JSONDecodeError, TypeError, ValueError):
                return cls(seed=seed)
            return cls(seed=seed).with_rates(**rates)
        try:
            return cls.named(value, seed=seed)
        except ValueError:
            return cls(seed=seed)


NO_FAULTS = FaultProfile()
LIGHT_CHAOS = FaultProfile.named("light")
HEAVY_CHAOS = FaultProfile.named("heavy")


# ----------------------------------------------------------------------
# the injector
# ----------------------------------------------------------------------
class FaultInjector:
    """Seeded decision engine over a profile's fault points.

    One lazily created ``numpy`` Generator per fault point, derived from
    ``(profile.seed, "fault", point)`` — the counter-based substream
    pattern the simulator and :class:`repro.llm.errors.ErrorModel` use —
    so two injectors with the same profile fire identically, and the
    schedule at one point is independent of traffic at every other.
    """

    def __init__(self, profile: FaultProfile | None = None):
        self.profile = profile or NO_FAULTS
        self._streams: dict[str, np.random.Generator] = {}
        self.injected: dict[str, int] = {}

    def _stream(self, point: str) -> np.random.Generator:
        stream = self._streams.get(point)
        if stream is None:
            stream = self._streams[point] = np.random.default_rng(
                derive_seed(self.profile.seed, "fault", point)
            )
        return stream

    @property
    def enabled(self) -> bool:
        return self.profile.enabled

    def fire(self, point: str) -> bool:
        """Should this fault point fire now?  Counts and stamps if so."""
        rate = self.profile.rate(point)
        if rate <= 0.0:
            return False
        if not (rate >= 1.0 or self._stream(point).uniform() < rate):
            return False
        self.injected[point] = self.injected.get(point, 0) + 1
        registry = get_registry()
        registry.counter("faults.injected").inc()
        registry.counter(f"faults.{point}").inc()
        span = get_tracer().current()
        if span is not None:
            attrs = span.attributes
            attrs["faults"] = int(attrs.get("faults", 0)) + 1
            attrs[f"fault.{point}"] = int(attrs.get(f"fault.{point}", 0)) + 1
        return True

    # -- payload corruption helpers ------------------------------------
    def flip_bit(self, point: str, data: bytes) -> bytes:
        """Deterministically flip one bit of ``data`` (non-empty input)."""
        if not data:
            return data
        stream = self._stream(point)
        pos = int(stream.integers(0, len(data)))
        bit = int(stream.integers(0, 8))
        out = bytearray(data)
        out[pos] ^= 1 << bit
        return bytes(out)

    def truncate(self, point: str, data: bytes) -> bytes:
        """Deterministically truncate ``data`` (a torn write's surviving
        prefix: at least one byte shorter, possibly empty)."""
        if not data:
            return data
        keep = int(self._stream(point).integers(0, len(data)))
        return data[:keep]

    def schedule(self) -> dict[str, int]:
        """Copy of the per-point injection counts so far."""
        return dict(self.injected)


# ----------------------------------------------------------------------
# the ambient injector, mirroring repro.obs.tracer's ambient tracer
# ----------------------------------------------------------------------
NULL_INJECTOR = FaultInjector(NO_FAULTS)

_ACTIVE: ContextVar[FaultInjector | None] = ContextVar("repro_fault_injector", default=None)


def get_injector() -> FaultInjector:
    """The active injector of the calling context, or the inert default."""
    return _ACTIVE.get() or NULL_INJECTOR


@contextmanager
def use_faults(injector: FaultInjector) -> Iterator[FaultInjector]:
    """Activate ``injector`` for the dynamic extent of the block."""
    token = _ACTIVE.set(injector)
    try:
        yield injector
    finally:
        _ACTIVE.reset(token)


# ----------------------------------------------------------------------
# ingest kill-fault arming
# ----------------------------------------------------------------------
# The WAL commit protocol (repro.db.wal / repro.db.database) is shared by
# every append in the system, including the query path's data-loading
# appends.  Kill-style ingest faults must only strike the *live ingester*
# — a query session dying because the chaos profile shot the loader would
# prove nothing and fail everything — so the commit protocol consults
# :func:`ingest_kills_armed` before firing any INGEST_KILL_POINTS, and
# only :class:`repro.sim.ingest.StreamingIngester` (and targeted tests)
# arm the scope.
_INGEST_ARMED: ContextVar[bool] = ContextVar("repro_ingest_kills_armed", default=False)


def ingest_kills_armed() -> bool:
    """Whether simulated ingester kills may fire in the calling context."""
    return _INGEST_ARMED.get()


@contextmanager
def arm_ingest_kills() -> Iterator[None]:
    """Allow INGEST_KILL_POINTS to fire for the dynamic extent of the block."""
    token = _INGEST_ARMED.set(True)
    try:
        yield
    finally:
        _INGEST_ARMED.reset(token)


def fire_ingest_kill(point: str) -> bool:
    """Fire an ingest kill point iff the scope is armed (else always False)."""
    if not _INGEST_ARMED.get():
        return False
    return get_injector().fire(point)
