"""The one bounded in-process map and the one tiered store of both caches.

:class:`LRU` holds one lock over every lookup, reorder, insert and
eviction, so no eviction lands between a hit's lookup and its reorder.
:class:`TieredStore` puts an LRU in front of one :mod:`repro.gio` file
per key (``<prefix><key>.gio``: columns, with the key and other attrs in
the header), published with :func:`repro.durable.atomic_publish` and read
back CRC-verified.  A corrupt entry is moved under ``.quarantine/`` (a
move, not a publish) and recomputed by the caller; an ``OSError``
degrades the store to its memory tier.  DESIGN.md §7.
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict
from collections.abc import Callable, Hashable, Mapping
from pathlib import Path
from typing import Generic, TypeVar

import numpy as np

from repro import faults
from repro.durable import atomic_publish
from repro.gio.format import GIOFormatError, encode_gio, read_gio_verified
from repro.obs.logsetup import get_logger
from repro.obs.tracer import get_tracer

log = get_logger("gio.store")

K = TypeVar("K", bound=Hashable)
V = TypeVar("V")

QUARANTINE_DIRNAME = ".quarantine"


class LRU(Generic[K, V]):
    """A bounded, thread-safe, least-recently-used map; ``evicted(n)``
    hears every call that dropped ``n`` entries."""

    def __init__(self, capacity: int, evicted: Callable[[int], None] | None = None):
        self._items: OrderedDict[K, V] = OrderedDict()
        self.capacity = max(0, int(capacity))
        self._evicted = evicted
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._items)

    def __contains__(self, key: K) -> bool:
        return key in self._items

    def get(self, key: K, default: V | None = None) -> V | None:
        with self._lock:
            try:
                self._items.move_to_end(key)
            except KeyError:
                return default
            return self._items[key]

    def put(self, key: K, value: V) -> None:
        with self._lock:
            self._items[key] = value
            self._items.move_to_end(key)
            dropped = self._trim()
        if dropped and self._evicted is not None:
            self._evicted(dropped)

    def resize(self, capacity: int) -> None:
        with self._lock:
            self.capacity = max(0, int(capacity))
            dropped = self._trim()
        if dropped and self._evicted is not None:
            self._evicted(dropped)

    def clear(self) -> None:
        with self._lock:
            self._items.clear()

    def _trim(self) -> int:
        dropped = 0
        while len(self._items) > self.capacity:
            self._items.popitem(last=False)
            dropped += 1
        return dropped


class TieredStore(Generic[V]):
    """``key -> value``: ``memory`` over the files under ``directory``
    (``None``: memory only).  ``decode(attrs, columns)`` turns a verified
    entry into a value, or None to quarantine it; ``quarantined()`` is
    called once per quarantined entry."""

    def __init__(self, directory: str | Path | None, prefix: str, memory: LRU[str, V],
                 decode: Callable[[dict, dict[str, np.ndarray]], V | None],
                 quarantined: Callable[[], None] | None = None):
        self.directory = Path(directory) if directory is not None else None
        self.prefix = prefix
        self.memory = memory
        self._decode = decode
        self._quarantined = quarantined

    def path(self, key: str) -> Path | None:
        return None if self.directory is None else self.directory / f"{self.prefix}{key}.gio"

    def get(self, key: str, expect: Mapping | None = None) -> tuple[str, V] | None:
        """``("memory" | "disk", value)``, a disk hit now held in memory too."""
        value = self.memory.get(key)
        if value is not None:
            return "memory", value
        value = self.load(key, expect)
        if value is None:
            return None
        self.memory.put(key, value)
        return "disk", value

    def load(self, key: str, expect: Mapping | None = None) -> V | None:
        """The disk tier alone: the entry, its CRCs verified and its header
        carrying ``key`` and every ``expect`` attr, decoded."""
        path = self.path(key)
        if path is None:
            return None
        try:
            attrs, columns = read_gio_verified(path, fault_point=faults.STORAGE_BIT_FLIP)
        except GIOFormatError as exc:
            self._quarantine(path, str(exc))
            return None
        except OSError:
            return None  # absent, or raced with another process's quarantine/clear
        if any(attrs.get(n) != v for n, v in {"key": key, **(expect or {})}.items()):
            self._quarantine(path, "header attrs do not match the key")
            return None
        value = self._decode(attrs, columns)
        if value is None:
            self._quarantine(path, "entry does not decode")
        return value

    def put(self, key: str, value: V, columns: dict[str, np.ndarray],
            attrs: Mapping | None = None) -> None:
        """Hold ``value`` and publish ``columns`` (racers lose quietly;
        object columns do not round-trip and stay in memory)."""
        self.memory.put(key, value)
        path = self.path(key)
        if path is None or path.exists() or any(c.dtype == object for c in columns.values()):
            return
        parts, _ = encode_gio(columns, {"key": key, **(attrs or {})})
        try:
            atomic_publish(path, b"".join(parts), fault_point=faults.STORAGE_TORN_WRITE)
        except OSError:
            pass  # a read-only directory degrades to the memory tier

    def _quarantine(self, path: Path, detail: str) -> None:
        if self._quarantined is not None:
            self._quarantined()
        span = get_tracer().current()
        if span is not None:
            attrs = span.attributes
            attrs["cache_quarantined"] = int(attrs.get("cache_quarantined", 0)) + 1
        log.warning("quarantining corrupt cache entry %s: %s", path.name, detail)
        try:
            (path.parent / QUARANTINE_DIRNAME).mkdir(parents=True, exist_ok=True)
            os.replace(path, path.parent / QUARANTINE_DIRNAME / path.name)
        except OSError:
            path.unlink(missing_ok=True)

    def entries(self) -> list[Path]:
        if self.directory is None or not self.directory.is_dir():
            return []
        return sorted(self.directory.glob(f"{self.prefix}*.gio"))

    def quarantined(self) -> list[Path]:
        qdir = self.directory / QUARANTINE_DIRNAME if self.directory is not None else None
        return sorted(qdir.iterdir()) if qdir is not None and qdir.is_dir() else []

    def footprint_bytes(self) -> int:
        return sum(entry.stat().st_size for entry in self.entries())

    def clear_disk(self) -> int:
        """Remove every published entry; returns how many were dropped."""
        entries = self.entries()
        for entry in entries:
            entry.unlink(missing_ok=True)
        return len(entries)
