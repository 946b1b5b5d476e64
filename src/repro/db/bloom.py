"""Per-row-group bloom filters for equality segment pruning.

Zone maps refute range predicates, but an equality probe against a row
group whose [min, max] interval happens to straddle the probe value — or
against a *string* column, which has no interval at all — always falls
through to a full segment read.  A small fixed-size bloom filter per
(row group, column), built over the group's **distinct** values at append
time and persisted in the table's ``catalog.json`` entry next to the
zone maps, lets the
pruner refute ``col = literal`` and ``col IN (...)`` without touching the
segment's bytes.

**Soundness.**  A bloom filter has false positives, never false
negatives: ``might_contain`` returning False is a *proof* the value is
absent (both the build and the probe canonicalize values through the same
:func:`value_token`), so pruning on it can never change results — the
same conservative contract as the zone maps.

**Sizing.**  With ``m`` bits, ``k`` hashes and ``n`` distinct values the
false-positive rate is ``(1 - e^(-kn/m))^k``.  The defaults (m=4096,
k=4) give ~0.0003 at 128 distinct values and ~0.012 at 512.  Filters
whose expected load would exceed 1-1/e (``k*n > m``), or whose measured
load exceeds :data:`MAX_LOAD`, are not persisted at all: a saturated
filter refutes nothing and would only burn probe time and metadata bytes.
High-cardinality columns therefore simply opt out, while low-cardinality
ones (category/kind-style strings, timestep sets) prune aggressively.
"""

from __future__ import annotations

import hashlib
import struct

import numpy as np

DEFAULT_BITS = 4096
DEFAULT_HASHES = 4
# filters more than half full are dropped: refutation power has decayed
# past usefulness (worst-case persisted FP rate is 0.5^k ≈ 6%)
MAX_LOAD = 0.5


def value_token(value) -> bytes | None:
    """Canonical hash token for a value, or None for unhashable-by-design.

    Numbers of every width collapse to their float64 bytes so a probe for
    the literal ``42`` matches int64 and float64 columns alike (equality
    in the executor compares through NumPy promotion the same way).
    Strings hash their UTF-8 bytes.  NaN returns None — SQL equality is
    always false for NaN, so it is never added and never refuted.
    """
    if isinstance(value, (bool, np.bool_)):
        return struct.pack("<d", float(value))
    if isinstance(value, (int, float, np.integer, np.floating)):
        f = float(value)
        if f != f:  # NaN
            return None
        return struct.pack("<d", f)
    return str(value).encode("utf-8")


def _positions(token: bytes, k: int, m: int) -> list[int]:
    """k bit positions via double hashing over one blake2b digest."""
    digest = hashlib.blake2b(token, digest_size=16).digest()
    h1 = int.from_bytes(digest[:8], "little")
    h2 = int.from_bytes(digest[8:], "little") | 1
    return [(h1 + i * h2) % m for i in range(k)]


class BloomFilter:
    """Fixed-size bitset with k double-hashed probe positions."""

    __slots__ = ("m", "k", "bits")

    def __init__(self, m: int = DEFAULT_BITS, k: int = DEFAULT_HASHES,
                 bits: bytes | bytearray | None = None):
        self.m = int(m)
        self.k = int(k)
        nbytes = (self.m + 7) // 8
        if bits is None:
            self.bits = bytearray(nbytes)
        else:
            self.bits = bytearray(bits)
            if len(self.bits) != nbytes:
                raise ValueError(f"bloom bitset is {len(self.bits)} bytes, want {nbytes}")

    # ------------------------------------------------------------------
    def add(self, value) -> None:
        token = value_token(value)
        if token is None:
            return
        for pos in _positions(token, self.k, self.m):
            self.bits[pos >> 3] |= 1 << (pos & 7)

    def might_contain(self, value) -> bool:
        """False is a proof of absence; True means "cannot refute"."""
        token = value_token(value)
        if token is None:
            return True
        return all(
            self.bits[pos >> 3] & (1 << (pos & 7))
            for pos in _positions(token, self.k, self.m)
        )

    @property
    def load(self) -> float:
        """Fraction of bits set (refutation power decays as this grows)."""
        return int.from_bytes(self.bits, "little").bit_count() / self.m

    # ------------------------------------------------------------------
    # persistence (embeddable in a catalog entry)
    # ------------------------------------------------------------------
    def to_meta(self) -> dict:
        return {"m": self.m, "k": self.k, "bits": bytes(self.bits).hex()}

    @classmethod
    def from_meta(cls, doc) -> "BloomFilter | None":
        """Parse a persisted filter; tolerant of foreign/corrupt docs
        (pruning just proceeds without the filter)."""
        try:
            return cls(int(doc["m"]), int(doc["k"]), bytes.fromhex(doc["bits"]))
        except (KeyError, TypeError, ValueError):
            return None

    @classmethod
    def build(cls, values: np.ndarray, m: int = DEFAULT_BITS,
              k: int = DEFAULT_HASHES) -> "BloomFilter | None":
        """Build over the distinct values of one segment column.

        Returns None when the column's cardinality saturates the bitset —
        callers persist nothing and the pruner falls back to zone maps.
        """
        if values.size == 0:
            return cls(m, k)  # empty segment: refutes every probe
        try:
            distinct = np.unique(values)
        except TypeError:
            return None  # unsortable object column: no filter
        if len(distinct) * k > m:
            return None  # expected load beyond 1 - 1/e: saturated
        bf = cls(m, k)
        for v in distinct.tolist():
            bf.add(v)
        if bf.load > MAX_LOAD:
            return None
        return bf
