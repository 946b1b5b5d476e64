"""Per-row-group bloom filters for equality segment pruning.

One fixed-size filter per (row group, column), built at append time and
kept in the row group's ``repro.gio`` header, refutes ``col = literal``
and ``col IN (...)`` where zone maps cannot: a value inside [min, max],
or any string.  A column hashes in one numpy pass and a probe through the
same functions.  A filter holds one *kind* of value: numbers as float64
bits (−0.0 folded to 0.0, NaN dropped), text as a polynomial over UTF-32
code points to which zero padding adds nothing.  Duplicates set the same
bits, so no distinct set is computed.  ``might_contain`` returning False
proves absence among values of the filter's kind; a doc naming another
:data:`HASH_SCHEME` is never parsed.  A filter loaded past
:data:`MAX_LOAD` is not kept, and load only grows, so a build stops at
the first prefix past it (DESIGN.md §9).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

DEFAULT_BITS = 4096
DEFAULT_HASHES = 4
# a fuller filter refutes too little to keep (worst-case FP rate 0.5^k)
MAX_LOAD = 0.5
# names the key and position functions below; change it with them
HASH_SCHEME = "f64bits-utf32poly-mix64"

_NUMBER, _TEXT = "number", "text"
_DTYPE_KINDS = {"b": _NUMBER, "i": _NUMBER, "u": _NUMBER, "f": _NUMBER, "U": _TEXT}
_U64 = np.uint64
# odd multipliers of the splitmix64 finalizer, and the string polynomial's base
_MIX1, _MIX2 = _U64(0xBF58476D1CE4E5B9), _U64(0x94D049BB133111EB)
_POLY = 0x9E3779B97F4A7C15


def value_kind(value) -> str | None:
    """The filter kind a probe value belongs to, if any."""
    if isinstance(value, (bool, int, float, np.bool_, np.integer, np.floating)):
        return _NUMBER
    return _TEXT if isinstance(value, str) else None


def _keys(values: np.ndarray, kind: str) -> np.ndarray:
    """One uint64 per (non-NaN) value: float64 bits or a string's polynomial."""
    if kind == _NUMBER:
        as_float = values.astype(np.float64) + 0.0  # -0.0 + 0.0 is 0.0
        return as_float[~np.isnan(as_float)].view(_U64)
    width = values.dtype.itemsize // 4
    codes = np.ascontiguousarray(values, dtype=f"=U{width}").view(np.uint32)
    # sum of code[j] * POLY**(j+1), wrapping mod 2**64: a NUL adds nothing
    weights = np.array([pow(_POLY, j + 1, 1 << 64) for j in range(width)], dtype=_U64)
    return codes.reshape(len(values), width).astype(_U64) @ weights


def _positions(keys: np.ndarray, k: int, m: int) -> np.ndarray:
    """``(k, len(keys))`` positions: double hashing over splitmix64 halves."""
    h = keys.copy()
    h ^= h >> _U64(30)
    h *= _MIX1
    h ^= h >> _U64(27)
    h *= _MIX2
    h ^= h >> _U64(31)
    pos = (h & _U64(0xFFFFFFFF)) + np.arange(k, dtype=_U64)[:, None] * ((h >> _U64(32)) | _U64(1))
    # for a power of two, & is the same as % and cheaper
    return (pos % _U64(m) if m & (m - 1) else pos & _U64(m - 1)).view(np.intp)


@lru_cache(maxsize=4096)
def _probe_positions(kind: str, value, k: int, m: int) -> tuple[int, ...]:
    """One probe's positions (none for NaN), memoised across row groups."""
    keys = _keys(np.asarray([value]), kind)
    return tuple(_positions(keys, k, m)[:, 0].tolist()) if len(keys) else ()


class BloomFilter:
    """Fixed-size bitset of one value kind with k double-hashed probe
    positions per value."""

    __slots__ = ("m", "k", "kind", "bits")

    def __init__(self, m: int = DEFAULT_BITS, k: int = DEFAULT_HASHES,
                 bits: bytes | bytearray | None = None, kind: str = _NUMBER):
        self.m = int(m)
        self.k = int(k)
        self.kind = kind
        nbytes = (self.m + 7) // 8
        self.bits = bytearray(nbytes if bits is None else bits)
        if len(self.bits) != nbytes:
            raise ValueError(f"bloom bitset is {len(self.bits)} bytes, want {nbytes}")

    def might_contain(self, value) -> bool:
        """False is a proof that no value of this filter's kind equal to
        ``value`` was added; True means "cannot refute"."""
        kind = value_kind(value)
        if kind == _NUMBER:
            try:
                value = float(value)
            except OverflowError:  # an int past float64: never refuted
                return True
        elif kind != _TEXT:
            return True
        positions = _probe_positions(kind, value, self.k, self.m)
        if not positions:
            return True  # NaN
        return all(self.bits[pos >> 3] & (1 << (pos & 7)) for pos in positions)

    @property
    def load(self) -> float:
        """Fraction of bits set (refutation power decays as this grows)."""
        return int.from_bytes(self.bits, "little").bit_count() / self.m

    # persistence: a JSON doc, kept in the row group's header attrs
    def to_meta(self) -> dict:
        return {"hash": HASH_SCHEME, "kind": self.kind, "m": self.m, "k": self.k,
                "bits": bytes(self.bits).hex()}

    @classmethod
    def from_meta(cls, doc) -> "BloomFilter | None":
        """Parse a persisted filter, or None for a doc of another hash
        scheme or a corrupt one (pruning just proceeds without it)."""
        try:
            if doc["hash"] != HASH_SCHEME or doc["kind"] not in (_NUMBER, _TEXT):
                return None
            return cls(int(doc["m"]), int(doc["k"]), bytes.fromhex(doc["bits"]), doc["kind"])
        except (KeyError, TypeError, ValueError):
            return None

    @classmethod
    def build(cls, values: np.ndarray, m: int = DEFAULT_BITS,
              k: int = DEFAULT_HASHES) -> "BloomFilter | None":
        """Build over one segment column, or None for a column of no
        filter kind or one loading the bitset past :data:`MAX_LOAD` (the
        pruner then falls back to zone maps).  Rows are hashed m/k, 2m/k,
        ... then m at a time, and the first prefix past the bound ends it.
        """
        kind = _DTYPE_KINDS.get(values.dtype.kind)
        if kind is None:
            return None
        flags = np.zeros(m, dtype=bool)
        start, chunk = 0, max(1, m // k)
        while start < len(values):
            flags[_positions(_keys(values[start:start + chunk], kind), k, m).ravel()] = True
            if np.count_nonzero(flags) > MAX_LOAD * m:
                return None
            start, chunk = start + chunk, min(2 * chunk, m)
        return cls(m, k, np.packbits(flags, bitorder="little").tobytes(), kind)
