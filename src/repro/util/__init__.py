"""Shared low-level utilities: tokenization, RNG streams, timing, logging."""

from repro.util.tokens import count_tokens, tokenize, TokenMeter
from repro.util.rngs import SeedSequenceFactory, derive_seed
from repro.util.timing import WallClock, SimulatedClock
from repro.util.text import normalize_ws, snake_words, levenshtein

__all__ = [
    "count_tokens",
    "tokenize",
    "TokenMeter",
    "SeedSequenceFactory",
    "derive_seed",
    "WallClock",
    "SimulatedClock",
    "normalize_ws",
    "snake_words",
    "levenshtein",
]
