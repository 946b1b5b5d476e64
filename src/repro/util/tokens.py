"""Approximate tokenizer.

The real system bills tokens against OpenAI's BPE vocabulary.  Offline we
approximate with a deterministic word-piece scheme that matches GPT-style
tokenizers to within ~10% on English/code text: words are split on
whitespace and punctuation boundaries, long words are divided into 4-char
pieces, and runs of digits count one token per 3 digits.  What matters for
the reproduction is that token counts are monotone in text length and
stable across runs, so the Table 2 token-usage orderings are meaningful.
"""

from __future__ import annotations

import re

# Average characters per BPE token for alphabetic words; GPT-4-family
# tokenizers average ~4 chars/token on English prose.
_CHARS_PER_PIECE = 4
_DIGITS_PER_PIECE = 3

# greedy bounded repeats cut a run left to right into full-size pieces
# plus a shorter tail; any other non-space character is its own piece
_PIECE_RE = re.compile(
    rf"[A-Za-z_]{{1,{_CHARS_PER_PIECE}}}|\d{{1,{_DIGITS_PER_PIECE}}}|[^\sA-Za-z\d]"
)


def tokenize(text: str) -> list[str]:
    """Split ``text`` into approximate BPE-like token pieces.

    Deterministic and allocation-light; used both for counting and for the
    RAG chunker's 80-token document limit.
    """
    return _PIECE_RE.findall(text)


def count_tokens(text: str) -> int:
    """Return the approximate token count of ``text``."""
    return len(tokenize(text))
