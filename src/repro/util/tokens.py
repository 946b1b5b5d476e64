"""Approximate tokenizer and token accounting.

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
from dataclasses import dataclass, field

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


@dataclass
class TokenMeter:
    """Accumulates prompt/completion token usage across LLM invocations.

    Mirrors the usage object returned by hosted chat APIs; the evaluation
    harness reads ``total`` for the Table 2 "Token Usage" column.
    """

    prompt_tokens: int = 0
    completion_tokens: int = 0
    invocations: int = 0
    per_role: dict[str, int] = field(default_factory=dict)

    @property
    def total(self) -> int:
        return self.prompt_tokens + self.completion_tokens

    def record(self, prompt: str, completion: str, role: str = "unknown") -> None:
        """Charge one invocation with the given prompt and completion text."""
        p = count_tokens(prompt)
        c = count_tokens(completion)
        self.prompt_tokens += p
        self.completion_tokens += c
        self.invocations += 1
        self.per_role[role] = self.per_role.get(role, 0) + p + c

    def merge(self, other: "TokenMeter") -> None:
        """Fold another meter's counts into this one."""
        self.prompt_tokens += other.prompt_tokens
        self.completion_tokens += other.completion_tokens
        self.invocations += other.invocations
        for role, n in other.per_role.items():
            self.per_role[role] = self.per_role.get(role, 0) + n

    def snapshot(self) -> dict[str, int]:
        """Return a plain-dict view suitable for provenance records."""
        return {
            "prompt_tokens": self.prompt_tokens,
            "completion_tokens": self.completion_tokens,
            "total_tokens": self.total,
            "invocations": self.invocations,
        }
