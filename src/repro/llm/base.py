"""Chat-model interface shared by the mock model and the agents.

Kept deliberately close to hosted chat APIs (list-of-messages in,
completion + usage out) so the agent layer would work unchanged against a
real endpoint.
"""

from __future__ import annotations

import json
import re
import threading
from dataclasses import dataclass, field
from typing import Protocol

from repro.util.tokens import count_tokens


@dataclass(frozen=True)
class ChatMessage:
    role: str      # 'system' | 'user' | 'assistant'
    content: str


@dataclass
class ChatResponse:
    content: str
    prompt_tokens: int
    completion_tokens: int
    latency_s: float = 0.0

    @property
    def total_tokens(self) -> int:
        return self.prompt_tokens + self.completion_tokens

    def json(self) -> dict:
        """Parse the completion as JSON (tolerating a fenced block)."""
        return extract_json(self.content)


class ChatModel(Protocol):
    """Anything that can complete a chat conversation."""

    def chat(self, messages: list[ChatMessage], role: str = "agent") -> ChatResponse:
        """Complete the conversation; ``role`` labels usage accounting."""
        ...


@dataclass
class MeteredModel:
    """Decorator summing the tokens every exchange reports (the session's
    Table 2 "Token Usage" and the number its token budget is checked on)."""

    inner: ChatModel
    tokens: int = 0
    # parallel-viz attempts chat from pool threads
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def chat(self, messages: list[ChatMessage], role: str = "agent") -> ChatResponse:
        response = self.inner.chat(messages, role)
        with self._lock:
            self.tokens += response.total_tokens
        return response


_JSON_FENCE_RE = re.compile(r"```(?:json)?\s*(.*?)```", re.DOTALL)


def extract_json(text: str) -> dict:
    """Pull the first JSON object out of a completion.

    Handles bare JSON, fenced blocks, and leading prose — the same
    tolerant parsing real agent frameworks need.
    """
    candidates = [text]
    fence = _JSON_FENCE_RE.search(text)
    if fence:
        candidates.insert(0, fence.group(1))
    brace = text.find("{")
    if brace >= 0:
        candidates.append(text[brace:])
    for cand in candidates:
        try:
            doc = json.loads(cand)
            if isinstance(doc, dict):
                return doc
        except json.JSONDecodeError:
            continue
    raise ValueError(f"no JSON object found in completion: {text[:200]!r}")


def prompt_tokens_of(messages: list[ChatMessage]) -> int:
    return sum(count_tokens(m.content) for m in messages)
