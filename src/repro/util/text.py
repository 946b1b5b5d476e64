"""Small text helpers shared by the RAG layer, the mock LLM and run naming."""

from __future__ import annotations

import re

_WS_RE = re.compile(r"\s+")


def normalize_ws(text: str) -> str:
    """Collapse runs of whitespace to single spaces and strip the ends."""
    return _WS_RE.sub(" ", text).strip()


def slug(text: str, max_len: int = 24) -> str:
    """``"How many?"`` -> ``how_many``: a run name; ``q`` if nothing is left."""
    return re.sub(r"[^a-z0-9]+", "_", text.lower()).strip("_")[:max_len] or "q"


def snake_words(identifier: str) -> list[str]:
    """Split a snake_case or camelCase identifier into lowercase words.

    HACC column labels like ``sod_halo_MGas500c`` become
    ``['sod', 'halo', 'm', 'gas500c']`` — the unit the embedder and the
    error-injection typo model operate on.
    """
    parts: list[str] = []
    for chunk in identifier.split("_"):
        if not chunk:
            continue
        for sub in re.findall(r"[A-Z]+(?![a-z])|[A-Z]?[a-z0-9]+|[0-9]+", chunk):
            parts.append(sub.lower())
    return parts


def levenshtein(a: str, b: str) -> int:
    """Edit distance; used to score near-miss column names in QA repair."""
    if a == b:
        return 0
    if not a:
        return len(b)
    if not b:
        return len(a)
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        cur = [i]
        for j, cb in enumerate(b, start=1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (ca != cb)))
        prev = cur
    return prev[-1]


def best_match(needle: str, haystack: list[str]) -> tuple[str | None, int]:
    """Return the closest string in ``haystack`` and its edit distance."""
    best: str | None = None
    best_d = 1 << 30
    for cand in haystack:
        d = levenshtein(needle, cand)
        if d < best_d:
            best, best_d = cand, d
    return best, best_d
