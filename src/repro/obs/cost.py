"""Per-session cost ledger: metered LLM spend, attributed and budgeted.

The paper's §4.5 measures token growth per redo iteration and per
difficulty tier — until now the reproduction recovered those numbers
post-hoc from ``llm.chat`` spans.  This module meters them at the source:
every :class:`~repro.llm.mock.MockLLM` exchange calls
:func:`record_llm_call`, which charges the ambient :class:`CostLedger`
with prompt/completion tokens (via :mod:`repro.util.tokens`) priced
against :data:`PRICE_TABLE`, attributed to whatever the enclosing
:func:`cost_attribution` scopes declared: session, agent, graph node,
redo attempt, difficulty tier.

Ledgers are mergeable like metrics snapshots (associative entry-wise
addition), so the harness folds per-cell worker ledgers into one suite
ledger exactly the way it folds metrics.  Budgets are enforced at the
agent boundary: :meth:`CostLedger.check_budget` raises
:class:`~repro.resilience.BudgetExceeded` — a classified
``ResilienceError`` — once total tokens cross
``InferAConfig.token_budget``, so a blown budget degrades into a
classified session failure instead of unbounded redo growth.

Both the attribution scopes *and* the active ledger use contextvars
(per-thread/per-context isolation, exactly like the tracer): two
sessions interleaving in one process — the serving layer runs one per
worker thread — each charge their own ledger, and neither's attribution
leaks into the other's entries.  Threads spawned *inside* a session
(parallel viz) re-apply the session's ledger and scopes explicitly,
mirroring how they re-activate the tracer.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Any, Iterator

# ----------------------------------------------------------------------
# prices
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ModelPrice:
    """USD per 1000 tokens, split by direction like hosted chat APIs."""

    prompt_usd_per_1k: float
    completion_usd_per_1k: float

    def cost(self, prompt_tokens: int, completion_tokens: int) -> float:
        return (
            prompt_tokens * self.prompt_usd_per_1k
            + completion_tokens * self.completion_usd_per_1k
        ) / 1000.0


# offline stand-ins priced like the hosted models they mock, so relative
# cost orderings (and the §4.5 growth curve in USD) are meaningful
PRICE_TABLE: dict[str, ModelPrice] = {
    "mock-gpt-4o": ModelPrice(0.0025, 0.010),
    "mock-gpt-4o-mini": ModelPrice(0.00015, 0.0006),
}
DEFAULT_MODEL = "mock-gpt-4o"


def price_of(model: str) -> ModelPrice:
    return PRICE_TABLE.get(model, PRICE_TABLE[DEFAULT_MODEL])


# ----------------------------------------------------------------------
# ledger entries
# ----------------------------------------------------------------------
# attribution key order; every entry carries all of them ("" when the
# enclosing scopes didn't declare one)
KEY_FIELDS = ("session", "agent", "node", "attempt", "level")


@dataclass
class CostEntry:
    """Accumulated spend for one attribution key."""

    calls: int = 0
    prompt_tokens: int = 0
    completion_tokens: int = 0
    cost_usd: float = 0.0

    @property
    def total_tokens(self) -> int:
        return self.prompt_tokens + self.completion_tokens

    def add(self, prompt_tokens: int, completion_tokens: int, cost_usd: float) -> None:
        self.calls += 1
        self.prompt_tokens += prompt_tokens
        self.completion_tokens += completion_tokens
        self.cost_usd += cost_usd

    def merge(self, other: "CostEntry") -> None:
        self.calls += other.calls
        self.prompt_tokens += other.prompt_tokens
        self.completion_tokens += other.completion_tokens
        self.cost_usd += other.cost_usd

    def as_dict(self) -> dict[str, Any]:
        return {
            "calls": self.calls,
            "prompt_tokens": self.prompt_tokens,
            "completion_tokens": self.completion_tokens,
            "total_tokens": self.total_tokens,
            "cost_usd": self.cost_usd,
        }


class CostLedger:
    """Mergeable per-attribution-key spend, with an optional hard budget.

    Keys are ``(session, agent, node, attempt, level)`` tuples; totals
    are always derivable as the sum of entries, which is the invariant
    the harness acceptance test pins (ledger totals == Σ per-node
    entries across redo attempts).
    """

    def __init__(self, token_budget: int | None = None):
        self.token_budget = token_budget
        self._lock = threading.Lock()
        self.entries: dict[tuple[str, ...], CostEntry] = {}

    # -- recording -----------------------------------------------------
    def record(
        self,
        prompt_tokens: int,
        completion_tokens: int,
        model: str = DEFAULT_MODEL,
        **attribution: Any,
    ) -> float:
        """Charge one LLM exchange; returns its USD cost."""
        cost_usd = price_of(model).cost(prompt_tokens, completion_tokens)
        key = tuple(str(attribution.get(f, "")) for f in KEY_FIELDS)
        with self._lock:
            entry = self.entries.get(key)
            if entry is None:
                entry = self.entries[key] = CostEntry()
            entry.add(prompt_tokens, completion_tokens, cost_usd)
        return cost_usd

    # -- totals --------------------------------------------------------
    def total_tokens(self) -> int:
        with self._lock:
            return sum(e.total_tokens for e in self.entries.values())

    def total_cost_usd(self) -> float:
        with self._lock:
            return sum(e.cost_usd for e in self.entries.values())

    def total_calls(self) -> int:
        with self._lock:
            return sum(e.calls for e in self.entries.values())

    # -- budget --------------------------------------------------------
    def check_budget(self) -> None:
        """Raise :class:`~repro.resilience.BudgetExceeded` once spend crosses the budget."""
        budget = self.token_budget
        if budget is None:
            return
        spent = self.total_tokens()
        if spent > budget:
            # imported where it is raised: repro.resilience imports
            # repro.obs (for the metrics registry), so a module-level
            # import here makes whichever of the two loads first fail
            from repro.resilience import BudgetExceeded

            raise BudgetExceeded(
                f"token budget exceeded: {spent} tokens spent of {budget} budgeted"
            )

    # -- merge / serialize --------------------------------------------
    def merge(self, other: "CostLedger | dict[str, Any]") -> "CostLedger":
        doc = other.as_dict() if isinstance(other, CostLedger) else other
        for entry_doc in doc.get("entries", []):
            key = tuple(str(entry_doc.get(f, "")) for f in KEY_FIELDS)
            incoming = CostEntry(
                calls=int(entry_doc.get("calls", 0)),
                prompt_tokens=int(entry_doc.get("prompt_tokens", 0)),
                completion_tokens=int(entry_doc.get("completion_tokens", 0)),
                cost_usd=float(entry_doc.get("cost_usd", 0.0)),
            )
            with self._lock:
                mine = self.entries.get(key)
                if mine is None:
                    mine = self.entries[key] = CostEntry()
                mine.merge(incoming)
        return self

    def as_dict(self) -> dict[str, Any]:
        """Plain-dict view: sorted entries plus derived totals (JSON-able,
        picklable, mergeable via :meth:`merge`)."""
        with self._lock:
            entries = [
                dict(zip(KEY_FIELDS, key)) | entry.as_dict()
                for key, entry in sorted(self.entries.items())
            ]
        return {
            "entries": entries,
            "totals": {
                "calls": sum(e["calls"] for e in entries),
                "prompt_tokens": sum(e["prompt_tokens"] for e in entries),
                "completion_tokens": sum(e["completion_tokens"] for e in entries),
                "total_tokens": sum(e["total_tokens"] for e in entries),
                "cost_usd": sum(e["cost_usd"] for e in entries),
            },
            "token_budget": self.token_budget,
        }

    @classmethod
    def from_dict(cls, doc: dict[str, Any]) -> "CostLedger":
        ledger = cls(token_budget=doc.get("token_budget"))
        ledger.merge(doc)
        return ledger

    # -- analysis ------------------------------------------------------
    def growth_curve(self) -> dict[str, dict[int, int]]:
        """Tokens per redo attempt, grouped by difficulty tier (§4.5).

        Returns ``{level: {attempt: total_tokens}}``; entries whose
        scopes never declared a level land under ``"?"``.
        """
        curve: dict[str, dict[int, int]] = {}
        with self._lock:
            items = list(self.entries.items())
        for key, entry in items:
            fields = dict(zip(KEY_FIELDS, key))
            level = fields["level"] or "?"
            try:
                attempt = int(fields["attempt"] or 0)
            except ValueError:
                attempt = 0
            tier = curve.setdefault(level, {})
            tier[attempt] = tier.get(attempt, 0) + entry.total_tokens
        return {level: dict(sorted(tier.items())) for level, tier in sorted(curve.items())}

    def by_field(self, field_name: str) -> dict[str, CostEntry]:
        """Entries folded down to one attribution field (e.g. ``agent``)."""
        if field_name not in KEY_FIELDS:
            raise ValueError(f"unknown attribution field {field_name!r}")
        idx = KEY_FIELDS.index(field_name)
        out: dict[str, CostEntry] = {}
        with self._lock:
            items = list(self.entries.items())
        for key, entry in items:
            bucket = out.setdefault(key[idx] or "?", CostEntry())
            bucket.merge(entry)
        return dict(sorted(out.items()))


# ----------------------------------------------------------------------
# the ambient ledger + attribution scopes
# ----------------------------------------------------------------------
# contextvar rather than a module global: the serving layer runs several
# sessions concurrently on worker threads, and a process-wide ledger
# would let interleaved requests charge each other's sessions.  Threads
# a session spawns itself (parallel viz) re-apply the ledger explicitly
# alongside the tracer and attribution scopes.
_AMBIENT: ContextVar[CostLedger | None] = ContextVar("repro_cost_ledger", default=None)

# immutable attribution dict; contextvar so concurrent sessions/threads
# carry independent scopes (worker threads re-apply theirs explicitly,
# exactly like they re-activate the tracer)
_ATTRIBUTION: ContextVar[dict[str, Any]] = ContextVar("repro_cost_attribution", default={})


def get_ledger() -> CostLedger | None:
    """The context's active cost ledger, or None when cost is unmetered."""
    return _AMBIENT.get()


@contextmanager
def use_ledger(ledger: CostLedger) -> Iterator[CostLedger]:
    """Activate ``ledger`` for the extent of the block (this context only).

    Context-scoped like the tracer, so concurrently-served sessions meter
    independently; nesting restores the previous ledger on exit.  Threads
    spawned within the block must re-apply the ledger themselves (the
    parallel-viz pool does, next to its tracer re-activation).
    """
    token = _AMBIENT.set(ledger)
    try:
        yield ledger
    finally:
        _AMBIENT.reset(token)


def _reset_ambient() -> None:
    # the forked child's main thread continues in the inherited context;
    # clearing the value there unmeters it until it builds its own ledger
    _AMBIENT.set(None)


import os  # noqa: E402  (keeps the fork hook next to its rationale)

if hasattr(os, "register_at_fork"):
    # forked harness workers build their own per-cell ledger and ship it
    # back with the RunOutcome; charging the inherited parent ledger too
    # would double-count every call after the suite merge
    os.register_at_fork(after_in_child=_reset_ambient)


@contextmanager
def cost_attribution(**fields: Any) -> Iterator[dict[str, Any]]:
    """Layer attribution fields onto LLM charges made within the block.

    Scopes nest and override per field: the app session sets ``session``,
    the graph sets ``node``, the supervisor sets ``attempt``/``level``,
    agents set ``agent`` — an ``llm.chat`` inside all four is charged
    with the full key.
    """
    merged = {**_ATTRIBUTION.get(), **fields}
    token = _ATTRIBUTION.set(merged)
    try:
        yield merged
    finally:
        _ATTRIBUTION.reset(token)


def current_attribution() -> dict[str, Any]:
    return dict(_ATTRIBUTION.get())


def record_llm_call(
    prompt_tokens: int,
    completion_tokens: int,
    model: str = DEFAULT_MODEL,
    **extra: Any,
) -> float | None:
    """Charge the ambient ledger for one LLM exchange.

    Returns the USD cost, or None when no ledger is active (unmetered
    runs pay one global read).  Attribution comes from the enclosing
    :func:`cost_attribution` scopes, overridable via ``extra``.
    """
    ledger = _AMBIENT.get()
    if ledger is None:
        return None
    attribution = {**_ATTRIBUTION.get(), **extra}
    return ledger.record(prompt_tokens, completion_tokens, model, **attribution)
