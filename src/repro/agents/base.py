"""Shared agent infrastructure.

:class:`AgentContext` bundles everything an agent needs — the metered
chat model, the column retriever, the analysis database, the sandbox
client, the provenance tracker and the run configuration — so agents stay
stateless and testable.

§4.2.5: "each agent operates with limited context awareness, receiving
only its delegated task without knowledge of upstream processes."
:meth:`AgentContext.chat` implements exactly that; the full-history mode
(``limited_context=False``) exists for the token-cost ablation.

:class:`StepOutcome` and :class:`CodeAgent` are the step protocol: what
one attempt at a code-generating plan step returns, and the one attempt
skeleton (prompt, chat, extract the fence, record, run) the SQL, Python
and visualization agents share.  The supervisor's judge turns an outcome
plus a QA verdict into pass, redo or fail.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from typing import Any

from repro.db import Database
from repro.frame import Frame
from repro.llm.base import ChatMessage, ChatResponse, MeteredModel
from repro.obs.cost import get_ledger
from repro.obs.metrics import get_registry
from repro.obs.tracer import Tracer
from repro.provenance import ProvenanceTracker
from repro.rag import ColumnRetriever
from repro.sandbox.client import InProcessClient


@dataclass
class AgentContext:
    llm: MeteredModel
    retriever: ColumnRetriever
    db: Database
    sandbox: InProcessClient
    provenance: ProvenanceTracker
    limited_context: bool = True
    message_log: list[str] = field(default_factory=list)
    simulated_latency_s: float = 0.0
    # tracing is always on: a private tracer is created when the caller
    # (normally InferA.run_query) does not supply the session's
    tracer: Tracer = field(default_factory=Tracer)

    def chat(
        self,
        role: str,
        payload: dict[str, Any],
        context_text: str = "",
        step_index: int | None = None,
    ) -> ChatResponse:
        """Send one role-directed exchange to the model, metered and logged."""
        parts = [f"[[ROLE:{role}]]"]
        if not self.limited_context and self.message_log:
            parts.append("Conversation so far:\n" + "\n".join(self.message_log))
        if context_text:
            parts.append(context_text)
        parts.append("[[PAYLOAD]]\n" + json.dumps(payload))
        prompt = "\n\n".join(parts)
        response = self.llm.chat([ChatMessage("user", prompt)], role=role)
        self.simulated_latency_s += response.latency_s
        registry = get_registry()
        registry.counter("llm.calls").inc()
        registry.counter("llm.prompt_tokens").inc(response.prompt_tokens)
        registry.counter("llm.completion_tokens").inc(response.completion_tokens)
        self.message_log.append(f"[{role}] {response.content[:400]}")
        self.provenance.record_llm_exchange(
            role, response.prompt_tokens, response.completion_tokens, step_index
        )
        # hard token budget: checked at the agent boundary so a blown
        # budget surfaces as a classified BudgetExceeded (handled like any
        # resilience failure) instead of funding another redo iteration
        ledger = get_ledger()
        if ledger is not None:
            ledger.check_budget()
        return response

    @property
    def total_tokens(self) -> int:
        return self.llm.meter.total


@dataclass
class StepOutcome:
    """What one attempt at a code-generating step produced."""

    ok: bool
    code: str                   # what ran (the failing companion query, for SQL)
    error: str = ""             # "<Type>: <message>", fed to QA and the next attempt
    result: Frame | None = None
    # what the attempt publishes into the session's working tables
    tables: dict[str, Frame] = field(default_factory=dict)
    op: str = ""                # 'sql' | the Python step's op | 'viz'
    form_used: str = ""         # chart form the model actually chose
    svg: str = ""

    @classmethod
    def failure(cls, code: str, error_type: str, message: str, op: str) -> "StepOutcome":
        return cls(ok=False, code=code, error=f"{error_type}: {message}", op=op)

    @property
    def rows(self) -> int:
        return self.result.num_rows if self.result is not None else 0

    @property
    def columns(self) -> list[str]:
        return self.result.columns if self.result is not None else []


class CodeAgent:
    """One attempt at a plan step: ask for code, record it, run it.

    Subclasses set the chat ``role`` and the fence ``language`` and say
    how the code runs (:meth:`_run`); the prompt, the payload's key order
    and the provenance record are the same for all of them, which is what
    keeps ``llm.tokens`` and the trail's bytes a function of the step
    alone.
    """

    role: str
    language = "python"

    def __init__(self, context: AgentContext):
        self.context = context

    def run_step(
        self,
        step: dict,
        tables: dict[str, Frame],
        step_key: str,
        attempt: int,
        semantic_level: int,
        previous_error: str = "",
    ) -> StepOutcome:
        context_text = step["description"]
        if previous_error:
            context_text += f"\nThe previous attempt failed: {previous_error}"
        context_text += self._extra_context(step)
        reply = self.context.chat(
            self.role,
            {
                "step_key": step_key,
                "attempt": attempt,
                "semantic_level": semantic_level,
                "params": step["params"],
            },
            context_text=context_text,
            step_index=step["index"],
        ).content
        fence = re.search(rf"```{self.language}\s*(.*?)```", reply, re.DOTALL)
        code = (fence.group(1) if fence else reply).strip()
        self.context.provenance.record_code(
            step["index"], code, language=self.language, attempt=attempt
        )
        return self._run(step, code, tables, reply)

    def _extra_context(self, step: dict) -> str:
        """Prompt text after the description and the previous-error line."""
        return ""

    def _run(self, step: dict, code: str, tables: dict[str, Frame], reply: str) -> StepOutcome:
        raise NotImplementedError
