"""The deterministic mock LLM (GPT-4o substitute).

Dispatch protocol: the final user message carries a role directive and a
JSON payload::

    [[ROLE:sql]]
    ... natural-language context (retrieved docs, task text) ...
    [[PAYLOAD]]
    {"step_key": "...", "attempt": 0, "params": {...}}

Skills implemented: ``planner`` (question -> intent + plan JSON), ``sql``
(step params -> SQL), ``python`` / ``viz`` (step params -> code), ``qa``
(execution summary -> 1-100 score + feedback), ``doc`` (summary prose).

Generation errors are injected by :mod:`repro.llm.errors` per step and
attempt; the mock remembers which identifiers the previous error message
exposed (the repair loop), so error-guided retries converge exactly the
way the paper describes — usually quickly, occasionally exhausting the
revision budget when multiple corruptions pile up on semantically hard
questions.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field

import numpy as np

from repro.llm import codegen
from repro.llm.base import ChatMessage, ChatResponse, prompt_tokens_of
from repro.llm.errors import ErrorModel, choose_corruptions
from repro.llm.interpret import interpret_question
from repro.llm.plan import expand_intent, semantic_level
from repro.obs.names import LLM_CHAT_SPAN
from repro.obs.tracer import get_tracer
from repro.util.rngs import SeedSequenceFactory
from repro.util.tokens import count_tokens

_ROLE_RE = re.compile(r"\[\[ROLE:([a-z_]+)\]\]")
_PAYLOAD_RE = re.compile(r"\[\[PAYLOAD\]\]\s*(\{.*)\s*\Z", re.DOTALL)

# forms the viz-misselection mechanism swaps to (valid but inappropriate)
_MISSELECTION = {
    "paraview3d": "scatter",
    "umap": "scatter",
    "line": "hist",
    "scatter": "line",
    "hist": "line",
    "heatmap": "line",
}


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


@dataclass
class _StepMemory:
    last_corruptions: dict[str, str] = field(default_factory=dict)
    repaired: set[str] = field(default_factory=set)
    misuse_decided: bool = False
    misuse: bool = False
    viz_form: str | None = None
    concept_decided: bool = False
    concept_error: bool = False


class MockLLM:
    """Seeded rule/template chat model."""

    def __init__(
        self,
        seed: int = 0,
        error_model: ErrorModel | None = None,
        latency_per_call_s: float = 1.2,
        context_window: int = 128_000,
    ):
        self.seeds = SeedSequenceFactory(seed)
        self.error_model = error_model or ErrorModel()
        self.latency_per_call_s = latency_per_call_s
        self.context_window = context_window
        self.truncated_calls = 0
        self._memory: dict[str, _StepMemory] = {}
        self._calls = 0
        # the PRICE_TABLE entry every exchange is priced as
        self.model = DEFAULT_MODEL

    # ------------------------------------------------------------------
    def chat(self, messages: list[ChatMessage], role: str = "agent") -> ChatResponse:
        self._calls += 1
        # finite context: over-long conversations lose their oldest prefix,
        # exactly like a hosted model with a fixed window; the payload tail
        # (which carries the structured directive) always survives
        if prompt_tokens_of(messages) > self.context_window:
            self.truncated_calls += 1
            kept: list[ChatMessage] = [messages[-1]]
            budget = self.context_window - prompt_tokens_of(kept)
            for message in reversed(messages[:-1]):
                cost = prompt_tokens_of([message])
                if cost > budget:
                    break
                kept.insert(0, message)
                budget -= cost
            messages = kept
        last = messages[-1].content
        m = _ROLE_RE.search(last)
        skill = m.group(1) if m else role
        payload: dict = {}
        pm = _PAYLOAD_RE.search(last)
        if pm:
            payload = json.loads(pm.group(1))
        with get_tracer().span(LLM_CHAT_SPAN, skill=skill) as sp:
            handler = getattr(self, f"_skill_{skill}", None)
            if handler is None:
                completion = self._skill_doc(payload, last)
            else:
                completion = handler(payload, last)
            response = ChatResponse(
                content=completion,
                prompt_tokens=prompt_tokens_of(messages),
                completion_tokens=count_tokens(completion),
                latency_s=self.latency_per_call_s,
            )
            sp.set(
                prompt_tokens=response.prompt_tokens,
                completion_tokens=response.completion_tokens,
                latency_s=response.latency_s,
                cost_usd=price_of(self.model).cost(
                    response.prompt_tokens, response.completion_tokens
                ),
                model=self.model,
            )
        return response

    # ------------------------------------------------------------------
    # skills
    # ------------------------------------------------------------------
    def _skill_planner(self, payload: dict, prompt: str) -> str:
        question = payload["question"]
        intent = interpret_question(question)
        steps = expand_intent(intent)
        self._maybe_misresolve_metric(question, steps, semantic_level(intent))
        doc = {
            "reasoning": self._chain_of_thought(intent),
            "semantic_level": semantic_level(intent),
            "intent": intent.as_dict(),
            "steps": [
                {
                    "index": s.index,
                    "kind": s.kind,
                    "description": s.description,
                    "params": s.params,
                }
                for s in steps
            ],
        }
        return (
            "Here is my step-by-step analysis plan.\n```json\n"
            + json.dumps(doc, indent=1)
            + "\n```"
        )

    def _maybe_misresolve_metric(self, question: str, steps, level: int) -> None:
        """Inappropriate-analysis mechanism: the plan consistently resolves
        the question onto a plausible-but-wrong metric column (valid code,
        off-target output — §4.1.2)."""
        from repro.llm.errors import WRONG_METRIC_MAP

        rng = self.seeds.stream("wrongmetric", question)
        if rng.uniform() >= self.error_model.scaled_wrong_metric_rate(level):
            return
        # find the dominant metric across analysis steps and swap it
        target = None
        for s in steps:
            metric = s.params.get("metric")
            if s.kind == "python" and metric in WRONG_METRIC_MAP:
                target = metric
                break
        if target is None:
            return
        wrong = WRONG_METRIC_MAP[target]
        for s in steps:
            params = s.params
            if params.get("metric") == target:
                params["metric"] = wrong
            if params.get("rank_metric") == target:
                params["rank_metric"] = wrong
            source = params.get("source")
            if isinstance(source, str) and target in source:
                params["source"] = source.replace(target, wrong)
            cols = params.get("columns")
            if isinstance(cols, list) and target in cols and wrong not in cols:
                cols.append(wrong)
            if isinstance(cols, dict):
                for col_list in cols.values():
                    if target in col_list and wrong not in col_list:
                        col_list.append(wrong)

    def _chain_of_thought(self, intent) -> str:
        parts = [f"The question targets {', '.join(intent.entities)}."]
        if intent.runs is None:
            parts.append("It spans all simulations in the ensemble.")
        else:
            parts.append(f"It is scoped to simulation(s) {intent.runs}.")
        if intent.steps is None:
            parts.append("All timesteps are involved.")
        if intent.analyses:
            parts.append(f"Required analyses: {', '.join(intent.analyses)}.")
        if intent.viz:
            parts.append(f"Requested visualizations: {', '.join(intent.viz)}.")
        if intent.ambiguous:
            parts.append(
                "The question is ambiguous; multiple analytical strategies are valid."
            )
        return " ".join(parts)

    # ------------------------------------------------------------------
    def _mem(self, payload: dict) -> _StepMemory:
        key = payload.get("step_key", "anon")
        return self._memory.setdefault(key, _StepMemory())

    def _corruptions(
        self, payload: dict, columns: list[str], allow_concept: bool = True
    ) -> dict[str, str]:
        mem = self._mem(payload)
        attempt = int(payload.get("attempt", 0))
        level = int(payload.get("semantic_level", 0))
        if attempt > 0 and mem.last_corruptions:
            # the agent has fed the error message back: identifiers exposed
            # by the error are now 'repaired' context
            mem.repaired.update(mem.last_corruptions)
            mem.last_corruptions = {}
        rng = self.seeds.stream("corrupt", payload.get("step_key", ""), attempt)
        corruptions = choose_corruptions(
            columns, rng, self.error_model, level, already_repaired=mem.repaired
        )
        # conceptual misunderstanding: a repair-resistant wrong column
        # mapping (semantically hard questions re-derive the same mistake);
        # only analysis code is affected — SQL filtering is concept-free
        if allow_concept and not mem.concept_decided:
            mem.concept_decided = True
            crng = self.seeds.stream("concept", payload.get("step_key", ""))
            mem.concept_error = bool(crng.uniform() < self.error_model.concept_rate(level))
        if mem.concept_error and columns:
            prng = self.seeds.stream("persist", payload.get("step_key", ""), attempt)
            if attempt == 0 or prng.uniform() < self.error_model.concept_persistence:
                from repro.llm.errors import corrupt_column_name

                target = columns[0]
                corruptions[target] = corrupt_column_name(
                    target, self.seeds.stream("conceptname", payload.get("step_key", ""))
                )
        mem.last_corruptions = dict(corruptions)
        return corruptions

    def _skill_sql(self, payload: dict, prompt: str) -> str:
        params = payload["params"]
        corruptions = self._corruptions(
            payload, list(params.get("columns", [])), allow_concept=False
        )
        sql = codegen.generate_sql(params, corruptions)
        return f"```sql\n{sql}\n```"

    def _skill_python(self, payload: dict, prompt: str) -> str:
        params = dict(payload["params"])
        mem = self._mem(payload)
        # tool-misuse mechanism: decided once per step, never self-corrected
        if (
            params.get("op") == "track_evolution"
            and params.get("tracking_kind", "characteristic") == "characteristic"
            and not mem.misuse_decided
        ):
            rng = self.seeds.stream("misuse", payload.get("step_key", ""))
            mem.misuse_decided = True
            mem.misuse = bool(rng.uniform() < self.error_model.tool_misuse_rate)
        if mem.misuse:
            params["misuse_position_tool"] = True
        columns = _referenced_columns(params)
        corruptions = self._corruptions(payload, columns)
        code = codegen.generate_python(params, corruptions)
        return f"```python\n{code}\n```"

    def _skill_viz(self, payload: dict, prompt: str) -> str:
        params = dict(payload["params"])
        mem = self._mem(payload)
        if mem.viz_form is None:
            rng = self.seeds.stream("vizform", payload.get("step_key", ""))
            form = params.get("form", "line")
            if rng.uniform() < self.error_model.viz_misselection_rate:
                form = _MISSELECTION.get(form, form)
            mem.viz_form = form
        params["form"] = mem.viz_form
        columns = _referenced_columns(params)
        corruptions = self._corruptions(payload, columns)
        code = codegen.generate_viz(params, corruptions)
        header = json.dumps({"form": mem.viz_form})
        return f"{header}\n```python\n{code}\n```"

    def _skill_qa(self, payload: dict, prompt: str) -> str:
        """Nuanced 1-100 quality score (binary mode for the ablation)."""
        rng = self.seeds.stream("qa", payload.get("step_key", ""), payload.get("attempt", 0))
        has_error = bool(payload.get("error"))
        rows = int(payload.get("result_rows", 0))
        mode = payload.get("mode", "score")
        if has_error:
            score = int(rng.integers(5, 25))
            feedback = _repair_feedback(payload.get("error", ""))
        elif rows == 0 and payload.get("expects_rows", True):
            score = int(rng.integers(20, 45))
            feedback = "The result is empty; revisit the filtering conditions."
        else:
            # the paper: nuanced scoring lowers false negatives vs binary
            score = int(np.clip(rng.normal(82, 9), 35, 100))
            feedback = "Output satisfies the delegated task."
        if mode == "binary":
            # rigid correct/incorrect judgment: prone to false negatives
            correct = (not has_error) and rows > 0 and rng.uniform() > 0.22
            return json.dumps({"correct": bool(correct), "feedback": feedback})
        return json.dumps({"score": score, "feedback": feedback})

    def _skill_doc(self, payload: dict, prompt: str) -> str:
        steps = payload.get("completed_steps", [])
        lines = ["Workflow summary:"]
        for s in steps:
            lines.append(f"- Step {s.get('index')}: {s.get('description')} -> {s.get('status')}")
        lines.append(
            f"{sum(1 for s in steps if s.get('status') == 'ok')} of {len(steps)} steps succeeded."
        )
        return "\n".join(lines)

    def _skill_supervisor(self, payload: dict, prompt: str) -> str:
        """Route decision: which agent handles the next plan step."""
        kind = payload.get("next_kind", "python")
        agent = {
            "load": "data_loader",
            "sql": "sql_programmer",
            "python": "python_programmer",
            "viz": "visualization",
        }.get(kind, "python_programmer")
        return json.dumps({"delegate_to": agent, "reason": f"step kind is {kind}"})


def _referenced_columns(params: dict) -> list[str]:
    """Column names a code template will interpolate (corruption targets)."""
    cols: list[str] = []
    for key in ("metric", "x", "y", "x_column", "y_column", "rank_metric"):
        v = params.get(key)
        if isinstance(v, str) and "_" in v:
            cols.append(v)
    for v in params.get("columns", []) or []:
        if isinstance(v, str):
            cols.append(v)
    return list(dict.fromkeys(cols))


def _repair_feedback(error: str) -> str:
    return (
        "Execution failed. Use the exact column names listed in the error "
        f"message when regenerating the code. Error was: {error[:400]}"
    )
