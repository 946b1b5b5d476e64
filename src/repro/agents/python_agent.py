"""Python programming agent.

Requests analysis code from the model for its delegated step, executes it
in the sandbox on the current working tables, and reports the structured
outcome.  The agent never interprets the science itself — that division
(generation here, verification in QA, orchestration in the supervisor) is
the paper's architecture.
"""

from __future__ import annotations

from repro.agents.base import CodeAgent, StepOutcome
from repro.frame import Frame


class PythonProgrammingAgent(CodeAgent):
    role = "python"

    def _extra_context(self, step: dict) -> str:
        retrieval = self.context.retriever.retrieve(
            query=step["description"], task=str(step["params"].get("op", ""))
        )
        return "\nRelevant columns:\n" + "\n".join(d.text for d in retrieval.documents[:10])

    def _run(self, step: dict, code: str, tables: dict[str, Frame], reply: str) -> StepOutcome:
        op = step["params"].get("op", "")
        execution = self.context.sandbox.execute(code, tables)
        if not execution.ok:
            return StepOutcome.failure(code, execution.error_type, execution.error_message, op)
        published = dict(execution.tables)
        result = execution.result
        if result is not None:
            # the ops whose result later steps read by name
            if op == "top_k_per_cell":
                published["work"] = result
            elif op == "aggregate":
                published["aggregated"] = result
            elif op == "track_evolution":
                published[f"track_{step['params'].get('metric', 'metric')}"] = result
            self.context.provenance.record_result(step["index"], result)
        return StepOutcome(ok=True, code=code, result=result, tables=published, op=op)
