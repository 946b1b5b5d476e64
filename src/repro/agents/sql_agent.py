"""SQL programming agent.

"an SQL programming agent performs additional filtering through generated
SQL queries, evaluating whether all loaded columns and rows are necessary
for immediate computation."

Each attempt asks the model for SQL (the model may typo column names),
executes it against the analysis database, and reports either the result
frame or the database's detailed error, which the supervisor's QA loop
feeds back into the next attempt.
"""

from __future__ import annotations

from repro.agents.base import CodeAgent, StepOutcome
from repro.db.errors import DBError
from repro.frame import Frame


class SQLProgrammingAgent(CodeAgent):
    role = "sql"
    language = "sql"

    def _run(self, step: dict, code: str, tables: dict[str, Frame], reply: str) -> StepOutcome:
        params = step["params"]
        statement = code
        try:
            result = self.context.db.query(statement)
            published = {"work": result}
            for entity in params.get("secondary", []):
                statement = self._secondary_sql(params, entity)
                published[f"work_{entity}"] = self.context.db.query(statement)
        except DBError as exc:
            return StepOutcome.failure(statement, type(exc).__name__, str(exc), "sql")
        self.context.provenance.record_result(step["index"], result, "sql_result")
        return StepOutcome(ok=True, code=code, result=result, tables=published, op="sql")

    def _secondary_sql(self, params: dict, entity: str) -> str:
        """Deterministic companion query for the secondary entity table."""
        cols = params.get("secondary_columns", {}).get(entity, [])
        select = ", ".join(dict.fromkeys(["run", "step", *cols])) if cols else "*"
        clauses = []
        runs = params.get("runs")
        if runs is not None:
            clauses.append(
                f"run = {runs[0]}" if len(runs) == 1 else f"run IN ({', '.join(map(str, runs))})"
            )
        steps = params.get("steps")
        if steps is not None:
            clauses.append(
                f"step = {steps[0]}" if len(steps) == 1 else f"step IN ({', '.join(map(str, steps))})"
            )
        where = f" WHERE {' AND '.join(clauses)}" if clauses else ""
        return f"SELECT {select} FROM {entity}{where}"
