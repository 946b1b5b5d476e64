"""Visualization agent.

Same generate-execute contract as the Python agent, but the code must
produce a ``figure`` (SVG Figure or 3D Scene).  The agent records the
rendered figure in provenance and reports which chart form the model
actually chose — the evaluation's visualization-appropriateness oracle
compares that against the plan's intended form.
"""

from __future__ import annotations

import json

from repro.agents.base import CodeAgent, StepOutcome
from repro.frame import Frame
from repro.viz import Figure, Scene3D


class VisualizationAgent(CodeAgent):
    role = "viz"

    def _run(self, step: dict, code: str, tables: dict[str, Frame], reply: str) -> StepOutcome:
        # the reply's first line is a JSON header naming the form the
        # model chose; without one (no JSON, or JSON that is not an
        # object) the plan's intended form stands
        form_used = step["params"].get("form", "")
        try:
            header = json.loads(reply.splitlines()[0] if reply else "{}")
        except json.JSONDecodeError:
            header = {}
        if isinstance(header, dict):
            form_used = header.get("form", form_used)
        execution = self.context.sandbox.execute(code, tables)
        if not execution.ok:
            return StepOutcome.failure(code, execution.error_type, execution.error_message, "viz")
        svg = ""
        fig = execution.figure
        if isinstance(fig, (Figure, Scene3D)):
            svg = fig.to_svg()
        elif execution.meta.get("figure_svg"):
            # HTTP-gateway sandboxes serialize the figure as SVG text
            svg = execution.meta["figure_svg"]
        if svg:
            self.context.provenance.record_figure(step["index"], svg, form_used)
        return StepOutcome(
            ok=True, code=code, result=execution.result, op="viz", form_used=form_used, svg=svg
        )
