"""Declarative SLO gates over traces.

A policy is a plain dict (authored inline or as JSON) of budgets:

* ``trace``      — whole-trace invariants: open/error span ceilings,
  token and USD spend ceilings (summed from the ``llm.chat`` spans);
* ``phases``     — per-phase budgets keyed by the span-name prefix used
  by :func:`repro.obs.export.phase_rollups` (``max_total_s`` /
  ``max_errors`` / ``max_spans``).

Every budget is opt-in; :meth:`SLOPolicy.default` carries only the
machine-independent invariants (no span left open, a generous token
ceiling), so ``repro slo check`` is useful with zero configuration and
strict exactly where a config says to be.  Wall-clock performance is
not an SLO family: it is measured by ``benchmarks/e2e/run.py`` in paired
parent/change runs (``BENCHMARK.json``).  A policy that still carries a
retired section is refused by name: ``bench``, or ``histograms``, whose
gates read latency histograms the metrics registry no longer keeps
(a span's duration is its one record, budgeted by ``phases``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.obs.export import phase_rollups, token_totals

# spans-per-trace and wall-second budgets are inherently workload-shaped,
# so the zero-config policy only pins what must hold on any machine
DEFAULT_POLICY: dict[str, Any] = {
    "trace": {
        "max_open_spans": 0,
        "max_total_tokens": 2_000_000,
    },
    "phases": {},
}

# gate families that were removed, and where their subject went
RETIRED_SECTIONS: dict[str, str] = {
    "bench": "wall-clock performance is measured by benchmarks/e2e/run.py, "
             "see BENCHMARK.json",
    "histograms": "the metrics registry keeps counters only; budget span "
                  "time with a 'phases' max_total_s",
}


@dataclass
class SLOCheck:
    """One evaluated budget: what was measured against what bound."""

    rule: str
    observed: Any
    bound: str          # e.g. '<= 1.02'
    ok: bool

    def render(self) -> str:
        mark = "ok  " if self.ok else "FAIL"
        return f"{mark}  {self.rule}: observed {self.observed} (budget {self.bound})"


@dataclass
class SLOReport:
    """The outcome of one policy evaluation."""

    checks: list[SLOCheck] = field(default_factory=list)

    @property
    def violations(self) -> list[SLOCheck]:
        return [c for c in self.checks if not c.ok]

    @property
    def ok(self) -> bool:
        return not self.violations

    def render(self) -> str:
        lines = [c.render() for c in self.checks]
        verdict = "SLO: PASS" if self.ok else f"SLO: FAIL ({len(self.violations)} violation(s))"
        return "\n".join([*lines, verdict])


class SLOPolicy:
    """A set of declarative budgets, checkable against run artifacts."""

    def __init__(self, doc: dict[str, Any]):
        for section, why in RETIRED_SECTIONS.items():
            if section in doc:
                raise ValueError(
                    f"SLO policy carries a {section!r} section: that gate family "
                    f"is retired ({why}); remove the section"
                )
        self.doc = doc

    @classmethod
    def default(cls) -> "SLOPolicy":
        return cls(json.loads(json.dumps(DEFAULT_POLICY)))

    @classmethod
    def from_dict(cls, doc: dict[str, Any]) -> "SLOPolicy":
        return cls(dict(doc))

    @classmethod
    def from_json(cls, path: str | Path) -> "SLOPolicy":
        return cls(json.loads(Path(path).read_text()))

    # ------------------------------------------------------------------
    def check(self, spans: list[dict[str, Any]]) -> SLOReport:
        """Evaluate every budget in the policy; returns the full report."""
        report = SLOReport()
        self._check_trace(report, spans)
        self._check_phases(report, spans)
        return report

    # ------------------------------------------------------------------
    def _check_trace(self, report: SLOReport, spans: list[dict[str, Any]]) -> None:
        rules = self.doc.get("trace", {})
        if not rules:
            return
        open_spans = sum(1 for s in spans if s.get("status") == "open")
        error_spans = sum(1 for s in spans if s.get("status") == "error")
        spend = token_totals(spans)
        tokens, usd = spend["total_tokens"], spend["cost_usd"]
        if "max_open_spans" in rules:
            limit = rules["max_open_spans"]
            report.checks.append(SLOCheck(
                "trace.open_spans", open_spans, f"<= {limit}", open_spans <= limit))
        if "max_error_spans" in rules:
            limit = rules["max_error_spans"]
            report.checks.append(SLOCheck(
                "trace.error_spans", error_spans, f"<= {limit}", error_spans <= limit))
        if "max_total_tokens" in rules:
            limit = rules["max_total_tokens"]
            report.checks.append(SLOCheck(
                "trace.total_tokens", tokens, f"<= {limit}", tokens <= limit))
        if "max_cost_usd" in rules:
            limit = rules["max_cost_usd"]
            report.checks.append(SLOCheck(
                "trace.cost_usd", round(usd, 6), f"<= {limit}", usd <= limit))

    def _check_phases(self, report: SLOReport, spans: list[dict[str, Any]]) -> None:
        budgets = self.doc.get("phases", {})
        if not budgets:
            return
        rollups = phase_rollups(spans)
        for phase, rules in sorted(budgets.items()):
            agg = rollups.get(phase, {"spans": 0, "total_s": 0.0, "errors": 0})
            if "max_total_s" in rules:
                limit = rules["max_total_s"]
                observed = round(agg["total_s"], 6)
                report.checks.append(SLOCheck(
                    f"phase.{phase}.total_s", observed, f"<= {limit}",
                    agg["total_s"] <= limit))
            if "max_errors" in rules:
                limit = rules["max_errors"]
                report.checks.append(SLOCheck(
                    f"phase.{phase}.errors", int(agg["errors"]), f"<= {limit}",
                    agg["errors"] <= limit))
            if "max_spans" in rules:
                limit = rules["max_spans"]
                report.checks.append(SLOCheck(
                    f"phase.{phase}.spans", int(agg["spans"]), f"<= {limit}",
                    agg["spans"] <= limit))


def check_workdir(
    path: str | Path,
    policy: SLOPolicy | None = None,
) -> SLOReport:
    """Check a trace file or a workdir's trace against a policy."""
    from repro.obs.export import read_spans

    return (policy or SLOPolicy.default()).check(read_spans(path))
