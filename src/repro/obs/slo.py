"""Declarative SLO gates over traces and metrics.

A policy is a plain dict (authored inline or as JSON) of budgets:

* ``trace``      — whole-trace invariants: open/error span ceilings,
  token and USD spend ceilings (summed from the ``llm.chat`` spans);
* ``phases``     — per-phase budgets keyed by the span-name prefix used
  by :func:`repro.obs.export.phase_rollups` (``max_total_s`` /
  ``max_errors`` / ``max_spans``);
* ``histograms`` — true-extremes gates on metrics snapshots using the
  streaming min/max tracked by :class:`repro.obs.metrics.Histogram`
  (``min_p0`` / ``max_p100`` / ``max_underflow``).

Every budget is opt-in; :meth:`SLOPolicy.default` carries only the
machine-independent invariants (no span left open, a generous token
ceiling), so ``repro slo check`` is useful with zero configuration and
strict exactly where a config says to be.  Wall-clock performance is
not an SLO family: it is measured by ``benchmarks/e2e/run.py`` in paired
parent/change runs (``BENCHMARK.json``), so a policy that still carries
the retired ``bench`` section is refused by name.
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
    "histograms": {},
}


@dataclass
class SLOCheck:
    """One evaluated budget: what was measured against what bound."""

    rule: str
    observed: Any
    bound: str          # e.g. '<= 1.02' or '>= 0'
    ok: bool
    skipped: bool = False
    note: str = ""

    def render(self) -> str:
        if self.skipped:
            return f"SKIP  {self.rule}: {self.note}"
        mark = "ok  " if self.ok else "FAIL"
        return f"{mark}  {self.rule}: observed {self.observed} (budget {self.bound})"


@dataclass
class SLOReport:
    """The outcome of one policy evaluation."""

    checks: list[SLOCheck] = field(default_factory=list)

    @property
    def violations(self) -> list[SLOCheck]:
        return [c for c in self.checks if not c.ok and not c.skipped]

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
        if "bench" in doc:
            raise ValueError(
                "SLO policy carries a 'bench' section: that gate family is "
                "retired (wall-clock performance is measured by "
                "benchmarks/e2e/run.py, see BENCHMARK.json); remove the section"
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
    def check(
        self,
        spans: list[dict[str, Any]],
        metrics: dict[str, Any] | None = None,
    ) -> SLOReport:
        """Evaluate every budget in the policy; returns the full report.

        ``metrics`` is an optional :meth:`MetricsRegistry.snapshot`
        document; histogram budgets without it are reported as skipped.
        """
        report = SLOReport()
        self._check_trace(report, spans)
        self._check_phases(report, spans)
        self._check_histograms(report, metrics)
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

    def _check_histograms(
        self, report: SLOReport, metrics: dict[str, Any] | None
    ) -> None:
        budgets = self.doc.get("histograms", {})
        if not budgets:
            return
        hists = (metrics or {}).get("histograms", {})
        for name, rules in sorted(budgets.items()):
            doc = hists.get(name)
            if doc is None or not doc.get("count"):
                report.checks.append(SLOCheck(
                    f"hist.{name}", None, "", True,
                    skipped=True, note="histogram absent or empty"))
                continue
            # streaming extremes give true p0/p100, not bucket edges
            if "max_p100" in rules:
                limit = rules["max_p100"]
                observed = doc.get("max")
                report.checks.append(SLOCheck(
                    f"hist.{name}.p100", observed, f"<= {limit}",
                    observed is not None and observed <= limit))
            if "min_p0" in rules:
                limit = rules["min_p0"]
                observed = doc.get("min")
                report.checks.append(SLOCheck(
                    f"hist.{name}.p0", observed, f">= {limit}",
                    observed is not None and observed >= limit))
            if "max_underflow" in rules:
                limit = rules["max_underflow"]
                observed = int(doc.get("underflow", 0))
                report.checks.append(SLOCheck(
                    f"hist.{name}.underflow", observed, f"<= {limit}",
                    observed <= limit))


def check_workdir(
    path: str | Path,
    policy: SLOPolicy | None = None,
) -> SLOReport:
    """Check a trace file or harness workdir against a policy.

    The histogram gates read the ``metrics.json`` the harness leaves
    beside the trace; beside a bare trace file there is none, and they
    are skipped.
    """
    from repro.obs.export import find_trace_file, read_spans

    policy = policy or SLOPolicy.default()
    trace = find_trace_file(path)
    metrics = _load_optional(trace.parent / "metrics.json")
    return policy.check(read_spans(trace), metrics=metrics)


def _load_optional(path: Path) -> dict[str, Any] | None:
    if not path.is_file():
        return None
    try:
        return json.loads(path.read_text())
    except json.JSONDecodeError:
        return None
