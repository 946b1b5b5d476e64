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
parent/change runs (``BENCHMARK.json``).  A policy is refused, by name,
for any section or rule that no check evaluates, so a misspelled budget
fails loudly instead of passing while checking nothing; a retired
section says where its subject went: ``bench``, or ``histograms``, whose
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

# rule -> what it bounds: each section evaluates exactly these rules, in
# this order ("phases" per phase), and a policy naming any other is refused
RULES: dict[str, dict[str, str]] = {
    "trace": {
        "max_open_spans": "open_spans",
        "max_error_spans": "error_spans",
        "max_total_tokens": "total_tokens",
        "max_cost_usd": "cost_usd",
    },
    "phases": {"max_total_s": "total_s", "max_errors": "errors", "max_spans": "spans"},
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
        if not isinstance(doc, dict):
            raise ValueError("SLO policy must be an object of sections")
        for section, rules in doc.items():
            if section in RETIRED_SECTIONS:
                raise ValueError(
                    f"SLO policy carries a {section!r} section: that gate family "
                    f"is retired ({RETIRED_SECTIONS[section]}); remove the section"
                )
            if section not in RULES:
                raise ValueError(
                    f"SLO policy carries an unknown section {section!r}: "
                    f"use {' or '.join(map(repr, RULES))}"
                )
            groups = {section: rules}
            if section == "phases" and isinstance(rules, dict):
                groups = {f"phases.{phase}": named for phase, named in rules.items()}
            for where, named in groups.items():
                if not isinstance(named, dict):
                    raise ValueError(f"SLO policy {where!r} must be an object of rules")
                unknown = sorted(set(named) - set(RULES[section]))
                if unknown:
                    raise ValueError(
                        f"SLO policy {where!r} has unknown rule(s) {', '.join(unknown)}: "
                        f"use {', '.join(RULES[section])}"
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
        statuses = [s.get("status") for s in spans]
        observed = {
            "open_spans": statuses.count("open"),
            "error_spans": statuses.count("error"),
            **token_totals(spans),
        }
        _gate(report, "trace", rules, observed, "trace.")

    def _check_phases(self, report: SLOReport, spans: list[dict[str, Any]]) -> None:
        budgets = self.doc.get("phases", {})
        if not budgets:
            return
        rollups = phase_rollups(spans)
        for phase, rules in sorted(budgets.items()):
            agg = rollups.get(phase, {"spans": 0, "total_s": 0.0, "errors": 0})
            _gate(report, "phases", rules, agg, f"phase.{phase}.")


def _gate(
    report: SLOReport, section: str, rules: dict, observed: dict, prefix: str
) -> None:
    """One check per rule of ``section`` that ``rules`` sets, in order."""
    for rule, key in RULES[section].items():
        if rule in rules:
            limit, value = rules[rule], observed[key]
            shown = round(value, 6) if isinstance(value, float) else value
            report.checks.append(
                SLOCheck(prefix + key, shown, f"<= {limit}", value <= limit)
            )


def check_workdir(
    path: str | Path,
    policy: SLOPolicy | None = None,
) -> SLOReport:
    """Check a trace file or a workdir's trace against a policy."""
    from repro.obs.export import read_spans

    return (policy or SLOPolicy.default()).check(read_spans(path))
