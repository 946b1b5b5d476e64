"""Data-loading agent.

"The data-loading agent assesses the entire ensemble context, including
descriptions of each particle/property file, and determines which files
and columns are necessary to load for all downstream tasks.  This
filtering reduces the required data from multiple terabytes to a few
gigabytes at most.  Selected data is written to a DuckDB database."

The agent combines the plan's requested columns with RAG retrieval over
the metadata dictionaries (so semantically phrased questions still find
their columns), reads *only those columns* from the GenericIO files via
selective column reads, annotates rows with ``run``/``step`` (and the
sub-grid parameter columns when the analysis needs them), and writes
each entity's rows into its on-disk database table in one commit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.agents.base import AgentContext
from repro.frame import Frame, concat
from repro.sim.ensemble import Ensemble


@dataclass
class LoadReport:
    """Selectivity accounting for the storage-overhead metrics."""

    tables: dict[str, int] = field(default_factory=dict)   # table -> rows
    bytes_selected: int = 0          # gio payload bytes actually read
    bytes_total: int = 0             # full ensemble payload bytes
    columns: dict[str, list[str]] = field(default_factory=dict)
    files_read: int = 0
    resolved_runs: list[int] = field(default_factory=list)
    resolved_steps: list[int] = field(default_factory=list)

    @property
    def selectivity(self) -> float:
        return self.bytes_selected / self.bytes_total if self.bytes_total else 0.0


class DataLoadingAgent:
    """Executes 'load' plan steps against an Ensemble."""

    def __init__(self, context: AgentContext, ensemble: Ensemble):
        self.context = context
        self.ensemble = ensemble

    def load(self, step_params: dict, question: str, plan_text: str = "") -> LoadReport:
        entities: list[str] = step_params.get("entities", ["halos"])
        requested: dict[str, list[str]] = step_params.get("columns", {})
        runs = step_params.get("runs")
        steps = step_params.get("steps")
        param_columns: list[str] = step_params.get("param_columns", [])

        if not runs:  # absent or empty: every run
            run_list = list(range(self.ensemble.n_runs))
        else:
            run_list = [r for r in runs if 0 <= r < self.ensemble.n_runs]
            if not run_list:
                # a referenced simulation does not exist in this ensemble;
                # degrade to the closest available run rather than dying
                run_list = [min(max(min(runs), 0), self.ensemble.n_runs - 1)]
        step_list = self._resolve_steps(steps)

        report = LoadReport(
            bytes_total=self.ensemble.total_data_bytes(),
            resolved_runs=run_list,
            resolved_steps=step_list,
        )

        # RAG pass: union the plan's columns with retrieved ones, then
        # intersect against the real schema (retrieval can only add valid
        # names; generation errors are injected downstream, not here)
        retrieval = self.context.retriever.retrieve(
            query=question,
            task=f"load columns for entities {entities}",
            plan=plan_text,
        )
        max_extra = 4  # retrieval may add a few columns beyond the plan's,
        # but never re-inflates the load toward full ingestion
        for entity in entities:
            available = self.ensemble.open_file(run_list[0], step_list[0], entity).columns
            wanted = list(requested.get(entity, []))
            extra = 0
            for col in retrieval.columns_for_entity(entity):
                if col not in wanted and extra < max_extra:
                    wanted.append(col)
                    extra += 1
            wanted = [c for c in wanted if c in available]
            if not wanted:
                wanted = available[: min(4, len(available))]
            report.columns[entity] = wanted

        for entity in entities:
            frames: list[Frame] = []
            for run in run_list:
                params = self.ensemble.params_for(run).as_dict()
                for step in step_list:
                    gio = self.ensemble.open_file(run, step, entity)
                    report.bytes_selected += gio.bytes_for(report.columns[entity])
                    report.files_read += 1
                    frame = gio.read(report.columns[entity])
                    extra: dict = {
                        "run": np.full(frame.num_rows, run, dtype=np.int64),
                        "step": np.full(frame.num_rows, step, dtype=np.int64),
                    }
                    for pname in param_columns:
                        extra[f"param_{pname}"] = np.full(frame.num_rows, params[pname])
                    frames.append(frame.assign(**extra))
            # one durable commit per entity: a crash mid-load leaves the
            # table absent or whole, never holding a prefix of the files
            merged = concat(frames)
            del frames, frame  # peak is one extra copy of the subset, not two
            if self.context.db.has_table(entity):
                self.context.db.drop_table(entity)
            self.context.db.create_table(entity, merged)
            report.tables[entity] = merged.num_rows

        self.context.provenance.record_note(
            f"loaded {sum(report.tables.values())} rows across {report.files_read} files "
            f"({report.bytes_selected:,} of {report.bytes_total:,} bytes, "
            f"selectivity {report.selectivity:.4%})",
            files=report.files_read,
            bytes_selected=report.bytes_selected,
        )
        return report

    def _resolve_steps(self, steps) -> list[int]:
        available = self.ensemble.timesteps
        if not steps:  # absent or empty: every snapshot
            return available
        resolved: list[int] = []
        for s in steps:
            if s == "latest":
                resolved.append(available[-1])
            elif s == "earliest":
                resolved.append(available[0])
            elif int(s) in available:
                resolved.append(int(s))
            else:
                # snap to the nearest available snapshot
                nearest = min(available, key=lambda a: abs(a - int(s)))
                resolved.append(nearest)
        return sorted(set(resolved))
