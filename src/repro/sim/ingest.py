"""Live ensemble ingestion: append generated snapshots to a running system.

The paper's ensembles are static at load time; :class:`StreamingIngester`
makes them *live*.  Each :meth:`ingest_step` deterministically extends the
ensemble with one more timestep (:func:`repro.sim.ensemble.append_snapshot`
— byte-identical to having generated the step up front) and appends the
new halo/galaxy rows to a live analysis database through its commit
protocol (:mod:`repro.db.wal`), so queries racing ingestion only ever see
a committed snapshot and a killed ingester recovers exactly.

This is the *only* component that arms the simulated-death fault points
(:func:`repro.faults.arm_ingest_kills`): under a chaos profile the
ingester can die before staging, mid-segment, after staging and before
the commit record, or mid-record — :meth:`ingest_step` raises
:class:`repro.db.errors.IngestKilled` at the exact point a SIGKILL would
have struck.  The killed append was never acknowledged, so
:meth:`recover` drops it, and the retry sends it again.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro import faults
from repro.db.database import Database
from repro.db.errors import IngestKilled
from repro.frame import Frame, concat
from repro.obs import names as obs_names
from repro.obs.logsetup import get_logger
from repro.obs.metrics import get_registry
from repro.obs.tracer import get_tracer
from repro.sim.cosmology import DEFAULT_COSMOLOGY
from repro.sim.ensemble import Ensemble, append_snapshot
from repro.util.timing import WallClock

log = get_logger("sim.ingest")

DEFAULT_TABLES = ("halos", "galaxies")


@dataclass
class IngestReport:
    """Accounting for one committed snapshot append."""

    step: int
    ensemble_version: int
    rows: dict[str, int] = field(default_factory=dict)
    table_versions: dict[str, int] = field(default_factory=dict)
    kills: int = 0          # simulated deaths absorbed before the commit landed
    recoveries: int = 0     # recovery passes run between retries
    wall_s: float = 0.0

    def as_dict(self) -> dict:
        return {
            "step": self.step,
            "ensemble_version": self.ensemble_version,
            "rows": dict(self.rows),
            "table_versions": dict(self.table_versions),
            "kills": self.kills,
            "recoveries": self.recoveries,
            "wall_s": self.wall_s,
        }


class StreamingIngester:
    """Single live writer for one ensemble + its live analysis database.

    ``arm_faults=True`` lets the active chaos profile kill the ingester at
    the commit protocol's fault points (the query path never arms them);
    ``max_attempts`` bounds the kill/recover/retry loop of
    :meth:`ingest_step_resilient`.
    """

    def __init__(
        self,
        ensemble_root: str | Path,
        db: Database | None = None,
        db_path: str | Path | None = None,
        tables: tuple[str, ...] = DEFAULT_TABLES,
        arm_faults: bool = False,
        clock=None,
    ):
        self.clock = clock or WallClock()
        self.ensemble = Ensemble(ensemble_root)
        if db is None:
            db = Database(
                Path(db_path) if db_path is not None else self.ensemble.root / "live.db",
                result_cache=False,
            )
        self.db = db
        self.tables = tuple(tables)
        self.arm_faults = arm_faults
        self.last_report: IngestReport | None = None

    # ------------------------------------------------------------------
    def recover(self) -> dict:
        """Settle any interrupted commit (safe to call any time)."""
        report = self.db.recover()
        self.ensemble.reload()
        return report

    def bootstrap(self) -> dict[str, int]:
        """Load every already-generated snapshot into empty live tables.

        Uses the same one-combined-frame-per-step append layout as
        :meth:`ingest_step`, so a database bootstrapped from an extended
        ensemble and one that ingested the extension live hold
        byte-identical row groups (equal content signatures).
        """
        rows: dict[str, int] = {}
        self.db.recover()
        for kind in self.tables:
            if self.db.has_table(kind):
                continue
            for i, step in enumerate(self.ensemble.timesteps):
                frame = concat(
                    [
                        self._annotated(run, int(step), kind)
                        for run in range(self.ensemble.n_runs)
                    ]
                )
                if i == 0:
                    self.db.create_table(kind, frame)
                else:
                    self.db.append(kind, frame)
                rows[kind] = rows.get(kind, 0) + frame.num_rows
        return rows

    # ------------------------------------------------------------------
    def next_step(self, spacing: int = 25) -> int:
        """The next timestep to generate (bounded by the cosmology grid)."""
        last = int(self.ensemble.timesteps[-1])
        step = last + spacing
        final = DEFAULT_COSMOLOGY.final_step
        if step > final:
            raise ValueError(
                f"ensemble grid exhausted: next step {step} would pass the "
                f"final step {final} (last committed step is {last})"
            )
        return step

    def ingest_step(self, step: int | None = None) -> IngestReport:
        """Extend the ensemble by one snapshot and append its rows.

        One attempt: under an armed chaos profile this can raise
        :class:`IngestKilled` at any protocol stage, leaving disk state
        for :meth:`recover` to settle.  Use
        :meth:`ingest_step_resilient` for the kill/recover/retry loop.
        """
        step = int(step) if step is not None else self.next_step()
        started = self.clock.now()
        with get_tracer().span(obs_names.INGEST_STEP_SPAN) as span:
            span.set(step=step)
            if self.arm_faults:
                with faults.arm_ingest_kills():
                    report = self._ingest_once(step)
            else:
                report = self._ingest_once(step)
            report.wall_s = self.clock.now() - started
            span.set(
                rows=int(sum(report.rows.values())),
                ensemble_version=report.ensemble_version,
            )
        self.last_report = report
        return report

    def _ingest_once(self, step: int) -> IngestReport:
        if step not in self.ensemble.reload().timesteps:
            append_snapshot(self.ensemble.root, step)
            self.ensemble.reload()
        report = IngestReport(step=step, ensemble_version=self.ensemble.version)
        for kind in self.tables:
            # one combined frame per table: the step's rows for all runs
            # land in a single append, so the commit is atomic per table
            # and a retry can skip tables that made it
            frame = concat(
                [
                    self._annotated(run, step, kind)
                    for run in range(self.ensemble.n_runs)
                ]
            )
            if not self._step_ingested(kind, step):
                # (a table whose append committed before a later death
                # lands here as already-ingested and is skipped)
                if not self.db.has_table(kind):
                    self.db.create_table(kind, frame)
                else:
                    self.db.append(kind, frame)
            report.rows[kind] = frame.num_rows
            report.table_versions[kind] = self.db.table_version(kind)
        return report

    def _step_ingested(self, kind: str, step: int) -> bool:
        """Whether a prior attempt already committed this step.

        Steps are appended in increasing order, so the table's maximum
        committed ``step`` lives in its last committed row group; the
        zone map answers without touching row bytes.
        """
        if not self.db.has_table(kind):
            return False
        store = self.db.store(kind)
        last = store.num_row_groups - 1
        if last < 0:
            return False
        bounds = store.zone_map(last).get("step")
        if bounds is None:
            column = store.read_row_group(last, ["step"]).column("step")
            return bool(len(column)) and int(np.max(column)) >= step
        return bounds[1] >= step

    def ingest_step_resilient(
        self, step: int | None = None, max_attempts: int = 64
    ) -> IngestReport:
        """Kill/recover/retry until the snapshot commit lands.

        This is the restart loop a supervised ingester process would run:
        every simulated death is followed by a recovery pass (exactly what
        a fresh process would do on open), then the step retries.  Retries
        are idempotent: recovery discards the unacknowledged append, so
        the retry sends it again, and skips every table that committed.
        """
        step = int(step) if step is not None else self.next_step()
        kills = recoveries = 0
        registry = get_registry()
        for _ in range(max_attempts):
            try:
                report = self.ingest_step(step)
            except IngestKilled as exc:
                kills += 1
                registry.counter(obs_names.INGEST_KILLS).inc()
                log.info("ingester killed (%s); recovering and retrying", exc.stage)
                self.recover()
                recoveries += 1
                continue
            report.kills = kills
            report.recoveries = recoveries
            self.last_report = report
            return report
        raise IngestKilled(
            "retry-budget", f"step {step} did not commit within {max_attempts} attempts"
        )

    # ------------------------------------------------------------------
    def _annotated(self, run: int, step: int, kind: str) -> Frame:
        """One (run, step) catalog with the loader's run/step annotations."""
        frame = self.ensemble.read(run, step, kind)
        columns = {name: frame.column(name) for name in frame.columns}
        columns["run"] = np.full(frame.num_rows, run, dtype=np.int64)
        columns["step"] = np.full(frame.num_rows, step, dtype=np.int64)
        return Frame(columns)

    def stats(self) -> dict:
        """Snapshot/commit accounting for ``/stats`` and the CLI."""
        doc = {
            "schema": 1,
            "ensemble_version": self.ensemble.version,
            "timesteps": list(self.ensemble.timesteps),
            "tables": {},
            "last_report": self.last_report.as_dict() if self.last_report else None,
        }
        for kind in self.tables:
            if self.db.has_table(kind):
                doc["tables"][kind] = {
                    "version": self.db.table_version(kind),
                    "rows": self.db.store(kind).num_rows,
                }
        return doc
