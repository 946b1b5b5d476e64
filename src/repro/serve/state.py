"""Process-wide read-only warm state, built once before the first request.

The one-shot CLI pays its cold-start costs — embedding the column
corpus, opening the ensemble, probing the sandbox — on every invocation.
A server pays them **once**, at startup, and then shares the warm
artifacts across every session it serves:

* the **column retriever** and its corpus-embedding matrix
  (:mod:`repro.rag.cache`): built or mmap-loaded into one
  :class:`~repro.rag.ColumnRetriever` instance that every per-request
  app reuses, so no request ever re-embeds the corpus;
* the **query-result cache** (:mod:`repro.db.cache`): one shared on-disk
  tier under the server workdir, so a SELECT executed for any session is
  mmap-served to all others (keys are content-addressed, making the
  sharing correctness-neutral by construction);
* the **ensemble catalogs**: manifest parsed, the newest halo catalog
  read once so first-request scans hit warm file pages;
* the **sandbox**: the in-process executor toolset built once; with a
  remote gateway, one warm :class:`~repro.sandbox.SandboxClient` whose
  pooled connections, circuit breaker, and health state are shared by
  all requests; with ``config.sandbox_workers`` set, a whole warm
  :class:`~repro.sandbox.SandboxFleet` — every member boot-probed into
  the warm-up report, requests routed least-loaded across it.

:meth:`WarmState.warm` times each component and returns a
:class:`WarmupReport` that the server logs at startup and the
``serve_mixed`` workload of ``benchmarks/e2e`` reports as
``serve.warmup_s``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.core.config import InferAConfig
from repro.obs.names import SERVE_WARMUP_SPAN
from repro.obs.tracer import get_tracer
from repro.rag import ColumnRetriever, RetrievalArtifactCache
from repro.sandbox import (
    InProcessClient,
    SandboxClient,
    SandboxExecutor,
    SandboxFleet,
    resolve_sandbox_workers,
)
from repro.sim.ensemble import Ensemble
from repro.sim.schema import (
    COLUMN_DESCRIPTIONS,
    FILE_STRUCTURE_DESCRIPTIONS,
    IMPORTANT_COLUMNS,
)
from repro.util.timing import SimulatedClock, WallClock


@dataclass
class WarmupReport:
    """Per-component warm-up timing plus what each component found."""

    component_s: dict[str, float] = field(default_factory=dict)
    details: dict[str, Any] = field(default_factory=dict)

    @property
    def total_s(self) -> float:
        return sum(self.component_s.values())

    def as_dict(self) -> dict[str, Any]:
        return {
            "total_s": self.total_s,
            "component_s": {k: round(v, 6) for k, v in self.component_s.items()},
            "details": dict(self.details),
        }

    def render(self) -> str:
        lines = [f"warm-up complete in {self.total_s:.3f} s"]
        for name, seconds in self.component_s.items():
            note = self.details.get(name, "")
            note_text = f"  ({note})" if note else ""
            lines.append(f"  {name:<18} {seconds * 1e3:9.2f} ms{note_text}")
        return "\n".join(lines)


class WarmState:
    """The server's shared read-only state and per-request app factory."""

    def __init__(
        self,
        ensemble: Ensemble,
        workdir: str | Path,
        config: InferAConfig,
        clock: WallClock | SimulatedClock | None = None,
    ):
        self.ensemble = ensemble
        self.workdir = Path(workdir)
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.config = config
        self.clock = clock or WallClock()
        self.retrieval_cache_dir = self.workdir / ".retrieval_cache"
        self.query_cache_dir = self.workdir / ".query_cache"
        self.retriever: ColumnRetriever | None = None
        self.sandbox = None
        self.report: WarmupReport | None = None

    @property
    def warmed(self) -> bool:
        return self.report is not None

    # ------------------------------------------------------------------
    def warm(self) -> WarmupReport:
        """Build every shared component, timing each; idempotent."""
        if self.report is not None:
            return self.report
        report = WarmupReport()
        with get_tracer().span(SERVE_WARMUP_SPAN):
            self._warm_retriever(report)
            self._warm_query_cache(report)
            self._warm_catalogs(report)
            self._warm_sandbox(report)
        self.report = report
        return report

    def _timed(self, report: WarmupReport, name: str):
        clock = self.clock

        class _Timer:
            def __enter__(timer):
                timer.t0 = clock.now()
                return timer

            def __exit__(timer, *exc):
                report.component_s[name] = clock.now() - timer.t0
                return False

        return _Timer()

    def _warm_retriever(self, report: WarmupReport) -> None:
        manifest = self.ensemble.manifest
        with self._timed(report, "retriever"):
            self.retriever = ColumnRetriever(
                manifest.get("column_descriptions", COLUMN_DESCRIPTIONS),
                manifest.get("structure", FILE_STRUCTURE_DESCRIPTIONS),
                important=IMPORTANT_COLUMNS,
                cache=RetrievalArtifactCache(self.retrieval_cache_dir),
            )
        report.details["retriever"] = f"dim={self.retriever.index.embedder.dim}"

    def _warm_query_cache(self, report: WarmupReport) -> None:
        from repro.db.cache import QueryResultCache

        with self._timed(report, "query_cache"):
            self.query_cache_dir.mkdir(parents=True, exist_ok=True)
            store = QueryResultCache(self.query_cache_dir)
            entries = len(store.disk_entries())
        report.details["query_cache"] = f"{entries} disk entries"

    def _warm_catalogs(self, report: WarmupReport) -> None:
        # read the newest halo catalog once so the first session's scans
        # start from warm file pages instead of cold disk
        with self._timed(report, "catalogs"):
            steps = self.ensemble.timesteps
            kinds = self.ensemble.entity_kinds(run=0)
            rows = 0
            if steps and kinds:
                kind = "halos" if "halos" in kinds else kinds[0]
                frame = self.ensemble.read(0, steps[-1], kind)
                rows = frame.num_rows
        report.details["catalogs"] = (
            f"{self.ensemble.n_runs} runs x {len(steps)} steps, probe {rows} rows"
        )

    def _warm_sandbox(self, report: WarmupReport) -> None:
        from repro.agents.tools import default_toolset

        with self._timed(report, "sandbox"):
            fleet_workers = resolve_sandbox_workers(self.config.sandbox_workers)
            if fleet_workers:
                # pooled warm workers shared by every request: each member
                # is boot-probed so the warm-up report says how much of
                # the fleet actually came up
                fleet = SandboxFleet.spawn_local(
                    fleet_workers,
                    mode=self.config.sandbox_spawn or "thread",
                    fallback=InProcessClient(
                        SandboxExecutor(tools=default_toolset())
                    ),
                    seed=self.config.seed,
                    stats_path=self.workdir / "sandbox_fleet.json",
                )
                probe = fleet.warm()
                report.details["sandbox"] = (
                    f"fleet {probe['healthy']}/{probe['workers']} healthy "
                    f"({probe['mode']})"
                )
                self.sandbox = fleet
            elif self.config.sandbox_url:
                client = SandboxClient(
                    self.config.sandbox_url,
                    seed=self.config.seed,
                    fallback=InProcessClient(SandboxExecutor(tools=default_toolset())),
                )
                probe = client.health()
                report.details["sandbox"] = f"remote {probe.detail}"
                self.sandbox = client
            else:
                self.sandbox = InProcessClient(
                    SandboxExecutor(tools=default_toolset())
                )
                report.details["sandbox"] = "in-process"

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release warm resources that own workers (the sandbox fleet)."""
        close = getattr(self.sandbox, "close", None)
        if callable(close):
            close()

    # ------------------------------------------------------------------
    def build_app(self, session_workdir: Path, seed: int, llm=None, ensemble=None):
        """A per-request app wired onto the shared warm components.

        Each request gets isolated state — its own workdir, provenance
        session, analysis database, seeded RNG streams — while the
        retriever, sandbox, and both on-disk cache tiers are the
        server-shared instances.

        ``ensemble`` lets the worker hand the app a *pinned* manifest view
        (:meth:`repro.sim.ensemble.Ensemble.pinned`), so a request racing
        live ingestion runs start to finish against one consistent
        snapshot; default is the live shared handle.
        """
        from repro.core.app import InferA

        if not self.warmed:
            self.warm()
        config = InferAConfig(
            **{
                **self.config.__dict__,
                "seed": seed,
                "retrieval_cache_dir": str(self.retrieval_cache_dir),
                "query_cache_dir": str(self.query_cache_dir),
            }
        )
        return InferA(
            ensemble if ensemble is not None else self.ensemble,
            session_workdir,
            config,
            llm=llm,
            retriever=self.retriever,
            sandbox=self.sandbox,
        )
