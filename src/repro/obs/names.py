"""Shared span names and canonicalization exclusion lists.

Before this module, the ``sql.execute`` span name and the sets of
attributes excluded from canonical trees were string-matched
independently in :mod:`repro.obs.export`, :mod:`repro.obs.tracer`
docstrings, :mod:`repro.db.sql.executor`, and :mod:`repro.db.cache` —
four places that had to agree by review alone.  Every instrumented
component now imports the constants from here, so a new excluded span
kind (the cost ledger's rollup span, the profiler's capture span) is
declared once and every consumer — exporters, analyzers, the SLO gates —
moves together.

Two kinds of canonicalization exclusion:

* **attributes** (``TIMING_ATTRS`` / ``CACHE_ATTRS`` / ``FAULT_ATTRS`` /
  ``COST_ATTRS``) are dropped from a span's canonical form because they
  vary run to run without the traced *work* differing — latency-shaped
  measurements, cache tiers, absorbed faults, priced-token accounting;
* **span names** (``CANONICAL_EXCLUDED_SPANS``) drop the span and put
  its children in its place, because the span only exists when an
  optional telemetry layer or an outer entry point is there — a profiled
  run must canonicalize equal to an unprofiled one, a ``repro query``
  process equal to the same query run through the library.
"""

from __future__ import annotations

# ----------------------------------------------------------------------
# span names shared across subsystems
# ----------------------------------------------------------------------
# one per SELECT, emitted by the executor on a miss and by the
# query-result cache on every hit tier (repro.db.sql.executor,
# repro.db.cache); analyzers key cache/engine accounting on it
SQL_EXECUTE_SPAN = "sql.execute"
# one per LLM exchange (repro.llm.mock); token and cost accounting ride
# on its attributes
LLM_CHAT_SPAN = "llm.chat"
# the root span of one query session (repro.core.app)
SESSION_SPAN = "session"
# the suite root span of one evaluation-harness run (repro.eval.harness)
HARNESS_SUITE_SPAN = "harness.run_suite"
# one per (question, run) grid cell (repro.eval.harness)
HARNESS_CELL_SPAN = "harness.cell"
# per-session cost rollup stamped at session end (repro.obs.cost via
# repro.core.app); telemetry-only, excluded from canonical trees
COST_LEDGER_SPAN = "cost.ledger"
# wraps a profiled run (repro.obs.profiler / ``repro profile``);
# telemetry-only, excluded from canonical trees
PROFILE_CAPTURE_SPAN = "profile.capture"
# the root span of a ``repro query`` / ``repro eval`` process
# (repro.cli): starts at the clock reading ``python -m repro`` took before
# its first ``repro`` import, carries ``import_s`` and ``command``, and
# parents the session / suite span; excluded from canonical trees
CLI_PROCESS_SPAN = "cli.process"

# counter-event name for per-morsel completions published from the SQL
# engine's worker threads (parented on the enclosing sql.execute span)
MORSEL_EVENT = "sql.engine.morsel"

# one per served request (repro.serve.worker); the session span of the
# request's query parents under it, sharing its trace_id — which is the
# key per-request SSE streams filter the process-wide bus on
SERVE_REQUEST_SPAN = "serve.request"
# wraps server warm-up (repro.serve.state): pre-building the shared
# read-only state before the first request arrives
SERVE_WARMUP_SPAN = "serve.warmup"

# one per ingested snapshot (repro.sim.ingest.StreamingIngester): wraps
# ensemble extension plus the WAL-protected table appends; WAL accounting
# (commits / replays / torn tails) rides on its attributes, which is what
# ``repro trace summary`` folds into its ingest line
INGEST_STEP_SPAN = "ingest.step"
# one per WAL recovery pass (repro.db.database.Database.recover)
WAL_RECOVER_SPAN = "wal.recover"

# WAL / ingest counter names (repro.obs.metrics registry).  Classified
# recovery outcomes: a torn tail (short record) and a corrupt record (CRC
# mismatch on a complete frame) are counted separately so the property
# tests can assert *why* a tail was dropped, not just that it was.
WAL_APPENDS = "wal.appends"
WAL_COMMITS = "wal.commits"
WAL_REPLAYED = "wal.replayed"
WAL_SKIPPED_COMMITTED = "wal.skipped_committed"
WAL_TORN_TAIL_DROPPED = "wal.torn_tail_dropped"
WAL_CORRUPT_DROPPED = "wal.corrupt_record_dropped"
WAL_ORPHAN_GROUPS_DROPPED = "wal.orphan_row_groups_dropped"
INGEST_STEPS = "ingest.steps"
INGEST_ROWS = "ingest.rows"
INGEST_KILLS = "ingest.kills"

# ----------------------------------------------------------------------
# canonical-tree exclusions
# ----------------------------------------------------------------------
# attributes that vary run to run without the traced work differing:
# latency-shaped measurements, plus the execution mode (worker count)
# and the serving layer's queue-wait/execution split
TIMING_ATTRS = frozenset(
    {"latency_s", "wall_s", "duration_s", "workers", "queue_wait_s", "exec_s"}
)
# attributes that depend on which query-result-cache tier served a SELECT
# (and how much scan work it therefore did) — a memory hit in one process
# is a disk hit or a full scan in another without the *result* differing.
# The same goes for the morsel engine's accounting: thread count and
# zone-vs-bloom skip attribution are execution-mode details of a
# byte-identical result
CACHE_ATTRS = frozenset(
    {
        "cache",
        "residual_conjuncts",
        "row_groups_total",
        "row_groups_skipped",
        "row_groups_skipped_zone",
        "row_groups_skipped_bloom",
        "morsels",
        "threads",
        "cache_quarantined",
    }
)
# fault-injection and resilience accounting: a chaos run absorbs injected
# faults (retries, fallbacks, quarantines) without the *work* differing,
# so a chaos trace must canonicalize equal to a fault-free one
FAULT_ATTRS = frozenset(
    {"faults", "retries", "attempts", "degraded", "degraded_reason", "probe"}
)
# priced-token accounting stamped by the cost ledger: deterministic for a
# given run but only present when a ledger is active, so a metered run
# must canonicalize equal to an unmetered one
COST_ATTRS = frozenset({"cost_usd", "model", "budget_tokens"})
# sandbox-fleet accounting (repro.sandbox.fleet): which worker served an
# execution, how many times it re-routed/tripped/respawned, and which
# degradation tier answered — placement details of a byte-identical
# result, so a fleet run must canonicalize equal to a single-worker one.
# Matched by prefix (``fleet_*``) like the per-point fault attrs
FLEET_ATTR_PREFIX = "fleet_"

# spans that exist only when an optional telemetry layer is on or the
# work was entered through the CLI; canonical trees drop them and keep
# their children
CANONICAL_EXCLUDED_SPANS = frozenset(
    {COST_LEDGER_SPAN, PROFILE_CAPTURE_SPAN, CLI_PROCESS_SPAN}
)


def is_fault_attr(key: str) -> bool:
    return key in FAULT_ATTRS or key.startswith("fault.")


def is_fleet_attr(key: str) -> bool:
    return key.startswith(FLEET_ATTR_PREFIX)


def is_canonical_excluded_attr(key: str) -> bool:
    """True if ``key`` is dropped from a span's canonical form."""
    return (
        key in TIMING_ATTRS
        or key in CACHE_ATTRS
        or key in COST_ATTRS
        or is_fault_attr(key)
        or is_fleet_attr(key)
    )
