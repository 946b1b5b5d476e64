"""Shared span and counter names and canonicalization exclusion lists.

Before this module, the ``sql.execute`` span name and the sets of
attributes excluded from canonical trees were string-matched
independently in :mod:`repro.obs.export`, :mod:`repro.obs.tracer`
docstrings, :mod:`repro.db.sql.executor`, and :mod:`repro.db.cache` —
four places that had to agree by review alone.  Every instrumented
component now imports the constants from here, so a new excluded span
kind (the profiler's capture span, the CLI's process root) is declared
once and every consumer — exporters, analyzers, the SLO gates —
moves together.

Two kinds of canonicalization exclusion:

* **attributes** (``TIMING_ATTRS`` / ``CACHE_ATTRS`` / ``FAULT_ATTRS`` /
  ``COST_ATTRS``) are dropped from a span's canonical form because they
  vary run to run without the traced *work* differing — latency-shaped
  measurements, cache tiers, absorbed faults, prices;
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
# one per LLM exchange (repro.llm.mock); its tokens and price ride on
# its attributes, and its ancestors below say whose spend it was
# (repro.obs.export.llm_spend)
LLM_CHAT_SPAN = "llm.chat"
# the root span of one query session (repro.core.app)
SESSION_SPAN = "session"
# the session's planning phase (repro.core.app)
PLAN_SPAN = "plan.generate"
# one per executed plan (repro.agents.supervisor); carries the plan's
# ``semantic_level``
SUPERVISOR_SPAN = "supervisor.execute"
# one per node execution of a state graph (repro.graph): this prefix
# plus the node name
NODE_SPAN_PREFIX = "graph.node."
# one per attempt at a code-generating step (``step.sql`` / ``step.python``
# / ``step.viz``) and one per QA verdict on it; both carry ``attempt``
STEP_SPAN_PREFIX = "step."
QA_SPAN = "qa.assess"
# the suite root span of one evaluation-harness run (repro.eval.harness)
HARNESS_SUITE_SPAN = "harness.run_suite"
# one per (question, run) grid cell (repro.eval.harness)
HARNESS_CELL_SPAN = "harness.cell"
# wraps a profiled run (repro.obs.profiler / ``repro profile``);
# telemetry-only, excluded from canonical trees
PROFILE_CAPTURE_SPAN = "profile.capture"
# the root span of a ``repro query`` / ``repro eval`` process
# (repro.cli): starts at the clock reading ``python -m repro`` took before
# its first ``repro`` import, carries ``import_s`` and ``command``, and
# parents the session / suite span; excluded from canonical trees
CLI_PROCESS_SPAN = "cli.process"

# one per served request (repro.serve.worker); the session span of the
# request's query parents under it, sharing its trace_id and its
# listener; its end closes the request's SSE progress stream
SERVE_REQUEST_SPAN = "serve.request"
# wraps server warm-up (repro.serve.state): pre-building the shared
# read-only state before the first request arrives
SERVE_WARMUP_SPAN = "serve.warmup"

# one per ingested snapshot (repro.sim.ingest.StreamingIngester): wraps
# ensemble extension plus the table appends' commits; rows and the
# ensemble version ride on its attributes, which is what
# ``repro trace summary`` folds into its ingest line
INGEST_STEP_SPAN = "ingest.step"
# one per recovery pass (repro.db.database.Database.recover)
WAL_RECOVER_SPAN = "wal.recover"

# commit-log / ingest counter names (repro.obs.metrics registry), the
# ones ``repro.db.wal.WalStats`` reads for ``/stats``: one per
# acknowledged create or append (drops are not counted), and the
# classified recovery outcomes.  A torn tail (short frame) and a corrupt
# record (a complete frame failing its CRC) are counted separately so
# the property tests can assert *why* a tail was dropped, not just that
# it was.  Rows, steps and orphan row groups are attributes of the
# ``ingest.step`` / ``wal.recover`` spans, not counters.
WAL_COMMITS = "wal.commits"
WAL_TORN_TAIL_DROPPED = "wal.torn_tail_dropped"
WAL_CORRUPT_DROPPED = "wal.corrupt_record_dropped"
INGEST_KILLS = "ingest.kills"

# query-result cache counters (repro.db.cache), one per tier outcome;
# ``QueryCacheStats`` is a typed read of exactly these
DB_CACHE_HIT_MEMORY = "db.cache.hit.memory"
DB_CACHE_HIT_DISK = "db.cache.hit.disk"
DB_CACHE_HIT_INCREMENTAL = "db.cache.hit.incremental"
DB_CACHE_MISS = "db.cache.miss"
DB_CACHE_STORE = "db.cache.store"
DB_CACHE_EVICTION = "db.cache.eviction"
DB_CACHE_INVALIDATION = "db.cache.invalidation"
DB_CACHE_QUARANTINE = "db.cache.quarantine"
# retrieval-artifact cache counters (repro.rag.cache): the corpus matrix
# tiers and the shared query-embedding memo; ``CacheStats`` reads these
RAG_CACHE_HIT_MEMORY = "rag.cache.hit.memory"
RAG_CACHE_HIT_DISK = "rag.cache.hit.disk"
RAG_CACHE_BUILD = "rag.cache.build"
RAG_MEMO_HIT = "rag.memo.hit"
RAG_MEMO_MISS = "rag.memo.miss"
RAG_MEMO_EVICTION = "rag.memo.eviction"
# sandbox-fleet counters (repro.sandbox.fleet), one per routed execution,
# tripped member, respawn and full-degradation fallback; ``FleetStats``
# reads these
SANDBOX_FLEET_ROUTES = "sandbox.fleet.routes"
SANDBOX_FLEET_TRIPS = "sandbox.fleet.trips"
SANDBOX_FLEET_RESPAWNS = "sandbox.fleet.respawns"
SANDBOX_FLEET_FALLBACKS = "sandbox.fleet.fallbacks"
# trace listeners (repro.obs.events) that raised and were skipped
OBS_BUS_SUBSCRIBER_ERRORS = "obs.bus.subscriber_errors"

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
# The same goes for the engine's morsel count and zone-vs-bloom skip
# attribution: execution details of a byte-identical result
CACHE_ATTRS = frozenset(
    {
        "cache",
        "residual_conjuncts",
        "row_groups_total",
        "row_groups_skipped",
        "row_groups_skipped_zone",
        "row_groups_skipped_bloom",
        "morsels",
        "cache_quarantined",
    }
)
# fault-injection and resilience accounting: a chaos run absorbs injected
# faults (retries, fallbacks, quarantines) without the *work* differing,
# so a chaos trace must canonicalize equal to a fault-free one
FAULT_ATTRS = frozenset(
    {"faults", "retries", "attempts", "degraded", "degraded_reason", "probe"}
)
# the price of an LLM exchange and the model it was priced as: a
# function of the price table (repro.llm.mock.PRICE_TABLE), not of the
# traced work, so a re-priced run canonicalizes equal
COST_ATTRS = frozenset({"cost_usd", "model"})
# sandbox-fleet accounting (repro.sandbox.fleet): which worker served an
# execution, how many times it re-routed/tripped/respawned, and which
# degradation tier answered — placement details of a byte-identical
# result, so a fleet run must canonicalize equal to a single-worker one.
# Matched by prefix (``fleet_*``) like the per-point fault attrs
FLEET_ATTR_PREFIX = "fleet_"

# spans that exist only when an optional telemetry layer is on or the
# work was entered through the CLI; canonical trees drop them and keep
# their children
CANONICAL_EXCLUDED_SPANS = frozenset({PROFILE_CAPTURE_SPAN, CLI_PROCESS_SPAN})


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
