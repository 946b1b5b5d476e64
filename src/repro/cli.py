"""Command-line interface.

``python -m repro <command>``:

* ``generate`` — write a synthetic HACC-style ensemble
* ``info``     — describe an ensemble
* ``query``    — run one natural-language question end to end
* ``eval``     — run the 20-question evaluation suite and print Table 2
* ``sql``      — run SQL directly against an analysis database
* ``trace``    — inspect a recorded execution trace (summary/tree/export)
* ``cache``    — report or clear the shared query-result/retrieval caches
* ``cost``     — report a run's LLM spend (per agent, §4.5 growth curve)
* ``profile``  — run one query under the sampling profiler (flamegraph)
* ``slo``      — check a trace/workdir against declarative SLO budgets
* ``serve``    — long-running multi-tenant HTTP server over one warm process
* ``sandbox``  — the sandbox-fleet counters a drained server recorded
* ``ingest``   — append generated snapshots to a live ensemble through the
  crash-safe WAL commit protocol (locally or via a running server)

All commands are plain functions over the library API; the CLI adds no
behaviour of its own, so scripted use and the Python API stay equivalent.

Command *results* (tables, query answers, figures) go to stdout; *status*
goes through the ``repro.*`` logger hierarchy on stderr, tuned with
``--verbose``/``-q``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from contextlib import contextmanager
from pathlib import Path

from repro.obs.logsetup import get_logger, setup_logging
from repro.util.timing import WallClock

log = get_logger("cli")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="InferA reproduction: a smart assistant for cosmological ensemble data",
    )
    parser.add_argument("-v", "--verbose", action="count", default=0,
                        help="more status output on stderr (repeatable)")
    parser.add_argument("-q", "--quiet", action="count", default=0,
                        help="less status output on stderr (repeatable)")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a synthetic ensemble")
    gen.add_argument("--out", required=True, help="output directory")
    gen.add_argument("--runs", type=int, default=4)
    gen.add_argument("--particles", type=int, default=4000)
    gen.add_argument("--steps", default="0,124,249,374,498,624",
                     help="comma-separated timesteps in [0, 624]")
    gen.add_argument("--seed", type=int, default=20250)
    gen.add_argument("--no-particles", action="store_true",
                     help="skip writing particle files (catalogs only)")

    info = sub.add_parser("info", help="describe an ensemble")
    info.add_argument("--ensemble", required=True)

    query = sub.add_parser("query", help="answer one natural-language question")
    query.add_argument("question")
    query.add_argument("--ensemble", required=True)
    query.add_argument("--workdir", default="infera_workspace")
    query.add_argument("--seed", type=int, default=0)
    query.add_argument("--no-errors", action="store_true",
                       help="disable the calibrated LLM-error injection")
    query.add_argument("--parallel-viz", action="store_true")
    query.add_argument("--qa-mode", choices=("score", "binary"), default="score")
    query.add_argument("--live", action="store_true",
                       help="stream span completions to stderr as they happen")
    query.add_argument("--token-budget", type=int, default=None,
                       help="hard per-session token ceiling; exceeding it ends "
                            "the session as a classified 'budget-exceeded' failure")

    evaluate = sub.add_parser("eval", help="run the 20-question evaluation (Table 2)")
    evaluate.add_argument("--ensemble", required=True)
    evaluate.add_argument("--workdir", default="infera_eval")
    evaluate.add_argument("--runs-per-question", type=int, default=3)
    evaluate.add_argument("--seed", type=int, default=7)
    evaluate.add_argument("--workers", type=int, default=1,
                          help="worker processes for the run grid "
                               "(1 = sequential, 0 = one per CPU core)")
    evaluate.add_argument("--chaos", choices=("off", "light", "heavy"), default="off",
                          help="inject deterministic infrastructure faults at the "
                               "named intensity; the resilience layer must absorb "
                               "them (fault counters are reported after the table)")
    evaluate.add_argument("--live", action="store_true",
                          help="stream cell/session completions to stderr as they "
                               "happen (the merged trace is written once, at the "
                               "end, either way)")

    sql = sub.add_parser("sql", help="run SQL against an analysis database")
    sql.add_argument("statement")
    sql.add_argument("--db", required=True)

    trace = sub.add_parser("trace", help="inspect a recorded execution trace")
    trace.add_argument("action", choices=("summary", "tree", "export"),
                       help="summary: per-phase wall time + token counters; "
                            "tree: indented span tree; export: rewrite the trace")
    trace.add_argument("path",
                       help="trace .jsonl file, or a directory containing one "
                            "(a provenance session dir or an eval workdir)")
    trace.add_argument("--chrome", action="store_true",
                       help="export in Chrome trace format (chrome://tracing / Perfetto)")
    trace.add_argument("--out", default=None, help="export output path")

    cache = sub.add_parser("cache", help="inspect or clear the shared caches")
    cache.add_argument("action", choices=("stats", "clear"),
                       help="stats: on-disk footprint + the tiered hit/miss counters "
                            "recorded in the workdir's metrics.json; "
                            "clear: drop in-process tiers and on-disk entries")
    cache.add_argument("--workdir", default="infera_workspace",
                       help="workdir whose .query_cache/.retrieval_cache to report")

    cost = sub.add_parser("cost", help="report a run's LLM spend")
    cost.add_argument("path",
                      help="trace .jsonl file or a workdir containing one "
                           "(spend is read from its llm.chat spans)")
    cost.add_argument("--by", choices=("agent", "node", "session", "attempt", "level"),
                      default="agent",
                      help="attribution field for the breakdown table")

    profile = sub.add_parser(
        "profile", help="answer one question under the sampling profiler"
    )
    profile.add_argument("question")
    profile.add_argument("--ensemble", required=True)
    profile.add_argument("--workdir", default="infera_profile")
    profile.add_argument("--seed", type=int, default=0)
    profile.add_argument("--no-errors", action="store_true")
    profile.add_argument("--hz", type=float, default=100.0,
                         help="sampling frequency (default 100 Hz)")
    profile.add_argument("--out", default=None,
                         help="output base path; writes <out>.collapsed and "
                              "<out>.svg (default <workdir>/profile)")

    slo = sub.add_parser("slo", help="check SLO budgets against a trace")
    slo.add_argument("action", choices=("check",),
                     help="check: evaluate the policy and exit 1 on violations")
    slo.add_argument("path", help="trace .jsonl file or a workdir containing one")
    slo.add_argument("--policy", default=None,
                     help="policy JSON file (default: the built-in "
                          "machine-independent policy)")

    chat = sub.add_parser(
        "chat", help="interactive session with plan review (the paper's intended mode)"
    )
    chat.add_argument("--ensemble", required=True)
    chat.add_argument("--workdir", default="infera_chat")
    chat.add_argument("--seed", type=int, default=0)
    chat.add_argument("--no-errors", action="store_true")

    serve = sub.add_parser(
        "serve", help="long-running multi-tenant HTTP server over one warm process"
    )
    serve.add_argument("--ensemble", required=True)
    serve.add_argument("--workdir", default="infera_serve")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8642,
                       help="listen port (0 = pick a free one)")
    serve.add_argument("--app-workers", type=int, default=4,
                       help="queries executing at once")
    serve.add_argument("--queue-depth", type=int, default=32,
                       help="how many requests may wait for a slot; beyond it "
                            "requests get a structured 429 with a retry-after hint")
    serve.add_argument("--request-timeout", type=float, default=120.0,
                       help="per-request deadline in seconds (the wait for a slot counts)")
    serve.add_argument("--token-budget", type=int, default=None,
                       help="hard per-request token ceiling; exceeding it ends "
                            "the request as a classified 'budget-exceeded' failure")
    serve.add_argument("--seed", type=int, default=0)
    serve.add_argument("--no-errors", action="store_true",
                       help="disable the calibrated LLM-error injection")
    serve.add_argument("--llm-latency", type=float, default=0.0,
                       help="simulated seconds per LLM call (models a hosted "
                            "API; makes requests latency- rather than "
                            "CPU-bound, which is what concurrent slots overlap)")
    serve.add_argument("--sandbox-workers", type=int, default=None,
                       help="warm sandbox fleet size shared by all sessions "
                            "(0 = one per core; default: REPRO_SANDBOX_WORKERS "
                            "or no fleet)")
    serve.add_argument("--sandbox-spawn", choices=("thread", "process"),
                       default=None,
                       help="how fleet workers materialize: in-process "
                            "servers (thread) or separate interpreters "
                            "(process); default thread")

    ingest = sub.add_parser(
        "ingest",
        help="append generated snapshots to a live ensemble (WAL-protected)",
    )
    ingest.add_argument("--ensemble", required=True,
                        help="ensemble root to extend (must carry a generator "
                             "block, i.e. written by this repro version)")
    ingest.add_argument("--db", default=None,
                        help="live analysis database path "
                             "(default <ensemble>/live.db)")
    ingest.add_argument("--step", type=int, default=None,
                        help="timestep to ingest (default: last + --spacing)")
    ingest.add_argument("--count", type=int, default=1,
                        help="how many consecutive snapshots to ingest")
    ingest.add_argument("--spacing", type=int, default=25,
                        help="timestep spacing when --step is not given")
    ingest.add_argument("--bootstrap", action="store_true",
                        help="first load every already-generated snapshot "
                             "into empty live tables")
    ingest.add_argument("--server", default=None,
                        help="POST to a running `repro serve` at this URL "
                             "instead of ingesting locally")
    ingest.add_argument("--chaos", choices=("off", "light", "heavy"),
                        default="off",
                        help="arm the simulated-death fault points at the "
                             "named intensity; the WAL recovery loop must "
                             "absorb every kill (local mode only)")
    ingest.add_argument("--seed", type=int, default=0,
                        help="chaos schedule seed")

    sandbox = sub.add_parser("sandbox", help="inspect the warm sandbox fleet")
    sandbox.add_argument("action", choices=("stats",),
                         help="stats: the route/trip/respawn/fallback counters "
                              "recorded in the workdir's metrics.json")
    sandbox.add_argument("--workdir", default="infera_serve",
                         help="workdir whose metrics.json to report (written "
                              "when `repro serve` drains, and by `repro eval`)")

    return parser


def cmd_generate(args: argparse.Namespace) -> int:
    from repro.sim import EnsembleSpec, generate_ensemble

    steps = tuple(int(s) for s in args.steps.split(","))
    spec = EnsembleSpec(
        n_runs=args.runs,
        n_particles=args.particles,
        timesteps=steps,
        seed=args.seed,
        write_particles=not args.no_particles,
    )
    ensemble = generate_ensemble(args.out, spec)
    print(ensemble.describe())
    return 0


def cmd_info(args: argparse.Namespace) -> int:
    from repro.sim.ensemble import Ensemble

    print(Ensemble(args.ensemble).describe())
    return 0


def _live(args: argparse.Namespace):
    """The listener printing span completions to stderr under ``--live``."""
    if not args.live:
        return None
    from repro.obs.events import LiveRenderer

    return LiveRenderer(stream=sys.stderr, verbose=args.verbose > 0)


def _config(args: argparse.Namespace, **fields):
    """The ``InferAConfig`` of a command that takes --seed / --no-errors."""
    from repro.core.config import InferAConfig
    from repro.llm.errors import NO_ERRORS, ErrorModel

    return InferAConfig(
        seed=args.seed,
        error_model=NO_ERRORS if args.no_errors else ErrorModel(),
        **fields,
    )


def _assistant(args: argparse.Namespace, **fields):
    from repro.core.app import InferA
    from repro.sim.ensemble import Ensemble

    return InferA(Ensemble(args.ensemble), args.workdir, _config(args, **fields))


@contextmanager
def _process_span(args: argparse.Namespace):
    """The process-root span of ``repro query`` / ``repro eval``.

    It starts where ``python -m repro`` stamped the clock, before the
    first ``repro`` import, and ``import_s`` is how much of it had gone by
    when the handler had imported its subsystem; the session (or suite)
    span parents under it and inherits the ``--live`` listener.  Yields
    the span, finished on exit, for the handler to write beside the trace
    it parents.
    """
    import uuid

    from repro.obs.names import CLI_PROCESS_SPAN
    from repro.obs.tracer import TraceContext, Tracer, use_tracer

    tracer = Tracer(context=TraceContext(uuid.uuid4().hex, None, _live(args)))
    ready = tracer.clock.now()
    span = tracer.start_span(
        CLI_PROCESS_SPAN, command=args.command, import_s=ready - args.process_start
    )
    span.start = args.process_start
    with use_tracer(tracer):
        try:
            yield span
        finally:
            tracer.listener = None  # --live reports the work, not the process
            tracer.end_span(span)


def cmd_query(args: argparse.Namespace) -> int:
    from repro.obs.export import token_totals, write_jsonl

    app = _assistant(
        args,
        parallel_viz=args.parallel_viz,
        qa_mode=args.qa_mode,
        token_budget=args.token_budget,
    )
    log.info("running query against %s (seed=%d)", args.ensemble, args.seed)
    try:
        with _process_span(args) as process:
            report = app.run_query(args.question)
    finally:
        app.close()  # stop any sandbox fleet
    # the whole process as one trace at the workdir root, where an eval
    # workdir keeps its merged trace; the session's own stays in its trail
    write_jsonl([process, *report.trace_spans], Path(args.workdir) / "trace.jsonl")
    log.debug("trace: %d spans recorded under %s", len(report.trace_spans), report.session_dir)
    print(f"completed: {report.completed}")
    print(f"steps: {sum(1 for s in report.run.steps if s.status == 'ok')}/{report.run.plan_size} ok")
    llm_s = report.run.llm_latency_s
    print(f"tokens: {report.tokens:,}  storage: {report.storage_bytes:,} bytes  "
          f"time: {report.time_s - llm_s:.2f} s wall + {llm_s:.1f} s simulated LLM")
    spend = token_totals(report.trace_spans)
    if spend["calls"]:
        print(f"cost: ${spend['cost_usd']:.4f} over {spend['calls']} LLM calls "
              f"({spend['total_tokens']:,} tokens)")
    if report.run.failure:
        print(f"failure: {report.run.failure}")
    if report.run.load_report:
        print(f"ensemble bytes read: {report.run.load_report.bytes_selected:,} "
              f"({report.run.load_report.selectivity:.3%})")
    work = report.tables.get("work")
    if work is not None:
        print(work)
    for i, svg in enumerate(report.figures):
        path = Path(args.workdir) / f"figure_{i}.svg"
        path.write_text(svg)
        print(f"figure: {path}")
    print(f"provenance: {report.session_dir}")
    return 0 if report.completed else 1


def cmd_eval(args: argparse.Namespace) -> int:
    from repro.eval.harness import EvaluationHarness, HarnessConfig
    from repro.eval.reporting import format_table2
    from repro.faults import FaultProfile
    from repro.obs.export import token_totals
    from repro.sim.ensemble import Ensemble

    chaos = args.chaos
    fault_profile = (
        FaultProfile.named(chaos, seed=args.seed) if chaos != "off" else None
    )
    harness = EvaluationHarness(
        Ensemble(args.ensemble),
        args.workdir,
        HarnessConfig(
            runs_per_question=args.runs_per_question,
            seed=args.seed,
            workers=args.workers,
            fault_profile=fault_profile,
        ),
    )
    with _process_span(args) as process:
        result = harness.run_suite()
    if result.trace_path is not None:
        with result.trace_path.open("a") as fh:
            fh.write(json.dumps(process.as_dict()) + "\n")
    print(format_table2(result.aggregator.table2_rows()))
    perf = result.perf
    if perf is not None:
        cache = perf.cache
        log.info("[perf] workers=%d runs=%d wall=%.2fs throughput=%.2f runs/s",
                 perf.workers, len(result.metrics), perf.total_wall_s, perf.runs_per_s)
        log.info("[perf] retrieval cache: %d hits (%d memory, %d disk), %d builds; "
                 "query memo %d/%d hits",
                 cache.matrix_hits, cache.memory_hits, cache.disk_hits, cache.builds,
                 cache.query_memo_hits, cache.query_memo_hits + cache.query_memo_misses)
        qc = perf.query_cache
        log.info("[perf] query cache: %d hits (%d memory, %d disk, %d incremental), "
                 "%d misses (%.1f%% hit ratio); %d invalidations",
                 qc.hits, qc.memory_hits, qc.disk_hits, qc.incremental_hits,
                 qc.misses, 100.0 * qc.hit_ratio, qc.invalidations)
        spend = token_totals(result.spans)
        if spend["calls"]:
            log.info("[cost] $%.4f over %d LLM calls (%s tokens); "
                     "details: repro cost %s",
                     spend["cost_usd"], spend["calls"],
                     f"{spend['total_tokens']:,}", args.workdir)
        if chaos != "off" or perf.fault_counters:
            counters = perf.fault_counters
            injected = counters.get("faults.injected", 0)
            print(f"chaos[{chaos}]: {injected} faults injected")
            for name, value in counters.items():
                print(f"  {name} = {value}")
        for phase, agg in perf.span_rollups.items():
            log.debug("[trace] %-12s %4d spans %8.3f s %d errors",
                      phase, int(agg["spans"]), agg["total_s"], int(agg["errors"]))
    if result.trace_path is not None:
        log.info("merged trace: %s (%d spans)", result.trace_path, len(result.spans))
    return 0


def cmd_cache(args: argparse.Namespace) -> int:
    from repro.db import cache as query_cache
    from repro.obs.metrics import SnapshotUnreadable, read_snapshot_counters
    from repro.rag import cache as rag_cache

    workdir = Path(args.workdir)
    stores = {
        "query result cache": query_cache.QueryResultCache(workdir / ".query_cache").store,
        "retrieval artifact cache":
            rag_cache.RetrievalArtifactCache(workdir / ".retrieval_cache").store,
    }

    if args.action == "clear":
        query_cache.clear_memory_cache()
        rag_cache.clear_memory_cache()
        for label, store in stores.items():
            size = store.footprint_bytes()
            print(f"{label}: dropped {store.clear_disk()} entries "
                  f"({size:,} bytes) under {store.directory}")
        return 0

    if not any(store.directory.is_dir() for store in stores.values()):
        # a fresh or foreign workdir: say so instead of a wall of zeros
        print(f"no caches under {workdir} (neither "
              f"{' nor '.join(store.directory.name for store in stores.values())} "
              f"exists yet); run a query or the eval harness first")
        return 0

    # counters live in the process that counted them: a later process
    # can only report what a run persisted (the harness's metrics.json)
    metrics_path = workdir / "metrics.json"
    try:
        counters = read_snapshot_counters(metrics_path)
    except SnapshotUnreadable as exc:
        print(f"unreadable: {exc}")
        return 1
    counter_lines: dict[str, list[str]] = {label: [] for label in stores}
    if counters is not None:
        qstats = query_cache.QueryCacheStats.from_counters(counters)
        rstats = rag_cache.CacheStats.from_counters(counters)
        counter_lines["query result cache"] = [
            f"counters: memory={qstats.memory_hits} disk={qstats.disk_hits} "
            f"incremental={qstats.incremental_hits} miss={qstats.misses} "
            f"(hit ratio {qstats.hit_ratio:.1%} of {qstats.requests})",
            f"stores={qstats.stores} evictions={qstats.evictions} "
            f"invalidations={qstats.invalidations} quarantined={qstats.quarantined}",
        ]
        counter_lines["retrieval artifact cache"] = [
            f"counters: memory={rstats.memory_hits} disk={rstats.disk_hits} "
            f"builds={rstats.builds}",
            f"query memo: {rstats.query_memo_hits}/"
            f"{rstats.query_memo_hits + rstats.query_memo_misses} hits, "
            f"{rstats.query_memo_evictions} evictions",
        ]
    for label, store in stores.items():
        print(f"{label} ({store.directory})")
        print(f"  disk: {len(store.entries())} entries, {store.footprint_bytes():,} bytes")
        quarantined = len(store.quarantined())
        if quarantined:
            print(f"  quarantined: {quarantined} corrupt entries moved aside")
        for line in counter_lines[label]:
            print(f"  {line}")
    if counters is None:
        print(f"no counters: {metrics_path.name} is written by `repro eval`")
    return 0


def cmd_sql(args: argparse.Namespace) -> int:
    from repro.db.database import Database

    db = Database(args.db)
    result = db.query(args.statement)
    print(result)
    stats = db.last_scan_stats
    if stats.row_groups_total:
        print(f"(scanned {stats.row_groups_total - stats.row_groups_skipped}"
              f"/{stats.row_groups_total} row groups; "
              f"skipped {stats.row_groups_skipped_zone} by zone map, "
              f"{stats.row_groups_skipped_bloom} by bloom filter; "
              f"{stats.columns_read} columns read; "
              f"{stats.morsels_executed} morsels)")
    return 0


class _StdinFeedback:
    """Human plan review on the terminal.

    Shows the proposed plan; an empty line (or 'y') approves, anything
    else is treated as a refinement directive for the next planning round.
    """

    def __init__(self, prompt_fn=None, echo=print):
        # resolve `input` lazily so test monkeypatching takes effect
        self._prompt = prompt_fn or (lambda text: input(text))
        self._echo = echo

    def review(self, plan_doc: dict) -> tuple[bool, str]:
        self._echo("\nproposed plan:")
        for step in plan_doc.get("steps", []):
            self._echo(f"  {step['index']}. [{step['kind']}] {step['description']}")
        answer = self._prompt("approve? [enter=yes / feedback]: ").strip()
        if answer.lower() in ("", "y", "yes"):
            return True, "approved"
        return False, answer


def cmd_chat(args: argparse.Namespace) -> int:
    app = _assistant(args)
    print("InferA interactive session. Empty question quits.")
    while True:
        try:
            question = input("\nquestion> ").strip()
        except EOFError:
            break
        if not question:
            break
        report = app.run_query(question, feedback=_StdinFeedback())
        status = "completed" if report.completed else "FAILED"
        print(f"[{status}] {report.tokens:,} tokens, "
              f"{report.storage_bytes:,} bytes provenance")
        work = report.tables.get("work")
        if work is not None:
            print(work)
        for i, svg in enumerate(report.figures):
            path = Path(args.workdir) / f"chat_figure_{i}.svg"
            path.write_text(svg)
            print(f"figure: {path}")
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs.export import (
        TraceUnreadable,
        read_spans,
        render_tree,
        summarize,
        write_chrome_trace,
        write_jsonl,
    )

    try:
        spans = read_spans(args.path)
    except FileNotFoundError:
        # a fresh workdir simply has no trace yet; that's a state to
        # report, not a stack trace
        print(f"no trace yet under {args.path} "
              f"(run a query or the eval harness first)")
        return 0
    except TraceUnreadable as exc:
        print(f"unreadable: {exc}")
        return 1
    if not spans:
        print(f"trace at {args.path} is empty (no spans recorded yet)")
        return 0
    if args.action == "summary":
        print(summarize(spans))
    elif args.action == "tree":
        print(render_tree(spans))
    else:  # export
        if args.chrome:
            out = Path(args.out or "trace_chrome.json")
            nbytes = write_chrome_trace(spans, out)
        else:
            out = Path(args.out or "trace_export.jsonl")
            nbytes = write_jsonl(spans, out)
        log.info("wrote %d spans (%d bytes)", len(spans), nbytes)
        print(out)
    return 0


def cmd_cost(args: argparse.Namespace) -> int:
    from repro.obs.export import (
        TraceUnreadable,
        find_trace_file,
        growth_curve,
        llm_spend,
        read_spans,
        token_totals,
    )

    try:
        trace = find_trace_file(args.path)
        spans = read_spans(trace)
    except FileNotFoundError:
        print(f"no trace under {args.path} (run a query or the eval harness first)")
        return 0
    except TraceUnreadable as exc:
        print(f"unreadable: {exc}")
        return 1
    totals = token_totals(spans)
    print(f"llm spend in {trace}")
    print(f"  total: ${totals['cost_usd']:.4f} over {totals['calls']} LLM calls, "
          f"{totals['total_tokens']:,} tokens "
          f"({totals['prompt_tokens']:,} prompt + "
          f"{totals['completion_tokens']:,} completion)")
    print(f"\nby {args.by}:")
    print(f"  {args.by:<16} {'calls':>6} {'tokens':>10} {'usd':>10}")
    for (name,), entry in llm_spend(spans, args.by).items():
        print(f"  {name:<16} {entry['calls']:>6} {entry['total_tokens']:>10,} "
              f"{entry['cost_usd']:>10.4f}")
    curve = growth_curve(spans)
    if curve:
        # the paper's §4.5 view: token spend per redo attempt, by tier
        print("\ntoken growth per redo attempt (by difficulty tier):")
        for level, tier in curve.items():
            steps = "  ".join(f"attempt {a}: {t:,}" for a, t in tier.items())
            print(f"  level {level}: {steps}")
    return 0


def cmd_profile(args: argparse.Namespace) -> int:
    from repro.obs.names import PROFILE_CAPTURE_SPAN
    from repro.obs.profiler import SamplingProfiler, write_profile
    from repro.obs.tracer import Tracer, use_tracer

    app = _assistant(args)
    profiler = SamplingProfiler(hz=args.hz)
    # an outer tracer so the capture is a (canonical-excluded) span the
    # session trace hangs under, exactly like harness-embedded profiling
    tracer = Tracer()
    with use_tracer(tracer), tracer.span(PROFILE_CAPTURE_SPAN, hz=args.hz) as sp:
        with profiler:
            report_q = app.run_query(args.question)
        sp.set(samples=profiler.report.samples)
    prof = profiler.report
    out_base = Path(args.out) if args.out else Path(args.workdir) / "profile"
    collapsed, svg = write_profile(prof, out_base, title=f"repro: {args.question}")
    print(f"query completed: {report_q.completed}")
    print(f"profile: {prof.samples} samples at {args.hz:g} Hz "
          f"({len(prof.stacks)} unique stacks, {prof.dropped_stacks} dropped)")
    if prof.span_samples:
        ranked = sorted(prof.span_samples.items(), key=lambda kv: (-kv[1], kv[0]))
        print("time by enclosing span:")
        for name, count in ranked[:8]:
            print(f"  {name or '(outside spans)':<24} {count:>6}")
    for leaf, count in prof.top_functions(8):
        print(f"  hot: {leaf} ({count})")
    print(f"collapsed stacks: {collapsed}")
    print(f"flamegraph: {svg}")
    return 0


def cmd_slo(args: argparse.Namespace) -> int:
    from repro.obs.export import TraceUnreadable
    from repro.obs.slo import SLOPolicy, check_workdir

    try:
        policy = SLOPolicy.from_json(args.policy) if args.policy else SLOPolicy.default()
    except ValueError as exc:
        print(f"cannot use policy {args.policy}: {exc}")
        return 1
    try:
        report = check_workdir(args.path, policy=policy)
    except FileNotFoundError:
        print(f"no trace yet under {args.path} "
              f"(run a query or the eval harness first)")
        return 0
    except TraceUnreadable as exc:
        print(f"unreadable: {exc}")
        return 1
    print(report.render())
    return 0 if report.ok else 1


def cmd_sandbox(args: argparse.Namespace) -> int:
    from repro.obs.metrics import SnapshotUnreadable, read_snapshot_counters
    from repro.sandbox.fleet import FleetStats

    # like `repro cache stats`: a later process can only report what a run
    # persisted, and live per-member state is in the server's /stats
    metrics_path = Path(args.workdir) / "metrics.json"
    try:
        counters = read_snapshot_counters(metrics_path)
    except SnapshotUnreadable as exc:
        print(f"unreadable: {exc}")
        return 1
    if counters is None:
        print(f"no counters under {args.workdir}: {metrics_path.name} is written "
              f"when `repro serve` drains and by `repro eval`; for a `repro query` "
              f"workdir, `repro trace summary {args.workdir}` has a sandbox fleet line")
        return 0
    fleet = FleetStats.from_counters(counters)
    print(f"sandbox fleet ({metrics_path})")
    print(f"  counters: routes={fleet.routes} trips={fleet.trips} "
          f"respawns={fleet.respawns} fallbacks={fleet.fallbacks}")
    return 0


def _ingest_remote(args: argparse.Namespace) -> int:
    """Drive a running server's ``POST /v1/ingest`` (admission-controlled)."""
    import urllib.error
    import urllib.request

    url = args.server.rstrip("/") + "/v1/ingest"
    step = args.step
    for _ in range(max(1, args.count)):
        body = json.dumps({"step": step} if step is not None else {}).encode()
        request = urllib.request.Request(
            url, data=body, headers={"Content-Type": "application/json"}
        )
        try:
            with urllib.request.urlopen(request, timeout=300.0) as response:
                doc = json.loads(response.read().decode())
        except urllib.error.HTTPError as exc:
            detail = exc.read().decode(errors="replace")
            print(f"server refused ingest ({exc.code}): {detail}")
            return 1
        except (urllib.error.URLError, OSError) as exc:
            print(f"cannot reach {url}: {exc}")
            return 1
        report = doc.get("report", {})
        print(f"committed step {report.get('step')} "
              f"(ensemble v{report.get('ensemble_version')}, "
              f"{sum(report.get('rows', {}).values())} rows, "
              f"{report.get('kills', 0)} kills absorbed, "
              f"{report.get('wall_s', 0.0):.3f} s)")
        step = None if args.step is None else step + args.spacing
    return 0


def cmd_ingest(args: argparse.Namespace) -> int:
    from repro import faults
    from repro.sim.ingest import StreamingIngester

    if args.server:
        return _ingest_remote(args)

    chaos = args.chaos != "off"
    ingester = StreamingIngester(
        args.ensemble,
        db_path=args.db,
        arm_faults=chaos,
    )
    injector = faults.FaultInjector(faults.FaultProfile.named(args.chaos, seed=args.seed))
    with faults.use_faults(injector):
        recovery = ingester.recover()
        if any(recovery.values()):
            print(f"settled interrupted commit: {recovery}")
        if args.bootstrap:
            rows = ingester.bootstrap()
            if rows:
                loaded = ", ".join(f"{k}={v}" for k, v in sorted(rows.items()))
                print(f"bootstrapped live tables: {loaded}")
        step = args.step
        committed = 0
        for _ in range(max(1, args.count)):
            try:
                report = ingester.ingest_step_resilient(step)
            except ValueError as exc:
                # off-grid / exhausted-grid / non-monotonic step requests
                print(f"ingest refused: {exc}")
                if not committed:
                    return 1
                break
            committed += 1
            print(f"committed step {report.step} "
                  f"(ensemble v{report.ensemble_version}, "
                  f"{sum(report.rows.values())} rows, "
                  f"{report.kills} kills absorbed, {report.wall_s:.3f} s)")
            step = None if args.step is None else report.step + args.spacing
    doc = ingester.stats()
    tables = ", ".join(
        f"{k} v{v['version']} ({v['rows']} rows)"
        for k, v in sorted(doc["tables"].items())
    )
    print(f"live database: {tables or 'no tables'}")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve.server import ReproServer
    from repro.sim.ensemble import Ensemble

    server = ReproServer(
        Ensemble(args.ensemble),
        args.workdir,
        _config(
            args,
            token_budget=args.token_budget,
            llm_latency_s=args.llm_latency,
            sandbox_workers=args.sandbox_workers,
            sandbox_spawn=args.sandbox_spawn,
        ),
        host=args.host,
        port=args.port,
        app_workers=args.app_workers,
        queue_depth=args.queue_depth,
        request_timeout_s=args.request_timeout,
    )
    report = server.start()
    print(report.render())
    print(f"serving {args.ensemble} at {server.url} "
          f"({args.app_workers} queries at once, queue depth {args.queue_depth})")
    print("POST /v1/query   POST /v1/ingest   GET /healthz   GET /stats   "
          "(ctrl-c drains and exits)")
    try:
        while True:
            time.sleep(1.0)
    except KeyboardInterrupt:
        print("\ndraining...", file=sys.stderr)
    manifest = server.shutdown()
    stats = server.registry.stats()
    print(f"served {stats['requests']} requests across {stats['sessions']} sessions "
          f"({stats['completed']} completed, {stats['failed']} failed)")
    print(f"sessions checkpointed: {manifest}")
    return 0


_COMMANDS = {
    "generate": cmd_generate,
    "info": cmd_info,
    "query": cmd_query,
    "eval": cmd_eval,
    "sql": cmd_sql,
    "cache": cmd_cache,
    "chat": cmd_chat,
    "trace": cmd_trace,
    "cost": cmd_cost,
    "profile": cmd_profile,
    "slo": cmd_slo,
    "serve": cmd_serve,
    "sandbox": cmd_sandbox,
    "ingest": cmd_ingest,
}


def main(argv: list[str] | None = None, process_start: float | None = None) -> int:
    """Run one command; ``process_start`` is the ``WallClock`` reading
    ``python -m repro`` took before importing this module (now, if absent)."""
    if process_start is None:
        process_start = WallClock().now()
    args = build_parser().parse_args(argv)
    args.process_start = process_start
    # pass the stream explicitly so repeated in-process invocations (tests,
    # embedding apps) follow the current sys.stderr rather than a stale one
    setup_logging(args.verbose - args.quiet, stream=sys.stderr)
    try:
        return _COMMANDS[args.command](args)
    except BrokenPipeError:
        # stdout consumer went away (e.g. `repro trace tree ... | head`)
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
