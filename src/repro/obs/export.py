"""Trace exporters and analyzers.

Two output formats:

* **JSONL** — one span dict per line, the provenance-native format.  Each
  session's trace is registered on its provenance trail with
  ``kind="trace"``, so the trail is self-describing: the artifacts *and*
  the execution that produced them.
* **Chrome trace format** — a ``traceEvents`` JSON document loadable in
  ``chrome://tracing`` / Perfetto for flame views of a run.

Plus the read-side helpers the ``repro trace`` / ``repro cost`` CLI and
the harness rollups share: per-phase wall-time rollups, LLM spend from
``llm.chat`` spans attributed through their ancestors, an indented tree
renderer, and a timing-free canonical tree used to
assert that a parallel evaluation produced the same span structure as a
sequential one.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from repro.obs.names import (
    CANONICAL_EXCLUDED_SPANS,
    CLI_PROCESS_SPAN,
    INGEST_STEP_SPAN,
    LLM_CHAT_SPAN,
    NODE_SPAN_PREFIX,
    PLAN_SPAN,
    QA_SPAN,
    SESSION_SPAN,
    SQL_EXECUTE_SPAN,
    STEP_SPAN_PREFIX,
    SUPERVISOR_SPAN,
    WAL_RECOVER_SPAN,
    is_canonical_excluded_attr,
)
from repro.obs.tracer import Span

SpanLike = Span | dict


def _as_dict(span: SpanLike) -> dict[str, Any]:
    return span.as_dict() if isinstance(span, Span) else span


# ----------------------------------------------------------------------
# JSONL
# ----------------------------------------------------------------------
def write_jsonl(spans: list[SpanLike], path: str | Path) -> int:
    """Write one span per line; returns bytes written."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = "".join(json.dumps(_as_dict(s)) + "\n" for s in spans)
    data = payload.encode("utf-8")
    path.write_bytes(data)
    return len(data)


def find_trace_file(path: str | Path) -> Path:
    """Resolve a trace file from a path that may be a session directory.

    Directories are searched for provenance-registered ``*trace.jsonl``
    files (latest sequence number wins, matching "the session's trace").
    An eval workdir and a ``repro query`` workdir hold the process's
    ``trace.jsonl`` at their root; a workdir the library wrote keeps its
    traces one level down, in the ``query_NNN_*`` session directories,
    and the latest session's trace wins.
    """
    path = Path(path)
    if path.is_file():
        return path
    if path.is_dir():
        candidates = sorted(path.glob("*trace.jsonl")) or sorted(
            path.glob("*/*trace.jsonl")
        )
        if candidates:
            return candidates[-1]
        raise FileNotFoundError(f"no *trace.jsonl under {path}")
    raise FileNotFoundError(f"no trace at {path}")


class TraceUnreadable(ValueError):
    """A trace file line that is not a span, such as a torn last line."""


def read_spans(path: str | Path) -> list[dict[str, Any]]:
    """Load span dicts from a trace file or a session directory; a line
    that is not a span raises :class:`TraceUnreadable` naming it."""
    trace_path = find_trace_file(path)
    spans: list[dict[str, Any]] = []
    with trace_path.open("rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                span = json.loads(line)
            except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
                raise TraceUnreadable(f"{trace_path}:{lineno}: not JSON ({exc})") from None
            if not isinstance(span, dict):
                raise TraceUnreadable(f"{trace_path}:{lineno}: not a span object")
            spans.append(span)
    return spans


# ----------------------------------------------------------------------
# Chrome trace format (chrome://tracing, Perfetto)
# ----------------------------------------------------------------------
def to_chrome_trace(spans: list[SpanLike]) -> dict[str, Any]:
    """Complete ('ph': 'X') events; timestamps in microseconds."""
    events: list[dict[str, Any]] = []
    for raw in spans:
        span = _as_dict(raw)
        args = dict(span.get("attributes", {}))
        args["span_id"] = span.get("span_id", "")
        if span.get("parent_id"):
            args["parent_id"] = span["parent_id"]
        if span.get("status") == "error":
            args["error"] = f"{span.get('error_type', '')}: {span.get('error_message', '')}"
        events.append(
            {
                "name": span.get("name", ""),
                "cat": span.get("name", "").split(".")[0] or "span",
                "ph": "X",
                "ts": round(float(span.get("start", 0.0)) * 1e6, 3),
                "dur": round(float(span.get("duration", 0.0)) * 1e6, 3),
                "pid": 1,
                "tid": _tid_of(span),
                "args": args,
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def _tid_of(span: dict[str, Any]) -> int:
    """Stable small lane number per span-id prefix (one per tracer, which
    in practice means one per worker process)."""
    prefix = str(span.get("span_id", "")).split("-")[0]
    return (int(prefix, 16) % 997) + 1 if prefix else 1


def chrome_trace_json(spans: list[SpanLike]) -> str:
    """Deterministically formatted Chrome trace document."""
    return json.dumps(to_chrome_trace(spans), indent=1, sort_keys=True)


def write_chrome_trace(spans: list[SpanLike], path: str | Path) -> int:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    data = chrome_trace_json(spans).encode("utf-8")
    path.write_bytes(data)
    return len(data)


# ----------------------------------------------------------------------
# rollups and views
# ----------------------------------------------------------------------
def phase_of(name: str) -> str:
    """Rollup phase of a span name: the prefix before the first dot."""
    return name.split(".")[0] if name else "?"


def phase_rollups(spans: list[SpanLike]) -> dict[str, dict[str, float]]:
    """Per-phase span count, total wall seconds, and error count."""
    rollups: dict[str, dict[str, float]] = {}
    for raw in spans:
        span = _as_dict(raw)
        phase = phase_of(span.get("name", ""))
        agg = rollups.setdefault(phase, {"spans": 0, "total_s": 0.0, "errors": 0})
        agg["spans"] += 1
        agg["total_s"] += float(span.get("duration", 0.0))
        if span.get("status") == "error":
            agg["errors"] += 1
    return dict(sorted(rollups.items()))


# whose spend one LLM exchange was, in key order: ``repro cost --by``
# folds on one of these (see _attribution)
SPEND_FIELDS = ("session", "agent", "node", "attempt", "level")
_NO_SPEND = {
    "calls": 0, "prompt_tokens": 0, "completion_tokens": 0,
    "total_tokens": 0, "cost_usd": 0.0,
}


def _attribution(span: dict[str, Any], by_id: dict[str, dict]) -> dict[str, str]:
    """The spend fields of one ``llm.chat`` span: its ``skill`` is the
    agent, and the nearest ancestor of each kind names the rest — the
    session, the graph node (``plan`` while planning), the redo attempt
    of the step or QA verdict, and the plan's semantic level."""
    found = {"agent": str(span.get("attributes", {}).get("skill", "?"))}
    ancestor = by_id.get(span.get("parent_id"))
    while ancestor is not None:
        name, attrs = ancestor.get("name", ""), ancestor.get("attributes", {})
        if name == SESSION_SPAN:
            found.setdefault("session", str(attrs.get("session_id", "?")))
        elif name.startswith(NODE_SPAN_PREFIX):
            found.setdefault("node", name[len(NODE_SPAN_PREFIX):])
        elif name == PLAN_SPAN:
            found.setdefault("node", "plan")
        elif name.startswith(STEP_SPAN_PREFIX) or name == QA_SPAN:
            found.setdefault("attempt", str(attrs.get("attempt", "?")))
        elif name == SUPERVISOR_SPAN:
            found.setdefault("level", str(attrs.get("semantic_level", "?")))
        ancestor = by_id.get(ancestor.get("parent_id"))
    return found


def llm_spend(spans: list[SpanLike], *fields: str) -> dict[tuple[str, ...], dict[str, Any]]:
    """LLM spend folded by attribution, read from ``llm.chat`` spans.

    Returns ``{key: {calls, prompt_tokens, completion_tokens,
    total_tokens, cost_usd}}`` sorted by key, one key per distinct tuple
    of ``fields`` values (:data:`SPEND_FIELDS`); no fields folds everything
    into the ``()`` key.  A field no ancestor declares is ``"?"``.
    """
    unknown = sorted(set(fields) - set(SPEND_FIELDS))
    if unknown:
        raise ValueError(f"unknown spend field(s) {unknown}: use {SPEND_FIELDS}")
    dicts = [_as_dict(s) for s in spans]
    by_id = {s.get("span_id"): s for s in dicts} if fields else {}
    spend: dict[tuple[str, ...], dict[str, Any]] = {}
    for span in dicts:
        if span.get("name") != LLM_CHAT_SPAN:
            continue
        attrs = span.get("attributes", {})
        found = _attribution(span, by_id) if fields else {}
        entry = spend.setdefault(tuple(found.get(f, "?") for f in fields), dict(_NO_SPEND))
        prompt = int(attrs.get("prompt_tokens", 0))
        completion = int(attrs.get("completion_tokens", 0))
        entry["calls"] += 1
        entry["prompt_tokens"] += prompt
        entry["completion_tokens"] += completion
        entry["total_tokens"] += prompt + completion
        entry["cost_usd"] += float(attrs.get("cost_usd", 0.0))
    return dict(sorted(spend.items()))


def token_totals(spans: list[SpanLike]) -> dict[str, Any]:
    """Total LLM calls, tokens and USD carried on ``llm.chat`` spans."""
    return llm_spend(spans).get((), dict(_NO_SPEND))


def growth_curve(spans: list[SpanLike]) -> dict[str, dict[int, int]]:
    """Tokens per redo attempt, by difficulty tier (§4.5).

    Returns ``{level: {attempt: total_tokens}}``; a chat outside every
    step attempt (planning, routing, documentation) counts as attempt 0.
    """
    curve: dict[str, dict[int, int]] = {}
    for (level, attempt), entry in llm_spend(spans, "level", "attempt").items():
        tier = curve.setdefault(level, {})
        n = int(attempt) if attempt.isdigit() else 0
        tier[n] = tier.get(n, 0) + entry["total_tokens"]
    return {level: dict(sorted(tier.items())) for level, tier in curve.items()}


def _children_index(spans: list[dict[str, Any]]) -> tuple[list[dict], dict[str, list[dict]]]:
    by_id = {s.get("span_id"): s for s in spans}
    roots: list[dict] = []
    children: dict[str, list[dict]] = {}
    for span in spans:
        parent = span.get("parent_id")
        if parent and parent in by_id:
            children.setdefault(parent, []).append(span)
        else:
            roots.append(span)
    order = lambda s: (float(s.get("start", 0.0)), str(s.get("span_id", "")))
    roots.sort(key=order)
    for sibs in children.values():
        sibs.sort(key=order)
    return roots, children


def render_tree(spans: list[SpanLike]) -> str:
    """Indented text tree of a trace with durations and statuses."""
    dicts = [_as_dict(s) for s in spans]
    roots, children = _children_index(dicts)
    lines: list[str] = []

    def walk(span: dict[str, Any], depth: int) -> None:
        mark = "" if span.get("status") == "ok" else f" [{span.get('status')}]"
        dur_ms = float(span.get("duration", 0.0)) * 1e3
        attrs = span.get("attributes", {})
        hint = ""
        for key in ("qid", "run_index", "step", "attempt", "skill", "rows"):
            if key in attrs:
                hint += f" {key}={attrs[key]}"
        lines.append(f"{'  ' * depth}{span.get('name')}  {dur_ms:.2f} ms{hint}{mark}")
        for child in children.get(span.get("span_id"), []):
            walk(child, depth + 1)

    for root in roots:
        walk(root, 0)
    return "\n".join(lines)


def canonical_tree(spans: list[SpanLike]) -> tuple:
    """Timing-free canonical form of a trace's span tree.

    Nodes are ``(name, sorted non-timing attrs, sorted children)``; ids,
    start/end times, latency-shaped attributes, the worker count,
    cache-tier/scan-work, fault-absorption, and priced-cost attributes
    (the exclusion lists in :mod:`repro.obs.names`) are dropped, so a
    parallel (or cache-warm, or chaos, or re-priced) evaluation compares
    equal to a sequential cold one whenever the same operations happened
    with the same structure.  Spans named in ``CANONICAL_EXCLUDED_SPANS``
    (profiler captures, the CLI's process root) are dropped and their
    children take their place: they exist only when an optional
    telemetry layer or an outer entry point is there.
    """
    dicts = [_as_dict(s) for s in spans]
    roots, children = _children_index(dicts)

    def canon(siblings: list[dict[str, Any]]) -> tuple:
        nodes: list[tuple] = []
        for span in siblings:
            kids = canon(children.get(span.get("span_id"), []))
            if span.get("name", "") in CANONICAL_EXCLUDED_SPANS:
                nodes.extend(kids)
                continue
            attrs = tuple(
                sorted(
                    (k, repr(v))
                    for k, v in span.get("attributes", {}).items()
                    if not is_canonical_excluded_attr(k)
                )
            )
            nodes.append((span.get("name", ""), span.get("status", ""), attrs, kids))
        return tuple(sorted(nodes))

    return canon(roots)


def summarize(spans: list[SpanLike]) -> str:
    """Human-readable trace summary: per-phase wall time + token counters."""
    dicts = [_as_dict(s) for s in spans]
    if not dicts:
        return "empty trace"
    trace_id = dicts[0].get("trace_id", "?")
    rollups = phase_rollups(dicts)
    roots, _ = _children_index(dicts)
    root_wall = sum(float(r.get("duration", 0.0)) for r in roots)
    lines = [
        f"trace {trace_id}: {len(dicts)} spans, {root_wall:.3f} s across {len(roots)} root span(s)",
        f"{'phase':<14} {'spans':>6} {'total_s':>10} {'errors':>7}",
    ]
    for phase, agg in rollups.items():
        lines.append(
            f"{phase:<14} {int(agg['spans']):>6} {agg['total_s']:>10.3f} {int(agg['errors']):>7}"
        )
    for span in dicts:
        if span.get("name") == CLI_PROCESS_SPAN:
            attrs = span.get("attributes", {})
            lines.append(
                f"startup: {float(attrs.get('import_s', 0.0)):.3f} s of imports before "
                f"`repro {attrs.get('command', '?')}` started work "
                f"({float(span.get('duration', 0.0)):.3f} s process)"
            )
    tokens = token_totals(dicts)
    lines.append(
        f"llm tokens: prompt={tokens['prompt_tokens']:,} "
        f"completion={tokens['completion_tokens']:,} "
        f"total={tokens['total_tokens']:,} over {tokens['calls']} calls"
    )
    cache = sql_cache_counts(dicts)
    if cache["queries"]:
        lines.append(
            f"sql cache: memory={cache['memory']} disk={cache['disk']} "
            f"incremental={cache['incremental']} miss={cache['miss']} "
            f"over {cache['queries']} queries"
        )
    engine = engine_counts(dicts)
    if engine["morsels"] or engine["skipped_zone"] or engine["skipped_bloom"]:
        lines.append(
            f"sql engine: {engine['morsels']} morsels executed, "
            f"{engine['skipped_zone'] + engine['skipped_bloom']}/{engine['row_groups']} "
            f"row groups skipped (zone {engine['skipped_zone']}, "
            f"bloom {engine['skipped_bloom']})"
        )
    chaos = fault_counts(dicts)
    if chaos["faults"] or chaos["degraded"] or chaos["quarantined"]:
        lines.append(
            f"faults: {chaos['faults']} injected, {chaos['retries']} retries, "
            f"{chaos['degraded']} degraded spans, "
            f"{chaos['quarantined']} cache entries quarantined"
        )
    fleet = fleet_counts(dicts)
    if fleet["routes"] or fleet["trips"] or fleet["fallbacks"]:
        lines.append(
            f"sandbox fleet: {fleet['routes']} routed over "
            f"{fleet['workers']} worker(s), {fleet['trips']} trips, "
            f"{fleet['respawns']} respawns, {fleet['fallbacks']} fallbacks"
        )
    ingest = ingest_counts(dicts)
    if ingest["steps"] or ingest["recoveries"]:
        lines.append(
            f"live ingest: {ingest['steps']} snapshot(s) committed "
            f"({ingest['rows']} rows), {ingest['recoveries']} WAL recoveries "
            f"(torn tails {ingest['torn_tail']}, "
            f"corrupt {ingest['corrupt']}, orphan groups {ingest['orphan_groups']})"
        )
    return "\n".join(lines)


def ingest_counts(spans: list[SpanLike]) -> dict[str, int]:
    """Live-ingestion accounting from ``ingest.step`` / ``wal.recover``
    spans: snapshots committed, rows appended, and how each WAL recovery
    pass classified what it found (torn tails dropped, corrupt records
    dropped, orphan row groups discarded)."""
    counts = {
        "steps": 0,
        "rows": 0,
        "recoveries": 0,
        "torn_tail": 0,
        "corrupt": 0,
        "orphan_groups": 0,
    }
    for span in spans:
        doc = _as_dict(span)
        attrs = doc.get("attributes", {})
        if doc.get("name") == INGEST_STEP_SPAN:
            counts["steps"] += 1
            counts["rows"] += int(attrs.get("rows", 0))
        elif doc.get("name") == WAL_RECOVER_SPAN:
            counts["recoveries"] += 1
            counts["torn_tail"] += int(attrs.get("wal_torn_tail", 0))
            counts["corrupt"] += int(attrs.get("wal_corrupt", 0))
            counts["orphan_groups"] += int(attrs.get("wal_orphan_groups", 0))
    return counts


def fleet_counts(spans: list[SpanLike]) -> dict[str, int]:
    """Sandbox-fleet accounting stamped on spans by
    :mod:`repro.sandbox.fleet`: routed executions, breaker trips,
    reap/respawns, full-degradation fallbacks, and how many distinct
    workers served traffic in this trace."""
    counts = {"routes": 0, "trips": 0, "respawns": 0, "fallbacks": 0, "workers": 0}
    workers: set[int] = set()
    for span in spans:
        attrs = _as_dict(span).get("attributes", {})
        counts["routes"] += int(attrs.get("fleet_routes", 0))
        counts["trips"] += int(attrs.get("fleet_trips", 0))
        counts["respawns"] += int(attrs.get("fleet_respawns", 0))
        counts["fallbacks"] += int(attrs.get("fleet_fallbacks", 0))
        if "fleet_worker" in attrs:
            workers.add(int(attrs["fleet_worker"]))
    counts["workers"] = len(workers)
    return counts


def fault_counts(spans: list[SpanLike]) -> dict[str, int]:
    """Chaos accounting stamped on spans by :mod:`repro.faults` and the
    resilience layer: injected-fault totals, retry totals, how many spans
    degraded onto a fallback, and cache-entry quarantines."""
    counts = {"faults": 0, "retries": 0, "degraded": 0, "quarantined": 0}
    for span in spans:
        attrs = _as_dict(span).get("attributes", {})
        counts["faults"] += int(attrs.get("faults", 0))
        counts["retries"] += int(attrs.get("retries", 0))
        counts["quarantined"] += int(attrs.get("cache_quarantined", 0))
        if attrs.get("degraded"):
            counts["degraded"] += 1
    return counts


def engine_counts(spans: list[SpanLike]) -> dict[str, int]:
    """Engine accounting recorded on ``sql.execute`` spans: morsels
    executed, row-group totals, and zone-map vs bloom-filter skip
    attribution."""
    counts = {"morsels": 0, "row_groups": 0, "skipped_zone": 0, "skipped_bloom": 0}
    for span in spans:
        doc = _as_dict(span)
        if doc.get("name") != SQL_EXECUTE_SPAN:
            continue
        attrs = doc.get("attributes", {})
        counts["morsels"] += int(attrs.get("morsels", 0))
        counts["row_groups"] += int(attrs.get("row_groups_total", 0))
        counts["skipped_zone"] += int(attrs.get("row_groups_skipped_zone", 0))
        counts["skipped_bloom"] += int(attrs.get("row_groups_skipped_bloom", 0))
    return counts


def sql_cache_counts(spans: list[SpanLike]) -> dict[str, int]:
    """Query-result-cache outcomes recorded on ``sql.execute`` spans.

    Every SELECT emits exactly one ``sql.execute`` span whose ``cache``
    attribute names the tier that served it (``memory`` / ``disk`` /
    ``incremental`` / ``miss``; absent for cache-disabled execution,
    counted as a miss here).
    """
    counts = {"memory": 0, "disk": 0, "incremental": 0, "miss": 0, "queries": 0}
    for span in spans:
        doc = _as_dict(span)
        if doc.get("name") != SQL_EXECUTE_SPAN:
            continue
        counts["queries"] += 1
        tier = doc.get("attributes", {}).get("cache", "miss")
        counts[tier if tier in counts else "miss"] += 1
    return counts
