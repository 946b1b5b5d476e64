"""Per-layer tracing from outside the program.

The traced passes time calls into each layer's public entry points with
wrappers this module installs on the classes (and removes again before
the next untraced pass); nothing under ``src/`` changes.  A span is
``{id, name, t0, t1, parent, op, thread}``: ``parent`` is the span open
on the same thread when this one began, ``op`` the benchmark operation
it served.  A layer's *self* time is its span minus what its direct
children cover, so the layer self times of one op sum to the op's root
span, and root span plus the unattributed remainder is the op's wall.

Layers are named after the modules under ``src/repro/``.
"""

from __future__ import annotations

import importlib
import itertools
import statistics
import threading
import time
from typing import Any, Callable

from . import measure

_now = time.perf_counter


def _frame_rows(args: tuple, kwargs: dict) -> int:
    frame = kwargs.get("frame", args[2] if len(args) > 2 else None)
    return 0 if frame is None else int(frame.num_rows)


def _session_op(args: tuple, kwargs: dict) -> str | None:
    # the serving layer runs each request on a worker thread as
    # run_query(session_id=run_id) of an app whose workdir is the tenant's;
    # "<tenant>/<run id>" ties the span back to the client's op
    run_id = kwargs.get("session_id")
    return None if run_id is None else f"{args[0].workdir.name}/{run_id}"


# (layer, module, class, method[, option])
_ENTRY_POINTS: list[tuple] = [
    ("core.run_query", "repro.core.app", "InferA", "run_query", {"op_from": _session_op}),
    ("agents.plan", "repro.agents.planner", "PlanningAgent", "plan"),
    ("agents.load", "repro.agents.data_loader", "DataLoadingAgent", "load"),
    ("agents.supervisor", "repro.agents.supervisor", "Supervisor", "execute"),
    ("agents.qa", "repro.agents.qa_agent", "QualityAssuranceAgent", "assess"),
    ("rag.retrieve", "repro.rag.retriever", "ColumnRetriever", "retrieve"),
    ("llm.chat", "repro.llm.base", "MeteredModel", "chat"),
    ("llm.embed", "repro.llm.embeddings", "HashedEmbedder", "embed"),
    ("db.query", "repro.db.database", "Database", "query"),
    ("db.write", "repro.db.database", "Database", "create_table", {"n_from": _frame_rows}),
    ("db.write", "repro.db.database", "Database", "append", {"n_from": _frame_rows}),
    ("sandbox.execute", "repro.sandbox.client", "InProcessClient", "execute"),
    ("sandbox.execute", "repro.sandbox.client", "SandboxClient", "execute"),
    ("sandbox.execute", "repro.sandbox.fleet", "SandboxFleet", "execute"),
    ("graph.checkpoint", "repro.graph.checkpoint", "Checkpointer", "save"),
    ("graph.checkpoint", "repro.graph.checkpoint", "DurableCheckpointer", "save"),
    ("gio.read", "repro.gio.format", "GIOFile", "read"),
] + [
    ("provenance.record", "repro.provenance.tracker", "ProvenanceTracker", method)
    for method in (
        "record_query", "record_plan", "record_code", "record_result", "record_figure",
        "record_llm_exchange", "record_qa", "record_note", "record_trace",
    )
]

class Recorder:
    """Installs the wrappers and keeps the spans in memory."""

    def __init__(self, first_id: int = 1) -> None:
        self.spans: list[dict] = []
        self._ids = itertools.count(first_id)
        self._local = threading.local()
        self._installed: list[tuple[type, str, Callable]] = []

    # -- wrappers -------------------------------------------------------
    def _wrap(self, layer: str, original: Callable, op_from=None, n_from=None) -> Callable:
        recorder = self

        def traced(*args: Any, **kwargs: Any) -> Any:
            local = recorder._local
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            if stack and stack[-1]["name"] == layer:
                # a layer calling itself (fleet -> member client, CREATE
                # TABLE AS -> create_table) stays one span
                return original(*args, **kwargs)
            op = getattr(measure.current_op, "key", None)
            if op is None and stack:
                op = stack[0]["op"]
            if op is None and op_from is not None:
                op = op_from(args, kwargs)
            span = {
                "id": next(recorder._ids),
                "name": layer,
                "t0": _now(),
                "t1": None,
                "parent": stack[-1]["id"] if stack else None,
                "op": op,
                "thread": threading.current_thread().name,
            }
            if n_from is not None:
                span["n"] = n_from(args, kwargs)
            stack.append(span)
            try:
                return original(*args, **kwargs)
            finally:
                span["t1"] = _now()
                stack.pop()
                recorder.spans.append(span)

        return traced

    def install(self) -> None:
        if self._installed:
            raise RuntimeError("wrappers already installed")
        for entry in _ENTRY_POINTS:
            layer, module, cls_name, method = entry[:4]
            options = entry[4] if len(entry) > 4 else {}
            cls = getattr(importlib.import_module(module), cls_name)
            original = cls.__dict__[method]
            setattr(cls, method, self._wrap(layer, original, **options))
            self._installed.append((cls, method, original))

    def uninstall(self) -> None:
        for cls, method, original in reversed(self._installed):
            setattr(cls, method, original)
        self._installed.clear()

    def drain(self) -> list[dict]:
        spans, self.spans = self.spans, []
        return spans


# ----------------------------------------------------------------------
# analysis
# ----------------------------------------------------------------------
def _child_time(spans: list[dict]) -> dict[int, float]:
    """Span id -> seconds covered by its direct children."""
    covered: dict[int, float] = {}
    for s in spans:
        if s["parent"] is not None:
            covered[s["parent"]] = covered.get(s["parent"], 0.0) + (s["t1"] - s["t0"])
    return covered


def summarise(spans: list[dict]) -> dict[str, dict[str, float]]:
    """``layer -> {calls, total_s, self_s, p50_s, n}`` over one pass."""
    child_time = _child_time(spans)
    out: dict[str, dict[str, Any]] = {}
    for s in spans:
        dur = s["t1"] - s["t0"]
        agg = out.setdefault(s["name"], {"calls": 0, "total_s": 0.0, "self_s": 0.0, "n": 0, "_d": []})
        agg["calls"] += 1
        agg["total_s"] += dur
        agg["self_s"] += dur - child_time.get(s["id"], 0.0)
        agg["n"] += s.get("n", 0)
        agg["_d"].append(dur)
    for agg in out.values():
        agg["p50_s"] = statistics.median(agg.pop("_d"))
    return out


# per-layer metric -> (layer, field of ``summarise``)
SPAN_METRICS = {
    "core.run_query_s": ("core.run_query", "total_s"),
    "core.self_s": ("core.run_query", "self_s"),
    "agents.plan_s": ("agents.plan", "total_s"),
    "agents.load_self_s": ("agents.load", "self_s"),
    "agents.supervisor_self_s": ("agents.supervisor", "self_s"),
    "agents.qa_s": ("agents.qa", "total_s"),
    "graph.checkpoint_s": ("graph.checkpoint", "total_s"),
    "provenance.record_s": ("provenance.record", "total_s"),
    "gio.read_s": ("gio.read", "total_s"),
    "llm.chat_s": ("llm.chat", "total_s"),
    "llm.chat_calls": ("llm.chat", "calls"),
    "llm.embed_s": ("llm.embed", "total_s"),
    "rag.retrieve_s": ("rag.retrieve", "total_s"),
    "rag.retrieve_calls": ("rag.retrieve", "calls"),
    "rag.retrieve_p50_s": ("rag.retrieve", "p50_s"),
    "db.query_s": ("db.query", "total_s"),
    "db.query_calls": ("db.query", "calls"),
    "db.write_s": ("db.write", "total_s"),
    "db.write_calls": ("db.write", "calls"),
    "db.write_rows": ("db.write", "n"),
    "db.write_p50_s": ("db.write", "p50_s"),
    "sandbox.execute_s": ("sandbox.execute", "total_s"),
    "sandbox.execute_calls": ("sandbox.execute", "calls"),
}


def span_metrics(summary: dict[str, dict[str, float]], slowdown: float, n_ops: int) -> dict[str, float]:
    """The span-derived per-layer metrics: seconds calibrated and per op,
    counts per op, per-call medians calibrated.  A layer no span entered
    is left out (not exercised: reported as null, not as zero)."""
    divisor = {"total_s": slowdown * n_ops, "self_s": slowdown * n_ops,
               "calls": n_ops, "n": n_ops, "p50_s": slowdown}
    return {
        metric: summary[layer][field] / divisor[field]
        for metric, (layer, field) in SPAN_METRICS.items()
        if layer in summary
    }


def unattributed_share(spans: list[dict], op_walls: dict[str, float], root: str) -> float:
    """Share of total op wall not inside the ops' root spans."""
    covered: dict[str, float] = {}
    for s in spans:
        if s["name"] == root and s["parent"] is None and s["op"] in op_walls:
            covered[s["op"]] = covered.get(s["op"], 0.0) + (s["t1"] - s["t0"])
    total = sum(op_walls.values())
    if total <= 0:
        return 0.0
    return max(0.0, (total - sum(covered.values())) / total)


def per_op_self_times(spans: list[dict], op_walls: dict[str, float]) -> dict[str, dict[str, float]]:
    """``op -> {layer: self seconds, "unattributed": remainder}``; each
    op's values sum to its wall."""
    child_time = _child_time(spans)
    table: dict[str, dict[str, float]] = {op: {} for op in op_walls}
    for s in spans:
        row = table.get(s["op"])
        if row is not None:
            own = (s["t1"] - s["t0"]) - child_time.get(s["id"], 0.0)
            row[s["name"]] = row.get(s["name"], 0.0) + own
    for op, row in table.items():
        row["unattributed"] = op_walls[op] - sum(row.values())
    return table
