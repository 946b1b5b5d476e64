"""StateGraph definition and execution engine."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.graph.checkpoint import Checkpointer
from repro.graph.state import Channel, apply_update, initial_state
from repro.obs.names import NODE_SPAN_PREFIX
from repro.obs.tracer import NULL_TRACER, NullTracer, Tracer

END = "__end__"

NodeFn = Callable[[dict[str, Any]], dict[str, Any]]
RouterFn = Callable[[dict[str, Any]], str]


class GraphError(RuntimeError):
    """Structural or runtime graph failure."""


class GraphInterrupt(Exception):
    """Raised internally when execution pauses at an interrupt node."""

    def __init__(self, node: str, state: dict[str, Any]):
        super().__init__(f"interrupted before node {node!r}")
        self.node = node
        self.state = state


class StateGraph:
    """Mutable graph builder; ``compile()`` freezes it for execution."""

    def __init__(self, channels: list[Channel] | None = None):
        self.channels: dict[str, Channel] = {c.name: c for c in channels or []}
        self.nodes: dict[str, NodeFn] = {}
        self.edges: dict[str, str] = {}
        self.routers: dict[str, RouterFn] = {}
        self.entry: str | None = None

    def add_channel(self, channel: Channel) -> "StateGraph":
        self.channels[channel.name] = channel
        return self

    def add_node(self, name: str, fn: NodeFn) -> "StateGraph":
        if name in self.nodes:
            raise GraphError(f"node {name!r} already defined")
        if name == END:
            raise GraphError(f"{END!r} is reserved")
        self.nodes[name] = fn
        return self

    def add_edge(self, source: str, target: str) -> "StateGraph":
        if source in self.edges or source in self.routers:
            raise GraphError(f"node {source!r} already has an outgoing edge")
        self.edges[source] = target
        return self

    def add_conditional_edges(self, source: str, router: RouterFn) -> "StateGraph":
        if source in self.edges or source in self.routers:
            raise GraphError(f"node {source!r} already has an outgoing edge")
        self.routers[source] = router
        return self

    def set_entry_point(self, name: str) -> "StateGraph":
        self.entry = name
        return self

    def compile(
        self,
        checkpointer: Checkpointer | None = None,
        interrupt_before: list[str] | None = None,
        max_steps: int = 500,
        tracer: Tracer | NullTracer | None = None,
    ) -> "CompiledGraph":
        if self.entry is None:
            raise GraphError("no entry point set")
        if self.entry not in self.nodes:
            raise GraphError(f"entry point {self.entry!r} is not a node")
        for src, dst in self.edges.items():
            if src not in self.nodes:
                raise GraphError(f"edge source {src!r} is not a node")
            if dst != END and dst not in self.nodes:
                raise GraphError(f"edge target {dst!r} is not a node")
        for src in self.routers:
            if src not in self.nodes:
                raise GraphError(f"router source {src!r} is not a node")
        return CompiledGraph(
            channels=dict(self.channels),
            nodes=dict(self.nodes),
            edges=dict(self.edges),
            routers=dict(self.routers),
            entry=self.entry,
            checkpointer=checkpointer,
            interrupt_before=set(interrupt_before or []),
            max_steps=max_steps,
            tracer=tracer or NULL_TRACER,
        )


def node_sequence(spans: list[dict[str, Any]], thread_id: str) -> list[str]:
    """The nodes ``thread_id`` executed, in order, read from the
    ``graph.node.*`` span dicts of a trace (a tracer's ``span_dicts()``)."""
    runs = [
        (span["attributes"]["seq"], span["name"][len(NODE_SPAN_PREFIX):])
        for span in spans
        if span["name"].startswith(NODE_SPAN_PREFIX)
        and span["attributes"].get("thread") == thread_id
    ]
    return [node for _seq, node in sorted(runs, key=lambda run: run[0])]


@dataclass
class RunResult:
    state: dict[str, Any]
    interrupted_at: str | None = None
    thread_id: str = "main"

    @property
    def completed(self) -> bool:
        return self.interrupted_at is None


@dataclass
class CompiledGraph:
    channels: dict[str, Channel]
    nodes: dict[str, NodeFn]
    edges: dict[str, str]
    routers: dict[str, RouterFn]
    entry: str
    checkpointer: Checkpointer | None = None
    interrupt_before: set[str] = field(default_factory=set)
    max_steps: int = 500
    tracer: Tracer | NullTracer = field(default_factory=lambda: NULL_TRACER)
    _seq: dict[str, int] = field(default_factory=dict)

    # ------------------------------------------------------------------
    def invoke(
        self,
        state: dict[str, Any] | None = None,
        thread_id: str = "main",
        resume: bool = False,
    ) -> RunResult:
        """Run from the entry point (or resume a paused/branched thread).

        ``resume=True`` continues from the thread's latest checkpoint,
        skipping the interrupt that paused it.
        """
        if resume:
            if self.checkpointer is None:
                raise GraphError("resume requires a checkpointer")
            cp = self.checkpointer.latest(thread_id)
            if cp is None:
                raise GraphError(f"nothing to resume for thread {thread_id!r}")
            current = cp.next_node or END
            run_state = dict(cp.state)
            skip_interrupt_at = current
        else:
            run_state = initial_state(self.channels, state)
            current = self.entry
            skip_interrupt_at = None
            self._seq[thread_id] = 0

        steps = 0
        while current != END:
            if steps >= self.max_steps:
                raise GraphError(f"exceeded max_steps={self.max_steps}")
            steps += 1
            if current in self.interrupt_before and current != skip_interrupt_at:
                self._advance_seq(thread_id)
                self._checkpoint(thread_id, current, current, run_state)
                return RunResult(run_state, interrupted_at=current, thread_id=thread_id)
            skip_interrupt_at = None

            fn = self.nodes.get(current)
            if fn is None:
                raise GraphError(f"unknown node {current!r}")
            # every node execution is one span carrying the ``thread`` it
            # ran on and its ``seq`` in that thread
            with self.tracer.span(
                f"{NODE_SPAN_PREFIX}{current}", thread=thread_id, seq=self._seq.get(thread_id, 0)
            ):
                update = fn(run_state) or {}
                if not isinstance(update, dict):
                    raise GraphError(f"node {current!r} must return a dict update")
                run_state = apply_update(self.channels, run_state, update)

            next_node = self._route(current, run_state)
            self._advance_seq(thread_id)
            self._checkpoint(thread_id, current, next_node, run_state)
            current = next_node
        return RunResult(run_state, thread_id=thread_id)

    # ------------------------------------------------------------------
    def _route(self, node: str, state: dict[str, Any]) -> str:
        if node in self.edges:
            return self.edges[node]
        if node in self.routers:
            target = self.routers[node](state)
            if target != END and target not in self.nodes:
                raise GraphError(f"router at {node!r} returned unknown node {target!r}")
            return target
        return END

    def _advance_seq(self, thread_id: str) -> None:
        self._seq[thread_id] = self._seq.get(thread_id, 0) + 1

    def _checkpoint(
        self, thread_id: str, node: str, next_node: str | None, state: dict[str, Any]
    ) -> None:
        if self.checkpointer is not None:
            self.checkpointer.save(thread_id, self._seq.get(thread_id, 0), node, next_node, state)

    # ------------------------------------------------------------------
    def resume_from_branch(self, checkpoint_id: str, new_thread_id: str) -> RunResult:
        """Branch at a checkpoint and continue execution on the new thread."""
        if self.checkpointer is None:
            raise GraphError("branching requires a checkpointer")
        cp = self.checkpointer.branch(checkpoint_id, new_thread_id)
        self._seq[new_thread_id] = cp.seq
        return self.invoke(thread_id=new_thread_id, resume=True)
