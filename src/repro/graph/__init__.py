"""Typed-state workflow graph engine (LangGraph substitute).

The paper implements agent routing and "state-based workflow management"
with LangGraph.  This package reproduces the parts InferA relies on:

* a state dict flowing through named nodes, merged by per-key reducers,
* static and conditional edges (the supervisor's routing decisions),
* interrupts for human-in-the-loop pauses (plan approval),
* a checkpointer that snapshots state after every node, enabling the
  paper's stateful branch-from-checkpoint exploration (§4.2.1).

Each node execution is recorded once, as a ``graph.node.<name>`` span;
:func:`node_sequence` reads a thread's node order back from a trace.
"""

from repro.graph.state import Channel, replace_reducer, append_reducer, merge_reducer, add_reducer
from repro.graph.graph import (
    END,
    CompiledGraph,
    GraphError,
    GraphInterrupt,
    StateGraph,
    node_sequence,
)
from repro.graph.checkpoint import Checkpointer, Checkpoint, DurableCheckpointer

__all__ = [
    "Channel",
    "replace_reducer",
    "append_reducer",
    "merge_reducer",
    "add_reducer",
    "StateGraph",
    "CompiledGraph",
    "END",
    "GraphError",
    "GraphInterrupt",
    "node_sequence",
    "Checkpointer",
    "Checkpoint",
    "DurableCheckpointer",
]
