"""StateGraph execution: routing, reducers, interrupts."""

import pytest

from repro.graph import (
    Channel,
    Checkpointer,
    END,
    GraphError,
    StateGraph,
    add_reducer,
    append_reducer,
    merge_reducer,
)


def linear_graph():
    g = StateGraph([Channel("log", append_reducer, default=[])])
    g.add_node("a", lambda s: {"log": "a"})
    g.add_node("b", lambda s: {"log": "b"})
    g.set_entry_point("a")
    g.add_edge("a", "b")
    g.add_edge("b", END)
    return g


class TestExecution:
    def test_linear_order(self):
        result = linear_graph().compile().invoke()
        assert result.state["log"] == ["a", "b"]
        assert [e.node for e in result.events] == ["a", "b"]
        assert result.completed

    def test_conditional_routing(self):
        g = StateGraph([Channel("n", default=0)])
        g.add_node("inc", lambda s: {"n": s["n"] + 1})
        g.set_entry_point("inc")
        g.add_conditional_edges("inc", lambda s: "inc" if s["n"] < 5 else END)
        result = g.compile().invoke()
        assert result.state["n"] == 5

    def test_max_steps_guard(self):
        g = StateGraph()
        g.add_node("loop", lambda s: {})
        g.set_entry_point("loop")
        g.add_edge("loop", "loop")
        with pytest.raises(GraphError, match="max_steps"):
            g.compile(max_steps=10).invoke()

    def test_initial_state_overrides(self):
        g = StateGraph([Channel("x", default=1)])
        g.add_node("read", lambda s: {"x": s["x"] * 2})
        g.set_entry_point("read")
        g.add_edge("read", END)
        result = g.compile().invoke({"x": 10})
        assert result.state["x"] == 20

    def test_runs_do_not_share_default_containers(self):
        g = StateGraph([Channel("seen", default=[])])
        g.add_node("noop", lambda s: {})
        g.set_entry_point("noop")
        g.add_edge("noop", END)
        compiled = g.compile()
        compiled.invoke().state["seen"].append("leak")
        assert compiled.invoke().state["seen"] == []

    def test_node_must_return_dict(self):
        g = StateGraph()
        g.add_node("bad", lambda s: [1, 2])
        g.set_entry_point("bad")
        g.add_edge("bad", END)
        with pytest.raises(GraphError, match="dict"):
            g.compile().invoke()


class TestReducers:
    def test_append(self):
        assert append_reducer([1], [2, 3]) == [1, 2, 3]
        assert append_reducer(None, "x") == ["x"]

    def test_merge(self):
        assert merge_reducer({"a": 1}, {"b": 2}) == {"a": 1, "b": 2}
        assert merge_reducer(None, {"a": 1}) == {"a": 1}

    def test_add(self):
        assert add_reducer(2, 3) == 5
        assert add_reducer(None, 4) == 4

    def test_replace_default(self):
        g = StateGraph([Channel("v")])
        g.add_node("w", lambda s: {"v": 1})
        g.add_node("w2", lambda s: {"v": 2})
        g.set_entry_point("w")
        g.add_edge("w", "w2")
        g.add_edge("w2", END)
        assert g.compile().invoke().state["v"] == 2


class TestValidation:
    def test_missing_entry(self):
        g = StateGraph()
        g.add_node("a", lambda s: {})
        with pytest.raises(GraphError, match="entry"):
            g.compile()

    def test_duplicate_node(self):
        g = StateGraph()
        g.add_node("a", lambda s: {})
        with pytest.raises(GraphError):
            g.add_node("a", lambda s: {})

    def test_unknown_edge_target(self):
        g = StateGraph()
        g.add_node("a", lambda s: {})
        g.set_entry_point("a")
        g.add_edge("a", "ghost")
        with pytest.raises(GraphError, match="ghost"):
            g.compile()

    def test_double_outgoing_edge(self):
        g = StateGraph()
        g.add_node("a", lambda s: {})
        g.add_edge("a", END)
        with pytest.raises(GraphError):
            g.add_conditional_edges("a", lambda s: END)

    def test_router_unknown_target_at_runtime(self):
        g = StateGraph()
        g.add_node("a", lambda s: {})
        g.set_entry_point("a")
        g.add_conditional_edges("a", lambda s: "nowhere")
        with pytest.raises(GraphError, match="nowhere"):
            g.compile().invoke()

    def test_reserved_end_name(self):
        g = StateGraph()
        with pytest.raises(GraphError):
            g.add_node(END, lambda s: {})


class TestInterrupts:
    def test_pause_and_resume(self):
        g = StateGraph([Channel("log", append_reducer, default=[])])
        g.add_node("plan", lambda s: {"log": "plan"})
        g.add_node("run", lambda s: {"log": "run"})
        g.set_entry_point("plan")
        g.add_edge("plan", "run")
        g.add_edge("run", END)
        compiled = g.compile(checkpointer=Checkpointer(), interrupt_before=["run"])
        paused = compiled.invoke(thread_id="t")
        assert paused.interrupted_at == "run"
        assert paused.state["log"] == ["plan"]
        resumed = compiled.invoke(thread_id="t", resume=True)
        assert resumed.completed
        assert resumed.state["log"] == ["plan", "run"]

    def test_resume_without_checkpointer(self):
        compiled = linear_graph().compile()
        with pytest.raises(GraphError, match="checkpointer"):
            compiled.invoke(resume=True)

    def test_resume_nothing(self):
        compiled = linear_graph().compile(checkpointer=Checkpointer())
        with pytest.raises(GraphError, match="resume"):
            compiled.invoke(thread_id="fresh", resume=True)
