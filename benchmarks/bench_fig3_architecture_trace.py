"""Fig. 3 — the two-stage multi-agent architecture, verified by trace.

Fig. 3 depicts: planning stage (user <-> planning agent, iterative
refinement) -> analysis stage (supervisor orchestrating the specialized
agents step by step, each code step passing through QA) -> provenance
output (intermediate data, code, summary, visualizations).  We run one
query with a scripted feedback round and assert the executed node
sequence and the produced artifact kinds match the figure.
"""

from conftest import emit
from repro.agents.planner import ScriptedFeedback
from repro.core import InferA, InferAConfig
from repro.graph import node_sequence
from repro.llm.errors import NO_ERRORS
from repro.provenance.audit import verify_audit_trail


def test_fig3_architecture_trace(benchmark, bench_ensemble, output_dir, tmp_path):
    app = InferA(
        bench_ensemble, tmp_path / "w", InferAConfig(error_model=NO_ERRORS, llm_latency_s=0.0)
    )

    def run():
        return app.run_query(
            "Plot the change in mass of the largest friends-of-friends halos "
            "for all timesteps in simulation 0 using fof_halo_mass.",
            feedback=ScriptedFeedback(["limit runs 1"]),
        )

    report = benchmark.pedantic(run, rounds=1, iterations=1)
    assert report.completed

    # planning stage ran with one refinement round (the Fig. 3 feedback loop)
    assert report.plan.rounds == 2

    # analysis stage: supervisor routes each step; QA follows every code agent
    # (the graph.node.* spans of the session's thread, in order)
    nodes = node_sequence(report.trace_spans, report.session_dir.name)
    assert nodes[0] == "supervisor"
    assert nodes[-1] == "documentation"
    for i, node in enumerate(nodes):
        if node in ("sql", "python", "viz"):
            assert nodes[i + 1] == "qa", f"{node} was not followed by QA"
        if node == "qa":
            assert nodes[i + 1] == "supervisor"

    # provenance output pane: intermediate data, code, summary, visualization
    kinds = {r["kind"] for r in verify_audit_trail(report.session_dir)}
    assert {"plan", "code", "result", "figure", "qa", "note"} <= kinds

    lines = [
        "Fig. 3 architecture trace",
        "",
        f"planning rounds (with human feedback): {report.plan.rounds}",
        f"executed node sequence: {' -> '.join(nodes)}",
        f"provenance artifact kinds: {sorted(kinds)}",
    ]
    emit(output_dir, "fig3.txt", "\n".join(lines))
