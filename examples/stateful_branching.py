"""Stateful sessions: plan feedback, provenance audit, checkpoint branching.

Demonstrates the three §4.2 features together:

1. a scripted human-feedback round during planning (the multi-turn
   dialogue the evaluation deliberately skips),
2. the provenance audit trail, verified and partially replayed,
3. branch-from-checkpoint: re-running only the steps after the branch
   point instead of the whole workflow.

Run:  python examples/stateful_branching.py
"""

from pathlib import Path

from repro.agents.planner import ScriptedFeedback
from repro.core import InferAConfig, SessionManager
from repro.llm.errors import NO_ERRORS
from repro.provenance.audit import verify_audit_trail
from repro.sim import EnsembleSpec, generate_ensemble

OUT = Path(__file__).resolve().parent / "branching_out"


def main() -> None:
    ensemble = generate_ensemble(
        OUT / "ensemble",
        EnsembleSpec(n_runs=3, n_particles=2000, timesteps=(0, 498, 624)),
    )
    manager = SessionManager(
        ensemble, OUT / "workspace", InferAConfig(error_model=NO_ERRORS)
    )
    session = manager.new_session("exploration")

    # --- 1. plan refinement with human feedback -------------------------
    question = (
        "Plot the change in mass of the largest friends-of-friends halos "
        "for all timesteps in all simulations using fof_halo_mass."
    )
    print(f"== asking with one feedback round ==\n{question}\n")
    report = session.run(question, feedback=ScriptedFeedback(["limit runs 2"]))
    print(f"completed: {report.completed} in {report.plan.rounds} planning rounds")
    load = report.run.load_report
    print(f"runs actually loaded: {sorted(load.tables)} -> "
          f"{load.bytes_selected:,} bytes read\n")

    # --- 2. provenance audit --------------------------------------------
    records = verify_audit_trail(report.session_dir)
    print(f"audit trail verified: {len(records)} sequential records")
    by_kind: dict[str, int] = {}
    for r in records:
        by_kind[r["kind"]] = by_kind.get(r["kind"], 0) + 1
    print(f"artifact kinds: {by_kind}\n")

    # --- 3. branch from the post-load checkpoint ------------------------
    checkpoints = session.checkpoints()
    load_cp = next(cp for cp in checkpoints if cp.node == "data_loader")
    print(f"branching from checkpoint {load_cp.checkpoint_id} "
          f"(after '{load_cp.node}')")
    result = session.branch_from(load_cp.checkpoint_id, "what-if")
    rerun_nodes = [e.node for e in result.events]
    print(f"branched thread re-executed only: {rerun_nodes}")
    print("the load step was restored from the snapshot, not re-run")


if __name__ == "__main__":
    main()
