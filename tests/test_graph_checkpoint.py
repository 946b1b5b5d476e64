"""Checkpointing and branch-from-checkpoint (§4.2.1 statefulness)."""

import pytest

from repro import faults
from repro.faults import FaultInjector, FaultProfile, use_faults
from repro.graph import Channel, Checkpointer, DurableCheckpointer, END, StateGraph
from repro.graph.state import append_reducer


def counting_graph(side_effects):
    """Each node appends its name to side_effects when *executed*."""
    g = StateGraph([Channel("log", append_reducer, default=[])])
    for name in ("a", "b", "c"):
        def fn(state, name=name):
            side_effects.append(name)
            return {"log": name}
        g.add_node(name, fn)
    g.set_entry_point("a")
    g.add_edge("a", "b")
    g.add_edge("b", "c")
    g.add_edge("c", END)
    return g


class TestCheckpointer:
    def test_snapshot_per_node(self):
        cp = Checkpointer()
        compiled = counting_graph([]).compile(checkpointer=cp)
        compiled.invoke(thread_id="t")
        assert len(cp.history("t")) == 3

    def test_snapshots_isolated_from_mutation(self):
        cp = Checkpointer()
        state = {"x": [1, 2]}
        cp.save("t", 1, "n", None, state)
        state["x"].append(3)
        assert cp.history("t")[0].state["x"] == [1, 2]

    def test_latest(self):
        cp = Checkpointer()
        cp.save("t", 1, "a", "b", {})
        cp.save("t", 2, "b", None, {})
        assert cp.latest("t").seq == 2
        assert cp.latest("zzz") is None

    def test_get_unknown(self):
        with pytest.raises(KeyError):
            Checkpointer().get("t:1")

    def test_branch_copies_prefix(self):
        cp = Checkpointer()
        for seq in (1, 2, 3):
            cp.save("t", seq, f"n{seq}", f"n{seq + 1}", {"seq": seq})
        head = cp.branch("t:2", "fork")
        assert head.thread_id == "fork"
        assert len(cp.history("fork")) == 2
        assert cp.history("fork")[-1].state["seq"] == 2

    def test_branch_duplicate_thread_rejected(self):
        cp = Checkpointer()
        cp.save("t", 1, "a", None, {})
        cp.branch("t:1", "fork")
        with pytest.raises(ValueError):
            cp.branch("t:1", "fork")


class TestBranchExecution:
    def test_branch_skips_completed_steps(self):
        """The paper's key cost claim: branched threads re-run only the tail."""
        effects = []
        cp = Checkpointer()
        compiled = counting_graph(effects).compile(checkpointer=cp)
        compiled.invoke(thread_id="main")
        assert effects == ["a", "b", "c"]

        # branch after node 'a' (checkpoint seq 1) and resume
        checkpoint_id = cp.history("main")[0].checkpoint_id
        effects.clear()
        result = compiled.resume_from_branch(checkpoint_id, "alt")
        assert effects == ["b", "c"]          # 'a' was NOT re-executed
        assert result.state["log"] == ["a", "b", "c"]  # but its state is present

    def test_branch_state_independent(self):
        effects = []
        cp = Checkpointer()
        compiled = counting_graph(effects).compile(checkpointer=cp)
        main = compiled.invoke(thread_id="main")
        checkpoint_id = cp.history("main")[0].checkpoint_id
        branched = compiled.resume_from_branch(checkpoint_id, "alt2")
        assert main.state["log"] == branched.state["log"]
        assert main.state["log"] is not branched.state["log"]


class TestDurableCheckpointer:
    def test_round_trip_across_restart(self, tmp_path):
        cp = DurableCheckpointer(tmp_path / "ckpt")
        compiled = counting_graph([]).compile(checkpointer=cp)
        compiled.invoke(thread_id="t")

        # a "restarted process": a fresh instance over the same root
        revived = DurableCheckpointer(tmp_path / "ckpt")
        assert revived.threads() == ["t"]
        chain = revived.history("t")
        assert [c.seq for c in chain] == [1, 2, 3]
        assert revived.latest("t").state["log"] == ["a", "b", "c"]
        assert revived.get("t:2").node == "b"
        assert revived.dropped_corrupt == 0

    def test_odd_thread_ids_survive_the_filesystem(self, tmp_path):
        cp = DurableCheckpointer(tmp_path / "ckpt")
        thread = "q01/run 3: weird?*id"
        cp.save(thread, 1, "a", None, {"x": 1})
        revived = DurableCheckpointer(tmp_path / "ckpt")
        assert revived.threads() == [thread]
        assert revived.latest(thread).state == {"x": 1}

    def test_truncated_tail_dropped_tolerantly(self, tmp_path):
        cp = DurableCheckpointer(tmp_path / "ckpt")
        compiled = counting_graph([]).compile(checkpointer=cp)
        compiled.invoke(thread_id="t")
        blobs = sorted((tmp_path / "ckpt").rglob("ckpt_*.bin"))
        last = blobs[-1]
        last.write_bytes(last.read_bytes()[:10])  # torn write mid-blob

        revived = DurableCheckpointer(tmp_path / "ckpt")
        chain = revived.history("t")
        assert [c.seq for c in chain] == [1, 2]  # tail gone, prefix intact
        assert revived.dropped_corrupt == 1

    def test_bit_flip_detected_by_crc(self, tmp_path):
        cp = DurableCheckpointer(tmp_path / "ckpt")
        cp.save("t", 1, "a", "b", {"x": 1})
        cp.save("t", 2, "b", None, {"x": 2})
        blobs = sorted((tmp_path / "ckpt").rglob("ckpt_*.bin"))
        raw = bytearray(blobs[-1].read_bytes())
        raw[len(raw) // 2] ^= 0x04
        blobs[-1].write_bytes(bytes(raw))

        revived = DurableCheckpointer(tmp_path / "ckpt")
        assert revived.latest("t").seq == 1
        assert revived.dropped_corrupt == 1

    def test_in_memory_chain_wins_over_disk(self, tmp_path):
        """A live run never re-reads (possibly corrupted) disk copies."""
        cp = DurableCheckpointer(tmp_path / "ckpt")
        cp.save("t", 1, "a", None, {"x": 1})
        for blob in (tmp_path / "ckpt").rglob("ckpt_*.bin"):
            blob.write_bytes(b"garbage")
        assert cp.latest("t").state == {"x": 1}
        assert cp.dropped_corrupt == 0

    def test_injected_corruption_only_hurts_restarts(self, tmp_path):
        """With checkpoint_corrupt at rate 1.0 every durable blob is bad,
        the live run is unaffected, and a restart recovers nothing —
        cleanly, with every drop counted."""
        injector = FaultInjector(FaultProfile(seed=7, checkpoint_corrupt=1.0))
        cp = DurableCheckpointer(tmp_path / "ckpt")
        with use_faults(injector):
            compiled = counting_graph([]).compile(checkpointer=cp)
            result = compiled.invoke(thread_id="t")
        assert result.state["log"] == ["a", "b", "c"]  # live run fine
        assert injector.schedule()[faults.CHECKPOINT_CORRUPT] == 3

        revived = DurableCheckpointer(tmp_path / "ckpt")
        assert revived.history("t") == []
        assert revived.dropped_corrupt == 1  # stops at the first bad blob

    def test_resume_from_branch_after_restart(self, tmp_path):
        """The paper's exploration workflow across a process restart: run,
        restart, branch from a mid-run checkpoint, re-run only the tail."""
        effects = []
        cp = DurableCheckpointer(tmp_path / "ckpt")
        compiled = counting_graph(effects).compile(checkpointer=cp)
        compiled.invoke(thread_id="main")
        checkpoint_id = cp.history("main")[0].checkpoint_id
        assert effects == ["a", "b", "c"]

        effects.clear()
        revived = DurableCheckpointer(tmp_path / "ckpt")
        recompiled = counting_graph(effects).compile(checkpointer=revived)
        result = recompiled.resume_from_branch(checkpoint_id, "alt")
        assert effects == ["b", "c"]          # 'a' was NOT re-executed
        assert result.state["log"] == ["a", "b", "c"]
        # the branch itself is durable: a third incarnation sees it
        third = DurableCheckpointer(tmp_path / "ckpt")
        assert third.threads() == ["alt", "main"]
        assert third.latest("alt").state["log"] == ["a", "b", "c"]

    def test_readonly_root_degrades_to_memory(self, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise OSError("read-only filesystem")

        cp = DurableCheckpointer(tmp_path / "ckpt")
        monkeypatch.setattr("repro.durable.os.replace", refuse)
        cp.save("t", 1, "a", None, {"x": 1})
        assert cp.latest("t").state == {"x": 1}  # in-memory copy intact
