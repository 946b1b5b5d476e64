"""Provenance tracking: sequential trail, storage accounting, replay."""

import gc
import json
import sys
import threading
import warnings

import numpy as np
import pytest

from repro.frame import Frame
from repro.provenance import ProvenanceTracker
from repro.provenance.audit import replay_step, verify_audit_trail
from repro.provenance.audit import AuditError, load_recorded_result


@pytest.fixture()
def tracker(tmp_path):
    tracker = ProvenanceTracker(tmp_path, "session01")
    yield tracker
    tracker.close()


class TestRecording:
    def test_sequence_numbers(self, tracker):
        tracker.record_query("q")
        tracker.record_note("n")
        tracker.record_code(0, "x = 1")
        assert [r.seq for r in tracker.records] == [0, 1, 2]

    def test_concurrent_recorders_never_share_a_seq(self, tracker):
        """The parallel-viz pool records from several threads at once:
        every record gets its own ``seq``, every file its own number, and
        the trail on disk is the record list."""
        threads_n, per_thread = 8, 40

        def record(tid: int) -> None:
            for i in range(per_thread):
                tracker.record_code(tid, f"x = {i}", attempt=i)
                tracker.record_note(f"{tid}:{i}")

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # force switches inside numbering + append
        try:
            threads = [threading.Thread(target=record, args=(t,)) for t in range(threads_n)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        total = threads_n * per_thread * 2
        assert [r.seq for r in tracker.records] == list(range(total))
        files = [r for r in tracker.records if r.path]
        assert len({r.path for r in files}) == len(files) == threads_n * per_thread
        assert all(r.path.startswith(f"{r.seq:03d}_") for r in files)
        # the trail on disk is sequential and every file it names is whole
        assert verify_audit_trail(tracker.root) == tracker.trail()

    def test_query_file_written(self, tracker):
        rec = tracker.record_query("What is the largest halo?")
        assert (tracker.root / rec.path).read_text() == "What is the largest halo?"

    def test_result_csv(self, tracker):
        frame = Frame({"a": np.asarray([1, 2, 3])})
        rec = tracker.record_result(2, frame)
        assert rec.meta["rows"] == 3
        assert (tracker.root / rec.path).exists()

    def test_code_attempts_separate_files(self, tracker):
        r0 = tracker.record_code(1, "bad", attempt=0)
        r1 = tracker.record_code(1, "fixed", attempt=1)
        assert r0.path != r1.path

    def test_sql_suffix(self, tracker):
        rec = tracker.record_code(0, "SELECT 1", language="sql")
        assert rec.path.endswith(".sql")

    def test_figure_recorded(self, tracker):
        rec = tracker.record_figure(3, "<svg></svg>", form="line")
        assert rec.meta["form"] == "line"

    def test_llm_exchange_inline(self, tracker):
        rec = tracker.record_llm_exchange("sql", 100, 50, step_index=1)
        assert rec.path is None
        assert rec.meta["prompt_tokens"] == 100

    def test_storage_bytes_grows(self, tracker):
        before = tracker.storage_bytes()
        tracker.record_result(0, Frame({"a": np.arange(1000)}))
        assert tracker.storage_bytes() > before

    def test_external_registration(self, tracker, tmp_path):
        extra = tmp_path / "db"
        extra.mkdir()
        (extra / "blob.bin").write_bytes(b"x" * 512)
        before = tracker.storage_bytes()
        tracker.register_external(extra)
        assert tracker.storage_bytes() == before + 512


class TestTrailHandle:
    """One append handle per tracker: what is on disk, and when, is what
    an open-per-record tracker left there."""

    @staticmethod
    def feed(tracker, lo: int, hi: int) -> None:
        for i in range(lo, hi):
            tracker.record_code(i, f"x = {i}", attempt=i % 2)
            tracker.record_note(f"note {i}", step_index=i, tag="t")
            tracker.record_llm_exchange("sql", 10 * i, i, step_index=i)

    def test_closed_and_reopened_midway_is_byte_equal(self, tmp_path):
        straight = ProvenanceTracker(tmp_path / "a", "s")
        reopened = ProvenanceTracker(tmp_path / "b", "s")
        self.feed(straight, 0, 6)
        self.feed(reopened, 0, 3)
        reopened.close()
        reopened.close()  # idempotent
        self.feed(reopened, 3, 6)  # a record after close() reopens
        straight.close()
        reopened.close()
        trail = (straight.root / "trail.jsonl").read_bytes()
        assert trail == (reopened.root / "trail.jsonl").read_bytes()
        assert [json.loads(line) for line in trail.splitlines()] == straight.trail()

    def test_storage_bytes_mid_session_counts_every_written_line(self, tracker):
        self.feed(tracker, 0, 4)  # handle still open: nothing sits in its buffer
        on_disk = sum(f.stat().st_size for f in tracker.root.iterdir())
        assert tracker.storage_bytes() == on_disk
        lines = (tracker.root / "trail.jsonl").read_text().splitlines()
        assert [json.loads(line) for line in lines] == tracker.trail()
        tracker.close()
        assert tracker.storage_bytes() == on_disk

    def test_records_racing_a_close_keep_consecutive_seqs(self, tracker):
        threads_n, per_thread = 8, 50

        def record(tid: int) -> None:
            for i in range(per_thread):
                tracker.record_note(f"{tid}:{i}")
                if tid == 0 and i % 10 == 0:
                    tracker.close()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=record, args=(t,)) for t in range(threads_n)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        tracker.close()
        lines = (tracker.root / "trail.jsonl").read_text().splitlines()
        assert [json.loads(line)["seq"] for line in lines] == list(range(400))
        assert len({json.loads(line)["meta"]["text"] for line in lines}) == 400

    def test_run_query_leaves_no_open_handle(self, clean_app):
        # finalise what earlier tests left unreachable before recording, so
        # only this run's own trail can warn below
        gc.collect()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            report = clean_app.run_query("How many halos are in run 0?")
            assert clean_app._last_context.provenance._trail_fh is None
            clean_app._last_context = clean_app._last_supervisor = None
            gc.collect()  # an unclosed file warns from its finaliser here
        own_trail = str(report.session_dir / "trail.jsonl")
        assert not [w for w in caught if own_trail in str(w.message)]
        assert verify_audit_trail(report.session_dir)[-1]["kind"] == "trace"


class TestAudit:
    def test_verify_clean_trail(self, tracker):
        tracker.record_query("q")
        tracker.record_code(0, "result = tables['work']")
        records = verify_audit_trail(tracker.root)
        assert len(records) == 2

    def test_missing_file_detected(self, tracker):
        rec = tracker.record_query("q")
        (tracker.root / rec.path).unlink()
        with pytest.raises(AuditError, match="missing"):
            verify_audit_trail(tracker.root)

    def test_size_tamper_detected(self, tracker):
        rec = tracker.record_query("q")
        (tracker.root / rec.path).write_text("tampered content here")
        with pytest.raises(AuditError, match="size"):
            verify_audit_trail(tracker.root)

    def test_no_trail(self, tmp_path):
        with pytest.raises(AuditError):
            verify_audit_trail(tmp_path)

    def test_sequence_tamper_detected(self, tracker):
        tracker.record_note("a")
        tracker.record_note("b")
        trail = tracker.root / "trail.jsonl"
        lines = trail.read_text().splitlines()
        doc = json.loads(lines[1])
        doc["seq"] = 7
        trail.write_text(lines[0] + "\n" + json.dumps(doc) + "\n")
        with pytest.raises(AuditError, match="sequential"):
            verify_audit_trail(tracker.root)


class TestReplay:
    def test_replay_reproduces_result(self, tracker):
        code = "result = tables['work'].nlargest(2, 'a')"
        tracker.record_code(4, code)
        inputs = {"work": Frame({"a": np.asarray([5.0, 1.0, 9.0])})}
        replayed = replay_step(tracker.root, 4, inputs)
        assert replayed.ok
        assert list(replayed.result["a"]) == [9.0, 5.0]

    def test_replay_latest_attempt(self, tracker):
        tracker.record_code(4, "result = tables['work'].head(0)", attempt=0)
        tracker.record_code(4, "result = tables['work']", attempt=1)
        inputs = {"work": Frame({"a": np.asarray([1.0])})}
        replayed = replay_step(tracker.root, 4, inputs)
        assert replayed.result.num_rows == 1

    def test_replay_specific_attempt(self, tracker):
        tracker.record_code(4, "result = tables['work'].head(0)", attempt=0)
        tracker.record_code(4, "result = tables['work']", attempt=1)
        inputs = {"work": Frame({"a": np.asarray([1.0])})}
        replayed = replay_step(tracker.root, 4, inputs, attempt=0)
        assert replayed.result.num_rows == 0

    def test_replay_missing_step(self, tracker):
        tracker.record_query("q")
        with pytest.raises(AuditError, match="no recorded"):
            replay_step(tracker.root, 9, {})

    def test_load_recorded_result(self, tracker):
        frame = Frame({"a": np.asarray([1.5, 2.5])})
        tracker.record_result(3, frame)
        loaded = load_recorded_result(tracker.root, 3)
        assert np.array_equal(loaded["a"], frame["a"])
