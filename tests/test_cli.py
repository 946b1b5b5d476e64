"""CLI commands (invoked in-process via main(argv))."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import main
from repro.db import Database
from repro.frame import Frame
from repro.obs.export import canonical_tree, read_spans
from repro.obs.names import CLI_PROCESS_SPAN
from repro.provenance.audit import verify_audit_trail


@pytest.fixture()
def cli_ensemble(tmp_path):
    code = main([
        "generate", "--out", str(tmp_path / "ens"), "--runs", "2",
        "--particles", "800", "--steps", "498,624", "--no-particles",
    ])
    assert code == 0
    return tmp_path / "ens"


class TestGenerateInfo:
    def test_generate_output(self, cli_ensemble, capsys):
        assert (cli_ensemble / "manifest.json").exists()

    def test_info(self, cli_ensemble, capsys):
        assert main(["info", "--ensemble", str(cli_ensemble)]) == 0
        out = capsys.readouterr().out
        assert "runs: 2" in out

    def test_bad_steps_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            main(["generate", "--out", str(tmp_path / "x"), "--steps", "700"])


class TestQuery:
    def test_query_success(self, cli_ensemble, tmp_path, capsys):
        code = main([
            "query", "top 5 halos at timestep 624 in simulation 0",
            "--ensemble", str(cli_ensemble),
            "--workdir", str(tmp_path / "w"),
            "--no-errors",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "completed: True" in out
        assert "provenance:" in out
        # wall and simulated-LLM seconds are reported apart, not summed
        assert re.search(
            r"tokens: [\d,]+  storage: [\d,]+ bytes  "
            r"time: [\d.]+ s wall \+ [\d.]+ s simulated LLM", out)

    def test_query_writes_figures(self, cli_ensemble, tmp_path, capsys):
        main([
            "query",
            "Show a histogram of fof_halo_mass for halos at timestep 624 in simulation 0",
            "--ensemble", str(cli_ensemble),
            "--workdir", str(tmp_path / "w2"),
            "--no-errors",
        ])
        assert (tmp_path / "w2" / "figure_0.svg").exists()


class TestEval:
    def test_eval_prints_table2(self, cli_ensemble, tmp_path, capsys):
        code = main([
            "eval", "--ensemble", str(cli_ensemble),
            "--workdir", str(tmp_path / "e"),
            "--runs-per-question", "1",
        ])
        assert code == 0
        captured = capsys.readouterr()
        assert "Table 2" in captured.out
        assert "Total" in captured.out
        # status lines go through the repro logger on stderr, not stdout
        assert "[perf] workers=1" in captured.err
        assert "retrieval cache" in captured.err
        assert "merged trace:" in captured.err

    def test_eval_workers_flag(self, cli_ensemble, tmp_path, capsys):
        code = main([
            "eval", "--ensemble", str(cli_ensemble),
            "--workdir", str(tmp_path / "e2"),
            "--runs-per-question", "1",
            "--workers", "2",
        ])
        assert code == 0
        captured = capsys.readouterr()
        assert "Table 2" in captured.out
        assert "[perf] workers=2" in captured.err


class TestSQL:
    def test_sql_command(self, tmp_path, capsys):
        db = Database(tmp_path / "d.db")
        db.create_table("t", Frame({"a": [3, 1, 2]}))
        code = main(["sql", "SELECT a FROM t ORDER BY a DESC LIMIT 1", "--db", str(tmp_path / "d.db")])
        assert code == 0
        out = capsys.readouterr().out
        assert "3" in out
        assert "row groups" in out
        assert "1 columns read" in out


class TestCache:
    def test_stats_after_query(self, cli_ensemble, tmp_path, capsys):
        workdir = tmp_path / "w"
        main([
            "query", "top 5 halos at timestep 624 in simulation 0",
            "--ensemble", str(cli_ensemble),
            "--workdir", str(workdir),
            "--no-errors",
        ])
        capsys.readouterr()
        assert main(["cache", "stats", "--workdir", str(workdir)]) == 0
        out = capsys.readouterr().out
        assert "query result cache" in out
        assert "retrieval artifact cache" in out
        # a real query ran, so results were published on disk
        entries = int(out.split("disk: ")[1].split(" entries")[0])
        assert entries > 0
        # a query workdir persists no counters: only the footprint is shown
        assert "no counters: metrics.json is written by `repro eval`" in out
        assert "miss=" not in out

    def test_stats_reports_the_counters_an_eval_recorded(self, cli_ensemble, tmp_path):
        """``repro cache stats`` runs in a process of its own, so the
        counters it prints must be the ones the eval persisted, not that
        fresh process's (always zero)."""
        workdir = tmp_path / "e"
        assert main([
            "eval", "--ensemble", str(cli_ensemble), "--workdir", str(workdir),
            "--runs-per-question", "1",
        ]) == 0
        recorded = json.loads((workdir / "metrics.json").read_text())["counters"]
        assert recorded["db.cache.miss"] > 0
        src = str(Path(repro.__file__).resolve().parents[1])
        done = subprocess.run(
            [sys.executable, "-m", "repro", "cache", "stats", "--workdir", str(workdir)],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert f"miss={recorded['db.cache.miss']} " in done.stdout
        # the retrieval tiers are recorded and reported too
        assert recorded["rag.memo.hit"] > 0
        assert f"query memo: {recorded['rag.memo.hit']}/" in done.stdout

    def test_eval_reports_query_cache_perf(self, cli_ensemble, tmp_path, capsys):
        code = main([
            "eval", "--ensemble", str(cli_ensemble),
            "--workdir", str(tmp_path / "qc"),
            "--runs-per-question", "1",
        ])
        assert code == 0
        err = capsys.readouterr().err
        assert "query cache:" in err and "hit ratio" in err

    def test_clear_removes_disk_entries(self, cli_ensemble, tmp_path, capsys):
        # cold memory caches so the query publishes fresh disk artifacts
        from repro.rag.cache import clear_memory_cache

        clear_memory_cache()
        workdir = tmp_path / "w"
        main([
            "query", "top 5 halos at timestep 624 in simulation 0",
            "--ensemble", str(cli_ensemble),
            "--workdir", str(workdir),
            "--no-errors",
        ])
        assert any((workdir / ".query_cache").glob("q_*"))
        assert any((workdir / ".retrieval_cache").glob("retrieval_*"))
        capsys.readouterr()
        assert main(["cache", "clear", "--workdir", str(workdir)]) == 0
        out = capsys.readouterr().out
        assert "dropped" in out
        assert not any((workdir / ".query_cache").glob("q_*"))
        assert not any((workdir / ".retrieval_cache").glob("retrieval_*"))
        # stats on an empty workdir still works
        assert main(["cache", "stats", "--workdir", str(workdir)]) == 0

    def test_stats_on_missing_workdir(self, tmp_path, capsys):
        """A workdir with no cache directories gets a clear empty-stats
        message instead of a wall of zeros (and never an error)."""
        assert main(["cache", "stats", "--workdir", str(tmp_path / "none")]) == 0
        out = capsys.readouterr().out
        assert "no caches under" in out
        assert ".query_cache" in out and ".retrieval_cache" in out

    def test_stats_reports_quarantined_entries(self, tmp_path, capsys):
        workdir = tmp_path / "w"
        qdir = workdir / ".query_cache" / ".quarantine" / "q_deadbeef"
        qdir.mkdir(parents=True)
        assert main(["cache", "stats", "--workdir", str(workdir)]) == 0
        out = capsys.readouterr().out
        assert "quarantined: 1 corrupt entries moved aside" in out


class TestChat:
    def test_chat_session(self, cli_ensemble, tmp_path, capsys, monkeypatch):
        answers = iter([
            "top 3 halos at timestep 624 in simulation 0",  # question
            "",                                              # approve plan
            "",                                              # quit
        ])
        monkeypatch.setattr("builtins.input", lambda prompt="": next(answers))
        code = main([
            "chat", "--ensemble", str(cli_ensemble),
            "--workdir", str(tmp_path / "c"), "--no-errors",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "proposed plan" in out
        assert "[completed]" in out

    def test_chat_feedback_round(self, cli_ensemble, tmp_path, capsys, monkeypatch):
        answers = iter([
            "plot the change in mass of the largest halos over all timesteps in simulation 0",
            "drop viz",   # refinement directive
            "",           # approve revised plan
            "",           # quit
        ])
        monkeypatch.setattr("builtins.input", lambda prompt="": next(answers))
        main([
            "chat", "--ensemble", str(cli_ensemble),
            "--workdir", str(tmp_path / "c2"), "--no-errors",
        ])
        out = capsys.readouterr().out
        # the second proposed plan (after 'drop viz') has no viz step
        final_plan = out.rsplit("proposed plan:", 1)[1]
        assert "[viz]" not in final_plan.split("approve?")[0]


@pytest.fixture()
def traced_session(cli_ensemble, tmp_path):
    """A completed query session directory (contains a *trace.jsonl)."""
    code = main([
        "query", "top 5 halos at timestep 624 in simulation 0",
        "--ensemble", str(cli_ensemble),
        "--workdir", str(tmp_path / "traced"),
        "--no-errors",
    ])
    assert code == 0
    return next((tmp_path / "traced").glob("query_*"))


class TestTrace:
    def test_summary(self, traced_session, capsys):
        capsys.readouterr()
        assert main(["trace", "summary", str(traced_session)]) == 0
        out = capsys.readouterr().out
        assert "spans" in out
        assert "llm tokens:" in out

    def test_tree(self, traced_session, capsys):
        capsys.readouterr()
        assert main(["trace", "tree", str(traced_session)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("session")
        assert "  supervisor.execute" in out

    def test_export_chrome(self, traced_session, tmp_path, capsys):
        out_path = tmp_path / "chrome.json"
        code = main(["trace", "export", str(traced_session),
                     "--chrome", "--out", str(out_path)])
        assert code == 0
        doc = json.loads(out_path.read_text())
        assert doc["traceEvents"]
        assert str(out_path) in capsys.readouterr().out

    def test_query_workdir_resolves_to_its_latest_session(self, traced_session, capsys):
        # the session's trace is one directory down, in W/query_NNN_*; W
        # itself holds the process's (the same spans under one root)
        workdir = traced_session.parent
        capsys.readouterr()
        assert main(["trace", "summary", str(workdir)]) == 0
        assert "llm tokens:" in capsys.readouterr().out
        assert main(["slo", "check", str(workdir)]) == 0
        assert "SLO: PASS" in capsys.readouterr().out

    def test_process_root_span_parents_the_session(self, traced_session, capsys):
        workdir = traced_session.parent
        process_trace = read_spans(workdir)
        session_trace = read_spans(traced_session)
        (root,) = [s for s in process_trace if s["name"] == CLI_PROCESS_SPAN]
        session = next(s for s in process_trace if s["name"] == "session")
        assert session["parent_id"] == root["span_id"]
        assert session["trace_id"] == root["trace_id"]
        assert root["attributes"]["command"] == "query"
        assert 0.0 <= root["attributes"]["import_s"] <= root["duration"]
        assert root["start"] <= session["start"] and session["end"] <= root["end"]
        # one more span, the same tree: every byte-identity comparison holds
        assert len(process_trace) == len(session_trace) + 1
        assert canonical_tree(process_trace) == canonical_tree(session_trace)
        # the session's own trail is as the library wrote it
        verify_audit_trail(traced_session)
        capsys.readouterr()
        main(["trace", "summary", str(workdir)])
        assert "startup: " in capsys.readouterr().out
        main(["trace", "summary", str(traced_session)])
        assert "startup: " not in capsys.readouterr().out

    def test_process_root_span_parents_the_eval_suite(self, cli_ensemble, tmp_path, capsys):
        workdir = tmp_path / "e"
        assert main(["eval", "--ensemble", str(cli_ensemble), "--workdir", str(workdir),
                     "--runs-per-question", "1"]) == 0
        spans = read_spans(workdir)
        (root,) = [s for s in spans if s["name"] == CLI_PROCESS_SPAN]
        suite = next(s for s in spans if s["name"] == "harness.run_suite")
        assert suite["parent_id"] == root["span_id"]
        assert root["attributes"]["command"] == "eval"
        capsys.readouterr()
        main(["trace", "summary", str(workdir)])
        assert "`repro eval` started work" in capsys.readouterr().out

    def test_missing_trace_is_friendly(self, tmp_path, capsys):
        # a fresh workdir has no trace yet: report that, exit 0
        for action in ("summary", "tree"):
            capsys.readouterr()
            assert main(["trace", action, str(tmp_path / "nowhere")]) == 0
            assert "no trace yet" in capsys.readouterr().out

    def test_empty_trace_is_friendly(self, tmp_path, capsys):
        empty = tmp_path / "empty_trace.jsonl"
        empty.write_text("")
        capsys.readouterr()
        assert main(["trace", "summary", str(empty)]) == 0
        assert "empty" in capsys.readouterr().out


class TestCostCommand:
    def test_missing_ledger_is_friendly(self, tmp_path, capsys):
        # the trace is the ledger: no trace, nothing to report
        assert main(["cost", str(tmp_path)]) == 0
        assert "no trace under" in capsys.readouterr().out

    def test_reports_spend_breakdown(self, tmp_path, capsys):
        from repro.obs.export import write_jsonl
        from repro.obs.tracer import Tracer

        tracer = Tracer()
        with tracer.span("supervisor.execute", semantic_level=1):
            with tracer.span("step.sql", attempt=0):
                with tracer.span("llm.chat", skill="planner", prompt_tokens=100,
                                 completion_tokens=50, cost_usd=0.001):
                    pass
            with tracer.span("step.sql", attempt=1):
                with tracer.span("llm.chat", skill="sql", prompt_tokens=200,
                                 completion_tokens=80, cost_usd=0.002):
                    pass
        write_jsonl(tracer.span_dicts(), tmp_path / "trace.jsonl")
        capsys.readouterr()
        assert main(["cost", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "$0.0030 over 2 LLM calls, 430 tokens (300 prompt + 130 completion)" in out
        assert "planner" in out and "sql" in out
        assert "token growth per redo attempt" in out
        assert "level 1: attempt 0: 150  attempt 1: 280" in out

    def test_reads_a_query_workdir(self, cli_ensemble, tmp_path, capsys):
        workdir = tmp_path / "q"
        assert main([
            "query", "top 5 halos at timestep 624 in simulation 0",
            "--ensemble", str(cli_ensemble), "--workdir", str(workdir), "--no-errors",
        ]) == 0
        tokens = re.search(r"tokens: ([\d,]+)  storage", capsys.readouterr().out).group(1)
        assert main(["cost", str(workdir), "--by", "node"]) == 0
        out = capsys.readouterr().out
        assert f"LLM calls, {tokens} tokens" in out
        assert "  plan " in out and "level ?: attempt 0:" in out


class TestSloCommand:
    def test_missing_trace_is_friendly(self, tmp_path, capsys):
        assert main(["slo", "check", str(tmp_path / "nowhere")]) == 0
        assert "no trace yet" in capsys.readouterr().out

    def test_pass_and_fail_exit_codes(self, traced_session, tmp_path, capsys):
        assert main(["slo", "check", str(traced_session)]) == 0
        assert "SLO: PASS" in capsys.readouterr().out
        # a policy nothing can satisfy must fail with exit 1
        policy = tmp_path / "strict.json"
        policy.write_text(json.dumps({"trace": {"max_total_tokens": 1}}))
        assert main(["slo", "check", str(traced_session), "--policy", str(policy)]) == 1
        assert "SLO: FAIL" in capsys.readouterr().out
        # a policy from before the bench family was retired is refused by
        # name, not evaluated without its bench rules
        policy.write_text(json.dumps({"bench": []}))
        assert main(["slo", "check", str(traced_session), "--policy", str(policy)]) == 1
        out = capsys.readouterr().out
        assert "'bench' section" in out and "SLO:" not in out


class TestProfileCommand:
    def test_profile_writes_artifacts(self, cli_ensemble, tmp_path, capsys):
        workdir = tmp_path / "prof"
        code = main([
            "profile", "top 5 halos at timestep 624 in simulation 0",
            "--ensemble", str(cli_ensemble),
            "--workdir", str(workdir), "--no-errors", "--hz", "400",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "flamegraph:" in out
        assert (workdir / "profile.collapsed").exists()
        svg = (workdir / "profile.svg").read_text()
        assert svg.startswith("<svg") and svg.endswith("</svg>")


class TestLiveFlag:
    def test_query_live_streams_spans(self, cli_ensemble, tmp_path, capsys):
        code = main([
            "query", "top 5 halos at timestep 624 in simulation 0",
            "--ensemble", str(cli_ensemble),
            "--workdir", str(tmp_path / "lv"), "--no-errors", "--live",
        ])
        assert code == 0
        err = capsys.readouterr().err
        assert "[live] session" in err
        assert "[live] llm.chat" in err


class TestVerbosity:
    def test_quiet_suppresses_status(self, cli_ensemble, tmp_path, capsys):
        code = main([
            "-q", "eval", "--ensemble", str(cli_ensemble),
            "--workdir", str(tmp_path / "eq"),
            "--runs-per-question", "1",
        ])
        assert code == 0
        captured = capsys.readouterr()
        assert "Table 2" in captured.out      # results still on stdout
        assert "[perf]" not in captured.err   # status muted below WARNING

    def test_verbose_adds_debug_lines(self, cli_ensemble, tmp_path, capsys):
        code = main([
            "-v", "query", "top 3 halos at timestep 624 in simulation 0",
            "--ensemble", str(cli_ensemble),
            "--workdir", str(tmp_path / "vq"),
            "--no-errors",
        ])
        assert code == 0
        err = capsys.readouterr().err
        assert "trace:" in err                # the cmd_query debug line


class TestArtifactCompat:
    """``repro sandbox stats`` reads the ``sandbox.fleet.*`` counters of a
    workdir's ``metrics.json`` (the registry snapshot a drained server or
    an eval writes) and nothing else."""

    def test_sandbox_stats_notes_pre_schema_snapshot(self, tmp_path, capsys):
        # a workdir an older tree's fleet left behind has no metrics.json:
        # its sandbox_fleet.json snapshot is not read
        (tmp_path / "sandbox_fleet.json").write_text(json.dumps(
            {"schema": 2, "workers": 1, "mode": "thread", "members": [{"index": 0}]}
        ))
        assert main(["sandbox", "stats", "--workdir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "no counters" in out and "metrics.json" in out
        assert f"repro trace summary {tmp_path}" in out
        assert "routes=" not in out

    def test_sandbox_stats_current_schema_has_no_note(self, tmp_path, capsys):
        counters = {"sandbox.fleet.routes": 7, "sandbox.fleet.trips": 1, "db.cache.miss": 3}
        (tmp_path / "metrics.json").write_text(
            json.dumps({"counters": counters})
        )
        assert main(["sandbox", "stats", "--workdir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "routes=7 trips=1 respawns=0 fallbacks=0" in out
        assert "no counters" not in out


class TestTornArtifacts:
    """A killed writer can leave ``metrics.json`` or ``trace.jsonl`` cut
    mid-line: each reader says so in one line and exits 1, with no
    traceback."""

    @pytest.mark.parametrize(
        "body, reason",
        [('{"counters": {"db.cache.miss": 3', "is not JSON"),
         ('{"histograms": {}}', "has no 'counters' section")],
        ids=["torn", "no-counters"],
    )
    @pytest.mark.parametrize("command", ["cache", "sandbox"])
    def test_stats_name_an_unreadable_metrics_file(self, tmp_path, capsys, command, body, reason):
        (tmp_path / ".query_cache").mkdir()
        (tmp_path / "metrics.json").write_text(body)
        assert main([command, "stats", "--workdir", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert out.startswith(f"unreadable: {tmp_path / 'metrics.json'} {reason}")
        assert len(out.splitlines()) == 1

    @pytest.mark.parametrize(
        "command", [["trace", "summary"], ["trace", "tree"], ["trace", "export"], ["cost"], ["slo", "check"]],
        ids=lambda c: " ".join(c),
    )
    def test_a_torn_trace_line_is_named(self, tmp_path, capsys, command):
        from repro.obs.export import write_jsonl
        from repro.obs.tracer import Tracer

        tracer = Tracer()
        with tracer.span("session"):
            with tracer.span("llm.chat", prompt_tokens=10, completion_tokens=5):
                pass
        trace = tmp_path / "trace.jsonl"
        write_jsonl(tracer.span_dicts(), trace)
        trace.write_bytes(trace.read_bytes()[:-20])  # the last line cut short
        capsys.readouterr()
        assert main([*command, str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert out.startswith(f"unreadable: {trace}:2: not JSON (")
        assert len(out.splitlines()) == 1


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            main(["destroy"])
