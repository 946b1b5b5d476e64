"""The data loader's write contract: one durable commit per entity per load.

A load of R runs x S steps writes each entity table with a single
``Database.create_table`` of the concatenated per-file frames -- one WAL
record, one catalog publish, row groups of up to ``row_group_size`` rows
-- instead of one commit (and one ~26-row row group) per source file.
Three properties are pinned here:

* layout and commit count of what a load leaves on disk;
* equivalence with the old per-file layout, rebuilt in the test through
  the public API (``create_table`` + per-file ``append``), for the SQL
  every suite question generates;
* all-or-nothing under every ingest kill point: after recovery a killed
  load's table is absent or whole, never a prefix of the files.
"""

import copy
import json
import math

import numpy as np
import pytest

from repro import faults
from repro.agents import AgentContext, DataLoadingAgent
from repro.core import InferA, InferAConfig
from repro.db import Database
from repro.db.errors import IngestKilled
from repro.eval.questions import QUESTION_SUITE
from repro.frame import Frame, concat
from repro.llm import MockLLM, NO_ERRORS
from repro.llm.base import MeteredModel
from repro.obs import names as obs_names
from repro.obs.metrics import get_registry
from repro.provenance import ProvenanceTracker
from repro.rag import ColumnRetriever
from repro.sandbox import InProcessClient
from repro.sim import EnsembleSpec, generate_ensemble
from repro.sim.schema import (
    COLUMN_DESCRIPTIONS,
    FILE_STRUCTURE_DESCRIPTIONS,
    IMPORTANT_COLUMNS,
)

WIDE_TIMESTEPS = (0, 124, 249, 374, 498, 624)

LOAD_PARAMS = {
    "entities": ["halos", "galaxies"],
    "columns": {
        "halos": ["fof_halo_tag", "fof_halo_count", "fof_halo_mass"],
        "galaxies": ["gal_tag", "gal_stellar_mass"],
    },
    "param_columns": ["M_seed"],
}


class SmallGroupDatabase(Database):
    """A Database whose creates default to 64-row groups, so a load of a
    few hundred rows spans several groups without a loader-side knob."""

    def create_table(self, name, frame=None, row_group_size=64):
        super().create_table(name, frame, row_group_size=row_group_size)


def generate_wide_ensemble(root):
    """4 runs x 6 steps: a full-scope load reads 24 files per entity."""
    return generate_ensemble(
        root,
        EnsembleSpec(
            n_runs=4,
            n_particles=600,
            timesteps=WIDE_TIMESTEPS,
            write_particles=False,
            seed=81,
        ),
    )


@pytest.fixture(scope="module")
def wide_ensemble(tmp_path_factory):
    return generate_wide_ensemble(tmp_path_factory.mktemp("wide_ensemble"))


def make_context(workdir, db: Database) -> AgentContext:
    return AgentContext(
        llm=MeteredModel(MockLLM(seed=1, error_model=NO_ERRORS, latency_per_call_s=0.0)),
        retriever=ColumnRetriever(
            COLUMN_DESCRIPTIONS, FILE_STRUCTURE_DESCRIPTIONS, important=IMPORTANT_COLUMNS
        ),
        db=db,
        sandbox=InProcessClient(),
        provenance=ProvenanceTracker(workdir, "s"),
    )


def per_file_frames(ensemble, entity, columns, runs, steps, param_columns=()):
    """The annotated frame of every source file, in (run, step) order."""
    frames = []
    for run in runs:
        params = ensemble.params_for(run).as_dict()
        for step in steps:
            frame = ensemble.open_file(run, step, entity).read(columns)
            extra = {
                "run": np.full(frame.num_rows, run, dtype=np.int64),
                "step": np.full(frame.num_rows, step, dtype=np.int64),
            }
            for pname in param_columns:
                extra[f"param_{pname}"] = np.full(frame.num_rows, params[pname])
            frames.append(frame.assign(**extra))
    return frames


def report_frames(ensemble, report, entity, param_columns=()):
    return per_file_frames(
        ensemble,
        entity,
        report.columns[entity],
        report.resolved_runs,
        report.resolved_steps,
        param_columns,
    )


def assert_frames_identical(got: Frame, want: Frame):
    assert got.columns == want.columns
    for name in want.columns:
        x, y = np.asarray(got[name]), np.asarray(want[name])
        assert x.dtype == y.dtype, name
        assert x.tobytes() == y.tobytes(), name


def assert_frames_equivalent(got: Frame, want: Frame):
    """Same columns, dtypes, row count and row order; floats to 1e-12
    relative (partial sums fold over different row-group boundaries),
    everything else exactly."""
    assert got.columns == want.columns
    assert got.num_rows == want.num_rows
    for name in want.columns:
        x, y = np.asarray(got[name]), np.asarray(want[name])
        assert x.dtype == y.dtype, name
        if np.issubdtype(y.dtype, np.floating):
            assert np.allclose(x, y, rtol=1e-12, atol=0.0, equal_nan=True), name
        else:
            assert np.array_equal(x, y), name


def table_bytes(db: Database, name: str) -> dict[str, bytes]:
    root = db.path / name
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def wal_commits() -> float:
    return get_registry().counter(obs_names.WAL_COMMITS).value


# ----------------------------------------------------------------------
# layout and commit count
# ----------------------------------------------------------------------
class TestLoadLayout:
    @pytest.mark.parametrize("db_class", [Database, SmallGroupDatabase])
    def test_one_commit_and_full_row_groups_per_entity(
        self, wide_ensemble, tmp_path, db_class
    ):
        db = db_class(tmp_path / "a.db")
        agent = DataLoadingAgent(make_context(tmp_path, db), wide_ensemble)
        before = wal_commits()
        report = agent.load(LOAD_PARAMS, question="q")
        assert wal_commits() == before + len(LOAD_PARAMS["entities"])
        assert report.files_read == 2 * 4 * len(WIDE_TIMESTEPS)

        catalog = json.loads((db.path / "catalog.json").read_text())
        for entity in LOAD_PARAMS["entities"]:
            frames = report_frames(wide_ensemble, report, entity, ["M_seed"])
            rows = sum(f.num_rows for f in frames)
            assert rows > 64 and len(frames) == 24
            store = db.store(entity)
            group_size = catalog[entity]["row_group_size"]
            assert store.num_row_groups == math.ceil(rows / group_size)
            assert catalog[entity]["version"] == 1
            assert sum(catalog[entity]["row_groups"]) == rows
            assert len(catalog[entity]["row_groups"]) == store.num_row_groups
            assert report.tables[entity] == rows
            assert_frames_identical(db.table_frame(entity), concat(frames))
        assert (db.store("halos").num_row_groups > 4) == (db_class is SmallGroupDatabase)

    def test_reload_is_again_one_commit_at_version_one(self, wide_ensemble, tmp_path):
        db = Database(tmp_path / "a.db")
        agent = DataLoadingAgent(make_context(tmp_path, db), wide_ensemble)
        params = {"entities": ["halos"], "columns": {"halos": ["fof_halo_count"]}}
        agent.load(params, question="q")
        first = table_bytes(db, "halos")
        before = wal_commits()
        agent.load(params, question="q")
        assert wal_commits() == before + 1
        assert db.table_version("halos") == 1
        assert table_bytes(db, "halos") == first


# ----------------------------------------------------------------------
# equivalence with the per-file layout
# ----------------------------------------------------------------------
def build_per_file_layout(db: Database, ensemble, params: dict, report) -> None:
    """What the loader wrote before: create from the first file, append
    every other one (one commit and one row group per source file)."""
    for entity in report.columns:
        if db.has_table(entity):
            db.drop_table(entity)
        frames = report_frames(ensemble, report, entity, params.get("param_columns", []))
        db.create_table(entity, frames[0])
        for frame in frames[1:]:
            db.append(entity, frame)


@pytest.mark.parametrize("question", QUESTION_SUITE, ids=[q.qid for q in QUESTION_SUITE])
def test_suite_sql_matches_per_file_layout(question, ensemble, tmp_path, monkeypatch):
    events: list[tuple] = []
    real_load, real_query = DataLoadingAgent.load, Database.query

    def spy_load(self, step_params, *args, **kwargs):
        params = copy.deepcopy(step_params)
        report = real_load(self, step_params, *args, **kwargs)
        events.append(("load", params, report))
        return report

    def spy_query(self, sql):
        result = real_query(self, sql)
        events.append(("sql", sql, result))
        return result

    app = InferA(
        ensemble, tmp_path / "work", InferAConfig(error_model=NO_ERRORS, llm_latency_s=0.0)
    )
    with monkeypatch.context() as patched:
        patched.setattr(DataLoadingAgent, "load", spy_load)
        patched.setattr(Database, "query", spy_query)
        assert app.run_query(question.text).completed
    assert any(kind == "load" for kind, *_ in events)
    statements = [event for event in events if event[0] == "sql"]
    assert statements, f"{question.qid} generated no SQL"

    reference = Database(tmp_path / "per_file.db", result_cache=False)
    for kind, payload, outcome in events:
        if kind == "load":
            build_per_file_layout(reference, ensemble, payload, outcome)
            for entity in outcome.columns:
                assert reference.store(entity).num_row_groups == (
                    len(outcome.resolved_runs) * len(outcome.resolved_steps)
                )
        else:
            assert_frames_equivalent(outcome, reference.query(payload))


# ----------------------------------------------------------------------
# all-or-nothing under every ingest kill point
# ----------------------------------------------------------------------
KILL_FIELDS = (
    "wal_torn_tail",
    "ingest_kill_apply",
    "ingest_partial_row_group",
    "ingest_kill_publish",
)
HALO_LOAD = {
    "entities": ["halos"],
    "columns": {"halos": ["fof_halo_tag", "fof_halo_count", "fof_halo_mass"]},
}


def assert_absent_or_whole(db: Database, name: str, whole: Frame) -> bool:
    """The all-or-nothing property; returns whether the table is there."""
    if not db.has_table(name):
        return False
    assert_frames_identical(db.table_frame(name), whole)
    return True


class TestLoadIsAllOrNothing:
    @pytest.fixture(scope="class")
    def unkilled(self, wide_ensemble, tmp_path_factory):
        """Per Database class: the whole table, its on-disk bytes and its
        content signature."""
        out = {}
        for db_class in (Database, SmallGroupDatabase):
            workdir = tmp_path_factory.mktemp("unkilled")
            db = db_class(workdir / "a.db")
            agent = DataLoadingAgent(make_context(workdir, db), wide_ensemble)
            report = agent.load(HALO_LOAD, question="q")
            assert report.files_read == 24
            whole = concat(report_frames(wide_ensemble, report, "halos"))
            assert_frames_identical(db.table_frame("halos"), whole)
            signature = db.store("halos").content_signature()
            out[db_class] = (whole, table_bytes(db, "halos"), signature)
        return out

    def _kill_recover_retry(self, ensemble, workdir, unkilled, db_class, profile, match=None):
        """Kill a load, recover, retry; returns whether recovery replayed
        the load, and the segment bytes the dead load had staged."""
        whole, twin_bytes, twin_signature = unkilled[db_class]
        db = db_class(workdir / "a.db")
        agent = DataLoadingAgent(make_context(workdir, db), ensemble)
        with faults.use_faults(faults.FaultInjector(profile)), faults.arm_ingest_kills():
            with pytest.raises(IngestKilled, match=match):
                agent.load(HALO_LOAD, question="q")
        # a reader process sees nothing of the dead load ...
        assert not db_class(workdir / "a.db").has_table("halos")
        staged = table_bytes(db, "halos") if (db.path / "halos").exists() else {}
        # ... and recovery drops what it staged and settles it to nothing
        # or to all 24 files
        report = db.recover()
        assert report["orphan_groups"] == len({name.split("/")[0] for name in staged})
        present = assert_absent_or_whole(db_class(workdir / "a.db"), "halos", whole)
        assert present == (report["replayed"] == 1)
        if present:
            assert db.store("halos").content_signature() == twin_signature
        agent.load(HALO_LOAD, question="q")  # the retried load
        assert db.table_version("halos") == 1
        assert table_bytes(db, "halos") == twin_bytes
        return present, staged

    @pytest.mark.parametrize("db_class", [Database, SmallGroupDatabase])
    @pytest.mark.parametrize("point_field", KILL_FIELDS)
    def test_killed_load_recovers_absent_or_whole(
        self, wide_ensemble, tmp_path, unkilled, db_class, point_field
    ):
        profile = faults.FaultProfile(seed=7, **{point_field: 1.0})
        present, staged = self._kill_recover_retry(
            wide_ensemble, tmp_path, unkilled, db_class, profile
        )
        # only a torn WAL record loses the intent; every later death replays
        assert present == (point_field != "wal_torn_tail")
        # a death after staging, before the catalog commit, left every
        # segment of the load complete on disk, and no catalog entry
        if point_field == "ingest_kill_publish":
            assert staged == unkilled[db_class][1]

    def test_kill_after_several_staged_groups(self, wide_ensemble, tmp_path, unkilled):
        # at this seed the kill strikes the fourth of the load's row groups
        profile = faults.FaultProfile(seed=6, ingest_partial_row_group=0.5)
        present, staged = self._kill_recover_retry(
            wide_ensemble, tmp_path, unkilled, SmallGroupDatabase, profile, match="rg00003"
        )
        assert present and sorted({name.split("/")[0] for name in staged}) == [
            f"rg{i:05d}" for i in range(4)
        ]

    def test_killed_reload_never_keeps_a_prefix(self, wide_ensemble, tmp_path, unkilled):
        """A redo's reload that dies leaves the table absent or whole --
        the old one is dropped first, so never a stale/partial mix."""
        whole, twin_bytes, _ = unkilled[Database]
        db = Database(tmp_path / "a.db")
        agent = DataLoadingAgent(make_context(tmp_path, db), wide_ensemble)
        agent.load(HALO_LOAD, question="q")
        profile = faults.FaultProfile(seed=6, ingest_partial_row_group=1.0)
        with faults.use_faults(faults.FaultInjector(profile)), faults.arm_ingest_kills():
            with pytest.raises(IngestKilled):
                agent.load(HALO_LOAD, question="q")
        db.recover()
        assert assert_absent_or_whole(Database(tmp_path / "a.db"), "halos", whole)
        agent.load(HALO_LOAD, question="q")
        assert table_bytes(db, "halos") == twin_bytes
