"""Bloom filters: one vectorised hash per column, kept in each row group's
``repro.gio`` header and parsed through the database handle's path-keyed
cache.

Pruning must never change an answer: every equality/IN answer of a
pruned scan is checked against a numpy oracle, every stored value must
pass ``might_contain``, and the cache must only ever serve the filters of
the committed file at its path -- also while kill points leave staged
row-group files behind (this module's ``TestBloomCache`` runs in the
heavy chaos CI step).
"""

from __future__ import annotations

import math
import os
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import faults
from repro.db import Database
from repro.db import storage as storage_mod
from repro.db.bloom import HASH_SCHEME, BloomFilter
from repro.db.errors import DBError, IngestKilled
from repro.faults import FaultInjector, FaultProfile, arm_ingest_kills, use_faults
from repro.frame import Frame
from repro.gio.format import GIOFile, encode_gio, map_gio


def count(db: Database, where: str) -> int:
    return int(db.query(f"SELECT COUNT(*) AS n FROM t WHERE {where}")["n"][0])


# ----------------------------------------------------------------------
# regressions: pruning changed these answers
# ----------------------------------------------------------------------
class TestPruningNeverChangesAnAnswer:
    def test_negative_zero_matches_zero(self, tmp_path):
        """-0.0 = 0 in SQL; a group holding only -0.0 among values its
        zone map cannot exclude 0 from must not be bloom-refuted."""
        db = Database(tmp_path / "z.db", result_cache=False)
        db.create_table(
            "t", Frame({"x": np.asarray([-0.0, 1.0, 5.0, 6.0])}), row_group_size=2
        )
        assert count(db, "x = 0") == 1
        assert count(db, "x = 0.0") == 1
        assert count(db, "x IN (0, 6)") == 2

    def test_text_literal_against_a_number_column_is_never_refuted(self, tmp_path):
        """``step = '498'`` compares printed forms and matches 498; a
        filter of numbers must not refute a text probe."""
        db = Database(tmp_path / "m.db", result_cache=False)
        db.create_table(
            "t", Frame({"step": np.asarray([498, 498, 1, 2])}), row_group_size=2
        )
        assert count(db, "step = '498'") == 2
        assert db.last_scan_stats.row_groups_skipped_bloom == 0
        assert count(db, "step IN ('498', 7)") == 2
        # a same-kind probe still prunes
        assert count(db, "step = 1") == 1
        assert db.last_scan_stats.row_groups_skipped == 1


# ----------------------------------------------------------------------
# property tests against a numpy oracle
# ----------------------------------------------------------------------
INTS = st.sampled_from([0, 1, 2, 3, 498, 2**40])
FLOATS = st.sampled_from([0.0, -0.0, 1.5, 2.0, 498.0, 1e300, math.inf, -math.inf, math.nan])
TEXT = st.text(alphabet="ab'é😀 9", max_size=4)


@st.composite
def tables(draw):
    n = draw(st.integers(1, 18))
    columns = {
        "i": np.asarray(draw(st.lists(INTS, min_size=n, max_size=n)), dtype=np.int64),
        "f": np.asarray(draw(st.lists(FLOATS, min_size=n, max_size=n)), dtype=np.float64),
        "s": np.asarray(draw(st.lists(TEXT, min_size=n, max_size=n)), dtype=str),
    }
    return columns, draw(st.integers(1, 5))


def spellings(value) -> list:
    """A stored value, its neighbours and its other-kind spellings."""
    if isinstance(value, str):
        return [value, value + "a", value[:-1], "498"]
    if isinstance(value, float) and not math.isfinite(value):
        return [str(value), 0, -0.0]
    number = float(value)
    out = [value, number + 1, number - 0.5, str(value), -0.0]
    if isinstance(value, int):
        out += [number, f"{number}"]
    return out


def sql_literal(value) -> str | None:
    if isinstance(value, str):
        return "'" + value.replace("'", "''") + "'"
    if isinstance(value, float):
        if not math.isfinite(value):
            return None
        return ("-" if math.copysign(1.0, value) < 0 else "") + repr(abs(value))
    return ("-" if value < 0 else "") + str(abs(value))


def oracle_eq(column: np.ndarray, value) -> np.ndarray:
    """The engine's equality, spelled out: same kind compares values,
    text against a number column compares printed forms, and a number
    never equals text."""
    if column.dtype.kind == "U":
        return column == value if isinstance(value, str) else np.zeros(len(column), bool)
    if isinstance(value, str):
        return np.asarray([str(v) == value for v in column], dtype=bool)
    return column == value


@given(tables(), st.data())
@settings(max_examples=40, deadline=None)
@example(
    ({"i": np.asarray([498, 498, 1]), "f": np.asarray([-0.0, 1.5, 2.0]),
      "s": np.asarray(["", "é", "ab"])}, 2),
    None,
)
def test_pruned_equality_matches_the_oracle(tmp_path_factory, table, data):
    columns, row_group_size = table
    db = Database(tmp_path_factory.mktemp("prop") / "p.db", result_cache=False)
    db.create_table("t", Frame(columns), row_group_size=row_group_size)
    store = db.store("t")
    # no false negatives: every stored value passes its group's filter
    for index in range(store.num_row_groups):
        group = store.read_row_group(index)
        for name, bloom in store.blooms(index).items():
            assert all(bloom.might_contain(v) for v in np.asarray(group[name]).tolist())
    for name, column in columns.items():
        stored = column.tolist()
        if data is None:  # the explicit example: every spelling of every value
            literals = [lit for v in stored for lit in spellings(v)]
        else:
            value = data.draw(st.sampled_from(stored))
            literals = data.draw(st.lists(st.sampled_from(spellings(value)), min_size=1, max_size=3))
        literals = [lit for lit in literals if sql_literal(lit) is not None]
        for lit in literals:
            assert count(db, f"{name} = {sql_literal(lit)}") == int(oracle_eq(column, lit).sum()), (
                name, lit, column
            )
        if literals:
            want = np.zeros(len(column), bool)
            for lit in literals:
                want |= oracle_eq(column, lit)
            spelled = ", ".join(sql_literal(lit) for lit in literals)
            assert count(db, f"{name} IN ({spelled})") == int(want.sum())


VALUES = st.one_of(
    st.lists(st.integers(-3, 3) | st.integers(-(2**62), 2**62), max_size=60).map(
        lambda v: np.asarray(v, dtype=np.int64)
    ),
    st.lists(st.floats(allow_nan=True) | st.sampled_from([0.0, -0.0]), max_size=60).map(
        lambda v: np.asarray(v, dtype=np.float64)
    ),
    st.lists(TEXT, max_size=60).map(lambda v: np.asarray(v, dtype=str)),
)


@given(VALUES)
@settings(max_examples=150, deadline=None)
def test_a_build_over_values_equals_a_build_over_their_distinct_values(values):
    full, distinct = BloomFilter.build(values), BloomFilter.build(np.unique(values))
    if full is None:
        assert distinct is None
        return
    assert distinct is not None and full.bits == distinct.bits and full.kind == distinct.kind
    assert all(full.might_contain(v) for v in values.tolist())


def reference_bits(values: list, kind: str, m: int = 4096, k: int = 4) -> bytes | None:
    """The bitset ``BloomFilter.build`` should produce, one value at a time
    in Python integers: float64 bits (-0.0 folded, NaN dropped) or the
    code-point polynomial, splitmix64's finalizer, double hashing over its
    32-bit halves, and no filter past half load."""
    mask, bits = (1 << 64) - 1, bytearray(m // 8)
    for value in values:
        if kind == "number":
            if value != value:
                continue
            key = int.from_bytes(struct.pack("<d", float(value) + 0.0), "little")
        else:
            key = sum(ord(c) * pow(0x9E3779B97F4A7C15, j + 1, 1 << 64) for j, c in enumerate(value))
        h = key & mask
        h ^= h >> 30
        h = (h * 0xBF58476D1CE4E5B9) & mask
        h ^= h >> 27
        h = (h * 0x94D049BB133111EB) & mask
        h ^= h >> 31
        for i in range(k):
            pos = ((h & 0xFFFFFFFF) + i * ((h >> 32) | 1)) % m
            bits[pos >> 3] |= 1 << (pos & 7)
    load = sum(bin(b).count("1") for b in bits) / m
    return None if load > 0.5 else bytes(bits)


@given(VALUES)
@settings(max_examples=60, deadline=None)
def test_the_vectorised_hash_matches_a_per_value_reference(values):
    kind = "text" if values.dtype.kind == "U" else "number"
    bloom = BloomFilter.build(values)
    want = reference_bits(values.tolist(), kind)
    assert (None if bloom is None else bytes(bloom.bits)) == want


def test_an_early_out_decides_as_a_full_build_would():
    """Load only grows, so a prefix past the bound decides for the whole
    column, and a column whose tail saturates is refused too."""
    repeated = np.concatenate([np.ones(5000), np.arange(5000.0)])
    assert BloomFilter.build(repeated) is None
    assert BloomFilter.build(np.arange(5000.0)) is None
    low = np.tile(np.arange(100), 80)
    assert BloomFilter.build(low).bits == BloomFilter.build(np.arange(100)).bits


def test_the_probe_width_of_a_string_never_matters():
    """Zero padding adds nothing to a string's hash: the same characters
    in a narrow column and a wide literal meet."""
    narrow = BloomFilter.build(np.asarray(["ab", "c"]))
    wide = BloomFilter.build(np.asarray(["ab", "c", "a much longer value"]))
    assert narrow.might_contain("ab") and wide.might_contain("ab")
    assert BloomFilter.build(np.asarray(["ab"], dtype="<U40")).bits == (
        BloomFilter.build(np.asarray(["ab"], dtype="<U2")).bits
    )


# ----------------------------------------------------------------------
# persisted docs: in the row group's header, naming their hash
# ----------------------------------------------------------------------
def kinds_frame(kinds: list[str]) -> Frame:
    return Frame({"kind": np.asarray(kinds), "k": np.arange(len(kinds))})


class TestFilterDocs:
    def test_every_persisted_doc_names_its_hash(self, tmp_path):
        db = Database(tmp_path / "d.db", result_cache=False)
        db.create_table("t", kinds_frame(["a", "a", "b", "b"]), row_group_size=2)
        entry = db.snapshot().entry("t")
        assert "blooms" not in entry
        for index in range(2):
            header = GIOFile(db.store("t").path / f"rg{index:05d}").attrs["blooms"]
            assert set(header) == {"kind", "k"}
            assert {doc["hash"] for doc in header.values()} == {HASH_SCHEME}
            assert {doc["kind"] for doc in header.values()} == {"text", "number"}

    def test_a_doc_of_another_hash_is_never_parsed(self):
        doc = BloomFilter.build(np.asarray(["a"])).to_meta()
        assert BloomFilter.from_meta(doc) is not None
        for foreign in ({**doc, "hash": "blake2b"}, {k: v for k, v in doc.items() if k != "hash"},
                        {**doc, "kind": "bytes"}, {**doc, "bits": "zz"}):
            assert BloomFilter.from_meta(foreign) is None

    def test_a_group_whose_filters_name_another_hash_is_never_bloom_pruned(self, tmp_path):
        db = Database(tmp_path / "f.db", result_cache=False)
        db.create_table("t", kinds_frame(["a", "a", "b", "b"]), row_group_size=2)
        assert count(db, "kind = 'b'") == 2
        assert db.last_scan_stats.row_groups_skipped_bloom == 1
        # rewrite group 0's header as a writer with another hash would have
        rg = db.store("t").path / "rg00000"
        header = GIOFile(rg).attrs["blooms"]
        columns = {n: np.array(c) for n, c in map_gio(rg).items()}
        foreign = {n: {**doc, "hash": "blake2b"} for n, doc in header.items()}
        rg.write_bytes(b"".join(encode_gio(columns, {"blooms": foreign})[0]))
        fresh = Database(db.path, result_cache=False)
        assert fresh.store("t").blooms(0) == {}
        assert count(fresh, "kind = 'b'") == 2
        assert fresh.last_scan_stats.row_groups_skipped_bloom == 0

    def test_catalog_grows_at_most_400_bytes_per_six_column_row_group(self, tmp_path):
        """Filters stay out of the catalog: an ingest-shaped append (ids,
        one step, a few runs, one kind, two float columns) appends a commit
        record with a row count, a zone map and checksums, not a kilobyte
        of hex per low-cardinality column."""
        rng = np.random.default_rng(5)
        rows = 4096

        def frame(i: int) -> Frame:
            return Frame({
                "id": np.arange(i * rows, (i + 1) * rows, dtype=np.int64),
                "step": np.full(rows, 624, dtype=np.int64),
                "run": rng.integers(0, 8, rows),
                "kind": np.full(rows, f"kind_{i % 8:02d}"),
                "mass": rng.lognormal(3.0, 1.0, rows),
                "x": rng.normal(0.0, 1.0, rows),
            })

        db = Database(tmp_path / "g.db", result_cache=False)
        db.create_table("t", frame(0), row_group_size=rows)
        (catalog,) = db.path.glob("catalog.*.log")
        sizes = [catalog.stat().st_size]
        for i in range(1, 9):
            db.append("t", frame(i))
            sizes.append(catalog.stat().st_size)
        growth = np.diff(sizes)
        assert growth.max() <= 400, growth
        # the filters are still there, each in its own group's header
        assert set(db.store("t").blooms(8)) == {"step", "run", "kind"}


# ----------------------------------------------------------------------
# the handle's path-keyed cache
# ----------------------------------------------------------------------
@pytest.fixture()
def header_reads(monkeypatch) -> list[str]:
    """Names of the row-group files whose header a store parsed."""
    seen: list[str] = []

    class Counting(GIOFile):
        def __init__(self, path):
            seen.append(f"{os.path.basename(os.path.dirname(path))}/{os.path.basename(path)}")
            super().__init__(path)

    monkeypatch.setattr(storage_mod, "GIOFile", Counting)
    return seen


def assert_cache_matches_disk(db: Database) -> None:
    """Every cached entry is a committed row group's, and is what its
    file's header holds now."""
    snap = db.snapshot()
    committed = {
        str(snap.store(name).path / f"rg{i:05d}")
        for name in snap.list_tables()
        for i in range(snap.store(name).num_row_groups)
    }
    assert set(db._bloom_cache) <= committed
    for path, cached in db._bloom_cache.items():
        docs = GIOFile(path).attrs["blooms"]
        fresh = {n: BloomFilter.from_meta(d) for n, d in docs.items()}
        assert {n: (b.kind, bytes(b.bits)) for n, b in cached.items()} == {
            n: (b.kind, bytes(b.bits)) for n, b in fresh.items()
        }, path


class TestBloomCache:
    def test_a_snapshot_after_an_append_reads_only_the_new_headers(self, tmp_path, header_reads):
        db = Database(tmp_path / "c.db", result_cache=False)
        db.create_table("t", kinds_frame(["a", "a", "b", "b"]), row_group_size=2)
        gen = db.store("t").path.name
        assert count(db, "kind = 'c'") == 0
        assert header_reads == [f"{gen}/rg00000", f"{gen}/rg00001"]
        db.append("t", kinds_frame(["c", "c"]))
        assert count(db, "kind = 'c'") == 2
        assert header_reads[2:] == [f"{gen}/rg00002"]
        # a range predicate, and a group the zone map refutes, read none
        count(db, "k > 0")
        count(db, "kind = 'a' AND k > 100")
        assert len(header_reads) == 3

    def test_a_dropped_and_recreated_table_never_sees_the_old_filters(self, tmp_path):
        db = Database(tmp_path / "r.db", result_cache=False)
        db.create_table("t", kinds_frame(["a", "a", "a", "a"]), row_group_size=2)
        assert count(db, "kind = 'b'") == 0
        assert db.last_scan_stats.row_groups_skipped_bloom == 2
        db.drop_table("t")
        db.create_table("t", kinds_frame(["b", "b", "b", "b"]), row_group_size=2)
        assert count(db, "kind = 'b'") == 4
        assert count(db, "kind = 'a'") == 0
        assert db.last_scan_stats.row_groups_skipped_bloom == 2
        # the dropped generation's entries left the cache with it
        assert {os.path.dirname(path) for path in db._bloom_cache} == {str(db.store("t").path)}
        assert_cache_matches_disk(db)

    def test_a_rolled_back_appends_index_serves_the_new_files_filter(
        self, tmp_path, monkeypatch
    ):
        db = Database(tmp_path / "b.db", result_cache=False)
        db.create_table("t", kinds_frame(["a", "a"]), row_group_size=2)
        real, failed = Database._flush_catalog, []

        def fail_once(self, state, record):
            if not failed:
                failed.append(True)
                # a reader probing mid-commit sees only the committed group
                assert count(self, "kind = 'x'") == 0
                raise DBError("publish failed")
            return real(self, state, record)

        monkeypatch.setattr(Database, "_flush_catalog", fail_once)
        with pytest.raises(DBError):
            db.append("t", kinds_frame(["x", "x"]))
        assert_cache_matches_disk(db)
        db.append("t", kinds_frame(["y", "y"]))  # stages rg00001 again
        assert count(db, "kind = 'y'") == 2
        assert count(db, "kind = 'x'") == 0
        assert db.last_scan_stats.row_groups_skipped_bloom == 2
        assert_cache_matches_disk(db)

    def test_kill_points_never_leave_a_staged_filter_in_the_cache(self, tmp_path):
        """Appends shot at every kill point (``REPRO_FAULT_PROFILE``,
        heavy by default), probed between the death and the recovery:
        each frame's kind is new, so a staged file's filter served at a
        path a later commit reuses would refute a present value."""
        name = (os.environ.get(faults.ENV_VAR) or "").strip() or "heavy"
        try:
            profile = FaultProfile.named(name, seed=41)
        except ValueError:  # a JSON rate map in the env var
            profile = FaultProfile.from_env(seed=41)
        injector = FaultInjector(profile)
        db = Database(tmp_path / "k.db", result_cache=False)
        db.create_table("t", kinds_frame(["k00", "k00"]), row_group_size=2)
        committed, kills = ["k00", "k00"], 0
        for i in range(1, 17):
            kind = f"k{i:02d}"
            try:
                with use_faults(injector), arm_ingest_kills():
                    db.append("t", kinds_frame([kind, kind]))
                committed += [kind, kind]
            except IngestKilled:
                kills += 1
                # between the death and the restart, only committed groups show
                assert count(db, f"kind = '{kind}'") == 0
                db.recover()  # drops the unacknowledged write: the next frame reuses the index
                assert db.store("t").num_rows == len(committed)
            for seen in sorted(set(committed)) + [kind]:
                assert count(db, f"kind = '{seen}'") == committed.count(seen), seen
        assert db.store("t").num_rows == len(committed)
        assert_cache_matches_disk(db)
        if any(profile.rate(p) > 0 for p in faults.INGEST_KILL_POINTS):
            assert kills >= 1
