"""SQL execution semantics, checked against direct NumPy computation."""

import numpy as np
import pytest

from repro.db import Database, UnknownColumnError
from repro.db.errors import UnsupportedSQLError
from repro.frame import Frame


@pytest.fixture(scope="module")
def db(tmp_path_factory):
    rng = np.random.default_rng(17)
    n = 500
    d = Database(tmp_path_factory.mktemp("db") / "q.db")
    d.create_table(
        "halos",
        Frame(
            {
                "run": rng.integers(0, 4, n),
                "step": rng.choice([0, 249, 498, 624], n),
                "tag": np.arange(n, dtype=np.int64),
                "mass": rng.lognormal(3.0, 1.0, n),
                "count": rng.integers(5, 500, n),
                "kind": rng.choice(np.asarray(["fof", "sod"], dtype=object), n),
            }
        ),
        row_group_size=64,  # force multi-row-group streaming
    )
    d.create_table(
        "galaxies",
        Frame(
            {
                "tag": rng.integers(0, n, 300),
                "gmass": rng.lognormal(1.0, 0.5, 300),
            }
        ),
        row_group_size=50,
    )
    return d


@pytest.fixture(scope="module")
def raw(db):
    return db.table_frame("halos")


class TestProjectionFilter:
    def test_where_comparison(self, db, raw):
        out = db.query("SELECT tag FROM halos WHERE mass > 30")
        expected = raw["tag"][raw["mass"] > 30]
        assert np.array_equal(np.sort(out["tag"]), np.sort(expected))

    def test_where_and_or(self, db, raw):
        out = db.query("SELECT tag FROM halos WHERE run = 0 AND (step = 624 OR step = 0)")
        mask = (raw["run"] == 0) & ((raw["step"] == 624) | (raw["step"] == 0))
        assert out.num_rows == int(mask.sum())

    def test_where_in(self, db, raw):
        out = db.query("SELECT tag FROM halos WHERE step IN (0, 624)")
        assert out.num_rows == int(np.isin(raw["step"], [0, 624]).sum())

    def test_where_between(self, db, raw):
        out = db.query("SELECT tag FROM halos WHERE count BETWEEN 100 AND 200")
        mask = (raw["count"] >= 100) & (raw["count"] <= 200)
        assert out.num_rows == int(mask.sum())

    def test_where_not(self, db, raw):
        out = db.query("SELECT tag FROM halos WHERE NOT run = 0")
        assert out.num_rows == int((raw["run"] != 0).sum())

    def test_string_equality(self, db, raw):
        out = db.query("SELECT tag FROM halos WHERE kind = 'fof'")
        assert out.num_rows == int((raw["kind"] == "fof").sum())

    def test_like(self, db, raw):
        out = db.query("SELECT tag FROM halos WHERE kind LIKE 'f%'")
        assert out.num_rows == int((raw["kind"] == "fof").sum())

    def test_arithmetic_projection(self, db, raw):
        out = db.query("SELECT mass * 2 + 1 AS m2 FROM halos")
        assert np.allclose(np.sort(out["m2"]), np.sort(raw["mass"] * 2 + 1))

    def test_scalar_functions(self, db, raw):
        out = db.query("SELECT LOG10(mass) AS lm, SQRT(count) AS sc FROM halos")
        assert np.allclose(np.sort(out["lm"]), np.sort(np.log10(raw["mass"])))
        assert np.allclose(np.sort(out["sc"]), np.sort(np.sqrt(raw["count"])))

    def test_case_expression(self, db, raw):
        out = db.query(
            "SELECT CASE WHEN mass > 30 THEN 1 ELSE 0 END AS big FROM halos"
        )
        assert int(out["big"].sum()) == int((raw["mass"] > 30).sum())

    def test_unknown_column_error_has_candidates(self, db):
        with pytest.raises(UnknownColumnError) as exc:
            db.query("SELECT masss FROM halos")
        assert "mass" in str(exc.value)


class TestOrderLimit:
    def test_order_desc_limit(self, db, raw):
        out = db.query("SELECT mass FROM halos ORDER BY mass DESC LIMIT 10")
        expected = np.sort(raw["mass"])[::-1][:10]
        assert np.allclose(out["mass"], expected)

    def test_limit_without_order_row_count(self, db):
        out = db.query("SELECT tag FROM halos LIMIT 7")
        assert out.num_rows == 7

    def test_offset(self, db, raw):
        full = db.query("SELECT mass FROM halos ORDER BY mass LIMIT 10")
        shifted = db.query("SELECT mass FROM halos ORDER BY mass LIMIT 5 OFFSET 5")
        assert np.allclose(shifted["mass"], full["mass"][5:])

    def test_multi_key_order(self, db):
        out = db.query("SELECT run, mass FROM halos ORDER BY run, mass DESC")
        runs = out["run"]
        assert np.all(np.diff(runs) >= 0)
        for r in np.unique(runs):
            seg = out["mass"][runs == r]
            assert np.all(np.diff(seg) <= 0)

    def test_distinct(self, db, raw):
        out = db.query("SELECT DISTINCT run FROM halos")
        assert sorted(out["run"].tolist()) == sorted(np.unique(raw["run"]).tolist())


class TestAggregation:
    def test_global_aggregates(self, db, raw):
        out = db.query(
            "SELECT COUNT(*) AS n, SUM(mass) AS s, AVG(mass) AS a, "
            "MIN(count) AS mn, MAX(count) AS mx FROM halos"
        )
        assert out["n"][0] == len(raw)
        assert out["s"][0] == pytest.approx(raw["mass"].sum())
        assert out["a"][0] == pytest.approx(raw["mass"].mean())
        assert out["mn"][0] == raw["count"].min()
        assert out["mx"][0] == raw["count"].max()

    def test_group_by_matches_numpy(self, db, raw):
        out = db.query("SELECT run, AVG(mass) AS m FROM halos GROUP BY run ORDER BY run")
        for i in range(out.num_rows):
            r = out["run"][i]
            assert out["m"][i] == pytest.approx(raw["mass"][raw["run"] == r].mean())

    def test_group_by_two_keys(self, db, raw):
        out = db.query("SELECT run, step, COUNT(*) AS n FROM halos GROUP BY run, step")
        assert int(out["n"].sum()) == len(raw)

    def test_having(self, db):
        out = db.query(
            "SELECT run, COUNT(*) AS n FROM halos GROUP BY run HAVING COUNT(*) > 100"
        )
        assert (out["n"] > 100).all()

    def test_stddev_matches(self, db, raw):
        out = db.query("SELECT run, STDDEV(mass) AS s FROM halos GROUP BY run ORDER BY run")
        for i in range(out.num_rows):
            r = out["run"][i]
            assert out["s"][i] == pytest.approx(
                np.std(raw["mass"][raw["run"] == r], ddof=1), rel=1e-9
            )

    def test_median_matches(self, db, raw):
        out = db.query("SELECT run, MEDIAN(mass) AS m FROM halos GROUP BY run ORDER BY run")
        for i in range(out.num_rows):
            r = out["run"][i]
            assert out["m"][i] == pytest.approx(np.median(raw["mass"][raw["run"] == r]))

    def test_expression_of_aggregates(self, db, raw):
        out = db.query("SELECT SUM(mass) / COUNT(*) AS avg2 FROM halos")
        assert out["avg2"][0] == pytest.approx(raw["mass"].mean())

    def test_order_by_aggregate(self, db):
        out = db.query("SELECT run, MAX(mass) AS mx FROM halos GROUP BY run ORDER BY MAX(mass) DESC")
        assert np.all(np.diff(out["mx"]) <= 0)
        assert "__order0" not in out.columns

    def test_aggregate_on_expression(self, db, raw):
        out = db.query("SELECT SUM(mass * 2) AS s FROM halos")
        assert out["s"][0] == pytest.approx(raw["mass"].sum() * 2)

    def test_group_by_where_combination(self, db, raw):
        out = db.query(
            "SELECT run, COUNT(*) AS n FROM halos WHERE step = 624 GROUP BY run"
        )
        assert int(out["n"].sum()) == int((raw["step"] == 624).sum())

    def test_empty_group_result(self, db):
        out = db.query("SELECT run, COUNT(*) AS n FROM halos WHERE mass < 0 GROUP BY run")
        assert out.num_rows == 0

    def test_global_aggregate_on_empty(self, db):
        out = db.query("SELECT COUNT(*) AS n FROM halos WHERE mass < 0")
        assert out["n"][0] == 0

    def test_count_distinct(self, db, raw):
        out = db.query("SELECT COUNT(DISTINCT run) AS n FROM halos")
        assert out["n"][0] == len(np.unique(raw["run"]))

    def test_count_distinct_grouped(self, db, raw):
        out = db.query(
            "SELECT run, COUNT(DISTINCT step) AS n FROM halos GROUP BY run ORDER BY run"
        )
        for i in range(out.num_rows):
            r = out["run"][i]
            assert out["n"][i] == len(np.unique(raw["step"][raw["run"] == r]))

    def test_count_distinct_strings(self, db, raw):
        out = db.query("SELECT COUNT(DISTINCT kind) AS n FROM halos")
        assert out["n"][0] == len(np.unique(raw["kind"]))

    def test_non_count_distinct_rejected(self, db):
        with pytest.raises(UnsupportedSQLError):
            db.query("SELECT AVG(DISTINCT mass) FROM halos")

    @pytest.mark.parametrize("group_by", ["", " GROUP BY k"], ids=["global", "grouped"])
    def test_one_accumulator_per_aggregate_per_statement(self, tmp_path, monkeypatch, group_by):
        """Every row group folds into the statement's accumulators; none
        builds a partial of its own."""
        from repro.db.sql import executor

        made = []
        real = executor.make_accumulator
        monkeypatch.setattr(
            executor, "make_accumulator", lambda *a, **kw: made.append(a) or real(*a, **kw)
        )
        d = Database(tmp_path / "one.db", result_cache=False)
        d.create_table("t", Frame({"k": np.arange(40) % 3, "v": np.arange(40.0)}), row_group_size=8)
        out = d.query(f"SELECT SUM(v) AS s, COUNT(*) AS n FROM t{group_by}")
        assert d.last_scan_stats.morsels_executed == 5
        assert int(out["n"].sum()) == 40 and float(out["s"].sum()) == 780.0
        assert [name for name, *_ in made] == ["SUM", "COUNT"]


class TestNullHandling:
    """NaN is NULL to every aggregate: each one skips it."""

    SQL = (
        "SELECT g, COUNT(v) AS c, SUM(v) AS s, AVG(v) AS a, MIN(v) AS lo, MAX(v) AS hi, "
        "STDDEV(v) AS sd, VAR(v) AS var, MEDIAN(v) AS med, COUNT(DISTINCT v) AS d "
        "FROM t GROUP BY g ORDER BY g"
    )

    @pytest.fixture()
    def groups(self, tmp_path):
        d = Database(tmp_path / "n.db", result_cache=False)
        nan = np.nan
        d.create_table(
            "t",
            Frame({"g": np.asarray([0, 0, 0, 1, 1, 2, 2]),
                   "v": np.asarray([1.0, nan, 3.0, 5.0, 7.0, nan, nan])}),
            row_group_size=2,
        )
        out = d.query(self.SQL)
        return [{name: out[name][i].item() for name in out.columns} for i in range(3)]

    def test_every_aggregate_skips_nan(self, groups):
        spread = {"c": 2, "sd": np.sqrt(2.0), "var": 2.0, "d": 2}
        assert groups[0] == {"g": 0, "s": 4.0, "a": 2.0, "lo": 1.0, "hi": 3.0, "med": 2.0,
                             **spread}
        assert groups[1] == {"g": 1, "s": 12.0, "a": 6.0, "lo": 5.0, "hi": 7.0, "med": 6.0,
                             **spread}

    def test_a_group_of_nan_only(self, groups):
        nan_only = groups[2]
        assert (nan_only["c"], nan_only["d"], nan_only["s"]) == (0, 0, 0.0)
        # VAR / STDDEV of fewer than two values is NaN (DESIGN.md §2)
        assert np.isnan([nan_only[n] for n in ("a", "lo", "hi", "med", "sd", "var")]).all()

    @pytest.fixture()
    def nan_keyed(self, tmp_path):
        d = Database(tmp_path / "k.db", result_cache=False)
        nan = np.nan
        # the two NaN keys fall in different row groups
        d.create_table(
            "t",
            Frame({"k": np.asarray([1.0, nan, nan, 2.0]), "x": np.asarray([2.0, nan, 5.0, 1.0])}),
            row_group_size=2,
        )
        return d

    def test_nan_keys_form_one_group(self, nan_keyed):
        out = nan_keyed.query("SELECT k, COUNT(*) AS n FROM t GROUP BY k")
        assert out.num_rows == 3
        assert out["n"].tolist() == [1, 2, 1]
        assert out.num_rows == nan_keyed.query("SELECT DISTINCT k FROM t").num_rows

    def test_nan_sorts_last_in_both_directions(self, nan_keyed):
        top = nan_keyed.query("SELECT x FROM t ORDER BY x DESC LIMIT 1")
        assert top["x"].tolist() == nan_keyed.query("SELECT MAX(x) AS m FROM t")["m"].tolist()
        assert top["x"].tolist() == [5.0]
        for direction in ("ASC", "DESC"):
            ordered = nan_keyed.query(f"SELECT x FROM t ORDER BY x {direction}")["x"]
            assert np.isnan(ordered[-1]) and not np.isnan(ordered[:-1]).any()

    def test_min_max_over_no_rows_is_nan(self, db):
        out = db.query("SELECT MIN(count) AS lo, MAX(count) AS hi FROM halos WHERE count < 0")
        assert out.num_rows == 1
        assert np.isnan(out["lo"][0]) and np.isnan(out["hi"][0])


class TestJoins:
    def test_inner_join_count(self, db, raw):
        out = db.query("SELECT h.tag, gmass FROM halos h JOIN galaxies g ON tag = tag")
        gals = db.table_frame("galaxies")
        expected = sum(int((raw["tag"] == t).sum()) for t in gals["tag"])
        assert out.num_rows == expected

    def test_join_then_aggregate(self, db):
        out = db.query(
            "SELECT run, COUNT(*) AS n FROM halos JOIN galaxies ON tag = tag GROUP BY run"
        )
        total = db.query("SELECT COUNT(*) AS n FROM halos JOIN galaxies ON tag = tag")
        assert int(out["n"].sum()) == int(total["n"][0])

    def test_join_with_where(self, db):
        out = db.query(
            "SELECT tag, gmass FROM halos JOIN galaxies ON tag = tag WHERE run = 0"
        )
        assert out.num_rows >= 0
        base = db.query("SELECT tag FROM halos WHERE run = 0")
        assert set(np.unique(out["tag"]).tolist()) <= set(base["tag"].tolist())

    def test_left_join_pads_a_string_column(self, tmp_path):
        """An unmatched row of a LEFT JOIN reads '' from a string column
        and NaN from a numeric one instead of failing the statement."""
        db = Database(tmp_path / "lj.db")
        db.create_table("a", Frame({"k": np.asarray([1, 2, 3])}))
        db.create_table(
            "b", Frame({"k": np.asarray([1, 3]), "name": np.asarray(["fof", "sod"]), "n": np.asarray([7, 9])})
        )
        out = db.query("SELECT a.k, b.name, b.n FROM a LEFT JOIN b ON a.k = b.k")
        assert out["k"].tolist() == [1, 2, 3]
        assert out["name"].tolist() == ["fof", "", "sod"]
        assert np.array_equal(out["n"], [7.0, np.nan, 9.0], equal_nan=True)

    def test_unknown_column_error_lists_every_joined_column(self, tmp_path):
        """WHERE gathers only the columns still read, but a statement that
        names a missing column must still show the repair loop every
        candidate the joined frame has."""
        db = Database(tmp_path / "cand.db")
        db.create_table("a", Frame({"k": np.arange(4), "mass": np.arange(4.0)}))
        db.create_table("b", Frame({"k": np.arange(4), "mass": np.arange(4.0), "tag": np.arange(4)}))
        with pytest.raises(UnknownColumnError) as err:
            db.query("SELECT halo_mass, tag FROM a JOIN b ON a.k = b.k WHERE a.mass > 0")
        assert err.value.known == ["k", "mass", "mass_right", "tag"]


class TestEmptyProjectionDtypes:
    """Zero-row results carry schema-derived dtypes, not unconditional
    float64, so an empty frame is byte-stable against a non-empty one."""

    @pytest.fixture(scope="class")
    def db(self, tmp_path_factory):
        rng = np.random.default_rng(7)
        n = 300
        d = Database(tmp_path_factory.mktemp("empty") / "e.db", result_cache=False)
        d.create_table(
            "halos",
            Frame(
                {
                    "step": rng.choice([0, 624], n),
                    "kind": rng.choice(np.asarray(["cold", "warm", "hot"]), n),
                    "mass": rng.lognormal(3, 1, n),
                }
            ),
            row_group_size=100,
        )
        return d

    def test_plain_empty_matches_store_schema(self, db):
        empty = db.query("SELECT step, kind, mass FROM halos WHERE mass < 0")
        assert empty.num_rows == 0
        full = db.query("SELECT step, kind, mass FROM halos LIMIT 1")
        for name in ("step", "kind", "mass"):
            assert np.asarray(empty.column(name)).dtype == np.asarray(
                full.column(name)
            ).dtype

    def test_count_is_integer_in_empty_grouped_result(self, db):
        empty = db.query("SELECT step, COUNT(*) AS n FROM halos WHERE mass < 0 GROUP BY step")
        assert empty.num_rows == 0
        assert np.asarray(empty.column("n")).dtype == np.int64
        full = db.query("SELECT step, COUNT(*) AS n FROM halos GROUP BY step")
        assert np.asarray(full.column("n")).dtype == np.int64

    def test_object_string_column_records_the_dtype_it_stores(self, tmp_path):
        d = Database(tmp_path / "o.db", result_cache=False)
        # groups of unequal string width: "abc" in the first, "f" in the last
        kind = np.asarray(["abc", "de", "f"], dtype=object)
        d.create_table("t", Frame({"kind": kind, "a": np.arange(3)}), row_group_size=2)
        assert d.schema("t")["kind"] == "str96"
        empty = d.query("SELECT kind FROM t WHERE a < 0")
        full = d.query("SELECT kind FROM t")
        assert empty.num_rows == 0
        assert np.asarray(empty.column("kind")).dtype == np.asarray(full.column("kind")).dtype
        assert np.asarray(full.column("kind")).dtype == np.dtype("<U3")


class TestGroupKeyDtypes:
    """A GROUP BY key column comes back in the key's stored dtype, as
    ``SELECT k`` and ``Frame.groupby`` return it, whatever the number of
    groups and row groups."""

    @pytest.fixture(scope="class")
    def db(self, tmp_path_factory):
        d = Database(tmp_path_factory.mktemp("keys") / "k.db", result_cache=False)
        d.create_table("t", Frame({
            "k": np.asarray([1, 2, 2, 3, 1], dtype=np.int32),
            "f": np.asarray([0.5, 1.5, 1.5, np.nan, 0.5], dtype=np.float32),
            "v": np.arange(5.0),
        }), row_group_size=2)
        return d

    @pytest.mark.parametrize("sql, rows", [
        ("SELECT k, f, SUM(v) AS s FROM t GROUP BY k, f ORDER BY k", 3),
        ("SELECT k, f, COUNT(*) AS n FROM t WHERE v > 9 GROUP BY k, f", 0),
        ("SELECT k, f, COUNT(*) AS n FROM t GROUP BY k, f HAVING COUNT(*) > 9", 0),
    ])
    def test_int32_and_float32_keys_keep_their_dtype(self, db, sql, rows):
        out = db.query(sql)
        assert out.num_rows == rows
        assert (out["k"].dtype, out["f"].dtype) == (np.dtype(np.int32), np.dtype(np.float32))
        if rows:
            assert out["k"].tolist() == [1, 2, 3]
            assert out["f"][:2].tolist() == [0.5, 1.5] and np.isnan(out["f"][2])



class TestGroupByExpression:
    """A select, HAVING or ORDER BY term equal to a GROUP BY expression
    reads that key column: the group frame holds no source column to
    re-evaluate ``run + 1`` over."""

    SQL = (
        "SELECT run + 1 AS r1, COUNT(*) AS n, AVG(mass) AS m FROM halos "
        "GROUP BY run + 1 HAVING run + 1 > 1 ORDER BY run + 1 DESC"
    )

    def test_matches_numpy_cold_and_as_a_cache_hit(self, db, raw):
        from repro.db.cache import clear_memory_cache, stats_snapshot

        keys = np.unique(raw["run"] + 1)
        keys = keys[keys > 1][::-1]
        counts = [int((raw["run"] + 1 == k).sum()) for k in keys]
        means = [raw["mass"][raw["run"] + 1 == k].mean() for k in keys]
        clear_memory_cache()
        before = stats_snapshot()
        cold = db.query(self.SQL)
        hit = db.query(self.SQL)
        delta = stats_snapshot().delta(before)
        assert (delta.misses, delta.memory_hits) == (1, 1)
        for out in (cold, hit):
            assert list(out.columns) == ["r1", "n", "m"]
            assert out["r1"].tolist() == keys.tolist()
            assert out["n"].tolist() == counts
            assert out["m"].tolist() == pytest.approx(means)

class TestDensify:
    """_densify only copies mmap-backed columns."""

    def test_owned_arrays_pass_through(self):
        from repro.db.sql.executor import _densify

        frame = Frame({"a": np.arange(5), "b": np.linspace(0, 1, 5)})
        assert _densify(frame) is frame

    def test_mmap_columns_are_copied(self, tmp_path):
        from repro.db.sql.executor import _densify

        np.save(tmp_path / "seg.npy", np.arange(8))
        loaded = np.load(tmp_path / "seg.npy", mmap_mode="r")
        out = _densify(Frame({"a": loaded}))
        arr = np.asarray(out.column("a"))
        assert not isinstance(arr, np.memmap)
        assert arr.tolist() == list(range(8))


class TestVectorizedRegistry:
    """The np.unique-based group coder reproduces the dict loop's
    first-appearance code assignment exactly."""

    def test_codes_match_dict_loop(self):
        from repro.db.sql.executor import _GroupRegistry
        from repro.frame.aggregates import _factorize_slow

        rng = np.random.default_rng(3)
        arrays = [
            rng.integers(0, 5, 200),
            rng.choice(np.asarray(["a", "b", "c"]), 200),
        ]
        fast = _GroupRegistry().codes_for(arrays)
        _, slow = _factorize_slow([np.asarray(a) for a in arrays])
        assert fast.tolist() == slow.tolist()

    def test_registry_order_is_first_appearance(self):
        from repro.db.sql.executor import _GroupRegistry

        reg = _GroupRegistry()
        reg.codes_for([np.asarray([30, 10, 30, 20])])
        assert reg.keys == [(30,), (10,), (20,)]
        # a second chunk reuses existing codes and appends new ones
        codes = reg.codes_for([np.asarray([20, 40, 10])])
        assert codes.tolist() == [2, 3, 1]
        assert reg.keys[3] == (40,)
