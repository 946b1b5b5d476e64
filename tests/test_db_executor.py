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
