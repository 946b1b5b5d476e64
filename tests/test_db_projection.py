"""Projection pushdown: a scan reads the columns a statement references
and no others.  Only a projection-level ``*`` demands the full row; the
``*`` of ``COUNT(*)`` reads nothing."""

import numpy as np
import pytest

from repro.db import Database
from repro.frame import Frame
from repro.gio.format import GIOFile

N = 400
ROW_GROUP = 100


@pytest.fixture()
def db(tmp_path):
    rng = np.random.default_rng(11)
    d = Database(tmp_path / "p.db", result_cache=False)
    d.create_table(
        "t",
        Frame(
            {
                "k": np.arange(N) % 4,
                "v": rng.normal(size=N),
                "w": rng.normal(size=N),
                "name": rng.choice(np.asarray(["alpha", "beta", "gamma"]), N),
            }
        ),
        row_group_size=ROW_GROUP,
    )
    d.create_table(
        "u", Frame({"k": np.arange(4), "label": np.arange(4) * 10, "pad": np.zeros(4)})
    )
    return d


@pytest.fixture()
def raw(db):
    return db.table_frame("t")


def garble_segment(db, table: str, row_group: int, column: str) -> None:
    """Overwrite one column's byte range in a row-group file with garbage."""
    path = db.store(table).path / f"rg{row_group:05d}"
    entry = GIOFile(path)._entry(column)
    with path.open("r+b") as fh:
        fh.seek(entry["offset"])
        fh.write(b"\x7f" * entry["nbytes"])


class TestColumnsRead:
    def test_count_star_with_predicate_reads_the_predicate_column(self, db, raw):
        out = db.query("SELECT COUNT(*) AS n FROM t WHERE v > 0")
        assert out["n"][0] == int((raw["v"] > 0).sum())
        assert db.last_scan_stats.columns_read == 1

    def test_grouped_aggregate_reads_key_and_argument(self, db, raw):
        out = db.query("SELECT k, COUNT(*) AS n, SUM(v) AS s FROM t GROUP BY k ORDER BY k")
        assert out["n"].tolist() == [N // 4] * 4
        assert np.allclose(out["s"], [raw["v"][raw["k"] == k].sum() for k in range(4)])
        assert db.last_scan_stats.columns_read == 2

    def test_count_star_inside_an_expression(self, db, raw):
        out = db.query("SELECT COUNT(*) * 2 AS twice FROM t WHERE name = 'beta' AND w < 0")
        assert out["twice"][0] == 2 * int(((raw["name"] == "beta") & (raw["w"] < 0)).sum())
        assert db.last_scan_stats.columns_read == 2

    def test_having_and_order_by_count_star(self, db):
        out = db.query(
            "SELECT k FROM t WHERE w > -10 GROUP BY k HAVING COUNT(*) > 1 ORDER BY COUNT(*), k"
        )
        assert out["k"].tolist() == [0, 1, 2, 3]
        assert db.last_scan_stats.columns_read == 2

    def test_join_reads_keys_and_referenced_columns_of_each_side(self, db):
        out = db.query("SELECT COUNT(*) AS n FROM t JOIN u ON t.k = u.k WHERE u.label > 0")
        assert out["n"][0] == 3 * (N // 4)
        assert db.last_scan_stats.columns_read == 3  # t.k, u.k, u.label

    def test_select_star_reads_every_column(self, db, raw):
        out = db.query("SELECT * FROM t WHERE v > 0")
        assert out.columns == ["k", "v", "w", "name"]
        assert out.num_rows == int((raw["v"] > 0).sum())
        assert db.last_scan_stats.columns_read == 4

    def test_bare_count_star_streams_a_single_column(self, db):
        out = db.query("SELECT COUNT(*) AS n FROM t")
        assert out["n"][0] == N
        assert db.last_scan_stats.columns_read == 1

    def test_cache_hit_reads_nothing(self, tmp_path, db):
        cached = Database(db.path, cache_dir=tmp_path / "qc")
        sql = "SELECT COUNT(*) AS n FROM t WHERE v > 0.125"
        first = cached.query(sql)
        assert cached.last_scan_stats.columns_read == 1
        again = cached.query(sql)
        assert cached.last_scan_stats.columns_read == 0
        assert again["n"][0] == first["n"][0]


class TestUnreferencedSegmentsAreNeverOpened:
    """Garble an unreferenced column's bytes in one row group: every
    statement that does not name the column must still answer exactly."""

    def test_count_star(self, db, raw):
        garble_segment(db, "t", 1, "name")
        out = db.query("SELECT COUNT(*) AS n FROM t WHERE v > 0")
        assert out["n"][0] == int((raw["v"] > 0).sum())

    def test_grouped_aggregate(self, db, raw):
        garble_segment(db, "t", 2, "name")
        garble_segment(db, "t", 0, "w")
        out = db.query("SELECT k, COUNT(*) AS n, SUM(v) AS s FROM t GROUP BY k ORDER BY k")
        assert out["n"].tolist() == [N // 4] * 4
        assert np.allclose(out["s"], [raw["v"][raw["k"] == k].sum() for k in range(4)])

    def test_count_star_inside_an_expression(self, db, raw):
        garble_segment(db, "t", 3, "name")
        out = db.query("SELECT COUNT(*) + 1 AS m FROM t WHERE w < 0")
        assert out["m"][0] == int((raw["w"] < 0).sum()) + 1

    def test_join_side(self, db):
        garble_segment(db, "u", 0, "pad")
        out = db.query("SELECT COUNT(*) AS n FROM t JOIN u ON t.k = u.k")
        assert out["n"][0] == N

    def test_select_star_does_need_it(self, db, raw):
        garble_segment(db, "t", 1, "w")
        out = db.query("SELECT * FROM t WHERE v > 0")
        keep = raw["v"] > 0
        assert np.array_equal(out["v"], raw["v"][keep])
        assert not np.array_equal(out["w"], raw["w"][keep])
