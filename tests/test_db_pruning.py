"""Zone-map row-group pruning: correctness and effectiveness."""

import numpy as np
import pytest

from repro.db import Database
from repro.db.sql.parser import parse_sql
from repro.db.sql.pruning import skip_reason
from repro.frame import Frame


def where_of(sql: str):
    return parse_sql(sql).where


def can_skip_row_group(where, stats) -> bool:
    return skip_reason(where, stats) is not None


class TestIntervalLogic:
    STATS = {"step": (0.0, 100.0), "mass": (10.0, 50.0)}

    @pytest.mark.parametrize(
        "sql,skip",
        [
            ("SELECT a FROM t WHERE step = 624", True),
            ("SELECT a FROM t WHERE step = 50", False),
            ("SELECT a FROM t WHERE step > 100", True),
            ("SELECT a FROM t WHERE step >= 100", False),
            ("SELECT a FROM t WHERE step < 0", True),
            ("SELECT a FROM t WHERE step <= 0", False),
            ("SELECT a FROM t WHERE step != 50", False),
            ("SELECT a FROM t WHERE mass > 100 AND step = 50", True),
            ("SELECT a FROM t WHERE mass > 100 OR step = 50", False),
            ("SELECT a FROM t WHERE mass > 100 OR step > 200", True),
            ("SELECT a FROM t WHERE step IN (200, 300)", True),
            ("SELECT a FROM t WHERE step IN (200, 50)", False),
            ("SELECT a FROM t WHERE step BETWEEN 200 AND 300", True),
            ("SELECT a FROM t WHERE step BETWEEN 90 AND 300", False),
            ("SELECT a FROM t WHERE step + 10 > 200", True),
            ("SELECT a FROM t WHERE -step > 1", True),
            ("SELECT a FROM t WHERE unknown_col = 5", False),  # conservative
            ("SELECT a FROM t WHERE name = 'x'", False),        # non-numeric
        ],
    )
    def test_cases(self, sql, skip):
        assert can_skip_row_group(where_of(sql), self.STATS) is skip

    def test_point_interval_not_equal(self):
        stats = {"step": (624.0, 624.0)}
        assert can_skip_row_group(where_of("SELECT a FROM t WHERE step != 624"), stats)

    def test_no_where(self):
        assert not can_skip_row_group(None, self.STATS)

    def test_empty_stats(self):
        assert not can_skip_row_group(where_of("SELECT a FROM t WHERE step = 1"), {})


class TestEndToEndPruning:
    @pytest.fixture()
    def db(self, tmp_path):
        d = Database(tmp_path / "p.db")
        # sorted by step so row groups have tight disjoint step ranges
        n = 1200
        steps = np.repeat([0, 124, 249, 374, 498, 624], n // 6)
        d.create_table(
            "halos",
            Frame({"step": steps, "mass": np.random.default_rng(0).lognormal(3, 1, n)}),
            row_group_size=100,
        )
        return d

    def test_selective_query_skips_row_groups(self, db):
        out = db.query("SELECT mass FROM halos WHERE step = 624")
        assert out.num_rows == 200
        stats = db.last_scan_stats
        assert stats.row_groups_total == 12
        assert stats.row_groups_skipped == 10  # only the 2 step-624 groups read

    def test_results_identical_with_and_without_pruning(self, db, tmp_path):
        pruned = db.query("SELECT mass FROM halos WHERE step IN (124, 498) ORDER BY mass")
        # rebuild the same data unsorted (no prunable layout) as the oracle
        oracle_db = Database(tmp_path / "o.db")
        frame = db.table_frame("halos")
        rng = np.random.default_rng(1)
        perm = rng.permutation(frame.num_rows)
        oracle_db.create_table("halos", frame.take(perm), row_group_size=100)
        reference = oracle_db.query(
            "SELECT mass FROM halos WHERE step IN (124, 498) ORDER BY mass"
        )
        assert np.allclose(pruned["mass"], reference["mass"])

    def test_full_scan_skips_nothing(self, db):
        db.query("SELECT mass FROM halos")
        assert db.last_scan_stats.row_groups_skipped == 0

    def test_aggregate_query_pruned(self, db):
        out = db.query("SELECT COUNT(*) AS n FROM halos WHERE step = 0")
        assert out["n"][0] == 200
        assert db.last_scan_stats.row_groups_skipped == 10

    def test_nan_columns_still_prunable(self, tmp_path):
        d = Database(tmp_path / "n.db")
        vals = np.asarray([1.0, np.nan, 3.0, np.nan])
        d.create_table("t", Frame({"x": vals, "k": np.asarray([0, 0, 1, 1])}), row_group_size=2)
        out = d.query("SELECT x FROM t WHERE k = 1")
        assert out.num_rows == 2
        assert d.last_scan_stats.row_groups_skipped == 1

    def test_nan_group_never_pruned_for_not_equal(self, tmp_path):
        """A group holding [5, NaN] must not be skipped for ``x != 5``:
        NaN != 5 is elementwise True, so the NaN row matches.  Groups with
        any non-finite value publish no zone map at all (storage-level
        soundness rule)."""
        d = Database(tmp_path / "ne.db")
        d.create_table(
            "t",
            Frame({"x": np.asarray([5.0, np.nan, 5.0, 5.0])}),
            row_group_size=2,
        )
        out = d.query("SELECT x FROM t WHERE x != 5")
        assert out.num_rows == 1 and np.isnan(out["x"][0])
        # the all-finite [5, 5] group is legitimately refuted; the NaN
        # group was scanned (skipping it would have lost the NaN row)
        assert d.last_scan_stats.row_groups_skipped == 1

    def test_inf_group_never_pruned_above_finite_max(self, tmp_path):
        """[1, inf] must not be refuted for ``x > 100``."""
        d = Database(tmp_path / "inf.db")
        d.create_table(
            "t",
            Frame({"x": np.asarray([1.0, np.inf, 2.0, 3.0])}),
            row_group_size=2,
        )
        out = d.query("SELECT x FROM t WHERE x > 100")
        assert out.num_rows == 1 and np.isinf(out["x"][0])

    def test_all_nan_column_queries_correctly(self, tmp_path):
        d = Database(tmp_path / "an.db")
        d.create_table(
            "t",
            Frame({"x": np.full(6, np.nan), "k": np.arange(6)}),
            row_group_size=2,
        )
        assert d.query("SELECT k FROM t WHERE x = 1").num_rows == 0
        out = d.query("SELECT k FROM t WHERE x != 1")
        assert out.num_rows == 6  # NaN != 1 is True for every row
        assert d.last_scan_stats.row_groups_skipped == 0
        # the finite column is still prunable alongside the NaN one
        d.query("SELECT x FROM t WHERE k >= 4")
        assert d.last_scan_stats.row_groups_skipped == 2

    def test_string_equality_prunes_via_bloom(self, tmp_path):
        """String columns publish no zone map, so interval logic can never
        refute them — but the per-row-group bloom filters can: an equality
        probe for a value absent from a group's distinct set skips the
        group, attributed to the bloom side of the stats."""
        d = Database(tmp_path / "ab.db")
        d.create_table(
            "t",
            Frame({"name": np.asarray(["a", "b", "c", "d"]), "k": np.arange(4)}),
            row_group_size=2,
        )
        out = d.query("SELECT k FROM t WHERE name = 'd'")
        assert out.num_rows == 1 and out["k"][0] == 3
        stats = d.last_scan_stats
        assert stats.row_groups_skipped_zone == 0  # no interval can prove this
        assert stats.row_groups_skipped_bloom == 1  # group ["a","b"] refuted
        # AND with a prunable numeric conjunct: one group falls to the zone
        # map on k, the other to the bloom filter on name
        out = d.query("SELECT k FROM t WHERE name = 'a' AND k >= 2")
        assert out.num_rows == 0
        assert d.last_scan_stats.row_groups_skipped_zone == 1
        assert d.last_scan_stats.row_groups_skipped_bloom == 1

    def test_range_predicate_on_string_column_scans_everything(self, tmp_path):
        """Bloom filters only refute equality/IN; other string predicates
        must still scan every group."""
        d = Database(tmp_path / "rng.db")
        d.create_table(
            "t",
            Frame({"name": np.asarray(["a", "b", "c", "d"]), "k": np.arange(4)}),
            row_group_size=2,
        )
        out = d.query("SELECT k FROM t WHERE name != 'a'")
        assert out.num_rows == 3
        assert d.last_scan_stats.row_groups_skipped == 0

    def test_string_in_list_prunes_via_bloom(self, tmp_path):
        d = Database(tmp_path / "inl.db")
        d.create_table(
            "t",
            Frame({"name": np.asarray(["a", "b", "c", "d", "e", "f"]),
                   "k": np.arange(6)}),
            row_group_size=2,
        )
        out = d.query("SELECT k FROM t WHERE name IN ('a', 'f')")
        assert sorted(out["k"].tolist()) == [0, 5]
        # middle group ["c","d"] holds neither option: bloom-refuted
        assert d.last_scan_stats.row_groups_skipped_bloom == 1

    def test_mixed_finite_and_nonfinite_groups(self, tmp_path):
        """Finite groups keep pruning; only the non-finite group scans."""
        d = Database(tmp_path / "mx.db")
        x = np.asarray([1.0, 2.0, np.nan, 4.0, 100.0, 200.0])
        d.create_table("t", Frame({"x": x}), row_group_size=2)
        out = d.query("SELECT x FROM t WHERE x > 50")
        assert sorted(out["x"].tolist()) == [100.0, 200.0]
        # group [1,2] refuted by zone map; group [nan,4] must be scanned
        assert d.last_scan_stats.row_groups_skipped == 1
