"""Property-based SQL engine checks against the Frame oracle."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.db import Database
from repro.frame import Frame


@pytest.fixture(scope="module")
def db_and_frame(tmp_path_factory):
    rng = np.random.default_rng(23)
    n = 300
    frame = Frame(
        {
            "k": rng.integers(0, 6, n),
            "v": np.round(rng.normal(0, 10, n), 6),
            "w": rng.integers(-50, 50, n),
        }
    )
    db = Database(tmp_path_factory.mktemp("propdb") / "p.db")
    db.create_table("t", frame, row_group_size=37)
    return db, frame


@given(st.integers(-40, 40))
@settings(max_examples=30, deadline=None)
def test_filter_threshold_equivalence(db_and_frame, threshold):
    db, frame = db_and_frame
    out = db.query(f"SELECT v FROM t WHERE w > {threshold}")
    expected = frame["v"][frame["w"] > threshold]
    assert np.allclose(np.sort(out["v"]), np.sort(expected))


@given(st.integers(0, 5))
@settings(max_examples=20, deadline=None)
def test_group_filter_consistency(db_and_frame, key):
    db, frame = db_and_frame
    out = db.query(f"SELECT COUNT(*) AS n, SUM(v) AS s FROM t WHERE k = {key}")
    mask = frame["k"] == key
    assert out["n"][0] == int(mask.sum())
    assert out["s"][0] == pytest.approx(float(frame["v"][mask].sum()), abs=1e-6)


@given(st.integers(1, 50))
@settings(max_examples=20, deadline=None)
def test_limit_matches_sorted_prefix(db_and_frame, limit):
    db, frame = db_and_frame
    out = db.query(f"SELECT v FROM t ORDER BY v LIMIT {limit}")
    expected = np.sort(frame["v"])[:limit]
    assert np.allclose(out["v"], expected)


@given(st.sampled_from(["v", "w"]), st.sampled_from(["ASC", "DESC"]))
@settings(max_examples=10, deadline=None)
def test_order_direction(db_and_frame, column, direction):
    db, _ = db_and_frame
    out = db.query(f"SELECT {column} FROM t ORDER BY {column} {direction}")
    diffs = np.diff(out[column].astype(np.float64))
    assert np.all(diffs >= 0) if direction == "ASC" else np.all(diffs <= 0)


@given(st.floats(-3, 3, allow_nan=False))
@settings(max_examples=20, deadline=None)
def test_arithmetic_projection_equivalence(db_and_frame, scale):
    db, frame = db_and_frame
    out = db.query(f"SELECT v * {scale:.4f} + 1 AS y FROM t")
    expected = frame["v"] * round(scale, 4) + 1
    assert np.allclose(np.sort(out["y"]), np.sort(expected))


@given(st.integers(0, 5), st.integers(0, 5))
@settings(max_examples=15, deadline=None)
def test_in_list_equivalence(db_and_frame, a, b):
    db, frame = db_and_frame
    out = db.query(f"SELECT v FROM t WHERE k IN ({a}, {b})")
    expected = frame["v"][np.isin(frame["k"], [a, b])]
    assert out.num_rows == len(expected)


# ----------------------------------------------------------------------
# the GROUP BY / aggregate / join kernels against their row-at-a-time
# references (fixed budgets, like the statements above)
# ----------------------------------------------------------------------
_KEY_POOLS = {
    "int": np.asarray([-3, -1, 0, 1, 2, 5], dtype=np.int64),
    "int-wide": np.asarray([-(2**62) - 1, -(2**62), 0, 7, 2**62, 2**62 + 1], dtype=np.int64),
    "uint": np.asarray([0, 1, 2**63, 2**64 - 1], dtype=np.uint64),
    "int8": np.asarray([-128, -1, 0, 127], dtype=np.int8),
    "bool": np.asarray([False, True]),
    "float": np.asarray([np.nan, np.inf, -np.inf, -0.0, 0.0, 1.5]),
    "str": np.asarray(["a", "b", "ab", ""]),
}


@st.composite
def key_columns(draw, max_rows=40):
    """1-3 equal-length key columns, few distinct values each (so groups
    repeat), 0-row and 1-row chunks included."""
    n = draw(st.integers(0, max_rows))
    kinds = draw(st.lists(st.sampled_from(sorted(_KEY_POOLS)), min_size=1, max_size=3))
    columns = []
    for kind in kinds:
        pool = _KEY_POOLS[kind]
        picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=n, max_size=n))
        columns.append(pool[np.asarray(picks, dtype=np.int64)])
    return columns


def _same_keys(got: list[tuple], want: list[tuple]) -> bool:
    # repr tells nan from nan apart from nothing, -0.0 from 0.0, True from 1
    return [repr(k) for k in got] == [repr(k) for k in want]


@given(key_columns())
@settings(max_examples=150, deadline=None)
def test_local_codes_match_the_dict_loop(columns):
    from repro.db.sql.executor import _local_codes, _local_codes_slow

    keys, codes = _local_codes(columns)
    slow_keys, slow_codes = _local_codes_slow(columns)
    assert codes.dtype == np.int64
    assert codes.tolist() == slow_codes.tolist()
    assert _same_keys(keys, slow_keys)


def test_dense_table_is_bounded_by_the_chunk_not_the_dtype(monkeypatch):
    """A 50-row chunk spanning 60k values must sort, never allocate a
    60k-entry table; the same values over many rows take the table."""
    from repro.db.sql import executor

    sizes = []
    real_full = np.full

    def recording(shape, *args, **kwargs):
        sizes.append(shape)
        return real_full(shape, *args, **kwargs)

    monkeypatch.setattr(np, "full", recording)
    rng = np.random.default_rng(2)
    few = rng.integers(0, 60_000, 50)
    keys, codes = executor._local_codes([few])
    assert not sizes
    many = np.concatenate([few] * 400)
    executor._local_codes([many])
    assert sizes and max(sizes) <= executor._DENSE_SPAN_PER_ROW * len(many)
    assert executor._local_codes_slow([few])[1].tolist() == codes.tolist()


@given(key_columns(), st.integers(0, 2**31))
@example([np.asarray([], dtype="<U2")], 0)  # no groups: `want` must not default to float64
@settings(max_examples=25, deadline=None)
def test_group_by_is_byte_identical_across_thread_counts(tmp_path_factory, columns, seed):
    from repro.db.sql.executor import _local_codes_slow
    from tests.test_db_parallel import assert_frames_byte_identical

    n = len(columns[0])
    rng = np.random.default_rng(seed)
    v = np.round(rng.normal(size=n), 3)
    v[rng.random(n) < 0.2] = np.nan
    names = [f"k{i}" for i in range(len(columns))]
    path = tmp_path_factory.mktemp("groupby") / "g.db"
    Database(path).create_table("t", Frame({**dict(zip(names, columns)), "v": v}), row_group_size=7)
    sql = (
        f"SELECT {', '.join(names)}, COUNT(*) AS n, COUNT(v) AS c, SUM(v) AS s, AVG(v) AS m, "
        f"STDDEV(v) AS sd, MIN(v) AS lo FROM t GROUP BY {', '.join(names)}"
    )
    with pytest.MonkeyPatch.context() as env:
        env.setenv("REPRO_SQL_FORCE_PARALLEL", "1")
        one, two = (
            Database(path, result_cache=False, num_threads=t).query(sql) for t in (1, 2)
        )
    assert_frames_byte_identical(one, two)
    # groups come out in first-appearance order with the dict loop's keys
    slow_keys, slow_codes = _local_codes_slow(columns)
    for i, name in enumerate(names):
        want = np.asarray([key[i] for key in slow_keys], dtype=columns[i].dtype)
        assert np.array_equal(one[name], want, equal_nan=want.dtype.kind == "f")
    assert one["n"].tolist() == np.bincount(slow_codes, minlength=len(slow_keys)).tolist()


@st.composite
def grouped_values(draw):
    n = draw(st.integers(0, 60))
    n_groups = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    dtype = draw(st.sampled_from([np.float64, np.float32, np.int64, np.bool_]))
    values = (rng.normal(0, 100, n) * 3).astype(dtype)
    if draw(st.booleans()) and np.issubdtype(dtype, np.floating) and n:
        values[rng.random(n) < 0.3] = np.nan
        values[0] = np.nan
    return rng.integers(0, n_groups, n), values, n_groups


@given(grouped_values())
@settings(max_examples=60, deadline=None)
def test_accumulators_skip_the_gather_without_changing_a_bit(case):
    """With or without NaN in the chunk, MEAN / SUM / COUNT(col) hold the
    bits of the always-gather formulation; no update touches its input."""
    from repro.db.sql.aggregates import make_accumulator

    group_idx, values, n_groups = case
    kept_idx, kept_values = group_idx.copy(), values.copy()
    as_float = values.astype(np.float64)
    valid = ~np.isnan(as_float)
    want_counts = np.bincount(group_idx[valid], minlength=n_groups)
    want_mean_sums = np.bincount(group_idx[valid], weights=as_float[valid], minlength=n_groups)
    want_sums = np.bincount(
        group_idx, weights=np.where(np.isnan(as_float), 0.0, as_float), minlength=n_groups
    )

    accs = {name: make_accumulator(name) for name in ("AVG", "SUM", "COUNT", "STDDEV", "VAR")}
    for acc in accs.values():
        acc.update(group_idx, values, n_groups)
    assert accs["AVG"].sums.tobytes() == want_mean_sums.tobytes()
    assert accs["AVG"].counts.tolist() == want_counts.tolist()
    assert accs["SUM"].sums.tobytes() == want_sums.tobytes()
    assert accs["COUNT"].counts.tolist() == want_counts.tolist()
    assert np.array_equal(group_idx, kept_idx)
    assert values.tobytes() == kept_values.tobytes()
    # a partial merged into an empty accumulator is the partial
    for name, acc in accs.items():
        merged = make_accumulator(name)
        merged.merge(acc, np.arange(n_groups), n_groups)
        assert merged.finalize(n_groups).tobytes() == acc.finalize(n_groups).tobytes()


_JOIN_POOLS = {
    "int": np.asarray([1, 2, 3, 4], dtype=np.int64),
    "float": np.asarray([0.5, 1.5, np.nan]),
    "str": np.asarray(["a", "b", "ab"]),
}


@st.composite
def join_sides(draw):
    kinds = draw(st.lists(st.sampled_from(sorted(_JOIN_POOLS)), min_size=1, max_size=2))
    sides = []
    for payload in ("lv", "rv"):
        n = draw(st.integers(0, 12))
        side = {}
        for i, kind in enumerate(kinds):
            pool = _JOIN_POOLS[kind]
            picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=n, max_size=n))
            side[f"k{i}"] = pool[np.asarray(picks, dtype=np.int64)]
        side[payload] = np.arange(n)
        side["name"] = np.asarray(["x", "yy", "z"])[np.arange(n) % 3]   # collides: name_right
        sides.append(side)
    return sides[0], sides[1], [f"k{i}" for i in range(len(kinds))]


@given(join_sides(), st.sampled_from(["inner", "left"]))
@settings(max_examples=120, deadline=None)
def test_merge_matches_the_nested_loop(sides, how):
    from repro.frame import merge
    from tests.test_read_path_kernels import assert_same_frame, merge_reference

    left, right, keys = sides
    got = merge(Frame(left), Frame(right), on=keys, how=how)
    assert_same_frame(got, merge_reference(left, right, keys, how))
