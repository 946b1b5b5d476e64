"""Seeded tables, the SQL statement mix, and its numpy oracle.

Used by the ``sql_read`` and ``ingest_live`` workloads.  A statement
(:class:`Stmt`) carries its SQL text *and* a small structured
description (shape, columns, conjuncts) that :func:`expected` evaluates
over the generated in-memory columns, independently of the SQL engine.

Op classes, in rising cost (``sql_read`` at default size)::

    hit respell diskhit | point zone | narrow | scan distinct | agg | bloom topk join

The default shares put the p50 index inside ``hit``/``respell`` (both
are memory-tier hits) and the p90 index inside ``agg``, whose members
all do the same work on different literals, so both percentiles are the
timing of one kind of operation whatever the seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

STEPS = (0, 124, 249, 374, 498, 624)
KINDS = tuple(f"kind_{i:02d}" for i in range(8))
HALO_COLUMNS = ("id", "step", "run", "kind", "mass", "x")

# ops per pass at scale 1.0; see the module docstring for why these shares
DEFAULT_COUNTS = {
    "hit": 54, "respell": 12, "diskhit": 6,
    "point": 3, "zone": 4,
    "narrow": 10, "scan": 6, "distinct": 2,
    "agg": 18,
    "bloom": 3, "topk": 1, "join": 1,
}
HOT_STATEMENTS = 24
# set-up issues distinct cheap "filler" statements before the hot ones
# until the memory tier is this many entries over capacity, as in a
# long-lived process; the oldest fillers are thereby already evicted to
# the disk tier when timing starts, and each ``diskhit`` op asks for one
EVICTED_IN_SETUP = 8

Pred = tuple[str, str, Any]  # (column, ">" | "<" | "=", literal)


@dataclass(frozen=True)
class Stmt:
    cls: str                       # op class (latency class)
    shape: str                     # oracle shape: select/agg/count/distinct/join/topk
    sql: str
    columns: tuple[str, ...] = ()
    preds: tuple[Pred, ...] = ()
    gal_preds: tuple[Pred, ...] = ()   # join only
    limit: int = 0                     # topk only


# ----------------------------------------------------------------------
# data
# ----------------------------------------------------------------------
def make_tables(seed: int, n_halos: int, n_gals: int, row_group_size: int) -> dict[str, dict[str, np.ndarray]]:
    """Loader-shaped tables: ``step`` sorted (tight zone maps), ``kind``
    blocked two row groups per kind (bloom filters stay unsaturated)."""
    rng = np.random.default_rng([seed, 1])
    block = np.arange(n_halos) // row_group_size
    halos = {
        "id": np.arange(n_halos, dtype=np.int64),
        "step": np.sort(rng.choice(np.asarray(STEPS, dtype=np.int64), n_halos)),
        "run": rng.integers(0, 8, n_halos),
        "kind": np.asarray(KINDS)[(block // 2) % len(KINDS)],
        "mass": rng.lognormal(3.0, 1.0, n_halos),
        "x": rng.normal(0.0, 1.0, n_halos),
    }
    gals = {
        "gid": np.arange(n_gals, dtype=np.int64),
        "halo_id": rng.integers(0, n_halos, n_gals),
        "smass": rng.lognormal(2.0, 1.0, n_gals),
    }
    return {"halos": halos, "gals": gals}


def make_append_frames(seed: int, start_id: int, n_frames: int, rows: int) -> list[dict[str, np.ndarray]]:
    """Frames a live ingester appends to ``halos``: new ids, the newest
    step, one kind per frame."""
    rng = np.random.default_rng([seed, 2])
    frames = []
    for f in range(n_frames):
        frames.append({
            "id": np.arange(start_id + f * rows, start_id + (f + 1) * rows, dtype=np.int64),
            "step": np.full(rows, STEPS[-1], dtype=np.int64),
            "run": rng.integers(0, 8, rows),
            "kind": np.full(rows, KINDS[f % len(KINDS)]),
            "mass": rng.lognormal(3.0, 1.0, rows),
            "x": rng.normal(0.0, 1.0, rows),
        })
    return frames


def halos_with_appends(tables: dict, frames: list[dict[str, np.ndarray]]) -> dict[str, np.ndarray]:
    """Bootstrap ``halos`` followed by every frame; a committed prefix of
    ``k`` frames is the first ``n0 + k * rows`` rows of each column."""
    return {
        c: np.concatenate([tables["halos"][c]] + [f[c] for f in frames])
        for c in HALO_COLUMNS
    }


# ----------------------------------------------------------------------
# statements
# ----------------------------------------------------------------------
def _lit(value: Any) -> str:
    if isinstance(value, str):
        return f"'{value}'"
    if isinstance(value, float):
        return f"{value:.4f}"
    return str(int(value))


def _where(preds: tuple[Pred, ...], prefix: str = "") -> str:
    return " AND ".join(f"{prefix}{c} {op} {_lit(v)}" for c, op, v in preds)


def _select(cls: str, columns: tuple[str, ...], preds: tuple[Pred, ...]) -> Stmt:
    sql = f"SELECT {', '.join(columns)} FROM halos WHERE {_where(preds)}"
    return Stmt(cls, "select", sql, columns=columns, preds=preds)


def _agg(cls: str, preds: tuple[Pred, ...]) -> Stmt:
    sql = (
        "SELECT step, COUNT(*) AS n, SUM(mass) AS s, AVG(x) AS ax FROM halos "
        f"WHERE {_where(preds)} GROUP BY step ORDER BY step"
    )
    return Stmt(cls, "agg", sql, preds=preds)


def _count(cls: str, preds: tuple[Pred, ...]) -> Stmt:
    return Stmt(cls, "count", f"SELECT COUNT(*) AS n FROM halos WHERE {_where(preds)}", preds=preds)


def _distinct(cls: str, preds: tuple[Pred, ...]) -> Stmt:
    sql = f"SELECT COUNT(DISTINCT run) AS n FROM halos WHERE {_where(preds)}"
    return Stmt(cls, "distinct", sql, preds=preds)


def _join(cls: str, preds: tuple[Pred, ...], gal_preds: tuple[Pred, ...]) -> Stmt:
    sql = (
        "SELECT g.gid, h.mass FROM gals g JOIN halos h ON g.halo_id = h.id "
        f"WHERE {_where(gal_preds, 'g.')} AND {_where(preds, 'h.')}"
    )
    return Stmt(cls, "join", sql, preds=preds, gal_preds=gal_preds)


def _topk(cls: str, gal_preds: tuple[Pred, ...], limit: int) -> Stmt:
    sql = f"SELECT gid, smass FROM gals WHERE {_where(gal_preds)} ORDER BY smass DESC LIMIT {limit}"
    return Stmt(cls, "topk", sql, gal_preds=gal_preds, limit=limit)


def respell(stmt: Stmt, variant: int) -> Stmt:
    """A differently spelled equivalent of a two-conjunct ``select``: table
    alias, reversed conjunct order with mirrored comparisons, or padded
    literals.  The normaliser must map each to the original's cache key."""
    mirror = {">": "<", "<": ">", "=": "="}
    cols, preds = stmt.columns, stmt.preds
    if variant % 3 == 0:
        sql = (
            f"SELECT {', '.join('h.' + c for c in cols)} FROM halos h "
            f"WHERE {_where(preds, 'h.')}"
        )
    elif variant % 3 == 1:
        flipped = " AND ".join(f"{_lit(v)} {mirror[op]} {c}" for c, op, v in reversed(preds))
        sql = f"SELECT {', '.join(cols)} FROM halos WHERE {flipped}"
    else:
        padded = " AND ".join(
            f"{c} {op} {_lit(v) + '00' if isinstance(v, float) else _lit(v)}" for c, op, v in preds
        )
        sql = f"SELECT {', '.join(cols)} FROM halos WHERE {padded}"
    return Stmt("respell", "select", sql, columns=cols, preds=preds)


class _Literals:
    """Never-repeated literals drawn near a quantile of a column, so every
    seed gives statements of the same selectivity but different text."""

    def __init__(self, tables: dict, rng: np.random.Generator):
        self._tables = tables
        self._rng = rng
        self._sorted: dict[tuple[str, str], np.ndarray] = {}
        self._used: set[tuple[str, float]] = set()

    def near(self, table: str, column: str, q_lo: float, q_hi: float) -> float:
        ordered = self._sorted.get((table, column))
        if ordered is None:
            ordered = self._sorted[(table, column)] = np.sort(self._tables[table][column])
        while True:
            q = float(self._rng.uniform(q_lo, q_hi))
            lit = round(float(ordered[int(q * (len(ordered) - 1))]), 4)
            if (column, lit) not in self._used:
                self._used.add((column, lit))
                return lit


@dataclass
class Mix:
    fillers: list[Stmt]          # set-up only, in issue order
    hot: list[Stmt]              # set-up warms these, timed phase re-asks
    ops: list[Stmt]              # the timed phase, in issue order


def scaled_counts(scale: float, without: tuple[str, ...] = ()) -> dict[str, int]:
    return {
        cls: 0 if cls in without else max(1, round(n * scale))
        for cls, n in DEFAULT_COUNTS.items()
    }


def build_mix(tables: dict, seed: int, scale: float, memory_entries: int,
              without: tuple[str, ...] = ()) -> Mix:
    """``memory_entries`` is the capacity of the result cache's memory
    tier (``repro.db.cache.memory_capacity()``); ``without`` names op
    classes to leave out."""
    rng = np.random.default_rng([seed, 3])
    lits = _Literals(tables, rng)
    counts = scaled_counts(scale, without)
    n_halos = len(tables["halos"]["id"])

    def near(col: str, lo: float, hi: float, table: str = "halos") -> float:
        return lits.near(table, col, lo, hi)

    # -- set-up statements ------------------------------------------------
    n_fillers = max(memory_entries - HOT_STATEMENTS, 0) + EVICTED_IN_SETUP
    filler_ids = rng.choice(n_halos, n_fillers, replace=False)
    fillers = [_count("filler", (("id", "=", int(i)),)) for i in filler_ids]
    hot: list[Stmt] = []
    for _ in range(10):  # small two-conjunct scans (the respell class re-spells these)
        hot.append(_select("hit", ("id", "mass"), (("mass", ">", near("mass", 0.97, 0.99)), ("x", ">", near("x", 0.55, 0.75)))))
    for _ in range(6):
        hot.append(_agg("hit", (("mass", ">", near("mass", 0.20, 0.26)),)))
    for _ in range(4):
        hot.append(_select("hit", ("id", "mass"), (("step", "=", int(rng.choice(STEPS))), ("x", ">", near("x", 0.80, 0.95)))))
    for _ in range(4):
        hot.append(_distinct("hit", (("mass", ">", near("mass", 0.90, 0.95)),)))
    assert len(hot) == HOT_STATEMENTS

    # -- timed ops: units that are shuffled whole ---------------------------
    units: list[list[Stmt]] = []
    for _ in range(counts["hit"]):
        units.append([hot[int(rng.integers(len(hot)))]])
    for v in range(counts["respell"]):
        units.append([respell(hot[int(rng.integers(10))], v)])
    for i in range(min(counts["diskhit"], EVICTED_IN_SETUP)):
        f = fillers[i]
        units.append([Stmt("diskhit", f.shape, f.sql, preds=f.preds)])
    for _ in range(counts["point"]):
        units.append([_count("point", (("id", "=", int(rng.integers(n_halos))),))])
    for _ in range(counts["zone"]):
        units.append([_select("zone", ("id", "mass"), (("step", "=", int(rng.choice(STEPS))), ("x", ">", near("x", 0.80, 0.95))))])
    # a redo loop: the parent scan, then conjunct-narrower repeats served
    # by re-filtering the cached parent (two children per parent)
    parents = (counts["narrow"] + 1) // 2
    children_left = counts["narrow"]
    for _ in range(parents):
        p_pred = ("mass", ">", near("mass", 0.80, 0.86))
        unit = [_select("scan", ("id", "mass", "x"), (p_pred,))]
        c1 = ("x", ">", near("x", 0.55, 0.70))
        unit.append(_select("narrow", ("id", "mass", "x"), (p_pred, c1)))
        children_left -= 1
        if children_left > 0:
            c2 = ("x", "<", near("x", 0.85, 0.95))
            unit.append(_select("narrow", ("id", "mass", "x"), (p_pred, c1, c2)))
            children_left -= 1
        units.append(unit)
    for _ in range(max(counts["scan"] - parents, 0)):
        units.append([_select("scan", ("id", "mass", "x"), (("mass", ">", near("mass", 0.80, 0.86)),))])
    for _ in range(counts["distinct"]):
        units.append([_distinct("distinct", (("mass", ">", near("mass", 0.90, 0.95)),))])
    for _ in range(counts["agg"]):
        units.append([_agg("agg", (("mass", ">", near("mass", 0.20, 0.26)),))])
    # kinds that fill two whole row groups, so every bloom statement
    # scans the same number of groups and skips the rest
    whole_kinds = KINDS[: max(len(set(tables["halos"]["kind"])) - 1, 1)]
    for _ in range(counts["bloom"]):
        units.append([_select("bloom", ("id",), (("kind", "=", str(rng.choice(whole_kinds))), ("mass", ">", near("mass", 0.70, 0.80))))])
    for _ in range(counts["topk"]):
        units.append([_topk("topk", (("smass", ">", near("smass", 0.02, 0.06, "gals")),), 50)])
    for _ in range(counts["join"]):
        units.append([_join("join", (("mass", ">", near("mass", 0.50, 0.60)),), (("smass", ">", near("smass", 0.97, 0.99, "gals")),))])

    order = rng.permutation(len(units))
    ops = [stmt for i in order for stmt in units[int(i)]]
    return Mix(fillers=fillers, hot=hot, ops=ops)


# ----------------------------------------------------------------------
# oracle
# ----------------------------------------------------------------------
def _mask(columns: dict[str, np.ndarray], preds: tuple[Pred, ...], n: int) -> np.ndarray:
    mask = np.ones(n, dtype=bool)
    for col, op, value in preds:
        data = columns[col][:n]
        if op == ">":
            mask &= data > value
        elif op == "<":
            mask &= data < value
        else:
            mask &= data == value
    return mask


def expected(stmt: Stmt, halos: dict[str, np.ndarray], gals: dict[str, np.ndarray],
             halo_rows: int | None = None) -> list[np.ndarray]:
    """The statement's result columns, in order, over the first
    ``halo_rows`` rows of ``halos`` (all of them by default)."""
    n = len(halos["id"]) if halo_rows is None else halo_rows
    if stmt.shape == "topk":
        mask = _mask(gals, stmt.gal_preds, len(gals["gid"]))
        idx = np.flatnonzero(mask)
        top = idx[np.argsort(-gals["smass"][idx], kind="stable")[: stmt.limit]]
        return [gals["gid"][top], gals["smass"][top]]
    mask = _mask(halos, stmt.preds, n)
    if stmt.shape == "select":
        return [halos[c][:n][mask] for c in stmt.columns]
    if stmt.shape == "count":
        return [np.asarray([int(mask.sum())])]
    if stmt.shape == "distinct":
        return [np.asarray([len(np.unique(halos["run"][:n][mask]))])]
    if stmt.shape == "agg":
        keys, inverse = np.unique(halos["step"][:n][mask], return_inverse=True)
        count = np.bincount(inverse, minlength=len(keys))
        total = np.bincount(inverse, weights=halos["mass"][:n][mask], minlength=len(keys))
        mean_x = np.bincount(inverse, weights=halos["x"][:n][mask], minlength=len(keys)) / count
        return [keys, count, total, mean_x]
    if stmt.shape == "join":
        g_idx = np.flatnonzero(_mask(gals, stmt.gal_preds, len(gals["gid"])))
        h_id = gals["halo_id"][g_idx]
        keep = (h_id < n) & mask[np.minimum(h_id, n - 1)]   # halos.id == row position
        return [gals["gid"][g_idx][keep], halos["mass"][:n][h_id[keep]]]
    raise ValueError(f"unknown statement shape {stmt.shape!r}")


def result_columns(frame: Any) -> list[np.ndarray]:
    """A ``repro.frame.Frame`` result as a plain list of arrays."""
    return [np.asarray(frame.column(name)) for name in frame.columns]


def matches(stmt: Stmt, got: list[np.ndarray], want: list[np.ndarray]) -> bool:
    """Exact for keys, counts and selected values; sums and means, whose
    accumulation order is the engine's business, to 1e-9 relative.  Join
    output order is unspecified, so joins compare sorted by ``gid``."""
    if len(got) != len(want) or any(len(g) != len(w) for g, w in zip(got, want)):
        return False
    if stmt.shape == "join":
        got = [c[np.argsort(got[0], kind="stable")] for c in got]
        want = [c[np.argsort(want[0], kind="stable")] for c in want]
    for i, (g, w) in enumerate(zip(got, want)):
        if stmt.shape == "agg" and i >= 2:
            if not np.allclose(g.astype(float), w, rtol=1e-9, atol=0.0):
                return False
        elif g.dtype.kind in "US" or w.dtype.kind in "US":
            if not np.array_equal(g.astype(str), w.astype(str)):
                return False
        elif not np.array_equal(g, w):
            return False
    return True
