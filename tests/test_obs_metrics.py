"""Mergeable process-local counters and the snapshot file reader."""

import ast
import importlib
import json
import re
from dataclasses import fields
from pathlib import Path

import pytest

from repro.db import cache as db_cache
from repro.eval.harness import FAULT_COUNTER_PREFIXES
from repro.obs import names as obs_names
from repro.obs.metrics import (
    Counter,
    CounterView,
    MetricsRegistry,
    SnapshotUnreadable,
    empty_snapshot,
    get_registry,
    merge_snapshots,
    read_snapshot_counters,
    snapshot_delta,
)
from repro.rag import cache as rag_cache


class TestPrimitives:
    def test_counter_accumulates(self):
        c = Counter("n")
        c.inc()
        c.inc(4)
        assert c.value == 5

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError):
            Counter("n").inc(-1)


class TestRegistry:
    def test_get_or_create_returns_same_instrument(self):
        reg = MetricsRegistry()
        assert reg.counter("x") is reg.counter("x")

    def test_snapshot_is_plain_data(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(2)
        assert reg.snapshot() == {"counters": {"c": 2}}


def _snap(*counters):
    reg = MetricsRegistry()
    for name, n in counters:
        reg.counter(name).inc(n)
    return reg.snapshot()


class TestMergeAlgebra:
    def test_merge_counters_add(self):
        merged = merge_snapshots(_snap(("c", 2)), _snap(("c", 3)))
        assert merged["counters"]["c"] == 5

    def test_merge_is_associative(self):
        # worker deltas can merge in any grouping
        a = _snap(("c", 1))
        b = _snap(("c", 2), ("d", 7))
        c = _snap(("k", 1))
        left = merge_snapshots(merge_snapshots(a, b), c)
        right = merge_snapshots(a, merge_snapshots(b, c))
        assert left == right

    def test_merge_identity_is_empty_snapshot(self):
        a = _snap(("c", 4), ("d", 1))
        assert merge_snapshots(a, empty_snapshot()) == a
        assert merge_snapshots(empty_snapshot(), a) == a

    def test_delta_inverts_accumulation(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(2)
        before = reg.snapshot()
        reg.counter("c").inc(5)
        reg.counter("d").inc(1)
        reg.counter("untouched")
        delta = snapshot_delta(reg.snapshot(), before)
        assert delta == {"counters": {"c": 5, "d": 1}}



class TestSnapshotFile:
    """``metrics.json`` as a later process reads it."""

    def test_counters_round_trip(self, tmp_path):
        path = tmp_path / "metrics.json"
        path.write_text(json.dumps(_snap(("c", 3))))
        assert read_snapshot_counters(path) == {"c": 3}

    def test_absent_file_is_none(self, tmp_path):
        assert read_snapshot_counters(tmp_path / "metrics.json") is None

    @pytest.mark.parametrize(
        "body, reason",
        [('{"counters": {"c": 3', "not JSON"),
         ('{"histograms": {}}', "no 'counters' section"),
         ("[1, 2]", "no 'counters' section"),
         ('{"counters": {"c": "three"}}', "not a name-to-number map")],
        ids=["torn", "no-counters", "not-a-dict", "foreign-values"],
    )
    def test_torn_or_foreign_file_is_refused_by_name(self, tmp_path, body, reason):
        path = tmp_path / "metrics.json"
        path.write_text(body)
        with pytest.raises(SnapshotUnreadable, match=reason) as info:
            read_snapshot_counters(path)
        assert str(path) in str(info.value)


@pytest.mark.parametrize(
    "view, read",
    [(db_cache.QueryCacheStats, db_cache.stats_snapshot),
     (rag_cache.CacheStats, rag_cache.stats_snapshot)],
    ids=["query_cache", "retrieval_cache"],
)
class TestCacheCounterViews:
    """The cache stats types are reads of the registry, one declared
    counter per field, never a second store."""

    def test_every_field_reads_one_declared_counter(self, view, read):
        declared = {v for k, v in vars(obs_names).items() if k.isupper() and isinstance(v, str)}
        counters = [f.metadata["counter"] for f in fields(view)]
        assert len(set(counters)) == len(counters)
        assert set(counters) <= declared

    def test_snapshot_equals_the_registry_counters(self, view, read):
        before = read()
        for amount, f in enumerate(fields(view), start=1):
            get_registry().counter(f.metadata["counter"]).inc(amount)
        after = read()
        assert after.delta(before).as_dict() == {
            f.name: amount for amount, f in enumerate(fields(view), start=1)
        }
        counters = get_registry().snapshot()["counters"]
        assert after.as_dict() == {f.name: counters[f.metadata["counter"]] for f in fields(view)}
        assert all(type(v) is int for v in after.as_dict().values())


# ----------------------------------------------------------------------
# lint: a counter exists only for something that reads it
# ----------------------------------------------------------------------
SRC = Path(__file__).parent.parent / "src" / "repro"
E2E = Path(__file__).parent.parent / "benchmarks" / "e2e"
# counters no view or report reads, each the only record of what its
# tests check
UNREAD_ALLOWED = {
    "sandbox.conn.dials": "the only record that a request opened a new "
                          "connection (tests/test_sandbox_fleet.py)",
    "sandbox.conn.reuses": "the only record that a request rode a pooled "
                           "keep-alive connection (tests/test_sandbox_fleet.py)",
    "obs.bus.subscriber_errors": "the only record of a raising trace listener "
                                 "skipped without failing the span (tests/test_obs_events.py)",
}


def _module(path: Path):
    name = ".".join(("repro", *path.relative_to(SRC).with_suffix("").parts))
    return importlib.import_module(name.removesuffix(".__init__"))


def _counted_names() -> list[tuple[str, str, bool]]:
    """``(where, name, is_prefix)`` for every ``.counter(`` call in src:
    a constant or named constant is a name, an f-string its literal
    prefix, a subscripted module dict every value it holds."""
    found = []
    for path in sorted(SRC.rglob("*.py")):
        text = path.read_text()
        if ".counter(" not in text:
            continue
        module = _module(path)
        for node in ast.walk(ast.parse(text)):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "counter"):
                continue
            (arg,) = node.args
            where = f"{path.relative_to(SRC)}:{node.lineno}"
            if isinstance(arg, ast.JoinedStr):
                found.append((where, arg.values[0].value, True))
                continue
            if isinstance(arg, ast.Subscript):
                table = eval(compile(ast.Expression(arg.value), where, "eval"), vars(module))
                found += [(where, name, False) for name in table.values()]
                continue
            found.append((where, eval(compile(ast.Expression(arg), where, "eval"), vars(module)), False))
    return found


def _read_names() -> tuple[set[str], tuple[str, ...]]:
    """Exact names some reader reads, and the prefixes it reads by."""
    for path in sorted(SRC.rglob("*.py")):
        if "(CounterView)" in path.read_text():
            _module(path)
    views, exact = list(CounterView.__subclasses__()), set()
    while views:
        view = views.pop()
        views += view.__subclasses__()
        exact |= {f.metadata["counter"] for f in fields(view)}
    for path in sorted(E2E.rglob("*.py")):
        exact |= set(re.findall(r'\.counter\("([^"]+)"\)', path.read_text()))
    return exact, FAULT_COUNTER_PREFIXES


def test_every_counter_has_a_reader():
    exact, prefixes = _read_names()
    unread = sorted(
        f"{where}: {name}{'*' if is_prefix else ''}"
        for where, name, is_prefix in _counted_names()
        if not (name.startswith(prefixes) or (not is_prefix and name in exact)
                or name in UNREAD_ALLOWED)
    )
    assert not unread, (
        "counters nothing reads (record the fact as a span attribute instead, "
        "or add a reader):\n" + "\n".join(unread)
    )


def test_the_allowlist_names_live_counters():
    counted = {name for _, name, _ in _counted_names()}
    assert set(UNREAD_ALLOWED) <= counted
