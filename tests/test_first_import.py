"""What a fresh interpreter loads: every name imports first, and the
import graph keeps its layers.

An import cycle only bites the entry that happens to load first, and the
test session itself always enters through ``repro.core`` (conftest), so
each name gets its own subprocess.  The same subprocesses pin the graph
(DESIGN.md "Layering and cold start") against ``sys.modules``, never
against a clock: which entry may not load which package.
"""

from __future__ import annotations

import json
import os
import pkgutil
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

import repro

NAMES = sorted(
    f"repro.{m.name}" for m in pkgutil.iter_modules(repro.__path__) if m.name != "__main__"
)
SRC = str(Path(repro.__file__).resolve().parents[1])
ENV = dict(os.environ, PYTHONPATH=SRC)


def test_each_name_imports_first():
    assert {"repro.serve", "repro.resilience", "repro.obs", "repro.cli"} <= set(NAMES)

    def first_import(name: str) -> str:
        done = subprocess.run(
            [sys.executable, "-c", f"import {name}"],
            env=ENV, capture_output=True, text=True, timeout=60,
        )
        return done.stderr.strip().splitlines()[-1] if done.returncode else ""

    with ThreadPoolExecutor(max_workers=4) as pool:
        errors = dict(zip(NAMES, pool.map(first_import, NAMES)))
    assert {name: err for name, err in errors.items() if err} == {}


# ----------------------------------------------------------------------
# the graph: (entry, module prefixes it must not load)
# ----------------------------------------------------------------------
HEAVY = ("scipy", "networkx")
NO_SUBSYSTEM = HEAVY + ("repro.agents", "repro.db", "repro.sim", "repro.eval", "repro.serve")

IMPORT_GRAPH = [
    ("import repro.db", HEAVY + ("repro.sim", "repro.agents")),
    ("import repro.cli", HEAVY + ("numpy.f2py", "charset_normalizer")),
    ("import repro.core", HEAVY),
    ("import repro.sandbox.executor", ("scipy",)),
    # a query that draws nothing opens no socket either
    ("import repro.core", ("http.client", "http.server", "urllib.request", "ssl", "subprocess")),
    ("import repro.util.timing, repro.obs.logsetup", ("numpy",)),
]


def loaded(statement: str, forbidden: tuple[str, ...]) -> list[str]:
    """The ``forbidden`` modules a fresh interpreter holds after ``statement``."""
    probe = (
        f"{statement}\n"
        "import json, sys\n"
        f"bad = {forbidden!r}\n"
        "print('LOADED', json.dumps(sorted(m for m in sys.modules"
        " if m in bad or m.startswith(tuple(p + '.' for p in bad)))))"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe], env=ENV, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr[-2000:]
    line = next(l for l in done.stdout.splitlines() if l.startswith("LOADED "))
    return json.loads(line[len("LOADED "):])


def run_cli(argv: list[str]) -> str:
    """A statement running ``python -m repro <argv>`` in the probe's process."""
    return (
        "import runpy, sys\n"
        f"sys.argv = ['repro'] + {argv!r}\n"
        "try:\n"
        "    runpy.run_module('repro', run_name='__main__')\n"
        "except SystemExit as exc:\n"
        "    assert not exc.code, exc.code"
    )


@pytest.mark.parametrize("statement,forbidden", IMPORT_GRAPH)
def test_import_graph(statement, forbidden):
    assert loaded(statement, forbidden) == []


def test_help_and_trace_summary_load_no_subsystem(tmp_path):
    assert loaded(run_cli(["--help"]), NO_SUBSYSTEM) == []
    assert loaded(run_cli(["trace", "summary", str(tmp_path)]), NO_SUBSYSTEM) == []
    for light in (["cost", str(tmp_path)], ["sandbox", "stats", "--workdir", str(tmp_path)]):
        assert loaded(run_cli(light), NO_SUBSYSTEM) == []


def test_a_query_without_a_plot_loads_neither_scipy_nor_networkx(ensemble, tmp_path):
    argv = ["query", "top 5 halos at timestep 624 in simulation 0",
            "--ensemble", str(ensemble.root), "--workdir", str(tmp_path / "w"), "--no-errors"]
    assert loaded(run_cli(argv), HEAVY + ("repro.eval", "repro.serve")) == []
    assert (tmp_path / "w" / "trace.jsonl").exists()


# ----------------------------------------------------------------------
# the two functions that import on first call return what they returned
# when the import was at module top
# ----------------------------------------------------------------------
EMBEDDING_SHA256 = "3f6c806272c9ebeca506ec0cad88489a98a0adc96e64bee86a59c96d6fb91b57"
LINEAGE_SHA256 = "d94f340aa1675cf956a5de6eb0b2267a150905641a27e1d4591f422254afd4ae"

DIGESTS = '''
import hashlib, json, sys, tempfile, threading
import numpy as np
from repro.sim import EnsembleSpec, generate_ensemble
from repro.sim.tracking import halo_lineage_graph
from repro.viz.umap_lite import umap_embed

assert not {"scipy", "networkx"} & set(sys.modules)

def embedding():
    data = np.random.default_rng(11).normal(size=(90, 5))
    emb = np.ascontiguousarray(umap_embed(data, seed=4))
    return hashlib.sha256(emb.tobytes()).hexdigest()

def lineage(ens):
    g = halo_lineage_graph(ens, 0)
    doc = [sorted(map(list, g.nodes)),
           sorted([list(a), list(b), d["shared"], d["fraction"]] for a, b, d in g.edges(data=True))]
    return hashlib.sha256(json.dumps(doc).encode()).hexdigest()

def twice_at_once(fn):
    out = [None, None]
    def run(i):
        out[i] = fn()
    threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
    for t in threads: t.start()
    for t in threads: t.join()
    return out

with tempfile.TemporaryDirectory() as root:
    ens = generate_ensemble(root, EnsembleSpec(n_runs=1, n_particles=600, timesteps=(0, 124, 249), seed=5))
    print(json.dumps({"embedding": twice_at_once(embedding) + [embedding()],
                      "lineage": twice_at_once(lambda: lineage(ens)) + [lineage(ens)]}))
'''


def test_deferred_imports_return_the_same_bytes():
    """The first call in a fresh interpreter comes from two threads at
    once (both race the import), then one more with it loaded; the
    digests were taken at 5b0e946, imports at module top."""
    done = subprocess.run(
        [sys.executable, "-c", DIGESTS], env=ENV, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr[-2000:]
    doc = json.loads(done.stdout.strip().splitlines()[-1])
    assert doc["embedding"] == [EMBEDDING_SHA256] * 3
    assert doc["lineage"] == [LINEAGE_SHA256] * 3
