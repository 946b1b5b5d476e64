"""Every package and top-level module of ``repro`` imports cleanly as the
*first* import of a fresh interpreter.

An import cycle only bites the entry that happens to load first, and the
test session itself always enters through ``repro.core`` (conftest), so
each name gets its own subprocess.
"""

from __future__ import annotations

import os
import pkgutil
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import repro

NAMES = sorted(
    f"repro.{m.name}" for m in pkgutil.iter_modules(repro.__path__) if m.name != "__main__"
)


def test_each_name_imports_first():
    assert {"repro.serve", "repro.resilience", "repro.obs", "repro.cli"} <= set(NAMES)
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)

    def first_import(name: str) -> str:
        done = subprocess.run(
            [sys.executable, "-c", f"import {name}"],
            env=env, capture_output=True, text=True, timeout=60,
        )
        return done.stderr.strip().splitlines()[-1] if done.returncode else ""

    with ThreadPoolExecutor(max_workers=4) as pool:
        errors = dict(zip(NAMES, pool.map(first_import, NAMES)))
    assert {name: err for name, err in errors.items() if err} == {}
