"""The benchmark's declared shape, read from ``BENCHMARK.json``.

``BENCHMARK.json`` at the repository root is the single list of
workloads and metrics; nothing here repeats a name that is in it.
"""

from __future__ import annotations

import json
from pathlib import Path

# benchmarks/e2e/e2elib/spec.py -> repository root
ROOT = Path(__file__).resolve().parents[3]
BENCH_DIR = ROOT / "benchmarks" / "e2e"
OUTPUT_DIR = BENCH_DIR / "output"

_DOC = json.loads((ROOT / "BENCHMARK.json").read_text())

RUN_SECONDS: int = _DOC["run_seconds"]
WORKLOADS: tuple[str, ...] = tuple(w["name"] for w in _DOC["workloads"])
END_TO_END: list[dict] = _DOC["end_to_end"]
PER_LAYER: list[dict] = _DOC["per_layer"]
UNITS: dict[str, str] = {m["name"]: m["unit"] for m in END_TO_END + PER_LAYER}

# workloads whose counts (cache tiers, pruning, digests) must repeat
# exactly from pass to pass and run to run: one client, no races
SINGLE_CLIENT = frozenset({"oneshot_cli", "eval_suite", "sql_read"})

# op classes of the SQL mix that have a per-layer p50 (db.sql.<cls>_p50_s)
SQL_CLASSES = tuple(
    m["name"][len("db.sql."):-len("_p50_s")]
    for m in PER_LAYER
    if m["name"].startswith("db.sql.") and "threads2" not in m["name"]
)
