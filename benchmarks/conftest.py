"""Shared benchmark fixtures.

Each benchmark regenerates one table or figure of the paper and writes its
output (text tables, SVG figures) under ``benchmarks/output/`` in addition
to printing it, so a full ``pytest benchmarks/ --benchmark-only`` run
leaves a reviewable artifact set.

Scale knobs (environment variables):

* ``REPRO_BENCH_RUNS``      — runs per question for Table 2 (default 3;
  the paper uses 10 — set 10 for the full protocol)
* ``REPRO_BENCH_PARTICLES`` — particles per snapshot (default 4000)
* ``REPRO_BENCH_WORKERS``   — harness worker processes (default 1;
  0 = one per CPU core)
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.sim import EnsembleSpec, generate_ensemble

OUTPUT_DIR = Path(__file__).resolve().parent / "output"

RUNS_PER_QUESTION = int(os.environ.get("REPRO_BENCH_RUNS", "3"))
PARTICLES = int(os.environ.get("REPRO_BENCH_PARTICLES", "4000"))
WORKERS = int(os.environ.get("REPRO_BENCH_WORKERS", "1"))


@pytest.fixture(scope="session")
def output_dir() -> Path:
    OUTPUT_DIR.mkdir(parents=True, exist_ok=True)
    return OUTPUT_DIR


@pytest.fixture(scope="session")
def bench_ensemble(tmp_path_factory):
    """The 4-run evaluation ensemble (paper: 4 runs, 1.4 TB)."""
    return generate_ensemble(
        tmp_path_factory.mktemp("bench_ens"),
        EnsembleSpec(
            n_runs=4,
            n_particles=PARTICLES,
            timesteps=(0, 124, 249, 374, 498, 624),
            write_particles=True,
            seed=2025,
        ),
    )


@pytest.fixture(scope="session")
def big_ensemble(tmp_path_factory):
    """The 32-run scalability ensemble (paper: 32 runs, 11.2 TB)."""
    return generate_ensemble(
        tmp_path_factory.mktemp("big_ens"),
        EnsembleSpec(
            n_runs=32,
            n_particles=max(PARTICLES // 2, 1000),
            timesteps=(0, 124, 249, 374, 498, 624),
            write_particles=True,
            seed=3031,
        ),
    )


def emit(output_dir: Path, name: str, text: str) -> None:
    """Print a benchmark's report and persist it."""
    print("\n" + text)
    (output_dir / name).write_text(text + "\n")
