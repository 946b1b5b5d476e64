"""One benchmark tree: ``benchmarks/e2e`` measures, the paper benches
reproduce, and nothing in ``src/`` exists to feed a retired gate.

A source lint in the style of ``test_storage_seam.py``: the names the
eight pre-ledger feature benches needed from the product stay gone, the
``bench_*.py`` scripts on disk are the ones the paper's experiment index
names, and the documents that tell a reader what to run name only files
that exist.
"""

import json
import re
from pathlib import Path

import pytest

from repro.obs.slo import SLOPolicy

ROOT = Path(__file__).parent.parent
SRC = ROOT / "src"

RETIRED = re.compile(
    r"BENCH_|bench[_-]dir|LatencyExecutor|exec_latency|max_concurrent"
)
NAMED_PATH = re.compile(r"\b(?:tests|benchmarks|examples)/[\w/.-]*\.py\b")
DOCUMENTS = [
    ".github/workflows/ci.yml",
    "README.md",
    "DESIGN.md",
    ".claude/skills/verify/SKILL.md",
]


def test_src_carries_nothing_for_the_retired_benches():
    offenders = [
        f"{path.relative_to(ROOT)}:{lineno}: {line.strip()}"
        for path in sorted(SRC.rglob("*.py"))
        for lineno, line in enumerate(path.read_text().splitlines(), start=1)
        if RETIRED.search(line)
    ]
    assert not offenders, "\n".join(offenders)


def test_bench_scripts_are_the_paper_experiment_index():
    """DESIGN.md §4 and EXPERIMENTS.md name one script per table, figure
    and ablation of the paper; anything else measuring the system lives
    under ``benchmarks/e2e`` (``BENCHMARK.json``)."""
    design = (ROOT / "DESIGN.md").read_text()
    index = design[design.index("## 4. "):design.index("## 5. ")]
    named = set(re.findall(r"bench_\w+\.py", index + (ROOT / "EXPERIMENTS.md").read_text()))
    on_disk = {p.name for p in (ROOT / "benchmarks").glob("bench_*.py")}
    assert on_disk == named
    assert not list((ROOT / "benchmarks" / "output").glob("BENCH_*.json"))


@pytest.mark.parametrize("document", DOCUMENTS)
def test_documents_name_only_files_that_exist(document):
    missing = sorted(
        name for name in set(NAMED_PATH.findall((ROOT / document).read_text()))
        if not (ROOT / name).is_file()
    )
    assert not missing, f"{document} names files that do not exist: {missing}"


def test_ci_runs_every_benchmark_workload():
    ci = (ROOT / ".github/workflows/ci.yml").read_text()
    for workload in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]:
        assert f"--workload {workload['name']} " in ci, workload["name"]


def test_a_policy_with_a_bench_section_is_refused_by_name(tmp_path):
    rule = {"file": "BENCH_obs.json", "key": "site.overhead_ratio", "max": 1.02}
    with pytest.raises(ValueError, match="'bench' section"):
        SLOPolicy.from_dict({"trace": {"max_open_spans": 0}, "bench": [rule]})
    path = tmp_path / "policy.json"
    path.write_text(json.dumps({"bench": [rule]}))
    with pytest.raises(ValueError, match="'bench' section"):
        SLOPolicy.from_json(path)
