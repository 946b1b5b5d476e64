"""``pytest benchmarks/e2e -q``: the benchmark's selfcheck as one test.

Needs ``PYTHONPATH=src`` (``benchmarks/conftest.py`` imports ``repro``).
Not collected by the tier-1 run, whose ``testpaths`` is ``tests``.
"""

import selfcheck


def test_selfcheck():
    assert selfcheck.run_all() == []
