"""What a workload must provide to the pass loop in :mod:`e2elib.runner`."""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from .measure import Calibrator, ClientLog

# the run length the op counts below are sized for; ``--seconds`` scales them
SIZED_FOR_SECONDS = 15.0
# identical passes per run (fresh set-up each, same seed and ops)
PASSES = 3


@dataclass
class CheckResult:
    """Outcome of a workload's answer check over one pass."""

    attempted: int
    failed: int
    notes: list[str] = field(default_factory=list)       # one line per failure
    # values that must repeat exactly between two runs of one seed
    exact: dict[str, Any] = field(default_factory=dict)


class Workload:
    """One workload; a fresh instance serves every pass of a run.

    The pass loop calls, per pass: :meth:`setup` (untimed here, timed by
    the loop as ``setup_s``), :meth:`run` (the timed phase), :meth:`finish`
    (stop what set-up started), :meth:`check` (answers, outside any timed
    interval), then deletes the pass directory.
    """

    name = ""
    # a traced run makes this many (untraced, traced) pass pairs
    trace_pairs = 2

    def __init__(self, seed: int, scale: float, tiny: bool = False, memo: dict | None = None):
        self.seed = seed
        self.scale = scale
        self.tiny = tiny      # the selfcheck's reduced data sizes
        # shared by the passes of one run (same seed, same inputs, same
        # ops): answers an earlier pass confirmed, to compare later ones with
        self.memo = {} if memo is None else memo

    def setup(self, pass_dir: Path, cal: Calibrator, traced: bool) -> None:
        raise NotImplementedError

    def run(self) -> list[ClientLog]:
        raise NotImplementedError

    def finish(self) -> None:
        """Release servers, threads, handles (idempotent)."""

    def check(self, clients: list[ClientLog]) -> CheckResult:
        raise NotImplementedError

    def layer_values(self) -> dict[str, float]:
        """Per-layer values of the last pass that do not come from spans
        (cache shares, counts, timings the program reports).  Seconds and
        rates are raw; the pass loop calibrates them by the pass's host
        slowdown."""
        return {}

    def run_values(self, traced: list, untraced: list) -> dict[str, float]:
        """Per-layer values that need every pass of the run (lists of
        :class:`~e2elib.measure.PassRecord`), already calibrated."""
        return {}

    def extra_spans(self) -> list[dict]:
        """Spans recorded outside this process during a traced pass."""
        return []

    def probes(self, cal: Calibrator) -> dict[str, float | str]:
        """Direct measurements made once, after the last traced pass and
        before its directory is removed, already calibrated.  A probe this
        host cannot evaluate reports the reason as a string; it is printed
        as null with that reason, never as a weaker number."""
        return {}

    # the layer whose span is an op's root; op wall minus it is unattributed
    root_layer = "core.run_query"

    def timed_logs(self, clients: list[ClientLog]) -> list[ClientLog]:
        """Every log whose calibrator ran during the timed phase."""
        return clients

    def op_walls(self, clients: list[ClientLog]) -> dict[str, float]:
        """Raw wall per op, keyed as the trace spans' ``op`` field."""
        return {log.op_key(op.index): op.t1 - op.t0 for log in clients for op in log.ops if op.ok}
