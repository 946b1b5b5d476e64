"""Sequential artifact store.

Directory layout per tracked session::

    <root>/
      trail.jsonl          # one JSON record per artifact, in order
      000_query.txt
      003_step02_code.py
      004_step02_result.csv
      007_step04_figure.svg
      ...

``storage_bytes()`` reports the exact on-disk provenance footprint,
including the analysis database when it is registered — Table 2's
"Storage Overhead" column.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass, field
from pathlib import Path

from repro.frame import Frame
from repro.frame.io import write_csv
from repro.util.timing import SimulatedClock, WallClock


@dataclass
class ArtifactRecord:
    seq: int
    kind: str               # query | plan | code | sql | result | figure | llm | qa | note | trace
    path: str | None        # file name inside the session dir (None = inline)
    step_index: int | None
    nbytes: int
    meta: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "seq": self.seq,
            "kind": self.kind,
            "path": self.path,
            "step_index": self.step_index,
            "nbytes": self.nbytes,
            "meta": self.meta,
        }


class ProvenanceTracker:
    """Records artifacts for one analysis session."""

    def __init__(
        self,
        root: str | Path,
        session_id: str = "session",
        clock: WallClock | SimulatedClock | None = None,
    ):
        self.root = Path(root) / session_id
        self.root.mkdir(parents=True, exist_ok=True)
        self.session_id = session_id
        self.records: list[ArtifactRecord] = []
        self._trail = self.root / "trail.jsonl"
        self._trail_fh = None  # one append handle, opened by the first record
        self._extra_paths: list[Path] = []
        # injected clock (DESIGN: components never call time APIs directly),
        # so provenance timestamps are deterministic under SimulatedClock
        self.clock = clock or WallClock()
        self._t0 = self.clock.now()
        # one lock around numbering + write + append: an artifact's file
        # name and its record's ``seq`` are both ``len(self.records)``, and
        # the parallel-viz pool records from several threads at once
        self._lock = threading.RLock()

    # ------------------------------------------------------------------
    def _record(
        self,
        kind: str,
        path: Path | None,
        step_index: int | None,
        nbytes: int,
        **meta,
    ) -> ArtifactRecord:
        with self._lock:
            rec = ArtifactRecord(
                seq=len(self.records),
                kind=kind,
                path=path.name if path else None,
                step_index=step_index,
                nbytes=nbytes,
                meta=meta,
            )
            self.records.append(rec)
            if self._trail_fh is None:
                self._trail_fh = self._trail.open("a")
            # flushed per record: storage_bytes() and a crash see every line
            self._trail_fh.write(json.dumps(rec.as_dict()) + "\n")
            self._trail_fh.flush()
        return rec

    def close(self) -> None:
        """Release the trail handle (idempotent); a later record reopens it."""
        with self._lock:
            if self._trail_fh is not None:
                self._trail_fh.close()
                self._trail_fh = None

    def _file(self, stem: str, suffix: str) -> Path:
        return self.root / f"{len(self.records):03d}_{stem}{suffix}"

    def _record_file(
        self, kind: str, stem: str, suffix: str, step_index: int | None, data: bytes, **meta
    ) -> ArtifactRecord:
        with self._lock:
            path = self._file(stem, suffix)
            path.write_bytes(data)
            return self._record(kind, path, step_index, len(data), **meta)

    # ------------------------------------------------------------------
    def record_query(self, question: str) -> ArtifactRecord:
        return self._record_file("query", "query", ".txt", None, question.encode("utf-8"))

    def record_plan(self, plan_doc: dict) -> ArtifactRecord:
        data = json.dumps(plan_doc, indent=1).encode("utf-8")
        return self._record_file(
            "plan", "plan", ".json", None, data, steps=len(plan_doc.get("steps", []))
        )

    def record_code(self, step_index: int, code: str, language: str = "python", attempt: int = 0) -> ArtifactRecord:
        suffix = ".sql" if language == "sql" else ".py"
        return self._record_file(
            "code", f"step{step_index:02d}_attempt{attempt}_code", suffix, step_index,
            code.encode("utf-8"), language=language, attempt=attempt,
        )

    def record_result(self, step_index: int, frame: Frame, name: str = "result") -> ArtifactRecord:
        with self._lock:
            path = self._file(f"step{step_index:02d}_{name}", ".csv")
            nbytes = write_csv(frame, path)
            return self._record(
                "result", path, step_index, nbytes, rows=frame.num_rows, columns=frame.columns
            )

    def record_figure(self, step_index: int, svg: str, form: str) -> ArtifactRecord:
        return self._record_file(
            "figure", f"step{step_index:02d}_figure", ".svg", step_index,
            svg.encode("utf-8"), form=form,
        )

    def record_llm_exchange(self, role: str, prompt_tokens: int, completion_tokens: int, step_index: int | None = None) -> ArtifactRecord:
        return self._record(
            "llm", None, step_index, 0,
            role=role, prompt_tokens=prompt_tokens, completion_tokens=completion_tokens,
        )

    def record_qa(self, step_index: int, score: int | None, passed: bool, feedback: str, attempt: int) -> ArtifactRecord:
        return self._record(
            "qa", None, step_index, 0,
            score=score, passed=passed, feedback=feedback[:300], attempt=attempt,
        )

    def record_note(self, text: str, step_index: int | None = None, **meta) -> ArtifactRecord:
        return self._record("note", None, step_index, 0, text=text[:500], **meta)

    def record_trace(self, spans: list[dict]) -> ArtifactRecord:
        """Persist a session's execution trace as a JSONL artifact.

        Every trail thereby carries its own execution trace (``kind="trace"``):
        the artifacts *and* the spans that produced them, inspectable with
        ``repro trace summary/tree <session-dir>``.
        """
        data = "".join(json.dumps(span) + "\n" for span in spans).encode("utf-8")
        trace_id = spans[0].get("trace_id", "") if spans else ""
        return self._record_file(
            "trace", "trace", ".jsonl", None, data, spans=len(spans), trace_id=trace_id
        )

    def register_external(self, path: str | Path) -> None:
        """Count an external artifact (e.g. the analysis database directory)
        toward this session's storage overhead."""
        self._extra_paths.append(Path(path))

    # ------------------------------------------------------------------
    def storage_bytes(self) -> int:
        total = sum(
            f.stat().st_size for f in self.root.iterdir() if f.is_file()
        )
        for extra in self._extra_paths:
            if extra.is_dir():
                total += sum(f.stat().st_size for f in extra.rglob("*") if f.is_file())
            elif extra.is_file():
                total += extra.stat().st_size
        return total

    def elapsed_s(self) -> float:
        return self.clock.now() - self._t0

    def trail(self) -> list[dict]:
        return [r.as_dict() for r in self.records]
