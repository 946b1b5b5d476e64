"""Database error hierarchy.

Error messages are deliberately detailed: the sandboxed execution gateway
forwards them verbatim to the quality-assurance agent, whose error-guided
repair loop needs to see the candidate identifiers (the paper: "these
syntactic errors are quickly identified and easily resolved").
"""

from __future__ import annotations

from collections.abc import Sequence


class DBError(RuntimeError):
    """Base class for all database errors."""


class SQLSyntaxError(DBError):
    """Raised by the lexer/parser with position information."""

    def __init__(self, message: str, sql: str = "", position: int | None = None):
        self.sql = sql
        self.position = position
        if position is not None and sql:
            pointer = sql[:position].count("\n")
            message = f"{message} (at offset {position}, line {pointer + 1})"
        super().__init__(message)


class UnknownColumnError(DBError):
    """Unknown column reference, with the valid candidates attached."""

    def __init__(self, name: str, known: Sequence[str]):
        self.name = name
        self.known = list(known)
        super().__init__(
            f"no column named {name!r}; available columns: {', '.join(self.known)}"
        )


class UnknownTableError(DBError):
    """Unknown table reference, with the catalog contents attached."""

    def __init__(self, name: str, known: Sequence[str]):
        self.name = name
        self.known = list(known)
        super().__init__(
            f"no table named {name!r}; available tables: {', '.join(self.known) or '(none)'}"
        )


class UnsupportedSQLError(DBError):
    """A syntactically valid construct the engine does not implement."""


class IngestKilled(DBError):
    """A simulated ingester death at a named point of the commit protocol.

    Raised by the commit path when an armed ingest kill fault fires (see
    :func:`repro.faults.arm_ingest_kills`).  The exception *is* the crash:
    the operation stops exactly where a SIGKILL would have stopped it, with
    whatever bytes were already durable left on disk for recovery to judge.
    """

    def __init__(self, stage: str, detail: str = ""):
        self.stage = stage
        super().__init__(
            f"ingester killed at stage {stage!r}" + (f": {detail}" if detail else "")
        )
