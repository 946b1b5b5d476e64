"""Restricted execution of generated analysis code.

The executor receives code plus named input Frames, runs the code against
*copies* (the temporary-data-copy guarantee), and returns a structured
result: the ``result`` Frame, any ``figure`` object, tables the code
published, and on failure the exception type plus a detailed message — the
payload the QA repair loop feeds back to the code-generating agents.
"""

from __future__ import annotations

import traceback
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.frame import Frame, concat
from repro.frame.frame import ColumnMismatchError
from repro.obs.tracer import get_tracer
from repro.sandbox.safety import SafetyViolation, audit_code
from repro.viz import Figure, Scene3D

_SAFE_BUILTINS = {
    "abs": abs, "all": all, "any": any, "bool": bool, "dict": dict,
    "enumerate": enumerate, "float": float, "int": int, "len": len,
    "list": list, "max": max, "min": min, "print": lambda *a, **k: None,
    "range": range, "round": round, "set": set, "sorted": sorted,
    "str": str, "sum": sum, "tuple": tuple, "zip": zip, "map": map,
    "filter": filter, "reversed": reversed, "isinstance": isinstance,
    "object": object, "type": type, "divmod": divmod, "pow": pow,
    "repr": repr, "hash": hash, "iter": iter, "next": next, "slice": slice,
    "ValueError": ValueError, "KeyError": KeyError, "TypeError": TypeError,
    "Exception": Exception, "StopIteration": StopIteration,
    "__import__": None,  # replaced below by the restricted importer
}

_ALLOWED_MODULES = {"numpy", "math", "statistics"}


def _restricted_import(name, globals=None, locals=None, fromlist=(), level=0):
    root = name.split(".")[0]
    if root not in _ALLOWED_MODULES:
        raise SafetyViolation(f"import of {name!r} is not permitted at runtime")
    return __import__(name, globals, locals, fromlist, level)


@dataclass
class ExecutionResult:
    """Outcome of one sandboxed execution."""

    ok: bool
    result: Frame | None = None
    figure: Any = None
    tables: dict[str, Frame] = field(default_factory=dict)
    error_type: str = ""
    error_message: str = ""
    meta: dict[str, Any] = field(default_factory=dict)

    @property
    def result_rows(self) -> int:
        return self.result.num_rows if self.result is not None else 0

    def summary(self) -> dict[str, Any]:
        return {
            "ok": self.ok,
            "result_rows": self.result_rows,
            "result_columns": self.result.columns if self.result is not None else [],
            "has_figure": self.figure is not None,
            "error_type": self.error_type,
            "error_message": self.error_message,
        }


class SandboxExecutor:
    """Executes audited code over copied inputs with a frozen namespace."""

    def __init__(self, tools: dict[str, Any] | None = None):
        self.tools = dict(tools or {})

    def execute(self, code: str, tables: dict[str, Frame]) -> ExecutionResult:
        """Audit + run ``code``; never mutates the caller's frames.

        Every execution is one ``sandbox.execute`` span: its duration, ``ok``
        and ``error_type`` are the one record of sandbox time and failures —
        the dominant cost the paper's future-work parallelization targets.
        """
        with get_tracer().span(
            "sandbox.execute", code_lines=code.count("\n") + 1, n_tables=len(tables)
        ) as sp:
            result = self._run(code, tables)
            sp.set(ok=result.ok, error_type=result.error_type)
        return result

    def _run(self, code: str, tables: dict[str, Frame]) -> ExecutionResult:
        try:
            audit_code(code)
        except SafetyViolation as exc:
            return ExecutionResult(
                ok=False, error_type="SafetyViolation", error_message=str(exc)
            )

        # temporary data copies: the ground truth can never be modified
        working: dict[str, Frame] = {
            name: Frame({c: np.array(frame.column(c), copy=True) for c in frame.columns})
            for name, frame in tables.items()
        }
        builtins = dict(_SAFE_BUILTINS)
        builtins["__import__"] = _restricted_import
        namespace: dict[str, Any] = {
            "__builtins__": builtins,
            "np": np,
            "Frame": Frame,
            "concat": concat,
            "Figure": Figure,
            "Scene3D": Scene3D,
            "tables": working,
            "tools": dict(self.tools),
        }
        try:
            exec(compile(code, "<agent-code>", "exec"), namespace)  # noqa: S102
        except ColumnMismatchError as exc:
            return ExecutionResult(
                ok=False,
                error_type="ColumnMismatchError",
                error_message=str(exc),
                tables=working,
            )
        except Exception as exc:  # detailed message for the repair loop
            tb = traceback.format_exc(limit=3)
            return ExecutionResult(
                ok=False,
                error_type=type(exc).__name__,
                error_message=f"{exc} | traceback: {tb.splitlines()[-1]}",
                tables=working,
            )

        result = namespace.get("result")
        if result is not None and not isinstance(result, Frame):
            return ExecutionResult(
                ok=False,
                error_type="ContractViolation",
                error_message=f"'result' must be a Frame, got {type(result).__name__}",
                tables=working,
            )
        figure = namespace.get("figure")
        if figure is not None and not isinstance(figure, (Figure, Scene3D)):
            return ExecutionResult(
                ok=False,
                error_type="ContractViolation",
                error_message=f"'figure' must be a Figure or Scene3D, got {type(figure).__name__}",
                tables=working,
            )
        return ExecutionResult(ok=True, result=result, figure=figure, tables=working)
