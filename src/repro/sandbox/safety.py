"""Static safety audit of generated code.

Checked *before* execution:

* imports restricted to an allowlist (numpy, math, statistics, and the
  repro analysis modules),
* no dunder attribute access (``__class__``-style escape routes),
* no calls to ``open``/``eval``/``exec``/``compile``/``__import__``/
  ``globals``/``input``/``breakpoint``,
* no ``global``/``nonlocal`` declarations and no deletion statements.

The audit is defense-in-depth on top of the restricted namespace — code
that passes still runs without builtins that touch the host.
"""

from __future__ import annotations

import ast
import threading

# CPython 3.11 keeps the AST constructor's recursion counter per
# interpreter, so two threads parsing at once (served requests audit
# concurrently) can fail with ``SystemError: AST constructor recursion
# depth mismatch``: every parse in the process takes turns here
AST_LOCK = threading.Lock()

ALLOWED_IMPORTS = {
    "numpy",
    "math",
    "statistics",
}

FORBIDDEN_CALLS = {
    "open", "eval", "exec", "compile", "__import__", "globals", "locals",
    "input", "breakpoint", "exit", "quit", "vars", "delattr", "setattr",
    "getattr", "memoryview",
}


class SafetyViolation(RuntimeError):
    """Raised when generated code fails the audit."""


def audit_code(code: str) -> ast.Module:
    """Parse and audit ``code``; returns the AST if clean."""
    try:
        with AST_LOCK:
            tree = ast.parse(code)
    except SyntaxError as exc:
        raise SafetyViolation(f"syntax error in generated code: {exc}") from exc

    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                root = alias.name.split(".")[0]
                if root not in ALLOWED_IMPORTS:
                    raise SafetyViolation(f"import of {alias.name!r} is not permitted")
        elif isinstance(node, ast.ImportFrom):
            root = (node.module or "").split(".")[0]
            if root not in ALLOWED_IMPORTS:
                raise SafetyViolation(f"import from {node.module!r} is not permitted")
        elif isinstance(node, ast.Attribute):
            if node.attr.startswith("__") and node.attr.endswith("__"):
                raise SafetyViolation(f"dunder attribute access {node.attr!r} is not permitted")
        elif isinstance(node, ast.Name):
            if node.id.startswith("__") and node.id.endswith("__"):
                raise SafetyViolation(f"dunder name {node.id!r} is not permitted")
        elif isinstance(node, ast.Call):
            fn = node.func
            if isinstance(fn, ast.Name) and fn.id in FORBIDDEN_CALLS:
                raise SafetyViolation(f"call to {fn.id!r} is not permitted")
        elif isinstance(node, (ast.Global, ast.Nonlocal)):
            raise SafetyViolation("global/nonlocal declarations are not permitted")
        elif isinstance(node, ast.Delete):
            raise SafetyViolation("del statements are not permitted")
    return tree
