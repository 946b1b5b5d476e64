"""One lock for every Python-AST build in a threaded process.

CPython 3.11 keeps the AST constructor's recursion counter per interpreter,
so two threads building :mod:`ast` objects at once can fail with
``SystemError: AST constructor recursion depth mismatch``.  ``np.load``
parses each ``.npy`` header with ``ast.literal_eval`` on the serve workers'
concurrent read path, so segment opens and code audits take turns here.
"""

from __future__ import annotations

import threading
from pathlib import Path

import numpy as np

AST_LOCK = threading.Lock()


def load_npy(path: Path, mmap_mode: str | None = "r") -> np.ndarray:
    """``np.load`` (no pickles) under :data:`AST_LOCK`."""
    with AST_LOCK:
        return np.load(path, mmap_mode=mmap_mode, allow_pickle=False)
