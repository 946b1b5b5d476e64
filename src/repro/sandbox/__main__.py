"""``python -m repro.sandbox``: one standalone sandbox worker process.

An entry the package does not import: ``python -m repro.sandbox.server``
ran that module twice, once from ``repro/sandbox/__init__.py`` and again
as ``__main__``.
"""

import sys

from repro.sandbox.server import main

if __name__ == "__main__":
    sys.exit(main())
