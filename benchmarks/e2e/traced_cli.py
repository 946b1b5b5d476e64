#!/usr/bin/env python3
"""Launcher the ``oneshot_cli`` workload uses in place of ``python -m repro``.

    traced_cli.py run SPANS_OUT OP_KEY ID_BLOCK <repro argv...>
        install the layer wrappers, run the CLI, write the spans as JSON
    traced_cli.py probe <repro argv...>
        time ``import repro.cli`` and then the command with imports warm;
        the last stdout line is ``{"import_s": .., "query_session_s": ..}``

Both need ``src/`` on ``PYTHONPATH``, as ``python -m repro`` does.
"""

from __future__ import annotations

import json
import sys
import time


def run(spans_out: str, op_key: str, id_block: str, argv: list[str]) -> int:
    from e2elib import layers, measure

    # span ids are unique per pass: each child numbers from its own block
    recorder = layers.Recorder(first_id=int(id_block) * 1_000_000)
    measure.current_op.key = op_key
    recorder.install()
    from repro.cli import main

    try:
        return main(argv)
    finally:
        with open(spans_out, "w") as fh:
            json.dump(recorder.drain(), fh)


def probe(argv: list[str]) -> int:
    t0 = time.perf_counter()
    from repro.cli import main

    t1 = time.perf_counter()
    code = main(argv)
    t2 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "query_session_s": t2 - t1}))
    return code


if __name__ == "__main__":
    mode, rest = sys.argv[1], sys.argv[2:]
    if mode == "run":
        sys.exit(run(rest[0], rest[1], rest[2], rest[3:]))
    if mode == "probe":
        sys.exit(probe(rest))
    sys.exit(f"traced_cli.py: unknown mode {mode!r} (expected 'run' or 'probe')")
