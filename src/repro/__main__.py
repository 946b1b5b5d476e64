"""``python -m repro`` entry point."""

import sys

from repro.util.timing import WallClock

# before the CLI's imports, so the process-root span can say what they cost
process_start = WallClock().now()

from repro.cli import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main(process_start=process_start))
