"""Run the stabpres CLI (`stabpres.cli.main`) and take speed samples
inside the process.

    python3 perfbench/cli_child.py verify fixtures/f3.json --format json

The CLI's own output is untouched.  `SpeedClock.sampling` takes a
sample every half second; after the CLI returns, the samples go to
stderr as the last line, one JSON list, for the parent to merge into
its clock.  Without them a multi-
second CLI run would be scaled only by the samples at its two ends.
"""

import json
import sys

from speed import SpeedClock


def main():
    clock = SpeedClock()
    clock.calibrate()
    try:
        with clock.sampling():
            from stabpres.cli import main as cli_main

            return cli_main(sys.argv[1:])
    finally:
        sys.stdout.flush()
        print(json.dumps(clock.samples), file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
