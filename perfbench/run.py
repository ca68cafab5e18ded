"""Command line of the end-to-end, per-layer benchmark.

    python3 perfbench/run.py --workload paper_grid --seed 2008 \\
        --seconds 12 --trace 0

Run from the repository root; the program under test is imported from
``src/`` next to this directory.  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.bench import main as bench_main

    return bench_main(argv)


if __name__ == "__main__":
    sys.exit(main())
