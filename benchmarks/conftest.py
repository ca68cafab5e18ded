"""Benchmark configuration.

Paper-scale knobs can be enabled with environment variables:

* ``REPRO_BENCH_DURATION``  — per-run simulated seconds (default 60; the
  paper ran 300).
* ``REPRO_BENCH_SETS``      — task sets per experiment (default 10, like
  the paper).

Each benchmark prints the reproduced table/figure once at the end of its
measurement so `pytest benchmarks/ --benchmark-only -s` doubles as the
report generator for EXPERIMENTS.md.

Hot-path benchmarks record their numbers with :func:`update_hotpath_record`
into ``.bench/BENCH_hotpath.latest.json`` (git-ignored), never into the
committed ``BENCH_hotpath.json`` that the regression gate compares against.
"""

import json
import os
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]

#: The committed hot-path record: the regression gate's baseline.
COMMITTED_RECORD = REPO_ROOT / "BENCH_hotpath.json"

#: The fresh record a benchmark run writes.
LATEST_RECORD = REPO_ROOT / ".bench" / "BENCH_hotpath.latest.json"


def update_hotpath_record(sections: dict) -> Path:
    """Merge ``sections`` into the fresh hot-path record; return its path.

    The fresh record starts as a copy of the committed one, so a run that
    measures only some sections still yields every section the gate
    requires, and sections written by other benchmarks survive regardless
    of order.
    """
    record = {}
    for path in (LATEST_RECORD, COMMITTED_RECORD):
        try:
            record = json.loads(path.read_text())
        except (FileNotFoundError, json.JSONDecodeError):
            continue
        break
    record.update(sections)
    LATEST_RECORD.parent.mkdir(exist_ok=True)
    LATEST_RECORD.write_text(json.dumps(record, indent=2) + "\n")
    return LATEST_RECORD


def bench_duration(default: float = 60.0) -> float:
    return float(os.environ.get("REPRO_BENCH_DURATION", default))


def bench_sets(default: int = 10) -> int:
    return int(os.environ.get("REPRO_BENCH_SETS", default))


@pytest.fixture(scope="session")
def duration():
    return bench_duration()


@pytest.fixture(scope="session")
def n_sets():
    return bench_sets()
