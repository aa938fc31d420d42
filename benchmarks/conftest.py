"""Shared helpers for the benchmark harness.

Each benchmark regenerates one table or figure of the paper: it computes
the series under ``pytest-benchmark`` timing, prints the rows (visible
with ``pytest benchmarks/ --benchmark-only -s``) and writes
``results/<experiment>.csv`` for external plotting.  EXPERIMENTS.md
records the paper-vs-measured comparison for every experiment id.

Parallel mode is opt-in: ``REPRO_BENCH_JOBS=N`` makes sweep-heavy
benchmarks run their offset sweeps through ``Session(jobs=N)`` -- the
persistent pool of ``N`` workers (see the ``sweep_jobs`` fixture and
``parallel_sweep_offsets``, which asserts serial equivalence on the
fly).  The default stays serial so published numbers are comparable
across machines.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.analysis import format_table, write_csv

RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"


@pytest.fixture
def sweep_jobs() -> int:
    """Worker processes for offset sweeps (``REPRO_BENCH_JOBS``, default 1)."""
    return max(1, int(os.environ.get("REPRO_BENCH_JOBS", "1")))


@pytest.fixture
def parallel_sweep_offsets(sweep_jobs):
    """A ``sweep_offsets`` replacement that honors the opt-in parallel mode.

    With ``REPRO_BENCH_JOBS > 1`` sweeps run through one
    ``Session(jobs=N)``; every *distinct* call is additionally re-run
    serially and compared **at fixture teardown**, outside the
    benchmark-timed region -- so the timings measure the pooled path
    alone, while a benchmark that silently diverged from the serial
    reference still fails the run.
    """
    from repro.simulation import ReceptionModel, sweep_offsets

    if sweep_jobs <= 1:
        yield sweep_offsets
        return

    from repro.api import RunSpec, Session

    recorded = {}
    with Session(jobs=sweep_jobs) as session:

        def run(
            protocol_e, protocol_f, offsets, horizon,
            model=ReceptionModel.POINT, turnaround=0,
        ):
            offsets = list(offsets)
            parallel = session.sweep(RunSpec(
                pair=(protocol_e, protocol_f),
                offsets=offsets,
                horizon=horizon,
                model=model.value,
                turnaround=turnaround,
            )).raw
            key = (
                protocol_e, protocol_f, tuple(offsets), horizon, model,
                turnaround,
            )
            recorded[key] = parallel
            return parallel

        yield run

    for key, parallel in recorded.items():
        protocol_e, protocol_f, offsets, horizon, model, turnaround = key
        serial = sweep_offsets(
            protocol_e, protocol_f, list(offsets), horizon, model, turnaround
        )
        assert parallel == serial, (
            "parallel sweep diverged from the serial reference"
        )


@pytest.fixture
def emit():
    """Print a table and persist it as CSV under results/."""

    def _emit(experiment_id: str, title: str, headers, rows):
        print()
        print(format_table(headers, rows, title=f"[{experiment_id}] {title}"))
        path = write_csv(RESULTS_DIR / f"{experiment_id.lower()}.csv", headers, rows)
        print(f"-> {path}")
        return path

    return _emit
