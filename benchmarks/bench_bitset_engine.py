"""Bitset engine: serial vs 2-way parallel mining on Figure 2.

Times the hierarchical exploration of every Figure 2 dataset at the
lowest (most expensive) support, serially (``n_jobs=1``) and with the
prefix-sharded process fan-out (``n_jobs=2``).

Each timed run collects garbage first and disables the collector while
the clock runs, so generational collections triggered by one run's
results do not land in the next run's time. The two runs must return
identical subgroups, counts and divergences.
"""

from __future__ import annotations

import gc
import time

from conftest import run_once

from repro.experiments import render_table
from repro.experiments.figures import FIGURE2_DATASETS
from repro.experiments.harness import run_hierarchical

SUPPORT = 0.05


def _signature(result):
    """A comparable, memory-light summary of a ResultSet."""
    return sorted(
        (tuple(sorted(str(i) for i in r.itemset)), r.count, r.divergence)
        for r in result
    )


def _timed_run(ctx, n_jobs):
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        result = run_hierarchical(ctx, SUPPORT, n_jobs=n_jobs)
        elapsed = time.perf_counter() - start
    finally:
        gc.enable()
    return elapsed, _signature(result)


def _sweep(contexts):
    rows = []
    for name in FIGURE2_DATASETS:
        ctx = contexts[name]
        ctx.leaf_items(0.1, "divergence")  # discretize outside the clock
        serial_s, serial = _timed_run(ctx, 1)
        parallel_s, parallel = _timed_run(ctx, 2)
        assert parallel == serial, f"{name}: n_jobs=2 diverged from serial"
        rows.append((
            name,
            len(serial),
            round(serial_s, 2),
            round(parallel_s, 2),
            round(serial_s / parallel_s, 2),
        ))
    return rows


def test_bitset_engine_speedup(benchmark, emit, sweep_contexts):
    rows = run_once(benchmark, _sweep, sweep_contexts)
    emit(
        "bitset_engine_speedup",
        render_table(
            ("dataset", "subgroups", "serial s", "n_jobs=2 s", "speedup"),
            rows,
            f"Bitset engine: hierarchical exploration at s={SUPPORT} "
            "(Figure 2 datasets), serial vs 2-way parallel",
        ),
    )
    assert all(r[1] > 0 for r in rows)
