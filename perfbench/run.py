"""H-DivExplorer benchmark: end-to-end metrics, or a traced per-layer run.

Run from the repository root; the program is imported from ``src/``::

    python3 perfbench/run.py --workload wide-lattice --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

One caller drives the front doors in a closed loop (the next iteration
starts when the previous one has returned) until ``--seconds`` have
passed. ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
alternates an untraced front-door iteration with a traced layer-by-layer
rebuild of the same pipeline, and reports per-layer metrics. Every
iteration's outputs are checked. The last line of standard output is a
JSON object ``{"correct", "attempted", "failed", "metrics"}``; the exit
code is non-zero when any check failed.

See README.md in this directory for the workloads, the metrics and the
layer each one belongs to.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("wide-lattice", "tall-numeric", "warm-sweep")
#: Set-up repeats until it has run SETUP_REPS[0] times and for
#: SETUP_SECONDS, or SETUP_REPS[1] times; setup_s is the median.
SETUP_REPS = (3, 12)
SETUP_SECONDS = 3.0

_IMPORT_PROBE = (
    "import time; t = time.perf_counter(); "
    "import repro, repro.experiments.harness; "
    "print(time.perf_counter() - t)"
)

END_TO_END_UNITS = {
    "time_to_result_s": "s",
    "subgroups_per_s": "1/s",
    "warm_point_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

PER_LAYER_UNITS = {
    "discretize.s": "s",
    "discretize.splits_tried": "count",
    "encode.s": "s",
    "encode.items": "count",
    "encode.cells": "count",
    "mine.s": "s",
    "mine.candidates": "count",
    "mine.rows_scanned": "count",
    "mine.frequent_itemsets": "count",
    "mine.useful_ratio": "ratio",
    "mine.cover_cache_hit_ratio": "ratio",
    "parallel.mine_s": "s",
    "parallel.serial_mine_s": "s",
    "parallel.speedup": "ratio",
    "parallel.shards": "count",
    "materialize.s": "s",
    "materialize.subgroups": "count",
    "materialize.us_per_subgroup": "us",
    "materialize.rss_mb": "MB",
    "rank.s": "s",
    "session.hits": "count",
    "session.misses": "count",
    "session.derive_s": "s",
    "trace.overhead_ratio": "ratio",
    "trace.unattributed_ratio": "ratio",
}


def import_seconds() -> float:
    """Import time of the program, in a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE],
        cwd=ROOT, env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(out.stdout.split()[-1])


def tail_percentile(values: list[float]) -> tuple[int, float] | None:
    """The highest whole percentile with at least ten samples above it."""
    n = len(values)
    if n <= 10:
        return None
    p = (100 * (n - 10)) // n
    rank = max(1, math.ceil(p * n / 100))
    return p, sorted(values)[rank - 1]


def _div(a: float, b: float) -> float:
    return a / b if b else 0.0


def run_one(args: argparse.Namespace) -> int:
    sys.path.insert(0, str(SRC))
    import numpy as np

    import workloads as wl
    from tracing import Tracer

    workload = wl.WORKLOADS[args.workload]

    setup: list[float] = []
    while len(setup) < SETUP_REPS[0] or (
        sum(setup) < SETUP_SECONDS and len(setup) < SETUP_REPS[1]
    ):
        imported = import_seconds()
        t = time.perf_counter()
        inp = wl.load(workload, args.seed)
        setup.append(imported + time.perf_counter() - t)
    oracle = wl.Oracle(inp)
    rng = np.random.default_rng(args.seed)
    gc.collect()

    attempted = 0
    failures: list[str] = []
    samples: dict[str, list[float]] = {}

    def record(name: str, value: float) -> None:
        samples.setdefault(name, []).append(float(value))

    def check(run) -> None:
        nonlocal attempted
        n, problems = wl.check_run(workload, run, oracle, rng)
        attempted += n
        failures.extend(problems)

    def agree(ok: bool, what: str) -> None:
        nonlocal attempted
        attempted += 1
        if not ok:
            failures.append(what)

    tracer = Tracer()
    if args.trace:
        # The first call in a process runs slower; keep it out of the
        # traced/untraced pairs so the overhead ratio compares like runs.
        check(wl.front_door(workload, inp))
        gc.collect()
    deadline = time.perf_counter() + args.seconds
    iterations = 0
    while True:
        run = wl.front_door(workload, inp)
        check(run)
        iterations += 1
        if not args.trace:
            record("time_to_result_s", run.seconds)
            record("subgroups_per_s", run.materialized / run.seconds)
            samples.setdefault("warm_point_s", []).extend(run.warm_seconds)
            record("peak_rss_mb", run.peak_rss_mb)
            del run
        else:
            untraced = run.pipeline_s
            front = run.points
            del run
            gc.collect()
            d = wl.decompose(workload, inp, tracer)
            for p, q in zip(front, d.points):
                agree(wl.identical(p.result, q.result),
                      f"s={p.support}: layer-by-layer result differs "
                      "from the front door's")
            del front
            agree(d.probe_identical,
                  "session sweep differs from the layer-by-layer result")
            agree(d.serial_identical, "n_jobs=2 mine differs from serial")
            _record_layers(record, workload, d, tracer, untraced)
            del d
        gc.collect()
        if time.perf_counter() >= deadline:
            break

    if args.trace:
        out = HERE / "out" / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.dump(out)
        print(f"spans: {len(tracer.spans)} written to {out.relative_to(ROOT)}")
        units = PER_LAYER_UNITS
    else:
        samples["setup_s"] = setup
        units = END_TO_END_UNITS

    metrics = {}
    print(f"workload {args.workload}  seed {args.seed}  "
          f"iterations {iterations}  closed loop, 1 client")
    for name, unit in units.items():
        values = samples[name]
        value = statistics.median(values)
        metrics[name] = {"value": value, "unit": unit}
        tail = tail_percentile(values)
        tail_text = (
            f"p{tail[0]} {tail[1]:.6g}" if tail
            else "no percentile has 10 samples beyond it"
        )
        print(f"  {name:<28} median {value:.6g} {unit}  "
              f"n={len(values)}  {tail_text}")
    failed = len(failures)
    for problem in failures[:20]:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print(f"  failed_fraction              {failed}/{attempted} = "
          f"{_div(failed, attempted):.6g}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


def _record_layers(record, workload, d, tracer, untraced: float) -> None:
    spans = tracer.trace(d.trace_id)
    own = tracer.self_seconds(spans)
    root = next(s for s in spans if s["name"] == "pipeline")
    wall = root["end"] - root["start"]
    c = d.counters
    candidates = c.get("mining.candidates", 0)
    frequent = c.get("mining.frequent_itemsets", 0)
    hits = c.get("cover_cache.hits", 0)
    mine_s = own["mine"]
    record("discretize.s", own["discretize"])
    record("discretize.splits_tried", c.get("discretize.splits_tried", 0))
    record("encode.s", own["encode"])
    record("encode.items", d.universe.n_items())
    record("encode.cells", d.universe.n_items() * d.universe.n_rows)
    record("mine.s", mine_s)
    record("mine.candidates", candidates)
    record("mine.rows_scanned", c.get("mining.rows_scanned", 0))
    record("mine.frequent_itemsets", frequent)
    record("mine.useful_ratio", _div(frequent, candidates))
    record("mine.cover_cache_hit_ratio",
           _div(hits, hits + c.get("cover_cache.misses", 0)))
    parallel = workload.n_jobs != 1
    record("parallel.mine_s", mine_s if parallel else 0.0)
    record("parallel.serial_mine_s", d.serial_mine_s)
    record("parallel.speedup", _div(d.serial_mine_s, mine_s) if parallel else 0.0)
    record("parallel.shards", d.gauges.get("mining.shards", 0))
    record("materialize.s", own["materialize"])
    record("materialize.subgroups", d.materialized)
    record("materialize.us_per_subgroup",
           1e6 * _div(own["materialize"], d.materialized))
    record("materialize.rss_mb", d.materialize_rss_mb)
    record("rank.s", own["rank"])
    record("session.hits", d.session_hits)
    record("session.misses", d.session_misses)
    record("session.derive_s", d.session_derive_s)
    record("trace.overhead_ratio", wall / untraced - 1.0)
    record("trace.unattributed_ratio", own["pipeline"] / wall)


def run_all(args: argparse.Namespace) -> int:
    """Each workload in its own interpreter, then one combined line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0:
            status = 1
        if not lines or not lines[-1].startswith("{"):
            print(f"{name}: no result (exit {proc.returncode})", file=sys.stderr)
            combined["correct"] = False
            continue
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(combined))
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: program source not found under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
