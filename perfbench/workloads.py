"""The benchmark's workloads: inputs, front-door runs, layer-by-layer
decompositions and output checks.

Every workload pins ``backend="bitset"``. Inputs are the dataset at its
generator's own seed with rows permuted by the benchmark seed: mining is
row-order invariant, so every seed must give the same subgroup counts,
while the seed still changes the inputs the program sees.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from repro import (
    ExploreConfig,
    ExploreSession,
    HDivExplorer,
    HierarchySet,
    ResultSet,
    SubgroupResult,
    Table,
    coerce_outcome,
)
from repro.core.explorer import results_from_mined
from repro.core.mining import EncodedUniverse, generalized_universe, mine
from repro.experiments.harness import load_context
from repro.obs.collector import ObsCollector

from tracing import Tracer, peak_rss_mb, reset_peak_rss, rss_mb

#: Support thresholds of every workload: the first is mined; the rest
#: are follow-up queries answered without mining (the session cache on
#: ``warm-sweep``, ``ResultSet.at_support`` on the cold workloads).
SUPPORTS = (0.05, 0.1, 0.15, 0.2)
TOP_K = 10
#: Subgroups per iteration checked against the mask oracle, besides
#: every point's top-k.
SAMPLE = 100
#: Follow-up passes per iteration: at least WARM_PASSES, and more until
#: they add up to WARM_SECONDS. Only the first pass's points are
#: checked; the later passes give ``warm_point_s`` more samples, since a
#: single follow-up lasts from 0.5 ms to 0.5 s and one garbage-collector
#: pause moves it by a fifth. Two seconds per iteration spread the
#: samples over more of the run, so one slow spell of the host holds
#: fewer of them.
WARM_PASSES = 3
WARM_SECONDS = 2.0


def _passes(run: "Run"):
    n = 0
    while n < WARM_PASSES or run.warm_total < WARM_SECONDS:
        yield n
        n += 1


@dataclass(frozen=True)
class Workload:
    name: str
    dataset: str
    n_rows: int
    #: True: one ExploreSession sweeps SUPPORTS with ``n_jobs`` workers.
    #: False: a cold HDivExplorer.explore, serial.
    sweep: bool
    n_jobs: int
    #: Subgroup counts at each of SUPPORTS (row-order invariant).
    expected: tuple[int, ...]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("wide-lattice", "wine", 5_000, False, 1,
                 (198_055, 29_633, 8_621, 3_334)),
        Workload("tall-numeric", "folktables", 195_665, False, 1,
                 (2_883, 687, 270, 139)),
        Workload("warm-sweep", "bank", 45_211, True, 2,
                 (222_641, 40_259, 13_062, 5_446)),
    )
}


@dataclass
class Inputs:
    table: Table
    outcomes: np.ndarray
    hierarchies: HierarchySet


def load(workload: Workload, seed: int) -> Inputs:
    """Generate the dataset and evaluate its outcome (the set-up)."""
    ctx = load_context(workload.dataset, n_rows=workload.n_rows)
    perm = np.random.default_rng(seed).permutation(ctx.features.n_rows)
    return Inputs(
        ctx.features.take(perm), ctx.outcomes[perm], ctx.dataset.hierarchies
    )


@dataclass
class Point:
    support: float
    result: ResultSet
    top: list[SubgroupResult]
    seconds: float


@dataclass
class Run:
    """One front-door iteration."""

    #: Front door called → top-k list(s) held.
    seconds: float
    points: list[Point]
    #: Subgroups materialized within ``seconds``.
    materialized: int
    peak_rss_mb: float
    #: One sample per follow-up pass: the pass's mean latency per point.
    #: A pass holds one point of each follow-up support, so every sample
    #: weighs the supports alike.
    warm_seconds: list[float] = field(default_factory=list)
    #: Summed latency of every follow-up point so far.
    warm_total: float = 0.0
    #: Wall time of the work a traced rebuild repeats: the front door
    #: plus the first follow-up pass.
    pipeline_s: float = 0.0

    def follow_up(self, points: list[Point], pass_no: int) -> None:
        seconds = sum(p.seconds for p in points)
        self.warm_seconds.append(seconds / len(points))
        self.warm_total += seconds
        if pass_no == 0:
            self.points.extend(points)


def _query(result: ResultSet) -> list[SubgroupResult]:
    top = result.top_k(TOP_K)
    result.summary()
    return top


def front_door(workload: Workload, inp: Inputs) -> Run:
    """One untraced iteration through the public front doors."""
    if workload.sweep:
        return _front_door_sweep(workload, inp)
    reset_peak_rss()
    t0 = time.perf_counter()
    explorer = HDivExplorer(
        ExploreConfig(min_support=SUPPORTS[0], backend="bitset")
    )
    result = explorer.explore(
        inp.table, inp.outcomes, hierarchies=inp.hierarchies
    )
    top = _query(result)
    seconds = time.perf_counter() - t0
    peak = peak_rss_mb()
    run = Run(seconds, [Point(SUPPORTS[0], result, top, seconds)],
              len(result), peak)
    for i in _passes(run):
        points = []
        for support in SUPPORTS[1:]:
            t = time.perf_counter()
            sub = result.at_support(support)
            top = _query(sub)
            points.append(Point(support, sub, top, time.perf_counter() - t))
        run.follow_up(points, i)
    run.pipeline_s = seconds + sum(p.seconds for p in run.points[1:])
    return run


def _front_door_sweep(workload: Workload, inp: Inputs) -> Run:
    reset_peak_rss()
    t0 = time.perf_counter()
    with ExploreSession(
        inp.table, inp.outcomes, hierarchies=inp.hierarchies
    ) as session:
        cfg = ExploreConfig(backend="bitset", n_jobs=workload.n_jobs)
        sweep = session.sweep("min_support", list(SUPPORTS), cfg)
        points = []
        for p in sweep:
            t = time.perf_counter()
            top = _query(p.result)
            rank = time.perf_counter() - t
            points.append(Point(p.value, p.result, top, p.elapsed_seconds + rank))
        seconds = time.perf_counter() - t0
        peak = peak_rss_mb()
        run = Run(seconds, points[:1], sum(len(p.result) for p in points), peak)
        run.pipeline_s = seconds
        run.follow_up(points[1:], 0)
        for i in _passes(run):
            if i == 0:
                continue  # the sweep made the first pass
            points = []
            for support in SUPPORTS[1:]:
                t = time.perf_counter()
                result = session.explore(cfg.replace(min_support=support))
                top = _query(result)
                points.append(
                    Point(support, result, top, time.perf_counter() - t)
                )
            run.follow_up(points, i)
    return run


# -- output checks ---------------------------------------------------------


class Oracle:
    """Recomputes subgroup statistics from row masks, independently of
    the mining engine, with :meth:`EncodedUniverse.stats_of_mask`."""

    def __init__(self, inp: Inputs):
        self.table = inp.table
        self.universe = EncodedUniverse.from_table(inp.table, [], inp.outcomes)
        self.global_mean = self.universe.global_stats().mean

    def check(self, r: SubgroupResult) -> str | None:
        mask = np.ones(self.table.n_rows, dtype=bool)
        for item in r.itemset:
            mask &= item.mask(self.table)
        stats = self.universe.stats_of_mask(mask)
        if stats.count != r.count:
            return f"{r.itemset}: count {r.count} != oracle {stats.count}"
        scale = max(1.0, abs(self.global_mean))
        for what, got, want in (
            ("mean", r.mean, stats.mean),
            ("divergence", r.divergence, stats.mean - self.global_mean),
        ):
            if math.isnan(got) and math.isnan(want):
                continue
            if not math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-9 * scale):
                return f"{r.itemset}: {what} {got!r} != oracle {want!r}"
        return None


def check_run(
    workload: Workload, run: Run, oracle: Oracle, rng: np.random.Generator
) -> tuple[int, list[str]]:
    """Check one iteration's outputs; returns (checks attempted, failures).

    Checks each point's subgroup count against the expected count, each
    point's top-k and a seeded sample of the mined point against the
    mask oracle.
    """
    failures: list[str] = []
    attempted = 0
    for point, expected in zip(run.points, workload.expected):
        attempted += 1
        if len(point.result) != expected:
            failures.append(
                f"s={point.support}: {len(point.result)} subgroups, "
                f"expected {expected}"
            )
    mined = run.points[0].result
    picks = rng.choice(len(mined), size=min(SAMPLE, len(mined)), replace=False)
    subjects = [r for p in run.points for r in p.top]
    subjects += [mined[int(i)] for i in picks]
    for r in subjects:
        attempted += 1
        problem = oracle.check(r)
        if problem is not None:
            failures.append(problem)
    return attempted, failures


def identical(a: ResultSet, b: ResultSet) -> bool:
    """Bit-identical subgroups, statistics and order (timing aside)."""
    if len(a) != len(b) or a.global_stats != b.global_stats:
        return False
    for x, y in zip(a, b):
        if x.itemset != y.itemset or x.count != y.count:
            return False
        for u, v in (
            (x.support, y.support), (x.mean, y.mean),
            (x.divergence, y.divergence), (x.t, y.t),
        ):
            if u.hex() != v.hex():
                return False
    return True


# -- traced, layer-by-layer runs --------------------------------------------


@dataclass
class Decomposed:
    """One traced pipeline run, rebuilt from each layer's public call."""

    trace_id: int
    points: list[Point]
    universe: EncodedUniverse
    counters: dict[str, int]
    gauges: dict[str, float]
    #: Subgroups materialized (the follow-ups of the cold workloads
    #: filter the held result instead).
    materialized: int
    #: Largest peak-RSS growth over a materialize call.
    materialize_rss_mb: float
    #: warm-sweep only: the program's own sweep on the traced session.
    session_hits: int = 0
    session_misses: int = 0
    session_derive_s: float = 0.0
    serial_mine_s: float = 0.0
    serial_identical: bool = True
    probe_identical: bool = True


def decompose(workload: Workload, inp: Inputs, tracer: Tracer) -> Decomposed:
    """Rebuild the front door's pipeline layer by layer, under spans.

    The program's ObsCollector is switched on for the layers' own work
    counters; the spans are the benchmark's.
    """
    tracer.trace_id += 1
    obs = ObsCollector()
    if workload.sweep:
        return _decompose_sweep(workload, inp, tracer, obs)
    with tracer.span("pipeline"):
        explorer = HDivExplorer(
            ExploreConfig(min_support=SUPPORTS[0], backend="bitset", obs=obs)
        )
        outcome = coerce_outcome(inp.outcomes)
        gamma = HierarchySet()
        for h in inp.hierarchies:
            gamma.add(h)
        continuous = [a for a in inp.table.continuous_names if a not in gamma]
        with tracer.span("discretize"):
            if continuous:
                for tree in explorer.discretize(inp.table, outcome, continuous):
                    gamma.add(tree)
        with tracer.span("encode"):
            universe = generalized_universe(inp.table, outcome, gamma, obs=obs)
        with tracer.span("mine") as span:
            mined = mine(universe, SUPPORTS[0], backend="bitset", obs=obs)
        mine_s = span["end"] - span["start"]
        result, mat_mb = _materialize(tracer, universe, mined, mine_s, obs)
        with tracer.span("rank"):
            top = _query(result)
        points = [Point(SUPPORTS[0], result, top, 0.0)]
        for support in SUPPORTS[1:]:
            with tracer.span("rank", support=support):
                sub = result.at_support(support)
                points.append(Point(support, sub, _query(sub), 0.0))
    return Decomposed(
        tracer.trace_id, points, universe, dict(obs.counters),
        dict(obs.gauges), len(result), mat_mb,
    )


def _materialize(tracer: Tracer, universe, mined, elapsed, obs):
    reset_peak_rss()
    rss0 = rss_mb()
    with tracer.span("materialize"):
        result = results_from_mined(universe, mined, elapsed, obs=obs)
    return result, peak_rss_mb() - rss0


def _decompose_sweep(
    workload: Workload, inp: Inputs, tracer: Tracer, obs: ObsCollector
) -> Decomposed:
    cfg = ExploreConfig(backend="bitset", n_jobs=workload.n_jobs, obs=obs)
    with ExploreSession(
        inp.table, inp.outcomes, hierarchies=inp.hierarchies, obs=obs
    ) as session:
        with tracer.span("pipeline"):
            continuous = [
                a for a in inp.table.continuous_names
                if a not in inp.hierarchies
            ]
            with tracer.span("discretize"):
                for attribute in continuous:
                    session.tree(attribute, cfg.tree_support, cfg.criterion)
            with tracer.span("encode"):
                universe = session.universe(cfg.tree_support, cfg.criterion)
            with tracer.span("mine", n_jobs=workload.n_jobs) as span:
                mined = mine(
                    universe, SUPPORTS[0], backend="bitset",
                    n_jobs=workload.n_jobs, obs=obs,
                )
            mine_s = span["end"] - span["start"]
            points, mat_mb = [], 0.0
            for i, support in enumerate(SUPPORTS):
                # The session's documented derivation: a list mined at a
                # lower support filters exactly to a higher one.
                with tracer.span("session", support=support):
                    min_count = max(1, math.ceil(support * universe.n_rows))
                    derived = mined if i == 0 else [
                        m for m in mined if m.stats.count >= min_count
                    ]
                result, grown = _materialize(
                    tracer, universe, derived, mine_s, obs
                )
                mat_mb = max(mat_mb, grown)
                with tracer.span("rank", support=support):
                    points.append(Point(support, result, _query(result), 0.0))
        out = Decomposed(
            tracer.trace_id, points, universe, dict(obs.counters),
            dict(obs.gauges), sum(len(p.result) for p in points), mat_mb,
        )
        # Outside the traced pipeline: the program's own sweep on the
        # same session gives the session layer's cache traffic and the
        # warm points' latency net of materialization.
        before = dict(obs.counters)
        probe = session.sweep("min_support", list(SUPPORTS), cfg)
        for name, value in obs.counters.items():
            if name.startswith("session."):
                delta = value - before.get(name, 0)
                if name.endswith(".hits"):
                    out.session_hits += delta
                elif name.endswith(".misses"):
                    out.session_misses += delta
        # A warm point's own "mine" span is its derivation: the point
        # minus its materialization (ranking runs outside the point).
        sweep_span = next(r for r in reversed(obs.roots) if r.name == "sweep")
        out.session_derive_s = float(np.median([
            c.elapsed_seconds
            for point in sweep_span.children[1:]
            for c in point.children if c.name == "mine"
        ]))
        out.probe_identical = all(
            identical(p.result, q.result) for p, q in zip(probe.points, points)
        )
        del probe
    t = time.perf_counter()
    serial = mine(universe, SUPPORTS[0], backend="bitset")
    out.serial_mine_s = time.perf_counter() - t
    out.serial_identical = serial == mined
    return out
