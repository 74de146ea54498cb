"""Columnar mining output and the struct-of-arrays ResultSet.

The scalar path — :meth:`SubgroupResult.from_stats` over
:class:`OutcomeStats`, canonical order by ``sorted(tuple(sorted(ids)))``
and ranking by a stable ``sorted(..., reverse=True)`` — is kept here as
the reference. The columnar path must reproduce it bit for bit (NaN
payloads aside), on universes with NaN outcome rows, numeric outcomes,
subgroups with fewer than two defined outcomes, and zero-variance
subgroups. The invariance tests pin the container's ids, statistics and
order across ``n_jobs``, polarity, warm/cold sessions and row order.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.config import ExploreConfig
from repro.core.divergence import OutcomeStats, subgroup_columns, welch_t
from repro.core.explorer import results_from_mined
from repro.core.hexplorer import HDivExplorer
from repro.core.items import CategoricalItem
from repro.core.mining import EncodedUniverse, mine, mine_apriori
from repro.core.mining.transactions import MinedColumns
from repro.core.polarity import mine_with_polarity
from repro.core.results import ResultSet, SubgroupResult
from repro.core.session import ExploreSession
from repro.tabular import Table

BY = ("abs_divergence", "divergence", "neg_divergence", "support")


def same_float(a: float, b: float) -> bool:
    """Equal bits, except that any two NaNs match."""
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


def same_result(a: SubgroupResult, b: SubgroupResult) -> bool:
    return (
        a.itemset == b.itemset
        and a.count == b.count
        and type(a.count) is type(b.count) is int
        and all(
            same_float(x, y)
            for x, y in (
                (a.support, b.support), (a.mean, b.mean),
                (a.divergence, b.divergence), (a.t, b.t),
            )
        )
    )


def same_results(got, want) -> bool:
    got, want = list(got), list(want)
    return len(got) == len(want) and all(
        same_result(a, b) for a, b in zip(got, want)
    )


def same_result_sets(a: ResultSet, b: ResultSet) -> bool:
    return a.global_stats == b.global_stats and same_results(a, b)


# -- the scalar reference ------------------------------------------------------


def reference_results(universe, mined) -> list[SubgroupResult]:
    g = universe.global_stats()
    ordered = sorted(mined, key=lambda m: tuple(sorted(m.ids)))
    return [
        SubgroupResult.from_stats(
            m.to_itemset(universe), m.stats, g, universe.n_rows
        )
        for m in ordered
    ]


def reference_top_k(results, k, by, min_t, min_length):
    key = {
        "abs_divergence": lambda r: abs(r.divergence),
        "divergence": lambda r: r.divergence,
        "neg_divergence": lambda r: -r.divergence,
        "support": lambda r: r.support,
    }[by]
    pool = [
        r
        for r in results
        if r.length >= min_length
        and (min_t <= 0.0 or (not math.isnan(r.t) and r.t >= min_t))
        and not math.isnan(r.divergence)
    ]
    return sorted(pool, key=key, reverse=True)[:k]


# -- strategies ----------------------------------------------------------------


@st.composite
def universes(draw):
    """Small categorical universes with awkward outcomes.

    Outcome kinds: boolean, small integers (many ties and exact sums),
    constant (zero variance everywhere), and continuous; any of them
    with a share of NaN rows, which leaves some subgroups with n < 2.
    """
    n_rows = draw(st.integers(2, 50))
    n_attrs = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    items, masks = [], []
    for a in range(n_attrs):
        k = int(rng.integers(2, 4))
        codes = rng.integers(0, k, size=n_rows)
        for v in range(k):
            items.append(CategoricalItem(f"a{a}", f"v{v}"))
            masks.append(codes == v)
    kind = draw(st.sampled_from(["boolean", "ints", "constant", "normal"]))
    if kind == "boolean":
        o = rng.integers(0, 2, size=n_rows).astype(float)
    elif kind == "ints":
        o = rng.integers(-3, 4, size=n_rows).astype(float)
    elif kind == "constant":
        o = np.full(n_rows, 2.5)
    else:
        o = rng.normal(loc=draw(st.sampled_from([0.0, 1e6])), size=n_rows)
    nan_share = draw(st.sampled_from([0.0, 0.3, 0.8]))
    o[rng.uniform(size=n_rows) < nan_share] = np.nan
    return EncodedUniverse(items, np.array(masks), o)


SUPPORTS = st.sampled_from([0.02, 0.1, 0.3])
PROPERTY = settings(
    max_examples=60, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


# -- reference equality ----------------------------------------------------------


@st.composite
def stat_rows(draw):
    n = draw(st.integers(0, 6))
    count = n + draw(st.integers(0, 3))
    value = st.one_of(
        st.sampled_from([0.0, -0.0, 1.0, 2.0, 4.0]),
        st.floats(-1e3, 1e3, allow_nan=False),
    )
    return count, n, draw(value), draw(value)


@PROPERTY
@given(
    rows=st.lists(stat_rows(), max_size=12),
    dataset=stat_rows(),
    n_rows=st.integers(0, 20),
)
def test_subgroup_columns_match_scalar_statistics(rows, dataset, n_rows):
    """Every branch: n = 0 / 1, negative variance, pooled == 0 (t = 0
    or inf), a degenerate dataset, and ±0.0."""
    g = OutcomeStats(*dataset)
    arrays = [
        np.array([r[j] for r in rows], dtype=dtype)
        for j, dtype in enumerate((np.int64, np.int64, np.float64, np.float64))
    ]
    support, mean, delta, t = subgroup_columns(*arrays, g, n_rows)
    for i, row in enumerate(rows):
        s = OutcomeStats(*row)
        want = (
            row[0] / n_rows if n_rows else 0.0, s.mean, s.mean - g.mean,
            welch_t(s, g),
        )
        got = (support[i], mean[i], delta[i], t[i])
        assert all(same_float(float(x), y) for x, y in zip(got, want)), (
            row, dataset, got, want,
        )


def test_zero_variance_branches_give_zero_and_inf():
    g = OutcomeStats(4, 4, 4.0, 4.0)  # constant 1.0: variance 0
    rows = [(2, 2, 2.0, 2.0), (2, 2, 0.0, 0.0), (3, 1, 1.0, 1.0)]
    arrays = [np.array(col) for col in zip(*rows)]
    _, _, _, t = subgroup_columns(*arrays, g, 4)
    assert t[0] == 0.0 and math.isinf(t[1]) and math.isnan(t[2])


@PROPERTY
@given(universe=universes(), support=SUPPORTS)
def test_result_set_matches_scalar_reference(universe, support):
    mined = mine(universe, support)
    got = results_from_mined(universe, mined, 0.0)
    want = reference_results(universe, mined)
    assert same_results(got, want)
    assert got.global_stats == universe.global_stats()
    # A list of MinedItemset goes through the same path, and the
    # Apriori oracle's (level-ordered) list gives the same results.
    assert same_results(results_from_mined(universe, list(mined), 0.0), want)
    oracle = mine_apriori(universe, support)
    assert same_results(results_from_mined(universe, oracle, 0.0), want)


@PROPERTY
@given(
    universe=universes(),
    support=SUPPORTS,
    k=st.integers(0, 12),
    min_t=st.sampled_from([0.0, -1.0, 0.5, 2.0]),
    min_length=st.integers(0, 3),
)
def test_top_k_matches_stable_sorted_reference(
    universe, support, k, min_t, min_length
):
    mined = mine(universe, support)
    got = results_from_mined(universe, mined, 0.0)
    want = reference_results(universe, mined)
    for by in BY:
        assert same_results(
            got.top_k(k, by=by, min_t=min_t, min_length=min_length),
            reference_top_k(want, k, by, min_t, min_length),
        ), by
    best = reference_top_k(want, 1, "abs_divergence", min_t, 0)
    expect = abs(best[0].divergence) if best else 0.0
    assert same_float(got.max_divergence(min_t=min_t), expect)
    signed = reference_top_k(want, 1, "divergence", 0.0, 0)
    assert same_float(
        got.max_divergence(signed=True),
        signed[0].divergence if signed else 0.0,
    )


@PROPERTY
@given(
    universe=universes(),
    support=SUPPORTS,
    higher=st.sampled_from([0.05, 0.2, 0.5, 1.0]),
)
def test_at_support_matches_scalar_filter(universe, support, higher):
    mined = mine(universe, support)
    got = results_from_mined(universe, mined, 0.0).at_support(higher)
    want = [
        r for r in reference_results(universe, mined) if r.support >= higher
    ]
    assert same_results(got, want)
    assert same_results(got.top_k(5), reference_top_k(want, 5, BY[0], 0.0, 0))


def test_constructor_and_columnar_paths_agree(rng):
    table, items, o = _table(rng, 300, boolean=False)
    universe = EncodedUniverse.from_table(table, items, o)
    columnar = results_from_mined(universe, mine(universe, 0.05), 0.0)
    objects = ResultSet(list(columnar), columnar.global_stats)
    for by in BY:
        assert same_results(
            objects.top_k(20, by=by, min_t=1.0), columnar.top_k(20, by=by, min_t=1.0)
        )
    assert same_result_sets(objects.at_support(0.2), columnar.at_support(0.2))
    target = columnar[len(columnar) // 2]
    assert objects.find(target.itemset) == columnar.find(target.itemset) == target
    assert objects.itemsets() == columnar.itemsets()
    assert same_results(columnar[1:4], list(columnar)[1:4])
    assert same_result(columnar[-1], list(columnar)[-1])


def test_filtered_by_mask_and_by_predicate_agree(rng):
    table, items, o = _table(rng, 200, boolean=True)
    universe = EncodedUniverse.from_table(table, items, o)
    result = results_from_mined(universe, mine(universe, 0.05), 1.25)
    by_mask = result.filtered(np.array([r.divergence > 0 for r in result]))
    by_call = result.filtered(lambda r: r.divergence > 0)
    assert same_result_sets(by_mask, by_call)
    assert by_mask.elapsed_seconds == 1.25
    with pytest.raises(ValueError):
        result.filtered(np.ones(len(result) + 1, dtype=bool))


def test_merged_keeps_first_occurrences_in_order(rng):
    table, items, o = _table(rng, 200, boolean=True)
    universe = EncodedUniverse.from_table(table, items, o)
    result = results_from_mined(universe, mine(universe, 0.05), 1.0)
    low = result.filtered(result._support < 0.3)
    high = result.filtered(result._support >= 0.2)
    merged = low.merged(high)
    seen = {}
    for r in list(low) + list(high):
        seen.setdefault(r.itemset, r)
    assert same_results(merged, list(seen.values()))
    # Across item vocabularies: a constructor-built set merges too.
    rebuilt = ResultSet(list(high), high.global_stats)
    assert same_results(low.merged(rebuilt), list(seen.values()))
    assert merged.elapsed_seconds == 2.0


# -- invariance of the container ---------------------------------------------


def _table(rng, n, boolean):
    x = rng.choice(["a", "b", "c"], n)
    y = rng.choice(["p", "q"], n)
    z = rng.choice(["u", "v", "w", "s"], n)
    table = Table({"x": x, "y": y, "z": z})
    items = [
        CategoricalItem(col, v)
        for col, vals in (("x", "abc"), ("y", "pq"), ("z", "uvws"))
        for v in vals
    ]
    if boolean:
        o = (rng.uniform(size=n) < np.where(x == "a", 0.6, 0.2)).astype(float)
    else:
        o = rng.normal(np.where(z == "u", 2.0, 0.0), 1.0)
    o[rng.uniform(size=n) < 0.1] = np.nan
    return table, items, o


def _same_columns(a: MinedColumns, b: MinedColumns) -> bool:
    return (
        isinstance(a, MinedColumns)
        and isinstance(b, MinedColumns)
        and a.ids.shape == b.ids.shape
        and all(
            np.array_equal(getattr(a, f), getattr(b, f))
            for f in ("ids", "count", "n", "total", "total_sq")
        )
    )


@pytest.mark.parametrize("boolean", [True, False])
@pytest.mark.parametrize("polarity", [False, True])
def test_container_identical_across_n_jobs(rng, boolean, polarity):
    table, items, o = _table(rng, 400, boolean)
    universe = EncodedUniverse.from_table(table, items, o)
    if polarity:
        runs = [
            mine_with_polarity(
                universe, 0.02, polarize_attributes=["x", "z"], n_jobs=n_jobs,
            )
            for n_jobs in (1, 2)
        ]
    else:
        runs = [
            mine(universe, 0.02, n_jobs=n_jobs) for n_jobs in (1, 2)
        ]
    assert _same_columns(*runs)
    assert runs[0] == list(runs[1])  # the list view agrees too


def test_polarity_container_is_a_subset_with_identical_stats(rng):
    table, items, o = _table(rng, 400, boolean=True)
    universe = EncodedUniverse.from_table(table, items, o)
    full = {m.ids: m.stats for m in mine(universe, 0.02)}
    pruned = mine_with_polarity(
        universe, 0.02, polarize_attributes=["x", "z"]
    )
    assert 0 < len(pruned) < len(full)
    assert all(full[m.ids] == m.stats for m in pruned)
    # Deduplicated: every id row appears once.
    assert len({m.ids for m in pruned}) == len(pruned)


@pytest.mark.parametrize("n_jobs", [1, 2])
def test_warm_session_sweep_matches_cold_runs(pocket_data, n_jobs):
    table, errors = pocket_data
    supports = [0.05, 0.1, 0.2]
    cfg = ExploreConfig(n_jobs=n_jobs)
    with ExploreSession(table, errors) as session:
        sweep = session.sweep("min_support", supports, cfg)
        mined = session._mined  # the cache holds the container
        assert all(isinstance(m, MinedColumns) for _, m in mined.values())
    for point, s in zip(sweep, supports):
        cold = HDivExplorer(cfg.replace(min_support=s)).explore(table, errors)
        assert same_result_sets(point.result, cold)


@PROPERTY
@given(
    seed=st.integers(0, 2**16),
    kind=st.sampled_from(["boolean", "ints"]),
    polarity=st.booleans(),
)
def test_result_set_invariant_under_row_permutation(seed, kind, polarity):
    """Outcomes with exact sums (0/1 or small integers), so every float
    is order-independent and the results must match bit for bit."""
    rng = np.random.default_rng(seed)
    n = 240
    x = rng.uniform(0, 10, n)
    c = rng.choice(["a", "b", "c"], n)
    if kind == "boolean":
        o = (rng.uniform(size=n) < np.where(x > 6, 0.5, 0.1)).astype(float)
    else:
        o = rng.integers(-2, 3, size=n).astype(float) + (x > 6)
    o[rng.uniform(size=n) < 0.1] = np.nan
    table = Table({"x": x, "c": c})
    perm = rng.permutation(n)
    cfg = ExploreConfig(
        min_support=0.05, tree_support=0.2, polarity=polarity
    )
    before = HDivExplorer(cfg).explore(table, o)
    after = HDivExplorer(cfg).explore(table.take(perm), o[perm])
    assert len(before) > 0
    assert same_result_sets(before, after)
