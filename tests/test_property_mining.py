"""Property-based tests: the mining engine on random universes.

The central invariants of DESIGN.md:
(4) bitset engine ≡ Apriori oracle ≡ brute force, including
    accumulated stats;
(3) generalized results ⊇ base results at equal support.
"""

from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.discretize import TreeDiscretizer
from repro.core.explorer import DivExplorer
from repro.core.hexplorer import HDivExplorer
from repro.core.items import CategoricalItem
from repro.core.mining import EncodedUniverse, mine, mine_apriori
from repro.tabular import Table


@st.composite
def random_universe(draw):
    """A random dataset encoded over random categorical items."""
    n_rows = draw(st.integers(10, 60))
    n_attrs = draw(st.integers(1, 4))
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    columns = {}
    items = []
    for a in range(n_attrs):
        k = int(rng.integers(2, 4))
        values = [f"v{j}" for j in range(k)]
        columns[f"a{a}"] = rng.choice(values, size=n_rows)
        items.extend(CategoricalItem(f"a{a}", v) for v in values)
    outcomes = rng.uniform(0, 1, n_rows)
    outcomes[rng.uniform(size=n_rows) < 0.15] = np.nan
    table = Table(columns)
    return EncodedUniverse.from_table(table, items, outcomes)


def brute_force(universe, min_support):
    n = universe.n_rows
    min_count = max(1, int(np.ceil(min_support * n)))
    out = {}
    for k in range(1, universe.n_items() + 1):
        for combo in combinations(range(universe.n_items()), k):
            attrs = [universe.attribute_of[i] for i in combo]
            if len(set(attrs)) != len(attrs):
                continue
            mask = np.ones(n, dtype=bool)
            for i in combo:
                mask &= universe.masks[i]
            if mask.sum() >= min_count:
                out[frozenset(combo)] = universe.stats_of_mask(mask)
    return out


@settings(max_examples=40, deadline=None)
@given(universe=random_universe(), support=st.sampled_from([0.1, 0.25, 0.5]))
def test_engine_and_oracle_match_brute_force(universe, support):
    expected = brute_force(universe, support)
    oracle = {m.ids: m.stats for m in mine_apriori(universe, support)}
    engine = {m.ids: m.stats for m in mine(universe, support)}
    # The engine reproduces the oracle bit for bit.
    assert engine == oracle
    assert set(oracle) == set(expected)
    for ids, stats in oracle.items():
        ref = expected[ids]
        assert stats.count == ref.count
        assert stats.n == ref.n
        assert stats.total == pytest.approx(ref.total)
        assert stats.total_sq == pytest.approx(ref.total_sq)


@st.composite
def pocket_table(draw):
    """Continuous data with an outcome depending on one attribute."""
    n_rows = draw(st.integers(60, 200))
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    x = rng.uniform(-3, 3, n_rows)
    y = rng.uniform(0, 1, n_rows)
    threshold = draw(st.floats(-1.5, 1.5))
    outcomes = (x > threshold).astype(float)
    return Table({"x": x, "y": y}), outcomes


@settings(max_examples=25, deadline=None)
@given(data=pocket_table(), support=st.sampled_from([0.1, 0.2]))
def test_hierarchical_superset_of_base(data, support):
    """Invariant 3: generalized exploration ⊇ base leaf exploration."""
    table, outcomes = data
    trees = TreeDiscretizer(0.25).fit_all(table, outcomes)
    leaves = {a: t.leaf_items() for a, t in trees.items()}
    base = DivExplorer(support).explore(
        table, outcomes, continuous_items=leaves
    )
    hier = HDivExplorer(support, tree_support=0.25).explore(table, outcomes)
    assert base.itemsets() <= hier.itemsets()
    assert hier.max_divergence() >= base.max_divergence() - 1e-12


@settings(max_examples=25, deadline=None)
@given(universe=random_universe())
def test_support_monotone_under_threshold(universe):
    loose = {m.ids: m.stats.count for m in mine(universe, 0.1)}
    tight = {m.ids for m in mine(universe, 0.4)}
    assert tight <= set(loose)
    min_count = int(np.ceil(0.4 * universe.n_rows))
    for ids in tight:
        assert loose[ids] >= min_count


@settings(max_examples=25, deadline=None)
@given(universe=random_universe())
def test_polarity_results_subset(universe):
    """Invariant 6: polarity-pruned ⊆ complete results."""
    from repro.core.polarity import mine_with_polarity

    complete = {m.ids for m in mine(universe, 0.1)}
    pruned = {
        m.ids
        for m in mine_with_polarity(
            universe, 0.1, polarize_attributes=set(universe.attribute_of)
        )
    }
    assert pruned <= complete
