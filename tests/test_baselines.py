"""Tests for the Slice Finder and SliceLine baselines."""

import math

import numpy as np
import pytest

from repro.baselines import (
    SliceFinder,
    SliceFinderResult,
    SliceLine,
    SliceLineResult,
)
from repro.baselines.slicefinder import effect_size
from repro.core.items import CategoricalItem, IntervalItem
from repro.tabular import Table


@pytest.fixture
def sliced_data(rng):
    """Errors concentrated where x>5 and cat='bad'."""
    n = 2000
    x = rng.uniform(0, 10, n)
    cat = rng.choice(["good", "bad"], n)
    p = np.where((x > 5) & (cat == "bad"), 0.6, 0.05)
    errors = (rng.uniform(size=n) < p).astype(float)
    table = Table({"x": x, "cat": cat})
    items = [
        IntervalItem("x", high=5),
        IntervalItem("x", low=5),
        CategoricalItem("cat", "good"),
        CategoricalItem("cat", "bad"),
    ]
    return table, errors, items


class TestEffectSize:
    def test_positive_when_slice_worse(self, rng):
        worse = rng.uniform(size=100) < 0.8
        better = rng.uniform(size=100) < 0.1
        phi = effect_size(worse.astype(float), better.astype(float))
        assert phi > 1.0

    def test_zero_same_distribution(self):
        a = np.array([1.0, 0.0] * 50)
        assert abs(effect_size(a, a)) < 1e-12

    def test_nan_for_tiny_groups(self):
        assert math.isnan(effect_size(np.array([1.0]), np.zeros(10)))

    def test_inf_zero_variance_diff_means(self):
        assert math.isinf(effect_size(np.ones(5), np.zeros(5)))


class TestSliceFinder:
    def test_finds_problematic_slice(self, sliced_data):
        table, errors, items = sliced_data
        found = SliceFinder(effect_size_threshold=0.4, k=5).find(
            table, errors, items
        )
        assert found
        assert all(isinstance(r, SliceFinderResult) for r in found)
        best = max(found, key=lambda r: r.effect_size)
        assert best.effect_size >= 0.4
        # The slice involves the planted region.
        attrs = best.itemset.attributes
        assert "x" in attrs or "cat" in attrs

    def test_results_sorted_by_size(self, sliced_data):
        table, errors, items = sliced_data
        found = SliceFinder(effect_size_threshold=0.2, k=10).find(
            table, errors, items
        )
        sizes = [r.size for r in found]
        assert sizes == sorted(sizes, reverse=True)

    def test_high_threshold_gives_smaller_slices(self, sliced_data):
        table, errors, items = sliced_data
        low = SliceFinder(effect_size_threshold=0.3, k=3).find(
            table, errors, items
        )
        high = SliceFinder(effect_size_threshold=1.2, k=3).find(
            table, errors, items
        )
        if low and high:
            assert max(r.size for r in high) <= max(r.size for r in low)

    def test_max_level_respected(self, sliced_data):
        table, errors, items = sliced_data
        found = SliceFinder(
            effect_size_threshold=0.0, k=100, max_length=1
        ).find(table, errors, items)
        assert all(len(r.itemset) == 1 for r in found)

    def test_k_limits_results(self, sliced_data):
        table, errors, items = sliced_data
        found = SliceFinder(effect_size_threshold=0.0, k=2).find(
            table, errors, items
        )
        assert len(found) <= 2

    def test_impossible_threshold_empty(self, sliced_data):
        table, errors, items = sliced_data
        found = SliceFinder(effect_size_threshold=50.0, k=3).find(
            table, errors, items
        )
        assert found == []

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            SliceFinder(k=0)
        with pytest.raises(ValueError):
            SliceFinder(max_length=0)

    def test_no_attribute_repeats(self, sliced_data):
        table, errors, items = sliced_data
        found = SliceFinder(effect_size_threshold=0.0, k=50).find(
            table, errors, items
        )
        for r in found:
            attrs = [it.attribute for it in r.itemset]
            assert len(set(attrs)) == len(attrs)


class TestSliceLine:
    def test_finds_planted_slice(self, sliced_data):
        table, errors, items = sliced_data
        found = SliceLine(alpha=0.95, k=3, min_support=0.05).find(
            table, errors, items
        )
        assert found
        assert all(isinstance(r, SliceLineResult) for r in found)
        best = found[0]
        assert best.avg_error > errors.mean()

    def test_scores_sorted_descending(self, sliced_data):
        table, errors, items = sliced_data
        found = SliceLine(alpha=0.9, k=10, min_support=0.05).find(
            table, errors, items
        )
        scores = [r.score for r in found]
        assert scores == sorted(scores, reverse=True)

    def test_min_support_respected(self, sliced_data):
        table, errors, items = sliced_data
        s = 0.3
        found = SliceLine(alpha=0.95, k=50, min_support=s).find(
            table, errors, items
        )
        assert all(r.support >= s for r in found)

    def test_alpha_one_ignores_size(self, sliced_data):
        table, errors, items = sliced_data
        found = SliceLine(alpha=1.0, k=1, min_support=0.05).find(
            table, errors, items
        )
        # With α=1 the top slice maximizes average error alone.
        best_err = found[0].avg_error
        others = SliceLine(alpha=1.0, k=100, min_support=0.05).find(
            table, errors, items
        )
        assert best_err == pytest.approx(max(r.avg_error for r in others))

    def test_small_alpha_prefers_big_slices(self, sliced_data):
        table, errors, items = sliced_data
        greedy = SliceLine(alpha=0.99, k=1, min_support=0.05).find(
            table, errors, items
        )
        cautious = SliceLine(alpha=0.05, k=1, min_support=0.05).find(
            table, errors, items
        )
        assert cautious[0].size >= greedy[0].size

    def test_max_level(self, sliced_data):
        table, errors, items = sliced_data
        found = SliceLine(
            alpha=0.9, k=100, min_support=0.01, max_length=1
        ).find(table, errors, items)
        assert all(len(r.itemset) == 1 for r in found)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            SliceLine(alpha=0.0)
        with pytest.raises(ValueError):
            SliceLine(min_support=0.0)

    def test_matches_divexplorer_best_slice(self, sliced_data):
        """§VI-G: SliceLine's best slice = base DivExplorer's best."""
        from repro.core.explorer import DivExplorer

        table, errors, items = sliced_data
        sl = SliceLine(alpha=0.99, k=1, min_support=0.05).find(
            table, errors, items
        )
        interval_items = {
            "x": [it for it in items if it.attribute == "x"]
        }
        dx = DivExplorer(0.05).explore(
            table, errors, continuous_items=interval_items
        )
        best_dx = dx.top_k(1, by="divergence")[0]
        assert sl[0].itemset == best_dx.itemset
