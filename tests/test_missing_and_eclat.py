"""Tests for MissingItem, missing-item universes, the mining engine
against its Apriori oracle, and the error-difference outcome."""

import numpy as np
import pytest

from repro.core.explorer import DivExplorer
from repro.core.hexplorer import HDivExplorer
from repro.core.items import CategoricalItem, Itemset, MissingItem
from repro.core.mining import mine, mine_apriori
from repro.core.outcomes import error_difference
from repro.core.serialize import item_from_dict, item_to_dict
from repro.tabular import ColumnKind, Schema, Table


class TestMissingItem:
    def test_mask_matches_missing(self):
        table = Table({"x": [1.0, None, 3.0], "c": ["a", "b", None]})
        assert list(MissingItem("x").mask(table)) == [False, True, False]
        assert list(MissingItem("c").mask(table)) == [False, False, True]

    def test_equality_and_str(self):
        assert MissingItem("x") == MissingItem("x")
        assert MissingItem("x") != MissingItem("y")
        assert str(MissingItem("x")) == "x=⊥"

    def test_covers_only_self(self):
        assert MissingItem("x").covers(MissingItem("x"))
        assert not MissingItem("x").covers(CategoricalItem("x", "a"))

    def test_serialization_roundtrip(self):
        item = MissingItem("income")
        assert item_from_dict(item_to_dict(item)) == item

    def test_itemset_with_missing_item(self):
        table = Table({"x": [1.0, None, None], "c": ["a", "a", "b"]})
        itemset = Itemset([MissingItem("x"), CategoricalItem("c", "a")])
        assert list(itemset.mask(table)) == [False, True, False]


class TestMissingUniverse:
    @pytest.fixture
    def dirty_data(self, rng):
        """Rows with missing x err much more often."""
        n = 2000
        x = rng.uniform(0, 1, n)
        missing = rng.uniform(size=n) < 0.2
        x[missing] = np.nan
        c = rng.choice(["a", "b"], n)
        o = (rng.uniform(size=n) < np.where(missing, 0.5, 0.05)).astype(float)
        return Table({"x": x, "c": c}), o, missing

    def test_explorer_finds_missingness_subgroup(self, dirty_data):
        table, o, _ = dirty_data
        result = HDivExplorer(
            0.05, tree_support=0.2, include_missing_items=True
        ).explore(table, o)
        best = result.top_k(1)[0]
        assert MissingItem("x") in best.itemset
        assert best.divergence > 0.2

    def test_without_flag_missingness_invisible(self, dirty_data):
        table, o, _ = dirty_data
        result = HDivExplorer(0.05, tree_support=0.2).explore(table, o)
        for r in result:
            assert MissingItem("x") not in r.itemset

    def test_base_explorer_missing_flag(self, dirty_data):
        """⊥ items are added for *covered* attributes only."""
        from repro.core.discretize import TreeDiscretizer

        table, o, _ = dirty_data
        trees = TreeDiscretizer(0.2).fit_all(table, o)
        result = DivExplorer(
            0.05, include_missing_items=True
        ).explore(
            table, o,
            continuous_items={a: t.leaf_items() for a, t in trees.items()},
        )
        found = [r for r in result if MissingItem("x") in r.itemset]
        assert found

    def test_base_explorer_uncovered_attribute_gets_no_missing_item(
        self, dirty_data
    ):
        table, o, _ = dirty_data
        result = DivExplorer(
            0.05, include_missing_items=True
        ).explore(table, o)  # x not covered (no continuous items)
        assert all(MissingItem("x") not in r.itemset for r in result)


class TestMinerAgainstOracle:
    """The bitset engine, serial and sharded, against the Apriori oracle
    on missing-item-free pocket universes (the miner once had an Eclat
    twin tested here)."""

    @staticmethod
    def _same(universe, support, **kwargs):
        oracle = {m.ids: m.stats for m in mine_apriori(universe, support, **kwargs)}
        for n_jobs in (1, 2):
            got = mine(universe, support, n_jobs=n_jobs, **kwargs)
            assert {m.ids: m.stats for m in got} == oracle
            assert len(got) == len(oracle)

    def test_matches_oracle_flat(self, pocket_data):
        from repro.core.discretize import TreeDiscretizer
        from repro.core.mining import base_universe

        table, errors = pocket_data
        trees = TreeDiscretizer(0.2).fit_all(table, errors)
        universe = base_universe(
            table, errors, {a: t.leaf_items() for a, t in trees.items()}
        )
        self._same(universe, 0.1)

    def test_matches_oracle_generalized(self, pocket_data):
        from repro.core.discretize import TreeDiscretizer
        from repro.core.mining import generalized_universe

        table, errors = pocket_data
        gamma = TreeDiscretizer(0.2).hierarchy_set(table, errors)
        universe = generalized_universe(table, errors, gamma)
        self._same(universe, 0.15)

    def test_max_length(self, pocket_data):
        from repro.core.discretize import TreeDiscretizer
        from repro.core.mining import base_universe

        table, errors = pocket_data
        trees = TreeDiscretizer(0.25).fit_all(table, errors)
        universe = base_universe(
            table, errors, {a: t.leaf_items() for a, t in trees.items()}
        )
        mined = mine(universe, 0.1, max_length=2)
        assert max(len(m.ids) for m in mined) == 2
        self._same(universe, 0.1, max_length=2)

    def test_categorical_only(self, pocket_data):
        from repro.core.mining import base_universe

        table, errors = pocket_data
        self._same(base_universe(table, errors, {}), 0.1)

    def test_invalid_support(self, pocket_data):
        from repro.core.mining import base_universe

        table, errors = pocket_data
        universe = base_universe(table, errors, {})
        with pytest.raises(ValueError):
            mine(universe, 0.0)
        with pytest.raises(ValueError):
            mine_apriori(universe, 0.0)


class TestErrorDifference:
    def test_values(self):
        table = Table(
            {
                "y": ["1", "1", "0", "0"],
                "a": ["0", "1", "0", "1"],  # errs on rows 0, 3
                "b": ["1", "0", "1", "1"],  # errs on rows 1, 2, 3
            }
        )
        out = error_difference("y", "a", "b").values(table)
        assert list(out) == [1.0, -1.0, -1.0, 0.0]

    def test_explorer_finds_regression_subgroup(self, rng):
        """Model A regresses only on cat=b rows."""
        n = 2000
        cat = rng.choice(["a", "b"], n)
        y = rng.choice(["0", "1"], n)
        pred_b = y.copy()  # model B is perfect
        pred_a = y.copy()
        regress = (cat == "b") & (rng.uniform(size=n) < 0.4)
        pred_a[regress] = np.where(y[regress] == "1", "0", "1")
        table = Table({"cat": cat, "y": y, "a": pred_a, "b": pred_b})
        out = error_difference("y", "a", "b").values(table)
        result = DivExplorer(0.1).explore(
            table.project(["cat"]), out
        )
        best = result.top_k(1, by="divergence")[0]
        assert best.itemset == Itemset([CategoricalItem("cat", "b")])
