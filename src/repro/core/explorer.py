"""DivExplorer: non-hierarchical (base) divergence exploration (§III-C).

Given a set of flat items and a support threshold ``s``, computes the
divergence of every frequent itemset, accumulating the outcome
statistics inside the frequent-pattern mining pass.
"""

from __future__ import annotations

import time
from functools import partial
from typing import Callable, Iterable

import numpy as np

from repro.core.config import ExploreConfig, resolve_config
from repro.core.items import Item
from repro.core.mining.generalized import base_universe
from repro.core.mining.transactions import (
    EncodedUniverse,
    MinedColumns,
    MinedItemset,
    mine,
)
from repro.core.outcomes import Outcome, coerce_outcome, frozen_outcome
from repro.core.polarity import mine_with_polarity
from repro.core.results import ResultSet
from repro.obs.collector import AnyCollector
from repro.tabular import Table


def results_from_mined(
    universe: EncodedUniverse,
    mined: MinedColumns | Iterable[MinedItemset],
    elapsed_seconds: float,
    obs: AnyCollector | None = None,
) -> ResultSet:
    """Convert mined id-itemsets into a ranked :class:`ResultSet`.

    The results are put in canonical order (sorted id tuples), which
    makes the ResultSet independent of the miner's emission order and
    stable under support filtering — a warm `ExploreSession` replay and
    a cold run produce bit-identical sets, in the same order. Statistics
    are computed as columns; no per-subgroup object is built.
    """
    cols = MinedColumns.from_itemsets(mined).canonical()
    return ResultSet._from_stats(
        universe.items, cols.ids, (cols.count, cols.n, cols.total, cols.total_sq),
        universe.global_stats(), universe.n_rows, elapsed_seconds, obs=obs,
    )


def mine_and_materialize(
    universe: EncodedUniverse,
    mine_call: Callable[[], MinedColumns],
    polarity: bool,
    obs: AnyCollector,
) -> ResultSet:
    """Run ``mine_call`` under a ``mine`` span, then build the results
    under a ``materialize`` span.

    ``ResultSet.elapsed_seconds`` covers both: the time from the start
    of mining to a ranked result a caller can query.
    """
    start = time.perf_counter()
    with obs.span("mine", polarity=polarity):
        mined = mine_call()
    with obs.span("materialize", subgroups=len(mined)):
        result = results_from_mined(universe, mined, 0.0, obs=obs)
    result.elapsed_seconds = time.perf_counter() - start
    return result


class DivExplorer:
    """Base (non-hierarchical) subgroup explorer.

    Parameters
    ----------
    config:
        An :class:`~repro.core.config.ExploreConfig` carrying the
        shared exploration knobs, or a bare number read as
        ``min_support`` (the historical positional form). Individual
        keyword arguments (``min_support=``, ``max_length=``,
        ``polarity=``, ``n_jobs=``) override it.
    include_missing_items:
        Add ``A = ⊥`` items for attributes with missing values (not
        part of the shared config).
    """

    def __init__(
        self,
        config: ExploreConfig | float | None = None,
        *,
        include_missing_items: bool = False,
        **kwargs,
    ):
        cfg = resolve_config(config, kwargs, owner="DivExplorer")
        if kwargs:
            raise TypeError(
                f"DivExplorer got unexpected keyword arguments "
                f"{sorted(kwargs)}"
            )
        self.config = cfg
        self.min_support = cfg.min_support
        self.max_length = cfg.max_length
        self.polarity = cfg.polarity
        self.n_jobs = cfg.n_jobs
        self.obs = cfg.obs
        self.include_missing_items = include_missing_items

    def explore(
        self,
        table: Table,
        outcome: Outcome | np.ndarray,
        continuous_items: dict[str, Iterable[Item]] | None = None,
        categorical_attributes: Iterable[str] | None = None,
        extra_items: Iterable[Item] = (),
    ) -> ResultSet:
        """Explore all frequent itemsets of a flat item universe.

        Parameters
        ----------
        table:
            The dataset.
        outcome:
            Any form :func:`~repro.core.outcomes.coerce_outcome`
            accepts: an :class:`Outcome`, a column name, a
            ``(y_true, y_pred)`` pair of column names or arrays, or a
            precomputed per-row array.
        continuous_items:
            Discretization items per continuous attribute (tree leaves,
            quantile bins, manual bins, ...). Continuous attributes
            not mentioned are ignored.
        categorical_attributes:
            Categorical attributes to include with one item per value;
            defaults to all categorical columns.
        extra_items:
            Additional items appended verbatim.


        Raises
        ------
        ValueError
            When the outcome has no defined value or an infinite one
            (see :func:`~repro.core.outcomes.frozen_outcome`), before
            any discretization or mining.
        """
        universe = base_universe(
            table,
            frozen_outcome(coerce_outcome(outcome), table),
            continuous_items or {},
            categorical_attributes,
            extra_items,
            include_missing_items=self.include_missing_items,
            obs=self.obs,
        )
        return self.explore_universe(universe)

    def explore_universe(self, universe: EncodedUniverse) -> ResultSet:
        """Explore a pre-encoded universe (shared with H-DivExplorer).

        The wall time of mining plus result materialization lands on
        ``ResultSet.elapsed_seconds`` whether or not observability is
        on; with an enabled collector they run inside ``mine`` (with
        the ``bitset`` span nested under it) and ``materialize``
        spans, and the collector travels on the returned
        :class:`ResultSet`.
        """
        obs = self.obs
        # Deadline coverage starts at mining; encoding (in explore())
        # has no cooperative checkpoints.
        obs.arm_deadline(self.config.deadline_s)
        mine_fn = mine_with_polarity if self.polarity else mine
        return mine_and_materialize(
            universe,
            partial(
                mine_fn, universe, self.min_support,
                max_length=self.max_length, n_jobs=self.n_jobs, obs=obs,
            ),
            self.polarity,
            obs,
        )
