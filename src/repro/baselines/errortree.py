"""Error-tree baseline (tree-based subgroup identification).

Prior work identifies problematic subgroups by fitting a single tree to
the per-instance loss and reading off high-loss leaves (Slice Finder's
decision-tree variant; the Error Analysis dashboard of the Responsible
AI Toolbox). The paper contrasts this with lattice search: tree leaves
are *non-overlapping*, so each instance belongs to exactly one reported
subgroup, and granularity per attribute is uncontrolled.

This wraps :class:`repro.core.discretize.CombinedTreeDiscretizer` into
that baseline: fit the combined tree on the loss, rank the leaves by
loss divergence.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.config import ExploreConfig, resolve_config
from repro.core.discretize.combined import CombinedTreeDiscretizer
from repro.core.items import Itemset
from repro.core.outcomes import Outcome, coerce_outcome
from repro.tabular import Table


@dataclass(frozen=True)
class ErrorTreeResult:
    """A leaf subgroup of the error tree."""

    itemset: Itemset
    support: float
    size: int
    mean_loss: float
    divergence: float


class ErrorTree:
    """Tree-based subgroup finder over continuous attributes.

    Parameters
    ----------
    config:
        An :class:`~repro.core.config.ExploreConfig`; ErrorTree uses
        its ``min_support`` and ``criterion``. Keyword arguments
        override it.
    min_support:
        Minimum fraction of instances per leaf.
    max_depth:
        Optional depth cap.
    criterion:
        Split gain, as in the discretizers.
    """

    def __init__(
        self,
        config: ExploreConfig | float | None = None,
        *,
        max_depth: int | None = None,
        **kwargs,
    ):
        cfg = resolve_config(config, kwargs, owner="ErrorTree")
        if kwargs:
            raise TypeError(
                f"ErrorTree got unexpected keyword arguments {sorted(kwargs)}"
            )
        self.config = cfg
        self.min_support = cfg.min_support
        self.criterion = cfg.criterion
        self.max_depth = max_depth
        self.obs = cfg.obs
        self._discretizer = CombinedTreeDiscretizer(
            min_support=cfg.min_support,
            criterion=cfg.criterion,
            max_depth=max_depth,
        )

    def find(
        self,
        table: Table,
        outcome: Outcome | np.ndarray,
        attributes: list[str] | None = None,
        k: int = 10,
    ) -> list[ErrorTreeResult]:
        """Fit the tree and return the top-k divergent leaves.

        Leaves are ranked by |divergence| of the loss. The returned
        subgroups are non-overlapping by construction. With an enabled
        collector on the config the fit runs inside an ``errortree``
        span.
        """
        outcomes = coerce_outcome(outcome).values(table)
        global_mean = float(np.nanmean(outcomes))
        with self.obs.span("errortree", k=k) as span:
            root = self._discretizer.fit(table, outcomes, attributes)
            results = []
            for node in root.walk():
                if not node.is_leaf:
                    continue
                mean = node.stats.mean
                results.append(
                    ErrorTreeResult(
                        itemset=node.itemset(),
                        support=node.stats.count / table.n_rows,
                        size=node.stats.count,
                        mean_loss=mean,
                        divergence=mean - global_mean,
                    )
                )
            if self.obs.enabled:
                span.set(leaves=len(results))
        results.sort(key=lambda r: -abs(r.divergence))
        return results[:k]
