"""Slice Finder (Chung et al., ICDE'19) — lattice-search variant.

Finds the largest *problematic* slices: subgroups whose per-instance
loss distribution differs from their complement by at least a minimum
effect size. The search proceeds level-wise, expanding only
non-problematic slices (a problematic slice is reported, not refined),
and stops once ``k`` problematic slices are found.

Key behavioural contrast with DivExplorer exploited in Figure 6 of the
paper: Slice Finder has *no support control* — with a high effect-size
threshold it can return vanishingly small slices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.core.config import ExploreConfig, resolve_config
from repro.core.items import Item, Itemset
from repro.core.mining.transactions import EncodedUniverse
from repro.core.outcomes import Outcome, coerce_outcome
from repro.tabular import Table


@dataclass(frozen=True)
class SliceFinderResult:
    """A problematic slice: its effect size and size."""

    itemset: Itemset
    effect_size: float
    size: int
    support: float
    mean_loss: float


def effect_size(loss_slice: np.ndarray, loss_rest: np.ndarray) -> float:
    """Cohen-style effect size between slice and counterpart losses.

    ``φ = (μ_S − μ_S̄) / sqrt((σ²_S + σ²_S̄) / 2)``; NaN when either
    side has fewer than two elements, +inf on zero pooled variance with
    differing means.
    """
    if loss_slice.size < 2 or loss_rest.size < 2:
        return float("nan")
    mu_s = float(loss_slice.mean())
    mu_r = float(loss_rest.mean())
    pooled = (float(loss_slice.var(ddof=1)) + float(loss_rest.var(ddof=1))) / 2.0
    if pooled == 0.0:
        return 0.0 if mu_s == mu_r else math.inf
    return (mu_s - mu_r) / math.sqrt(pooled)


class SliceFinder:
    """Lattice-search Slice Finder.

    Parameters
    ----------
    config:
        An :class:`~repro.core.config.ExploreConfig`; Slice Finder uses
        its ``max_length`` (the original applies no support control, so
        ``min_support`` is ignored). Keyword arguments override it.
    effect_size_threshold:
        Minimum effect size for a slice to count as problematic
        (the original's default is 0.4).
    k:
        Target number of problematic slices. Reaching ``k`` stops the
        search only at the next level boundary — the level in progress
        is still evaluated in full, so more than ``k`` slices may be
        found — and the ``k`` *largest* (by size) of everything found
        are returned.
    max_length:
        Maximum slice predicate length (default 3).
    min_size:
        Optional minimum absolute slice size (the original applies no
        support control; keep 1 for faithful behaviour).
    """

    def __init__(
        self,
        config: ExploreConfig | None = None,
        *,
        effect_size_threshold: float = 0.4,
        k: int = 10,
        min_size: int = 1,
        **kwargs,
    ):
        cfg = resolve_config(
            config, kwargs, defaults={"max_length": 3}, owner="SliceFinder"
        )
        if kwargs:
            raise TypeError(
                f"SliceFinder got unexpected keyword arguments "
                f"{sorted(kwargs)}"
            )
        if k < 1:
            raise ValueError("k must be positive")
        self.config = cfg
        self.effect_size_threshold = effect_size_threshold
        self.k = k
        self.max_level = cfg.max_length if cfg.max_length is not None else math.inf
        self.min_size = min_size
        self.obs = cfg.obs

    def find(
        self,
        table: Table,
        outcome: Outcome | np.ndarray,
        items: Iterable[Item],
    ) -> list[SliceFinderResult]:
        """Search for the top-k problematic slices.

        ``outcome`` provides the per-instance loss (⊥ rows are ignored
        in loss statistics but still count toward slice size). Returns
        problematic slices sorted by size, largest first. With an
        enabled collector on the config the search runs inside a
        ``slicefinder`` span.
        """
        with self.obs.span("slicefinder", k=self.k) as span:
            found = self._find(table, outcome, items)
            if self.obs.enabled:
                span.set(found=len(found))
        return found

    def _find(
        self,
        table: Table,
        outcome: Outcome | np.ndarray,
        items: Iterable[Item],
    ) -> list[SliceFinderResult]:
        universe = EncodedUniverse.from_table(
            table, list(items), coerce_outcome(outcome)
        )
        loss = universe.outcomes
        defined = ~np.isnan(loss)

        def evaluate(mask: np.ndarray) -> tuple[float, float]:
            inside = mask & defined
            outside = ~mask & defined
            phi = effect_size(loss[inside], loss[outside])
            mean_loss = float(loss[inside].mean()) if inside.any() else float("nan")
            return phi, mean_loss

        found: list[SliceFinderResult] = []
        # Level 1 candidates: all single items, largest slices first.
        frontier: list[tuple[tuple[int, ...], np.ndarray]] = []
        order = np.argsort(-universe.masks.sum(axis=1), kind="stable")
        for i in order:
            frontier.append(((int(i),), universe.masks[i]))

        level = 1
        while frontier and len(found) < self.k and level <= self.max_level:
            expandable: list[tuple[tuple[int, ...], np.ndarray]] = []
            for ids, mask in frontier:
                size = int(mask.sum())
                if size < self.min_size or size == 0:
                    continue
                phi, mean_loss = evaluate(mask)
                if not math.isnan(phi) and phi >= self.effect_size_threshold:
                    found.append(
                        SliceFinderResult(
                            itemset=Itemset(universe.items[j] for j in ids),
                            effect_size=phi,
                            size=size,
                            support=size / universe.n_rows,
                            mean_loss=mean_loss,
                        )
                    )
                else:
                    expandable.append((ids, mask))
            if len(found) >= self.k:
                break
            # Expand non-problematic slices by one item.
            next_frontier: list[tuple[tuple[int, ...], np.ndarray]] = []
            seen: set[tuple[int, ...]] = set()
            for ids, mask in expandable:
                used_attrs = {universe.attribute_of[j] for j in ids}
                for j in range(universe.n_items()):
                    if j <= ids[-1] or universe.attribute_of[j] in used_attrs:
                        continue
                    candidate = ids + (j,)
                    if candidate in seen:
                        continue
                    seen.add(candidate)
                    next_frontier.append((candidate, mask & universe.masks[j]))
            next_frontier.sort(key=lambda e: -int(e[1].sum()))
            frontier = next_frontier
            level += 1

        found.sort(key=lambda r: -r.size)
        return found[: self.k]
