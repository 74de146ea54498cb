"""Apriori (Agrawal & Srikant, VLDB'94): the reference enumerator.

A plain levelwise miner over boolean row masks, kept as the oracle the
bitset engine is tested against. It shares no kernel with the engine:
covers are ``numpy`` boolean masks, counts are ``count_nonzero`` and
statistics come from :meth:`EncodedUniverse.stats_of_mask`.
:func:`repro.core.mining.transactions.mine` never calls it.

Levelwise candidate generation with two additions:

- at most one item per attribute in any candidate (this both respects
  the itemset definition and excludes ancestor/descendant pairs in
  generalized universes, where items of the same attribute overlap);
- the outcome sufficient statistics of every frequent itemset are
  computed from its support mask during the counting step, so the
  divergence comes out of the same pass (Algorithm 1).
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.mining.transactions import EncodedUniverse, MinedItemset


def mine_apriori(
    universe: EncodedUniverse,
    min_support: float,
    max_length: int | None = None,
) -> list[MinedItemset]:
    """Mine all frequent itemsets levelwise, in level order.

    See :func:`repro.core.mining.transactions.mine` for parameters.
    """
    if not 0.0 < min_support <= 1.0:
        raise ValueError("min_support must be in (0, 1]")
    min_count = max(1, math.ceil(min_support * universe.n_rows))
    attr = universe.attribute_of
    results: list[MinedItemset] = []

    # Level 1: frequent single items, with their masks retained.
    frontier: list[tuple[tuple[int, ...], np.ndarray]] = []
    for i in range(universe.n_items()):
        mask = universe.masks[i]
        if np.count_nonzero(mask) >= min_count:
            frontier.append(((i,), mask))
            results.append(
                MinedItemset(frozenset((i,)), universe.stats_of_mask(mask))
            )

    length = 1
    frequent_prev = {ids for ids, _ in frontier}
    while frontier and (max_length is None or length < max_length):
        frontier.sort(key=lambda e: e[0])
        next_frontier: list[tuple[tuple[int, ...], np.ndarray]] = []
        next_frequent: set[tuple[int, ...]] = set()
        for a in range(len(frontier)):
            ids_a, mask_a = frontier[a]
            prefix = ids_a[:-1]
            for b in range(a + 1, len(frontier)):
                ids_b, mask_b = frontier[b]
                if ids_b[:-1] != prefix:
                    break  # sorted order: no more shared prefixes
                i, j = ids_a[-1], ids_b[-1]
                if attr[i] == attr[j]:
                    continue
                candidate = ids_a + (j,)
                if not _all_subsets_frequent(candidate, frequent_prev):
                    continue
                mask = mask_a & mask_b
                if np.count_nonzero(mask) < min_count:
                    continue
                next_frontier.append((candidate, mask))
                next_frequent.add(candidate)
                results.append(
                    MinedItemset(frozenset(candidate), universe.stats_of_mask(mask))
                )
        frontier = next_frontier
        frequent_prev = next_frequent
        length += 1
    return results


def _all_subsets_frequent(
    candidate: tuple[int, ...], frequent_prev: set[tuple[int, ...]]
) -> bool:
    """Apriori pruning: every (k-1)-subset of the candidate is frequent.

    The two subsets obtained by dropping one of the last two elements
    are the generators themselves, so only the remaining ones need
    checking; checking all is simpler and still O(k).
    """
    if len(candidate) <= 2:
        return True
    for drop in range(len(candidate) - 2):
        subset = candidate[:drop] + candidate[drop + 1 :]
        if subset not in frequent_prev:
            return False
    return True
