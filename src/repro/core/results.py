"""Exploration results: ranked divergent subgroups.

A :class:`ResultSet` holds its subgroups as columns (struct-of-arrays)
and builds :class:`SubgroupResult` objects only when a caller asks for
them, so an exploration with hundreds of thousands of subgroups pays
for the handful it reports, not for every one it found.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

import numpy as np

from repro.core.divergence import OutcomeStats, subgroup_columns, welch_t
from repro.core.items import Item, Itemset
from repro.core.mining.transactions import first_rows, pad_rows, widen
from repro.obs.collector import AnyCollector, resolve_obs


@dataclass(frozen=True)
class SubgroupResult:
    """One explored subgroup with its accumulated statistics.

    Attributes
    ----------
    itemset:
        The pattern defining the subgroup.
    support:
        Fraction of dataset instances satisfying the pattern.
    count:
        Absolute number of instances satisfying the pattern.
    mean:
        Statistic value f(I) on the subgroup.
    divergence:
        Δf(I) = f(I) − f(D).
    t:
        Welch t-statistic of the divergence.
    """

    itemset: Itemset
    support: float
    count: int
    mean: float
    divergence: float
    t: float

    @classmethod
    def from_stats(
        cls,
        itemset: Itemset,
        stats: OutcomeStats,
        global_stats: OutcomeStats,
        n_rows: int,
    ) -> "SubgroupResult":
        return cls(
            itemset=itemset,
            support=stats.count / n_rows if n_rows else 0.0,
            count=stats.count,
            mean=stats.mean,
            divergence=stats.mean - global_stats.mean,
            t=welch_t(stats, global_stats),
        )

    @property
    def length(self) -> int:
        return len(self.itemset)

    def __str__(self) -> str:
        return (
            f"{self.itemset!s}  sup={self.support:.3f}  "
            f"Δ={self.divergence:+.3f}  t={self.t:.1f}"
        )


class ResultSet:
    """A collection of :class:`SubgroupResult` with ranking helpers.

    Stored as struct-of-arrays: one padded item-id matrix over an item
    vocabulary, plus support, count, mean, divergence, t and length
    columns. Ranking, filtering and merging work on the columns;
    :class:`SubgroupResult` and :class:`Itemset` objects are built
    lazily, when a caller iterates, indexes, or asks for the top-k.

    Parameters
    ----------
    results:
        The explored subgroups.
    global_stats:
        Whole-dataset outcome statistics (f(D) is ``global_stats.mean``).
    elapsed_seconds:
        Wall-clock exploration time, for the performance figures.
    obs:
        The observability collector of the producing exploration (the
        disabled singleton when observability was off). Lets
        :meth:`summary` surface phase timings and mining counters.
    """

    def __init__(
        self,
        results: Iterable[SubgroupResult],
        global_stats: OutcomeStats,
        elapsed_seconds: float = 0.0,
        obs: AnyCollector | None = None,
    ) -> None:
        rows = list(results)
        vocab: dict[Item, int] = {}
        id_rows = [
            sorted(vocab.setdefault(it, len(vocab)) for it in r.itemset)
            for r in rows
        ]
        self._set(
            list(vocab),
            pad_rows(id_rows),
            np.array([r.count for r in rows], dtype=np.int64),
            *(
                np.array([getattr(r, f) for r in rows], dtype=np.float64)
                for f in ("support", "mean", "divergence", "t")
            ),
            global_stats,
            elapsed_seconds,
            obs,
        )
        self._cache = rows

    def _set(
        self,
        items: list[Item],
        ids: np.ndarray,
        count: np.ndarray,
        support: np.ndarray,
        mean: np.ndarray,
        divergence: np.ndarray,
        t: np.ndarray,
        global_stats: OutcomeStats,
        elapsed_seconds: float,
        obs: AnyCollector | None,
    ) -> None:
        self._items = items
        self._ids = ids
        self._length = np.count_nonzero(ids >= 0, axis=1)
        self._count = count
        self._support = support
        self._mean = mean
        self._divergence = divergence
        self._t = t
        self._cache: list[SubgroupResult | None] | None = None
        self.global_stats = global_stats
        self.elapsed_seconds = elapsed_seconds
        self.obs = resolve_obs(obs)

    @classmethod
    def _from_stats(
        cls,
        items: list[Item],
        ids: np.ndarray,
        stats: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
        global_stats: OutcomeStats,
        n_rows: int,
        elapsed_seconds: float = 0.0,
        obs: AnyCollector | None = None,
    ) -> "ResultSet":
        """A result set from per-subgroup ``(count, n, Σo, Σo²)`` arrays.

        ``ids`` rows are ascending ids into ``items``, right-padded with
        ``-1``. The derived columns agree bit for bit with
        :meth:`SubgroupResult.from_stats` (see
        :func:`~repro.core.divergence.subgroup_columns`).
        """
        count = stats[0]
        support, mean, divergence, t = subgroup_columns(
            *stats, global_stats, n_rows
        )
        out = cls.__new__(cls)
        out._set(
            items, ids, count, support, mean, divergence, t,
            global_stats, elapsed_seconds, obs,
        )
        return out

    # -- lazy objects ------------------------------------------------------

    def _itemset(self, i: int) -> Itemset:
        if self._cache is not None and self._cache[i] is not None:
            return self._cache[i].itemset
        items = self._items
        # Backends guarantee one item per attribute; skip re-validation.
        return Itemset._from_distinct(
            frozenset(items[j] for j in self._ids[i].tolist() if j >= 0)
        )

    def _result(self, i: int) -> SubgroupResult:
        cache = self._cache
        if cache is None:
            cache = self._cache = [None] * len(self)
        r = cache[i]
        if r is None:
            r = cache[i] = SubgroupResult(
                self._itemset(i),
                float(self._support[i]),
                int(self._count[i]),
                float(self._mean[i]),
                float(self._divergence[i]),
                float(self._t[i]),
            )
        return r

    @property
    def results(self) -> list[SubgroupResult]:
        """Every subgroup as a :class:`SubgroupResult` (all built)."""
        return list(self)

    def __len__(self) -> int:
        return len(self._count)

    def __iter__(self) -> Iterator[SubgroupResult]:
        return (self._result(i) for i in range(len(self)))

    def __getitem__(self, i: int | slice) -> SubgroupResult | list[SubgroupResult]:
        picked = range(len(self))[i]
        if isinstance(picked, range):
            return [self._result(j) for j in picked]
        return self._result(picked)

    @property
    def global_mean(self) -> float:
        """The whole-dataset statistic f(D)."""
        return self.global_stats.mean

    def find(self, itemset: Itemset) -> SubgroupResult | None:
        """Return the result for ``itemset``, or None if not explored."""
        if not isinstance(itemset, Itemset):
            return None
        index = {it: j for j, it in enumerate(self._items)}
        try:
            row = sorted(index[it] for it in itemset)
        except KeyError:
            return None
        width = self._ids.shape[1]
        if len(row) > width:
            return None
        hits = np.flatnonzero((self._ids == pad_rows([row], width)).all(axis=1))
        return self._result(int(hits[0])) if hits.size else None

    def itemsets(self) -> set[Itemset]:
        return {self._itemset(i) for i in range(len(self))}

    # -- ranking ---------------------------------------------------------

    def top_k(
        self,
        k: int = 10,
        by: str = "abs_divergence",
        min_t: float = 0.0,
        min_length: int = 0,
    ) -> list[SubgroupResult]:
        """The ``k`` best subgroups under a ranking criterion.

        Ties keep result order, as a stable ``sorted(..., reverse=True)``
        would.

        Parameters
        ----------
        k:
            How many results to return.
        by:
            ``"abs_divergence"`` (default), ``"divergence"`` (highest
            positive), ``"neg_divergence"`` (lowest), or ``"support"``.
        min_t:
            Discard subgroups with Welch t below this (NaN always kept
            out when ``min_t > 0``).
        min_length:
            Discard subgroups with fewer items than this (the empty
            itemset has length 0 and zero divergence).
        """
        return [
            self._result(i) for i in self._ranked(k, by, min_t, min_length)
        ]

    def _ranked(
        self, k: int, by: str, min_t: float, min_length: int
    ) -> list[int]:
        """Indices of :meth:`top_k`, best first."""
        key = self._rank_key(by)
        keep = (self._length >= min_length) & ~np.isnan(self._divergence)
        if not min_t <= 0.0:
            keep &= self._t >= min_t  # NaN t never passes
        pool = np.flatnonzero(keep)
        values = key[pool]
        if 0 < k < len(pool):
            # Only values tied with or above the k-th best can rank.
            kth = np.partition(values, len(pool) - k)[len(pool) - k]
            near = values >= kth
            pool, values = pool[near], values[near]
        order = np.argsort(-values, kind="stable")
        return pool[order[:k]].tolist()

    def _rank_key(self, by: str) -> np.ndarray:
        if by == "abs_divergence":
            return np.abs(self._divergence)
        if by == "divergence":
            return self._divergence
        if by == "neg_divergence":
            return -self._divergence
        if by == "support":
            return self._support
        raise ValueError(f"unknown ranking criterion {by!r}")

    def max_divergence(self, signed: bool = False, min_t: float = 0.0) -> float:
        """Maximum |Δ| over results (or max signed Δ if ``signed``).

        Returns 0.0 when there are no (finite-divergence) results, which
        is the divergence of the empty pattern.
        """
        by = "divergence" if signed else "abs_divergence"
        best = self._ranked(1, by, min_t, 0)
        if not best:
            return 0.0
        value = float(self._divergence[best[0]])
        return value if signed else abs(value)

    def filtered(
        self,
        predicate: Callable[[SubgroupResult], bool] | np.ndarray,
    ) -> "ResultSet":
        """A new result set keeping results where ``predicate`` holds.

        ``predicate`` is a function of one :class:`SubgroupResult` (every
        result gets built), or a boolean mask with one entry per result.
        """
        if callable(predicate):
            mask = np.fromiter(
                (bool(predicate(r)) for r in self), dtype=bool, count=len(self)
            )
        else:
            mask = np.asarray(predicate, dtype=bool)
            if mask.shape != (len(self),):
                raise ValueError(
                    f"mask of shape {mask.shape} for {len(self)} results"
                )
        return self._take(np.flatnonzero(mask))

    def _take(self, index: np.ndarray) -> "ResultSet":
        out = ResultSet.__new__(ResultSet)
        out._set(
            self._items, self._ids[index], self._count[index],
            self._support[index], self._mean[index],
            self._divergence[index], self._t[index],
            self.global_stats, self.elapsed_seconds, self.obs,
        )
        if self._cache is not None:
            out._cache = [self._cache[j] for j in index.tolist()]
        return out

    def at_support(self, min_support: float) -> "ResultSet":
        """Restrict to subgroups with support ≥ ``min_support``.

        Frequent itemsets are nested across thresholds, so exploring
        once at the smallest support of a sweep and filtering upward
        with this method reproduces each larger-threshold exploration
        exactly (minus its timing).
        """
        if not 0.0 < min_support <= 1.0:
            raise ValueError("min_support must be in (0, 1]")
        return self.filtered(self._support >= min_support)

    def merged(self, other: "ResultSet") -> "ResultSet":
        """Union of two result sets, deduplicated by itemset.

        Used by polarity pruning to combine the positive- and
        negative-polarity explorations. The first occurrence of each
        itemset is kept, in order. Elapsed times add up.
        """
        items = list(self._items)
        index = {it: j for j, it in enumerate(items)}
        remap = np.array(
            [index.setdefault(it, len(index)) for it in other._items] + [-1],
            dtype=np.int32,
        )
        items.extend(list(index)[len(items):])
        # Re-sort the remapped rows, keeping the -1 pads (the extra
        # last ``remap`` entry) at the end.
        big = np.iinfo(np.int32).max
        theirs = remap[other._ids]
        theirs = np.sort(np.where(theirs >= 0, theirs, big), axis=1)
        theirs[theirs == big] = -1
        width = max(self._ids.shape[1], theirs.shape[1])
        both = ResultSet.__new__(ResultSet)
        both._set(
            items,
            np.concatenate([widen(self._ids, width), widen(theirs, width)]),
            *(
                np.concatenate([getattr(self, f), getattr(other, f)])
                for f in ("_count", "_support", "_mean", "_divergence", "_t")
            ),
            self.global_stats,
            self.elapsed_seconds + other.elapsed_seconds,
            self.obs if self.obs.enabled else other.obs,
        )
        if self._cache is not None or other._cache is not None:
            both._cache = (self._cache or [None] * len(self)) + (
                other._cache or [None] * len(other)
            )
        return both._take(first_rows(both._ids))

    # -- formatting --------------------------------------------------------

    def summary(self) -> dict[str, object]:
        """Headline numbers of the exploration, as a plain dict.

        The canonical scalar surface for reports, the CLI and the
        experiment harness: number of explored subgroups, the dataset
        statistic f(D), the maximum |Δ| found, and the wall-clock
        exploration time. When the exploration ran with an enabled
        observability collector, an ``obs`` section is appended with
        per-phase elapsed times, the cover-cache hit rate and the
        pruning counters (see :func:`repro.obs.obs_summary`).
        """
        out: dict[str, object] = {
            "n_subgroups": len(self),
            "global_mean": self.global_mean,
            "max_abs_divergence": self.max_divergence(),
            "elapsed_seconds": self.elapsed_seconds,
        }
        if self.obs.enabled:
            from repro.obs.report import obs_summary

            out["obs"] = obs_summary(self.obs)
        return out

    def to_rows(
        self,
        k: int = 10,
        by: str = "abs_divergence",
        min_t: float = 0.0,
        min_length: int = 0,
    ) -> list[dict[str, object]]:
        """Top-k results as plain dicts, for table rendering.

        Filtering arguments are forwarded to :meth:`top_k`. Each row
        carries the rendered itemset plus its rounded support, count,
        mean, divergence, Welch t and length.
        """
        return [
            {
                "itemset": str(r.itemset),
                "support": round(r.support, 4),
                "count": r.count,
                "mean": round(r.mean, 4),
                "divergence": round(r.divergence, 4),
                "t": round(r.t, 1) if not math.isnan(r.t) else float("nan"),
                "length": r.length,
            }
            for r in self.top_k(k, by=by, min_t=min_t, min_length=min_length)
        ]

    def __repr__(self) -> str:
        return (
            f"ResultSet(n={len(self)}, f(D)={self.global_mean:.4f}, "
            f"elapsed={self.elapsed_seconds:.2f}s)"
        )
