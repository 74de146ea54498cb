"""Encoding a dataset and item universe for mining."""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.core.divergence import OutcomeStats
from repro.core.items import Item, Itemset
from repro.core.outcomes import Outcome
from repro.obs.collector import AnyCollector, resolve_obs
from repro.tabular import Table


class EncodedUniverse:
    """A dataset encoded against a fixed list of items.

    Holds, for each item, its boolean row mask, plus the per-row outcome
    array; everything the mining engine needs, computed once.

    Parameters
    ----------
    items:
        The item universe ``I`` (order defines item ids).
    masks:
        Boolean matrix of shape ``(len(items), n_rows)``;
        ``masks[i, r]`` iff row ``r`` satisfies item ``i``.
    outcomes:
        Per-row outcome values; NaN is ⊥.
    """

    def __init__(
        self,
        items: Sequence[Item],
        masks: np.ndarray,
        outcomes: np.ndarray,
    ):
        self.items: list[Item] = list(items)
        if masks.shape[0] != len(self.items):
            raise ValueError("one mask row per item required")
        self.masks = np.ascontiguousarray(masks, dtype=bool)
        self.outcomes = np.asarray(outcomes, dtype=np.float64)
        if self.outcomes.shape != (masks.shape[1],):
            raise ValueError("outcome length must equal the mask row length")
        self.n_rows = int(masks.shape[1])
        self.attribute_of: list[str] = [it.attribute for it in self.items]
        self.index: dict[Item, int] = {it: i for i, it in enumerate(self.items)}
        # Precomputed helpers for O(n) stats of arbitrary masks.
        self._valid = ~np.isnan(self.outcomes)
        self._o = np.where(self._valid, self.outcomes, 0.0)
        self._o2 = self._o * self._o

    @classmethod
    def from_table(
        cls,
        table: Table,
        items: Iterable[Item],
        outcome: Outcome | np.ndarray,
    ) -> "EncodedUniverse":
        """Evaluate item masks and the outcome against ``table``."""
        items = list(items)
        masks = np.empty((len(items), table.n_rows), dtype=bool)
        for i, item in enumerate(items):
            masks[i] = item.mask(table)
        if isinstance(outcome, Outcome):
            outcomes = outcome.values(table)
        else:
            outcomes = np.asarray(outcome, dtype=np.float64)
        return cls(items, masks, outcomes)

    def n_items(self) -> int:
        return len(self.items)

    def stats_of_mask(self, mask: np.ndarray) -> OutcomeStats:
        """Outcome sufficient statistics of the rows selected by ``mask``."""
        return OutcomeStats(
            count=int(np.count_nonzero(mask)),
            n=int(np.count_nonzero(mask & self._valid)),
            total=float(self._o @ mask),
            total_sq=float(self._o2 @ mask),
        )

    def global_stats(self) -> OutcomeStats:
        """Whole-dataset statistics (f(D) and its variance)."""
        return OutcomeStats(
            count=self.n_rows,
            n=int(self._valid.sum()),
            total=float(self._o.sum()),
            total_sq=float(self._o2.sum()),
        )

    def item_stats(self) -> list[OutcomeStats]:
        """Per-item statistics (used for polarity assignment)."""
        return [self.stats_of_mask(self.masks[i]) for i in range(self.n_items())]

    def restricted(self, item_ids: Iterable[int]) -> "EncodedUniverse":
        """A sub-universe containing only the given items.

        Used by polarity pruning to mine the positive- and negative-
        polarity item subsets separately.
        """
        ids = sorted(set(item_ids))
        sub = EncodedUniverse.__new__(EncodedUniverse)
        sub.items = [self.items[i] for i in ids]
        sub.masks = self.masks[ids]
        sub.outcomes = self.outcomes
        sub.n_rows = self.n_rows
        sub.attribute_of = [self.attribute_of[i] for i in ids]
        sub.index = {it: i for i, it in enumerate(sub.items)}
        sub._valid = self._valid
        sub._o = self._o
        sub._o2 = self._o2
        return sub

    def __repr__(self) -> str:
        return f"EncodedUniverse(items={self.n_items()}, rows={self.n_rows})"


@dataclass(frozen=True)
class MinedItemset:
    """A frequent itemset found by the mining engine.

    ``ids`` are indices into the universe's item list; ``stats`` are the
    accumulated outcome statistics of the supporting rows.
    """

    ids: frozenset[int]
    stats: OutcomeStats

    def to_itemset(self, universe: EncodedUniverse) -> Itemset:
        # The miner guarantees one item per attribute; skip re-validation.
        return Itemset._from_distinct(
            frozenset(universe.items[i] for i in self.ids)
        )


def pad_rows(rows: Sequence[Sequence[int]], width: int = 1) -> np.ndarray:
    """Id rows as an ``int32`` matrix, right-padded with ``-1``.

    The matrix is at least ``width`` (and one) columns wide, so that an
    all-empty set of rows still has a row shape to compare and sort.
    """
    width = max(width, 1, max(map(len, rows), default=0))
    out = np.full((len(rows), width), -1, dtype=np.int32)
    for k, row in enumerate(rows):
        out[k, : len(row)] = row
    return out


def widen(ids: np.ndarray, width: int) -> np.ndarray:
    """``ids`` right-padded with ``-1`` columns up to ``width``."""
    if ids.shape[1] >= width:
        return ids
    pad = np.full((len(ids), width - ids.shape[1]), -1, dtype=ids.dtype)
    return np.concatenate([ids, pad], axis=1)


def lex_order(ids: np.ndarray) -> np.ndarray:
    """Stable order sorting the rows of a padded id matrix like tuples.

    Rows are ascending ids right-padded with ``-1``, so a prefix sorts
    before its extensions, exactly as ``sorted(tuple(sorted(ids)))``.
    """
    return np.lexsort(ids.T[::-1])


def lex_sorted(ids: np.ndarray) -> bool:
    """True when the rows of a padded id matrix are in :func:`lex_order`."""
    if len(ids) < 2:
        return True
    a, b = ids[:-1], ids[1:]
    col = (a != b).argmax(axis=1)
    rows = np.arange(len(col))
    return not (a[rows, col] > b[rows, col]).any()


def first_rows(ids: np.ndarray) -> np.ndarray:
    """Ascending indices of the first occurrence of each distinct row."""
    order = lex_order(ids)
    ranked = ids[order]
    new = np.ones(len(order), dtype=bool)
    new[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    return np.sort(order[new])


class MinedColumns:
    """Frequent itemsets as columns: the output of :func:`mine`.

    ``ids`` is an ``(n, width)`` ``int32`` matrix holding each itemset's
    universe ids in ascending order, right-padded with ``-1``; ``count``,
    ``n``, ``total`` and ``total_sq`` are the :class:`OutcomeStats`
    fields, one entry per itemset. Rows keep the emission order (the
    bitset DFS emits them in lexicographic id order).

    The container is read-only and behaves as a sequence of
    :class:`MinedItemset` — ``len``, iteration, indexing and ``==``
    against lists — building each object only when it is asked for.
    """

    __slots__ = ("ids", "count", "n", "total", "total_sq")

    def __init__(
        self,
        ids: np.ndarray,
        count: np.ndarray,
        n: np.ndarray,
        total: np.ndarray,
        total_sq: np.ndarray,
    ):
        self.ids = ids
        self.count = count
        self.n = n
        self.total = total
        self.total_sq = total_sq
        for column in (ids, count, n, total, total_sq):
            column.flags.writeable = False

    @classmethod
    def empty(cls) -> "MinedColumns":
        return cls(
            pad_rows([]), np.zeros(0, np.int64), np.zeros(0, np.int64),
            np.zeros(0, np.float64), np.zeros(0, np.float64),
        )

    @classmethod
    def from_itemsets(cls, mined: Iterable[MinedItemset]) -> "MinedColumns":
        """Columns of a list of :class:`MinedItemset`, in list order."""
        if isinstance(mined, MinedColumns):
            return mined
        mined = list(mined)
        stats = [m.stats for m in mined]
        return cls(
            pad_rows([sorted(m.ids) for m in mined]),
            np.array([s.count for s in stats], dtype=np.int64),
            np.array([s.n for s in stats], dtype=np.int64),
            np.array([s.total for s in stats], dtype=np.float64),
            np.array([s.total_sq for s in stats], dtype=np.float64),
        )

    @classmethod
    def concat(cls, parts: Sequence["MinedColumns"]) -> "MinedColumns":
        """The rows of ``parts`` one after another."""
        if not parts:
            return cls.empty()
        width = max(p.ids.shape[1] for p in parts)
        return cls(
            np.concatenate([widen(p.ids, width) for p in parts]),
            *(
                np.concatenate([getattr(p, f) for p in parts])
                for f in ("count", "n", "total", "total_sq")
            ),
        )

    @property
    def lengths(self) -> np.ndarray:
        """Number of items of each itemset."""
        return np.count_nonzero(self.ids >= 0, axis=1)

    def take(self, index: np.ndarray) -> "MinedColumns":
        """The rows selected by an index array or boolean mask."""
        return MinedColumns(
            self.ids[index], self.count[index], self.n[index],
            self.total[index], self.total_sq[index],
        )

    def canonical(self) -> "MinedColumns":
        """The rows in :func:`lex_order` (``self`` when already sorted)."""
        if lex_sorted(self.ids):
            return self
        return self.take(lex_order(self.ids))

    def remapped(self, ids: np.ndarray) -> "MinedColumns":
        """Rows with each id ``j`` replaced by ``ids[j]``.

        ``ids`` must be ascending, so that rows stay sorted; polarity
        pruning maps sub-universe ids back to the full universe.
        """
        mapped = np.where(self.ids >= 0, ids[self.ids], -1).astype(np.int32)
        return MinedColumns(mapped, self.count, self.n, self.total, self.total_sq)

    def __len__(self) -> int:
        return len(self.count)

    def __getitem__(self, i: int | slice) -> "MinedItemset | MinedColumns":
        if isinstance(i, slice):
            return self.take(i)
        row = self.ids[i]
        return MinedItemset(
            frozenset(row[row >= 0].tolist()),
            OutcomeStats(
                int(self.count[i]), int(self.n[i]),
                float(self.total[i]), float(self.total_sq[i]),
            ),
        )

    def __iter__(self) -> Iterator[MinedItemset]:
        columns = zip(
            self.ids.tolist(), self.count.tolist(), self.n.tolist(),
            self.total.tolist(), self.total_sq.tolist(),
        )
        for row, count, n, total, total_sq in columns:
            yield MinedItemset(
                frozenset(j for j in row if j >= 0),
                OutcomeStats(count, n, total, total_sq),
            )

    def __eq__(self, other: object) -> bool:
        if isinstance(other, MinedColumns):
            width = max(self.ids.shape[1], other.ids.shape[1])
            return len(self) == len(other) and all(
                np.array_equal(a, b)
                for a, b in (
                    (widen(self.ids, width), widen(other.ids, width)),
                    (self.count, other.count), (self.n, other.n),
                    (self.total, other.total),
                    (self.total_sq, other.total_sq),
                )
            )
        if isinstance(other, (list, tuple)):
            return len(self) == len(other) and all(
                a == b for a, b in zip(self, other)
            )
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"MinedColumns(itemsets={len(self)}, width={self.ids.shape[1]})"


def ignore_backend(backend: str | None, owner: str) -> None:
    """Accept the retired ``backend=`` option, and ignore it.

    The bitset DFS is the only mining engine, so the option no longer
    selects anything. ``None`` (not given) passes silently; any of the
    four names it once took warns with a :class:`DeprecationWarning`;
    any other name raises :class:`ValueError`, as it always did.
    """
    if backend is None:
        return
    if backend not in ("fpgrowth", "apriori", "eclat", "bitset"):
        raise ValueError(f"unknown mining backend {backend!r}")
    warnings.warn(
        f"{owner}: backend={backend!r} is deprecated and ignored; "
        "every run mines with the bitset engine",
        DeprecationWarning,
        stacklevel=3,
    )


def mine(
    universe: EncodedUniverse,
    min_support: float,
    *,
    max_length: int | None = None,
    n_jobs: int = 1,
    engine=None,
    obs: AnyCollector | None = None,
    pool=None,
    backend: str | None = None,
) -> MinedColumns:
    """Mine all frequent itemsets with the bitset engine.

    Parameters
    ----------
    universe:
        Encoded dataset and item universe.
    min_support:
        The support threshold ``s`` (fraction of rows).
    max_length:
        Optional cap on itemset cardinality.
    n_jobs:
        With ``n_jobs != 1``, first-level prefixes are sharded across
        worker processes (``repro.core.mining.parallel``); results are
        identical to the serial run, in the same order. Non-positive
        means all cores.
    engine:
        Optional :class:`repro.core.mining.bitset.BitsetEngine` to
        reuse (packed covers + cover cache) instead of building one.
    obs:
        Optional :class:`repro.obs.ObsCollector`. When enabled, mining
        runs inside a ``bitset`` span and the registry receives the
        mining counters, the cover-cache deltas of ``engine``, and the
        ``mining.frequent_itemsets`` / ``mining.frequent.level_N``
        totals (one ``np.bincount`` over the itemset lengths, so they
        are identical for every ``n_jobs``).
    pool:
        Optional persistent :class:`repro.core.mining.parallel.WorkerPool`
        serving the ``n_jobs != 1`` fan-out from long-lived workers
        instead of spawning a pool per call (its ``n_jobs`` wins).
    backend:
        Deprecated and ignored (see :func:`ignore_backend`).
    """
    ignore_backend(backend, "mine")
    obs = resolve_obs(obs)
    hits0 = engine.cache_hits if engine is not None else 0
    misses0 = engine.cache_misses if engine is not None else 0
    restore_engine_obs = False
    prev_engine_obs = None
    if obs.enabled and engine is not None:
        prev_engine_obs = engine.obs
        restore_engine_obs = True
        engine.obs = obs
    span = obs.span("bitset", n_jobs=n_jobs, min_support=min_support)
    try:
        with span:
            if n_jobs != 1 or pool is not None:
                from repro.core.mining.parallel import mine_parallel

                mined = mine_parallel(
                    universe, min_support, max_length,
                    n_jobs=n_jobs, engine=engine, obs=obs, pool=pool,
                )
            else:
                from repro.core.mining.bitset import BitsetEngine, mine_bitset

                if engine is None and obs.enabled:
                    engine = BitsetEngine(universe, obs=obs)
                mined = mine_bitset(universe, min_support, max_length, engine=engine)
    finally:
        if restore_engine_obs:
            engine.obs = prev_engine_obs
    if obs.enabled:
        if engine is not None:
            # mine_parallel clears the engine cache before shipping it to
            # workers; a shrunken counter means "count everything since".
            dh = engine.cache_hits - hits0
            dm = engine.cache_misses - misses0
            dh = dh if dh >= 0 else engine.cache_hits
            dm = dm if dm >= 0 else engine.cache_misses
            if dh:
                obs.count("cover_cache.hits", dh)
            if dm:
                obs.count("cover_cache.misses", dm)
        obs.count("mining.frequent_itemsets", len(mined))
        for k, n_k in enumerate(np.bincount(mined.lengths).tolist()):
            if n_k:
                obs.count(f"mining.frequent.level_{k}", n_k)
        span.set(itemsets=len(mined))
    return mined
