"""Acceleration structures for the hidden-table read path.

The naive back end answers every conjunctive query with a full Python scan:
``Table.matching_row_ids`` re-evaluates ``ConjunctiveQuery.matches`` row by
row, re-resolving numeric buckets on each visit, and every overflow re-sorts
the qualifying rows with per-row rank-key recomputation.  That caps the table
sizes and concurrent-job counts the sampling service can drive.  This module
factorises that work into two structures:

* :class:`TableIndex` — built once per :class:`~repro.database.table.Table`.
  Each searchable attribute is encoded into a columnar list of *selectable*
  values: numeric rows are binned once via :func:`bisect.bisect_right` over
  the domain's precomputed sorted bucket edges, not per query, and rows whose
  raw value lies outside the domain hold the ``_UNBINNABLE`` sentinel.  The
  columns serve both query evaluation and response building (result pages
  read a returned row's selectable values from them instead of re-binning).

* :class:`RankCache` — built once per (table, ranking-function) pair and
  memoised on the index.  It computes every row's rank key exactly once and
  sorts the table into a global rank order ``by_rank``.  On top of that order
  it keeps one Python ``int`` *bitmap* per (attribute, value): bit *p* is set
  when the row at rank position *p* holds that value.  A conjunctive query is
  the AND of its predicates' bitmaps, its match count is ``int.bit_count()``,
  and its top-``k`` answer is the ``k`` lowest set bits mapped through
  ``by_rank`` — already in rank order, so neither ``VALID`` nor ``OVERFLOW``
  needs a sort.  Bitmaps are built lazily, one attribute at a time, the first
  time a query constrains that attribute.

Complexity contracts (n = rows, m = matching rows, q = query predicates,
k = display limit, V = values of one attribute):

===============================  ==============================  ===========================
operation                        naive scan                      indexed
===============================  ==============================  ===========================
build (once per table)           —                               O(n · |schema|)
bitmaps (once per attribute)     —                               O(n + V · n/8) bytes
conjunctive match                O(n · q) bucket re-resolution   O(q · n/64) word ANDs
``count(query)``                 O(n · q)                        match + ``bit_count``
``VALID`` ordering               O(m log m) key recomputation    k bit scans on first read
``OVERFLOW`` top-k               O(m log m) key recomputation    k bit scans on first read
===============================  ==============================  ===========================

A bit scan converts the mask to bytes once (O(n/8), in C) and then visits
only its non-zero bytes until ``k`` rows are collected; neither cut needs a
sort.  An answer's row ids are a :class:`TopRowIds` (:meth:`RankCache.top`):
its length is known from ``bit_count()``, and the scan runs the first time an
id is read, so an overflowing answer that is only counted never pays it.
Memory is n/8 bytes per (attribute, value) bitmap, per ranking in use.

The naive path remains available (``QueryEngine(..., use_index=False)``) both
as an escape hatch for non-conjunctive predicates and as the oracle the
property tests compare the indexed path against.
"""

from __future__ import annotations

import weakref
from bisect import bisect_right
from typing import TYPE_CHECKING, Any, Iterator, Sequence, overload

from repro.database.ranking import RowIdRanking
from repro.database.schema import AttributeKind, Value

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.database.query import ConjunctiveQuery
    from repro.database.ranking import RankingFunction
    from repro.database.table import Table


class _Unbinnable:
    """Sentinel selectable value for rows whose raw value is outside the domain.

    Only reachable on tables built with ``validate=False``; such rows match no
    selectable query value (the scan path instead raises when a query touches
    the attribute, which validated tables never trigger).
    """

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<unbinnable>"


_UNBINNABLE = _Unbinnable()

#: Byte translation table: every non-zero byte becomes 1, zero stays 0.
_NONZERO = bytes([0]) + bytes([1]) * 255
#: Offsets of the set bits of every byte value, lowest first.
_BITS_OF_BYTE = tuple(tuple(bit for bit in range(8) if byte >> bit & 1) for byte in range(256))


def _bitmaps_of(ranked: Sequence[Any]) -> dict[Any, int]:
    """One bitmap per distinct value of ``ranked``: bit *p* set iff ``ranked[p]`` is it."""
    n_bytes = (len(ranked) + 7) // 8
    planes: dict[Any, bytearray] = {}
    for position, value in enumerate(ranked):
        plane = planes.get(value)
        if plane is None:
            plane = planes[value] = bytearray(n_bytes)
        plane[position >> 3] |= 1 << (position & 7)
    return {value: int.from_bytes(plane, "little") for value, plane in planes.items()}


class RankCache:
    """The memoised total order of one ranking function over one table.

    ``by_rank`` is the whole table sorted best-first by ``(key, row_id)`` —
    exactly the tie-breaking rule of :meth:`RankingFunction.order` — and
    ``position[row_id]`` is the row's place in that order.  Queries are
    answered on rank-ordered bitmaps (:meth:`mask`, :meth:`first`), so
    ranking any subset of rows never calls the ranking function again.

    Thread safety: the bitmap and residue memos are filled lazily by
    whichever thread first needs them, without a lock.  Each attribute's
    bitmaps are built into a local dict and published with one dict-item
    assignment, so a reader sees either nothing (and builds an identical
    copy itself) or the complete set — never a half-built one.
    """

    __slots__ = ("by_rank", "position", "_index", "_n_bytes", "_everything",
                 "_bitmaps", "_residues")

    def __init__(self, table: "Table", ranking: "RankingFunction") -> None:
        keys = ranking.keys_for_table(table)
        self.by_rank: list[int] = sorted(
            range(len(keys)), key=lambda row_id: (keys[row_id], row_id)
        )
        self.position: list[int] = [0] * len(self.by_rank)
        for position, row_id in enumerate(self.by_rank):
            self.position[row_id] = position
        self._index = table.index
        self._n_bytes = (len(keys) + 7) // 8
        self._everything = (1 << len(keys)) - 1
        #: attribute name -> {selectable value -> bitmap}, filled lazily.
        self._bitmaps: dict[str, dict[Value, int]] = {}
        #: n_shards -> {shard index -> bitmap of the rows it owns}.
        self._residues: dict[int, dict[int, int]] = {}

    def bitmap(self, attribute_name: str, value: Value) -> int:
        """Rank positions of the rows whose ``attribute_name`` encodes to ``value``."""
        bitmaps = self._bitmaps.get(attribute_name)
        if bitmaps is None:
            column = self._index.selectable_column(attribute_name)
            bitmaps = _bitmaps_of([column[row_id] for row_id in self.by_rank])
            bitmaps.pop(_UNBINNABLE, None)
            self._bitmaps[attribute_name] = bitmaps
        return bitmaps.get(value, 0)

    def mask(self, query: "ConjunctiveQuery") -> int:
        """Rank positions of the rows matching ``query`` (the AND of its bitmaps)."""
        mask = self._everything
        for predicate in query.predicates:
            mask &= self.bitmap(predicate.attribute, predicate.value)
        return mask

    def residue(self, n_shards: int, shard_index: int) -> int:
        """Rank positions of the rows with ``row_id % n_shards == shard_index``."""
        residues = self._residues.get(n_shards)
        if residues is None:
            residues = _bitmaps_of([row_id % n_shards for row_id in self.by_rank])
            self._residues[n_shards] = residues
        return residues.get(shard_index, 0)

    def top(self, query: "ConjunctiveQuery", k: int) -> tuple[int, "TopRowIds"]:
        """``query``'s exact match count and its top-``k`` row ids, cut on first read.

        The one place an indexed answer is counted now and cut later: the
        engine and the shard router's shared-rank path both answer with it.
        """
        total = self.mask(query).bit_count()
        return total, TopRowIds(self, query, min(total, k))

    def first(self, mask: int, k: int) -> list[int]:
        """Row ids of the ``k`` lowest set bits of ``mask``, best-ranked first."""
        data = mask.to_bytes(self._n_bytes, "little")
        find = data.translate(_NONZERO).find
        by_rank = self.by_rank
        rows: list[int] = []
        byte = find(1)
        while byte >= 0 and len(rows) < k:
            base = byte << 3
            rows.extend([by_rank[base + bit] for bit in _BITS_OF_BYTE[data[byte]]])
            byte = find(1, byte + 1)
        del rows[k:]
        return rows

    def bitmap_bytes(self) -> int:
        """Bytes held by the bitmaps built so far (residue masks included)."""
        built = [*self._bitmaps.values(), *self._residues.values()]
        return sum((bitmap.bit_length() + 7) // 8 for bitmaps in built for bitmap in bitmaps.values())


class TopRowIds(Sequence[int]):
    """The best-ranked row ids of one query's answer, cut on first read.

    Holds the rank cache, the query and the answer's size, ``min(total, k)``,
    which the caller knows from ``bit_count()``: ``len`` and truth need no bit
    scan.  The first read of an id (indexing, iteration, slicing, equality)
    rebuilds the query's match mask from the cache's bitmaps, a few word ANDs,
    and runs :meth:`RankCache.first` once.  Holding the query rather than the
    mask keeps an n/8-byte int out of every answer a history remembers.

    Compares equal, in both directions, to the tuple of its ids and to any
    other :class:`TopRowIds` listing the same ids, and hashes like that tuple.

    Thread safety: the ids are published with one attribute assignment,
    without a lock, like the :class:`RankCache` memos.  Two threads reading a
    cold instance may both cut; the results are equal and the last
    assignment wins.
    """

    __slots__ = ("_ranks", "_query", "_size", "_ids")

    def __init__(self, ranks: RankCache, query: "ConjunctiveQuery", size: int) -> None:
        self._ranks = ranks
        self._query = query
        self._size = size
        self._ids: tuple[int, ...] | None = None if size else ()

    def _cut(self) -> tuple[int, ...]:
        ids = self._ids
        if ids is None:
            ranks = self._ranks
            ids = self._ids = tuple(ranks.first(ranks.mask(self._query), self._size))
        return ids

    def __len__(self) -> int:
        return self._size

    @overload
    def __getitem__(self, index: int) -> int: ...

    @overload
    def __getitem__(self, index: slice) -> tuple[int, ...]: ...

    def __getitem__(self, index: int | slice) -> int | tuple[int, ...]:
        return self._cut()[index]

    def __iter__(self) -> Iterator[int]:
        return iter(self._cut())

    def __eq__(self, other: object) -> bool:
        if isinstance(other, TopRowIds):
            return self._cut() == other._cut()
        if isinstance(other, tuple):
            return self._cut() == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._cut())

    def __repr__(self) -> str:
        return repr(self._cut())


class TableIndex:
    """Columnar selectable encoding of one table, plus its rank caches.

    Immutable after construction, like the table itself.  Built lazily through
    :attr:`Table.index` (and eagerly for validated tables) so every engine and
    interface over the same table shares one copy.
    """

    def __init__(self, table: "Table") -> None:
        self._table = table
        self._n_rows = len(table)
        columns: dict[str, list[Value]] = {}
        unbinnable: set[int] = set()
        for attribute in table.schema:
            name = attribute.name
            if attribute.kind is AttributeKind.NUMERIC:
                column = self._encode_numeric_column(table, name, attribute.domain)
            else:
                column = [row[name] for row in table.rows]
            allowed = frozenset(attribute.domain.values)
            if not allowed.issuperset(column):
                column = [value if value in allowed else _UNBINNABLE for value in column]
                unbinnable.update(
                    row_id for row_id, value in enumerate(column) if value is _UNBINNABLE
                )
            columns[name] = column
        self._columns = columns
        self._unbinnable_rows = frozenset(unbinnable)
        #: ranking object -> RankCache; weakly keyed (rankings have identity
        #: hash) so caches die with their ranking instead of accreting on the
        #: table-lifetime index as engines come and go.
        self._rank_caches: "weakref.WeakKeyDictionary[RankingFunction, RankCache]" = (
            weakref.WeakKeyDictionary()
        )
        #: Row-id order, kept alive here for the :meth:`matching_row_ids` helper.
        self._row_id_ranking = RowIdRanking()

    @staticmethod
    def _encode_numeric_column(table: "Table", name: str, domain) -> list[Value]:
        lows, highs, labels = domain.bucket_search_arrays()
        column: list[Value] = []
        for row in table.rows:
            raw = float(row[name])  # type: ignore[arg-type]
            slot = bisect_right(lows, raw) - 1
            if slot >= 0 and raw < highs[slot]:
                column.append(labels[slot])
            else:
                column.append(_UNBINNABLE)
        return column

    # -- columnar access ----------------------------------------------------

    @property
    def table(self) -> "Table":
        """The table this index accelerates."""
        return self._table

    def selectable_column(self, attribute_name: str) -> Sequence[Value]:
        """The columnar selectable encoding of one searchable attribute."""
        return self._columns[attribute_name]

    @property
    def unbinnable_rows(self) -> frozenset[int]:
        """Row ids holding a raw value outside its attribute's domain.

        Empty for validated tables.  Such rows match no query predicate, and
        rendering one raises like :meth:`Table.selectable_row` does.
        """
        return self._unbinnable_rows

    # -- conjunctive evaluation (row-id order; the oracle tests' helpers) -----

    def matching_row_ids(self, query: "ConjunctiveQuery") -> list[int]:
        """All row ids matching ``query``, ascending (same order as a scan)."""
        cache = self.rank_cache(self._row_id_ranking)
        return cache.first(cache.mask(query), self._n_rows)

    def count(self, query: "ConjunctiveQuery") -> int:
        """Number of rows matching ``query``, without materialising them."""
        return self.rank_cache(self._row_id_ranking).mask(query).bit_count()

    # -- rank caches ---------------------------------------------------------

    def rank_cache(self, ranking: "RankingFunction") -> RankCache:
        """The memoised :class:`RankCache` for ``ranking`` (built on first use).

        Keyed by ranking-object identity, weakly: a cache lives exactly as
        long as something (typically a :class:`QueryEngine`) keeps its
        ranking alive.
        """
        cache = self._rank_caches.get(ranking)
        if cache is None:
            cache = RankCache(self._table, ranking)
            self._rank_caches[ranking] = cache
        return cache

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TableIndex(table={self._table.name!r}, rows={self._n_rows}, "
            f"rank_caches={len(self._rank_caches)})"
        )
