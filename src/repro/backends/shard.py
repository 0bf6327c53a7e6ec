"""Sharded catalogues: fan a query out over partitions, merge ranked top-k.

A production deployment of the same catalogue does not keep 50 M rows in one
process: the table is partitioned over N shards and a router scatters each
conjunctive query, then gathers and re-ranks the per-shard answers.  The
crucial invariant — proved by the property tests — is that samplers cannot
tell: a :class:`ShardRouter` over N partitions returns *exactly* the response
the unsharded backend would, tuple for tuple, count for count.

Why that holds: every shard answers with its own top-``k`` under the *shared*
global rank order, and the global top-``k`` of a union is always contained in
the union of the per-part top-``k``'s; exact counts are additive over a
disjoint partition.  To share the rank order (and the one-time index build),
all :class:`TableShardBackend` partitions of a table reuse the table's single
:class:`~repro.database.index.TableIndex` and its memoised
:class:`~repro.database.index.RankCache`.  A shard's rows are one more
rank-ordered bitmap there (the *residue* mask of ``row_id % n_shards``), so a
shard answers a query by ANDing the query's mask with its residue.  On that
layout the residues of all shards OR to the whole table, so the merged answer
is the query's whole mask: the router answers with its ``bit_count()`` and
its top-``k`` cut, deferred to the first read
(:meth:`~repro.database.index.RankCache.top`, as the engine answers), and no
shard is asked at all.
That is exactly the merge of the per-shard cuts a scatter would gather.

Shards that are not bare partitions of one table (remote, latency- or
breaker-wrapped backends) take the independent scatter path, where every
shard answers a full sub-query; ``max_workers`` overlaps those round-trips
on the shared :class:`~repro.backends.resilience.LazyPool` (serial by
default), gathered in shard order so the merge is byte-identical either way.

Both classes are raw backends: no accounting.  Shards always report exact
counts; the router shapes its merged total through a
:class:`~repro.backends.adapters.CountPolicy` (exact unless told otherwise),
so a noisy or hidden count is decided once, over the whole catalogue.  Wrap
the router in :class:`~repro.backends.stack.BackendStack` layers to get
budgets and statistics over the whole sharded catalogue at once.
"""

from __future__ import annotations

from typing import Callable, Sequence, cast

from repro.backends.adapters import CountPolicy, answer_response
from repro.backends.resilience import LazyPool
from repro.database.index import RankCache
from repro.database.interface import InterfaceResponse, ReturnedTuple
from repro.database.query import ConjunctiveQuery
from repro.database.ranking import RankingFunction, RowIdRanking
from repro.database.schema import Schema
from repro.database.table import Table
from repro.exceptions import InterfaceError

#: Orders merged tuples; smaller sorts first.  Must agree with the shards'
#: own internal ranking for the scatter/gather to be lossless.
MergeKey = Callable[[ReturnedTuple], float]


def _by_tuple_id(returned: ReturnedTuple) -> float:
    """Default merge order: ascending tuple id (correct for row-id ranking)."""
    return float(returned.tuple_id)


class TableShardBackend:
    """One partition of a table, served through the table's shared index.

    The shard owns the rows whose id is ``shard_index`` modulo ``n_shards``
    and answers the raw contract over just those rows.  Evaluation and
    ranking go through the *parent* table's :class:`TableIndex` and
    :class:`RankCache`, so N shards of one catalogue cost one index build and
    one rank order, not N.
    """

    def __init__(
        self,
        table: Table,
        k: int,
        shard_index: int,
        n_shards: int,
        ranking: RankingFunction | None = None,
        display_columns: Sequence[str] = (),
    ) -> None:
        if k <= 0:
            raise InterfaceError("k must be a positive integer")
        if n_shards <= 0 or not 0 <= shard_index < n_shards:
            raise InterfaceError(
                f"shard_index must be in [0, n_shards); got {shard_index}/{n_shards}"
            )
        self._table = table
        self._k = k
        self.shard_index = shard_index
        self.n_shards = n_shards
        self._ranking = ranking if ranking is not None else RowIdRanking()
        self.display_columns = tuple(display_columns)
        self._index = table.index
        self._rank = table.index.rank_cache(self._ranking)

    # -- RawBackend contract -------------------------------------------------

    @property
    def schema(self) -> Schema:
        """The searchable schema (identical across all shards of a table)."""
        return self._table.schema

    @property
    def k(self) -> int:
        """The top-``k`` display limit."""
        return self._k

    def submit(self, query: ConjunctiveQuery) -> InterfaceResponse:
        """Answer ``query`` over this shard's rows only; counts are exact."""
        return self.respond(query, self._rank.mask(query))

    def respond(self, query: ConjunctiveQuery, mask: int) -> InterfaceResponse:
        """Cut and render this shard's rows of ``mask``, the query's match mask."""
        total, row_ids = self.cut(mask)
        return self.response(query, total, total, row_ids)

    def cut(self, mask: int) -> tuple[int, list[int]]:
        """This shard's exact match count and best-ranked ``k`` row ids.

        ``mask`` is a query's rank-ordered match bitmap over the *whole*
        table; the shard keeps its own rows by ANDing its residue mask.
        """
        mine = mask & self._rank.residue(self.n_shards, self.shard_index)
        return mine.bit_count(), self._rank.first(mine, self._k)

    def response(
        self,
        query: ConjunctiveQuery,
        total: int,
        reported_count: int | None,
        row_ids: Sequence[int],
    ) -> InterfaceResponse:
        """The response listing ``row_ids`` for ``query`` matching ``total`` rows."""
        return answer_response(
            self._table, query, total, reported_count, row_ids, self._k, self.display_columns
        )

    def rank_position(self, tuple_id: int) -> float:
        """The row's place in the shared global rank order (router merge key)."""
        return float(self._rank.position[tuple_id])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TableShardBackend(table={self._table.name!r}, "
            f"shard={self.shard_index}/{self.n_shards}, k={self._k})"
        )


class ShardRouter:
    """Scatter a query over N shard backends, gather and merge ranked top-k.

    ``merge_key`` orders the merged candidate tuples; it must agree with the
    ranking the shards applied internally (for table shards that is the
    shared rank-cache position — :meth:`over_table` wires it automatically).
    Without one, tuples merge in ``tuple_id`` order, which is only correct
    for row-id ranking.

    The router is a raw backend: it sums the shards' exact counts (additive
    over the disjoint partition), reports the total as ``counts`` shapes it
    (exact without one) and does no accounting of its own — wrap it in
    layers for that.

    ``max_workers`` bounds the pool the scatter path issues its per-shard
    sub-queries on; ``None`` (the default) issues them serially on the
    calling thread.  The :meth:`over_table` layout asks no shard, so it never
    uses the pool.  :meth:`close` releases the worker threads (the router
    stays usable), and the router is a context manager.
    """

    def __init__(
        self,
        shards: Sequence[object],
        merge_key: MergeKey | None = None,
        counts: CountPolicy | None = None,
        max_workers: int | None = None,
    ) -> None:
        if not shards:
            raise InterfaceError("a shard router needs at least one shard")
        ks = {shard.k for shard in shards}
        if len(ks) != 1:
            raise InterfaceError(f"all shards must share one top-k limit, got {sorted(ks)}")
        names = {shard.schema.attribute_names for shard in shards}
        if len(names) != 1:
            raise InterfaceError("all shards must serve the same schema")
        self._shards = tuple(shards)
        self._k: int = ks.pop()
        self._merge_key = merge_key if merge_key is not None else _by_tuple_id
        self._counts = counts if counts is not None else CountPolicy()
        #: Display columns travel with the shards; the router advertises them
        #: so a HiddenWebSite served from a sharded stack renders the same
        #: extra columns as one served from the flat engine backend.
        self.display_columns: tuple[str, ...] = tuple(
            getattr(self._shards[0], "display_columns", ())
        )
        self._shared_ranks = self._detect_table_partition()
        self._pool = LazyPool(
            max_workers if max_workers is not None else 1, thread_name_prefix="shard-dispatch"
        )

    def _detect_table_partition(self) -> RankCache | None:
        """The shared :class:`RankCache` when the shards exactly modulo-
        partition one table under one ranking and show the same display
        columns (the :meth:`over_table` layout), else ``None``.

        Only then may the router answer each query from the one whole-table
        match mask, rather than scatter a full evaluation to every shard.
        """
        n = len(self._shards)
        ranks = getattr(self._shards[0], "_rank", None)
        for position, shard in enumerate(self._shards):
            if not isinstance(shard, TableShardBackend):
                return None
            if (
                shard.n_shards != n
                or shard.shard_index != position
                or shard._rank is not ranks
                or shard.display_columns != self.display_columns
            ):
                return None
        return ranks

    @classmethod
    def over_table(
        cls,
        table: Table,
        n_shards: int,
        k: int,
        ranking: RankingFunction | None = None,
        display_columns: Sequence[str] = (),
        shard_layer: Callable[[object], object] | None = None,
        counts: CountPolicy | None = None,
        max_workers: int | None = None,
    ) -> "ShardRouter":
        """Partition ``table`` into ``n_shards`` backends sharing one index.

        The shards and the router's merge key all use the table's single
        :class:`TableIndex` and one memoised rank order, so the router's
        responses are identical to an unsharded backend over the same table.

        ``shard_layer`` wraps each partition backend before it reaches the
        router — e.g. ``lambda shard: CircuitBreakerLayer(shard)`` gives every
        shard its *own* circuit, so one dead partition trips only its own
        breaker while its siblings keep answering.  Wrapped shards take the
        independent scatter path (the shared-index fast path needs bare
        :class:`TableShardBackend` instances), which is exactly what a
        per-shard reliability layer needs: each ``shard.submit`` is a real
        call the wrapper observes.  ``max_workers`` is the scatter path's pool
        bound (see the class docstring).
        """
        ranking = ranking if ranking is not None else RowIdRanking()
        shards = [
            TableShardBackend(
                table, k, shard_index, n_shards,
                ranking=ranking, display_columns=display_columns,
            )
            for shard_index in range(n_shards)
        ]
        merge_key = lambda t: shards[0].rank_position(t.tuple_id)  # noqa: E731
        if shard_layer is not None:
            router = cls(
                [shard_layer(shard) for shard in shards],
                merge_key=merge_key, counts=counts, max_workers=max_workers,
            )
            # Layers do not forward ``display_columns``; re-advertise what the
            # bare shards would have exposed.
            router.display_columns = tuple(display_columns)
            return router
        return cls(shards, merge_key=merge_key, counts=counts, max_workers=max_workers)

    # -- RawBackend contract -------------------------------------------------

    @property
    def schema(self) -> Schema:
        """The schema served by every shard."""
        return self._shards[0].schema

    @property
    def k(self) -> int:
        """The top-``k`` display limit of the merged result."""
        return self._k

    @property
    def shards(self) -> tuple[object, ...]:
        """The partition backends, in shard order."""
        return self._shards

    @property
    def max_workers(self) -> int:
        """The pool bound the scatter path issues sub-queries under (1: serial)."""
        return self._pool.max_workers

    def submit(self, query: ConjunctiveQuery) -> InterfaceResponse:
        """Fan ``query`` out, merge the ranked answers, apply the top-``k`` cut.

        On the shared-rank layout the answer is the whole match mask's count
        and its top-``k`` rows, cut on first read; any other shards answer
        full sub-queries, merged by ``merge_key``.
        """
        ranks = self._shared_ranks
        if ranks is None:
            responses = self._pool.map(lambda shard: shard.submit(query), self._shards)
            return self._merge(query, responses)
        total, row_ids = ranks.top(query, self._k)
        return cast(TableShardBackend, self._shards[0]).response(
            query, total, self._counts.shape(total), row_ids
        )

    def _merge(
        self, query: ConjunctiveQuery, responses: list[InterfaceResponse]
    ) -> InterfaceResponse:
        """Sum the exact shard counts, merge ranked tuples, re-cut to top-``k``."""
        total = 0
        for response in responses:
            if response.reported_count is None:
                raise InterfaceError(
                    "ShardRouter needs exact counts from its shards; shape counts "
                    "at the router, not at its shards"
                )
            total += response.reported_count
        merged = sorted(
            (t for response in responses for t in response.tuples), key=self._merge_key
        )
        return InterfaceResponse(
            query=query,
            tuples=tuple(merged[: self._k]),
            overflow=total > self._k,
            reported_count=self._counts.shape(total),
            k=self._k,
        )

    def close(self) -> None:
        """Release the worker threads (the router stays usable; a new pool
        is created on the next concurrent scatter)."""
        self._pool.close()

    def __enter__(self) -> "ShardRouter":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ShardRouter(shards={len(self._shards)}, k={self._k}, "
            f"max_workers={self.max_workers})"
        )
