"""The conjunctive web form interface contract, as seen by a sampler.

:class:`HiddenDatabaseInterface` is the *only* thing HDSampler is allowed to
talk to: submit a conjunctive query, get back at most ``k`` ranked tuples and
an overflow flag.  The class wraps a :class:`~repro.database.engine.QueryEngine`
and adds the client-visible realities of real hidden databases:

* an optional per-client :class:`~repro.database.limits.QueryBudget`;
* a configurable *count mode* — real interfaces report either no result count,
  an exact count, or (like Google Base) an approximate count produced by "some
  proprietary algorithm" that the paper's system deliberately ignores;
* bookkeeping of how many queries were issued and their outcomes, which is the
  efficiency side of every experiment.

The same contract is also implemented by
:class:`repro.web.client.WebFormClient`, which goes through rendered HTML
pages instead of calling the engine directly; samplers cannot tell the
difference, which is the point.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass
from typing import Iterator, Mapping, Protocol, Sequence, overload, runtime_checkable

from repro.database.limits import QueryBudget
from repro.database.query import ConjunctiveQuery
from repro.database.ranking import RankingFunction
from repro.database.schema import Schema, Value
from repro.database.table import Table


class CountMode(enum.Enum):
    """How (and whether) the interface reports the total number of matches."""

    NONE = "none"        #: the result page shows no count at all
    EXACT = "exact"      #: the true count is reported (used by count-aided sampling)
    NOISY = "noisy"      #: a perturbed count is reported (the Google Base situation)


@dataclass(frozen=True)
class ReturnedTuple:
    """One tuple as displayed on a result page.

    ``tuple_id`` is an opaque listing identifier (a URL or item id in real
    sites); samplers may use it only for de-duplication, never for enumeration.
    ``values`` holds the raw displayed values of the searchable attributes and
    any extra display columns; ``selectable_values`` maps searchable attributes
    to the form value (bucket label, category) they fall under.
    """

    tuple_id: int
    values: Mapping[str, Value]
    selectable_values: Mapping[str, Value]

    def value(self, attribute: str) -> Value:
        """Raw displayed value of ``attribute``."""
        return self.values[attribute]


#: ``(columns, selectable_columns, rows)``: the positional form of an answer,
#: each row ``[tuple_id, values, selectable_values]`` where a part is a list in
#: header order, or a ``{column: value}`` object when its keys differ from the
#: header (:mod:`repro.web.jsoncodec` ships exactly this).
Rows = tuple[Sequence[str], Sequence[str], Sequence[Sequence]]


class LazyTupleSequence(Sequence[ReturnedTuple]):
    """The returned tuples of one response, each built on first read.

    A subclass holds whatever the tuples are built from and supplies
    :meth:`_build` (the tuple at one position) and :meth:`rows` (the answer
    in the positional form the JSON encoder ships).  ``len`` and truth use the
    slot list alone; indexing, slicing and iteration all go through
    :meth:`_build`, once per position.  Slices return plain tuples.  The
    sequence compares equal, in both directions, to the tuple it
    materialises to and to any other lazy sequence listing equal tuples;
    like that tuple (whose items hold dicts) it is unhashable.

    Thread safety: each built tuple is published into the slot list with one
    item assignment, without a lock.  Two threads reading the same cold item
    may both build it; the results are equal and the last assignment wins.
    """

    __slots__ = ("_slots",)

    __hash__ = None  # type: ignore[assignment]

    def __init__(self, size: int) -> None:
        self._slots: list[ReturnedTuple | None] = [None] * size

    def _build(self, index: int) -> ReturnedTuple:  # pragma: no cover - abstract
        raise NotImplementedError

    def rows(self) -> Rows:  # pragma: no cover - abstract
        """The answer as ``(columns, selectable_columns, rows)``."""
        raise NotImplementedError

    def __len__(self) -> int:
        return len(self._slots)

    @overload
    def __getitem__(self, index: int) -> ReturnedTuple: ...

    @overload
    def __getitem__(self, index: slice) -> tuple[ReturnedTuple, ...]: ...

    def __getitem__(self, index: int | slice) -> ReturnedTuple | tuple[ReturnedTuple, ...]:
        if isinstance(index, slice):
            return tuple(self[position] for position in range(*index.indices(len(self))))
        built = self._slots[index]  # raises IndexError as the tuple would
        if built is None:
            built = self._slots[index] = self._build(index)
        return built

    def __iter__(self) -> Iterator[ReturnedTuple]:
        for position in range(len(self)):
            yield self[position]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (tuple, LazyTupleSequence)):
            return self[:] == other[:]
        return NotImplemented

    def __repr__(self) -> str:
        return repr(self[:])


class WireTuples(LazyTupleSequence):
    """The returned tuples of one answer held as positional rows.

    Holds an answer's :data:`Rows`, already decoded and checked — a JSON
    wire payload (:func:`repro.web.jsoncodec.response_from_dict`) or a
    scraped result page (:class:`~repro.backends.adapters.WebPageBackend`)
    — so building a tuple is one ``dict(zip(...))`` per part (or one
    ``dict`` copy of an object part) and cannot fail.  :meth:`rows` hands
    the rows back as they are, so a server or a site that re-serves the
    answer writes it without building a tuple.
    """

    __slots__ = ("_columns", "_selectable_columns", "_rows")

    def __init__(
        self, columns: list[str], selectable_columns: list[str], rows: list[list]
    ) -> None:
        self._columns = columns
        self._selectable_columns = selectable_columns
        self._rows = rows
        super().__init__(len(rows))

    def rows(self) -> Rows:
        return self._columns, self._selectable_columns, self._rows

    def _build(self, index: int) -> ReturnedTuple:
        tuple_id, values, selectable = self._rows[index]
        return ReturnedTuple(
            tuple_id=tuple_id,
            values=_keyed(values, self._columns),
            selectable_values=_keyed(selectable, self._selectable_columns),
        )


def _keyed(part: list | dict, header: list[str]) -> dict:
    return dict(part) if type(part) is dict else dict(zip(header, part))


def _positional(part: Mapping, header: list[str]) -> list | dict:
    """``part`` as a list in header order, or as an object when its keys differ."""
    return list(part.values()) if list(part) == header else dict(part)


def positional_rows(tuples: Sequence[ReturnedTuple]) -> Rows:
    """Any answer's tuples as :data:`Rows`.

    A lazy answer lists its rows without building a tuple; any other
    sequence goes through a loop over its tuples, headed by the first
    tuple's keys.
    """
    if isinstance(tuples, LazyTupleSequence):
        return tuples.rows()
    if not tuples:
        return [], [], []
    columns = list(tuples[0].values)
    selectable_columns = list(tuples[0].selectable_values)
    rows = [
        [
            t.tuple_id,
            _positional(t.values, columns),
            _positional(t.selectable_values, selectable_columns),
        ]
        for t in tuples
    ]
    return columns, selectable_columns, rows


@dataclass(frozen=True)
class InterfaceResponse:
    """Everything a client learns from submitting one query.

    ``tuples`` is a read-only sequence of the listed tuples, best-ranked
    first.  Engine, shard, wire and page answers hold a
    :class:`LazyTupleSequence` (:class:`~repro.backends.adapters.LazyTuples`,
    :class:`WireTuples`), which builds each tuple on first read and compares
    equal to the tuple it materialises to; answers assembled from other
    answers' tuples (history inferences and restores, a shard merge by
    key) hold a plain tuple.
    """

    query: ConjunctiveQuery
    tuples: Sequence[ReturnedTuple]
    overflow: bool
    reported_count: int | None
    k: int

    @property
    def empty(self) -> bool:
        """True when the result page listed no tuples."""
        return not self.tuples

    @property
    def valid(self) -> bool:
        """True when the query returned 1..k tuples without overflow."""
        return bool(self.tuples) and not self.overflow


@dataclass
class InterfaceStatistics:
    """Counters describing the interaction history with the interface."""

    queries_issued: int = 0
    empty_results: int = 0
    valid_results: int = 0
    overflow_results: int = 0
    tuples_returned: int = 0

    def record(self, response: InterfaceResponse) -> None:
        """Update the counters with one response."""
        returned = len(response.tuples)
        self.queries_issued += 1
        self.tuples_returned += returned
        if not returned:
            self.empty_results += 1
        elif response.overflow:
            self.overflow_results += 1
        else:
            self.valid_results += 1

    def as_dict(self) -> dict[str, int]:
        """Plain-dict view used by reports and benchmarks."""
        return {
            "queries_issued": self.queries_issued,
            "empty_results": self.empty_results,
            "valid_results": self.valid_results,
            "overflow_results": self.overflow_results,
            "tuples_returned": self.tuples_returned,
        }


@runtime_checkable
class HiddenDatabase(Protocol):
    """Structural protocol every hidden-database access path implements.

    Both :class:`HiddenDatabaseInterface` (direct, in-process) and
    :class:`repro.web.client.WebFormClient` (through rendered HTML) satisfy
    this protocol, so samplers and the HDSampler core are written against it.
    """

    @property
    def schema(self) -> Schema:  # pragma: no cover - protocol declaration
        ...

    @property
    def k(self) -> int:  # pragma: no cover - protocol declaration
        ...

    def submit(self, query: ConjunctiveQuery) -> InterfaceResponse:  # pragma: no cover
        ...


class HiddenDatabaseInterface:
    """Direct in-process implementation of the web form interface contract.

    Since the backend-stack refactor this class is a thin facade over the
    composable access path of :mod:`repro.backends`: a
    :class:`~repro.backends.adapters.QueryEngineBackend`, shaping its counts
    as ``count_mode`` asks, under the one
    :class:`~repro.backends.layers.AccountingLayer` of the path.  Its public
    contract — constructor signature (count modes included), ``submit``
    semantics, ``statistics``, ``budget``, operator-side helpers — is
    unchanged.

    Parameters
    ----------
    table:
        The hidden back-end table.
    k:
        Top-``k`` display limit of the interface.
    ranking:
        Proprietary ranking function; defaults to row-id order.
    count_mode:
        Whether result counts are absent, exact, or noisy.
    count_noise:
        Relative noise magnitude for :attr:`CountMode.NOISY` (0.3 means the
        reported count is uniform in ±30% of the truth).
    budget:
        Optional per-client query budget; exceeded budgets raise
        :class:`~repro.exceptions.QueryBudgetExceededError`.
    display_columns:
        Extra non-searchable columns shown on result pages (e.g. a title).
    seed:
        Seed for the count-noise generator.
    use_index:
        Forwarded to :class:`~repro.database.engine.QueryEngine`; false forces
        the naive full-scan evaluation (the equivalence oracle in tests).
    """

    def __init__(
        self,
        table: Table,
        k: int,
        ranking: RankingFunction | None = None,
        count_mode: CountMode = CountMode.NONE,
        count_noise: float = 0.3,
        budget: QueryBudget | None = None,
        display_columns: Sequence[str] = (),
        seed: int | random.Random | None = 0,
        use_index: bool = True,
    ) -> None:
        from repro.backends.stack import engine_stack

        self.stack = engine_stack(
            table,
            k,
            ranking=ranking,
            count_mode=count_mode,
            count_noise=count_noise,
            budget=budget,
            display_columns=display_columns,
            seed=seed,
            use_index=use_index,
        )

    # -- contract ------------------------------------------------------------

    @property
    def schema(self) -> Schema:
        """The searchable schema advertised by the form."""
        return self.stack.schema

    @property
    def k(self) -> int:
        """The top-``k`` display limit."""
        return self.stack.k

    def submit(self, query: ConjunctiveQuery) -> InterfaceResponse:
        """Submit one conjunctive query and return the visible result page.

        The accounting layer charges before the engine executes; a budget
        violation leaves the database untouched and raises.
        """
        return self.stack.submit(query)

    # -- layer-backed accessors ----------------------------------------------

    @property
    def statistics(self) -> InterfaceStatistics:
        """Counters of the path's single accounting layer."""
        statistics = self.stack.statistics
        assert statistics is not None
        return statistics

    @property
    def budget(self) -> QueryBudget:
        """The per-client query budget charged on every submission."""
        budget = self.stack.budget
        assert budget is not None
        return budget

    @property
    def display_columns(self) -> tuple[str, ...]:
        """Extra non-searchable columns shown on result pages."""
        return self.stack.raw.display_columns  # type: ignore[attr-defined]

    # -- operator-side helpers (not available to samplers) ----------------------

    def true_count(self, query: ConjunctiveQuery) -> int:
        """Exact match count; for validation/ground truth only, never sampling."""
        return self.stack.raw.true_count(query)  # type: ignore[attr-defined]

    @property
    def table(self) -> Table:
        """The hidden table itself; for validation/ground truth only."""
        return self.stack.raw.table  # type: ignore[attr-defined]

    def reset_statistics(self) -> None:
        """Clear interaction counters (budget is left untouched)."""
        from repro.backends.layers import AccountingLayer

        layer = self.stack.layer(AccountingLayer)
        assert layer is not None
        layer.reset()
