"""Wire format 2: answers travel as positional rows and decode lazily.

The server encodes a lazy answer straight from its rows
(:meth:`LazyTuples.rows`) and every other answer through the loop over its
tuples; the client checks the whole payload, then builds each tuple only
when something reads it (:class:`WireTuples`).  Checked here: both encoders
agree, anything encoded survives real JSON text with its key order and value
types, nothing is built until read, the three sequence kinds compare equal
in both directions, and every mis-typed field raises :class:`FormParseError`
at decode time.
"""

import dataclasses
import json
import random
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends import QueryEngineBackend, RemoteBackend, engine_stack
from repro.backends import adapters as adapters_module
from repro.backends.adapters import LazyTuples
from repro.database import interface as interface_module
from repro.database.interface import InterfaceResponse, ReturnedTuple
from repro.database.query import ConjunctiveQuery
from repro.database.schema import Attribute, Domain, Schema
from repro.database.table import Table
from repro.exceptions import FormParseError
from repro.web.httpd import HiddenDatabaseHTTPServer
from repro.web.jsoncodec import WireTuples, response_from_dict, response_to_dict

SCHEMA = Schema(
    [
        Attribute("make", Domain.categorical(("Toyota", "Honda"))),
        Attribute("doors", Domain.categorical((2, 4))),
    ],
    name="wire",
)


def _text(response: InterfaceResponse) -> str:
    return json.dumps(response_to_dict(response))


def _decoded(schema: Schema, response: InterfaceResponse) -> InterfaceResponse:
    return response_from_dict(schema, json.loads(_text(response)))


def _exactly(tuples) -> list:
    """Each tuple with its key order and value types spelled out."""
    return [
        (
            t.tuple_id,
            [(key, type(value), value) for key, value in t.values.items()],
            [(key, type(value), value) for key, value in t.selectable_values.items()],
        )
        for t in tuples
    ]


def _queries(schema: Schema, count: int, seed: int = 0) -> list[ConjunctiveQuery]:
    rng = random.Random(seed)
    queries = [ConjunctiveQuery.empty(schema)]
    for _ in range(count):
        assignment = {}
        for attribute in schema:
            if rng.random() < 0.3:
                assignment[attribute.name] = rng.choice(attribute.domain.values)
        queries.append(ConjunctiveQuery.from_assignment(schema, assignment))
    return queries


# -- hypothesis round trip ----------------------------------------------------------

_CELLS = st.one_of(
    st.booleans(),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.floats(allow_nan=False),
    st.text(),
)
_NAMES = st.sampled_from(["make", "doors", "price", "title", "Überschrift", "名前", ""])


@st.composite
def _parts(draw, header):
    """A tuple part: usually exactly the header, sometimes any key set."""
    if draw(st.booleans()):
        return {name: draw(_CELLS) for name in header}
    if header and draw(st.booleans()):  # a row missing a display column
        return {name: draw(_CELLS) for name in header[:-1]}
    return draw(st.dictionaries(_NAMES, _CELLS, max_size=5))


@st.composite
def _answers(draw):
    header = draw(st.lists(_NAMES, unique=True, min_size=1, max_size=5))
    selectable_header = draw(st.lists(_NAMES, unique=True, min_size=1, max_size=3))
    tuples = tuple(
        ReturnedTuple(
            tuple_id=draw(st.integers(min_value=0, max_value=2**40)),
            values=draw(_parts(header)),
            selectable_values=draw(_parts(selectable_header)),
        )
        for _ in range(draw(st.integers(min_value=0, max_value=6)))
    )
    return InterfaceResponse(
        query=ConjunctiveQuery.empty(SCHEMA),
        tuples=tuples,
        overflow=bool(tuples) and draw(st.booleans()),
        reported_count=draw(st.none() | st.integers(min_value=0, max_value=10**6)),
        k=draw(st.integers(min_value=1, max_value=100)),
    )


class TestRoundTrip:
    @given(response=_answers())
    @settings(max_examples=200, deadline=None)
    def test_any_answer_round_trips_through_json_text(self, response):
        text = _text(response)
        decoded = response_from_dict(SCHEMA, json.loads(text))
        assert isinstance(decoded.tuples, WireTuples)
        assert decoded == response
        assert _exactly(decoded.tuples) == _exactly(response.tuples)
        assert (decoded.overflow, decoded.reported_count, decoded.k) == (
            response.overflow,
            response.reported_count,
            response.k,
        )
        # A decoded answer re-encodes from its rows to the same text.
        assert _text(decoded) == text

    def test_uniform_rows_travel_as_lists_and_odd_ones_as_objects(self):
        full = ReturnedTuple(1, {"make": "Honda", "title": "a"}, {"make": "Honda"})
        short = ReturnedTuple(2, {"make": "Honda"}, {"make": "Honda"})
        swapped = ReturnedTuple(3, {"title": "b", "make": "Honda"}, {"make": "Honda"})
        payload = response_to_dict(
            InterfaceResponse(ConjunctiveQuery.empty(SCHEMA), (full, short, swapped), False, 3, 5)
        )
        assert payload["columns"] == ["make", "title"]
        assert payload["selectable_columns"] == ["make"]
        assert payload["rows"] == [
            [1, ["Honda", "a"], ["Honda"]],
            [2, {"make": "Honda"}, ["Honda"]],
            [3, {"title": "b", "make": "Honda"}, ["Honda"]],
        ]


# -- the two encoders ---------------------------------------------------------------


@pytest.fixture()
def sparse_table():
    """Rows of which only some carry the ``note`` display column."""
    rows = [
        {"make": "Toyota", "doors": 2, "title": "t0", "note": "n0"},
        {"make": "Honda", "doors": 4, "title": "t1"},
        {"make": "Toyota", "doors": 4, "title": "t2", "note": "n2"},
        {"make": "Honda", "doors": 2, "title": "t3", "note": "n3"},
        {"make": "Toyota", "doors": 2, "title": "t4"},
    ]
    return Table(SCHEMA, rows, name="sparse")


def _plain(response: InterfaceResponse) -> InterfaceResponse:
    return dataclasses.replace(response, tuples=tuple(response.tuples))


class TestRowsAgainstTheTupleLoop:
    def test_full_rows_encode_byte_identically(self, small_vehicles_table):
        table = small_vehicles_table
        for display in ((), ("title",), ("title", "score")):
            backend = QueryEngineBackend(table, k=20, display_columns=display)
            for query in _queries(table.schema, 40):
                response = backend.submit(query)
                assert isinstance(response.tuples, LazyTuples)
                assert _text(response) == _text(_plain(response))
                assert _decoded(table.schema, response) == response

    def test_rows_missing_a_display_column_decode_alike(self, sparse_table):
        backend = QueryEngineBackend(sparse_table, k=5, display_columns=("title", "note"))
        seen_objects = False
        for query in _queries(SCHEMA, 20):
            response = backend.submit(query)
            from_rows = _decoded(SCHEMA, response)
            from_loop = _decoded(SCHEMA, _plain(response))
            assert from_rows == from_loop == response
            assert _exactly(from_rows.tuples) == _exactly(from_loop.tuples)
            assert _exactly(from_rows.tuples) == _exactly(response.tuples)
            seen_objects |= any(
                type(row[1]) is dict for row in response_to_dict(response)["rows"]
            )
        assert seen_objects

    def test_one_column_header(self):
        schema = Schema([Attribute("make", Domain.categorical(("Toyota", "Honda")))])
        table = Table(schema, [{"make": "Honda"}, {"make": "Toyota"}])
        response = QueryEngineBackend(table, k=5).submit(ConjunctiveQuery.empty(schema))
        rows = response_to_dict(response)["rows"]
        assert rows == [[0, ["Honda"], ["Honda"]], [1, ["Toyota"], ["Toyota"]]]
        assert _text(response) == _text(_plain(response))


# -- laziness -----------------------------------------------------------------------


@pytest.fixture()
def built(monkeypatch):
    """Counts the tuples the engine adapter and the wire decoder build."""
    counter = {"server": 0, "client": 0}

    def counting(side):
        def build(*args, **kwargs):
            counter[side] += 1
            return ReturnedTuple(*args, **kwargs)

        return build

    monkeypatch.setattr(adapters_module, "ReturnedTuple", counting("server"))
    monkeypatch.setattr(interface_module, "ReturnedTuple", counting("client"))
    return counter


class TestNothingIsBuiltUntilRead:
    def test_decoding_an_overflowing_answer_builds_no_tuples(self, small_vehicles_table, built):
        table = small_vehicles_table
        response = QueryEngineBackend(table, k=50).submit(ConjunctiveQuery.empty(table.schema))
        decoded = _decoded(table.schema, response)
        assert decoded.overflow and not decoded.valid and not decoded.empty
        assert len(decoded.tuples) == 50
        assert built == {"server": 0, "client": 0}
        first = decoded.tuples[7]
        assert built["client"] == 1
        assert decoded.tuples[7] is first and decoded.tuples[-43] is first
        assert built["client"] == 1
        assert first == response.tuples[7]

    def test_an_overflowing_answer_crosses_the_socket_unbuilt(self, small_vehicles_table, built):
        table = small_vehicles_table
        query = ConjunctiveQuery.empty(table.schema)
        served = engine_stack(table, k=50, display_columns=("title",), statistics=False)
        with HiddenDatabaseHTTPServer(served) as server, RemoteBackend(server.url) as client:
            response = client.submit(query)
            assert response.overflow and len(response.tuples) == 50
            assert built == {"server": 0, "client": 0}
            assert response == served.submit(query)


class TestConcurrentFirstReads:
    def test_eight_threads_reading_one_cold_decoded_answer_get_equal_tuples(
        self, small_vehicles_table
    ):
        table = small_vehicles_table
        response = QueryEngineBackend(table, k=100, display_columns=("title",)).submit(
            ConjunctiveQuery.empty(table.schema)
        )
        tuples = _decoded(table.schema, response).tuples
        barrier = threading.Barrier(8)
        seen = [None] * 8

        def read(slot):
            barrier.wait()
            seen[slot] = [tuples[position] for position in range(len(tuples))]

        threads = [threading.Thread(target=read, args=(slot,)) for slot in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # interleave the cold builds as finely as possible
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        expected = list(response.tuples)
        assert all(reads == expected for reads in seen)
        assert list(tuples) == expected


# -- equality -----------------------------------------------------------------------


class TestEquality:
    def test_wire_lazy_and_plain_sequences_compare_both_ways(self, small_vehicles_table):
        table = small_vehicles_table
        backend = QueryEngineBackend(table, k=10, display_columns=("title",))
        query = ConjunctiveQuery.from_assignment(table.schema, {"color": "red"})
        lazy = backend.submit(query).tuples
        wire = _decoded(table.schema, backend.submit(query)).tuples
        plain = tuple(backend.submit(query).tuples)
        for left, right in ((wire, lazy), (wire, plain), (lazy, plain)):
            assert left == right and right == left
            assert not (left != right) and not (right != left)
        other = backend.submit(ConjunctiveQuery.from_assignment(table.schema, {"color": "blue"}))
        other_wire = _decoded(table.schema, other).tuples
        for sequence in (lazy, plain):
            assert other_wire != sequence and sequence != other_wire
        assert wire != list(wire) and list(wire) != wire  # as a tuple would
        assert wire[2:5] == plain[2:5] and type(wire[2:5]) is tuple
        assert repr(wire) == repr(plain)
        with pytest.raises(TypeError):
            hash(wire)

    def test_empty_sequences(self, tiny_table):
        empty_wire = WireTuples([], [], [])
        empty_lazy = adapters_module.build_returned_tuples(tiny_table, [])
        assert empty_wire == empty_lazy and empty_lazy == empty_wire
        assert empty_wire == () and () == empty_wire
        assert not empty_wire and len(empty_wire) == 0
        assert empty_lazy.rows() == ([], [], [])


# -- eager validation ---------------------------------------------------------------


def _good_payload(backend) -> dict:
    return json.loads(_text(backend.submit(ConjunctiveQuery.empty(backend.schema))))


def _set(field, value):
    def mutate(payload):
        payload[field] = value

    return mutate


def _set_row(position, value):
    def mutate(payload):
        payload["rows"][0][position] = value

    return mutate


MALFORMED = {
    "overflow-string": _set("overflow", "false"),
    "overflow-int": _set("overflow", 0),
    "overflow-null": _set("overflow", None),
    "k-float": _set("k", 49.7),
    "k-bool": _set("k", True),
    "k-zero": _set("k", 0),
    "k-string": _set("k", "50"),
    "count-float": _set("reported_count", 4999.9),
    "count-bool": _set("reported_count", False),
    "count-negative": _set("reported_count", -1),
    "count-string": _set("reported_count", "many"),
    "columns-null": _set("columns", None),
    "columns-not-strings": _set("columns", ["make", 3, "price"]),
    "selectable-columns-missing": lambda payload: payload.pop("selectable_columns"),
    "rows-object": _set("rows", {"0": []}),
    "row-not-a-list": lambda payload: payload["rows"].__setitem__(0, "row"),
    "row-too-long": lambda payload: payload["rows"][0].append([]),
    "id-float": _set_row(0, 1.0),
    "id-bool": _set_row(0, True),
    "id-negative": _set_row(0, -3),
    "id-string": _set_row(0, "7"),
    "values-short": lambda payload: payload["rows"][0][1].pop(),
    "values-long": lambda payload: payload["rows"][0][1].append(1),
    "values-string": _set_row(1, "Toyota"),
    "selectable-short": lambda payload: payload["rows"][0][2].pop(),
    "selectable-null": _set_row(2, None),
}


class TestEagerValidation:
    @pytest.fixture()
    def backend(self, tiny_table):
        return QueryEngineBackend(tiny_table, k=3, display_columns=("score",))

    @pytest.mark.parametrize("label", sorted(MALFORMED))
    def test_mis_typed_fields_raise_at_decode(self, backend, label):
        payload = _good_payload(backend)
        MALFORMED[label](payload)
        with pytest.raises(FormParseError, match="malformed"):
            response_from_dict(backend.schema, payload)

    def test_null_count_and_object_parts_are_well_formed(self, backend):
        payload = _good_payload(backend)
        payload["reported_count"] = None
        payload["rows"][0][1] = {"make": "Toyota"}
        payload["rows"][0][2] = {}
        decoded = response_from_dict(backend.schema, payload)
        assert decoded.reported_count is None
        assert decoded.tuples[0].values == {"make": "Toyota"}
        assert decoded.tuples[0].selectable_values == {}

    def test_a_version_1_payload_gets_the_version_error(self, backend):
        payload = _good_payload(backend)
        payload["version"] = 1
        with pytest.raises(FormParseError, match="wire version 1, this client speaks 2"):
            response_from_dict(backend.schema, payload)
