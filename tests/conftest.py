"""Shared fixtures: small hidden databases with known ground truth."""

from __future__ import annotations

import pytest

from repro.database.index import RankCache
from repro.database.interface import CountMode, HiddenDatabaseInterface
from repro.database.ranking import RowIdRanking, StaticScoreRanking
from repro.database.schema import Attribute, Domain, Schema
from repro.database.table import Table
from repro.datasets.boolean import BooleanConfig, figure1_table, generate_boolean_table
from repro.datasets.vehicles import VehiclesConfig, generate_vehicles_table


@pytest.fixture()
def tiny_schema() -> Schema:
    """A 3-attribute mixed schema small enough to enumerate by hand."""
    return Schema(
        [
            Attribute("make", Domain.categorical(("Toyota", "Honda", "Ford"))),
            Attribute("color", Domain.categorical(("red", "blue"))),
            Attribute("price", Domain.numeric_buckets((0.0, 10_000.0, 20_000.0, 40_000.0))),
        ],
        name="tiny",
    )


@pytest.fixture()
def tiny_table(tiny_schema: Schema) -> Table:
    """Eight rows over the tiny schema with easy-to-check marginals."""
    rows = [
        {"make": "Toyota", "color": "red", "price": 5_000.0, "score": 10.0},
        {"make": "Toyota", "color": "blue", "price": 15_000.0, "score": 9.0},
        {"make": "Toyota", "color": "red", "price": 25_000.0, "score": 8.0},
        {"make": "Toyota", "color": "blue", "price": 5_000.0, "score": 7.0},
        {"make": "Honda", "color": "red", "price": 15_000.0, "score": 6.0},
        {"make": "Honda", "color": "blue", "price": 25_000.0, "score": 5.0},
        {"make": "Ford", "color": "red", "price": 5_000.0, "score": 4.0},
        {"make": "Ford", "color": "blue", "price": 35_000.0, "score": 3.0},
    ]
    return Table(tiny_schema, rows, name="tiny")


@pytest.fixture()
def tiny_interface(tiny_table: Table) -> HiddenDatabaseInterface:
    """Interface over the tiny table with k=2 so overflow happens readily."""
    return HiddenDatabaseInterface(
        tiny_table, k=2, ranking=StaticScoreRanking(), count_mode=CountMode.EXACT, seed=0
    )


@pytest.fixture()
def figure1() -> Table:
    """The exact boolean database of the paper's Figure 1."""
    return figure1_table()


@pytest.fixture()
def figure1_interface(figure1: Table) -> HiddenDatabaseInterface:
    """Figure 1 behind a k=1 interface (the setting of the SIGMOD'07 analysis)."""
    return HiddenDatabaseInterface(figure1, k=1, ranking=RowIdRanking(), seed=0)


@pytest.fixture(scope="session")
def boolean_table() -> Table:
    """A medium boolean database reused by sampler statistics tests."""
    return generate_boolean_table(BooleanConfig(n_rows=400, n_attributes=6, seed=7))


@pytest.fixture(scope="session")
def small_vehicles_table() -> Table:
    """A small vehicle catalogue reused across integration tests."""
    return generate_vehicles_table(VehiclesConfig(n_rows=1_500, seed=11))


@pytest.fixture()
def bit_scans(monkeypatch) -> list[int]:
    """The ``k`` of every :meth:`RankCache.first` bit scan run, in order."""
    scans: list[int] = []
    original = RankCache.first

    def counting(self, mask, k):
        scans.append(k)
        return original(self, mask, k)

    monkeypatch.setattr(RankCache, "first", counting)
    return scans
