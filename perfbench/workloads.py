"""The three sampling workloads, driven through the program's public API.

Each workload owns its generated rows (made once per run from the workload
seed, outside every timing) and knows how to

* :meth:`~Workload.setup` a deployment — from rows in memory to the first
  answered query: ``Table`` and its index, the rank cache, the backend
  stack, plus the HTTP server and the client's schema fetch, or the web site
  and the client's form discovery;
* :meth:`~Workload.prepare` repeat ``r`` over a deployment — a fresh
  :class:`~repro.service.SamplingService` and fresh jobs whose seeds derive
  from the workload seed and ``r``, so every execution of the same repeat
  index samples exactly the same stream.

Sizes are part of each workload's definition: changing them changes what
the pinned digests and counts mean.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable

from repro.backends.stack import engine_stack, remote_stack, sharded_stack
from repro.core.config import HDSamplerConfig, SamplerAlgorithm
from repro.core.tradeoff import TradeoffSlider
from repro.database.interface import CountMode
from repro.database.query import ConjunctiveQuery
from repro.database.table import Table
from repro.datasets.vehicles import (
    VehiclesConfig,
    default_vehicles_ranking,
    generate_vehicles_table,
)
from repro.service import SamplingService
from repro.web.client import WebFormClient
from repro.web.httpd import HiddenDatabaseHTTPServer
from repro.web.server import HiddenWebSite


def derive_seed(*parts: object) -> int:
    """A 31-bit seed that depends only on ``parts`` (stable across processes)."""
    return random.Random(":".join(str(part) for part in parts)).getrandbits(31)


@dataclass
class Deployment:
    """What one set-up built: the table, the ranking that keys its rank cache, extras."""

    table: Table
    ranking: object
    server: HiddenDatabaseHTTPServer | None = None

    def close(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None


@dataclass
class Repeat:
    """One prepared repeat: a fresh service with its jobs submitted, not yet run.

    ``access`` is the client-side access path whose single statistics layer
    counts the interface queries that reached the hidden database.
    """

    service: SamplingService
    jobs: list
    access: object
    close: Callable[[], None] = field(default=lambda: None)


class Workload:
    """Base: generated rows, set-up, and per-repeat preparation."""

    name = ""
    n_rows = 0
    #: Distinct repeat indices in one cycle; a run executes whole cycles
    #: first, then keeps cycling for the rest of its measuring window.
    repeats_per_cycle = 0
    #: Attributes whose sampled marginals ``skew_tvd`` compares with the table.
    scope: tuple[str, ...] = ()

    def __init__(self, seed: int) -> None:
        self.seed = seed
        generated = generate_vehicles_table(
            VehiclesConfig(n_rows=self.n_rows, seed=derive_seed(seed, self.name, "table"))
        )
        self.schema = generated.schema
        self.rows = generated.rows
        self._first_query = ConjunctiveQuery.empty(self.schema)

    def setup(self) -> Deployment:
        raise NotImplementedError

    def prepare(self, deployment: Deployment, r: int) -> Repeat:
        raise NotImplementedError

    def _table(self) -> tuple[Table, object]:
        return Table(self.schema, self.rows, name="vehicles"), default_vehicles_ranking()


class LocalWalk(Workload):
    """One random-walk job over the in-process engine stack at 50k rows."""

    name = "local_walk"
    n_rows = 50_000
    repeats_per_cycle = 20
    samples_per_job = 40
    scope = ("make", "color", "body_style", "condition", "year")

    def _stack(self, deployment: Deployment):
        return engine_stack(
            deployment.table, k=100, ranking=deployment.ranking, display_columns=("title",)
        )

    def setup(self) -> Deployment:
        table, ranking = self._table()
        deployment = Deployment(table, ranking)
        self._stack(deployment).submit(self._first_query)
        return deployment

    def prepare(self, deployment: Deployment, r: int) -> Repeat:
        stack = self._stack(deployment)
        service = SamplingService(stack)
        job = service.submit(
            HDSamplerConfig(
                n_samples=self.samples_per_job,
                attributes=self.scope,
                tradeoff=TradeoffSlider(0.5),
                seed=derive_seed(self.seed, self.name, r, 0),
            )
        )
        return Repeat(service, [job], stack)


class RemoteJobs(Workload):
    """Four interleaved analyst jobs over loopback HTTP against a 5k-row engine."""

    name = "remote_jobs"
    n_rows = 5_000
    repeats_per_cycle = 16
    samples_per_job = 25
    #: Job j samples job_scopes[j]; jobs 2j and 2j+1 share a seed, and the
    #: scopes overlap, so the service-shared history answers across jobs.
    job_scopes = (
        ("make", "color", "body_style"),
        ("make", "color", "condition"),
        ("color", "body_style", "year"),
        ("make", "body_style", "condition"),
    )
    scope = ("make", "color", "body_style", "condition", "year")

    def setup(self) -> Deployment:
        table, ranking = self._table()
        served = engine_stack(
            table, k=50, ranking=ranking, display_columns=("title",), statistics=False
        )
        deployment = Deployment(table, ranking, server=HiddenDatabaseHTTPServer(served).start())
        client = remote_stack(deployment.server.url)
        client.submit(self._first_query)
        client.raw.close()
        return deployment

    def prepare(self, deployment: Deployment, r: int) -> Repeat:
        service = SamplingService(deployment.server.url)
        jobs = [
            service.submit(
                HDSamplerConfig(
                    n_samples=self.samples_per_job,
                    attributes=attributes,
                    tradeoff=TradeoffSlider(0.5),
                    seed=derive_seed(self.seed, self.name, r, j // 2),
                )
            )
            for j, attributes in enumerate(self.job_scopes)
        ]
        access = service.backend()
        return Repeat(service, jobs, access, close=access.raw.close)


class WebformCounts(Workload):
    """The count-aided sampler scraping an in-process web site over 4 noisy shards."""

    name = "webform_counts"
    n_rows = 20_000
    repeats_per_cycle = 20
    samples_per_job = 4
    scope = ("make", "color", "body_style", "condition")

    def _client(self, deployment: Deployment, noise_seed: int) -> WebFormClient:
        backend = sharded_stack(
            deployment.table,
            4,
            k=20,
            ranking=deployment.ranking,
            count_mode=CountMode.NOISY,
            display_columns=("title",),
            seed=noise_seed,
            statistics=False,
        )
        return WebFormClient(HiddenWebSite(backend), self.schema, display_columns=("title",))

    def setup(self) -> Deployment:
        table, ranking = self._table()
        deployment = Deployment(table, ranking)
        self._client(deployment, derive_seed(self.seed, self.name, "setup")).submit(
            self._first_query
        )
        return deployment

    def prepare(self, deployment: Deployment, r: int) -> Repeat:
        client = self._client(deployment, derive_seed(self.seed, self.name, r, "noise"))
        service = SamplingService(client)
        job = service.submit(
            HDSamplerConfig(
                n_samples=self.samples_per_job,
                attributes=self.scope,
                algorithm=SamplerAlgorithm.COUNT_AIDED,
                seed=derive_seed(self.seed, self.name, r, 0),
            )
        )
        return Repeat(service, [job], client)


WORKLOADS: dict[str, type[Workload]] = {
    workload.name: workload for workload in (LocalWalk, RemoteJobs, WebformCounts)
}
