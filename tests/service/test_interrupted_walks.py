"""A walk cut mid-way and re-entered replays itself: the stream never changes.

A deadline that expires inside a walk (the scenario harness re-enters
``run_all`` after each :class:`~repro.exceptions.DeadlineExceededError`) and
an open circuit that parks a job mid-walk — a local breaker's, or a server's
relayed over the wire — all abandon a walk after it drew from the sampler's
RNG.  The generator rewinds the RNG to where the walk
started, so the re-entered job draws the same walk again and the history
answers its already-paid prefix.  The probe cuts a 60-sample job at every
n-th raw submission and compares it with the uncut job position by position.
"""

import pytest

from repro.backends import (
    BackendStack,
    CircuitBreakerLayer,
    CircuitBreakerPolicy,
    Deadline,
    deadline_scope,
    engine_stack,
)
from repro.core.config import HDSamplerConfig, SamplerAlgorithm
from repro.core.tradeoff import TradeoffSlider
from repro.database.interface import CountMode
from repro.datasets.vehicles import default_vehicles_ranking
from repro.exceptions import CircuitOpenError, DeadlineExceededError
from repro.service import SamplingService
from repro.web.httpd import HiddenDatabaseHTTPServer

N_SAMPLES = 60
SCOPE = ("make", "color", "body_style", "condition", "year")


class CuttingBackend:
    """Raw-contract shim that raises ``fault()`` on every ``every``-th submission."""

    def __init__(self, inner, every, fault):
        self.inner = inner
        self.every = every
        self.fault = fault
        self.submits = 0
        self.cuts = 0

    @property
    def schema(self):
        return self.inner.schema

    @property
    def k(self):
        return self.inner.k

    def submit(self, query):
        self.submits += 1
        if self.submits % self.every == 0:
            self.cuts += 1
            raise self.fault()
        return self.inner.submit(query)


def _raw(table, count_mode=CountMode.NONE):
    return engine_stack(
        table, k=10, ranking=default_vehicles_ranking(),
        count_mode=count_mode, statistics=False,
    ).top


def _config(algorithm=SamplerAlgorithm.RANDOM_WALK):
    return HDSamplerConfig(
        n_samples=N_SAMPLES, attributes=SCOPE, tradeoff=TradeoffSlider(0.5),
        algorithm=algorithm, seed=5,
    )


def _stream(job):
    return [record.tuple_id for record in job.result().samples]


def _uncut(backend, algorithm=SamplerAlgorithm.RANDOM_WALK):
    service = SamplingService(backend)
    job = service.submit(_config(algorithm))
    service.run_all()
    assert job.done
    return job


class TestDeadlineCuts:
    @pytest.mark.parametrize("every", [7, 13, 29])
    @pytest.mark.parametrize(
        "algorithm, count_mode",
        [
            (SamplerAlgorithm.RANDOM_WALK, CountMode.NONE),
            (SamplerAlgorithm.COUNT_AIDED, CountMode.EXACT),
        ],
        ids=["random_walk", "count_aided"],
    )
    def test_a_re_driven_job_equals_the_uncut_stream(
        self, small_vehicles_table, every, algorithm, count_mode
    ):
        uncut_job = _uncut(_raw(small_vehicles_table, count_mode), algorithm)
        uncut = _stream(uncut_job)
        cutter = CuttingBackend(
            _raw(small_vehicles_table, count_mode), every, lambda: DeadlineExceededError("cut")
        )
        service = SamplingService(cutter)
        job = service.submit(_config(algorithm))
        interruptions = 0
        while not job.done:
            # The scenario harness's shape: each stint runs under a fresh
            # deadline and is re-entered after the error escapes.
            try:
                with deadline_scope(Deadline.after(3600.0)):
                    service.run_all()
            except DeadlineExceededError:
                interruptions += 1
        assert interruptions == cutter.cuts > 0
        cut = _stream(job)
        assert len(cut) == len(uncut) == N_SAMPLES
        assert sum(a == b for a, b in zip(cut, uncut)) == N_SAMPLES
        # A cut walk is charged once, when its replay returns, so an attempt
        # cap binds the cut job exactly where it binds the uncut one.
        assert job.session.attempts == uncut_job.session.attempts

    def test_without_a_deadline_the_rng_is_not_snapshotted(
        self, small_vehicles_table, monkeypatch
    ):
        service = SamplingService(_raw(small_vehicles_table))
        job = service.submit(_config())
        rng = job.session.generator.sampler.rng
        calls = []
        monkeypatch.setattr(rng, "getstate", lambda: calls.append(1))
        service.run_all()
        assert job.done and calls == []


class TestParkedCuts:
    @pytest.mark.parametrize("every", [7, 13, 29])
    def test_a_job_parked_mid_walk_resumes_the_same_walk(self, small_vehicles_table, every):
        uncut = _stream(_uncut(_raw(small_vehicles_table)))
        # An open circuit reported from below a breaker-carrying chain, as a
        # relayed server-side breaker would: the job parks, then revives.
        cutter = CuttingBackend(
            _raw(small_vehicles_table), every, lambda: CircuitOpenError(retry_after=0.0)
        )
        guarded = BackendStack(
            cutter,
            [
                lambda inner: CircuitBreakerLayer(
                    inner,
                    policy=CircuitBreakerPolicy(window=4, failure_threshold=4, reset_timeout=0.01),
                )
            ],
        )
        service = SamplingService(guarded)
        job = service.submit(_config())
        for _ in range(1000):
            if job.done:
                break
            service.run_all(recovery_timeout=1.0)
        assert cutter.cuts > 0
        cut = _stream(job)
        assert len(cut) == len(uncut) == N_SAMPLES
        assert sum(a == b for a, b in zip(cut, uncut)) == N_SAMPLES

    @pytest.mark.parametrize("every", [7, 13, 29])
    def test_a_job_parked_by_a_relayed_open_circuit_resumes_the_same_walk(
        self, small_vehicles_table, every
    ):
        uncut = _stream(_uncut(_raw(small_vehicles_table)))
        # The server's chain raises the open circuit; the client has no
        # breaker of its own, only the 503 it re-raises as CircuitOpenError.
        # A millisecond hint parks the job briefly (a zero hint parks it
        # for the default second).
        cutter = CuttingBackend(
            _raw(small_vehicles_table), every, lambda: CircuitOpenError(retry_after=0.001)
        )
        with HiddenDatabaseHTTPServer(cutter) as server:
            service = SamplingService(server.url)
            job = service.submit(_config())
            for _ in range(1000):
                if job.done:
                    break
                service.run_all(recovery_timeout=1.0)
        assert cutter.cuts > 0
        cut = _stream(job)
        assert len(cut) == len(uncut) == N_SAMPLES
        assert sum(a == b for a, b in zip(cut, uncut)) == N_SAMPLES
