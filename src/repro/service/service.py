"""The long-lived sampling service: many jobs over shared backends.

The paper's demo pairs one analyst with one run; a production deployment
pairs one *service* with many concurrent analyst workloads.
:class:`SamplingService` is that long-lived object: it is bound once to one
or several named :class:`~repro.database.interface.HiddenDatabase` backends,
accepts work through :meth:`submit` (one
:class:`~repro.core.config.HDSamplerConfig` spec → one
:class:`~repro.service.job.SamplingJob`), and schedules pending jobs with
:meth:`run_all`, interleaving them round-robin one
:meth:`~repro.core.session.SamplingSession.step` at a time so every workload
makes progress at the same attempt rate — no analyst starves behind a long
job.

The old one-shot facade survives as a shim::

    HDSampler(db, config).run()
    # is now exactly
    SamplingService(db).submit(config).run()

Backends may be given as ready objects or as ``http(s)://`` URL strings —
a URL is resolved through :func:`repro.backends.stack.remote_stack`, so
``SamplingService("http://db.example:8080")`` samples a remote hidden
database served by :mod:`repro.web.httpd` with retrying fault handling,
through exactly the same job API as a local one.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Iterable, Mapping, Sequence

from repro.backends.dispatch import DispatchLayer
from repro.backends.history import HistoryLayer
from repro.backends.stack import BackendStack
from repro.core.config import HDSamplerConfig
from repro.core.result import SamplingResult
from repro.core.session import SessionState
from repro.database.interface import HiddenDatabase
from repro.exceptions import CircuitOpenError, ConfigurationError, UnknownBackendError, UnknownJobError
from repro.service.job import SamplingJob

#: Name used when the service is bound to a single anonymous backend.
DEFAULT_BACKEND = "default"

#: Signature of the :meth:`SamplingService.run_all` round hook: called with
#: the 1-based round number after each scheduler round; returning ``False``
#: stops the scheduler early.
RoundCallback = Callable[[int], object]


def _resolve_backend(backend: "HiddenDatabase | str | Sequence[str]") -> HiddenDatabase:
    """Accept a backend object as-is; resolve URL strings to remote stacks.

    A single URL becomes a :func:`~repro.backends.stack.remote_stack` — remote
    adapter under retry and accounting layers — so the service's
    accounting and job machinery work identically over the socket.  A *list*
    of URLs becomes the same builder's failover form: the first URL is the
    primary, the rest are replicas behind health-checked circuit breakers,
    and the service fails over between them transparently.
    """
    if isinstance(backend, str):
        if not backend.startswith(("http://", "https://")):
            raise ConfigurationError(
                f"string backends must be http(s):// URLs of a repro.web.httpd "
                f"endpoint, got {backend!r}"
            )
    elif isinstance(backend, (list, tuple)):
        bad = [url for url in backend if not (isinstance(url, str) and url.startswith(("http://", "https://")))]
        if bad or not backend:
            raise ConfigurationError(
                f"list backends must be non-empty lists of http(s):// URLs, got {backend!r}"
            )
        backend = list(backend)
    else:
        return backend
    from repro.backends.stack import remote_stack

    return remote_stack(backend)


class SamplingService:
    """A long-lived sampling engine bound to one or several named backends.

    Each named backend has **one** history level (see
    :meth:`shared_history`) that every job on it submits through, so every
    job accumulates every other job's savings: a query one analyst already
    paid for is replayed (or inferred) for the next analyst without touching
    the hidden database.  Each job counts through its own
    :class:`~repro.backends.history.JobHistory` view on that level, so its
    accounting is its own, while :meth:`backend_statistics` surfaces the
    level's cross-job savings.  Jobs that *disable* history bypass the level.
    """

    #: Machine-checked by reprolint R1 (guarded-state): the lazily-created
    #: shared history layers and the job registry (dict + id counter) are
    #: only mutated under their locks — analysts submit concurrently.
    _guarded_by = {
        "_shared_history": "_shared_history_lock",
        "_jobs": "_jobs_lock",
        "_job_counter": "_jobs_lock",
    }

    def __init__(
        self,
        backends: HiddenDatabase | str | Mapping[str, HiddenDatabase | str],
        default_backend: str | None = None,
    ) -> None:
        if isinstance(backends, Mapping):
            if not backends:
                raise ConfigurationError("a sampling service needs at least one backend")
            self._backends: dict[str, HiddenDatabase] = {
                name: _resolve_backend(database) for name, database in backends.items()
            }
        else:
            self._backends = {DEFAULT_BACKEND: _resolve_backend(backends)}
        if default_backend is None:
            default_backend = next(iter(self._backends))
        if default_backend not in self._backends:
            raise UnknownBackendError(default_backend, tuple(self._backends))
        self._default_backend = default_backend
        self._shared_history: dict[str, HistoryLayer] = {}
        # Jobs may be submitted from concurrent analyst threads; the lock
        # keeps lazy creation from racing two layers into existence, which
        # would silently split the cache the feature exists to share.
        self._shared_history_lock = threading.Lock()
        self._jobs: dict[str, SamplingJob] = {}
        self._job_counter = 0
        # The docstring promise — concurrent analyst threads may submit —
        # extends to the registry itself: id allocation and registration are
        # one atomic step, or two threads could be handed the same job id.
        self._jobs_lock = threading.Lock()

    # -- backends -------------------------------------------------------------------

    @property
    def backend_names(self) -> tuple[str, ...]:
        """Names of the hidden databases this service can sample."""
        return tuple(self._backends)

    def backend(self, name: str | None = None) -> HiddenDatabase:
        """The named backend (or the default one)."""
        name = name or self._default_backend
        try:
            return self._backends[name]
        except KeyError:
            raise UnknownBackendError(name, tuple(self._backends)) from None

    def add_backend(self, name: str, database: HiddenDatabase | str) -> None:
        """Bind one more named hidden database (object or ``http(s)://`` URL)."""
        if name in self._backends:
            raise ConfigurationError(f"backend {name!r} is already bound")
        self._backends[name] = _resolve_backend(database)

    def shared_history(self, name: str | None = None) -> HistoryLayer:
        """The history level every job of the named backend submits through.

        The backend's own history layer when it is reachable through
        pass-through nodes only — a facade's ``.stack``, a stack's ``.top``,
        a :class:`~repro.backends.dispatch.DispatchLayer` (whose ``submit``
        forwards unchanged) — else a service-owned thread-safe
        :class:`~repro.backends.history.HistoryLayer` wrapped around the
        backend.  Any other wrapper stops the walk, so a hand-added layer
        above a history layer is never bypassed.
        """
        name = name or self._default_backend
        backend = node = self.backend(name)
        while not isinstance(node, HistoryLayer):
            if isinstance(node, BackendStack):
                node = node.top
            elif isinstance(node, DispatchLayer):
                node = node.inner
            elif isinstance(getattr(node, "stack", None), BackendStack):
                node = node.stack  # type: ignore[attr-defined]
            else:
                with self._shared_history_lock:
                    layer = self._shared_history.get(name)
                    if layer is None:
                        layer = self._shared_history[name] = HistoryLayer(backend)
                return layer
        return node

    def _job_database(self, name: str, use_history: bool = True) -> HiddenDatabase:
        """What a job is built over: the history level, or with
        ``use_history=False`` (the CLI's ``--no-history``) the bare backend,
        so a no-history baseline measures genuinely uncached round-trips."""
        return self.shared_history(name) if use_history else self.backend(name)

    # -- job management --------------------------------------------------------------

    def submit(
        self,
        spec: HDSamplerConfig | None = None,
        backend: str | None = None,
        job_id: str | None = None,
    ) -> SamplingJob:
        """Accept one workload spec and return its (not yet running) job.

        ``spec`` is the same immutable configuration the front end's settings
        page builds; ``backend`` picks one of the named databases.  The job is
        registered with the service (visible to :meth:`run_all` and
        :meth:`job`) but nothing executes until the caller streams, runs, or
        the service schedules it.
        """
        backend_name = backend or self._default_backend
        spec = spec or HDSamplerConfig()
        database = self._job_database(backend_name, use_history=spec.use_history)
        with self._jobs_lock:
            if job_id is None:
                job_id = self._next_job_id_locked()
            elif job_id in self._jobs:
                raise ConfigurationError(f"job id {job_id!r} is already in use")
            job = SamplingJob(
                database,
                spec,
                job_id=job_id,
                backend=backend_name,
            )
            self._jobs[job.job_id] = job
        return job

    def adopt(self, snapshot: Mapping[str, object], backend: str | None = None) -> SamplingJob:
        """Restore a checkpointed job against this service's backends.

        The snapshot's job id must not collide with an already-registered job
        — adopting never silently replaces live work.
        """
        backend_name = backend or snapshot.get("backend") or self._default_backend  # type: ignore[assignment]
        config = snapshot.get("config")
        use_history = bool(config.get("use_history", True)) if isinstance(config, Mapping) else True
        database = self._job_database(backend_name, use_history=use_history)
        with self._jobs_lock:
            snapshot_id = snapshot.get("job_id")
            if snapshot_id in self._jobs:
                raise ConfigurationError(f"job id {snapshot_id!r} is already in use")
            job = SamplingJob.restore(
                snapshot,
                database,
                backend=backend_name,
            )
            self._jobs[job.job_id] = job
        return job

    def _next_job_id_locked(self) -> str:
        """The next free auto-generated job id.

        Skips ids already registered, so adopting a checkpoint named
        ``job-1`` in a fresh process never collides with the counter.
        (``_locked`` suffix: the caller holds ``_jobs_lock``.)
        """
        while True:
            self._job_counter += 1
            candidate = f"job-{self._job_counter}"
            if candidate not in self._jobs:
                return candidate

    def job(self, job_id: str) -> SamplingJob:
        """Look up a submitted job by id."""
        try:
            return self._jobs[job_id]
        except KeyError:
            raise UnknownJobError(job_id, tuple(self._jobs)) from None

    @property
    def jobs(self) -> tuple[SamplingJob, ...]:
        """Every job the service has accepted, in submission order."""
        return tuple(self._jobs.values())

    def pending_jobs(self) -> tuple[SamplingJob, ...]:
        """Jobs that can still make progress (not terminal, not paused)."""
        return tuple(
            job
            for job in self._jobs.values()
            if not job.done and job.state is not SessionState.PAUSED
        )

    def degraded_jobs(self) -> tuple[SamplingJob, ...]:
        """Jobs currently parked on an unavailable backend."""
        return tuple(job for job in self._jobs.values() if job.degraded)

    def forget(self, job_id: str) -> None:
        """Drop a job from the registry (its session is simply released)."""
        with self._jobs_lock:
            if job_id not in self._jobs:
                raise UnknownJobError(job_id, tuple(self._jobs))
            del self._jobs[job_id]

    # -- scheduling -------------------------------------------------------------------

    def run_all(
        self,
        max_steps: int | None = None,
        recovery_timeout: float = 0.0,
        on_round: "RoundCallback | None" = None,
    ) -> dict[str, SamplingResult]:
        """Interleave every pending job round-robin, one step at a time.

        Each scheduler round gives every still-runnable job exactly one
        candidate attempt, so concurrent analyst workloads sharing a backend
        progress at the same rate (fairness is bounded: attempt counts of
        active jobs never differ by more than one).  Jobs pausing mid-round
        drop out of the rotation and re-enter on resume; ``max_steps`` bounds
        the total number of attempts across all jobs (``None`` runs until no
        job can make progress).

        A step that hits an open circuit
        (:class:`~repro.exceptions.CircuitOpenError`) does not kill the run:
        the job parks as *degraded* for the breaker's retry hint while the
        scheduler keeps driving jobs on healthy backends, and parked jobs
        rejoin the rotation once their wait elapses or the breaker would
        admit a probe again.  When *every* runnable job is parked the
        scheduler sleeps until the earliest revival, spending at most
        ``recovery_timeout`` seconds total on such waits (0.0, the default,
        returns immediately instead — parked jobs stay registered and a later
        ``run_all`` call picks them back up).

        ``on_round`` is the scheduler's lifecycle hook: it is called after
        every completed round (one pass over the runnable jobs) with the
        1-based round number, *between* steps — never with a candidate
        attempt in flight — so callers can observe progress, inject faults,
        or checkpoint jobs at well-defined points.  Returning ``False``
        stops the scheduler early (a later ``run_all`` picks the jobs back
        up); any other return value continues.  The scenario harness
        (:mod:`repro.scenarios`) drives its chaos hooks through this.

        Returns the current result bundle of every registered job, keyed by
        job id.
        """
        steps_taken = 0
        rounds_completed = 0
        recovery_budget = recovery_timeout
        while True:
            self._revive_degraded()
            runnable = [job for job in self.pending_jobs() if not job.degraded]
            if not runnable:
                parked = [job for job in self.pending_jobs() if job.degraded]
                if not parked:
                    break
                if recovery_budget <= 0.0:
                    break
                wait = min(
                    recovery_budget,
                    max(min(job.degraded_remaining() for job in parked), 0.005),
                )
                time.sleep(wait)
                recovery_budget -= wait
                continue
            for job in runnable:
                if job.done or job.state is SessionState.PAUSED or job.degraded:
                    continue
                if max_steps is not None and steps_taken >= max_steps:
                    return self.results()
                try:
                    job.step()
                except CircuitOpenError as error:
                    # The backend refused without doing work — park the job
                    # rather than charging it an attempt or killing the run.
                    job.mark_degraded(error.retry_after)
                    continue
                steps_taken += 1
            rounds_completed += 1
            if on_round is not None and on_round(rounds_completed) is False:
                break
        return self.results()

    def _revive_degraded(self) -> None:
        """Put parked jobs whose backend looks reachable back in rotation.

        A job revives when its park time elapsed, or earlier when every
        breaker on its backend's access path would admit a call again (a
        health probe or another job's success already reclosed the circuit).
        The early path only applies when the chain actually carries breakers:
        a ``CircuitOpenError`` relayed from a *server-side* breaker leaves no
        local state to inspect, so those jobs simply wait out their park.
        """
        from repro.backends.resilience import chain_would_allow, resilience_report

        for job in self._jobs.values():
            if not job.degraded:
                continue
            if job.degraded_remaining() <= 0.0:
                job.clear_degraded()
                continue
            backend = self._backends.get(job.backend) if job.backend else None
            if (
                backend is not None
                and resilience_report(backend) is not None
                and chain_would_allow(backend)
            ):
                job.clear_degraded()

    def results(self) -> dict[str, SamplingResult]:
        """The current result bundle of every registered job."""
        return {job_id: job.result() for job_id, job in self._jobs.items()}

    def stop_all(self) -> None:
        """Throw the kill switch on every non-terminal job."""
        for job in self._jobs.values():
            if not job.done:
                job.stop()

    # -- introspection ------------------------------------------------------------------

    def backend_statistics(self, name: str | None = None) -> dict[str, object]:
        """Layer-level accounting of the named backend (or the default one).

        For stack-built backends (:class:`~repro.backends.stack.BackendStack`
        or the thin facades over one) this surfaces the access path's single
        statistics counter plus, when layered in, budget usage and
        history-cache savings — the numbers an operator watches on a shared
        deployment.  Backends whose access path does not count report ``None``
        counters rather than guessing.  ``shared_history`` reports the
        cross-job savings of the history level every job of this backend
        submits through.
        """
        from repro.backends import introspect

        return {
            "backend": name or self._default_backend,
            **introspect(self.backend(name)),
            "shared_history": self.shared_history(name).snapshot().as_dict(),
        }

    def describe(self) -> str:
        """One line per job: id, backend, state, progress (used by the CLI)."""
        if not self._jobs:
            return "no jobs submitted"
        lines = []
        for job in self._jobs.values():
            lines.append(
                f"{job.job_id}  backend={job.backend}  state={job.state_label}  "
                f"{job.samples_collected}/{job.config.n_samples} samples  "
                f"{job.queries_issued} queries"
            )
        return "\n".join(lines)

    def __len__(self) -> int:
        return len(self._jobs)

    def __iter__(self) -> Iterable[SamplingJob]:
        return iter(self._jobs.values())
