"""One analyst workload as a first-class, resumable job.

A :class:`SamplingJob` wraps one
:class:`~repro.core.session.SamplingSession` and gives it the lifecycle the
paper's interactive demo implies but the old blocking facade lacked:

* :meth:`stream` yields accepted samples incrementally (the AJAX updates of
  Section 3.5), honouring the kill switch and pausing cleanly;
* :meth:`pause` / :meth:`resume` suspend and continue the workload;
* :meth:`extend` asks for more samples *after* completion, reusing the warm
  query-history cache instead of re-paying every interface query;
* :meth:`snapshot` / :meth:`restore` round-trip a job through JSON so a
  paused workload survives a process restart (the hidden database itself is
  the only thing that cannot be serialised — the caller re-binds it);
* :meth:`mark_degraded` parks a job whose backend circuit is open (see
  :class:`~repro.backends.resilience.CircuitBreakerLayer`): the scheduler
  skips it without losing its place in the rotation and revives it once the
  breaker's retry hint elapses or a health probe clears the path.
"""

from __future__ import annotations

import itertools
import time
from typing import Iterator, Mapping

from repro.algorithms.base import SampleRecord
from repro.core.config import HDSamplerConfig
from repro.core.output import OutputModule
from repro.core.result import SamplingResult
from repro.core.session import ProgressCallback, SamplingSession, SessionState
from repro.database.interface import HiddenDatabase
from repro.database.schema import Schema
from repro.exceptions import ConfigurationError

_job_counter = itertools.count(1)

#: Current schema version of :meth:`SamplingJob.snapshot` payloads.
SNAPSHOT_VERSION = 1

#: How long a degraded job stays parked when the breaker gave no retry hint.
DEFAULT_DEGRADED_PARK = 1.0


class SamplingJob:
    """A submitted sampling workload with pause / resume / extend / snapshot."""

    def __init__(
        self,
        database: HiddenDatabase,
        config: HDSamplerConfig,
        job_id: str | None = None,
        backend: str | None = None,
    ) -> None:
        self.job_id = job_id or f"job-{next(_job_counter)}"
        self.backend = backend
        self.session = SamplingSession(database, config)
        self._degraded_until: float | None = None

    # -- observation --------------------------------------------------------------------

    @property
    def config(self) -> HDSamplerConfig:
        """The job's current configuration (target grows on :meth:`extend`)."""
        return self.session.config

    @property
    def state(self) -> SessionState:
        """Lifecycle state of the underlying session."""
        return self.session.state

    @property
    def done(self) -> bool:
        """True once the job reached a terminal state."""
        return self.session.terminal

    @property
    def schema(self) -> Schema:
        """The (possibly scoped) schema being sampled."""
        return self.session.generator.database.schema

    @property
    def output(self) -> OutputModule:
        """The incrementally-growing sample set and its live histograms."""
        return self.session.output

    @property
    def samples_collected(self) -> int:
        """Number of samples accepted so far."""
        return len(self.session.output)

    @property
    def queries_issued(self) -> int:
        """Queries this job's submissions caused to reach the backend so far.

        An answer another job on the same history level already paid for
        costs this job nothing, so the jobs of one backend sum to what its
        accounting layer counted.
        """
        return self.session.generator.interface_queries_issued()

    def on_progress(self, callback: ProgressCallback) -> None:
        """Register a progress callback (the front end's live updates)."""
        self.session.on_progress(callback)

    # -- degraded parking ----------------------------------------------------------------

    @property
    def degraded(self) -> bool:
        """True while the job is parked on an unavailable backend."""
        return self._degraded_until is not None

    @property
    def state_label(self) -> str:
        """Operator-facing state: ``"degraded"`` while parked, else the session state."""
        return "degraded" if self.degraded else self.state.value

    def mark_degraded(self, retry_after: float | None = None) -> None:
        """Park the job until the backend's circuit is worth probing again.

        ``retry_after`` is the breaker's own hint (seconds until its next
        half-open probe); without one the job parks for
        :data:`DEFAULT_DEGRADED_PARK`.  Parking is not pausing: the session
        state is untouched, the scheduler simply skips the job and revives it
        when the wait elapses or a health check clears the path.
        """
        wait = retry_after if retry_after is not None and retry_after > 0 else DEFAULT_DEGRADED_PARK
        self._degraded_until = time.monotonic() + wait

    def degraded_remaining(self) -> float:
        """Seconds of parking left (0.0 when not degraded or already due)."""
        if self._degraded_until is None:
            return 0.0
        return max(0.0, self._degraded_until - time.monotonic())

    def clear_degraded(self) -> None:
        """Put the job back in the scheduler rotation."""
        self._degraded_until = None

    # -- lifecycle ------------------------------------------------------------------------

    def stop(self) -> None:
        """The kill switch: stop after the current attempt."""
        self.session.stop()

    def pause(self) -> None:
        """Suspend the job; :meth:`resume` continues it exactly where it was."""
        self.session.pause()

    def resume(self) -> None:
        """Continue a paused job."""
        self.session.resume()

    def step(self) -> SampleRecord | None:
        """One candidate attempt (the unit the service's scheduler interleaves)."""
        return self.session.step()

    def run(self) -> SamplingResult:
        """Drive the job to a terminal state and return the result bundle.

        Unlike the raw session, running an already-finished job is not an
        error: the job simply hands back its (unchanged) result, which is what
        the one-job compatibility facade relies on.
        """
        if not self.done:
            self.session.run()
        return self.result()

    def stream(self, limit: int | None = None) -> Iterator[SampleRecord]:
        """Yield accepted samples as they are collected.

        The generator ends when the job reaches a terminal state (completed,
        kill switch, exhausted budget) or pauses itself; it stops early after
        ``limit`` yielded samples when given.  Calling it again after
        :meth:`resume` or :meth:`extend` picks up where it left off.
        """
        yielded = 0
        while not self.done and self.state is not SessionState.PAUSED:
            if limit is not None and yielded >= limit:
                return
            sample = self.session.step()
            if sample is not None:
                yielded += 1
                yield sample

    def extend(self, n_more: int, extra_attempts: int | None = None) -> "SamplingJob":
        """Ask for ``n_more`` additional samples on top of the current target.

        The session — and crucially its warm query-history cache — is kept,
        so the extra samples cost measurably fewer interface queries than a
        cold run of the same count (benchmarked in
        ``benchmarks/bench_service_concurrency.py``).  ``extra_attempts``
        grants additional candidate attempts to a job whose attempt cap is
        spent (extending such a job without it raises rather than silently
        re-exhausting).
        """
        self.session.extend_target(n_more, extra_attempts=extra_attempts)
        return self

    # -- results --------------------------------------------------------------------------

    def result(self) -> SamplingResult:
        """Bundle the job's current output and accounting into a result."""
        session = self.session
        history = session.generator.history
        return SamplingResult(
            output=session.output,
            state=session.state,
            attempts=session.attempts,
            queries_issued=session.generator.interface_queries_issued(),
            generator_report=session.generator.report.as_dict(),
            processor_report=session.processor.statistics.as_dict(),
            history_report=history.statistics.as_dict() if history is not None else None,
        )

    # -- checkpointing ---------------------------------------------------------------------

    def snapshot(self) -> dict:
        """A JSON-serialisable checkpoint of the job.

        Captures the configuration, lifecycle state, attempts and query
        accounting, every accepted sample, and the query-history cache
        contents, so :meth:`restore` can continue the job against the same
        backend without re-paying past interface queries — and so the
        restored job's ``queries_per_sample`` and reports stay consistent
        with what was spent before the checkpoint.  In-flight RNG state is
        *not* captured: a restored job continues with a fresh stream derived
        from the configured seed, which keeps checkpoints small and portable.

        Degraded parking *is* captured (as seconds of park time left, since
        monotonic deadlines do not survive a process restart): restoring a
        job that was parked on an open circuit re-parks it for the remaining
        wait, so the scheduler revives it exactly as it would have the
        original.
        """
        session = self.session
        generator = session.generator
        history = generator.history
        report = generator.sampler.report
        processor = session.processor.statistics
        return {
            "version": SNAPSHOT_VERSION,
            "job_id": self.job_id,
            "backend": self.backend,
            "state": session.state.value,
            "attempts": session.attempts,
            "config": session.config.to_dict(),
            "degraded": (
                {"remaining": self.degraded_remaining()} if self.degraded else None
            ),
            "samples": [_sample_to_dict(sample) for sample in session.output.samples],
            "history": generator.export_history(),
            "counters": {
                "sampler": {
                    "samples_accepted": report.samples_accepted,
                    "candidates_generated": report.candidates_generated,
                    "candidates_rejected": report.candidates_rejected,
                    "failed_walks": report.failed_walks,
                    "queries_issued": report.queries_issued,
                },
                "processor": {
                    "candidates_seen": processor.candidates_seen,
                    "accepted": processor.accepted,
                    "rejected": processor.rejected,
                    "duplicates_dropped": processor.duplicates_dropped,
                },
                "history": None
                if history is None
                else {
                    "submissions": history.statistics.submissions,
                    "issued_to_interface": history.statistics.issued_to_interface,
                    "exact_hits": history.statistics.exact_hits,
                    "inferred": history.statistics.inferred,
                },
            },
        }

    @classmethod
    def restore(
        cls,
        snapshot: Mapping[str, object],
        database: HiddenDatabase,
        backend: str | None = None,
    ) -> "SamplingJob":
        """Rebuild a job from a :meth:`snapshot` payload and a live backend."""
        version = snapshot.get("version")
        if version != SNAPSHOT_VERSION:
            raise ConfigurationError(
                f"unsupported snapshot version {version!r} (this build reads version {SNAPSHOT_VERSION})"
            )
        config = HDSamplerConfig.from_dict(snapshot["config"])  # type: ignore[arg-type]
        job = cls(
            database,
            config,
            job_id=snapshot.get("job_id"),  # type: ignore[arg-type]
            backend=backend if backend is not None else snapshot.get("backend"),  # type: ignore[arg-type]
        )
        session = job.session
        session.attempts = int(snapshot.get("attempts", 0))  # type: ignore[arg-type]
        samples = [_sample_from_dict(payload) for payload in snapshot.get("samples", ())]  # type: ignore[union-attr]
        for sample in samples:
            session.output.add(sample)
        if config.deduplicate:
            session.processor.remember_seen(sample.tuple_id for sample in samples)
        history_entries = snapshot.get("history")
        if history_entries:
            session.generator.import_history(history_entries)  # type: ignore[arg-type]
        _restore_counters(session, snapshot.get("counters"))
        session.state = SessionState(snapshot.get("state", SessionState.READY.value))
        degraded = snapshot.get("degraded")
        if isinstance(degraded, Mapping):
            remaining = float(degraded.get("remaining") or 0.0)  # type: ignore[arg-type]
            job.mark_degraded(remaining if remaining > 0.0 else None)
        elif session.state is SessionState.RUNNING:
            # A checkpoint taken mid-run restores as paused: nothing is
            # actually executing until the caller resumes.  A *degraded*
            # checkpoint stays schedulable instead — parking is not pausing,
            # and the scheduler must be able to revive the restored job.
            session.state = SessionState.PAUSED
        return job


def _restore_counters(session: SamplingSession, counters: object) -> None:
    """Refill the accounting counters from a snapshot's ``counters`` payload."""
    if not isinstance(counters, Mapping):
        return
    sampler_counts = counters.get("sampler") or {}
    report = session.generator.sampler.report
    for field in (
        "samples_accepted",
        "candidates_generated",
        "candidates_rejected",
        "failed_walks",
        "queries_issued",
    ):
        if field in sampler_counts:
            setattr(report, field, int(sampler_counts[field]))
    processor_counts = counters.get("processor") or {}
    statistics = session.processor.statistics
    for field in ("candidates_seen", "accepted", "rejected", "duplicates_dropped"):
        if field in processor_counts:
            setattr(statistics, field, int(processor_counts[field]))
    history_counts = counters.get("history")
    history = session.generator.history
    if history is not None and history_counts:
        for field in ("submissions", "issued_to_interface", "exact_hits", "inferred"):
            if field in history_counts:
                setattr(history.statistics, field, int(history_counts[field]))


def _sample_to_dict(sample: SampleRecord) -> dict:
    return {
        "tuple_id": sample.tuple_id,
        "values": dict(sample.values),
        "selectable_values": dict(sample.selectable_values),
        "selection_probability": sample.selection_probability,
        "acceptance_probability": sample.acceptance_probability,
        "queries_spent": sample.queries_spent,
        "source": sample.source,
    }


def _sample_from_dict(payload: Mapping[str, object]) -> SampleRecord:
    return SampleRecord(
        tuple_id=payload["tuple_id"],  # type: ignore[arg-type]
        values=dict(payload["values"]),  # type: ignore[arg-type]
        selectable_values=dict(payload["selectable_values"]),  # type: ignore[arg-type]
        selection_probability=payload["selection_probability"],  # type: ignore[arg-type]
        acceptance_probability=payload["acceptance_probability"],  # type: ignore[arg-type]
        queries_spent=payload["queries_spent"],  # type: ignore[arg-type]
        source=payload["source"],  # type: ignore[arg-type]
    )
