"""The incremental sampling pipeline with progress events and a kill switch.

"The entire system works in an incremental fashion where the Sample
Generator, Sample Processor and Output module generate samples and updates
the final sample set and histograms till the desired number of samples are
obtained.  A kill switch has been included to facilitate stopping the
sampling procedure in case the user is satisfied with the samples extracted
thus far."  (paper Section 3.4)

:class:`SamplingSession` is that loop.  It is deliberately synchronous and
re-entrant — :meth:`step` performs exactly one candidate attempt — so the
interactive front end, the job layer (:mod:`repro.service`), the examples and
the tests can all drive it, observe progress through registered callbacks,
and stop it at any point.

The session is an explicit state machine::

    READY ──step/run──► RUNNING ──┬─► COMPLETED   (requested samples reached)
      ▲                  │  ▲     ├─► STOPPED     (kill switch)
      │                  ▼  │     └─► EXHAUSTED   (budget / attempts ran out)
      └── extend_target ─┴ PAUSED ◄── pause / resume

``COMPLETED``, ``STOPPED`` and ``EXHAUSTED`` are terminal: :meth:`step` and
:meth:`run` raise :class:`~repro.exceptions.SessionStateError` there, and the
only way back is :meth:`extend_target`, which raises the requested sample
count and re-opens the session (reusing the warm query-history cache).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable

from repro._rng import resolve_rng, spawn_rng
from repro.algorithms.base import SampleRecord
from repro.core.config import HDSamplerConfig
from repro.core.output import OutputModule
from repro.core.sample_generator import SampleGenerator
from repro.core.sample_processor import SampleProcessor
from repro.database.interface import HiddenDatabase
from repro.exceptions import ConfigurationError, SessionStateError

ProgressCallback = Callable[["ProgressEvent"], None]


class SessionState(enum.Enum):
    """Lifecycle of a sampling session."""

    READY = "ready"
    RUNNING = "running"
    PAUSED = "paused"          #: suspended by the job layer; resume to continue
    STOPPED = "stopped"        #: the kill switch was used
    COMPLETED = "completed"    #: the requested number of samples was collected
    EXHAUSTED = "exhausted"    #: budget or attempt limit ran out first


#: States from which no further sampling can happen without extending the target.
TERMINAL_STATES = frozenset(
    {SessionState.STOPPED, SessionState.COMPLETED, SessionState.EXHAUSTED}
)


@dataclass(frozen=True)
class ProgressEvent:
    """A snapshot emitted after every accepted sample (and at termination)."""

    samples_collected: int
    samples_requested: int
    attempts: int
    queries_issued: int
    state: SessionState
    last_sample: SampleRecord | None

    @property
    def fraction_done(self) -> float:
        """Progress toward the requested sample count, in ``[0, 1]``.

        Zero (or negative) requested samples mean there is nothing left to
        do, so the fraction is 1.0 regardless of what was collected; over-
        collection (possible after :meth:`SamplingSession.extend_target`
        shrank and re-grew targets) is clamped to 1.0.
        """
        if self.samples_requested <= 0:
            return 1.0
        return min(1.0, max(0.0, self.samples_collected / self.samples_requested))


class SamplingSession:
    """Drives generator → processor → output until done, stopped or exhausted."""

    def __init__(self, database: HiddenDatabase, config: HDSamplerConfig) -> None:
        self.config = config
        rng = resolve_rng(config.seed)
        self.generator = SampleGenerator(database, config)
        self.processor = SampleProcessor(
            self.generator.sampler,
            deduplicate=config.deduplicate,
            seed=spawn_rng(rng, "processor"),
        )
        self.output = OutputModule(self.generator.database.schema)
        self.state = SessionState.READY
        self.attempts = 0
        self._stop_requested = False
        self._callbacks: list[ProgressCallback] = []

    # -- observers ------------------------------------------------------------------

    def on_progress(self, callback: ProgressCallback) -> None:
        """Register a callback invoked after every accepted sample and at the end."""
        self._callbacks.append(callback)

    def _emit(self, last_sample: SampleRecord | None) -> None:
        event = ProgressEvent(
            samples_collected=len(self.output),
            samples_requested=self.config.n_samples,
            attempts=self.attempts,
            queries_issued=self.generator.interface_queries_issued(),
            state=self.state,
            last_sample=last_sample,
        )
        for callback in self._callbacks:
            callback(event)

    # -- the kill switch -----------------------------------------------------------------

    def stop(self) -> None:
        """Request the session to stop after the current attempt (kill switch)."""
        self._stop_requested = True

    @property
    def stopped(self) -> bool:
        """Whether the kill switch has been used."""
        return self._stop_requested

    # -- state machine -----------------------------------------------------------------

    @property
    def terminal(self) -> bool:
        """True once the session can make no further progress."""
        return self.state in TERMINAL_STATES

    def pause(self) -> None:
        """Suspend the session; :meth:`resume` (or :meth:`run`) continues it."""
        if self.terminal:
            raise SessionStateError("pause", self.state.value)
        self.state = SessionState.PAUSED

    def resume(self) -> None:
        """Return a paused (or fresh) session to the runnable state."""
        if self.terminal:
            raise SessionStateError("resume", self.state.value)
        self.state = SessionState.RUNNING

    def extend_target(self, n_more: int, extra_attempts: int | None = None) -> None:
        """Raise the requested sample count by ``n_more`` and re-open the session.

        This is the *only* transition out of a terminal state: the generator,
        its warm query-history cache and the collected output are all kept, so
        the additional samples are collected at the marginal cost of a warm
        continuation rather than the full cost of a cold re-run.  A pending
        kill-switch request is cleared (the analyst asking for more samples
        overrides the earlier stop).

        ``extra_attempts`` grants that many *additional* candidate attempts on
        top of those already spent (only meaningful when ``max_attempts`` is
        capped).  A session that exhausted its attempt cap cannot be extended
        without it — the extension would silently re-exhaust before collecting
        anything, so that case raises instead.
        """
        if n_more <= 0:
            raise ConfigurationError("extend_target needs a positive number of extra samples")
        if extra_attempts is not None and extra_attempts <= 0:
            raise ConfigurationError("extra_attempts must be positive when given")
        config = self.config.with_samples(self.config.n_samples + n_more)
        if extra_attempts is not None:
            config = config.with_max_attempts(self.attempts + extra_attempts)
        if config.max_attempts is not None and self.attempts >= config.max_attempts:
            raise ConfigurationError(
                f"the attempt cap ({config.max_attempts}) is already spent after "
                f"{self.attempts} attempts; pass extra_attempts to grant more"
            )
        self.config = config
        self._stop_requested = False
        if self.terminal:
            self.state = SessionState.READY

    def _settle_state(self) -> bool:
        """Move to a terminal state if a termination condition holds.

        Returns True (and emits the terminal progress event) on a transition
        or when the session already was terminal.
        """
        if self.terminal:
            return True
        if self._stop_requested:
            self.state = SessionState.STOPPED
        elif len(self.output) >= self.config.n_samples:
            self.state = SessionState.COMPLETED
        elif self._out_of_attempts() or self.generator.budget_exhausted:
            self.state = SessionState.EXHAUSTED
        else:
            return False
        self._emit(None)
        return True

    # -- execution ---------------------------------------------------------------------------

    def step(self) -> SampleRecord | None:
        """Perform one candidate attempt; return the accepted sample, if any.

        Raises :class:`~repro.exceptions.SessionStateError` on a terminal or
        paused session.  State transitions happen here: the first step moves
        READY → RUNNING, and the step that satisfies (or exhausts) the run
        moves RUNNING → COMPLETED / STOPPED / EXHAUSTED and emits the terminal
        progress event.
        """
        if self.terminal:
            raise SessionStateError("step", self.state.value)
        if self.state is SessionState.PAUSED:
            raise SessionStateError("step", self.state.value)
        self.state = SessionState.RUNNING
        if self._settle_state():
            return None
        sample: SampleRecord | None = None
        # Counted once the walk returns: a walk cut by an exception is
        # replayed on the next step, not charged twice.
        candidate = self.generator.next_candidate()
        self.attempts += 1
        if candidate is not None:
            sample = self.processor.process(candidate)
            if sample is not None:
                self.output.add(sample)
                self._emit(sample)
        self._settle_state()
        return sample

    def run(self) -> OutputModule:
        """Run until the requested samples are collected, stopped, or exhausted.

        A READY session starts, a PAUSED one resumes; calling ``run()`` on a
        COMPLETED / STOPPED / EXHAUSTED session raises
        :class:`~repro.exceptions.SessionStateError` (use
        :meth:`extend_target` to ask for more samples first).
        """
        if self.terminal:
            raise SessionStateError("run", self.state.value)
        self.state = SessionState.RUNNING
        while self.state is SessionState.RUNNING:
            self.step()
        return self.output

    def _out_of_attempts(self) -> bool:
        return self.config.max_attempts is not None and self.attempts >= self.config.max_attempts
