"""A text dashboard of an incremental sampling run.

The demo front end uses AJAX so users see "seamless updates to the sampling
procedure" (Section 3.5): a progress indicator, the most recently collected
samples, and the histograms growing as samples arrive.  :class:`Dashboard`
renders the same information as text.  It attaches to anything job-shaped —
a :class:`~repro.service.SamplingJob`, the classic
:class:`~repro.core.hdsampler.HDSampler` facade, or any object exposing
``schema``, ``output`` and ``on_progress`` — registers itself as a progress
callback, and keeps the latest snapshot; callers decide when (and whether)
to print it.
"""

from __future__ import annotations

from typing import Callable, Protocol, Sequence

from repro.algorithms.base import SampleRecord
from repro.analytics.report import render_histogram, render_table
from repro.core.output import OutputModule
from repro.core.session import ProgressCallback, ProgressEvent
from repro.database.schema import Schema


class ProgressSource(Protocol):
    """What the dashboard needs from a job (structural, so shims qualify too)."""

    @property
    def schema(self) -> Schema:  # pragma: no cover - protocol declaration
        ...

    @property
    def output(self) -> OutputModule:  # pragma: no cover - protocol declaration
        ...

    def on_progress(self, callback: ProgressCallback) -> None:  # pragma: no cover
        ...


class Dashboard:
    """Collects progress events and renders live run status as text."""

    def __init__(
        self,
        source: ProgressSource,
        recent_samples: int = 5,
        histogram_attributes: Sequence[str] | None = None,
        printer: Callable[[str], None] | None = None,
        print_every: int = 0,
        backend: object | None = None,
    ) -> None:
        if recent_samples < 0:
            raise ValueError("recent_samples must be non-negative")
        self._source = source
        #: Optional access-path object (typically a BackendStack) whose layer
        #: statistics the dashboard surfaces alongside sampling progress.
        self.backend = backend
        self._recent_limit = recent_samples
        self._histogram_attributes = (
            tuple(histogram_attributes)
            if histogram_attributes is not None
            else source.schema.attribute_names[:2]
        )
        self._printer = printer
        self._print_every = print_every
        self._recent: list[SampleRecord] = []
        self.last_event: ProgressEvent | None = None
        source.on_progress(self._on_progress)

    # -- progress handling -----------------------------------------------------------

    def _on_progress(self, event: ProgressEvent) -> None:
        self.last_event = event
        if event.last_sample is not None:
            self._recent.append(event.last_sample)
            if len(self._recent) > self._recent_limit:
                self._recent.pop(0)
        if self._printer is not None and self._print_every > 0:
            if event.samples_collected % self._print_every == 0 and event.last_sample is not None:
                self._printer(self.render_progress_line())

    # -- rendering ----------------------------------------------------------------------

    def render_progress_line(self) -> str:
        """One-line progress summary (the progress bar of the web UI)."""
        event = self.last_event
        if event is None:
            return "sampling not started"
        bar_width = 20
        filled = int(round(bar_width * event.fraction_done))
        bar = "#" * filled + "." * (bar_width - filled)
        return (
            f"[{bar}] {event.samples_collected}/{event.samples_requested} samples, "
            f"{event.queries_issued} queries, state={event.state.value}"
        )

    def render_backend_line(self) -> str:
        """One-line view of the attached access path's layer statistics.

        Works with anything statistics-shaped: a
        :class:`~repro.backends.stack.BackendStack`, a classic interface, a
        :class:`~repro.service.SamplingService` (whose per-backend report
        additionally carries its one history figure, the cross-job
        shared-history savings), or nothing — in which case a placeholder is
        returned.
        """
        if self.backend is None:
            return "no backend attached"
        backend_statistics = getattr(self.backend, "backend_statistics", None)
        if callable(backend_statistics):
            report = backend_statistics()
        else:
            from repro.backends import introspect

            report = introspect(self.backend)
        parts = [str(report["access_path"])]
        statistics = report["statistics"]
        if statistics is not None:
            parts.append(
                f"{statistics['queries_issued']} issued "
                f"({statistics['valid_results']} valid / {statistics['empty_results']} empty / "
                f"{statistics['overflow_results']} overflow)"
            )
        budget = report["budget"]
        if budget is not None and budget["limit"] is not None:
            parts.append(f"budget {budget['issued']}/{budget['limit']}")
        shared = report.get("shared_history")
        if shared is not None:
            parts.append(f"shared history saved {shared['saved']} queries for all jobs")
        breakers = report.get("breakers")
        if breakers:
            states = [str(snapshot.get("state", "?")) for snapshot in breakers]
            tripped = sum(1 for state in states if state != "closed")
            fast_failures = sum(int(snapshot.get("fast_failures", 0)) for snapshot in breakers)
            summary = "all closed" if tripped == 0 else f"{tripped}/{len(states)} tripped"
            parts.append(f"breakers {summary}, {fast_failures} fast-failed")
        failover = report.get("failover")
        if failover is not None:
            parts.append(
                f"failover {failover.get('failovers', 0)}x over "
                f"{len(failover.get('targets', ()))} targets"
            )
        return "  |  ".join(parts)

    def render_recent_samples(self) -> str:
        """Table of the most recently collected samples."""
        if not self._recent:
            return "no samples collected yet"
        attributes = self._source.schema.attribute_names
        rows = []
        for sample in self._recent:
            rows.append([str(sample.selectable_values.get(name, "")) for name in attributes])
        return render_table(list(attributes), rows)

    def render_histograms(self, width: int = 30) -> str:
        """Current histograms of the dashboard's chosen attributes."""
        output = self._source.output
        sections = [
            render_histogram(output.histogram(name), width=width)
            for name in self._histogram_attributes
        ]
        return "\n\n".join(sections)

    def render(self) -> str:
        """Full dashboard: progress, recent samples, histograms."""
        return "\n\n".join(
            [self.render_progress_line(), self.render_recent_samples(), self.render_histograms()]
        )
