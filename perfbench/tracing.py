"""Span tracing around the program's public boundaries, from the outside.

:class:`Tracer` wraps boundary functions and methods of :mod:`repro` in
place — nothing in the program changes — and records one span per call:
name, start, end and the enclosing span on the same thread.  Spans on other
threads (the HTTP server's handler threads) have no enclosing span: they are
roots, linked by time to the innermost client span open when they started,
whose self time excludes them.

A target that no longer exists — a module deleted, a class renamed, a
method collapsed into another — is skipped and listed in
:attr:`Tracer.absent`; its layer then reads 0 and the report marks it
absent, so the benchmark keeps running across refactors that delete code.

Span names are ``<layer>.<call>``; the layer is everything before the last
dot (``history.job.submit`` belongs to layer ``history.job``).  A layer's
self time is the time of its spans minus the time of their direct children.
"""

from __future__ import annotations

import bisect
import functools
import importlib
import inspect
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Callable


def _history_label(layer: object) -> str:
    # The per-job cache wraps the job's scoping adapter; the service-shared
    # cache wraps the backend itself.
    inner = getattr(layer, "inner", None)
    return "history.job.submit" if type(inner).__name__ == "ScopedDatabase" else "history.shared.submit"


def _length_of_result(args: tuple, result: object) -> float:
    return float(len(result))  # type: ignore[arg-type]


#: (module, attribute path, span name, label(self) -> span name, value(args, result)).
TARGETS: tuple[tuple, ...] = (
    ("repro.service.service", "SamplingService.run_all", "service.run_all", None, None),
    ("repro.service.job", "SamplingJob.step", "service.job_step", None, None),
    ("repro.core.session", "SamplingSession.step", "core.step", None, None),
    ("repro.core.sample_generator", "SampleGenerator.next_candidate", "core.next_candidate", None, None),
    ("repro.core.sample_processor", "SampleProcessor.process", "core.process", None, None),
    ("repro.core.scope", "ScopedDatabase.submit", "core.scope", None, None),
    ("repro.algorithms.random_walk", "RandomWalkSampler.draw_candidate", "algorithms.draw_candidate", None, None),
    ("repro.algorithms.count_based", "CountAidedSampler.draw_candidate", "algorithms.draw_candidate", None, None),
    ("repro.backends.history", "HistoryLayer.submit", "history.submit", _history_label, None),
    ("repro.backends.stack", "BackendStack.submit", "layers.stack", None, None),
    ("repro.backends.layers", "StatisticsLayer.submit", "layers.statistics", None, None),
    ("repro.backends.layers", "BudgetLayer.submit", "layers.budget", None, None),
    ("repro.backends.layers", "CountModeLayer.submit", "layers.count_mode", None, None),
    ("repro.backends.layers", "UnreliableLayer.submit", "layers.retry", None, None),
    ("repro.backends.adapters", "QueryEngineBackend.submit", "adapters.engine_backend", None, None),
    ("repro.backends.shard", "TableShardBackend.respond", "adapters.shard_respond", None, None),
    ("repro.backends.shard", "ShardRouter.submit", "shard.router", None, None),
    ("repro.database.engine", "QueryEngine.execute", "database.execute", None,
     lambda args, result: float(result.total_count)),
    ("repro.database.engine", "QueryEngine.count", "database.count", None,
     lambda args, result: float(result)),
    ("repro.database.index", "TableIndex.matching_row_ids", "database.matching_row_ids", None,
     _length_of_result),
    ("repro.backends.remote", "RemoteBackend.submit", "remote.submit", None, None),
    ("repro.web.httpd", "_Handler.do_GET", "httpd.do_get", None, None),
    ("repro.web.httpd", "_Handler._respond", "httpd.respond", None,
     lambda args, result: float(len(args[2]))),
    ("repro.web.httpd", "DatabaseEndpoint.submit_payload", "httpd.submit_payload", None, None),
    ("repro.web.jsoncodec", "response_to_dict", "jsoncodec.encode.response_to_dict", None, None),
    ("repro.web.jsoncodec", "response_from_dict", "jsoncodec.decode.response_from_dict", None, None),
    ("repro.backends.adapters", "WebPageBackend.submit", "web.page_backend", None, None),
    ("repro.web.server", "HiddenWebSite.get", "web.site_get", None, _length_of_result),
    ("repro.web.html", "render_result_page", "web.render.render_result_page", None, None),
    ("repro.web.form_parser", "parse_result_page", "web.parse.parse_result_page", None, None),
)


def layer_of(span_name: str) -> str:
    return span_name.rsplit(".", 1)[0]


@dataclass
class SpanSummary:
    """Aggregates over every span of one name."""

    inclusive_s: float = 0.0
    self_s: float = 0.0
    value: float = 0.0
    #: Calls whose enclosing span belongs to another layer (a layer's entries).
    entries: int = 0
    entry_value: float = 0.0


@dataclass
class TraceSummary:
    spans: dict[str, SpanSummary] = field(default_factory=dict)

    def layer_self_s(self, layer: str) -> float:
        return sum(s.self_s for name, s in self.spans.items() if layer_of(name) == layer)

    def layer_entries(self, layer: str) -> tuple[int, float]:
        calls = sum(s.entries for name, s in self.spans.items() if layer_of(name) == layer)
        value = sum(s.entry_value for name, s in self.spans.items() if layer_of(name) == layer)
        return calls, value

    def layer_inclusive_s(self, layer: str) -> float:
        return sum(s.inclusive_s for name, s in self.spans.items() if layer_of(name) == layer)

    def layers(self) -> list[str]:
        return sorted({layer_of(name) for name in self.spans})


class Tracer:
    """Installs span-recording wrappers; :meth:`summary` aggregates the spans."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        #: (recorded on the main thread?, that thread's span list)
        self._threads: list[tuple[bool, list]] = []
        self._undo: list[tuple[object, str, object]] = []
        self.absent: list[str] = []

    # -- recording ---------------------------------------------------------------

    def _thread_state(self) -> tuple[list, list]:
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = ([], [])
            with self._lock:
                self._threads.append((threading.current_thread() is threading.main_thread(), state[0]))
        return state

    def _wrap(self, original: Callable, name: str, label, value) -> Callable:
        thread_state = self._thread_state
        clock = time.perf_counter

        @functools.wraps(original)
        def traced(*args, **kwargs):
            spans, stack = thread_state()
            span = [label(args[0]) if label is not None else name, 0.0, 0.0, stack[-1] if stack else -1, 0.0]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if value is not None:
                span[4] = value(args, result)
            return result

        return traced

    # -- installation ------------------------------------------------------------

    def install(self, targets: tuple[tuple, ...] = TARGETS) -> None:
        for module_name, path, name, label, value in targets:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.absent.append(f"{module_name}:{path}")
                continue
            owner_name, _, attribute = path.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = inspect.getattr_static(owner, attribute, None) if owner is not None else None
            if not inspect.isfunction(original):
                self.absent.append(f"{module_name}:{path}")
                continue
            traced = self._wrap(original, name, label, value)
            if owner_name:
                self._patch(owner, attribute, traced)
                continue
            # A module-level function is also bound by name in every module
            # that imported it; rebind each of those references.
            for loaded in list(sys.modules.values()):
                if getattr(loaded, "__name__", "").startswith("repro") and (
                    getattr(loaded, attribute, None) is original
                ):
                    self._patch(loaded, attribute, traced)

    def _patch(self, owner: object, attribute: str, replacement: object) -> None:
        self._undo.append((owner, attribute, inspect.getattr_static(owner, attribute)))
        setattr(owner, attribute, replacement)

    def uninstall(self) -> None:
        while self._undo:
            owner, attribute, original = self._undo.pop()
            setattr(owner, attribute, original)

    # -- aggregation ---------------------------------------------------------------

    def summary(self) -> TraceSummary:
        result = TraceSummary()
        with self._lock:
            threads = [(main, list(spans)) for main, spans in self._threads]
        main_spans = next((spans for main, spans in threads if main), [])
        linked = self._link_server_roots(main_spans, threads)
        for main, spans in threads:
            child_s = [0.0] * len(spans)
            for name, start, end, parent, _ in spans:
                if parent >= 0:
                    child_s[parent] += end - start
            if main:
                for index, overlap in linked.items():
                    child_s[index] += overlap
            for index, (name, start, end, parent, value) in enumerate(spans):
                duration = end - start
                summary = result.spans.setdefault(name, SpanSummary())
                summary.inclusive_s += duration
                summary.self_s += duration - child_s[index]
                summary.value += value
                if parent < 0 or layer_of(spans[parent][0]) != layer_of(name):
                    summary.entries += 1
                    summary.entry_value += value
        return result

    @staticmethod
    def _link_server_roots(main_spans: list, threads: list) -> dict[int, float]:
        """Time-link root spans of other threads to the main-thread span they ran under.

        A server handler runs while the client call that sent its request
        waits; the innermost main-thread span open when the handler started
        is its cause.  Returns, per main-thread span index, the time its
        linked roots overlapped it — to be counted as child time.
        """
        starts = [span[1] for span in main_spans]
        linked: dict[int, float] = {}
        for main, spans in threads:
            if main:
                continue
            for _, start, end, parent, _ in spans:
                if parent >= 0:
                    continue
                index = bisect.bisect_right(starts, start) - 1
                while index >= 0 and main_spans[index][2] <= start:
                    index = main_spans[index][3]
                if index >= 0:
                    overlap = min(end, main_spans[index][2]) - start
                    linked[index] = linked.get(index, 0.0) + overlap
        return linked
