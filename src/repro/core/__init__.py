"""The HDSampler system: the paper's primary contribution.

The four modules of the paper's architecture (Figure 2) map onto:

* front end → :class:`~repro.core.config.HDSamplerConfig` +
  :class:`~repro.core.tradeoff.TradeoffSlider` (programmatic) and
  :mod:`repro.frontend` (interactive);
* Sample Generator → :class:`~repro.core.sample_generator.SampleGenerator`,
  which drives a sampling algorithm through the query history
  (:class:`~repro.backends.history.HistoryLayer`) so no query is issued
  twice and inferable answers are never issued at all;
* Sample Processor → :class:`~repro.core.sample_processor.SampleProcessor`,
  the acceptance–rejection stage controlled by the efficiency↔skew slider;
* Output Module → :class:`~repro.core.output.OutputModule`, which accumulates
  the final samples, maintains marginal histograms incrementally and answers
  approximate aggregate queries.

:class:`~repro.core.session.SamplingSession` is the incremental pipeline with
progress events, an explicit state machine and the kill switch; the
job-oriented :mod:`repro.service` layer schedules many sessions over shared
backends, and :class:`~repro.core.hdsampler.HDSampler` survives as the
classic one-job facade over that service.
"""

from repro.core.config import HDSamplerConfig, SamplerAlgorithm
from repro.core.tradeoff import TradeoffSlider
from repro.core.scope import ScopedDatabase
from repro.core.sample_generator import SampleGenerator
from repro.core.sample_processor import ProcessorStatistics, SampleProcessor
from repro.core.output import AggregateEstimate, OutputModule
from repro.core.session import TERMINAL_STATES, ProgressEvent, SamplingSession, SessionState
from repro.core.result import SamplingResult
from repro.core.hdsampler import HDSampler

__all__ = [
    "AggregateEstimate",
    "HDSampler",
    "HDSamplerConfig",
    "OutputModule",
    "ProcessorStatistics",
    "ProgressEvent",
    "SampleGenerator",
    "SampleProcessor",
    "SamplerAlgorithm",
    "SamplingResult",
    "SamplingSession",
    "ScopedDatabase",
    "SessionState",
    "TERMINAL_STATES",
    "TradeoffSlider",
]
