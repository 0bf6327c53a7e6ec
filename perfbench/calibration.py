"""Machine-speed calibration for every timing the benchmark reports.

The load process shares a small virtual machine whose speed drifts by tens
of percent over phases lasting tens of seconds (CPU steal).  Best-of-N
repeats cannot hide a phase that outlasts them, so every timed interval is
bracketed by a fixed pure-Python reference loop — dict, str, sort and call
work, importing nothing from the program under test — run right before and
right after it, and rescaled::

    calibrated = wall × (NOMINAL_REFERENCE_S / measured_reference) ** SENSITIVITY

The unit stays seconds: a calibrated second is a second on a machine that
runs the reference loop in exactly :data:`NOMINAL_REFERENCE_S`.

:data:`SENSITIVITY` is measured, not assumed.  The sampling jobs slow down
less than the reference loop: the log-log slope of repeat time against
reference time was 0.5–0.6 within ``webform_counts`` runs, and a full
correction (exponent 1) over-corrected more often than not.  Of the
exponents tried, 0.75 gave the smallest worst-case cross-run spread (see
``README.md``).

A single 20 ms loop jitters by ±15% even within one phase, so
``measured_reference`` for interval *i* is the median of the bracketing
loops of intervals *i − HALF_WINDOW … i + HALF_WINDOW* (about three seconds
of a run): it follows phases that last seconds or more, and ignores one
loop's hiccup.

Guard: when an interval's own two loops disagree by more than
:data:`GUARD_RATIO`, the machine changed speed during it; :class:`Timing`
marks it ``stable=False`` and statistics prefer stable intervals.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass

#: The reference loop's time on the machine the calibrated unit refers to.
NOMINAL_REFERENCE_S = 0.020

#: How strongly the workloads' speed follows the reference loop's (log-log slope).
SENSITIVITY = 0.75

#: Bracketing loops further apart than this ratio mark an interval unstable.
GUARD_RATIO = 1.5

#: Neighbouring intervals on each side whose loops form the reference median.
HALF_WINDOW = 3

#: Iterations of the reference loop (about 20 ms of CPython work).
_REFERENCE_ITERATIONS = 24_000


def _mix(i: int, key: str) -> int:
    return (i * 2654435761) % 1000003 + len(key)


def reference_work(iterations: int = _REFERENCE_ITERATIONS) -> str:
    """A fixed slice of interpreter work: dict updates, formatting, a sort, calls."""
    table: dict[str, int] = {}
    for i in range(iterations):
        key = "k%05d" % (i % 1499)
        table[key] = table.get(key, 0) + _mix(i, key)
    ranked = sorted(table.items(), key=lambda item: (item[1] % 977, item[0]))
    return ranked[0][0]


def time_reference() -> float:
    """Wall-clock seconds of one reference loop."""
    started = time.perf_counter()
    reference_work()
    return time.perf_counter() - started


@dataclass(frozen=True)
class Timing:
    """One bracketed interval: its raw wall time and the two reference loops around it."""

    wall_s: float
    ref_before_s: float
    ref_after_s: float

    @property
    def stable(self) -> bool:
        low, high = sorted((self.ref_before_s, self.ref_after_s))
        return high <= low * GUARD_RATIO


def timed(action):
    """Run ``action()`` between two reference loops; return ``(result, Timing)``."""
    before = time_reference()
    started = time.perf_counter()
    result = action()
    wall = time.perf_counter() - started
    after = time_reference()
    return result, Timing(wall, before, after)


def calibrate(timings: list[Timing]) -> list[float]:
    """Calibrated seconds of each interval of one run, in the order they ran."""
    loops = [t for timing in timings for t in (timing.ref_before_s, timing.ref_after_s)]
    calibrated = []
    for i, timing in enumerate(timings):
        window = loops[2 * max(i - HALF_WINDOW, 0) : 2 * (i + HALF_WINDOW + 1)]
        scale = NOMINAL_REFERENCE_S / statistics.median(window)
        calibrated.append(timing.wall_s * scale**SENSITIVITY)
    return calibrated
