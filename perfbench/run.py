"""Whole-job sampling benchmark: one workload per run, calibrated timing.

Run from the repository root::

    python3 perfbench/run.py --workload local_walk --seed 1 --seconds 30 --trace 0

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs one
untraced cycle, then traced cycles, and reports the per-layer metrics.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are a
human-readable report.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from calibration import NOMINAL_REFERENCE_S, calibrate, timed
from tracing import Tracer

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: The seed whose exact counts and digests are pinned in ``pins.json``.
DEFAULT_SEED = 1
#: Set-ups per run; ``setup_s`` is their median.
SETUPS_PER_RUN = 7


@dataclass
class Outcome:
    """What one executed repeat produced, read from the program's own counters."""

    samples: int = 0
    queries: int = 0
    streams: list = field(default_factory=list)
    tvds: list = field(default_factory=list)
    incomplete_jobs: int = 0
    raised: int = 0
    retries: int = 0
    job_history: tuple = (0, 0)
    shared_history: tuple = (0, 0)
    history_entries: int = 0
    walks: int = 0
    failed_walks: int = 0
    candidates_seen: int = 0
    accepted: int = 0
    pool: tuple = (0, 0)


def _dig(obj: object, path: str) -> object:
    for name in path.split("."):
        obj = getattr(obj, name, None)
        if obj is None:
            return None
    return obj


def _history_counts(layer: object) -> tuple[int, int]:
    snapshot = getattr(layer, "snapshot", None)
    stats = snapshot() if callable(snapshot) else getattr(layer, "statistics", None)
    if stats is None:
        return 0, 0
    return stats.submissions, stats.exact_hits + stats.inferred


def _tvd(samples: list, attributes: tuple, marginals: dict) -> float:
    """Mean over ``attributes`` of the total-variation distance to the true marginal."""
    distances = []
    for attribute in attributes:
        truth = marginals[attribute]
        counts: dict = {}
        for sample in samples:
            value = sample.selectable_values[attribute]
            counts[value] = counts.get(value, 0) + 1
        n = len(samples)
        # Sorted: set order follows per-process salted string hashing, and the
        # pinned value needs the same float summation order in every process.
        values = sorted(set(truth) | set(counts), key=repr)
        distances.append(0.5 * sum(abs(counts.get(v, 0) / n - truth.get(v, 0.0)) for v in values))
    return sum(distances) / len(distances)


def _marginals(table, attributes) -> dict:
    result = {}
    for attribute in attributes:
        column = table.index.selectable_column(attribute)
        counts: dict = {}
        for value in column:
            counts[value] = counts.get(value, 0) + 1
        result[attribute] = {value: count / len(column) for value, count in counts.items()}
    return result


def collect(repeat, marginals: dict) -> Outcome:
    out = Outcome()
    for job in repeat.jobs:
        samples = list(job.output.samples)
        out.samples += len(samples)
        out.streams.append([sample.tuple_id for sample in samples])
        out.tvds.append(_tvd(samples, job.config.attributes, marginals) if samples else 1.0)
        if job.state.value != "completed":
            out.incomplete_jobs += 1
        job_history = _dig(job, "session.generator.history")
        submissions, saved = _history_counts(job_history)
        out.job_history = (out.job_history[0] + submissions, out.job_history[1] + saved)
        out.history_entries += len(job_history or ())
        report = _dig(job, "session.generator.report")
        if report is not None:
            out.walks += report.candidates_generated + report.failed_walks
            out.failed_walks += report.failed_walks
        processor = _dig(job, "session.processor.statistics")
        if processor is not None:
            out.candidates_seen += processor.candidates_seen
            out.accepted += processor.accepted
    shared_history = getattr(repeat.service, "shared_history", None)
    shared = shared_history() if callable(shared_history) else None
    if shared is not None:
        out.shared_history = _history_counts(shared)
        out.history_entries += len(shared)
    out.queries = repeat.access.statistics.queries_issued
    stack = getattr(repeat.access, "stack", repeat.access)
    for layer in getattr(stack, "layers", ()):
        if type(layer).__name__ == "UnreliableLayer":
            faults = layer.snapshot()
            out.retries += faults.retries + faults.gave_up
    pool = _dig(stack, "raw.pool_statistics")
    if pool:
        out.pool = (pool.get("reused", 0), pool.get("opened", 0))
    return out


def execute(workload, deployment, r: int, marginals: dict):
    """Prepare repeat ``r``, time its whole sampling run, read its counters."""
    repeat = workload.prepare(deployment, r)
    # Garbage left by earlier repeats must not be collected on this one's clock.
    gc.collect()
    try:
        _, timing = timed(repeat.service.run_all)
        outcome = collect(repeat, marginals)
    except Exception:  # a raised query: count it, keep the run alive to report it
        traceback.print_exc(file=sys.stderr)
        outcome, timing = Outcome(raised=1), None
    finally:
        repeat.close()
    return outcome, timing


@dataclass
class Phase:
    """Every execution of one phase (untraced or traced), by repeat index."""

    outcomes: dict = field(default_factory=dict)
    #: (repeat index, Timing) in execution order, as calibration needs them.
    timings: list = field(default_factory=list)

    def record(self, r: int, outcome: Outcome, timing) -> None:
        self.outcomes.setdefault(r, []).append(outcome)
        if timing is not None:
            self.timings.append((r, timing))

    def all_outcomes(self) -> list:
        return [outcome for runs in self.outcomes.values() for outcome in runs]

    def samples_per_s(self, calibrated: bool = True) -> float:
        """Samples of one cycle over the sum of per-repeat median times."""
        seconds = calibrate([t for _, t in self.timings]) if calibrated else [
            t.wall_s for _, t in self.timings
        ]
        by_repeat: dict = {}
        for (r, timing), value in zip(self.timings, seconds):
            by_repeat.setdefault(r, []).append((timing.stable, value))
        total = 0.0
        for runs in by_repeat.values():
            total += statistics.median([v for stable, v in runs if stable] or [v for _, v in runs])
        return sum(self.outcomes[r][0].samples for r in by_repeat) / total

    def reference_s(self) -> float:
        return statistics.median(
            loop for _, t in self.timings for loop in (t.ref_before_s, t.ref_after_s)
        )

    def unstable(self) -> int:
        return sum(not t.stable for _, t in self.timings)


def run_phase(workload, deployment, marginals, phase: Phase, deadline: float) -> None:
    """Execute at least one full cycle, then keep cycling until ``deadline``."""
    i = 0
    while i < workload.repeats_per_cycle or time.monotonic() < deadline:
        r = i % workload.repeats_per_cycle
        phase.record(r, *execute(workload, deployment, r, marginals))
        i += 1


def stream_digest(phase: Phase) -> str:
    first = [(r, phase.outcomes[r][0].streams) for r in sorted(phase.outcomes)]
    return hashlib.sha256(json.dumps(first).encode()).hexdigest()


def per_layer_metrics(summary, traced: Phase, untraced_sps: float, traced_sps: float) -> dict:
    outcomes = traced.all_outcomes()
    queries = max(sum(o.queries for o in outcomes), 1)
    samples = max(sum(o.samples for o in outcomes), 1)
    walks = sum(o.walks for o in outcomes)

    def share(pairs) -> float:
        total = sum(a for a, _ in pairs)
        return sum(b for _, b in pairs) / total if total else 0.0

    def ms(seconds: float, per: int) -> float:
        return 1000.0 * seconds / per

    engine_calls, rows_matched = summary.layer_entries("database")
    values = {
        "database.execute_ms_per_query": (ms(summary.layer_self_s("database"), queries), "ms/query"),
        "database.rows_matched_per_query": (rows_matched / queries, "rows/query"),
        "database.engine_calls_per_sample": (engine_calls / samples, "calls/sample"),
        "adapters.response_build_ms_per_query": (ms(summary.layer_self_s("adapters"), queries), "ms/query"),
        "history.job.hit_share": (share([o.job_history for o in outcomes]), "share"),
        "history.shared.hit_share": (share([o.shared_history for o in outcomes]), "share"),
        "history.job.self_ms_per_sample": (ms(summary.layer_self_s("history.job"), samples), "ms/sample"),
        "history.shared.self_ms_per_sample": (ms(summary.layer_self_s("history.shared"), samples), "ms/sample"),
        "history.entries_peak": (float(max(o.history_entries for o in outcomes)), "entries"),
        "remote.roundtrip_ms_per_query": (ms(summary.layer_inclusive_s("remote"), queries), "ms/query"),
        "remote.client_self_ms_per_query": (ms(summary.layer_self_s("remote"), queries), "ms/query"),
        "remote.pool_reuse_share": (share([(sum(o.pool), o.pool[0]) for o in outcomes]), "share"),
        "httpd.handler_self_ms_per_query": (ms(summary.layer_self_s("httpd"), queries), "ms/query"),
        "httpd.bytes_out_per_query": (
            summary.spans["httpd.respond"].value / queries if "httpd.respond" in summary.spans else 0.0,
            "bytes/query",
        ),
        "jsoncodec.encode_ms_per_query": (ms(summary.layer_inclusive_s("jsoncodec.encode"), queries), "ms/query"),
        "jsoncodec.decode_ms_per_query": (ms(summary.layer_inclusive_s("jsoncodec.decode"), queries), "ms/query"),
        "web.render_ms_per_query": (ms(summary.layer_inclusive_s("web.render"), queries), "ms/query"),
        "web.parse_ms_per_query": (ms(summary.layer_inclusive_s("web.parse"), queries), "ms/query"),
        "web.page_bytes_per_query": (
            summary.spans["web.site_get"].value / queries if "web.site_get" in summary.spans else 0.0,
            "bytes/query",
        ),
        "shard.router_self_ms_per_query": (ms(summary.layer_self_s("shard"), queries), "ms/query"),
        "layers.accounting_self_ms_per_query": (ms(summary.layer_self_s("layers"), queries), "ms/query"),
        "layers.retries_per_query": (sum(o.retries for o in outcomes) / queries, "retries/query"),
        "algorithms.walks_per_sample": (walks / samples, "walks/sample"),
        "algorithms.failed_walk_share": (
            sum(o.failed_walks for o in outcomes) / walks if walks else 0.0, "share"
        ),
        "algorithms.self_ms_per_sample": (ms(summary.layer_self_s("algorithms"), samples), "ms/sample"),
        "core.acceptance_rate": (share([(o.candidates_seen, o.accepted) for o in outcomes]), "share"),
        "core.self_ms_per_sample": (ms(summary.layer_self_s("core"), samples), "ms/sample"),
        "service.self_ms_per_sample": (ms(summary.layer_self_s("service"), samples), "ms/sample"),
        "trace.overhead_share": (1.0 - traced_sps / untraced_sps, "share"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


def print_layer_table(summary, absent: list) -> None:
    total = sum(summary.layer_self_s(layer) for layer in summary.layers()) or 1.0
    print("traced self time by layer (share of all traced self time):")
    for layer in sorted(summary.layers(), key=summary.layer_self_s, reverse=True):
        seconds = summary.layer_self_s(layer)
        print(f"  {layer:<22} {seconds * 1000:10.1f} ms  {100 * seconds / total:5.1f}%")
    for target in absent:
        print(f"  absent: {target}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro").is_dir():
        print(f"error: no program sources at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # One vCPU for the whole load process: the client, the server thread and
    # the reference loop then share the CPU the calibration measures, and
    # thread hand-offs do not wait on a second, differently stolen vCPU.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed)

    setup_timings = []
    deployment = None
    for _ in range(SETUPS_PER_RUN):
        if deployment is not None:
            deployment.close()
            deployment = None
        gc.collect()
        deployment, timing = timed(workload.setup)
        setup_timings.append(timing)
    setup_s = statistics.median(calibrate(setup_timings))

    marginals = _marginals(deployment.table, workload.scope)

    started = time.monotonic()
    untraced, traced = Phase(), Phase()
    tracer = Tracer()
    try:
        if args.trace:
            run_phase(workload, deployment, marginals, untraced, deadline=started)
            tracer.install()
            run_phase(workload, deployment, marginals, traced, deadline=started + args.seconds)
            tracer.uninstall()
        else:
            run_phase(workload, deployment, marginals, untraced, deadline=started + args.seconds)
    finally:
        deployment.close()

    # -- correctness -----------------------------------------------------------
    problems = []
    for r, runs in sorted(untraced.outcomes.items()):
        for outcome in runs + traced.outcomes.get(r, []):
            if outcome.streams != runs[0].streams:
                problems.append(f"repeat {r}: sample stream differs between executions")
                break
    outcomes = untraced.all_outcomes() + traced.all_outcomes()
    raised = sum(o.raised for o in outcomes)
    incomplete = sum(o.incomplete_jobs for o in outcomes)
    if raised or incomplete:
        problems.append(f"{raised} repeats raised, {incomplete} jobs did not complete")
    cycle = [untraced.outcomes[r][0] for r in sorted(untraced.outcomes)]
    exact = {
        "digest": stream_digest(untraced),
        "queries": sum(o.queries for o in cycle),
        "samples": sum(o.samples for o in cycle),
        "skew_tvd": statistics.fmean(t for o in cycle for t in o.tvds),
    }
    if args.seed == DEFAULT_SEED:
        pins = json.loads((HERE / "pins.json").read_text()).get(args.workload)
        if pins is None:
            problems.append("no pinned values for this workload")
        else:
            for key, expected in pins.items():
                matches = abs(exact[key] - expected) <= 1e-12 if key == "skew_tvd" else exact[key] == expected
                if not matches:
                    problems.append(f"pinned {key} mismatch: expected {expected!r}, got {exact[key]!r}")

    # -- report ------------------------------------------------------------------
    untraced_sps = untraced.samples_per_s()
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print(
        f"exact: digest={exact['digest']} queries={exact['queries']} "
        f"samples={exact['samples']} skew_tvd={exact['skew_tvd']!r}"
    )
    print(
        f"untraced: {sum(len(v) for v in untraced.outcomes.values())} repeats "
        f"({untraced.unstable()} outside the calibration guard); "
        f"samples/s calibrated {untraced_sps:.2f}, raw {untraced.samples_per_s(False):.2f}; "
        f"reference loop median {untraced.reference_s() * 1000:.2f} ms (nominal {NOMINAL_REFERENCE_S * 1000:.0f} ms)"
    )
    print(
        f"setup: calibrated median {setup_s:.4f} s, raw median "
        f"{statistics.median(t.wall_s for t in setup_timings):.4f} s over {len(setup_timings)} set-ups"
    )
    if args.trace:
        summary = tracer.summary()
        traced_sps = traced.samples_per_s()
        print(f"traced: {sum(len(v) for v in traced.outcomes.values())} repeats; samples/s calibrated {traced_sps:.2f}")
        print_layer_table(summary, tracer.absent)
        metrics = per_layer_metrics(summary, traced, untraced_sps, traced_sps)
    else:
        metrics = {
            "samples_per_s": {"value": untraced_sps, "unit": "1/s"},
            "queries_per_sample": {"value": exact["queries"] / exact["samples"], "unit": "queries/sample"},
            "skew_tvd": {"value": exact["skew_tvd"], "unit": "tvd"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "rss_peak_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
        }
    for problem in problems:
        print(f"INCORRECT: {problem}")
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(o.queries for o in outcomes),
        "failed": sum(o.retries + o.raised + o.incomplete_jobs for o in outcomes),
        "metrics": metrics,
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
