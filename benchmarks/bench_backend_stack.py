"""Backend-stack benchmark: layer overhead and web-path history savings (PR 3).

Two questions the composable access path must answer for:

* **Overhead** — a full ``engine_stack`` (count-mode + budget + statistics
  layers) must cost ≤ 15% wall-clock over the raw ``QueryEngineBackend`` it
  wraps, otherwise the refactor taxed every query to pay for structure.
  Measured as the median ratio of interleaved raw/stack passes over the
  same queries, so a change of machine speed does not land on one side.
* **Savings** — a warm ``HistoryLayer`` on the *web* path must save ≥ 30% of
  page fetches on a workload with repeated / inferable queries, otherwise
  lifting the cache out of the sampler core bought nothing for scraping.

A third, informational section times the sharded stack (4 partitions behind
a ``ShardRouter`` sharing one ``TableIndex``) against the flat stack.

Like ``bench_engine_scaling.py`` this is a standalone script so CI can run
it as a smoke check:

    PYTHONPATH=src python benchmarks/bench_backend_stack.py            # full run
    PYTHONPATH=src python benchmarks/bench_backend_stack.py --quick    # reduced workload
    PYTHONPATH=src python benchmarks/bench_backend_stack.py --check    # assert the floors

Results are written to ``BENCH_backend.json`` so the repo's performance
trajectory is recorded run over run.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from pathlib import Path
from statistics import median

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.backends import QueryEngineBackend, engine_stack, sharded_stack, web_stack
from repro.database.query import ConjunctiveQuery
from repro.datasets.vehicles import (
    VehiclesConfig,
    default_vehicles_ranking,
    generate_vehicles_table,
    vehicles_schema,
)
from repro.web.server import HiddenWebSite

K = 100
SEED = 2026
N_SHARDS = 4

#: Acceptance floors: stack overhead over the raw adapter, and the fraction
#: of page fetches a warm history layer must save on the repetitive workload.
MAX_OVERHEAD = 0.15
MIN_WEB_SAVINGS = 0.30


def _random_queries(schema, rng: random.Random, count: int, min_preds: int = 1, max_preds: int = 3):
    queries = []
    for _ in range(count):
        n = rng.randint(min_preds, min(max_preds, len(schema)))
        attributes = rng.sample(schema.attribute_names, n)
        assignment = {
            name: rng.choice(schema.attribute(name).domain.values) for name in attributes
        }
        queries.append(ConjunctiveQuery.from_assignment(schema, assignment))
    return queries


#: Interleaved timing windows per comparison (one pass over the queries each).
ROUNDS = 40


def _pass_time(action, operands) -> float:
    """Wall time of one pass of ``action`` over ``operands``."""
    start = time.perf_counter()
    for operand in operands:
        action(operand)
    return time.perf_counter() - start


def _paired_times(base, other, operands, rounds: int = ROUNDS) -> tuple[float, float, float]:
    """Median pass times of ``base`` and ``other``, and the median of their ratios.

    The two actions alternate in short windows, one pass each, and the order
    flips every round, so a change of machine speed lasting longer than a
    pass hits both sides of a pair alike; the median of the ``rounds`` paired
    ratios then ignores the pairs a change did split.
    """
    base_times, other_times, ratios = [], [], []
    for round_index in range(rounds):
        if round_index % 2:
            other_time = _pass_time(other, operands)
            base_time = _pass_time(base, operands)
        else:
            base_time = _pass_time(base, operands)
            other_time = _pass_time(other, operands)
        base_times.append(base_time)
        other_times.append(other_time)
        ratios.append(other_time / base_time)
    return median(base_times), median(other_times), median(ratios)


def bench_overhead(table, queries) -> dict:
    """Full layer stack vs the raw engine adapter, same workload."""
    ranking = default_vehicles_ranking()
    raw = QueryEngineBackend(table, k=K, ranking=ranking, display_columns=("title",))
    stack = engine_stack(table, k=K, ranking=ranking, display_columns=("title",))
    # Equivalence smoke check before timing (modulo the count the NONE-mode
    # layer deliberately hides).
    for query in queries[:20]:
        fast, slow = raw.submit(query), stack.submit(query)
        assert [t.tuple_id for t in fast.tuples] == [t.tuple_id for t in slow.tuples], str(query)
        assert fast.overflow == slow.overflow and slow.reported_count is None
    raw_time, stack_time, ratio = _paired_times(raw.submit, stack.submit, queries)
    overhead = ratio - 1.0
    return {
        "queries": len(queries),
        "rounds": ROUNDS,
        "raw_ops_per_sec": round(len(queries) / raw_time, 1),
        "stack_ops_per_sec": round(len(queries) / stack_time, 1),
        "overhead": round(overhead, 4),
        "layers": stack.describe(),
    }


def bench_web_history(table, rng: random.Random, n_distinct: int, n_submissions: int) -> dict:
    """Page fetches with and without a warm history layer on the web path.

    The workload re-submits queries drawn (with replacement) from a fixed
    pool plus one-step specialisations of them — the access pattern of a
    drill-down sampler, where the history layer answers repeats verbatim and
    specialisations of valid/empty ancestors by inference.
    """
    schema = table.schema
    ranking = default_vehicles_ranking()
    pool = _random_queries(schema, rng, n_distinct, 2, 4)
    workload = []
    for _ in range(n_submissions):
        query = rng.choice(pool)
        if rng.random() < 0.4 and query.free_attributes:
            attribute = rng.choice(query.free_attributes)
            value = rng.choice(schema.attribute(attribute).domain.values)
            query = query.specialise(attribute, value)
        workload.append(query)

    results = {}
    for label, history in (("plain", False), ("history", True)):
        site = HiddenWebSite(
            QueryEngineBackend(table, k=K, ranking=ranking, display_columns=("title",))
        )
        client = web_stack(site, vehicles_schema(), display_columns=("title",), history=history)
        start = time.perf_counter()
        for query in workload:
            client.submit(query)
        elapsed = time.perf_counter() - start
        results[label] = {
            "pages_fetched": site.pages_served,
            "ops_per_sec": round(len(workload) / elapsed, 1) if elapsed > 0 else float("inf"),
        }
        if history:
            assert client.history is not None
            results[label]["history"] = client.history.statistics.as_dict()
    plain = results["plain"]["pages_fetched"]
    warm = results["history"]["pages_fetched"]
    savings = 1.0 - warm / plain if plain else 0.0
    return {
        "submissions": n_submissions,
        "distinct_pool": n_distinct,
        "plain": results["plain"],
        "history": results["history"],
        "fetch_savings": round(savings, 4),
    }


def bench_sharded(table, queries) -> dict:
    """Informational: the sharded stack vs the flat stack, same workload."""
    ranking = default_vehicles_ranking()
    flat = engine_stack(table, k=K, ranking=ranking)
    sharded = sharded_stack(table, N_SHARDS, k=K, ranking=ranking)
    for query in queries[:20]:
        assert sharded.submit(query) == flat.submit(query), str(query)
    flat_time, sharded_time, ratio = _paired_times(flat.submit, sharded.submit, queries)
    return {
        "n_shards": N_SHARDS,
        "flat_ops_per_sec": round(len(queries) / flat_time, 1),
        "sharded_ops_per_sec": round(len(queries) / sharded_time, 1),
        "scatter_gather_cost": round(ratio, 2),
    }


def run(n_rows: int, n_queries: int, n_distinct: int, n_submissions: int) -> dict:
    rng = random.Random(SEED)
    table = generate_vehicles_table(VehiclesConfig(n_rows=n_rows, seed=SEED))
    queries = _random_queries(table.schema, rng, n_queries, 1, 4)
    overhead = bench_overhead(table, queries)
    web = bench_web_history(table, rng, n_distinct, n_submissions)
    sharded = bench_sharded(table, queries)
    print(
        f"rows={n_rows}  stack: {overhead['stack_ops_per_sec']:>8.1f} vs raw "
        f"{overhead['raw_ops_per_sec']:>8.1f} q/s ({overhead['overhead'] * 100:+.1f}%)   "
        f"web fetches: {web['history']['pages_fetched']} vs {web['plain']['pages_fetched']} "
        f"({web['fetch_savings'] * 100:.1f}% saved)   "
        f"scatter/gather: {sharded['scatter_gather_cost']:.2f}x"
    )
    return {
        "k": K,
        "seed": SEED,
        "rows": n_rows,
        "stack_overhead": overhead,
        "web_history": web,
        "sharded": sharded,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="reduced workload (CI smoke mode)")
    parser.add_argument("--check", action="store_true",
                        help="fail if overhead or savings regress past the floors")
    parser.add_argument("--out", type=Path,
                        default=Path(__file__).resolve().parent.parent / "BENCH_backend.json",
                        help="where to write the machine-readable report")
    args = parser.parse_args(argv)

    if args.quick:
        report = run(n_rows=2_000, n_queries=300, n_distinct=40, n_submissions=150)
    else:
        report = run(n_rows=10_000, n_queries=600, n_distinct=80, n_submissions=400)
    report["mode"] = "quick" if args.quick else "full"

    args.out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"wrote {args.out}")

    if args.check:
        overhead = report["stack_overhead"]["overhead"]
        savings = report["web_history"]["fetch_savings"]
        failed = False
        if overhead > MAX_OVERHEAD:
            print(f"FAIL: stack overhead {overhead * 100:.1f}% > {MAX_OVERHEAD * 100:.0f}% ceiling")
            failed = True
        if savings < MIN_WEB_SAVINGS:
            print(f"FAIL: web fetch savings {savings * 100:.1f}% < {MIN_WEB_SAVINGS * 100:.0f}% floor")
            failed = True
        if failed:
            return 1
        print(
            f"check passed: overhead {overhead * 100:.1f}% <= {MAX_OVERHEAD * 100:.0f}%, "
            f"web savings {savings * 100:.1f}% >= {MIN_WEB_SAVINGS * 100:.0f}%"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
