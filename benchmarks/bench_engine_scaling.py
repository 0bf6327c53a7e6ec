"""Engine-scaling benchmark: indexed evaluation vs the naive full scan.

Times ``QueryEngine.execute`` plus a read of the returned row ids, with and
without the index, at 1k/10k/50k/200k rows, reports what the rank-ordered
bitmaps of one ranking cost to build (seconds and bytes), and times
warm-history ``HistoryLayer.submit`` with subset-key inference vs the linear
history scan, on hits (answers inferred from an ancestor) and on misses (no
usable ancestor, so the query reaches the engine), then writes the
machine-readable ``BENCH_engine.json`` (ops/sec and speedup ratios) so the
repo's performance trajectory is recorded run over run.

Unlike the pytest-benchmark experiments (E1–E12), this file is a standalone
script so CI can run it as a smoke check:

    PYTHONPATH=src python benchmarks/bench_engine_scaling.py            # full run
    PYTHONPATH=src python benchmarks/bench_engine_scaling.py --quick    # smallest size only
    PYTHONPATH=src python benchmarks/bench_engine_scaling.py --check    # assert speedup floors

``--check`` enforces the acceptance floors (≥5× indexed execute at the
largest size, ≥2× warm-history submit) — in quick mode a softer ≥1.5× floor
suited to small tables and noisy CI runners — so index regressions fail loudly.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.backends.history import HistoryLayer
from repro.database.engine import QueryEngine
from repro.database.interface import HiddenDatabaseInterface
from repro.database.query import ConjunctiveQuery
from repro.datasets.vehicles import VehiclesConfig, default_vehicles_ranking, generate_vehicles_table

FULL_SIZES = (1_000, 10_000, 50_000, 200_000)
QUICK_SIZES = (1_000,)
K = 100
SEED = 2009


def _random_queries(schema, rng: random.Random, count: int, min_preds: int, max_preds: int):
    queries = []
    for _ in range(count):
        n = rng.randint(min_preds, min(max_preds, len(schema)))
        attributes = rng.sample(schema.attribute_names, n)
        assignment = {
            name: rng.choice(schema.attribute(name).domain.values) for name in attributes
        }
        queries.append(ConjunctiveQuery.from_assignment(schema, assignment))
    return queries


def _time_ops(action, operands) -> float:
    """Run ``action`` over ``operands`` and return operations per second."""
    start = time.perf_counter()
    for operand in operands:
        action(operand)
    elapsed = time.perf_counter() - start
    return len(operands) / elapsed if elapsed > 0 else float("inf")


def bench_bitmaps(table) -> dict:
    """Cold build of one ranking's rank order and of all its bitmaps."""
    ranking = default_vehicles_ranking()
    start = time.perf_counter()
    cache = table.index.rank_cache(ranking)
    ordered = time.perf_counter()
    # One predicate on every attribute builds every attribute's bitmaps.
    cache.mask(
        ConjunctiveQuery.from_assignment(
            table.schema, {a.name: a.domain.values[0] for a in table.schema}
        )
    )
    built = time.perf_counter()
    return {
        "rank_order_s": round(ordered - start, 4),
        "bitmap_build_s": round(built - ordered, 4),
        "bitmap_bytes": cache.bitmap_bytes(),
    }


def _answer(engine: QueryEngine):
    """``execute`` plus a read of every returned row id: the whole answer.

    The indexed path cuts its top-``k`` ids on first read, the scan path at
    ``execute``; reading them on both sides times the same work.
    """
    return lambda query: tuple(engine.execute(query).returned_row_ids)


def bench_execute(table, queries) -> dict:
    """Indexed vs scan answers (``execute`` + row ids) over the same queries."""
    ranking = default_vehicles_ranking()
    indexed = QueryEngine(table, k=K, ranking=ranking, use_index=True)
    scan = QueryEngine(table, k=K, ranking=ranking, use_index=False)
    # Equivalence smoke check before timing: same results, query for query.
    for query in queries[:25]:
        fast, slow = indexed.execute(query), scan.execute(query)
        assert fast.returned_row_ids == slow.returned_row_ids, str(query)
        assert fast.outcome is slow.outcome and fast.total_count == slow.total_count
    indexed_ops = _time_ops(_answer(indexed), queries)
    scan_ops = _time_ops(_answer(scan), queries)
    return {
        "queries": len(queries),
        "indexed_ops_per_sec": round(indexed_ops, 1),
        "scan_ops_per_sec": round(scan_ops, 1),
        "speedup": round(indexed_ops / scan_ops, 2),
    }


def _misses(schema, cache: HistoryLayer, rng: random.Random, count: int):
    """Width 1–5 queries the warm ``cache`` can neither replay nor infer.

    No query has a usable (empty or non-overflowing) ancestor in the cache,
    and none subsumes another, so each stays a miss when timed in turn: the
    ``local_walk`` shape, where almost every ancestor search finds nothing.
    """
    usable = [set(key) for key in cache.valid_keys() | cache.empty_keys()]
    chosen: list[set] = []
    misses = []
    for _ in range(count * 50):
        if len(misses) == count:
            break
        query = _random_queries(schema, rng, 1, 1, 5)[0]
        key = query.canonical_key()
        if cache.cached(key) is not None:
            continue
        pairs = set(key)
        if any(pairs >= other for other in usable) or any(
            pairs >= other or pairs <= other for other in chosen
        ):
            continue
        chosen.append(pairs)
        misses.append(query)
    return misses


def bench_warm_history(table, rng: random.Random, n_warm: int, n_timed: int) -> dict:
    """Warm-cache ``submit()`` with subset-key inference vs the linear scan.

    Both caches are warmed with the same (mostly valid/empty, deep) queries.
    The timed hits are one-step specialisations, i.e. answerable purely by
    inference, so that measurement isolates the ancestor-lookup strategy.
    The timed misses have no usable ancestor, so each pays a fruitless
    ancestor search plus the engine.
    """
    schema = table.schema
    warm = _random_queries(schema, rng, n_warm, 3, 4)
    timed = []
    for query in _random_queries(schema, rng, n_timed, 3, 4):
        if query.free_attributes:
            attribute = rng.choice(query.free_attributes)
            value = rng.choice(schema.attribute(attribute).domain.values)
            query = query.specialise(attribute, value)
        timed.append(query)

    caches = {}
    results = {}
    for mode in ("indexed", "scan"):
        interface = HiddenDatabaseInterface(table, k=K, ranking=default_vehicles_ranking(), seed=0)
        cache = caches[mode] = HistoryLayer(interface, inference=mode)
        for query in warm:
            cache.submit(query)
        results[mode] = {
            "ops_per_sec": _time_ops(cache.submit, timed),
            "history_entries": len(cache),
            "saving_ratio": cache.statistics.saving_ratio,
        }
    misses = _misses(schema, caches["indexed"], rng, n_timed)
    for mode, cache in caches.items():
        issued = cache.statistics.issued_to_interface
        results[mode]["miss_ops_per_sec"] = _time_ops(cache.submit, misses)
        assert cache.statistics.issued_to_interface - issued == len(misses), mode
    indexed_ops = results["indexed"]["ops_per_sec"]
    scan_ops = results["scan"]["ops_per_sec"]
    indexed_miss_ops = results["indexed"]["miss_ops_per_sec"]
    scan_miss_ops = results["scan"]["miss_ops_per_sec"]
    return {
        "warm_entries": results["indexed"]["history_entries"],
        "timed_submissions": n_timed,
        "indexed_ops_per_sec": round(indexed_ops, 1),
        "scan_ops_per_sec": round(scan_ops, 1),
        "speedup": round(indexed_ops / scan_ops, 2),
        "miss_timed_submissions": len(misses),
        "miss_indexed_ops_per_sec": round(indexed_miss_ops, 1),
        "miss_scan_ops_per_sec": round(scan_miss_ops, 1),
        "miss_speedup": round(indexed_miss_ops / scan_miss_ops, 2),
    }


def run(sizes, n_queries: int, n_warm: int, n_timed: int) -> dict:
    report = {"k": K, "seed": SEED, "sizes": {}}
    for n_rows in sizes:
        rng = random.Random(SEED + n_rows)
        table = generate_vehicles_table(VehiclesConfig(n_rows=n_rows, seed=SEED))
        queries = _random_queries(table.schema, rng, n_queries, 1, 4)
        bitmaps = bench_bitmaps(table)
        execute = bench_execute(table, queries)
        history = bench_warm_history(table, rng, n_warm, n_timed)
        report["sizes"][str(n_rows)] = {
            "bitmaps": bitmaps, "execute": execute, "warm_history_submit": history,
        }
        print(
            f"rows={n_rows:>6}  execute: {execute['indexed_ops_per_sec']:>8.1f} vs "
            f"{execute['scan_ops_per_sec']:>7.1f} q/s ({execute['speedup']:.1f}x)   "
            f"warm submit: {history['indexed_ops_per_sec']:>8.1f} vs "
            f"{history['scan_ops_per_sec']:>7.1f} q/s ({history['speedup']:.1f}x)   "
            f"warm miss: {history['miss_indexed_ops_per_sec']:>8.1f} vs "
            f"{history['miss_scan_ops_per_sec']:>7.1f} q/s ({history['miss_speedup']:.1f}x)   "
            f"bitmaps: {bitmaps['bitmap_build_s']:.3f} s, "
            f"{bitmaps['bitmap_bytes'] / 1e6:.2f} MB"
        )
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="smallest size + reduced workload (CI smoke mode)")
    parser.add_argument("--check", action="store_true",
                        help="fail if the indexed path regresses below the speedup floors")
    parser.add_argument("--out", type=Path, default=Path(__file__).resolve().parent.parent / "BENCH_engine.json",
                        help="where to write the machine-readable report")
    args = parser.parse_args(argv)

    if args.quick:
        report = run(QUICK_SIZES, n_queries=150, n_warm=400, n_timed=200)
    else:
        report = run(FULL_SIZES, n_queries=300, n_warm=1_500, n_timed=400)
    report["mode"] = "quick" if args.quick else "full"

    args.out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"wrote {args.out}")

    if args.check:
        largest = report["sizes"][str(max(int(s) for s in report["sizes"]))]
        execute_floor, history_floor = (1.5, 1.5) if args.quick else (5.0, 2.0)
        execute_speedup = largest["execute"]["speedup"]
        history_speedup = largest["warm_history_submit"]["speedup"]
        if execute_speedup < execute_floor:
            print(f"FAIL: execute speedup {execute_speedup}x < {execute_floor}x floor")
            return 1
        if history_speedup < history_floor:
            print(f"FAIL: warm-history submit speedup {history_speedup}x < {history_floor}x floor")
            return 1
        print(f"check passed: execute {execute_speedup}x >= {execute_floor}x, "
              f"warm submit {history_speedup}x >= {history_floor}x")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
