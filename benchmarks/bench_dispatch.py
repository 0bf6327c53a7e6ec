"""Concurrent-dispatch benchmark: overlapped round-trips, identical bytes (PR 4).

The paper's sampler is rate-limited by round-trips to the hidden database.
This benchmark answers the question the dispatch subsystem exists for: when
each shard sub-query costs a network-shaped round-trip, does scattering the
sub-queries over a thread pool actually buy the wall-clock back?

Five sections:

* **parallel_shards** (guarded) — 4 table shards, each wrapped in an
  ``UnreliableLayer(latency=...)`` simulating a per-request round-trip, behind
  a serial ``ShardRouter`` vs ``ShardRouter(..., max_workers=4)``.  The merged
  responses are asserted byte-identical first; then the parallel router must
  deliver **≥ 2× the serial throughput** (it approaches 4× — the serial
  router pays 4 round-trips per query, the parallel one pays ~1).
* **inprocess_shards** (informational) — the same routers over CPU-bound
  shards with no latency, each wrapped in a pass-through ``BackendLayer`` so
  the router takes its scatter path (bare partitions of one table would be
  answered from the shared match mask, and no thread would run).  Honest
  numbers: the interpreter lock serialises pure-Python ranking, so threads
  buy ~nothing here; this section documents that parallel dispatch is a
  *latency* optimisation, not a CPU one.
* **remote_http** (guarded) — live ``repro.web.httpd`` endpoints on loopback
  sockets.  Two guarded sub-sections exercise the transport optimisations on
  the configs they exist for: **pooled vs unpooled** on a connect-dominated
  config (cheap queries, so the per-request TCP connect is the cost — the
  median of three alternating passes of pooled keep-alive must be **≥ 1.3×**
  the one-connect-per-request baseline's median), and
  **batched vs single** on a latency-bound config (each server-side
  submission pays a simulated database hop, the shard sections' trick —
  ``POST /api/submit_batch`` fan-out must be **≥ 1.5×** single-query
  round-trips).  The merged responses are asserted byte-identical first,
  as always.
* **concurrent_serving** (guarded) — a wave of ``SERVE_CLIENTS``
  persistent clients arriving at a fresh ``repro.web.httpd`` server, each
  issuing a stream of single-query submissions over its own keep-alive
  connection.  The load generator is a bench-local asyncio driver: one
  connection per client issuing ``GET /api/submit`` and decoding each
  answer.  The same drive runs *cold* (most clients connect inside the
  timed window) and on *established* connections (every client connected
  and warmed up first); each is the **median of three alternating
  passes**, and the cold median must be **≥ 0.5×** the established one —
  the server's listen backlog must queue the wave instead of dropping its
  SYNs.  Byte-identity with the served backend is asserted first, through
  ``RemoteBackend``.
* **remote_compression** (informational) — single-query submissions over
  one pooled ``RemoteBackend`` against a server with the default plain
  answers and against one built with ``compress_threshold=1024``, over the
  same queries, ``COMPRESS_PASSES`` alternating passes each.  It keeps the
  server's plain default measured; no floor is enforced.

Usage (mirrors the other benchmark scripts)::

    PYTHONPATH=src python benchmarks/bench_dispatch.py            # full run (50k rows)
    PYTHONPATH=src python benchmarks/bench_dispatch.py --quick    # reduced workload
    PYTHONPATH=src python benchmarks/bench_dispatch.py --check    # assert the floors

Results are written to ``BENCH_dispatch.json``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import random
import statistics
import sys
import time
from itertools import cycle, islice
from pathlib import Path
from urllib.parse import urlsplit

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.backends import (
    BackendLayer,
    BackendStack,
    RemoteBackend,
    ShardRouter,
    TableShardBackend,
    UnreliableLayer,
    engine_stack,
    remote_stack,
)
from repro.database.query import ConjunctiveQuery
from repro.database.schema import Schema
from repro.datasets.vehicles import VehiclesConfig, generate_vehicles_table
from repro.web.httpd import API_SUBMIT_PATH, HiddenDatabaseHTTPServer
from repro.web.jsoncodec import response_from_dict
from repro.web.urlcodec import encode_query

K = 100
SEED = 2026
N_SHARDS = 4
#: Simulated per-request round-trip of one shard backend, seconds.  4 ms is
#: conservative for a LAN database hop; WAN latencies only widen the gap.
SHARD_LATENCY = 0.004

#: Acceptance floor: the parallel router must at least halve the wall clock
#: of latency-bound 4-shard dispatch (the theoretical ceiling is ~4x).
MIN_PARALLEL_SPEEDUP = 2.0

#: Rows of the remote-section catalogue: small on purpose, so per-request
#: transport overhead (the thing under test) dominates per-query engine work.
REMOTE_ROWS = 500
#: Simulated per-submission hop of the latency-bound remote config, seconds —
#: the web server's own backend paying a LAN database round-trip.
REMOTE_BACKEND_LATENCY = 0.002
#: Wire-batch shape of the batched remote config.
BATCH_SIZE = 25
BATCH_WORKERS = 4

#: Acceptance floors for the remote transport (ISSUE 5): keep-alive pooling
#: must beat one-connect-per-request by ≥ 1.3x on the connect-dominated
#: config, and the batch endpoint must beat single-query round-trips by
#: ≥ 1.5x on the latency-bound config.
MIN_POOL_SPEEDUP = 1.3
MIN_BATCH_SPEEDUP = 1.5
#: Timed passes per transport, alternated unpooled/pooled; the pooled floor
#: is on the ratio of the medians (one pass each read 1.15x once on a
#: shared 2-vCPU VM, against 1.6-1.8x otherwise).
POOL_PASSES = 3
#: Submissions per timed pass (the query list is cycled to this length): a
#: 60-query pass took ~0.1 s and read 1.35-2.44x across runs on a shared
#: 2-vCPU VM, too short to time against the 1.3x floor.
POOL_PASS_QUERIES = 300

#: Compression section: the response threshold an operator on a slow link
#: would pass, and the alternating timed passes per server.
COMPRESS_THRESHOLD = 1024
COMPRESS_PASSES = 3

#: Concurrent-serving section: the size of the arriving client wave.
SERVE_CLIENTS = 64
#: Small top-k so each request is transport-shaped, not ranking-shaped —
#: the server, not the engine, is the thing under test.
SERVE_K = 25
#: Warm-up requests per client, issued before any timing (see
#: ``bench_concurrent_serving`` for which clients carry them).
SERVE_WARM_ROUNDS = 4
#: Clients that connect and warm up before a cold pass's timed drive; the
#: other ``SERVE_CLIENTS`` connect inside it.
SERVE_WARM_CLIENTS = 8
#: Timed passes per shape, alternated cold/established; the medians are
#: compared.  Single passes at this concurrency swing with scheduler luck,
#: so a CI gate on one pass would flake.
SERVE_PASSES = 3

#: Acceptance floor for serving a client wave: the cold drive must sustain
#: ≥ 0.5x the established-connection drive's throughput.  With a listen
#: backlog of 128 the ratio reads 0.76-1.2; the stdlib default backlog of 5
#: drops most of the wave's SYNs and reads 0.02-0.08.
MIN_COLD_WAVE_RATIO = 0.5


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


def _time(action, operands) -> float:
    start = time.perf_counter()
    for operand in operands:
        action(operand)
    return time.perf_counter() - start


def _latency_shards(table, ranking=None) -> list[UnreliableLayer]:
    """The 4 partitions, each behind a simulated per-request round-trip."""
    return [
        UnreliableLayer(
            TableShardBackend(table, K, shard_index, N_SHARDS, ranking=ranking),
            latency=SHARD_LATENCY,
        )
        for shard_index in range(N_SHARDS)
    ]


def bench_parallel_shards(table, queries) -> dict:
    """Latency-bound shard dispatch: serial vs thread-pooled, same bytes."""
    serial = ShardRouter(_latency_shards(table))
    parallel = ShardRouter(_latency_shards(table), max_workers=N_SHARDS)
    # Byte-identical first, fast second.
    for query in queries[: min(20, len(queries))]:
        assert serial.submit(query) == parallel.submit(query), str(query)
    serial_time = _time(serial.submit, queries)
    parallel_time = _time(parallel.submit, queries)
    parallel.close()
    speedup = serial_time / parallel_time if parallel_time > 0 else float("inf")
    return {
        "queries": len(queries),
        "n_shards": N_SHARDS,
        "shard_latency_ms": SHARD_LATENCY * 1000,
        "serial_ops_per_sec": round(len(queries) / serial_time, 1),
        "parallel_ops_per_sec": round(len(queries) / parallel_time, 1),
        "speedup": round(speedup, 2),
    }


def bench_inprocess_shards(table, queries) -> dict:
    """The honest control: CPU-bound shards, where the GIL caps the win.

    Both routers scatter to the same bare partitions, each behind a
    pass-through layer that only defeats the shared-mask fast path.
    """
    serial = ShardRouter.over_table(table, N_SHARDS, k=K, shard_layer=BackendLayer)
    parallel = ShardRouter.over_table(
        table, N_SHARDS, k=K, shard_layer=BackendLayer, max_workers=N_SHARDS
    )
    for query in queries[: min(20, len(queries))]:
        assert serial.submit(query) == parallel.submit(query), str(query)
    serial_time = _time(serial.submit, queries)
    parallel_time = _time(parallel.submit, queries)
    parallel.close()
    return {
        "queries": len(queries),
        # Never enforced by --check: the GIL caps this section by design and
        # its speedup hovers around 1.0x either side of even.
        "informational": True,
        "serial_ops_per_sec": round(len(queries) / serial_time, 1),
        "parallel_ops_per_sec": round(len(queries) / parallel_time, 1),
        "speedup": round(serial_time / parallel_time, 2) if parallel_time > 0 else None,
    }


def bench_remote_pooling(remote_table, queries) -> dict:
    """Connect-dominated config: keep-alive pooling vs one connect per request.

    The served catalogue is deliberately small so the per-request TCP connect
    (plus the handler thread it spawns server-side) is the dominant cost —
    exactly what a pooled persistent connection amortises away.  The two
    transports alternate ``POOL_PASSES`` timed passes of
    ``POOL_PASS_QUERIES`` submissions and the medians are compared, as in
    :func:`bench_concurrent_serving`.
    """
    pass_queries = list(islice(cycle(queries), POOL_PASS_QUERIES))
    served = engine_stack(remote_table, K, statistics=False)
    with HiddenDatabaseHTTPServer(served) as server:
        pooled = RemoteBackend(server.url)
        unpooled = RemoteBackend(server.url, pool_size=0)
        # Byte-identical first, fast second.
        for query in queries[: min(20, len(queries))]:
            assert pooled.submit(query) == unpooled.submit(query), str(query)
        rates: dict[str, list[float]] = {"unpooled": [], "pooled": []}
        for _ in range(POOL_PASSES):
            for shape, backend in (("unpooled", unpooled), ("pooled", pooled)):
                rates[shape].append(
                    round(len(pass_queries) / _time(backend.submit, pass_queries), 1)
                )
        pool_stats = pooled.pool_statistics
        pooled.close()
    unpooled_rate = statistics.median(rates["unpooled"])
    pooled_rate = statistics.median(rates["pooled"])
    return {
        "queries": len(queries),
        "rows": REMOTE_ROWS,
        "passes": POOL_PASSES,
        "pass_queries": POOL_PASS_QUERIES,
        "unpooled_pass_ops_per_sec": rates["unpooled"],
        "pooled_pass_ops_per_sec": rates["pooled"],
        "unpooled_ops_per_sec": unpooled_rate,
        "pooled_ops_per_sec": pooled_rate,
        "pooled_speedup": round(pooled_rate / unpooled_rate, 2),
        "pool_statistics": pool_stats,
    }


def bench_remote_batching(remote_table, queries) -> dict:
    """Latency-bound config: one POST per 25 queries vs one GET per query.

    The endpoint's own backend pays a simulated per-submission database hop
    (the same trick the shard section uses), so single-query round-trips are
    latency-bound; the batch endpoint amortises the hop over the server's
    concurrent item fan-out and the HTTP overhead over the whole chunk.
    """
    raw = engine_stack(remote_table, K, statistics=False).top
    served = BackendStack(
        raw, [lambda inner: UnreliableLayer(inner, latency=REMOTE_BACKEND_LATENCY)]
    )
    with HiddenDatabaseHTTPServer(served, batch_workers=8) as server:
        single = remote_stack(server.url)
        batched = remote_stack(server.url, parallel=BATCH_WORKERS, batch=BATCH_SIZE)
        probe = queries[: min(20, len(queries))]
        assert batched.submit_many(probe) == [single.submit(q) for q in probe]
        single_time = _time(single.submit, queries)
        batch_time = time.perf_counter()
        batched.submit_many(queries)
        batch_time = time.perf_counter() - batch_time
        retry_stats = batched.layer(UnreliableLayer).statistics.as_dict()
    speedup = single_time / batch_time if batch_time > 0 else float("inf")
    return {
        "queries": len(queries),
        "rows": REMOTE_ROWS,
        "backend_latency_ms": REMOTE_BACKEND_LATENCY * 1000,
        "batch_size": BATCH_SIZE,
        "batch_workers": BATCH_WORKERS,
        "single_ops_per_sec": round(len(queries) / single_time, 1),
        "batched_ops_per_sec": round(len(queries) / batch_time, 1),
        "batched_speedup": round(speedup, 2),
        "retry_statistics": retry_stats,
    }


def bench_remote_compression(remote_table, queries) -> dict:
    """Single submits against plain answers vs ``compress_threshold=1024``.

    Both servers serve the same backend and answer the same queries; the
    client is the default pooled ``RemoteBackend``, which always advertises
    gzip.  The passes alternate plain/gzip and each rate is a median.
    """
    pass_queries = list(islice(cycle(queries), POOL_PASS_QUERIES))
    served = engine_stack(remote_table, K, statistics=False)
    with HiddenDatabaseHTTPServer(served) as plain_server, HiddenDatabaseHTTPServer(
        served, compress_threshold=COMPRESS_THRESHOLD
    ) as gzip_server:
        clients = {
            "plain": RemoteBackend(plain_server.url),
            "gzip": RemoteBackend(gzip_server.url),
        }
        # Byte-identical first, fast second.
        for query in queries[: min(20, len(queries))]:
            assert clients["plain"].submit(query) == clients["gzip"].submit(query), str(query)
        rates: dict[str, list[float]] = {"plain": [], "gzip": []}
        for _ in range(COMPRESS_PASSES):
            for shape, client in clients.items():
                rates[shape].append(
                    round(len(pass_queries) / _time(client.submit, pass_queries), 1)
                )
        compressed = gzip_server.wire_statistics()["compressed_responses"]
        for client in clients.values():
            client.close()
    plain_rate = statistics.median(rates["plain"])
    gzip_rate = statistics.median(rates["gzip"])
    return {
        # Never enforced by --check: it keeps the plain default measured.
        "informational": True,
        "rows": REMOTE_ROWS,
        "passes": COMPRESS_PASSES,
        "pass_queries": POOL_PASS_QUERIES,
        "compress_threshold": COMPRESS_THRESHOLD,
        "plain_pass_ops_per_sec": rates["plain"],
        "gzip_pass_ops_per_sec": rates["gzip"],
        "plain_ops_per_sec": plain_rate,
        "gzip_ops_per_sec": gzip_rate,
        "gzip_responses": compressed,
        "plain_to_gzip": round(plain_rate / gzip_rate, 2),
    }


class _ServeClient:
    """One load-generating client: a keep-alive connection issuing ``GET /api/submit``."""

    def __init__(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter, host: str, schema: Schema
    ) -> None:
        self.reader = reader
        self.writer = writer
        self.host = host
        self.schema = schema

    @classmethod
    async def connect(cls, url: str, schema: Schema) -> "_ServeClient":
        split = urlsplit(url)
        reader, writer = await asyncio.open_connection(split.hostname, split.port)
        return cls(reader, writer, split.netloc, schema)

    async def submit(self, query: ConjunctiveQuery):
        encoded = encode_query(query)
        target = f"{API_SUBMIT_PATH}?{encoded}" if encoded else API_SUBMIT_PATH
        self.writer.write(
            f"GET {target} HTTP/1.1\r\nHost: {self.host}\r\n"
            "Accept: application/json\r\n\r\n".encode("latin-1")
        )
        await self.writer.drain()
        status_line = await self.reader.readline()
        length = 0
        while True:
            line = await self.reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                length = int(value)
        body = await self.reader.readexactly(length)
        if status_line.split(b" ", 2)[1:2] != [b"200"]:
            raise RuntimeError(f"serving pass got {status_line!r}: {body[:200]!r}")
        return response_from_dict(self.schema, json.loads(body))

    async def close(self) -> None:
        self.writer.close()
        await self.writer.wait_closed()


def _serve_pass(make_server, schema: Schema, warm, timed, n_clients: int, cold: bool) -> float:
    """One pass against a fresh server; returns the timed drive's seconds.

    Each client connects on its first request and keeps that connection.
    ``cold``: ``SERVE_WARM_CLIENTS`` clients share the un-timed warm-up, and
    the other clients all connect at the start of the timed drive — the
    arriving wave the floor is set on.  Otherwise every client connects and
    warms up first, so the timed drive runs on established connections only.
    """
    n_warm = SERVE_WARM_CLIENTS if cold else n_clients
    warm_work = [warm[i::n_warm] for i in range(n_warm)]
    timed_work = [timed[i::n_clients] for i in range(n_clients)]
    server = make_server().start()
    clients: dict[int, _ServeClient] = {}

    async def run_client(i: int, work) -> None:
        if i not in clients:
            clients[i] = await _ServeClient.connect(server.url, schema)
        for query in work:
            await clients[i].submit(query)

    async def drive(n: int, work) -> None:
        await asyncio.gather(*(run_client(i, work[i]) for i in range(n)))

    async def session() -> float:
        try:
            await drive(n_warm, warm_work)
            start = time.perf_counter()
            await drive(n_clients, timed_work)
            return time.perf_counter() - start
        finally:
            for client in clients.values():
                await client.close()
            await asyncio.to_thread(server.stop)

    return asyncio.run(session())


def bench_concurrent_serving(remote_table, queries, rounds: int) -> dict:
    """Client-wave serving load: a cold wave vs established connections.

    A cold pass warms a fresh server with ``SERVE_WARM_CLIENTS`` clients,
    then starts all ``SERVE_CLIENTS`` clients at once, so the rest of the
    wave connects inside the timed window.  The server spawns a handler
    thread per arriving connection, and the kernel queues the wave's
    connections in the listen backlog until the accept loop takes them; a
    backlog smaller than the wave drops SYNs, which then wait out the
    kernel's retransmit timer.  An established pass times the same drive
    after every client connected and warmed up.  The floor is on the ratio
    of the two medians, so it measures how well the server takes the wave,
    not how fast this host is.

    Passes alternate cold/established ``SERVE_PASSES`` times against fresh
    servers, and the medians are compared: single passes are noisy
    (scheduler luck).
    """
    served = engine_stack(remote_table, SERVE_K, statistics=False)
    n_clients = SERVE_CLIENTS
    warm = queries[: n_clients * SERVE_WARM_ROUNDS]
    timed = queries[n_clients * SERVE_WARM_ROUNDS :][: n_clients * rounds]

    # request_timeout=None: a slow pass should post a slow number, not shed
    # the measurement's connections mid-pass.
    def make_server():
        return HiddenDatabaseHTTPServer(served, serve_pages=False, request_timeout=None)

    # Byte-identical first: the served backend's answers, over the wire.
    with make_server() as server, RemoteBackend(server.url) as client:
        for query in timed[: min(20, len(timed))]:
            assert client.submit(query) == served.submit(query), str(query)

    rates: dict[str, list[float]] = {"cold": [], "established": []}
    for _ in range(SERVE_PASSES):
        for shape in rates:
            elapsed = _serve_pass(
                make_server, served.schema, warm, timed, n_clients, cold=shape == "cold"
            )
            rates[shape].append(round(len(timed) / elapsed, 1))
    cold = statistics.median(rates["cold"])
    established = statistics.median(rates["established"])
    return {
        "clients": n_clients,
        "warm_clients": SERVE_WARM_CLIENTS,
        "rounds_per_client": rounds,
        "queries_per_pass": len(timed),
        "passes": SERVE_PASSES,
        "k": SERVE_K,
        "rows": REMOTE_ROWS,
        "cold_pass_ops_per_sec": rates["cold"],
        "established_pass_ops_per_sec": rates["established"],
        "cold_ops_per_sec": cold,
        "established_ops_per_sec": established,
        "cold_to_established": round(cold / established, 2),
    }


def run(
    n_rows: int,
    n_latency_queries: int,
    n_cpu_queries: int,
    n_http_queries: int,
    n_serve_rounds: int,
) -> dict:
    rng = random.Random(SEED)
    table = generate_vehicles_table(VehiclesConfig(n_rows=n_rows, seed=SEED))
    remote_table = generate_vehicles_table(VehiclesConfig(n_rows=REMOTE_ROWS, seed=SEED))
    latency_queries = _random_queries(table.schema, rng, n_latency_queries)
    cpu_queries = _random_queries(table.schema, rng, n_cpu_queries)
    http_queries = _random_queries(remote_table.schema, rng, n_http_queries)
    serving_queries = _random_queries(
        remote_table.schema, rng, SERVE_CLIENTS * (SERVE_WARM_ROUNDS + n_serve_rounds)
    )
    shards = bench_parallel_shards(table, latency_queries)
    inprocess = bench_inprocess_shards(table, cpu_queries)
    pooling = bench_remote_pooling(remote_table, http_queries)
    batching = bench_remote_batching(remote_table, http_queries)
    compression = bench_remote_compression(remote_table, http_queries)
    serving = bench_concurrent_serving(remote_table, serving_queries, n_serve_rounds)
    print(
        f"rows={n_rows}  latency-bound {N_SHARDS}-shard dispatch: "
        f"{shards['parallel_ops_per_sec']:>7.1f} vs {shards['serial_ops_per_sec']:>7.1f} q/s "
        f"({shards['speedup']:.2f}x)   in-process: {inprocess['speedup']:.2f}x"
    )
    print(
        f"remote http: pooled {pooling['pooled_ops_per_sec']:.1f} vs unpooled "
        f"{pooling['unpooled_ops_per_sec']:.1f} q/s ({pooling['pooled_speedup']:.2f}x)   "
        f"batched {batching['batched_ops_per_sec']:.1f} vs single "
        f"{batching['single_ops_per_sec']:.1f} q/s ({batching['batched_speedup']:.2f}x)"
    )
    print(
        f"remote compression (informational, median of {compression['passes']}): "
        f"plain {compression['plain_ops_per_sec']:.1f} vs threshold "
        f"{COMPRESS_THRESHOLD} {compression['gzip_ops_per_sec']:.1f} q/s "
        f"({compression['plain_to_gzip']:.2f}x)"
    )
    print(
        f"concurrent serving ({serving['clients']} clients, median of "
        f"{serving['passes']}): cold wave {serving['cold_ops_per_sec']:.1f} vs "
        f"established {serving['established_ops_per_sec']:.1f} q/s "
        f"({serving['cold_to_established']:.2f}x)"
    )
    return {
        "k": K,
        "seed": SEED,
        "rows": n_rows,
        "parallel_shards": shards,
        "inprocess_shards": inprocess,
        "remote_http": {
            "pooling": pooling,
            "batching": batching,
            "compression": compression,
        },
        "concurrent_serving": serving,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="reduced workload (CI smoke mode)")
    parser.add_argument("--check", action="store_true",
                        help="fail if the parallel-dispatch speedup regresses past the floor")
    parser.add_argument("--out", type=Path,
                        default=Path(__file__).resolve().parent.parent / "BENCH_dispatch.json",
                        help="where to write the machine-readable report")
    args = parser.parse_args(argv)

    if args.quick:
        report = run(
            n_rows=5_000,
            n_latency_queries=60,
            n_cpu_queries=150,
            n_http_queries=60,
            n_serve_rounds=6,
        )
    else:
        report = run(
            n_rows=50_000,
            n_latency_queries=200,
            n_cpu_queries=400,
            n_http_queries=150,
            n_serve_rounds=15,
        )
    report["mode"] = "quick" if args.quick else "full"

    args.out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(f"wrote {args.out}")

    if args.check:
        failures = []
        speedup = report["parallel_shards"]["speedup"]
        if speedup < MIN_PARALLEL_SPEEDUP:
            failures.append(
                f"parallel {N_SHARDS}-shard dispatch speedup {speedup:.2f}x "
                f"< {MIN_PARALLEL_SPEEDUP:.0f}x floor"
            )
        pooled = report["remote_http"]["pooling"]["pooled_speedup"]
        if pooled < MIN_POOL_SPEEDUP:
            failures.append(
                f"pooled remote speedup {pooled:.2f}x < {MIN_POOL_SPEEDUP:.1f}x floor"
            )
        batched = report["remote_http"]["batching"]["batched_speedup"]
        if batched < MIN_BATCH_SPEEDUP:
            failures.append(
                f"batched remote speedup {batched:.2f}x < {MIN_BATCH_SPEEDUP:.1f}x floor"
            )
        serving = report["concurrent_serving"]["cold_to_established"]
        if serving < MIN_COLD_WAVE_RATIO:
            failures.append(
                f"cold-wave serving {serving:.2f}x established < "
                f"{MIN_COLD_WAVE_RATIO:.1f}x floor"
            )
        inprocess = report["inprocess_shards"]["speedup"]
        print(
            f"note: in-process shard control is informational only "
            f"({inprocess:.2f}x, GIL-bound by design — no floor enforced)"
        )
        if failures:
            for failure in failures:
                print(f"FAIL: {failure}")
            return 1
        print(
            f"check passed: parallel dispatch {speedup:.2f}x >= "
            f"{MIN_PARALLEL_SPEEDUP:.0f}x, pooled remote {pooled:.2f}x >= "
            f"{MIN_POOL_SPEEDUP:.1f}x, batched remote {batched:.2f}x >= "
            f"{MIN_BATCH_SPEEDUP:.1f}x, cold-wave serving {serving:.2f}x >= "
            f"{MIN_COLD_WAVE_RATIO:.1f}x established"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
