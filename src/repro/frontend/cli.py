"""The ``hdsampler`` command-line front end.

Runs the paper's demo scenario end to end on a locally simulated hidden
database (the vehicles catalogue by default): configure attributes, sample
count and the efficiency↔skew slider from flags, sample, and print the
marginal histograms and an optional aggregate query answer.

Examples
--------
Sample 200 vehicles with a balanced slider and show the ``make`` histogram::

    hdsampler --samples 200 --attributes make color --histogram make

Estimate the average price of used vehicles::

    hdsampler --samples 300 --aggregate avg --measure price --where condition=used
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro.backends import BackendStack, engine_stack, remote_stack, sharded_stack
from repro.core.config import HDSamplerConfig, SamplerAlgorithm
from repro.core.tradeoff import TradeoffSlider
from repro.database.interface import CountMode
from repro.database.limits import QueryBudget
from repro.datasets.boolean import BooleanConfig, generate_boolean_table
from repro.datasets.vehicles import VehiclesConfig, default_vehicles_ranking, generate_vehicles_table
from repro.exceptions import ReproError
from repro.frontend.dashboard import Dashboard
from repro.service import SamplingService


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed separately for testing)."""
    parser = argparse.ArgumentParser(
        prog="hdsampler",
        description="Sample a (locally simulated) hidden database behind a web form interface.",
    )
    parser.add_argument("--dataset", choices=("vehicles", "boolean"), default="vehicles",
                        help="which simulated hidden database to sample")
    parser.add_argument("--rows", type=int, default=5000, help="size of the simulated database")
    parser.add_argument("--top-k", type=int, default=100, dest="top_k",
                        help="top-k display limit of the simulated interface")
    parser.add_argument("--samples", type=int, default=100, help="number of samples to collect")
    parser.add_argument("--attributes", nargs="*", default=None,
                        help="restrict sampling to these attributes")
    parser.add_argument("--where", nargs="*", default=[], metavar="ATTR=VALUE",
                        help="fixed value bindings, e.g. condition=used")
    parser.add_argument("--tradeoff", type=float, default=0.5,
                        help="efficiency/skew slider: 0 = lowest skew, 1 = highest efficiency")
    parser.add_argument("--algorithm", choices=[a.value for a in SamplerAlgorithm],
                        default=SamplerAlgorithm.RANDOM_WALK.value,
                        help="candidate-generation algorithm")
    parser.add_argument("--no-history", action="store_true",
                        help="disable the query-history optimisation")
    parser.add_argument("--budget", type=int, default=None,
                        help="per-client query budget of the interface (default: unlimited)")
    parser.add_argument("--shards", type=int, default=1,
                        help="partition the simulated catalogue over N shard backends "
                             "behind one router (results are identical to --shards 1)")
    parser.add_argument("--parallel", type=int, default=None, metavar="N",
                        help="overlap round-trips over N worker threads: shard "
                             "sub-queries with --shards > 1, batch chunks with "
                             "--remote (results are identical to serial)")
    parser.add_argument("--remote", default=None, metavar="URL",
                        help="sample a remote hidden database served by a "
                             "repro.web.httpd endpoint instead of simulating one locally "
                             "(--dataset/--rows/--shards are then ignored)")
    parser.add_argument("--batch", type=int, default=None, metavar="M",
                        help="with --remote: ship up to M queries per wire round-trip "
                             "through POST /api/submit_batch (per-item statuses; "
                             "combine with --parallel N to overlap chunks)")
    parser.add_argument("--deadline", type=float, default=None, metavar="SECONDS",
                        help="wall-clock budget for the whole run: retry backoff "
                             "sleeps clip to the remaining budget, expired work "
                             "fails fast with a typed error, and with --remote the "
                             "remaining budget travels to the server so it sheds "
                             "already-expired requests")
    parser.add_argument("--seed", type=int, default=0, help="random seed")
    parser.add_argument("--histogram", nargs="*", default=None,
                        help="attributes whose sampled histograms to print (default: first two)")
    parser.add_argument("--aggregate", choices=("count", "sum", "avg"), default=None,
                        help="also answer one aggregate query from the samples")
    parser.add_argument("--measure", default=None,
                        help="measure attribute for --aggregate sum/avg (e.g. price)")
    parser.add_argument("--progress", action="store_true",
                        help="print a progress line every 10 accepted samples")
    parser.add_argument("--scenario", nargs="*", default=None, metavar="NAME",
                        help="run the named adversarial scenario(s) from the chaos "
                             "corpus instead of a demo run (no names = whole corpus; "
                             "see python -m repro.scenarios for the full harness)")
    parser.add_argument("--list-scenarios", action="store_true", dest="list_scenarios",
                        help="list the adversarial scenario corpus and exit")
    return parser


def _parse_bindings(pairs: Sequence[str]) -> dict[str, object]:
    bindings: dict[str, object] = {}
    for pair in pairs:
        name, separator, value = pair.partition("=")
        if not separator or not name or not value:
            raise ReproError(f"--where expects ATTR=VALUE, got {pair!r}")
        bindings[name] = _coerce(value)
    return bindings


def _coerce(text: str) -> object:
    lowered = text.lower()
    if lowered in {"true", "false"}:
        return lowered == "true"
    try:
        return int(text)
    except ValueError:
        return text


def _build_backend(args: argparse.Namespace) -> BackendStack:
    """The simulated hidden database as a composed backend stack.

    With ``--shards N`` the raw backend is a shard router over N partitions
    sharing one table index; adding ``--parallel M`` scatters the sub-queries
    over M worker threads.  The count mode and the accounting layer above
    are identical either way, as are the sampled results.  With
    ``--remote URL`` nothing is simulated: the stack talks JSON-over-HTTP to
    the named endpoint over pooled keep-alive connections, retrying real
    429s/5xxs; ``--batch M`` ships up to M queries per round-trip and
    ``--parallel N`` overlaps those chunks.
    """
    if args.shards < 1:
        raise ReproError("--shards must be at least 1")
    if args.parallel is not None and args.parallel < 1:
        raise ReproError("--parallel must be at least 1")
    if args.batch is not None and args.batch < 1:
        raise ReproError("--batch must be at least 1")
    if args.batch is not None and args.remote is None:
        raise ReproError("--batch configures the remote wire batch; it needs --remote URL")
    if (
        args.parallel is not None
        and args.parallel > 1
        and args.remote is None
        and args.shards < 2
    ):
        raise ReproError("--parallel needs --shards > 1 or --remote to have work to overlap")
    budget = QueryBudget(limit=args.budget) if args.budget is not None else QueryBudget()
    if args.remote is not None:
        return remote_stack(
            args.remote, budget=budget, parallel=args.parallel, batch=args.batch
        )
    count_mode = (
        CountMode.EXACT
        if args.algorithm == SamplerAlgorithm.COUNT_AIDED.value
        else CountMode.NONE
    )
    if args.dataset == "vehicles":
        table = generate_vehicles_table(VehiclesConfig(n_rows=args.rows, seed=args.seed))
        ranking = default_vehicles_ranking()
        display_columns: tuple[str, ...] = ("title",)
    else:
        table = generate_boolean_table(
            BooleanConfig(n_rows=args.rows, n_attributes=8, seed=args.seed)
        )
        ranking = None
        display_columns = ()
    if args.shards > 1:
        return sharded_stack(
            table, args.shards, args.top_k, ranking=ranking, count_mode=count_mode,
            budget=budget, display_columns=display_columns, seed=args.seed,
            parallel=args.parallel,
        )
    return engine_stack(
        table, args.top_k, ranking=ranking, count_mode=count_mode,
        budget=budget, display_columns=display_columns, seed=args.seed,
    )


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point of the ``hdsampler`` command."""
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_scenarios or args.scenario is not None:
        # Delegate to the scenario harness: same corpus, same scoring, no
        # artifact file (operators wanting the JSON run the module directly).
        from repro.scenarios.cli import main as scenarios_main

        if args.list_scenarios:
            return scenarios_main(["--list"])
        return scenarios_main(["--only", *args.scenario, "--out", "-"])

    try:
        backend = _build_backend(args)
        config = HDSamplerConfig(
            n_samples=args.samples,
            attributes=tuple(args.attributes) if args.attributes else None,
            bindings=_parse_bindings(args.where),
            tradeoff=TradeoffSlider(args.tradeoff),
            algorithm=SamplerAlgorithm(args.algorithm),
            use_history=not args.no_history,
            seed=args.seed,
        )
        service = SamplingService(backend)
        job = service.submit(config)
        histogram_attributes = (
            tuple(args.histogram) if args.histogram else job.schema.attribute_names[:2]
        )
        dashboard = Dashboard(
            job,
            histogram_attributes=histogram_attributes,
            printer=print if args.progress else None,
            print_every=10 if args.progress else 0,
            backend=service,  # the service report includes shared-history savings
        )
        print(config.describe())
        print(f"access path: {backend.describe()}")
        print()
        if args.deadline is not None:
            from repro.backends import Deadline, deadline_scope

            with deadline_scope(Deadline.after(args.deadline)):
                result = job.run()
        else:
            result = job.run()
        print(dashboard.render_progress_line())
        print()
        for attribute in histogram_attributes:
            print(result.render_histogram(attribute))
            print()
        if args.aggregate is not None:
            estimate = result.aggregate(args.aggregate, measure_attribute=args.measure)
            print(estimate)
            print()
        summary = result.summary()
        print(
            f"state={summary['state']}  samples={summary['samples']}  "
            f"queries={summary['queries_issued']}  "
            f"queries/sample={summary['queries_per_sample']:.1f}"
        )
        print(dashboard.render_backend_line())
        return 0
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - module executable
    sys.exit(main())
