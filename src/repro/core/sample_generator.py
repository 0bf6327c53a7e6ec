"""The Sample Generator module (paper Section 3.2).

"This module is responsible for generating and executing a sequence of random
queries according to the HIDDEN-DB-SAMPLER algorithm. [...] this module also
keeps track of the query history and results."

:class:`SampleGenerator` assembles the access path (scoping adapter →
:class:`~repro.backends.history.JobHistory` view → one
:class:`~repro.backends.history.HistoryLayer` → the backend), instantiates
the configured sampling algorithm over it, and produces
:class:`~repro.algorithms.base.Candidate` tuples one at a time for the
Sample Processor.

The level sits below the scope, so it caches full queries (bindings
included) and can serve every job on a backend.  Given a
:class:`~repro.backends.history.HistoryLayer` as its database (what
:class:`~repro.service.SamplingService` hands its jobs) the generator counts
through a view on it; given any other backend it builds a private level.
"""

from __future__ import annotations

from repro._rng import resolve_rng, spawn_rng
from repro.algorithms.base import Candidate, HiddenSampler, SamplerReport
from repro.algorithms.brute_force import BruteForceSampler
from repro.algorithms.count_based import CountAidedSampler
from repro.algorithms.ordering import RandomOrdering
from repro.algorithms.random_walk import RandomWalkConfig, RandomWalkSampler
from repro.backends.base import iter_chain
from repro.backends.history import JobHistory, history_level
from repro.backends.remote import RemoteBackend
from repro.backends.resilience import current_deadline, resilience_report
from repro.core.config import HDSamplerConfig, SamplerAlgorithm
from repro.core.scope import ScopedDatabase
from repro.database.interface import HiddenDatabase
from repro.database.query import ConjunctiveQuery
from repro.exceptions import ConfigurationError, QueryBudgetExceededError


class SampleGenerator:
    """Generates candidate sample tuples from the hidden database."""

    def __init__(self, database: HiddenDatabase, config: HDSamplerConfig) -> None:
        self.config = config
        rng = resolve_rng(config.seed)
        #: An open circuit on this chain parks the job mid-walk (see
        #: :meth:`repro.service.SamplingService.run_all`), so its walks must
        #: rewind like deadline-scoped ones (see :meth:`next_candidate`).  A
        #: remote chain can park with no local breaker: the server relays
        #: its own open circuit as a 503 the client re-raises.
        self._can_park = resilience_report(database) is not None or any(
            isinstance(node, RemoteBackend) for node in iter_chain(database)
        )

        # Access path: the sampler sees the analyst's scoped schema; beneath
        # the scope, the job's view counts on the one history level.
        self.history: JobHistory | None = None
        if config.use_history:
            self.history = JobHistory(history_level(database))
            database = self.history
        self.database = ScopedDatabase(
            database, attributes=config.attributes, bindings=config.bindings
        )

        self.sampler = self._build_sampler(self.database, config, spawn_rng(rng, "sampler"))
        self.budget_exhausted = False

    # -- candidate generation --------------------------------------------------------

    def next_candidate(self) -> Candidate | None:
        """Attempt to generate one candidate; ``None`` on a failed attempt.

        Once the interface's query budget is exhausted this keeps returning
        ``None`` and sets :attr:`budget_exhausted`, so the session can stop
        cleanly rather than crash mid-run.

        Any other exception leaves the sampler's RNG where the walk started
        when the walk could be cut: under an ambient deadline, or on a chain
        whose open circuit parks the job.  The caller that re-enters the job
        then replays the same walk, and the history answers its prefix, so
        an interruption never changes the sample stream.  Other walks skip
        the ~11 µs ``getstate()``.
        """
        if self.budget_exhausted:
            return None
        rng = self.sampler.rng
        start = rng.getstate() if self._can_park or current_deadline() is not None else None
        try:
            return self.sampler.draw_candidate()
        except QueryBudgetExceededError:
            self.budget_exhausted = True
            return None
        except BaseException:
            if start is not None:
                rng.setstate(start)
            raise

    # -- reporting -----------------------------------------------------------------------

    @property
    def report(self) -> SamplerReport:
        """The underlying sampler's run report (queries, walks, candidates)."""
        return self.sampler.report

    def interface_queries_issued(self) -> int:
        """Queries this job's submissions caused to reach the hidden database.

        With history enabled this is smaller than the sampler's own count of
        submissions; the difference is the optimisation's saving, answers
        other jobs on the same level paid for included.
        """
        if self.history is not None:
            return self.history.statistics.issued_to_interface
        return self.sampler.report.queries_issued

    # -- checkpointing ---------------------------------------------------------------------

    def export_history(self) -> list[dict] | None:
        """The job's history entries in its scoped terms, bindings stripped
        (``None`` without history)."""
        if self.history is None:
            return None
        bound = self.database.bindings
        entries = self.history.export_entries()
        for entry in entries:
            entry["query"] = {name: value for name, value in entry["query"].items() if name not in bound}
        return entries

    def import_history(self, entries: list[dict]) -> None:
        """Load :meth:`export_history` output into the history level: each
        entry is parsed against the scoped schema, then stored under the full
        query, bindings added, so no other job mistakes it for its own."""
        if self.history is None:
            return
        scope = self.database
        self.history.import_entries(
            entries,
            lambda assignment: scope.to_full_query(ConjunctiveQuery.from_assignment(scope.schema, assignment)),
        )

    # -- internals -------------------------------------------------------------------------

    def _build_sampler(self, database: HiddenDatabase, config: HDSamplerConfig, seed) -> HiddenSampler:
        if config.algorithm is SamplerAlgorithm.RANDOM_WALK:
            walk_config = RandomWalkConfig(efficiency=config.tradeoff.position)
            return RandomWalkSampler(
                database,
                config=walk_config,
                ordering=RandomOrdering(),
                acceptance_policy=config.tradeoff.acceptance_policy(database.schema, database.k),
                seed=seed,
            )
        if config.algorithm is SamplerAlgorithm.COUNT_AIDED:
            return CountAidedSampler(database, ordering=RandomOrdering(), seed=seed)
        if config.algorithm is SamplerAlgorithm.BRUTE_FORCE:
            return BruteForceSampler(database, seed=seed)
        raise ConfigurationError(f"unsupported sampler algorithm {config.algorithm!r}")
