"""Unit tests for the composable backend layers and the stack invariants."""

import pytest

from repro.backends import (
    AccountingLayer,
    BackendStack,
    CircuitBreakerLayer,
    CountPolicy,
    HistoryLayer,
    QueryEngineBackend,
    ShardRouter,
    UnreliableLayer,
    engine_stack,
    web_stack,
)
from repro.backends.stack import LAYER_ORDER
from repro.database.interface import CountMode, HiddenDatabaseInterface
from repro.database.limits import QueryBudget
from repro.database.query import ConjunctiveQuery
from repro.database.ranking import StaticScoreRanking
from repro.exceptions import (
    ConfigurationError,
    InterfaceError,
    QueryBudgetExceededError,
    RateLimitedError,
    TransientBackendError,
)
from repro.web.client import WebFormClient
from repro.web.server import HiddenWebSite


@pytest.fixture()
def raw(tiny_table):
    return QueryEngineBackend(tiny_table, k=2, ranking=StaticScoreRanking())


@pytest.fixture()
def any_query(tiny_schema):
    return ConjunctiveQuery.from_assignment(tiny_schema, {"make": "Honda"})


class TestRawAdapters:
    def test_engine_backend_always_reports_exact_counts(self, raw, tiny_schema):
        response = raw.submit(ConjunctiveQuery.empty(tiny_schema))
        assert response.reported_count == 8
        assert response.overflow and len(response.tuples) == 2

    def test_engine_backend_does_no_accounting(self, raw, any_query):
        raw.submit(any_query)
        assert not hasattr(raw, "statistics")


class TestAccountingLayer:
    """Budget charging and query counting, in one node under one lock."""

    # -- charging (the budget half) ------------------------------------------

    def test_charges_before_touching_the_backend(self, raw, tiny_schema):
        layer = AccountingLayer(raw, budget=QueryBudget(limit=1))
        layer.submit(ConjunctiveQuery.empty(tiny_schema))
        with pytest.raises(QueryBudgetExceededError):
            layer.submit(ConjunctiveQuery.empty(tiny_schema))
        assert layer.budget.issued == 1

    def test_defaults_to_unlimited(self, raw, any_query):
        layer = AccountingLayer(raw)
        for _ in range(5):
            layer.submit(any_query)
        assert layer.budget.issued == 5 and layer.budget.remaining is None

    def test_a_batch_is_charged_all_or_nothing(self, raw, tiny_schema, any_query):
        layer = AccountingLayer(raw, budget=QueryBudget(limit=2))
        for submit in (BackendStack(layer).submit_outcomes, layer.submit_outcomes):
            with pytest.raises(QueryBudgetExceededError):
                submit([any_query] * 3)
        assert layer.budget.issued == 0 and layer.statistics.queries_issued == 0
        layer.submit_outcomes([any_query] * 2)
        assert layer.budget.issued == 2 and layer.statistics.queries_issued == 2

    def test_unlimited_budget_charges_when_the_call_returns(self, raw, any_query):
        """An unlimited budget never refuses, so the charge is recorded with
        the answer, after the inner call, in the same critical section."""
        seen_during_call = []

        class Observing:
            schema = raw.schema
            k = raw.k

            def submit(self, query):
                seen_during_call.append(layer.budget.issued)
                return raw.submit(query)

        layer = AccountingLayer(Observing())
        layer.submit(any_query)
        layer.submit(any_query)
        assert seen_during_call == [0, 1]
        assert layer.budget.issued == 2 and layer.statistics.queries_issued == 2

    def test_statistics_false_charges_only(self, raw, any_query):
        layer = AccountingLayer(raw, budget=QueryBudget(limit=3), statistics=False)
        layer.submit(any_query)
        BackendStack(layer).submit_outcomes([any_query])
        layer.submit_outcomes([any_query])
        layer.reset()
        assert layer.budget.issued == 3
        assert layer.statistics is None and layer.snapshot() is None

    # -- counting (the statistics half) --------------------------------------

    def test_counts_answered_queries_by_outcome(self, raw, tiny_schema):
        layer = AccountingLayer(raw)
        layer.submit(ConjunctiveQuery.empty(tiny_schema))                       # overflow
        layer.submit(ConjunctiveQuery.from_assignment(tiny_schema, {"make": "Honda"}))  # valid
        layer.submit(ConjunctiveQuery.from_assignment(
            tiny_schema, {"make": "Honda", "price": "0-10000"}))               # empty
        stats = layer.statistics.as_dict()
        assert stats["queries_issued"] == 3
        assert stats["overflow_results"] == stats["valid_results"] == stats["empty_results"] == 1

    def test_failed_submissions_are_not_counted(self, raw, tiny_schema):
        layer = AccountingLayer(raw, budget=QueryBudget(limit=0))
        with pytest.raises(QueryBudgetExceededError):
            layer.submit(ConjunctiveQuery.empty(tiny_schema))
        assert layer.statistics.queries_issued == 0
        # A submission that fails *below* the layer is charged, not counted.
        failing = AccountingLayer(UnreliableLayer(raw, rate_limit_every=1, max_retries=0))
        with pytest.raises(RateLimitedError):
            failing.submit(ConjunctiveQuery.empty(tiny_schema))
        assert failing.budget.issued == 1 and failing.statistics.queries_issued == 0

    def test_outcomes_count_only_the_answered_items(self, raw, any_query):
        layer = AccountingLayer(UnreliableLayer(raw, rate_limit_every=2, max_retries=0))
        outcomes = layer.submit_outcomes([any_query] * 4)
        assert [isinstance(o, RateLimitedError) for o in outcomes] == [False, True] * 2
        assert layer.budget.issued == 4 and layer.statistics.queries_issued == 2

    def test_a_failed_item_does_not_stop_its_batch(self, raw, tiny_schema):
        """A failed item gets its error as its outcome, and every item still
        went down the stack: charged and issued, the answers counted."""
        poison = ConjunctiveQuery.from_assignment(tiny_schema, {"make": "Ford"})
        issued = []

        class PoisonedBackend:
            schema = raw.schema
            k = raw.k

            def submit(self, query):
                issued.append(query)
                if query.canonical_key() == poison.canonical_key():
                    raise QueryBudgetExceededError(1, 1)
                return raw.submit(query)

        stack = BackendStack(PoisonedBackend(), [AccountingLayer])
        queries = [
            ConjunctiveQuery.from_assignment(tiny_schema, assignment)
            for assignment in ({"make": "Honda"}, {"make": "Ford"}, {"make": "Toyota"},
                               {"color": "red"})
        ]
        outcomes = stack.submit_outcomes(queries)
        assert [isinstance(o, QueryBudgetExceededError) for o in outcomes] == [
            False, True, False, False
        ]
        assert issued == queries
        assert stack.budget.issued == 4
        assert stack.statistics.queries_issued == 3

    def test_reset_clears_the_counters_and_keeps_the_budget(self, raw, any_query):
        layer = AccountingLayer(raw)
        layer.submit(any_query)
        before = layer.snapshot()
        layer.reset()
        assert before.queries_issued == 1 and layer.snapshot().queries_issued == 0
        assert layer.budget.issued == 1


class TestSingleCounterInvariant:
    """Regression for the duplicated query accounting of the pre-stack world."""

    def test_two_statistics_layers_in_one_stack_raise(self, raw):
        with pytest.raises(ConfigurationError):
            BackendStack(raw, [AccountingLayer, AccountingLayer])

    def test_wrapping_a_web_client_with_another_counter_raises(self, tiny_table, tiny_schema):
        # A WebFormClient already owns the single counting AccountingLayer of
        # its access path; composing a second counter around it used to
        # silently double-count every issued query and is now a construction
        # error.
        site = HiddenWebSite(QueryEngineBackend(tiny_table, k=2, ranking=StaticScoreRanking()))
        client = WebFormClient(site, tiny_schema)
        with pytest.raises(ConfigurationError):
            BackendStack(client, [AccountingLayer])

    def test_wrapping_the_classic_interface_with_another_counter_raises(self, tiny_interface):
        with pytest.raises(ConfigurationError):
            BackendStack(tiny_interface, [AccountingLayer])

    def test_one_query_is_counted_exactly_once_end_to_end(self, tiny_table, tiny_schema, any_query):
        # Serve the site from a raw (counter-free) backend: the client's own
        # layer is then the only statistics counter on the whole path.
        site = HiddenWebSite(QueryEngineBackend(tiny_table, k=2, ranking=StaticScoreRanking()))
        client = WebFormClient(site, tiny_schema)
        # An extra charge-only accounting layer stays legal.
        stack = BackendStack(client, [lambda inner: AccountingLayer(inner, statistics=False)])
        stack.submit(any_query)
        assert client.statistics.queries_issued == 1
        assert stack.budget.issued == 1


class TestLayerOrder:
    """Ranked layers a stack builds follow ``LAYER_ORDER``, innermost first."""

    def test_the_order_table(self):
        assert [kind.__name__ for kind in LAYER_ORDER] == [
            "CircuitBreakerLayer",
            "UnreliableLayer",
            "AccountingLayer",
            "HistoryLayer",
            "DispatchLayer",
        ]

    @pytest.mark.parametrize(
        "below, above",
        [
            (AccountingLayer, UnreliableLayer),
            (UnreliableLayer, CircuitBreakerLayer),
            (HistoryLayer, AccountingLayer),
        ],
        ids=["retry-above-accounting", "breaker-above-retry", "accounting-above-history"],
    )
    def test_mis_ordered_layers_are_refused(self, raw, below, above):
        with pytest.raises(
            ConfigurationError, match=f"{above.__name__} cannot sit above {below.__name__}"
        ):
            BackendStack(raw, [below, above])

    def test_unranked_layers_are_not_checked(self, raw, any_query):
        class Passthrough:
            def __init__(self, inner):
                self.inner = inner
                self.schema = inner.schema
                self.k = inner.k

            def submit(self, query):
                return self.inner.submit(query)

        stack = BackendStack(raw, [Passthrough, AccountingLayer, Passthrough, HistoryLayer])
        assert stack.submit(any_query).valid


class TestCountPolicy:
    """Count shaping where the answer is built: engine adapter and shard router."""

    def test_none_hides_the_exact_count(self, tiny_table, any_query):
        raw = QueryEngineBackend(tiny_table, k=2, counts=CountPolicy(CountMode.NONE))
        assert raw.submit(any_query).reported_count is None

    def test_exact_passes_the_count_through(self, tiny_table, tiny_schema):
        raw = QueryEngineBackend(tiny_table, k=2, counts=CountPolicy(CountMode.EXACT))
        assert raw.submit(ConjunctiveQuery.empty(tiny_schema)).reported_count == 8

    def test_noisy_is_bounded_and_deterministic_per_seed(self, tiny_table, tiny_schema):
        query = ConjunctiveQuery.from_assignment(tiny_schema, {"make": "Toyota"})

        def build():
            return QueryEngineBackend(
                tiny_table, k=2, ranking=StaticScoreRanking(),
                counts=CountPolicy(CountMode.NOISY, noise=0.5, seed=42),
            )

        reported = build().submit(query).reported_count
        assert 2 <= reported <= 6  # 4 ± 50%
        assert build().submit(query).reported_count == reported

    def test_noisy_zero_stays_zero(self, tiny_table, tiny_schema):
        raw = QueryEngineBackend(tiny_table, k=2, counts=CountPolicy(CountMode.NOISY, seed=1))
        query = ConjunctiveQuery.from_assignment(tiny_schema, {"make": "Honda", "price": "0-10000"})
        assert raw.submit(query).reported_count == 0

    def test_noisy_never_rounds_a_nonempty_count_to_zero(self, tiny_table, tiny_schema):
        # Regression: with large relative noise a true count of 1 used to
        # round to 0, so count-leveraging samplers treated a live subtree as
        # provably empty and pruned it.  Now a non-empty result always
        # reports >= 1 under every seed.
        query = ConjunctiveQuery.from_assignment(
            tiny_schema, {"make": "Ford", "price": "20000-40000"})  # exactly one match
        for seed in range(50):
            raw = QueryEngineBackend(
                tiny_table, k=2, ranking=StaticScoreRanking(),
                counts=CountPolicy(CountMode.NOISY, noise=0.99, seed=seed),
            )
            reported = raw.submit(query).reported_count
            assert reported >= 1, f"seed {seed} reported {reported} for a non-empty result"

    def test_needs_an_exact_count_beneath_it(self, tiny_table, any_query):
        # The router shapes its merged total itself; shards that hide their
        # counts leave it nothing to sum.
        hidden = [
            QueryEngineBackend(tiny_table, k=2, counts=CountPolicy(CountMode.NONE))
            for _ in range(2)
        ]
        with pytest.raises(InterfaceError, match="exact counts from its shards"):
            ShardRouter(hidden, counts=CountPolicy(CountMode.EXACT)).submit(any_query)

    def test_negative_noise_rejected(self, tiny_table):
        with pytest.raises(InterfaceError):
            CountPolicy(noise=-0.1)
        with pytest.raises(InterfaceError):
            engine_stack(tiny_table, k=2, count_noise=-0.1)


class TestUnreliableLayer:
    def test_rate_limit_self_heals_with_retries(self, raw, any_query):
        layer = UnreliableLayer(raw, rate_limit_every=2, max_retries=2)
        for _ in range(6):
            assert layer.submit(any_query).valid
        assert layer.statistics.rate_limited > 0
        assert layer.statistics.retries == layer.statistics.rate_limited
        assert layer.statistics.gave_up == 0

    def test_without_retries_the_fault_surfaces(self, raw, any_query):
        layer = UnreliableLayer(raw, rate_limit_every=1, max_retries=0)
        with pytest.raises(RateLimitedError):
            layer.submit(any_query)
        assert layer.statistics.gave_up == 1

    def test_transient_failures_are_deterministic_per_seed(self, raw, any_query):
        def run(seed):
            layer = UnreliableLayer(raw, failure_rate=0.5, max_retries=5, seed=seed)
            for _ in range(20):
                layer.submit(any_query)
            return layer.statistics.as_dict()

        assert run(7) == run(7)
        assert run(7)["transient_failures"] > 0

    def test_exhausted_retries_raise_transient_error(self, raw, any_query):
        layer = UnreliableLayer(raw, failure_rate=0.99, max_retries=1, seed=3)
        with pytest.raises(TransientBackendError):
            for _ in range(50):
                layer.submit(any_query)

    def test_parameter_validation(self, raw):
        with pytest.raises(InterfaceError):
            UnreliableLayer(raw, failure_rate=1.0)
        with pytest.raises(InterfaceError):
            UnreliableLayer(raw, rate_limit_every=0)
        with pytest.raises(InterfaceError):
            UnreliableLayer(raw, max_retries=-1)
        with pytest.raises(InterfaceError):
            UnreliableLayer(raw, retry_backoff=-0.1)
        with pytest.raises(InterfaceError):
            UnreliableLayer(raw, latency=-1.0)


class _FlakyBackend:
    """A backend that raises real transient faults before finally answering."""

    def __init__(self, inner, failures_per_query=2, error=TransientBackendError):
        self.inner = inner
        self.failures_per_query = failures_per_query
        self._error = error
        self._failures_left = failures_per_query

    @property
    def schema(self):
        return self.inner.schema

    @property
    def k(self):
        return self.inner.k

    def submit(self, query):
        if self._failures_left > 0:
            self._failures_left -= 1
            raise self._error()
        self._failures_left = self.failures_per_query
        return self.inner.submit(query)


class TestUnreliableLayerRetriesRealFaults:
    """Regression: only *injected* faults used to be retried — a transient
    error raised by the inner backend (now reachable via RemoteBackend)
    propagated immediately, defeating the whole retry layer."""

    def test_inner_transient_faults_are_retried_and_counted(self, raw, any_query):
        layer = UnreliableLayer(_FlakyBackend(raw, failures_per_query=2), max_retries=3)
        for _ in range(4):
            assert layer.submit(any_query).valid
        stats = layer.statistics
        assert stats.backend_transient_failures == 8   # 2 per successful submission
        assert stats.retries == 8
        assert stats.gave_up == 0
        assert stats.transient_failures == 0           # nothing was injected

    def test_inner_rate_limits_are_retried_and_counted_separately(self, raw, any_query):
        flaky = _FlakyBackend(raw, failures_per_query=1, error=RateLimitedError)
        layer = UnreliableLayer(flaky, max_retries=2)
        assert layer.submit(any_query).valid
        assert layer.statistics.backend_rate_limited == 1
        assert layer.statistics.backend_transient_failures == 0
        assert layer.statistics.rate_limited == 0      # nothing was injected

    def test_exhausted_retries_surface_the_real_fault(self, raw, any_query):
        layer = UnreliableLayer(_FlakyBackend(raw, failures_per_query=99), max_retries=2)
        with pytest.raises(TransientBackendError):
            layer.submit(any_query)
        assert layer.statistics.gave_up == 1
        assert layer.statistics.backend_transient_failures == 3  # initial try + 2 retries

    def test_with_zero_retries_the_real_fault_propagates(self, raw, any_query):
        layer = UnreliableLayer(_FlakyBackend(raw, failures_per_query=1), max_retries=0)
        with pytest.raises(TransientBackendError):
            layer.submit(any_query)

    def test_non_transient_errors_are_never_retried(self, tiny_table, tiny_schema, any_query):
        raw = QueryEngineBackend(tiny_table, k=2, ranking=StaticScoreRanking())
        exhausted = AccountingLayer(raw, budget=QueryBudget(limit=0))
        layer = UnreliableLayer(exhausted, max_retries=5)
        with pytest.raises(QueryBudgetExceededError):
            layer.submit(any_query)
        assert layer.statistics.attempts == 1          # no retry of a permanent error

    def test_mixed_injected_and_real_faults_heal_together(self, raw, any_query):
        layer = UnreliableLayer(
            _FlakyBackend(raw, failures_per_query=1),
            rate_limit_every=3, max_retries=4,
        )
        for _ in range(5):
            assert layer.submit(any_query).valid
        stats = layer.statistics
        assert stats.backend_transient_failures > 0
        assert stats.rate_limited > 0
        assert stats.gave_up == 0


class TestHistoryOnTheWebPath:
    """The lifted history layer must save *page fetches*, not just queries."""

    @pytest.fixture()
    def site(self, tiny_table):
        return HiddenWebSite(
            QueryEngineBackend(
                tiny_table, k=2, ranking=StaticScoreRanking(), display_columns=("score",)
            )
        )

    def test_exact_repeat_fetches_no_page(self, site, tiny_schema):
        client = WebFormClient(site, tiny_schema)
        history = HistoryLayer(client)
        query = ConjunctiveQuery.from_assignment(tiny_schema, {"make": "Honda"})
        fetched_before = site.pages_served
        first = history.submit(query)
        second = history.submit(query)
        assert second == first
        assert site.pages_served == fetched_before + 1  # one result page, not two
        assert client.statistics.queries_issued == 1    # counts actual fetches
        assert history.statistics.exact_hits == 1

    def test_subset_inference_fetches_no_page(self, site, tiny_schema):
        history = HistoryLayer(WebFormClient(site, tiny_schema))
        broad = ConjunctiveQuery.from_assignment(tiny_schema, {"make": "Honda"})
        narrow = broad.specialise("color", "red")
        history.submit(broad)  # valid: both Hondas fit in k=2
        fetched = site.pages_served
        response = history.submit(narrow)
        assert site.pages_served == fetched
        assert [t.tuple_id for t in response.tuples] == [4]
        assert history.statistics.inferred == 1

    def test_history_off_by_default_keeps_legacy_contract(self, site, tiny_schema):
        client = WebFormClient(site, tiny_schema)
        query = ConjunctiveQuery.from_assignment(tiny_schema, {"make": "Honda"})
        client.submit(query)
        client.submit(query)
        assert client.statistics.queries_issued == 2


class TestBackendStack:
    def test_engine_stack_layers_and_accessors(self, tiny_table):
        stack = engine_stack(
            tiny_table, k=2, ranking=StaticScoreRanking(),
            count_mode=CountMode.EXACT, budget=QueryBudget(limit=10),
        )
        assert stack.statistics is not None and stack.budget is not None
        assert stack.describe() == "AccountingLayer → QueryEngineBackend"
        assert engine_stack(tiny_table, k=2).describe() == "AccountingLayer → QueryEngineBackend"

    @pytest.mark.parametrize(
        "builder", ["engine_stack", "web_stack", "sharded_stack", "remote_stack", "WebFormClient"]
    )
    def test_no_builder_has_a_history_option(self, builder, tiny_table, tiny_schema):
        """A job's ``use_history`` is the one history switch: every builder
        and facade refuses a ``history=`` argument before building anything."""
        from repro.backends import remote_stack, sharded_stack

        site = HiddenWebSite(QueryEngineBackend(tiny_table, k=2))
        build = {
            "engine_stack": lambda: engine_stack(tiny_table, k=2, history=True),
            "web_stack": lambda: web_stack(site, tiny_schema, history=True),
            "sharded_stack": lambda: sharded_stack(tiny_table, 2, k=2, history=True),
            "remote_stack": lambda: remote_stack("http://127.0.0.1:9", history=True),
            "WebFormClient": lambda: WebFormClient(site, tiny_schema, history=True),
        }[builder]
        with pytest.raises(TypeError, match="history"):
            build()

    def test_history_hits_charge_no_budget_and_count_no_queries(self, tiny_table, tiny_schema):
        stack = engine_stack(
            tiny_table, k=2, ranking=StaticScoreRanking(), budget=QueryBudget(limit=10),
        )
        history = HistoryLayer(stack)
        query = ConjunctiveQuery.from_assignment(tiny_schema, {"make": "Honda"})
        history.submit(query)
        history.submit(query)
        assert stack.budget.issued == 1
        assert stack.statistics.queries_issued == 1

    def test_web_stack_over_a_site(self, tiny_table, tiny_schema, any_query):
        site = HiddenWebSite(QueryEngineBackend(tiny_table, k=2, ranking=StaticScoreRanking()))
        stack = web_stack(site, tiny_schema)
        assert stack.k == 2
        assert stack.submit(any_query).valid
        assert stack.statistics.queries_issued == 1

    def test_facades_expose_their_stack(self, tiny_interface):
        assert tiny_interface.stack.statistics is tiny_interface.statistics
        assert tiny_interface.stack.budget is tiny_interface.budget
