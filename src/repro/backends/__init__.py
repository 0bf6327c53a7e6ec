"""One composable access path for engine, web, and sharded catalogues.

The package separates *what answers conjunctive queries* (raw backends) from
*what a client experiences on the way* (middleware layers):

* raw adapters — :class:`~repro.backends.adapters.QueryEngineBackend`
  (in-process engine), :class:`~repro.backends.adapters.WebPageBackend`
  (HTML scraping) and :class:`~repro.backends.remote.RemoteBackend`
  (JSON-over-HTTP against a :mod:`repro.web.httpd` endpoint), plus
  :class:`~repro.backends.shard.ShardRouter` /
  :class:`~repro.backends.shard.TableShardBackend` for partitioned
  catalogues sharing one :class:`~repro.database.index.TableIndex` and the
  thread-pooled :class:`~repro.backends.dispatch.ConcurrentShardRouter`;
* layers — :class:`~repro.backends.layers.AccountingLayer` (budget and
  statistics in one node),
  :class:`~repro.backends.layers.UnreliableLayer`,
  :class:`~repro.backends.dispatch.DispatchLayer` and
  :class:`~repro.backends.history.HistoryLayer`;
* composition — :class:`~repro.backends.stack.BackendStack` with the curated
  builders :func:`~repro.backends.stack.engine_stack`,
  :func:`~repro.backends.stack.web_stack`,
  :func:`~repro.backends.stack.sharded_stack` and
  :func:`~repro.backends.stack.remote_stack` (one URL, or a list of them
  behind a :class:`~repro.backends.resilience.FailoverRouter`), all
  composed in the one :data:`~repro.backends.stack.LAYER_ORDER`;
* count shaping — :class:`~repro.backends.adapters.CountPolicy`, applied by
  the engine adapter and the shard router where each answer is built.

``HiddenDatabaseInterface`` and ``WebFormClient`` are now thin facades over
these stacks; see ``docs/architecture.md`` for the full picture.
"""

from repro.backends.adapters import (
    CountPolicy,
    QueryEngineBackend,
    WebPageBackend,
    build_returned_tuples,
)
from repro.backends.base import BackendLayer, RawBackend, iter_chain
from repro.backends.dispatch import ConcurrentShardRouter, DispatchLayer
from repro.backends.history import CachedResponseSource, HistoryLayer, HistoryStatistics
from repro.backends.layers import AccountingLayer, UnreliableLayer, UnreliableStatistics
from repro.backends.remote import RemoteBackend
from repro.backends.resilience import (
    BreakerState,
    CircuitBreaker,
    CircuitBreakerLayer,
    CircuitBreakerPolicy,
    Deadline,
    FailoverRouter,
    Fault,
    FaultSchedule,
    current_deadline,
    deadline_scope,
)
from repro.backends.shard import ShardRouter, TableShardBackend
from repro.backends.stack import (
    BackendStack,
    engine_stack,
    introspect,
    remote_stack,
    sharded_stack,
    web_stack,
)

__all__ = [
    "AccountingLayer",
    "BackendLayer",
    "BackendStack",
    "BreakerState",
    "CachedResponseSource",
    "CircuitBreaker",
    "CircuitBreakerLayer",
    "CircuitBreakerPolicy",
    "ConcurrentShardRouter",
    "CountPolicy",
    "Deadline",
    "DispatchLayer",
    "FailoverRouter",
    "Fault",
    "FaultSchedule",
    "HistoryLayer",
    "HistoryStatistics",
    "QueryEngineBackend",
    "RawBackend",
    "RemoteBackend",
    "ShardRouter",
    "TableShardBackend",
    "UnreliableLayer",
    "UnreliableStatistics",
    "WebPageBackend",
    "build_returned_tuples",
    "current_deadline",
    "deadline_scope",
    "engine_stack",
    "introspect",
    "iter_chain",
    "remote_stack",
    "sharded_stack",
    "web_stack",
]
