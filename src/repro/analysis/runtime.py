"""Runtime validation of the R5 lock-order invariant.

The static rule (:mod:`repro.analysis.rules.lock_order`) predicts which
"lock A held while acquiring B" edges *can* happen; this module observes
which edges *do* happen.  Tests wrap real locks in :class:`OrderedLock`,
run the concurrent workload, then assert two things:

* no run ever acquired locks in an order that inverts an edge already
  observed (the classic deadlock precondition), and
* every observed edge is a subset of the statically-predicted graph —
  otherwise the static rule has a blind spot and needs extending.

This is test-only instrumentation: production code keeps plain
``threading.Lock`` objects, and nothing here is imported outside the test
suite and this package.
"""

from __future__ import annotations

import threading
from types import TracebackType

from repro.exceptions import ReproError


class LockOrderError(ReproError):
    """Two locks were acquired in an order that inverts an observed edge."""


class LockOrderRegistry:
    """Accumulates "held A while acquiring B" edges across threads.

    The registry is itself shared mutable state, so its bookkeeping happens
    under a private lock; per-thread held stacks live in ``threading.local``
    storage and need no locking.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._edges: dict[str, set[str]] = {}
        self._local = threading.local()

    def _held(self) -> list[str]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def observe_acquire(self, name: str) -> None:
        """Record that this thread acquires ``name`` with its current stack."""
        held = self._held()
        with self._lock:
            for holder in held:
                if holder == name:
                    continue
                # Inversion check first: if B -> A was ever observed and we
                # now see A -> B, some pair of executions can deadlock.
                if holder in self._edges.get(name, set()):
                    raise LockOrderError(
                        f"lock order inversion: acquiring '{name}' while "
                        f"holding '{holder}', but '{name}' has been held "
                        f"while acquiring '{holder}' elsewhere"
                    )
                self._edges.setdefault(holder, set()).add(name)
        held.append(name)

    def observe_release(self, name: str) -> None:
        held = self._held()
        if held and held[-1] == name:
            held.pop()
        elif name in held:  # out-of-order release: still forget it
            held.remove(name)

    def edges(self) -> dict[str, set[str]]:
        """A snapshot of every observed edge."""
        with self._lock:
            return {source: set(targets) for source, targets in self._edges.items()}


#: Default shared registry; tests that need isolation construct their own.
default_registry = LockOrderRegistry()


class OrderedLock:
    """A ``threading.Lock`` work-alike that reports its ordering behaviour.

    Drop-in for the ``with layer._lock:`` pattern: supports the context
    manager protocol plus explicit ``acquire``/``release``.  Each instance
    carries a ``name`` that should match the static graph's node naming
    (``ClassName.attr`` — see ``rules/lock_order.py``) so observed edges can
    be compared against predicted ones.
    """

    def __init__(self, name: str, registry: LockOrderRegistry | None = None) -> None:
        self.name = name
        self.registry = registry if registry is not None else default_registry
        self._lock = threading.Lock()

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        # Ordering is checked before blocking: a would-deadlock acquisition
        # should fail loudly rather than hang the test run.
        self.registry.observe_acquire(self.name)
        try:
            acquired = self._lock.acquire(blocking, timeout)
        except BaseException:
            self.registry.observe_release(self.name)
            raise
        if not acquired:
            self.registry.observe_release(self.name)
        return acquired

    def release(self) -> None:
        self._lock.release()
        self.registry.observe_release(self.name)

    def locked(self) -> bool:
        return self._lock.locked()

    def __enter__(self) -> bool:
        return self.acquire()

    def __exit__(
        self,
        exc_type: type[BaseException] | None,
        exc: BaseException | None,
        traceback: TracebackType | None,
    ) -> None:
        self.release()
