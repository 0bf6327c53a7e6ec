"""R4 deterministic-rng: all randomness flows through ``repro/_rng.py``.

Motivating invariant: the equivalence suites (stack vs legacy oracle,
sharded vs unsharded, remote vs local, concurrent history vs serial) all assert
**byte-identical** sampling runs on shared seeds.  One direct call to the
process-global ``random`` module — or a generator seeded from the clock —
anywhere in the library silently breaks that property for every test and
benchmark downstream, and nothing fails until a distribution drifts.

The rule: outside ``repro/_rng.py`` (the one sanctioned home of RNG
construction, where ``resolve_rng``/``spawn_rng`` live), no code may

* call functions of the ``random`` module (``random.random()``,
  ``random.choice(...)``, ``random.seed(...)``, ``random.Random(...)``, ...)
  — using ``random.Random`` in *type annotations* stays legal, construction
  belongs to ``resolve_rng``;
* import names from ``random`` other than ``Random`` (``from random import
  random`` smuggles the process-global generator in under a local name);
* seed anything from the clock (``time.time`` / ``time.time_ns`` /
  ``time.monotonic`` appearing inside a call's arguments to ``seed`` /
  ``Random`` / ``resolve_rng``).

Test trees are expected to exclude themselves by simply not being passed to
the analyzer (CI runs it over ``src/repro``).
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.analysis.engine import Finding, ModuleSource, Rule

#: The one module allowed to touch the ``random`` module directly.
SANCTIONED_PATH_SUFFIX = "repro/_rng.py"

_CLOCK_FUNCTIONS = frozenset({"time", "time_ns", "monotonic", "monotonic_ns", "perf_counter"})
_SEEDING_CALLEES = frozenset({"Random", "seed", "resolve_rng", "spawn_rng"})


def _is_random_module_call(node: ast.Call) -> str | None:
    func = node.func
    if (
        isinstance(func, ast.Attribute)
        and isinstance(func.value, ast.Name)
        and func.value.id == "random"
    ):
        return func.attr
    return None


def _callee_name(node: ast.Call) -> str | None:
    func = node.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def _contains_clock_call(node: ast.AST) -> bool:
    for child in ast.walk(node):
        if isinstance(child, ast.Call):
            name = _callee_name(child)
            if name in _CLOCK_FUNCTIONS:
                func = child.func
                if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
                    if func.value.id == "time":
                        return True
    return False


class DeterministicRngRule(Rule):
    """R4: no direct ``random.*`` use or clock seeding outside ``_rng.py``."""

    rule_id = "R4"
    name = "deterministic-rng"
    rationale = (
        "byte-identical-run equivalence tests depend on every RNG being an "
        "explicitly seeded random.Random resolved through repro._rng"
    )

    def check_module(self, module: ModuleSource) -> Iterable[Finding]:
        if module.display_path.replace("\\", "/").endswith(SANCTIONED_PATH_SUFFIX):
            return ()
        findings: list[Finding] = []
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                attr = _is_random_module_call(node)
                if attr is not None:
                    findings.append(
                        self.finding(
                            module,
                            node,
                            f"direct call 'random.{attr}(...)' outside repro/_rng.py "
                            f"— accept a seed and resolve it through "
                            f"repro._rng.resolve_rng instead",
                        )
                    )
                    continue
                callee = _callee_name(node)
                if callee in _SEEDING_CALLEES and _contains_clock_call(node):
                    findings.append(
                        self.finding(
                            module,
                            node,
                            f"'{callee}(...)' seeded from the clock — time-seeded "
                            f"randomness breaks byte-identical reproduction",
                        )
                    )
            elif isinstance(node, ast.ImportFrom) and node.module == "random":
                smuggled = [alias.name for alias in node.names if alias.name != "Random"]
                if smuggled:
                    findings.append(
                        self.finding(
                            module,
                            node,
                            f"'from random import {', '.join(smuggled)}' outside "
                            f"repro/_rng.py — only the Random type may be imported "
                            f"for annotations",
                        )
                    )
        return findings
