"""R1 guarded-state: declared shared state is only mutated under its lock.

Motivating bug class (PR 4): the budget and statistics layers carried
plain counters that a ``DispatchLayer`` suddenly mutated from many threads —
increments interleaved and counts were silently lost until a review caught
it.  The thread-safety table in ``docs/architecture.md`` said which fields
needed which lock, but nothing checked the code against the table.

The contract is now declared *in the class itself*::

    class AccountingLayer(BackendLayer):
        _guarded_by = {"budget": "_lock", "statistics": "_lock"}

and this rule verifies, at parse time, that every mutation of a guarded
attribute happens inside a ``with <holder>.<lock>:`` block:

* assignments, augmented assignments, and deletions of the attribute or of
  anything reached through it (``self.statistics.attempts += 1`` mutates
  ``statistics``);
* calls of known mutating methods on the attribute or anything under it
  (``self.budget.charge(...)``, ``self._in_flight.pop(...)``).

Scoping rules, chosen to keep the check precise without whole-program
inference:

* ``self.<attr>`` is checked against the enclosing class's own declaration
  (including ``_guarded_by`` inherited from same-module base classes);
* ``<other>.<attr>`` — a helper operating on another object, like a class
  mutating the records it keeps, each behind the record's own lock — is
  checked against the union of every declaration in the module, and the
  lock must be held *on the same base expression* (``with record.lock:``
  guards ``record.entries``, not ``other_record.entries``);
* ``__init__`` / ``__new__`` are exempt (construction precedes sharing), and
  so is any function whose name ends in ``_locked`` — the naming convention
  for helpers documented to run with the caller's lock already held.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.analysis.engine import Finding, ModuleSource, Rule
from repro.analysis.rules._ast_helpers import (
    attribute_chain,
    base_names,
    class_functions,
    expression_source,
    flatten_targets,
    guarded_by_map,
    module_classes,
)

#: Method names treated as mutations of the object they are called on.
#: Collection mutators plus this repo's domain mutators (``QueryBudget.charge``,
#: ``InterfaceStatistics.record``).
MUTATOR_METHODS = frozenset(
    {
        "add",
        "append",
        "charge",
        "clear",
        "discard",
        "extend",
        "insert",
        "pop",
        "popitem",
        "record",
        "remove",
        "reverse",
        "setdefault",
        "sort",
        "update",
    }
)

#: Functions exempt from the rule: construction, destruction, and helpers
#: following the ``_locked`` naming convention (caller holds the lock).
_EXEMPT_NAMES = frozenset({"__init__", "__new__", "__del__", "__init_subclass__"})


def _is_exempt(name: str) -> bool:
    return name in _EXEMPT_NAMES or name.endswith("_locked")


def _class_guard_map(
    class_node: ast.ClassDef, declarations: dict[str, dict[str, str]]
) -> dict[str, str]:
    """A class's effective map: same-module bases first, own wins."""
    merged: dict[str, str] = {}
    for base in base_names(class_node):
        merged.update(declarations.get(base, {}))
    merged.update(declarations.get(class_node.name, {}))
    return merged


class _FunctionChecker(ast.NodeVisitor):
    """Walk one function body tracking which locks are held."""

    def __init__(
        self,
        rule: "GuardedStateRule",
        module: ModuleSource,
        context: str,
        self_map: dict[str, str],
        module_map: dict[str, set[str]],
    ) -> None:
        self.rule = rule
        self.module = module
        self.context = context
        self.self_map = self_map
        self.module_map = module_map
        #: (base expression source, lock attribute name) currently held.
        self.held: list[tuple[str, str]] = []
        self.findings: list[Finding] = []

    # -- lock tracking ---------------------------------------------------------

    def _lock_items(self, node: ast.With | ast.AsyncWith) -> list[tuple[str, str]]:
        acquired: list[tuple[str, str]] = []
        for item in node.items:
            expr = item.context_expr
            if isinstance(expr, ast.Attribute):
                acquired.append((expression_source(expr.value), expr.attr))
        return acquired

    def visit_With(self, node: ast.With) -> None:
        self._visit_with(node)

    def visit_AsyncWith(self, node: ast.AsyncWith) -> None:
        self._visit_with(node)

    def _visit_with(self, node: ast.With | ast.AsyncWith) -> None:
        acquired = self._lock_items(node)
        self.held.extend(acquired)
        for statement in node.body:
            self.visit(statement)
        del self.held[len(self.held) - len(acquired) :]

    # -- nested functions keep the surrounding held set (a closure runs later,
    # -- but in this codebase nested defs/lambdas are built *and called* under
    # -- the same context; being permissive here would hide real bugs, so the
    # -- held set is inherited as-is).

    # -- mutation detection ----------------------------------------------------

    def _required_locks(self, base_source: str, attribute: str) -> set[str]:
        if base_source == "self":
            lock = self.self_map.get(attribute)
            return {lock} if lock is not None else set()
        return self.module_map.get(attribute, set())

    def _check_mutation(self, node: ast.AST, target: ast.expr, verb: str) -> None:
        chain = attribute_chain(target)
        if chain is None:
            return
        base, names = chain
        attribute = names[0]
        base_source = expression_source(base)
        locks = self._required_locks(base_source, attribute)
        if not locks:
            return
        if any(held == (base_source, lock) for lock in locks for held in self.held):
            return
        lock_text = " or ".join(f"with {base_source}.{lock}" for lock in sorted(locks))
        self.findings.append(
            self.rule.finding(
                self.module,
                node,
                f"guarded attribute '{base_source}.{attribute}' is {verb} in "
                f"{self.context} outside a '{lock_text}' block "
                f"(declared in _guarded_by)",
            )
        )

    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            for leaf in flatten_targets(target):
                self._check_mutation(node, leaf, "assigned")
        self.visit(node.value)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._check_mutation(node, node.target, "mutated")
        self.visit(node.value)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self._check_mutation(node, node.target, "assigned")
            self.visit(node.value)

    def visit_Delete(self, node: ast.Delete) -> None:
        for target in node.targets:
            self._check_mutation(node, target, "deleted")

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in MUTATOR_METHODS:
            self._check_mutation(node, func.value, f"mutated (.{func.attr}())")
        self.generic_visit(node)


class GuardedStateRule(Rule):
    """R1: ``_guarded_by``-declared attributes mutate only under their lock."""

    rule_id = "R1"
    name = "guarded-state"
    rationale = (
        "PR 4's unlocked-counter bug class: shared mutable state behind a "
        "DispatchLayer must be mutated under its declared lock"
    )

    def check_module(self, module: ModuleSource) -> Iterable[Finding]:
        declarations: dict[str, dict[str, str]] = {}
        for class_node in module_classes(module.tree):
            mapping = guarded_by_map(class_node)
            if mapping:
                declarations[class_node.name] = mapping
        if not declarations:
            return ()
        module_map: dict[str, set[str]] = {}
        for mapping in declarations.values():
            for attribute, lock in mapping.items():
                module_map.setdefault(attribute, set()).add(lock)
        findings: list[Finding] = []
        for class_node in module_classes(module.tree):
            self_map = _class_guard_map(class_node, declarations)
            for function in class_functions(class_node):
                if _is_exempt(function.name):
                    continue
                checker = _FunctionChecker(
                    self,
                    module,
                    context=f"{class_node.name}.{function.name}",
                    self_map=self_map,
                    module_map=module_map,
                )
                for statement in function.body:
                    checker.visit(statement)
                findings.extend(checker.findings)
        # Module-level functions can mutate guarded objects too (helpers
        # taking a layer as a parameter) — checked against the module union.
        for statement in module.tree.body:
            if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if _is_exempt(statement.name):
                    continue
                checker = _FunctionChecker(
                    self,
                    module,
                    context=statement.name,
                    self_map={},
                    module_map=module_map,
                )
                for inner in statement.body:
                    checker.visit(inner)
                findings.extend(checker.findings)
        return findings
