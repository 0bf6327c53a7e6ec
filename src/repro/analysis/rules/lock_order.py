"""R5 lock-order: the static "held-while-acquiring" graph stays acyclic.

Motivating bug class (PR 5): the history layer of the time, split over key
stripes, held a stripe lock while touching its statistics lock, and the
remote backend's connection pool nests its pool lock inside request handling
— every new lock multiplies the ways two threads can each hold the lock the
other wants.  A deadlock only
reproduces under the right interleaving, so the check has to be static.

The rule extracts, from every function in the tree, the relation

    ``lock A is held while lock B is acquired``  (an edge A -> B)

and fails when the resulting directed graph has a cycle.  Lock acquisitions
are ``with`` items of the form ``<base>.<attr>`` where ``<attr>`` contains
``lock``; nodes are named

* ``ClassName.attr`` when the base is ``self`` (or an annotated parameter
  whose annotation names a class — ``def f(self, breaker: CircuitBreaker)``
  makes ``breaker._lock`` the node ``CircuitBreaker._lock``);
* ``base.attr`` textually otherwise, so consistently-named locals (a helper
  that always calls its breaker ``breaker``) still line up.

One level of interprocedural propagation: a call ``self.helper(...)`` made
while holding A contributes edges from A to every lock ``helper`` itself
acquires.  Deeper chains are out of scope for a static pass — the runtime
half of this rule, :class:`repro.analysis.runtime.OrderedLock`, validates the
same graph against real executions in the test suite.

:func:`extract_lock_graph` exposes the graph itself so tests can assert that
the edges observed at runtime are a subset of the edges predicted here.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from repro.analysis.engine import Finding, ModuleSource, Rule
from repro.analysis.rules._ast_helpers import class_functions, expression_source, module_classes


def _is_lock_attr(name: str) -> bool:
    return "lock" in name.lower()


def _annotation_name(annotation: ast.expr | None) -> str | None:
    if isinstance(annotation, ast.Name):
        return annotation.id
    if isinstance(annotation, ast.Attribute):
        return annotation.attr
    if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
        # A forward reference like "HistoryLayer"; keep the trailing name.
        return annotation.value.split(".")[-1].strip("'\" ") or None
    return None


def _parameter_types(function: ast.FunctionDef | ast.AsyncFunctionDef) -> dict[str, str]:
    types: dict[str, str] = {}
    arguments = function.args
    for arg in [*arguments.posonlyargs, *arguments.args, *arguments.kwonlyargs]:
        name = _annotation_name(arg.annotation)
        if name is not None:
            types[arg.arg] = name
    return types


@dataclass
class _Edge:
    """One observed "held A, acquired B" site."""

    source: str
    target: str
    module: ModuleSource
    node: ast.AST


@dataclass
class _Method:
    """Per-function summary used for one-level call propagation."""

    acquired: set[str] = field(default_factory=set)
    #: ``self.<name>(...)`` calls made while holding each lock, with the
    #: module they came from (needed when the callee is defined later).
    held_calls: list[tuple[str, str, ast.AST, "ModuleSource"]] = field(default_factory=list)


class _FunctionScanner(ast.NodeVisitor):
    def __init__(
        self,
        class_name: str | None,
        parameter_types: dict[str, str],
        edges: list[_Edge],
        module: ModuleSource,
    ) -> None:
        self.class_name = class_name
        self.parameter_types = parameter_types
        self.edges = edges
        self.module = module
        self.held: list[str] = []
        self.summary = _Method()

    def _node_name(self, expr: ast.Attribute) -> str | None:
        if not _is_lock_attr(expr.attr):
            return None
        base = expr.value
        if isinstance(base, ast.Name):
            if base.id == "self" and self.class_name is not None:
                return f"{self.class_name}.{expr.attr}"
            owner = self.parameter_types.get(base.id, base.id)
            return f"{owner}.{expr.attr}"
        return f"{expression_source(base)}.{expr.attr}"

    def _visit_with(self, node: ast.With | ast.AsyncWith) -> None:
        acquired: list[str] = []
        for item in node.items:
            expr = item.context_expr
            if isinstance(expr, ast.Attribute):
                name = self._node_name(expr)
                if name is not None:
                    for held in self.held:
                        self.edges.append(_Edge(held, name, self.module, node))
                    self.summary.acquired.add(name)
                    self.held.append(name)
                    acquired.append(name)
        for statement in node.body:
            self.visit(statement)
        for _ in acquired:
            self.held.pop()

    def visit_With(self, node: ast.With) -> None:
        self._visit_with(node)

    def visit_AsyncWith(self, node: ast.AsyncWith) -> None:
        self._visit_with(node)

    def visit_Call(self, node: ast.Call) -> None:
        func = node.func
        if (
            self.held
            and isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id == "self"
        ):
            for held in self.held:
                self.summary.held_calls.append((held, func.attr, node, self.module))
        self.generic_visit(node)


class LockOrderRule(Rule):
    """R5: no cycles in the static lock-acquisition-order graph."""

    rule_id = "R5"
    name = "lock-order"
    rationale = (
        "two functions nesting the same pair of locks in opposite orders "
        "deadlock under the right interleaving; the order graph must be a DAG"
    )

    def __init__(self) -> None:
        self.edges: list[_Edge] = []
        #: (class name or "", method name) -> summary, for call propagation.
        self.methods: dict[tuple[str, str], _Method] = {}

    def check_module(self, module: ModuleSource) -> Iterable[Finding]:
        for class_node in module_classes(module.tree):
            for function in class_functions(class_node):
                scanner = _FunctionScanner(
                    class_node.name, _parameter_types(function), self.edges, module
                )
                for statement in function.body:
                    scanner.visit(statement)
                self.methods[(class_node.name, function.name)] = scanner.summary
        for statement in module.tree.body:
            if isinstance(statement, (ast.FunctionDef, ast.AsyncFunctionDef)):
                scanner = _FunctionScanner(
                    None, _parameter_types(statement), self.edges, module
                )
                for inner in statement.body:
                    scanner.visit(inner)
        return ()

    def finish(self) -> Iterable[Finding]:
        # ``self.helper()`` calls resolve here, once every method summary
        # exists — so helpers defined after their caller still contribute.
        for (class_name, _), summary in self.methods.items():
            for held, callee, node, module in summary.held_calls:
                target = self.methods.get((class_name, callee))
                if target is None:
                    continue
                for acquired in target.acquired:
                    self.edges.append(_Edge(held, acquired, module, node))
        graph: dict[str, set[str]] = {}
        sites: dict[tuple[str, str], _Edge] = {}
        for edge in self.edges:
            graph.setdefault(edge.source, set()).add(edge.target)
            sites.setdefault((edge.source, edge.target), edge)
        findings: list[Finding] = []
        for cycle in _find_cycles(graph):
            pairs = list(zip(cycle, cycle[1:] + cycle[:1]))
            edge = sites[pairs[0]]
            chain = " -> ".join(cycle + [cycle[0]])
            findings.append(
                self.finding(
                    edge.module,
                    edge.node,
                    f"lock-order cycle: {chain} — some execution can hold "
                    f"'{pairs[0][0]}' waiting for '{pairs[0][1]}' while another "
                    f"holds it the other way around",
                )
            )
        return findings


def _find_cycles(graph: dict[str, set[str]]) -> list[list[str]]:
    """Every elementary cycle's canonical form (rotation-deduplicated DFS)."""
    cycles: list[list[str]] = []
    seen: set[tuple[str, ...]] = set()

    def dfs(start: str, node: str, path: list[str], visited: set[str]) -> None:
        for neighbour in sorted(graph.get(node, ())):
            if neighbour == start:
                rotation = min(range(len(path)), key=lambda i: path[i])
                canonical = tuple(path[rotation:] + path[:rotation])
                if canonical not in seen:
                    seen.add(canonical)
                    cycles.append(list(canonical))
            elif neighbour not in visited and neighbour > start:
                # Only explore nodes sorting after the start: each cycle is
                # found exactly once, from its smallest node.
                visited.add(neighbour)
                dfs(start, neighbour, path + [neighbour], visited)
                visited.discard(neighbour)

    for start in sorted(graph):
        dfs(start, start, [start], {start})
    return cycles


def extract_lock_graph(paths: Sequence[Path]) -> dict[str, set[str]]:
    """The static "held A while acquiring B" graph of ``paths``.

    Used by the runtime-validation tests: every edge an instrumented run
    observes must appear here, otherwise the static rule has a blind spot.
    """
    from repro.analysis.engine import run_analysis

    rule = LockOrderRule()
    run_analysis(list(paths), rules=[rule])
    graph: dict[str, set[str]] = {}
    for edge in rule.edges:
        graph.setdefault(edge.source, set()).add(edge.target)
    return graph
