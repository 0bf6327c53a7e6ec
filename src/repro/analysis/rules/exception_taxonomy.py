"""R3 exception-taxonomy: broad excepts are rare; layer faults are typed.

Motivating bug class (PRs 4–5): broad ``except Exception`` handlers in the
request path swallowed typed faults and re-shaped them into the wrong HTTP
status, and untyped ``ValueError`` raised across layer boundaries defeated
the retry layer's careful transient/permanent discrimination (what is a
caller supposed to do with a bare ``ValueError`` from three layers down?).

Two checks:

* **R3 broad-except** — a bare ``except:``, ``except Exception:`` or
  ``except BaseException:`` is flagged everywhere in the tree, unless

  - the handler is pure cleanup that *re-raises* (its body ends in a bare
    ``raise`` — releasing waiters on the error path must not filter what it
    re-raises), or
  - the enclosing function is on the small structural allowlist below
    (per-item outcome capture, whose contract is "any exception becomes the
    item's outcome"), or
  - the line carries an explicit ``# reprolint: disable=R3`` suppression
    with its reason (the last-resort 500 handler of the HTTP server).

* **R3 typed-boundary** — inside the layer packages (``repro/backends/``,
  ``repro/web/``), ``raise`` statements must raise library exceptions from
  :mod:`repro.exceptions`, not builtins: callers dispatch on the taxonomy
  (transient vs permanent vs auth vs parse), and a builtin crossing a layer
  boundary is invisible to that dispatch.  ``AssertionError`` and
  ``NotImplementedError`` are programming-error signals and stay allowed.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.analysis.engine import Finding, ModuleSource, Rule

#: (path suffix, function name) pairs whose broad except IS the contract:
#: per-item outcome capture turns any exception into that item's outcome.
#: ``outcome_of`` is the one such capture; every batch path maps it.
BROAD_EXCEPT_ALLOWLIST = frozenset(
    {
        ("repro/backends/base.py", "outcome_of"),
    }
)

#: Path fragments marking the layer packages whose raises must be typed.
TYPED_BOUNDARY_PACKAGES = ("repro/backends/", "repro/web/")

#: Builtin exception names that must not cross a layer boundary.
UNTYPED_EXCEPTIONS = frozenset(
    {
        "ArithmeticError",
        "AttributeError",
        "BaseException",
        "BufferError",
        "EOFError",
        "Exception",
        "IndexError",
        "IOError",
        "KeyError",
        "LookupError",
        "MemoryError",
        "NameError",
        "OSError",
        "OverflowError",
        "ReferenceError",
        "RuntimeError",
        "StopIteration",
        "SystemError",
        "TypeError",
        "UnboundLocalError",
        "ValueError",
        "ZeroDivisionError",
    }
)

_BROAD_NAMES = frozenset({"Exception", "BaseException"})


def _normalized(path: str) -> str:
    return path.replace("\\", "/")


def _handler_reraises(handler: ast.ExceptHandler) -> bool:
    """Whether the handler body ends in a bare ``raise`` (cleanup pattern)."""
    return bool(handler.body) and (
        isinstance(handler.body[-1], ast.Raise) and handler.body[-1].exc is None
    )


def _broad_names_in(annotation: ast.expr | None) -> list[str]:
    """The broad exception names a handler catches (``None`` = bare except)."""
    if annotation is None:
        return ["<bare>"]
    nodes: list[ast.expr] = (
        list(annotation.elts) if isinstance(annotation, ast.Tuple) else [annotation]
    )
    names: list[str] = []
    for node in nodes:
        if isinstance(node, ast.Name) and node.id in _BROAD_NAMES:
            names.append(node.id)
        elif isinstance(node, ast.Attribute) and node.attr in _BROAD_NAMES:
            names.append(node.attr)
    return names


def _raised_name(node: ast.Raise) -> str | None:
    """The textual class name a ``raise`` statement raises, if resolvable."""
    exc = node.exc
    if exc is None:
        return None  # bare re-raise
    if isinstance(exc, ast.Call):
        exc = exc.func
    if isinstance(exc, ast.Name):
        return exc.id
    if isinstance(exc, ast.Attribute):
        return exc.attr
    return None


class ExceptionTaxonomyRule(Rule):
    """R3: broad excepts are allowlisted; layer packages raise typed errors."""

    rule_id = "R3"
    name = "exception-taxonomy"
    rationale = (
        "broad handlers swallow typed faults; builtins crossing layer "
        "boundaries are invisible to transient/permanent retry dispatch"
    )

    def check_module(self, module: ModuleSource) -> Iterable[Finding]:
        findings: list[Finding] = []
        path = _normalized(module.display_path)
        function_stack: list[str] = []

        def visit(node: ast.AST) -> None:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                function_stack.append(node.name)
                for child in ast.iter_child_nodes(node):
                    visit(child)
                function_stack.pop()
                return
            if isinstance(node, ast.ExceptHandler):
                names = _broad_names_in(node.type)
                if names and not _handler_reraises(node):
                    function = function_stack[-1] if function_stack else "<module>"
                    # Any enclosing function counts: per-item capture is often
                    # a closure nested inside the allowlisted function.
                    allowlisted = any(
                        path.endswith(suffix) and allowed in function_stack
                        for suffix, allowed in BROAD_EXCEPT_ALLOWLIST
                    )
                    if not allowlisted:
                        findings.append(
                            self.finding(
                                module,
                                node,
                                f"broad 'except {names[0]}' in {function} — catch "
                                f"typed repro.exceptions classes, end the handler "
                                f"with a bare 'raise', or add it to the R3 "
                                f"allowlist with a rationale",
                            )
                        )
            if isinstance(node, ast.Raise) and any(
                path.endswith(package) or ("/" + package) in ("/" + path)
                for package in TYPED_BOUNDARY_PACKAGES
            ):
                name = _raised_name(node)
                if name in UNTYPED_EXCEPTIONS:
                    function = function_stack[-1] if function_stack else "<module>"
                    findings.append(
                        self.finding(
                            module,
                            node,
                            f"'raise {name}' in {function} crosses a layer "
                            f"boundary untyped — raise a repro.exceptions class "
                            f"(e.g. ConfigurationError, InterfaceError) instead",
                        )
                    )
            for child in ast.iter_child_nodes(node):
                visit(child)

        visit(module.tree)
        return findings
