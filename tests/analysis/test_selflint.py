"""The tree lints itself clean — and the rules still have teeth.

The first test is the gate the CI ``lint`` job enforces: zero findings over
``src/repro``.  The rest are red tests: take a real source file, break one
invariant mechanically (strip a ``with`` lock block, delete a batch method),
and check the relevant rule catches exactly that regression.  This guards
against the failure mode where a refactor quietly turns a rule into a no-op
and the "clean" gate stops meaning anything.
"""

import ast
from pathlib import Path

from repro.analysis.engine import run_analysis
from repro.analysis.rules.guarded_state import GuardedStateRule
from repro.analysis.rules.layer_contract import LayerContractRule

SRC_REPRO = Path(__file__).resolve().parents[2] / "src" / "repro"
LAYERS = SRC_REPRO / "backends" / "layers.py"


def test_the_tree_is_clean():
    assert run_analysis([SRC_REPRO]) == []


class _StripWith(ast.NodeTransformer):
    """Replace every ``with`` statement in one method with its bare body."""

    def __init__(self, class_name: str, method_name: str):
        self.class_name = class_name
        self.method_name = method_name
        self._inside = False
        self.stripped = 0

    def visit_ClassDef(self, node: ast.ClassDef):
        if node.name != self.class_name:
            return node
        self.generic_visit(node)
        return node

    def visit_FunctionDef(self, node: ast.FunctionDef):
        if node.name != self.method_name:
            return node
        self._inside = True
        self.generic_visit(node)
        self._inside = False
        return node

    def visit_With(self, node: ast.With):
        if not self._inside:
            return node
        self.stripped += 1
        body = [self.visit(statement) for statement in node.body]
        return body


class _DropMethod(ast.NodeTransformer):
    def __init__(self, class_name: str, method_name: str):
        self.class_name = class_name
        self.method_name = method_name
        self.dropped = 0

    def visit_ClassDef(self, node: ast.ClassDef):
        if node.name != self.class_name:
            return node
        kept = []
        for statement in node.body:
            if isinstance(statement, ast.FunctionDef) and statement.name == self.method_name:
                self.dropped += 1
                continue
            kept.append(statement)
        node.body = kept
        return node


def _mutate(tmp_path, transformer: ast.NodeTransformer) -> Path:
    tree = ast.parse(LAYERS.read_text(encoding="utf-8"))
    mutated = ast.fix_missing_locations(transformer.visit(tree))
    target = tmp_path / "layers.py"
    target.write_text(ast.unparse(mutated), encoding="utf-8")
    return target


class TestMutationsStayRed:
    def test_unlocking_a_guarded_write_trips_r1(self, tmp_path):
        transformer = _StripWith("AccountingLayer", "reset")
        target = _mutate(tmp_path, transformer)
        assert transformer.stripped >= 1, "fixture drift: reset no longer uses a with block"
        findings = run_analysis([target], rules=[GuardedStateRule()])
        assert findings
        assert all(f.rule == "R1" for f in findings)
        assert any(
            "self.statistics" in f.message and "AccountingLayer.reset" in f.message
            for f in findings
        )

    def test_deleting_a_batch_method_trips_r2(self, tmp_path):
        transformer = _DropMethod("AccountingLayer", "submit_many")
        target = _mutate(tmp_path, transformer)
        assert transformer.dropped == 1, "fixture drift: AccountingLayer.submit_many not found"
        findings = run_analysis([target], rules=[LayerContractRule()])
        assert findings
        assert all(f.rule == "R2" for f in findings)
        assert any("AccountingLayer" in f.message for f in findings)
