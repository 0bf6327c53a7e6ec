"""R2 layer-contract: every layer handles both halves of the submission protocol.

Motivating bug class (PR 5): the batched wire path was added and several
``BackendLayer`` subclasses kept an inherited pass-through batch method — so
a batch *bypassed* the very concern the layer existed to add (budgets
uncharged, statistics unrecorded, counts unshaped) until a review pass closed
each gap by hand.  The same gap re-opens every time someone writes a new
layer and forgets the batch entry point.

The rule: a ``BackendLayer`` subclass that overrides either submission entry
point — ``submit`` or ``submit_outcomes``, the protocol's one batch method —
must define **both**.  Overriding ``submit`` alone means single submissions
get the layer's concern while batches sneak past it through the inherited
forwarding; overriding ``submit_outcomes`` alone does the same to single
submissions.

A subclass that overrides neither (a pure schema/introspection wrapper)
inherits the base class's forwarding for both consistently and is fine.  The
base class itself is exempt — its forwarding *is* the protocol.
"""

from __future__ import annotations

from typing import Iterable

from repro.analysis.engine import Finding, ModuleSource, Rule
from repro.analysis.rules._ast_helpers import base_names, class_functions, module_classes

#: Names that mark a class as a middleware layer when they appear in bases.
LAYER_BASES = frozenset({"BackendLayer"})

_SUBMIT_METHODS = ("submit", "submit_outcomes")


class LayerContractRule(Rule):
    """R2: layers overriding submission define ``submit`` and ``submit_outcomes``."""

    rule_id = "R2"
    name = "layer-contract"
    rationale = (
        "PR 5's missing-batch-half bug class: a layer whose concern applies "
        "per submission must apply it on submit and submit_outcomes alike"
    )

    def check_module(self, module: ModuleSource) -> Iterable[Finding]:
        findings: list[Finding] = []
        for class_node in module_classes(module.tree):
            if class_node.name in LAYER_BASES:
                continue
            if not (set(base_names(class_node)) & LAYER_BASES):
                continue
            defined = {function.name for function in class_functions(class_node)}
            overridden = defined & set(_SUBMIT_METHODS)
            if not overridden:
                continue
            missing = [name for name in _SUBMIT_METHODS if name not in defined]
            for name in missing:
                findings.append(
                    self.finding(
                        module,
                        class_node,
                        f"BackendLayer subclass '{class_node.name}' overrides "
                        f"{', '.join(sorted(overridden))} but does not define "
                        f"'{name}' — those submissions would bypass the layer's "
                        f"concern through inherited forwarding",
                    )
                )
        return findings
