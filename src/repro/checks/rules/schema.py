"""Rules protecting the declarative-spec and metrics contracts.

Specs are the repo's public construction API: frozen, hashable,
JSON-round-trippable values whose fingerprints gate CSV resume and
checkpoint restore — a mutable spec would silently break both.  Metric
names are the scrape contract of the ingest ``GET /metrics`` surface,
perfbench and the CI smokes; the metric catalog fixed ``repro_`` +
snake_case with ``_total`` counters and ``_seconds``/``_bytes``
histograms, and this rule pins it.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator, Optional

from ..engine import Finding, ModuleContext, Rule

__all__ = ["FrozenSpecRule", "MetricNameRule"]


def _decorator_callee(node: ast.expr) -> str:
    target = node.func if isinstance(node, ast.Call) else node
    if isinstance(target, ast.Name):
        return target.id
    if isinstance(target, ast.Attribute):
        return target.attr
    return ""


class FrozenSpecRule(Rule):
    """Every ``*Spec`` dataclass must be ``frozen=True``."""

    rule_id = "SPEC-FROZEN"
    summary = "a *Spec dataclass without frozen=True"
    invariant = (
        "spec immutability: fingerprints embedded in CSV headers and "
        "checkpoints are only trustworthy if the spec cannot change after "
        "construction; mutation goes through dataclasses.replace"
    )

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ClassDef) or not node.name.endswith("Spec"):
                continue
            for decorator in node.decorator_list:
                if _decorator_callee(decorator) != "dataclass":
                    continue
                frozen = isinstance(decorator, ast.Call) and any(
                    keyword.arg == "frozen"
                    and isinstance(keyword.value, ast.Constant)
                    and keyword.value.value is True
                    for keyword in decorator.keywords
                )
                if not frozen:
                    yield self.finding(
                        module, node,
                        f"dataclass {node.name} must be @dataclass(frozen="
                        f"True): spec fingerprints assume immutability",
                    )


_NAME_RE = re.compile(r"^repro_[a-z0-9_]+$")
_REGISTRATION_METHODS = frozenset(("counter", "gauge", "histogram"))
_HISTOGRAM_UNITS = ("_seconds", "_bytes")


class MetricNameRule(Rule):
    """Registry instrument names must follow the PR 8 catalog conventions."""

    rule_id = "METRIC-NAME"
    summary = (
        "instrument name not matching ^repro_[a-z0-9_]+$, counter without "
        "_total, or histogram without _seconds/_bytes"
    )
    invariant = (
        "scrape-surface stability: perfbench, the CI smokes and any "
        "operator dashboards parse these names; one off-convention series "
        "is invisible to all of them"
    )

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not (
                isinstance(func, ast.Attribute)
                and func.attr in _REGISTRATION_METHODS
            ):
                continue
            name_node = self._name_argument(node)
            if name_node is None:
                continue
            name = name_node.value
            kind = func.attr
            if not _NAME_RE.match(name):
                yield self.finding(
                    module, name_node,
                    f"instrument name {name!r} must match "
                    f"^repro_[a-z0-9_]+$ (repro_ prefix, snake_case)",
                )
            elif kind == "counter" and not name.endswith("_total"):
                yield self.finding(
                    module, name_node,
                    f"counter {name!r} must end in '_total' "
                    f"(Prometheus counter convention, PR 8 catalog)",
                )
            elif kind == "histogram" and not name.endswith(_HISTOGRAM_UNITS):
                yield self.finding(
                    module, name_node,
                    f"histogram {name!r} must carry a unit suffix "
                    f"(_seconds or _bytes)",
                )

    def _name_argument(self, node: ast.Call) -> Optional[ast.Constant]:
        candidate: Optional[ast.expr] = None
        if node.args:
            candidate = node.args[0]
        else:
            for keyword in node.keywords:
                if keyword.arg == "name":
                    candidate = keyword.value
        if isinstance(candidate, ast.Constant) and isinstance(candidate.value, str):
            return candidate
        return None
