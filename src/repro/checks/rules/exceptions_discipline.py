"""Rules keeping failure handling honest.

A long-running service lives or dies by what its handlers swallow: a broad
``except`` that absorbs a programming error turns a crash (recoverable by a
restart from the checkpoint) into silent data corruption.  Bare ``except:`` is banned
outright; ``except Exception``/``BaseException`` must carry a comment
saying *why* catching everything is correct at that site — the pattern
``service/http.py`` models with ``# noqa: BLE001 - keep the server up``.
"""

from __future__ import annotations

import ast
from typing import Iterator, List

from ..engine import Finding, ModuleContext, Rule

__all__ = ["BareExceptRule", "BroadExceptRule"]

_BROAD = frozenset(("Exception", "BaseException"))


def _exception_names(node: ast.expr) -> List[str]:
    """Flat names of the exception classes an ``except`` clause catches."""
    if isinstance(node, ast.Name):
        return [node.id]
    if isinstance(node, ast.Attribute):
        return [node.attr]
    if isinstance(node, ast.Tuple):
        names: List[str] = []
        for element in node.elts:
            names.extend(_exception_names(element))
        return names
    return []


def _has_justification(module: ModuleContext, lineno: int) -> bool:
    """Whether a handler at ``lineno`` carries a justification comment.

    Accepted placements: trailing on the ``except`` line, a comment-only
    line directly above, or a comment as the first body line directly
    below (the ``sweep.py`` style).
    """
    if "#" in module.line_text(lineno):
        return True
    above = module.line_text(lineno - 1).strip()
    below = module.line_text(lineno + 1).strip()
    return above.startswith("#") or below.startswith("#")


class BareExceptRule(Rule):
    """``except:`` is never acceptable."""

    rule_id = "EXC-BARE"
    summary = "bare 'except:' clause"
    invariant = (
        "observability of failure: a bare except swallows SystemExit and "
        "KeyboardInterrupt, so a worker cannot even be killed cleanly"
    )

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ExceptHandler) and node.type is None:
                yield self.finding(
                    module, node,
                    "bare 'except:' catches SystemExit/KeyboardInterrupt; "
                    "name the exceptions this site can actually handle",
                )


class BroadExceptRule(Rule):
    """``except Exception`` needs a same-site justification comment."""

    rule_id = "EXC-BROAD"
    summary = "'except Exception'/'except BaseException' without a justification comment"
    invariant = (
        "crash-don't-corrupt: a broad handler is only correct at a blast-"
        "radius boundary (server loop, backend probe, codec over untrusted "
        "bytes); the comment forces that argument to be made where it holds"
    )

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ExceptHandler) or node.type is None:
                continue
            broad = _BROAD.intersection(_exception_names(node.type))
            if broad and not _has_justification(module, node.lineno):
                name = sorted(broad)[0]
                yield self.finding(
                    module, node,
                    f"'except {name}' without a justification comment; say "
                    f"why catching everything is correct here (and re-raise "
                    f"or narrow if it is not)",
                )
