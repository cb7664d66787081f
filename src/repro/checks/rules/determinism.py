"""Rules protecting bit-identical reproducibility.

Every estimate this repo produces is asserted bit-identical across serial,
pooled, sharded, batched and live execution (CHANGES.md PRs 1-7).  That
guarantee holds only because *all* randomness derives from explicit seeds
through :mod:`repro.rng` and *no* simulation path reads the wall clock.
These rules make both properties machine-checked.
"""

from __future__ import annotations

import ast
from typing import Iterator

from ..engine import Finding, ModuleContext, Rule

__all__ = ["UnseededRngRule", "RandomModuleRule", "WallClockRule"]

#: Modules allowed to construct OS-entropy generators: the RNG utilities
#: themselves (``rng=None`` convenience paths) and the validation helper
#: that normalizes ``None`` into a generator.
_RNG_ALLOWED = ("repro/rng.py", "repro/_validation.py")


def _callee_name(func: ast.expr) -> str:
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return ""


def _is_none(node: ast.expr) -> bool:
    return isinstance(node, ast.Constant) and node.value is None


class UnseededRngRule(Rule):
    """``default_rng()`` / ``SeedSequence()`` must receive an explicit seed."""

    rule_id = "RNG-SEED"
    summary = (
        "np.random.default_rng() and SeedSequence() require an explicit seed "
        "argument outside rng.py/_validation.py"
    )
    invariant = (
        "bit-identical estimates: an unseeded generator draws OS entropy, so "
        "two runs of the same spec would disagree"
    )

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        if module.module_path in _RNG_ALLOWED:
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            name = _callee_name(node.func)
            if name not in ("default_rng", "SeedSequence"):
                continue
            seeded = any(not _is_none(arg) for arg in node.args) or any(
                keyword.arg in ("seed", "entropy") and not _is_none(keyword.value)
                for keyword in node.keywords
            )
            if not seeded:
                yield self.finding(
                    module,
                    node,
                    f"{name}() without an explicit seed draws OS entropy; "
                    f"derive a stream from the root seed via repro.rng "
                    f"(derive_seed_sequences / stream_for) instead",
                )


class RandomModuleRule(Rule):
    """The stdlib ``random`` module is banned in library code."""

    rule_id = "RNG-MODULE"
    summary = "importing the stdlib 'random' module outside rng.py/_validation.py"
    invariant = (
        "single-source randomness: every stream must be a numpy Generator "
        "derived from the root seed, or draw accounting and bit-identity break"
    )

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        if module.module_path in _RNG_ALLOWED:
            return
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "random" or alias.name.startswith("random."):
                        yield self.finding(
                            module, node,
                            "stdlib 'random' is hidden global state; use a "
                            "seeded numpy Generator from repro.rng",
                        )
            elif isinstance(node, ast.ImportFrom):
                if node.module == "random" and node.level == 0:
                    yield self.finding(
                        module, node,
                        "stdlib 'random' is hidden global state; use a "
                        "seeded numpy Generator from repro.rng",
                    )


#: Directories whose modules may never read the wall clock.  Round
#: progression there is owned by RoundClock / the drivers; clock and
#: observability modules live elsewhere and may read time freely.
_TIME_FORBIDDEN_DIRS = frozenset(
    ("simulation", "longitudinal", "freq_oneshot", "hashing")
)
_WALL_CLOCK_CALLS = frozenset(("time", "monotonic"))


class WallClockRule(Rule):
    """No wall-clock reads inside the simulation-path packages."""

    rule_id = "TIME-WALLCLOCK"
    summary = (
        "time.time()/time.monotonic() in simulation/, longitudinal/, "
        "freq_oneshot/ or hashing/"
    )
    invariant = (
        "determinism of the simulation path: round sealing reads time in "
        "clock/obs modules only, so a simulation replays "
        "identically regardless of wall-clock speed"
    )

    def check(self, module: ModuleContext) -> Iterator[Finding]:
        if not _TIME_FORBIDDEN_DIRS.intersection(module.dir_parts()):
            return
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ImportFrom) and node.module == "time":
                bad = sorted(
                    alias.name
                    for alias in node.names
                    if alias.name in _WALL_CLOCK_CALLS
                )
                if bad:
                    yield self.finding(
                        module, node,
                        f"importing {', '.join(bad)} from 'time' in a "
                        f"simulation-path package; only clock/obs "
                        f"modules may read the wall clock",
                    )
            elif isinstance(node, ast.Call):
                func = node.func
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr in _WALL_CLOCK_CALLS
                    and isinstance(func.value, ast.Name)
                    and func.value.id == "time"
                ):
                    yield self.finding(
                        module, node,
                        f"time.{func.attr}() inside a simulation-path package "
                        f"makes replays depend on wall-clock speed; round "
                        f"progression belongs to RoundClock",
                    )
