"""Machine-checked invariants of the ``repro`` source tree.

Every estimate this library produces is bit-identical across serial,
sharded (pooled) and live execution, and every durable artifact survives a
kill at any instant.  Both guarantees rest on conventions that no single
test exercises: all randomness derives from explicit seeds, no simulation
path reads the wall clock, every whole-file write stages, fsyncs and
renames.  The ten rules below check those conventions over the AST of
every module under ``src/repro`` (nothing is imported), and
:func:`test_source_tree_is_clean` fails on any violation.

Each rule is a plain function ``rule(path, tree, lines)`` that yields
``(path, line, message)``; ``path`` is package-relative
(``repro/obs/metrics.py``), and it is what the allowlists and directory
scopes below are keyed by.  There is no suppression comment: a site that
must break a rule is fixed or its module joins the rule's allowlist here.
"""

import ast
import re
import textwrap
from pathlib import Path
from typing import Iterator, List, Optional, Sequence, Set, Tuple

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

Finding = Tuple[str, int, str]

#: Modules that may construct OS-entropy generators and import ``random``:
#: the RNG utilities themselves (``rng=None`` convenience paths) and the
#: validation helper that normalizes ``None`` into a generator.
RNG_ALLOWED = ("repro/rng.py", "repro/_validation.py")

#: Directories whose modules may never read the wall clock.  Round
#: progression there is owned by RoundClock and the drivers; clock and
#: observability modules live elsewhere and may read time freely.
TIME_FORBIDDEN_DIRS = frozenset(("simulation", "longitudinal", "freq_oneshot", "hashing"))

#: The one module that may open files for writing directly: it implements
#: the staged-temp + fsync + rename primitive everything else goes through.
IO_ALLOWED = ("repro/_atomicio.py",)


# --------------------------------------------------------------------- #
# Determinism
# --------------------------------------------------------------------- #
def _callee_name(func: ast.expr) -> str:
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return ""


def _is_none(node: ast.expr) -> bool:
    return isinstance(node, ast.Constant) and node.value is None


def rng_seed(path: str, tree: ast.Module, lines: Sequence[str]) -> Iterator[Finding]:
    """``default_rng()`` / ``SeedSequence()`` need an explicit seed outside
    :data:`RNG_ALLOWED`: an unseeded generator draws OS entropy, so two runs
    of one spec would disagree."""
    if path in RNG_ALLOWED:
        return
    for node in ast.walk(tree):
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
            yield path, node.lineno, (
                f"{name}() without an explicit seed draws OS entropy; derive a "
                f"stream from the root seed via repro.rng instead"
            )


def rng_module(path: str, tree: ast.Module, lines: Sequence[str]) -> Iterator[Finding]:
    """No stdlib ``random`` outside :data:`RNG_ALLOWED`: every stream must be
    a numpy Generator derived from the root seed."""
    if path in RNG_ALLOWED:
        return
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            hits = [a for a in node.names if a.name.split(".")[0] == "random"]
        elif isinstance(node, ast.ImportFrom) and node.module == "random" and node.level == 0:
            hits = [node]
        else:
            continue
        for _ in hits:
            yield path, node.lineno, (
                "stdlib 'random' is hidden global state; use a seeded numpy "
                "Generator from repro.rng"
            )


_WALL_CLOCK_CALLS = frozenset(("time", "monotonic"))


def time_wallclock(path: str, tree: ast.Module, lines: Sequence[str]) -> Iterator[Finding]:
    """No ``time.time()`` / ``time.monotonic()`` in :data:`TIME_FORBIDDEN_DIRS`,
    so a simulation replays identically whatever the wall-clock speed."""
    if not TIME_FORBIDDEN_DIRS.intersection(Path(path).parts[:-1]):
        return
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "time":
            bad = sorted(alias.name for alias in node.names if alias.name in _WALL_CLOCK_CALLS)
            if bad:
                yield path, node.lineno, (
                    f"importing {', '.join(bad)} from 'time' in a simulation-path "
                    f"package; only clock/obs modules may read the wall clock"
                )
        elif isinstance(node, ast.Call):
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr in _WALL_CLOCK_CALLS
                and isinstance(func.value, ast.Name)
                and func.value.id == "time"
            ):
                yield path, node.lineno, (
                    f"time.{func.attr}() inside a simulation-path package makes "
                    f"replays depend on wall-clock speed; round progression "
                    f"belongs to RoundClock"
                )


# --------------------------------------------------------------------- #
# Durability and codec safety
# --------------------------------------------------------------------- #
#: Mode characters that make an ``open`` destructive (truncate / create /
#: append).  ``r`` and ``rb+`` style update modes are left to review.
_DESTRUCTIVE = frozenset("wax")

#: ``Path`` convenience writers that truncate in place.
_TRUNCATING_METHODS = frozenset(("write_text", "write_bytes"))


def _mode_argument(node: ast.Call, position: int) -> Optional[str]:
    """The string mode of an ``open`` call, ``None`` when non-literal."""
    for keyword in node.keywords:
        if keyword.arg == "mode" and isinstance(keyword.value, ast.Constant):
            value = keyword.value.value
            return value if isinstance(value, str) else None
    if len(node.args) > position and isinstance(node.args[position], ast.Constant):
        value = node.args[position].value
        return value if isinstance(value, str) else None
    return None


def io_atomic(path: str, tree: ast.Module, lines: Sequence[str]) -> Iterator[Finding]:
    """No bare ``open(..., "w")``, ``Path.open("w")`` or ``Path.write_text``/
    ``write_bytes`` outside :data:`IO_ALLOWED`: a process killed mid-write
    must leave the old complete file or the new one, never a torn prefix,
    and only staged-temp + fsync + rename guarantees that."""
    if path in IO_ALLOWED:
        return
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id == "open":
            mode = _mode_argument(node, position=1)
        elif isinstance(func, ast.Attribute) and func.attr == "open":
            # ``os.open`` takes integer flags, never a string mode, so the
            # literal-mode extraction skips it naturally.
            mode = _mode_argument(node, position=0)
        elif isinstance(func, ast.Attribute) and func.attr in _TRUNCATING_METHODS:
            yield path, node.lineno, (
                f".{func.attr}() truncates the target in place; route the write "
                f"through repro._atomicio so a kill cannot tear the file"
            )
            continue
        else:
            continue
        if mode is not None and _DESTRUCTIVE.intersection(mode):
            yield path, node.lineno, (
                f"open(..., {mode!r}) writes the target in place; route the "
                f"write through repro._atomicio"
            )


_PICKLE_MODULES = frozenset(("pickle", "cPickle", "_pickle", "dill", "shelve"))


def pickle_import(path: str, tree: ast.Module, lines: Sequence[str]) -> Iterator[Finding]:
    """No pickle-family imports: specs, checkpoints and sweep CSVs are JSON,
    ``.npz`` with ``allow_pickle=False`` and CSV, so no file this library
    reads can carry executable code."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [(node.module or "").split(".")[0]]
        else:
            continue
        for name in names:
            if name in _PICKLE_MODULES:
                yield path, node.lineno, (
                    f"importing {name!r} opens an arbitrary-code deserialization "
                    f"path; payloads are JSON/.npz (allow_pickle=False)"
                )


# --------------------------------------------------------------------- #
# Failure handling
# --------------------------------------------------------------------- #
_BROAD = frozenset(("Exception", "BaseException"))


def _exception_names(node: ast.expr) -> List[str]:
    """Flat names of the exception classes an ``except`` clause catches."""
    if isinstance(node, ast.Name):
        return [node.id]
    if isinstance(node, ast.Attribute):
        return [node.attr]
    if isinstance(node, ast.Tuple):
        return [name for element in node.elts for name in _exception_names(element)]
    return []


def _line(lines: Sequence[str], lineno: int) -> str:
    return lines[lineno - 1] if 1 <= lineno <= len(lines) else ""


def exc_bare(path: str, tree: ast.Module, lines: Sequence[str]) -> Iterator[Finding]:
    """No bare ``except:``: it swallows SystemExit and KeyboardInterrupt, so
    a worker cannot even be killed cleanly."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ExceptHandler) and node.type is None:
            yield path, node.lineno, (
                "bare 'except:' catches SystemExit/KeyboardInterrupt; name the "
                "exceptions this site can actually handle"
            )


def exc_broad(path: str, tree: ast.Module, lines: Sequence[str]) -> Iterator[Finding]:
    """``except Exception``/``BaseException`` needs a justification comment:
    trailing on the ``except`` line, on a comment-only line directly above,
    or as the first body line.  A broad handler is only correct at a
    blast-radius boundary (server loop, backend probe, codec over untrusted
    bytes); the comment makes that argument where it holds."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.ExceptHandler) or node.type is None:
            continue
        broad = _BROAD.intersection(_exception_names(node.type))
        if not broad:
            continue
        justified = (
            "#" in _line(lines, node.lineno)
            or _line(lines, node.lineno - 1).strip().startswith("#")
            or _line(lines, node.lineno + 1).strip().startswith("#")
        )
        if not justified:
            yield path, node.lineno, (
                f"'except {sorted(broad)[0]}' without a justification comment; "
                f"say why catching everything is correct here"
            )


# --------------------------------------------------------------------- #
# Lock-guarded module globals
# --------------------------------------------------------------------- #
def _module_lock_names(tree: ast.Module) -> Set[str]:
    """Module-level names bound to ``threading.Lock()`` / ``RLock()``."""
    locks: Set[str] = set()
    for node in tree.body:
        if not isinstance(node, ast.Assign):
            continue
        value = node.value
        if (
            isinstance(value, ast.Call)
            and isinstance(value.func, ast.Attribute)
            and value.func.attr in ("Lock", "RLock")
            and isinstance(value.func.value, ast.Name)
            and value.func.value.id == "threading"
        ):
            locks.update(t.id for t in node.targets if isinstance(t, ast.Name))
    return locks


def _assigned_names(statement: ast.stmt) -> List[str]:
    """Names a statement rebinds (plain and tuple targets)."""
    if isinstance(statement, ast.Assign):
        targets = list(statement.targets)
    elif isinstance(statement, (ast.AugAssign, ast.AnnAssign)):
        targets = [statement.target]
    else:
        return []
    names: List[str] = []
    for target in targets:
        if isinstance(target, ast.Name):
            names.append(target.id)
        elif isinstance(target, (ast.Tuple, ast.List)):
            names.extend(e.id for e in target.elts if isinstance(e, ast.Name))
    return names


def _child_statements(node: ast.AST) -> List[ast.stmt]:
    children: List[ast.stmt] = []
    for _, value in ast.iter_fields(node):
        if isinstance(value, list):
            children.extend(item for item in value if isinstance(item, ast.stmt))
            children.extend(
                statement
                for item in value
                if isinstance(item, ast.ExceptHandler)
                for statement in item.body
            )
    return children


_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _own_statements(func: ast.AST) -> Iterator[ast.stmt]:
    """Statements of ``func`` itself, not of functions nested in it."""
    stack: List[ast.stmt] = list(getattr(func, "body", []))
    while stack:
        statement = stack.pop()
        if isinstance(statement, _FUNCTIONS):
            continue
        yield statement
        stack.extend(_child_statements(statement))


def lock_global(path: str, tree: ast.Module, lines: Sequence[str]) -> Iterator[Finding]:
    """In a module that declares a module-level ``threading.Lock``, every
    function-scope rebinding of a module global happens inside
    ``with <lock>:`` (or ``async with``), so swap-and-return operations
    (``set_default_registry``, ``set_default_event_log``, the native-kernel
    cache) stay atomic.  Modules without a lock, such as single-threaded
    worker initializers, are out of scope."""
    locks = _module_lock_names(tree)
    if not locks:
        return

    def scan(body: List[ast.stmt], declared: Set[str], guarded: bool) -> Iterator[Finding]:
        for statement in body:
            if isinstance(statement, _FUNCTIONS):
                continue  # nested function: its own Global set, checked separately
            if isinstance(statement, (ast.With, ast.AsyncWith)):
                holds = guarded or any(
                    isinstance(item.context_expr, ast.Name) and item.context_expr.id in locks
                    for item in statement.items
                )
                yield from scan(statement.body, declared, holds)
                continue
            rebinds = sorted(set(_assigned_names(statement)) & declared)
            if rebinds and not guarded:
                yield path, statement.lineno, (
                    f"rebinds module global(s) {', '.join(rebinds)} outside "
                    f"'with {', '.join(sorted(locks))}:'; concurrent readers can "
                    f"observe a half-swapped state"
                )
            yield from scan(_child_statements(statement), declared, guarded)

    for node in ast.walk(tree):
        if isinstance(node, _FUNCTIONS):
            declared = {
                name
                for statement in _own_statements(node)
                if isinstance(statement, ast.Global)
                for name in statement.names
            }
            if declared:
                yield from scan(node.body, declared, guarded=False)


# --------------------------------------------------------------------- #
# Spec and metric contracts
# --------------------------------------------------------------------- #
def _decorator_callee(node: ast.expr) -> str:
    return _callee_name(node.func if isinstance(node, ast.Call) else node)


def spec_frozen(path: str, tree: ast.Module, lines: Sequence[str]) -> Iterator[Finding]:
    """Every ``*Spec`` dataclass is ``frozen=True``: the fingerprints in
    sweep CSV headers and checkpoints are only trustworthy if a spec cannot
    change after construction."""
    for node in ast.walk(tree):
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
                yield path, node.lineno, (
                    f"dataclass {node.name} must be @dataclass(frozen=True): "
                    f"spec fingerprints assume immutability"
                )


_METRIC_NAME_RE = re.compile(r"^repro_[a-z0-9_]+$")
_REGISTRATION_METHODS = frozenset(("counter", "gauge", "histogram"))
_HISTOGRAM_UNITS = ("_seconds", "_bytes")


def _metric_name_argument(node: ast.Call) -> Optional[ast.Constant]:
    if node.args:
        candidate: Optional[ast.expr] = node.args[0]
    else:
        candidate = next((k.value for k in node.keywords if k.arg == "name"), None)
    if isinstance(candidate, ast.Constant) and isinstance(candidate.value, str):
        return candidate
    return None


def metric_name(path: str, tree: ast.Module, lines: Sequence[str]) -> Iterator[Finding]:
    """Registry instrument names match ``^repro_[a-z0-9_]+$``; counters end
    ``_total`` and histograms ``_seconds``/``_bytes``.  ``GET /metrics``
    scrapers and perfbench read these names; an off-convention series is
    invisible to them."""
    for node in ast.walk(tree):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in _REGISTRATION_METHODS
        ):
            continue
        name_node = _metric_name_argument(node)
        if name_node is None:
            continue
        name, kind = name_node.value, node.func.attr
        if not _METRIC_NAME_RE.match(name):
            message = f"instrument name {name!r} must match ^repro_[a-z0-9_]+$"
        elif kind == "counter" and not name.endswith("_total"):
            message = f"counter {name!r} must end in '_total'"
        elif kind == "histogram" and not name.endswith(_HISTOGRAM_UNITS):
            message = f"histogram {name!r} must carry a unit suffix (_seconds or _bytes)"
        else:
            continue
        yield path, name_node.lineno, message


RULES = {
    "RNG-SEED": rng_seed,
    "RNG-MODULE": rng_module,
    "TIME-WALLCLOCK": time_wallclock,
    "IO-ATOMIC": io_atomic,
    "PICKLE-IMPORT": pickle_import,
    "EXC-BARE": exc_bare,
    "EXC-BROAD": exc_broad,
    "LOCK-GLOBAL": lock_global,
    "SPEC-FROZEN": spec_frozen,
    "METRIC-NAME": metric_name,
}


def check_source(path: str, source: str) -> List[Tuple[str, int, str]]:
    """``(rule id, line, message)`` of every violation in one module."""
    tree = ast.parse(source, filename=path)
    lines = source.splitlines()
    return [
        (rule_id, line, message)
        for rule_id, rule in RULES.items()
        for _, line, message in rule(path, tree, lines)
    ]


# --------------------------------------------------------------------- #
# The gate
# --------------------------------------------------------------------- #
def test_source_tree_is_clean():
    modules = sorted((SRC / "repro").rglob("*.py"))
    assert len(modules) > 50, "src/repro not found"
    found = []
    for module in modules:
        path = module.relative_to(SRC).as_posix()
        for rule_id, line, message in check_source(path, module.read_text(encoding="utf-8")):
            found.append(f"{path}:{line}: {rule_id} {message}")
    assert found == [], "src/repro breaks its invariants:\n" + "\n".join(found)


def test_allowlists_and_scopes_name_real_modules():
    """A renamed module must not leave a stale allowlist entry behind."""
    for path in RNG_ALLOWED + IO_ALLOWED:
        assert (SRC / path).is_file(), path
    for directory in TIME_FORBIDDEN_DIRS:
        assert (SRC / "repro" / directory / "__init__.py").is_file(), directory


# --------------------------------------------------------------------- #
# Each rule fires on its trigger and stays quiet on clean code
# --------------------------------------------------------------------- #
def fired(source: str, rule_id: str, path: str = "mod.py") -> List[int]:
    """Lines at which ``rule_id`` fires on ``source`` as module ``path``."""
    return [
        line for found, line, _ in check_source(path, textwrap.dedent(source)) if found == rule_id
    ]


CLEAN_MODULE = """\
    import numpy as np

    from repro.rng import derive_seed_sequences


    def streams(seed, n):
        return [np.random.default_rng(ss) for ss in derive_seed_sequences(seed, n)]
"""


class TestRuleTriggers:
    def test_clean_module_has_no_findings(self):
        assert check_source("clean.py", textwrap.dedent(CLEAN_MODULE)) == []

    def test_rng_seed_unseeded_default_rng(self):
        source = """\
            import numpy as np

            gen = np.random.default_rng()
            """
        assert fired(source, "RNG-SEED") == [3]

    def test_rng_seed_none_argument_still_flagged(self):
        source = "from numpy.random import SeedSequence\nss = SeedSequence(None)\n"
        assert fired(source, "RNG-SEED") == [2]

    def test_rng_seed_explicit_seed_passes(self):
        source = "import numpy as np\ngen = np.random.default_rng(20230328)\n"
        assert fired(source, "RNG-SEED") == []

    def test_rng_seed_allowlisted_in_rng_module(self):
        source = "import numpy as np\ngen = np.random.default_rng()\n"
        assert fired(source, "RNG-SEED", path="repro/rng.py") == []
        assert fired(source, "RNG-SEED", path="repro/other.py") == [2]

    def test_rng_module_import_random(self):
        assert fired("import random\n", "RNG-MODULE") == [1]

    def test_rng_module_from_random_import(self):
        assert fired("from random import shuffle\n", "RNG-MODULE") == [1]

    def test_wallclock_in_simulation_package(self):
        source = "import time\n\nstart = time.monotonic()\n"
        assert fired(source, "TIME-WALLCLOCK", path="simulation/mod.py") == [3]

    def test_wallclock_from_import_in_simulation_package(self):
        assert fired("from time import time\n", "TIME-WALLCLOCK", path="simulation/mod.py") == [1]

    def test_wallclock_fine_outside_scoped_packages(self):
        source = "import time\n\nnow = time.time()\n"
        assert fired(source, "TIME-WALLCLOCK", path="service/mod.py") == []

    def test_wallclock_perf_counter_is_allowed(self):
        source = "import time\n\nstart = time.perf_counter()\n"
        assert fired(source, "TIME-WALLCLOCK", path="simulation/mod.py") == []

    def test_io_atomic_bare_open_write(self):
        source = """\
            def save(path, text):
                with open(path, "w") as handle:
                    handle.write(text)
            """
        assert fired(source, "IO-ATOMIC") == [2]

    def test_io_atomic_path_write_text(self):
        assert fired("def save(path, text):\n    path.write_text(text)\n", "IO-ATOMIC") == [2]

    def test_io_atomic_read_mode_passes(self):
        source = 'def load(path):\n    with open(path, "r") as handle:\n        return handle.read()\n'
        assert fired(source, "IO-ATOMIC") == []

    def test_io_atomic_allowlisted_in_atomicio(self):
        source = 'def write(path, text):\n    with open(path, "w") as handle:\n        handle.write(text)\n'
        assert fired(source, "IO-ATOMIC", path="repro/_atomicio.py") == []
        assert fired(source, "IO-ATOMIC", path="repro/simulation/_native.py") == [2]

    def test_pickle_import(self):
        assert fired("import pickle\n", "PICKLE-IMPORT") == [1]

    def test_pickle_from_import(self):
        assert fired("from dill import dumps\n", "PICKLE-IMPORT") == [1]

    def test_bare_except(self):
        assert fired("try:\n    x = 1\nexcept:\n    pass\n", "EXC-BARE") == [3]

    def test_broad_except_without_comment(self):
        assert fired("try:\n    x = 1\nexcept Exception:\n    pass\n", "EXC-BROAD") == [3]

    def test_broad_except_with_trailing_comment_passes(self):
        source = "try:\n    x = 1\nexcept Exception:  # keep the server up\n    pass\n"
        assert fired(source, "EXC-BROAD") == []

    def test_broad_except_with_comment_above_passes(self):
        source = "try:\n    x = 1\n# any failure means unavailable\nexcept Exception:\n    pass\n"
        assert fired(source, "EXC-BROAD") == []

    def test_broad_except_with_comment_on_first_body_line_passes(self):
        source = """\
            try:
                x = 1
            except BaseException:
                # surface a failed task now, then re-raise
                raise
            """
        assert fired(source, "EXC-BROAD") == []

    def test_broad_except_with_comment_below_first_body_line(self):
        source = """\
            try:
                x = 1
            except BaseException:
                x = 2
                # a comment further down justifies nothing
                raise
            """
        assert fired(source, "EXC-BROAD") == [3]

    def test_narrow_except_needs_no_comment(self):
        assert fired("try:\n    x = 1\nexcept ValueError:\n    pass\n", "EXC-BROAD") == []

    def test_lock_global_unguarded_rebinding(self):
        source = """\
            import threading

            _LOCK = threading.Lock()
            _STATE = None


            def swap(value):
                global _STATE
                _STATE = value
            """
        assert fired(source, "LOCK-GLOBAL") == [9]

    def test_lock_global_guarded_rebinding_passes(self):
        source = """\
            import threading

            _LOCK = threading.Lock()
            _STATE = None


            def swap(value):
                global _STATE
                with _LOCK:
                    previous, _STATE = _STATE, value
                return previous
            """
        assert fired(source, "LOCK-GLOBAL") == []

    def test_lock_global_async_with_guard_passes(self):
        source = """\
            import threading

            _LOCK = threading.Lock()
            _STATE = None


            async def swap(value):
                global _STATE
                async with _LOCK:
                    _STATE = value
            """
        assert fired(source, "LOCK-GLOBAL") == []

    def test_lock_global_rebinding_after_async_with_block(self):
        source = """\
            import threading

            _LOCK = threading.Lock()
            _STATE = None


            async def swap(value):
                global _STATE
                async with _LOCK:
                    pass
                _STATE = value
            """
        assert fired(source, "LOCK-GLOBAL") == [11]

    def test_lock_global_out_of_scope_without_module_lock(self):
        source = """\
            _WORKER_DATASET = None


            def init(dataset):
                global _WORKER_DATASET
                _WORKER_DATASET = dataset
            """
        assert fired(source, "LOCK-GLOBAL") == []

    def test_spec_frozen_missing(self):
        source = """\
            from dataclasses import dataclass


            @dataclass
            class FooSpec:
                name: str
            """
        assert fired(source, "SPEC-FROZEN") == [5]

    def test_spec_frozen_true_passes(self):
        source = """\
            from dataclasses import dataclass


            @dataclass(frozen=True)
            class FooSpec:
                name: str
            """
        assert fired(source, "SPEC-FROZEN") == []

    def test_non_spec_dataclass_unconstrained(self):
        source = """\
            from dataclasses import dataclass


            @dataclass
            class Accumulator:
                total: int = 0
            """
        assert fired(source, "SPEC-FROZEN") == []

    def test_metric_name_bad_prefix(self):
        source = 'counter = registry.counter("requests_total", "Requests.")\n'
        assert fired(source, "METRIC-NAME") == [1]

    def test_metric_name_counter_without_total(self):
        source = 'counter = registry.counter("repro_requests", "Requests.")\n'
        assert fired(source, "METRIC-NAME") == [1]

    def test_metric_name_histogram_without_unit(self):
        source = 'hist = registry.histogram("repro_latency", "Latency.")\n'
        assert fired(source, "METRIC-NAME") == [1]

    def test_metric_name_conforming_instruments_pass(self):
        source = """\
            c = registry.counter("repro_requests_total", "Requests.")
            g = registry.gauge("repro_open_round", "Open round index.")
            h = registry.histogram("repro_latency_seconds", "Latency.")
            """
        assert fired(source, "METRIC-NAME") == []

    def test_rng_seed_keyword_arguments(self):
        source = """\
            import numpy as np

            a = np.random.default_rng(seed=7)
            b = np.random.SeedSequence(entropy=None)
            c = np.random.SeedSequence(entropy=11)
            """
        assert fired(source, "RNG-SEED") == [4]

    def test_rng_module_allowlisted_in_validation_module(self):
        assert fired("import random\n", "RNG-MODULE", path="repro/_validation.py") == []
        assert fired("import random\n", "RNG-MODULE", path="repro/obs/spans.py") == [1]

    def test_rng_module_aliased_import_is_flagged(self):
        assert fired("import os, random as stdlib_random\n", "RNG-MODULE") == [1]

    def test_rng_module_relative_and_lookalike_imports_pass(self):
        source = "from .random import helper\nimport randomgen\n"
        assert fired(source, "RNG-MODULE") == []

    @pytest.mark.parametrize("directory", sorted(TIME_FORBIDDEN_DIRS))
    def test_wallclock_in_every_scoped_package(self, directory):
        source = "import time\n\nnow = time.time()\n"
        assert fired(source, "TIME-WALLCLOCK", path=f"repro/{directory}/mod.py") == [3]

    def test_wallclock_scope_is_by_package_directory(self):
        source = "import time\n\nnow = time.time()\n"
        assert fired(source, "TIME-WALLCLOCK", path="repro/simulation/kernels/mod.py") == [3]
        assert fired(source, "TIME-WALLCLOCK", path="repro/simulations/mod.py") == []
        assert fired(source, "TIME-WALLCLOCK", path="repro/simulation.py") == []

    def test_wallclock_from_import_names_only_the_clock_reads(self):
        source = "from time import perf_counter, time, monotonic\n"
        found = check_source("repro/hashing/mod.py", source)
        assert [(rule, line) for rule, line, _ in found] == [("TIME-WALLCLOCK", 1)]
        assert "monotonic, time from 'time'" in found[0][2]

    @pytest.mark.parametrize("mode", ["a", "xb", "wb", "w+"])
    def test_io_atomic_destructive_mode_keyword(self, mode):
        source = f'def save(path):\n    return open(path, mode="{mode}")\n'
        assert fired(source, "IO-ATOMIC") == [2]

    def test_io_atomic_path_open_and_write_bytes(self):
        source = """\
            import os


            def save(path, data):
                with path.open("wb") as handle:
                    handle.write(data)
                path.write_bytes(data)
                with path.open() as handle:
                    handle.read()
                return os.open(path, os.O_RDONLY)
            """
        assert sorted(fired(source, "IO-ATOMIC")) == [5, 7]

    def test_io_atomic_update_and_non_literal_modes_pass(self):
        source = 'def touch(path, mode):\n    open(path, "r+b")\n    open(path, mode)\n'
        assert fired(source, "IO-ATOMIC") == []

    def test_pickle_family_imports(self):
        source = """\
            import shelve
            import os, pickle as pk
            from _pickle import loads
            import cPickle.extra
            """
        assert fired(source, "PICKLE-IMPORT") == [1, 2, 3, 4]

    def test_pickle_relative_and_lookalike_imports_pass(self):
        source = "from .pickle import helper\nimport pickletools_free\nfrom json import loads\n"
        assert fired(source, "PICKLE-IMPORT") == []

    def test_broad_except_in_tuple_or_as_attribute(self):
        source = """\
            import builtins

            try:
                x = 1
            except (ValueError, Exception):
                pass
            try:
                x = 2
            except builtins.BaseException:
                pass
            """
        assert fired(source, "EXC-BROAD") == [5, 9]

    def test_lock_global_augmented_assignment_under_rlock(self):
        source = """\
            import threading

            _LOCK = threading.RLock()
            _COUNT = 0


            def bump():
                global _COUNT
                _COUNT += 1
                with _LOCK:
                    _COUNT += 1
            """
        assert fired(source, "LOCK-GLOBAL") == [9]

    def test_lock_global_rebinding_in_except_handler(self):
        source = """\
            import threading

            _LOCK = threading.Lock()
            _STATE = None


            def load(value):
                global _STATE
                try:
                    value = int(value)
                except ValueError:
                    _STATE = None
            """
        assert fired(source, "LOCK-GLOBAL") == [12]

    def test_lock_global_other_context_manager_does_not_guard(self):
        source = """\
            import threading

            _LOCK = threading.Lock()
            _STATE = None


            def swap(path):
                global _STATE
                with open(path) as handle:
                    _STATE = handle.read()
            """
        assert fired(source, "LOCK-GLOBAL") == [10]

    def test_spec_frozen_attribute_decorator_and_frozen_false(self):
        source = """\
            import dataclasses


            @dataclasses.dataclass(frozen=False)
            class BarSpec:
                name: str


            @dataclasses.dataclass(frozen=True)
            class BazSpec:
                name: str
            """
        assert fired(source, "SPEC-FROZEN") == [5]

    def test_metric_name_keyword_and_case(self):
        source = """\
            a = registry.counter(name="repro_Requests_total", help="Requests.")
            b = registry.histogram(name="repro_payload_bytes", help="Payload size.")
            c = registry.gauge(series_name, "Computed names are left to review.")
            """
        assert fired(source, "METRIC-NAME") == [1]


def test_unparsable_module_fails_the_gate():
    with pytest.raises(SyntaxError) as raised:
        check_source("repro/broken.py", "def broken(:\n    pass\n")
    assert raised.value.filename == "repro/broken.py"
