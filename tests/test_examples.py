"""Smoke tests for the runnable examples.

The quickstart and the attack analysis are executed end to end (they are
fast); the heavier scenario examples are compiled and their ``main`` entry
points imported, which catches API drift without paying their full simulation
cost in the unit-test suite.
"""

import importlib.util
import os
import pathlib
import subprocess
import sys

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).resolve().parent.parent / "examples"
SRC_DIR = EXAMPLES_DIR.parent / "src"
ALL_EXAMPLES = sorted(EXAMPLES_DIR.glob("*.py"))


def _load_module(path: pathlib.Path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run_example(name: str) -> str:
    """Run ``examples/<name>`` in a fresh interpreter; returns its stdout."""
    # The subprocess does not inherit pytest's ``pythonpath`` setting, so
    # expose src/ explicitly (works with or without a caller PYTHONPATH).
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC_DIR)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    completed = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / name)],
        capture_output=True,
        text=True,
        timeout=300,
        env=env,
    )
    assert completed.returncode == 0, completed.stderr
    return completed.stdout


class TestExamples:
    def test_examples_directory_has_expected_scenarios(self):
        names = {path.name for path in ALL_EXAMPLES}
        assert {"quickstart.py", "telemetry_monitoring.py", "census_counters.py",
                "attack_analysis.py"}.issubset(names)

    @pytest.mark.parametrize("path", ALL_EXAMPLES, ids=lambda p: p.name)
    def test_example_defines_main(self, path):
        module = _load_module(path)
        assert callable(getattr(module, "main", None)), f"{path.name} must define main()"

    def test_quickstart_runs_end_to_end(self):
        stdout = _run_example("quickstart.py")
        assert "MSE averaged" in stdout
        assert "realized longitudinal budget" in stdout

    def test_attack_analysis_runs_end_to_end(self):
        """Table 2 in miniature: the utility-oriented d = b configuration
        exposes more users' change points than d = 1 at every eps_inf."""
        lines = _run_example("attack_analysis.py").splitlines()
        header = lines.index("eps_inf  d=1 detected  d=b detected")
        rows = [line.split() for line in lines[header + 2:] if line[:1].isdigit()]
        assert len(rows) == 3, lines
        for eps_inf, d1, db in rows:
            assert float(db.rstrip("%")) > float(d1.rstrip("%")), (eps_inf, d1, db)
