#!/usr/bin/env python3
"""Paper-workload benchmark of the longitudinal LDP simulator and ingest service.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload census-churn --seed 1 --seconds 10 --trace 0

``BENCHMARK.json`` declares the workloads and metrics.  With ``--trace 0``
the last line of standard output is a JSON object carrying every end-to-end
metric; with ``--trace 1`` it carries every per-layer metric, taken from a
traced pass that runs after an untraced one.  The lines before it print the
same metrics by name and unit, the run's stamp (kernel backend, numpy and
Python versions, nproc, code version, seed), the correctness checks and, for
simulation workloads, the projected CPU-hours of the paper's Section 5 grid.
A run whose correctness checks fail prints its result all the same and
exits 1.

Each run also leaves a record under ``.bench_build/results/``;
``perfbench/compare.py`` compares two sets of records.

The work itself runs in a fresh worker process (``perfbench/worker.py``) so
that its peak memory is its own.  Everything the run writes, including the
compiled kernel library, stays under ``.bench_build/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
WORKER_TIMEOUT_S = 170

#: Points per dataset in the Section 5 grid, per protocol:
#: 10 eps_inf x 3 alpha x 20 runs.
GRID_POINTS_PER_PROTOCOL = 600


def _source_digest() -> str:
    """Content hash of the program sources (the checkout need not be a git repo)."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return completed.stdout.strip() or None


def _run_worker(args) -> dict:
    for name in ("cache", "tmp", "results"):
        (BUILD / name).mkdir(parents=True, exist_ok=True)
    out = BUILD / "tmp" / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (str(ROOT / "src"), env.get("PYTHONPATH")) if part
    )
    env["XDG_CACHE_HOME"] = str(BUILD / "cache")
    env["TMPDIR"] = str(BUILD / "tmp")
    command = [
        sys.executable, str(ROOT / "perfbench" / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--scale", str(args.scale), "--out", str(out),
    ]
    # A session of its own, so that a timeout also stops the ingest servers
    # the worker started.
    worker = subprocess.Popen(command, cwd=ROOT, env=env, start_new_session=True,
                              stdout=sys.stderr)
    try:
        code = worker.wait(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(worker.pid, signal.SIGKILL)
        worker.wait()
        raise RuntimeError(f"worker exceeded {WORKER_TIMEOUT_S} s") from None
    if code != 0:
        raise RuntimeError(f"worker exited with code {code}")
    try:
        return json.loads(out.read_text(encoding="utf-8"))
    finally:
        out.unlink()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", type=float, default=1.0,
        help="fraction of the paper-sized workloads (the smoke test uses 0.02)",
    )
    args = parser.parse_args(argv)

    definition_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro" / "__init__.py").is_file() or not definition_path.is_file():
        print(f"error: {ROOT} is not a source checkout (src/repro missing)", file=sys.stderr)
        return 2
    definition = json.loads(definition_path.read_text(encoding="utf-8"))
    workloads = [workload["name"] for workload in definition["workloads"]]
    if args.workload not in workloads:
        print(f"error: unknown workload {args.workload!r}; known: {workloads}", file=sys.stderr)
        return 2

    try:
        result = _run_worker(args)
    except RuntimeError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1

    checks = result["checks"]
    attempted = len(checks)
    failed = sum(1 for check in checks if not check["ok"])
    # pass_rate counts each kind of check (budget, MSE, POST status, ...)
    # once, so that a broken kind costs a whole share of it however many
    # checks of the other kinds the run made.
    kinds = sorted({check["kind"] for check in checks})
    failed_kinds = sorted({check["kind"] for check in checks if not check["ok"]})
    measured = dict(result["metrics"])
    measured["pass_rate"] = 1.0 - len(failed_kinds) / len(kinds)
    declared = definition["per_layer" if args.trace else "end_to_end"]
    if args.trace:
        # A layer the workload never enters reads 0 (e.g. service.* on the
        # simulation workloads, engines.* on ingest-ue).
        measured = {metric["name"]: result.get("layers", {}).get(metric["name"], 0.0)
                    for metric in declared}
    missing = [metric["name"] for metric in declared if metric["name"] not in measured]
    if missing:
        print(f"error: the worker did not measure {missing}", file=sys.stderr)
        return 1
    metrics = {
        metric["name"]: {"value": float(measured[metric["name"]]), "unit": metric["unit"]}
        for metric in declared
    }

    stamp = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "scale": args.scale,
        "backend": result["backend"],
        "numpy": result["numpy"],
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": _git_commit(),
        "source_sha256": _source_digest(),
    }
    print("stamp " + json.dumps(stamp, sort_keys=True))
    if "dataset" in result:
        print("dataset " + json.dumps(result["dataset"], sort_keys=True))
    print(f"passes {result['passes']}")
    for name, metric in metrics.items():
        print(f"  {name:<32} {metric['value']:.6g} {metric['unit']}")
    print(f"error_rate {failed / attempted:.6g} ({failed} of {attempted} checks failed; "
          f"kinds failed: {', '.join(failed_kinds) or 'none'} of {', '.join(kinds)})")
    for check in checks:
        if not check["ok"]:
            print("  FAILED " + json.dumps(check, sort_keys=True))
    if "dataset" in result and not args.trace:
        share = result["dataset"]["share_of_paper_work"]
        cpu_h = result["metrics"]["sweep_s"] / share * GRID_POINTS_PER_PROTOCOL / 3600
        print(f"grid_cpu_h {result['dataset']['name']} {cpu_h:.4g} (ungated: sweep_s / "
              f"{share:g} of the paper-sized work x {GRID_POINTS_PER_PROTOCOL} / 3600)")
    if args.trace and "dataset" in result:
        layers = result["layers"]
        print(f"tracing overhead {layers['trace.overhead_s']:.4g} s "
              f"(traced minus untraced sweep_s); the named layers' self times "
              f"cover {layers['trace.accounted_share']:.4f} of the traced wall, "
              f"sweep.overhead_s the rest")

    record = {"stamp": stamp, "correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics, "checks": checks}
    (BUILD / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True), encoding="utf-8"
    )
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
