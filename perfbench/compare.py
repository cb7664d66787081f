#!/usr/bin/env python3
"""Compare two sets of benchmark records, metric by metric, against the bounds.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds the records ``run.py`` leaves in
``.bench_build/results/`` (copy them aside between commits).  For every
workload and end-to-end metric it prints both medians, each side's spread
(quartile distance over median) and a verdict against the metric's bound in
``BENCHMARK.json``.  A record whose correctness checks failed, on either
side, is a regression whatever its timings.  Runs served by different kernel
backends are not comparable (the compiled backend alone moves end-to-end
time by about 18%), so the comparison is refused when the two sides'
backends differ.  Exits 1 when a record failed its checks or a metric
regressed beyond its bound.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from pathlib import Path
from statistics import median, quantiles

ROOT = Path(__file__).resolve().parent.parent


def _load(directory: Path):
    """``{workload: {metric: [values]}}``, the backends seen and the records
    whose correctness checks failed."""
    values = defaultdict(lambda: defaultdict(list))
    backends = set()
    incorrect = []
    for path in sorted(directory.glob("*.json")):
        record = json.loads(path.read_text(encoding="utf-8"))
        if not record["correct"]:
            incorrect.append(path)
        # Traced runs carry layer metrics; scaled-down runs are smoke tests.
        if record["stamp"]["trace"] or record["stamp"]["scale"] != 1.0:
            continue
        backends.add(record["stamp"]["backend"])
        for name, metric in record["metrics"].items():
            values[record["stamp"]["workload"]][name].append(metric["value"])
    return values, backends, incorrect


def _spread(values) -> float:
    if len(values) < 2:
        return 0.0
    first, _, third = quantiles(values, n=4)
    return (third - first) / median(values)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, base_backends, base_incorrect = _load(Path(argv[0]))
    new, new_backends, new_incorrect = _load(Path(argv[1]))
    if base_backends != new_backends:
        print(f"refused: kernel backends differ ({sorted(base_backends)} vs "
              f"{sorted(new_backends)})", file=sys.stderr)
        return 2
    definition = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    regressed = False
    for path in base_incorrect + new_incorrect:
        print(f"{path}: correctness checks failed REGRESSED")
        regressed = True
    for workload in sorted(set(base) & set(new)):
        print(f"{workload} (runs: {len(base[workload]['sweep_s'])} vs {len(new[workload]['sweep_s'])})")
        for metric in definition["end_to_end"]:
            name = metric["name"]
            before, after = median(base[workload][name]), median(new[workload][name])
            change = (after - before) / before
            worse = change if metric["better"] == "lower" else -change
            verdict = "REGRESSED" if worse > metric["bound"] else "ok"
            regressed |= verdict == "REGRESSED"
            print(f"  {name:<16} {before:<12.6g} -> {after:<12.6g} {change:+.2%} "
                  f"(spread {_spread(base[workload][name]):.3f} / "
                  f"{_spread(new[workload][name]):.3f}, bound {metric['bound']}) {verdict}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
