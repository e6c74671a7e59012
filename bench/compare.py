"""Compare two result files written by ``run.py --out``.

    python3 bench/compare.py base.jsonl change.jsonl

For each workload and metric, prints each side's quartiles over its runs
(q1, median, q3, run count) and the change of the medians.  End-to-end
metrics also get a verdict against their bound in ``BENCHMARK.json``:
``worse`` means the median moved the wrong way by more than the bound.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path: str) -> dict:
    """{(workload, trace): {metric: [value per run]}}"""
    table = defaultdict(lambda: defaultdict(list))
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            record = json.loads(line)
            runs = table[(record["workload"], record["trace"])]
            for name, entry in {**record["detail"], **record["metrics"]}.items():
                runs[name].append(entry["value"])
            runs["failed_frac"].append(record["failed_frac"])
    return table


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(spec: dict, base: float, change: float) -> str:
    if spec is None or base == 0:
        return ""
    worse = (change - base) / base * (1 if spec["better"] == "lower" else -1)
    if worse > spec["bound"]:
        return f"worse (bound {spec['bound']:.0%})"
    return "better" if worse < 0 else "within bound"


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, change = load(args[0]), load(args[1])
    specs = {m["name"]: m for m in json.loads(BENCHMARK.read_text())["end_to_end"]}
    print(f"{'workload':<10} {'metric':<40} {'base q1 / median / q3 (n)':>40} "
          f"{'change q1 / median / q3 (n)':>40} {'delta':>8}")
    for key in sorted(base.keys() & change.keys()):
        workload, trace = key
        for name in sorted(base[key].keys() & change[key].keys()):
            a, b = base[key][name], change[key][name]
            qa, qb = quartiles(a), quartiles(b)
            delta = f"{(qb[1] - qa[1]) / qa[1]:+.1%}" if qa[1] else "n/a"
            cells = [f"{q[0]:.4g} / {q[1]:.4g} / {q[2]:.4g} ({len(v)})" for q, v in ((qa, a), (qb, b))]
            label = workload + (" traced" if trace else "")
            spec = None if trace else specs.get(name)
            print(f"{label:<10} {name:<40} {cells[0]:>40} {cells[1]:>40} {delta:>8} "
                  f"{verdict(spec, qa[1], qb[1])}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
