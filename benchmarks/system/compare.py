#!/usr/bin/env python3
"""Compare two suite results metric by metric, against BENCHMARK.json's bounds.

    python3 benchmarks/system/compare.py A.json B.json
    python3 benchmarks/system/compare.py --repeat 2 [--seed N] [--quick]

One row per workload x end-to-end metric: both reported values (the best
decile of the run's rounds) with the rounds' quartiles, how much worse B is
than A, and a verdict.  ``regressed``: B's value is worse than A's by more
than the metric's bound.  ``unresolved``: either
side's own spread (quartile distance over median) is wider than the bound, so
the two cannot be told apart.  ``ok`` otherwise.  ``--repeat`` produces the
result files itself by running the suite that many times on this commit and
compares each run with the one before: the repeatability check.  Exits 1
unless every row is ``ok``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from typing import Any, Dict, List, Optional, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))


def spread(stats: Dict[str, float]) -> float:
    median = abs(stats["median"])
    return (stats["q3"] - stats["q1"]) / median if median else 0.0


def judge(
    metric: Dict[str, Any], first: Dict[str, float], second: Dict[str, float]
) -> Tuple[float, str]:
    """How much worse ``second`` is (as a share of ``first``), and the verdict."""
    base = first["value"]
    change = (second["value"] - base) / abs(base) if base else 0.0
    worse = change if metric["better"] == "lower" else -change
    noise = max(spread(first), spread(second))
    if worse > metric["bound"] and worse > noise:
        return worse, "regressed"
    if noise > metric["bound"]:
        return worse, "unresolved"
    return worse, "ok"


def compare(first: Dict[str, Any], second: Dict[str, Any], contract: Dict[str, Any]) -> List[str]:
    """Print the table; return the verdicts."""
    verdicts = []
    print(f"{'workload':18s} {'metric':30s} {'A value [q1, q3]':>34s} "
          f"{'B value [q1, q3]':>34s} {'worse':>8s} {'bound':>6s}  verdict")
    for name in first["workloads"]:
        if name not in second["workloads"]:
            continue
        for metric in contract["end_to_end"]:
            one = first["workloads"][name]["end_to_end"][metric["name"]]
            two = second["workloads"][name]["end_to_end"][metric["name"]]
            worse, verdict = judge(metric, one, two)
            verdicts.append(verdict)
            cells = [
                f"{stats['value']:.5g} [{stats['q1']:.5g}, {stats['q3']:.5g}]"
                for stats in (one, two)
            ]
            print(f"{name:18s} {metric['name']:30s} {cells[0]:>34s} {cells[1]:>34s} "
                  f"{worse:+8.1%} {metric['bound']:6.0%}  {verdict}")
    for label, result in (("A", first), ("B", second)):
        failures = sum(len(entry["failures"]) for entry in result["workloads"].values())
        print(f"# {label}: seed {result['seed']}, {failures} failed operations, "
              f"host calibration {result['host'].get('calibration_s')}"
              f"{', NOISY HOST' if result.get('noisy') else ''}")
        if failures:
            verdicts.append("failed")
    return verdicts


def run_suite(index: int, seed: int, quick: bool) -> str:
    path = os.path.join(HERE, "results", f"repeat-{index}-seed{seed}.json")
    command = [sys.executable, os.path.join(HERE, "run.py"), "--seed", str(seed), "--out", path]
    if quick:
        command.append("--quick")
    subprocess.run(command, check=True, stdout=subprocess.DEVNULL)
    return path


def load(path: str) -> Dict[str, Any]:
    with open(path) as handle:
        return json.load(handle)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("results", nargs="*", help="two suite result files")
    parser.add_argument("--repeat", type=int, help="run the suite this many times and compare")
    parser.add_argument("--seed", type=int, default=2012)
    parser.add_argument("--quick", action="store_true")
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        contract = json.load(handle)
    if args.repeat:
        if args.repeat < 2:
            parser.error("--repeat needs at least 2 runs")
        paths = [run_suite(index, args.seed, args.quick) for index in range(args.repeat)]
    elif len(args.results) == 2:
        paths = args.results
    else:
        parser.error("give two result files, or --repeat N")
    verdicts: List[str] = []
    for first, second in zip(paths, paths[1:]):
        print(f"# A = {first}\n# B = {second}")
        verdicts += compare(load(first), load(second), contract)
    return 0 if all(verdict == "ok" for verdict in verdicts) else 1


if __name__ == "__main__":
    sys.exit(main())
