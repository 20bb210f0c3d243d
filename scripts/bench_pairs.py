"""Alternating parent/change runs of perfbench, summarised as BENCH_<short-sha>.json.

    python3 scripts/bench_pairs.py --parent PATH --pairs 5 --seed 11 \\
        --workload bulk-enumerate --workload invert

PATH is a checkout of the parent commit (made with `git clone` or
`git archive`).  For each workload the script runs

    python3 perfbench/run.py --workload W --seed S --seconds T --trace 0

with T the `run_seconds` of BENCHMARK.json, in the parent checkout and
in this one, `--pairs` times, the side that runs first alternating from
pair to pair, so that slow phases of the host fall on both sides alike.  The last stdout line of each run is perfbench's
result JSON.  The file written at the root of this checkout, named after
its HEAD, holds per workload and end-to-end metric the median, quartiles,
minimum and maximum of each side, the ratio of the medians, the share of
pairs in which the change is better, every run's value and a verdict;
besides the attempted and failed counts of every run and whether the
first-cycle digests of the two sides agree.  Cached bytecode moves a
whole-process time by tens of milliseconds, so the report also holds the
number of .pyc files under src/weylstrata of each side, counted before
the first run, and the value of PYTHONDONTWRITEBYTECODE (None when
unset).  The verdict, with the metric's relative bound from
BENCHMARK.json, is the first that holds of

    worse       the change's median is worse than the parent's by more than the bound
    better      the change is better in at least 9 of 10 pairs, and its median
                beats the parent's by more than the parent's interquartile range
    unresolved  either side's interquartile range exceeds the bound times its median
    unchanged   otherwise
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DIGEST = re.compile(r"^(\S+): input_digest (\w+) output_digest (\w+)")


def short_sha(checkout: str) -> str:
    return subprocess.run(
        ["git", "rev-parse", "--short", "HEAD"], cwd=checkout, capture_output=True, text=True, check=True
    ).stdout.strip()


def run_once(checkout: str, workload: str, seed: int, seconds: float) -> dict:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    if done.returncode:
        raise SystemExit(
            f"{' '.join(argv[1:])} exited with {done.returncode} in {checkout}; its stderr:\n{done.stderr}"
        )
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    digests = [m.groups()[1:] for m in map(DIGEST.match, lines) if m]
    return {
        "attempted": result["attempted"],
        "failed": result["failed"],
        "digests": digests[0] if digests else None,
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
        "units": {name: m["unit"] for name, m in result["metrics"].items()},
    }


def bytecode(parent: str, change: str) -> dict:
    # the .pyc files under src/weylstrata of each checkout, and whether runs may write more
    def pyc_files(checkout: str) -> int:
        tree = os.walk(os.path.join(checkout, "src", "weylstrata"))
        return sum(name.endswith(".pyc") for _, _, names in tree for name in names)

    return {
        "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
        "pyc_files": {"parent": pyc_files(parent), "change": pyc_files(change)},
    }


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3, "min": min(values), "max": max(values), "runs": values}


def verdict(parent: dict, change: dict, lower: bool, bound: float, wins: int, pairs: int) -> str:
    # the first of worse, better, unresolved that holds, else unchanged (module docstring)
    gain = parent["median"] - change["median"] if lower else change["median"] - parent["median"]
    if -gain > bound * parent["median"]:
        return "worse"
    if 10 * wins >= 9 * pairs and gain > parent["q3"] - parent["q1"]:
        return "better"
    if any(side["q3"] - side["q1"] > bound * side["median"] for side in (parent, change)):
        return "unresolved"
    return "unchanged"


def summarise(runs: list[tuple[dict, dict]], rules: dict[str, dict]) -> dict:
    parent, change = [p for p, _ in runs], [c for _, c in runs]
    metrics = {}
    for name, unit in parent[0]["units"].items():
        before = [r["metrics"][name] for r in parent]
        after = [r["metrics"][name] for r in change]
        lower = rules[name]["better"] == "lower"
        wins = sum((a < b) if lower else (a > b) for b, a in zip(before, after))
        sides = spread(before), spread(after)
        metrics[name] = {
            "unit": unit,
            "better": rules[name]["better"],
            "bound": rules[name]["bound"],
            "parent": sides[0],
            "change": sides[1],
            "ratio_of_medians": statistics.median(after) / statistics.median(before),
            "change_better_in_pairs": f"{wins}/{len(runs)}",
            "verdict": verdict(*sides, lower, rules[name]["bound"], wins, len(runs)),
        }
    return {
        "metrics": metrics,
        "attempted": {"parent": [r["attempted"] for r in parent], "change": [r["attempted"] for r in change]},
        "failed": {"parent": [r["failed"] for r in parent], "change": [r["failed"] for r in change]},
        "first_cycle_digests_equal": all(p["digests"] == c["digests"] for p, c in runs),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", required=True, help="a checkout of the parent commit")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=11)
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        benchmark = json.load(f)
    seconds = benchmark["run_seconds"]
    rules = {m["name"]: m for m in benchmark["end_to_end"]}
    sha = short_sha(ROOT)
    report = {
        "parent": short_sha(args.parent),
        "change": sha,
        "command": f"python3 perfbench/run.py --workload W --seed {args.seed} --seconds {seconds:g} --trace 0",
        "pairs": args.pairs,
        "order": "parent first in odd-numbered pairs, change first in even-numbered ones",
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "bytecode": bytecode(args.parent, ROOT),
        "workloads": {},
    }
    for workload in args.workload:
        runs = []
        for i in range(args.pairs):
            if i % 2:
                change = run_once(ROOT, workload, args.seed, seconds)
                parent = run_once(args.parent, workload, args.seed, seconds)
            else:
                parent = run_once(args.parent, workload, args.seed, seconds)
                change = run_once(ROOT, workload, args.seed, seconds)
            runs.append((parent, change))
            print(f"{workload}: pair {i + 1} of {args.pairs} done", file=sys.stderr)
        report["workloads"][workload] = summarise(runs, rules)
    path = os.path.join(ROOT, f"BENCH_{sha}.json")
    with open(path, "w") as f:
        json.dump(report, f, indent=1, sort_keys=True)
        f.write("\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
