"""Benchmark of the weylstrata package: one workload per invocation.

    python3 perfbench/run.py --workload cli-mix --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Run from the root of a checkout; the library is loaded from ./src.  With
--trace 0 the last line of stdout is one JSON object carrying the
end-to-end metrics; with --trace 1 it carries the per-layer metrics of a
traced run, and the spans go to .perfbench/trace-<workload>-<seed>.ndjson.
Earlier lines name the environment, the input and output digests and the
workload's metrics under their own names.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import sys
from time import perf_counter_ns

import sampler as S
import workloads as W
from spans import Tracer

SETUP_REPEATS = 7
END_TO_END = {
    "setup_s": "s",
    "latency_ms_p50": "ms",
    "latency_ms_p90": "ms",
    "throughput_per_s": "1/s",
    "peak_rss_mb": "MB",
}
CLI_KINDS = ("phi_exc", "phi_classical", "classify", "enumerate", "tables", "invert", "error")

# (layer, qualifier, unit, counter): spans named layer[.qualifier] become the
# metric layer_unit[.qualifier] (median per call) and layer.counter[.qualifier]
LAYERS = (
    [("cli.import", "", "ms", None), ("atlas.load_atlas", "", "ms", None), ("cli.interpreter_floor", "", "ms", None)]
    + [("cli.main", kind, "ms", None) for kind in CLI_KINDS]
    + [(layer, "", "us", "calls") for layer in (
        "partitions.Partition", "jordan.LabeledPartition", "classical.SpectralDatum", "classical.classify",
        "jordan.apply_bijection", "weyl.stratum_of_class", "atlas.rep_of_class")]
    + [(layer, "", "ms", "items") for layer in (
        "partitions.enumerate_bipartitions", "partitions.enumerate_partitions", "classical.enumerate_strata",
        "classical.dimension_set", "weyl.strata_fibers", "jordan.enumerate_jordan")]
    + [("jordan.invert_bijection", family, "ms", "calls") for family in S.FAMILIES]
    + [("verify.run_suite", "", "ms", None)]
)
SCALE = {"ms": 1e6, "us": 1e3}


def _qualified(name: str, qualifier: str) -> str:
    return f"{name}.{qualifier}" if qualifier else name


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric a traced run reports, with its unit."""
    units = {}
    for layer, qualifier, unit, counter in LAYERS:
        units[_qualified(f"{layer}_{unit}", qualifier)] = unit
        if counter:
            units[_qualified(f"{layer}.{counter}", qualifier)] = "count"
    for name in W.WORKLOADS:
        units[f"{name}.repeat_share"] = "ratio"
        units[f"{name}.rejected"] = "count"
    for name in ("checks_run", "budget_misses", "checks_failed"):
        units[f"verify.{name}"] = "count"
    units["trace.spans"] = "count"
    for metric, unit in END_TO_END.items():
        units[f"trace.overhead.{metric}"] = unit
    return units


# ---------------------------------------------------------------------------
# measurements outside the workload loop


def _child_seconds(args: list[str], tracer=None) -> float:
    start = perf_counter_ns()
    code, _, stderr, records = W.run_child(args)
    elapsed = perf_counter_ns() - start
    if code != 0:
        raise SystemExit(f"perfbench: {' '.join(args)} failed:\n{stderr.decode(errors='replace')}")
    if tracer is not None:
        for record in records:
            for name, s, e in record["spans"]:
                tracer.add(name, s, e)
    return elapsed / 1e9


def measure_setup(tracer=None) -> float:
    """Median time for a fresh process to import weylstrata.cli and load the atlas.

    Each probe is scaled by the time of a bare interpreter start just before
    it, like the request latencies (see workloads.REFERENCE_SPACING).
    """
    _child_seconds([W.CHILD, "setup"])  # writes the bytecode caches
    probes = []
    for _ in range(SETUP_REPEATS):
        reference = W.spawn_reference()
        probes.append(_child_seconds([W.CHILD, "setup"], tracer) * W.CliMix.NOMINAL_NS / reference)
    return statistics.median(probes)


def measure_floor(tracer) -> None:
    """`python -c pass`: start-up time that no change to the package can remove."""
    for _ in range(SETUP_REPEATS):
        start = perf_counter_ns()
        W.run_child(["-c", "pass"])
        tracer.add("cli.interpreter_floor", start, perf_counter_ns())


def peak_rss_mb(name: str, trace: bool) -> float:
    """Peak resident memory of a program process running one fixed cycle.

    A fixed cycle (seed 0) in fresh processes keeps the benchmark's own
    bookkeeping, which grows with the number of requests, and one seed's
    heap layout out of the figure.
    """
    return W.make(name).peak_rss_kb(trace) / 1024


def run_verify(tracer) -> dict[str, float]:
    code, _, stderr, records = W.run_child([W.CHILD, "verify"], timeout=120)
    if code != 0:
        raise SystemExit(f"perfbench: verify probe failed:\n{stderr.decode(errors='replace')}")
    (record,) = records
    for name, s, e in record["spans"]:
        tracer.add(name, s, e)
    checks = record["checks"]
    misses = sum(1 for c in checks if not c["passed"] and "exceeded the" in c["detail"])
    return {
        "verify.checks_run": len(checks),
        "verify.budget_misses": misses,
        "verify.checks_failed": sum(1 for c in checks if not c["passed"]) - misses,
    }


# ---------------------------------------------------------------------------
# metrics


def _quantile(values: list[float], q: int) -> float:
    """The q-th percentile, interpolated between the two nearest samples."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(res: W.RunResult, setup_s: float, rss_mb: float, scaled: bool = True) -> dict[str, float]:
    latencies_ms = [x / 1e6 for x in (res.scaled_ns if scaled else res.latencies_ns)]
    return {
        "setup_s": setup_s,
        "latency_ms_p50": statistics.median(latencies_ms),
        "latency_ms_p90": _quantile(latencies_ms, 90),
        "throughput_per_s": res.work / (sum(latencies_ms) / 1e3),
        "peak_rss_mb": rss_mb,
    }


def named_metrics(res: W.RunResult, e2e: dict[str, float]) -> list[tuple[str, float, str]]:
    """The workload's metrics under the names the documentation uses."""
    ms = [x / 1e6 for x in res.scaled_ns]
    out = [("setup_s", e2e["setup_s"], "s"), ("failed_ratio", res.failed / res.attempted, "ratio"),
           ("peak_rss_mb", e2e["peak_rss_mb"], "MB")]
    p50, p90, rate = e2e["latency_ms_p50"], e2e["latency_ms_p90"], e2e["throughput_per_s"]
    out += {
        "cli-mix": [("cli_ms_p50", p50, "ms"), ("cli_ms_p90", p90, "ms")],
        "point-queries": [("query_per_s", rate, "1/s"), ("query_us_p50", p50 * 1e3, "us"),
                          ("query_us_p99", _quantile(ms, 99) * 1e3, "us")],
        "bulk-enumerate": [("enumerate_items_per_s", rate, "1/s"), ("enumerate_ms_p50", p50, "ms")],
        "invert": [("invert_per_s", rate, "1/s"), ("invert_ms_p50", p50, "ms"), ("invert_ms_p90", p90, "ms")],
    }[res.name]
    return out


def layer_metrics(tracer: Tracer, results: list[W.RunResult]) -> dict[str, float]:
    durations = tracer.durations()
    out: dict[str, float] = {}
    for layer, qualifier, unit, counter in LAYERS:
        span = _qualified(layer, qualifier)
        samples = durations.get(span, [])
        out[_qualified(f"{layer}_{unit}", qualifier)] = statistics.median(samples) / SCALE[unit] if samples else 0.0
        if counter == "calls":
            out[_qualified(f"{layer}.calls", qualifier)] = len(samples)
        elif counter == "items":
            out[f"{layer}.items"] = tracer.counts[f"{layer}.items"]
    for res in results:
        out[f"{res.name}.repeat_share"] = res.repeats / res.attempted
        out[f"{res.name}.rejected"] = res.rejected
    return out


# ---------------------------------------------------------------------------
# reporting


def environment(args) -> dict:
    digest = hashlib.sha256()
    for folder, dirs, files in sorted(os.walk(W.SRC)):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            path = os.path.join(folder, name)
            digest.update(os.path.relpath(path, W.ROOT).encode() + b"\0")
            with open(path, "rb") as handle:
                digest.update(handle.read())
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_sha": _git_sha(),
        "src_sha256": digest.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def _git_sha() -> str | None:
    """HEAD of the checkout when it is a git work tree, read without running git."""
    git = os.path.join(W.ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref), encoding="utf-8") as handle:
                return handle.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs"), encoding="utf-8") as handle:
                return next(line.split()[0] for line in handle if line.rstrip().endswith(" " + ref))
    except (OSError, StopIteration):
        return None


def report_run(res: W.RunResult) -> None:
    print(f"{res.name}: {res.cycles} cycles, {res.attempted} requests, {res.failed} failed, "
          f"{res.rejected} rejected as expected, repeat share {res.repeats / res.attempted:.3f}")
    speed = statistics.median(res.references_ns) / res.nominal_ns
    timed = end_to_end(res, 0, 0, scaled=False)
    print(f"{res.name}: reference task took {speed:.3f}x its nominal time; as timed, "
          f"latency_ms_p50 = {timed['latency_ms_p50']!r}, latency_ms_p90 = {timed['latency_ms_p90']!r}, "
          f"throughput_per_s = {timed['throughput_per_s']!r}")
    print(f"{res.name}: input_digest {res.input_digest} output_digest {res.output_digest} (first cycle)")
    for defect, count in sorted(res.known.items()):
        print(f"{res.name}: known defect x{count}: {defect}")
    for problem in res.problems[:10]:
        print(f"{res.name}: WRONG {problem}", file=sys.stderr)


def report_metrics(prefix: str, metrics: list[tuple[str, float, str]]) -> None:
    for name, value, unit in metrics:
        print(f"{prefix}{name} = {value!r} {unit}")


def result_line(res: W.RunResult, metrics: dict[str, float], units: dict[str, str]) -> dict:
    return {
        "correct": res.correct,
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }


# ---------------------------------------------------------------------------


def untraced(name: str, seed: int, seconds: float) -> tuple[W.RunResult, dict[str, float]]:
    setup_s = measure_setup()
    res = W.run(W.make(name), seed, seconds)
    return res, end_to_end(res, setup_s, peak_rss_mb(name, False))


def traced(name: str, seed: int, seconds: float) -> tuple[W.RunResult, dict[str, float], Tracer]:
    """The workload untraced and traced, then one traced cycle of each other workload."""
    res, plain = untraced(name, seed, seconds)
    tracer = Tracer(seed)
    tracer.workload = name
    setup_s = measure_setup(tracer)
    res_traced = W.run(W.make(name), seed, seconds, tracer=tracer)
    e2e = end_to_end(res_traced, setup_s, peak_rss_mb(name, True))
    others = [W.run(W.make(other), seed, cycles=1, tracer=tracer) for other in W.WORKLOADS if other != name]
    tracer.workload = name
    measure_floor(tracer)
    verify = run_verify(tracer)
    metrics = layer_metrics(tracer, [res_traced] + others)
    metrics.update(verify)
    metrics["trace.spans"] = len(tracer.spans)
    for metric in END_TO_END:
        metrics[f"trace.overhead.{metric}"] = e2e[metric] - plain[metric]
    for other in others:
        if not other.correct:
            res_traced.problems += other.problems
    return res_traced, metrics, tracer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=tuple(W.WORKLOADS) + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(W.SRC, "weylstrata", "cli.py")):
        print(f"perfbench: no weylstrata package under {W.SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, W.SRC)
    os.makedirs(W.OUT, exist_ok=True)
    print("env " + json.dumps(environment(args), sort_keys=True))

    if args.workload == "all":
        summary = {}
        for name in W.WORKLOADS:
            res, e2e = untraced(name, args.seed, args.seconds)
            report_run(res)
            report_metrics(f"{name}: ", named_metrics(res, e2e))
            summary[name] = result_line(res, e2e, END_TO_END)
        print(json.dumps({"workloads": summary}, sort_keys=True))
        return 0

    if args.trace:
        res, metrics, tracer = traced(args.workload, args.seed, args.seconds)
        path = os.path.join(W.OUT, f"trace-{args.workload}-{args.seed}.ndjson")
        tracer.dump(path)
        report_run(res)
        print(f"spans: {len(tracer.spans)} written to {os.path.relpath(path, W.ROOT)}")
        units = per_layer_units()
    else:
        res, metrics = untraced(args.workload, args.seed, args.seconds)
        report_run(res)
        report_metrics("", named_metrics(res, metrics))
        units = END_TO_END
    print(json.dumps(result_line(res, metrics, units)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
