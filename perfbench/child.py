"""Fresh-process probes run by the benchmark, one per invocation.

    python3 perfbench/child.py setup
        import weylstrata.cli and load the atlas, as every CLI process starts
    python3 perfbench/child.py cli ATLAS ARGV...
        one CLI request with its import, atlas load (ATLAS=1) and main() timed,
        and its peak resident memory; stdout and the exit code are those of
        `python -m weylstrata.cli ARGV...`
    python3 perfbench/child.py verify
        the library's verification suite
    python3 perfbench/child.py rss WORKLOAD TRACE
        the first cycle of an in-process workload with seed 0, answers
        dropped as they come, then the peak resident memory

Each probe reports its spans on stderr as one line `PERFBENCH {json}`, with
start and end on the parent's monotonic clock.  The library is found on
PYTHONPATH, which the benchmark sets to the checkout's src directory.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter_ns

MARK = "PERFBENCH "


def _peak_rss_kb() -> int:
    """High-water resident memory of this process since exec.

    ru_maxrss would also count the parent's pages that the fork copied.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _report(**record) -> None:
    sys.stderr.write(MARK + json.dumps(record) + "\n")
    sys.stderr.flush()


def _timed(spans, name, fn, *args):
    start = perf_counter_ns()
    try:
        return fn(*args)
    finally:
        spans.append([name, start, perf_counter_ns()])


def _import_cli():
    import weylstrata.cli

    return weylstrata.cli


def _load_atlas():
    from weylstrata.atlas import load_atlas

    return load_atlas()


def setup() -> int:
    spans: list = []
    _timed(spans, "cli.import", _import_cli)
    _timed(spans, "atlas.load_atlas", _load_atlas)
    _report(spans=spans)
    return 0


def cli(atlas: str, argv: list[str]) -> int:
    spans: list = []
    try:
        cli_module = _timed(spans, "cli.import", _import_cli)
        if atlas == "1":
            _timed(spans, "atlas.load_atlas", _load_atlas)
        return _timed(spans, "cli.main", cli_module.main, argv)
    finally:
        sys.stdout.flush()
        _report(spans=spans, maxrss_kb=_peak_rss_kb())


def verify() -> int:
    spans: list = []
    from weylstrata.verify import run_suite

    results = _timed(spans, "verify.run_suite", run_suite)
    checks = [{"name": r.name, "passed": r.passed, "detail": r.detail} for r in results]
    _report(spans=spans, checks=checks)
    return 0


def rss(workload: str, trace: str) -> int:
    import workloads
    from spans import NullTracer, Tracer

    tracer = Tracer(0) if trace == "1" else NullTracer()
    wl = workloads.make(workload)
    wl.prepare()
    for op in wl.cycle(0, 0):
        wl.execute(op, tracer)
    _report(maxrss_kb=_peak_rss_kb())
    return 0


if __name__ == "__main__":
    mode, args = sys.argv[1], sys.argv[2:]
    if mode == "cli":
        sys.exit(cli(args[0], args[1:]))
    sys.exit({"setup": setup, "verify": verify, "rss": rss}[mode](*args))
