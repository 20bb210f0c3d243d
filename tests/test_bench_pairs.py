"""scripts/bench_pairs.py: the verdict rule, the spread summary, a failed run and the bytecode count.

The script is loaded by file path, as it is not part of the package.
"""

import importlib.util
import statistics
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"


@pytest.fixture(scope="module")
def bench():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _side(median, q1=None, q3=None):
    return {"median": median, "q1": median if q1 is None else q1, "q3": median if q3 is None else q3}


def test_spread_reads_inclusive_quartiles(bench):
    got = bench.spread([5.0, 1.0, 3.0, 2.0, 4.0])
    assert (got["median"], got["q1"], got["q3"], got["min"], got["max"]) == (3.0, 2.0, 4.0, 1.0, 5.0)
    assert got["runs"] == [5.0, 1.0, 3.0, 2.0, 4.0]
    values = [float(v) for v in range(10)]
    assert bench.spread(values)["median"] == statistics.median(values)


def test_spread_of_one_run(bench):
    assert bench.spread([7.0]) == {"median": 7.0, "q1": 7.0, "q3": 7.0, "min": 7.0, "max": 7.0, "runs": [7.0]}


@pytest.mark.parametrize(
    "parent,change,lower,wins,want",
    [
        # worse by more than the 10% bound wins first, whatever the pairs say
        (_side(100), _side(111), True, 10, "worse"),
        (_side(100), _side(89), False, 10, "worse"),
        # better in 9 of 10 pairs, by more than the parent's quartile spread
        (_side(100, 99, 101), _side(97), True, 9, "better"),
        (_side(100, 99, 101), _side(103), False, 9, "better"),
        # 8 of 10 is not enough, nor a gain inside the parent's quartile spread
        (_side(100, 99, 101), _side(97), True, 8, "unchanged"),
        (_side(100, 97, 103), _side(97), True, 10, "unchanged"),
        # a side whose quartiles spread past the bound leaves it unresolved
        (_side(100, 90, 115), _side(100), True, 5, "unresolved"),
        (_side(100), _side(100, 80, 120), False, 5, "unresolved"),
        (_side(100, 99, 101), _side(100), True, 5, "unchanged"),
    ],
)
def test_verdict(bench, parent, change, lower, wins, want):
    assert bench.verdict(parent, change, lower, 0.1, wins, 10) == want


def _run(value):
    return {
        "attempted": 10,
        "failed": 0,
        "digests": ("a", "b"),
        "metrics": {"throughput_per_s": value},
        "units": {"throughput_per_s": "1/s"},
    }


RULES = {"throughput_per_s": {"name": "throughput_per_s", "better": "higher", "bound": 0.2}}


@pytest.mark.parametrize("ties,want", [(1, "better"), (2, "unchanged")])
def test_ties_count_for_neither_side(bench, ties, want):
    # 10 - ties pairs better, the rest tied: 9 of 10 is better, 8 of 10 is not
    pairs = [(_run(100.0), _run(100.0 if i < ties else 130.0)) for i in range(10)]
    metric = bench.summarise(pairs, RULES)["metrics"]["throughput_per_s"]
    assert metric["change_better_in_pairs"] == f"{10 - ties}/10"
    assert metric["verdict"] == want


def test_a_failed_run_shows_its_stderr(bench, tmp_path):
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text(
        "import sys\nprint('no such workload: nope', file=sys.stderr)\nsys.exit(2)\n"
    )
    with pytest.raises(SystemExit) as stop:
        bench.run_once(str(tmp_path), "nope", 11, 0.1)
    assert "exited with 2" in str(stop.value) and "no such workload: nope" in str(stop.value)


@pytest.mark.parametrize("flag", ["1", None])
def test_bytecode_counts_the_pyc_files_of_each_side(bench, tmp_path, monkeypatch, flag):
    parent, change = tmp_path / "parent", tmp_path / "change"
    cache = parent / "src" / "weylstrata" / "__pycache__"
    cache.mkdir(parents=True)
    (cache / "atlas.cpython-311.pyc").write_bytes(b"")
    (cache.parent / "atlas.py").write_text("")
    (change / "src" / "weylstrata").mkdir(parents=True)
    (change / "src" / "weylstrata" / "atlas.py").write_text("")
    if flag is None:
        monkeypatch.delenv("PYTHONDONTWRITEBYTECODE", raising=False)
    else:
        monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", flag)
    assert bench.bytecode(str(parent), str(change)) == {
        "PYTHONDONTWRITEBYTECODE": flag,
        "pyc_files": {"parent": 1, "change": 0},
    }
