"""Acceptance suite: one test per named verification check.

Each test runs the corresponding check from weylstrata.verify and prints
its PASS/FAIL line (run pytest with -s or look at captured output), then
asserts the verdict.  Timing budgets are part of the verdict where the
check declares one.
"""

from collections import Counter

import pytest

from weylstrata import jordan, verify
from weylstrata.jordan import JordanFamily
from weylstrata.verify import check_names, run_check, run_suite
from weylstrata.weyl import WeylSeries


@pytest.mark.parametrize("name", check_names())
def test_acceptance(name):
    result = run_check(name)
    print(result.line())
    assert result.passed, result.line()


def test_suite_is_complete():
    assert check_names() == (
        "golden-sp2",
        "golden-so2",
        "bijectivity",
        "sp4-strata",
        "dimension-sets",
        "minimal-dimension",
        "e8-counts",
        "star-inventory",
        "endpoints",
        "cross-sections",
        "surjectivity",
        "gl-oracle",
    )


def test_unknown_check_is_rejected():
    from weylstrata.errors import DomainError

    with pytest.raises(DomainError) as err:
        run_check("no-such-check")
    assert err.value.code == "bad_suite"


def test_suite_builds_each_signed_fiber_map_once(monkeypatch):
    built = Counter()
    build = verify.strata_fibers
    monkeypatch.setattr(verify, "strata_fibers", lambda wt: built.update([wt]) or build(wt))
    for _ in range(2):
        assert all(r.passed for r in run_suite(("cross-sections", "surjectivity")))
    signed = {wt for wt in built if wt.series is not WeylSeries.A}
    assert len(signed) == 17
    # shared by the two checks of one suite run, built again by the next run
    assert {built[wt] for wt in signed} == {2}


def test_library_consistency_error_fails_only_its_check(monkeypatch):
    # a broken replacement row makes the library raise under golden-sp2; that
    # check reports it as its FAIL row and the next check still runs
    key = (JordanFamily.SYMPLECTIC_CHAR2, 0)
    excess, offsets = jordan._REPLACEMENTS[key]
    broken = dict(jordan._REPLACEMENTS)
    broken[key] = (excess, {k: (d1 - 5, d2) for k, (d1, d2) in offsets.items()})
    monkeypatch.setattr(jordan, "_REPLACEMENTS", broken)
    golden, e8 = run_suite(("golden-sp2", "e8-counts"))
    assert (golden.name, golden.passed) == ("golden-sp2", False)
    assert "the symplectic_char2 map emitted a negative entry" in golden.detail
    assert (e8.name, e8.passed) == ("e8-counts", True)
