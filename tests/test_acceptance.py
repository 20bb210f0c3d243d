"""Acceptance suite: one test per named verification check.

Each test runs the corresponding check from weylstrata.verify and prints
its PASS/FAIL line (run pytest with -s or look at captured output), then
asserts the verdict.  Timing budgets are part of the verdict where the
check declares one.
"""

from collections import Counter

import pytest

from weylstrata import jordan, verify, weyl
from weylstrata.atlas import load_atlas
from weylstrata.errors import ConsistencyError, DomainError
from weylstrata.jordan import JordanFamily
from weylstrata.verify import check_names, run_suite
from weylstrata.weyl import WeylSeries


@pytest.mark.parametrize("name", check_names())
def test_acceptance(name):
    (result,) = run_suite((name,))
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
    with pytest.raises(DomainError) as err:
        run_suite(("no-such-check",))
    assert err.value.code == "bad_suite"
    # names that are not an iterable, or not strings, are refused with the same code;
    # a string iterates over its letters, and was refused as "unknown check 'g'"
    for names, message in (
        (2.0, "check names must be an iterable of strings, got 2.0"),
        ([["golden-sp2"]], "unknown check ['golden-sp2']"),
        ([None], "unknown check None"),
        ("golden-sp2", "check names must be an iterable of strings, got 'golden-sp2'"),
    ):
        with pytest.raises(DomainError) as err:
            run_suite(names)
        assert err.value.code == "bad_suite" and str(err.value).startswith(message)


def test_suite_builds_each_signed_fiber_map_once(monkeypatch):
    built = Counter()
    build = weyl.strata_fibers

    def counted(wt):
        built.update([wt])
        return build(wt)

    # both bindings, so a check reaching the maps through weyl is counted too
    monkeypatch.setattr(verify, "strata_fibers", counted)
    monkeypatch.setattr(weyl, "strata_fibers", counted)
    first = run_suite(("cross-sections", "surjectivity"))
    signed = {wt: times for wt, times in built.items() if wt.series is not WeylSeries.A}
    assert len(signed) == 17 and set(signed.values()) == {1}
    # surjectivity reads the image off stratum_of_class and builds no fiber map
    built.clear()
    (surjectivity,) = run_suite(("surjectivity",))
    assert surjectivity.passed and not built
    second = run_suite(("cross-sections", "surjectivity"))
    assert [(r.name, r.passed, r.detail) for r in first] == [(r.name, r.passed, r.detail) for r in second]
    assert all(r.passed for r in first)


# the twelve checks' rows, timings left out
SUITE_ROWS = [
    ("golden-sp2", True, "all 9 rows exact, in enumeration order"),
    ("golden-so2", True, "all 10 rows exact, in enumeration order"),
    (
        "bijectivity",
        True,
        "65 family/weight pairs are bijections onto their codomains; "
        "all 7193 codomain elements invert to their preimages",
    ),
    ("sp4-strata", True, "5 strata with dims [8, 6, 4, 4, 0]; the two dim-4 strata are distinct"),
    ("dimension-sets", True, "dimension sets equal the strata's for n <= 20"),
    ("minimal-dimension", True, "minimal nonzero stratum dimension is 2n for ranks 3 through 60"),
    ("e8-counts", True, "75 rows; characteristic 0/2/3 give 70/74/71 strata with unipotents"),
    ("star-inventory", True, "starred sets exact for all five groups"),
    ("endpoints", True, "both endpoints exact in all five tables"),
    ("cross-sections", True, "unique minimizer on 168 exceptional rows and 1492 classical fibers"),
    ("surjectivity", True, "B (n<=10) and D (n in 4..10) surject; A (n<=8) is the identity"),
    ("gl-oracle", True, "272 partitions of n <= 12 agree with the conjugate-sum oracle"),
]


def test_suite_rows_are_pinned():
    # run_suite() with no names runs every check, in registration order
    assert [(r.name, r.passed, r.detail) for r in run_suite()] == SUITE_ROWS


@pytest.mark.parametrize(
    "row, want, message",
    [
        (
            2,
            (((4, 1, 1), {2: 1}), (2, 0, 1)),
            "enumeration order differs at (4, 1, 1)",
        ),
        (2, (((4, 1, 1), {}), (2, 1)), "SYMPLECTIC_CHAR2 sends (4, 1, 1) to (2, 0, 1), table says (2, 1)"),
    ],
)
def test_golden_refuses_a_perturbed_table(row, want, message):
    table = list(verify.GOLDEN_SP2_WEIGHT6)
    table[row] = want
    with pytest.raises(ConsistencyError) as err:
        verify._golden(JordanFamily.SYMPLECTIC_CHAR2, 6, table)
    assert str(err.value) == message


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


def test_only_the_table_checks_read_the_atlas():
    reading = {name for name, (_, _, reads_atlas) in verify._CHECKS.items() if reads_atlas}
    assert reading == {"e8-counts", "star-inventory", "endpoints", "cross-sections"}


def _perturbed_atlas(tmp_path):
    # the packaged tables less one E8 row: the file still parses, e8-counts fails
    text = load_atlas().text
    path = tmp_path / "atlas.txt"
    path.write_text(text.replace("row|E8|1|120|0|0|A_0|\n", ""), encoding="utf-8")
    return str(path)


def test_run_suite_reads_the_given_atlas_file(tmp_path):
    (failed,) = run_suite(("e8-counts",), data_file=_perturbed_atlas(tmp_path))
    assert not failed.passed and failed.detail.startswith("E8 counts {'rows': 74")
    (passed,) = run_suite(("e8-counts",))
    assert passed.passed


def test_run_suite_reads_the_atlas_only_for_the_table_checks(tmp_path):
    missing = str(tmp_path / "missing.txt")
    (golden,) = run_suite(("golden-sp2",), data_file=missing)
    assert golden.passed
    with pytest.raises(DomainError) as err:
        run_suite(("golden-sp2", "e8-counts"), data_file=missing)
    assert err.value.code == "atlas_io_error" and missing in str(err.value)


def test_run_suite_without_a_file_ignores_the_variable(tmp_path, monkeypatch):
    # WEYLSTRATA_ATLAS names no file: the checks read the packaged one
    perturbed = _perturbed_atlas(tmp_path)
    monkeypatch.setenv("WEYLSTRATA_ATLAS", perturbed)
    (e8,) = run_suite(("e8-counts",))
    assert e8.passed
    (e8,) = run_suite(("e8-counts",), data_file=perturbed)
    assert not e8.passed
