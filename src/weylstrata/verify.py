"""Named verification suites for the package's frozen claims.

Each check re-derives one externally stated fact: a golden table, a
count, an equality of dimension sets, a uniqueness property.  They are
meant to falsify the data or the combinatorics if either is wrong, so a
failing check is an internal consistency failure, not a user error.

Checks are registered in a fixed order; ``run_suite`` executes them and
reports one result per check, with wall-clock time compared against the
stated budget where one applies.  The checks that read the exceptional
tables are passed the atlas, read once before the first check runs from
the file ``run_suite`` is given or else from the packaged file.  A
falsified claim has one channel: a ConsistencyError, raised by the check
itself or by the library under it, becomes that check's FAIL row, and the
other checks still run.  A DomainError, such as an unreadable atlas file,
still propagates.
"""

from __future__ import annotations

import time
from typing import Callable, Optional

from .atlas import EXC_GROUPS, EXC_POSITIVE_ROOTS, load_atlas
from .classical import (
    EigenOrbit,
    GroupDescriptor,
    OrbitKind,
    Series,
    SpectralDatum,
    classify,
    dimension_set,
    enumerate_strata,
    stratum_excess,
)
from .enumeration import enumerate_bipartitions, enumerate_partitions
from .errors import ConsistencyError, DomainError, Record
from .jordan import JordanFamily, _datum, _rewrite, _rule
from .jordan_inverse import _listed_runs, count_jordan, invert_bijection
from .partitions import Partition, n_invariant
from .weyl import WeylSeries, WeylType, strata_fibers, stratum_of_class, enumerate_classes


class CheckResult(Record):
    __slots__ = ("name", "passed", "detail", "seconds", "budget")

    def __init__(self, name: str, passed: bool, detail: str, seconds: float, budget: Optional[float] = None):
        self._fill(name, passed, detail, seconds, budget)

    def line(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        timing = f"{self.seconds:.3f}s"
        if self.budget is not None:
            timing += f" (budget {self.budget:g}s)"
        return f"{verdict} {self.name} [{timing}]: {self.detail}"


# name -> (check, budget, whether the check is passed the atlas)
_CHECKS: dict[str, tuple[Callable[..., str], Optional[float], bool]] = {}


def _check(name: str, budget: Optional[float] = None, reads_atlas: bool = False):
    def register(func: Callable[..., str]):
        _CHECKS[name] = (func, budget, reads_atlas)
        return func

    return register


def check_names() -> tuple[str, ...]:
    return tuple(_CHECKS)


def _run(name: str, atlas) -> CheckResult:
    func, budget, reads_atlas = _CHECKS[name]
    start = time.perf_counter()
    try:
        detail = func(atlas) if reads_atlas else func()
        passed = True
    except ConsistencyError as failure:
        detail = str(failure)
        passed = False
    seconds = time.perf_counter() - start
    if passed and budget is not None and seconds > budget:
        passed = False
        detail += f"; exceeded the {budget:g}s budget"
    return CheckResult(name, passed, detail, seconds, budget)


def run_suite(names=None, data_file: Optional[str] = None) -> tuple[CheckResult, ...]:
    """Run the named checks (default: all) in registration order.

    The checks that read the exceptional tables read them from data_file,
    or by default from the packaged file.  Every name, and the file when a
    named check reads it, is checked before the first check runs, and the
    file is read once.
    """
    if names is None:
        names = check_names()
    try:
        if isinstance(names, str):  # iterates over its letters, not over names
            raise TypeError
        names = tuple(names)
    except TypeError:
        raise DomainError(f"check names must be an iterable of strings, got {names!r}", code="bad_suite") from None
    for name in names:
        if not isinstance(name, str) or name not in _CHECKS:
            raise DomainError(f"unknown check {name!r}; have {', '.join(_CHECKS)}", code="bad_suite")
    atlas = load_atlas(data_file) if any(_CHECKS[name][2] for name in names) else None
    return tuple(_run(name, atlas) for name in names)


def _ensure(condition: bool, message: str) -> None:
    if not condition:
        raise ConsistencyError(message)


# Golden rows: weight-6 symplectic characteristic-2 data against their
# excess-(2, 2) bipartitions, in canonical enumeration order.
GOLDEN_SP2_WEIGHT6 = (
    (((6,), {}), (3,)),
    (((4, 2), {}), (2, 1)),
    (((4, 1, 1), {}), (2, 0, 1)),
    (((3, 3), {}), (1, 2)),
    (((2, 2, 2), {}), (1, 1, 1)),
    (((2, 2, 1, 1), {2: 1}), (1, 1, 0, 1)),
    (((2, 2, 1, 1), {2: 0}), (0, 2, 0, 1)),
    (((2, 1, 1, 1, 1), {}), (1, 0, 1, 0, 1)),
    (((1, 1, 1, 1, 1, 1), {}), (0, 1, 0, 1, 0, 1)),
)

# Weight-8 even orthogonal characteristic-2 data against their
# excess-(0, 4) bipartitions.
GOLDEN_SO2_WEIGHT8 = (
    (((6, 2), {}), (4,)),
    (((4, 4), {4: 1}), (3, 1)),
    (((4, 4), {4: 0}), (2, 2)),
    (((4, 2, 1, 1), {}), (3, 0, 1)),
    (((3, 3, 1, 1), {}), (2, 1, 1)),
    (((2, 2, 2, 2), {2: 1}), (2, 0, 2)),
    (((2, 2, 2, 2), {2: 0}), (1, 1, 1, 1)),
    (((2, 2, 1, 1, 1, 1), {2: 1}), (2, 0, 1, 0, 1)),
    (((2, 2, 1, 1, 1, 1), {2: 0}), (1, 1, 1, 0, 1)),
    (((1, 1, 1, 1, 1, 1, 1, 1), {}), (1, 0, 1, 0, 1, 0, 1)),
)


def _golden(family: JordanFamily, weight: int, table) -> str:
    # The enumerated data are valid by construction, so each is compared with
    # its table row and mapped from the runs it was generated from, under the
    # one rule read for the table.
    listed, rule = _listed_runs(family, weight), _rule(family, weight)
    _ensure(
        len(listed) == len(table),
        f"expected {len(table)} weight-{weight} data, enumerated {len(listed)}",
    )
    for runs, ((parts, labels), want) in zip(listed, table):
        nu = _datum(family, runs)
        row = (nu.parts, dict(nu.labels)) if family.labeled else (nu, {})
        if row != (parts, labels):
            raise ConsistencyError(f"enumeration order differs at {nu}")
        got = _rewrite(rule, runs)
        if tuple(got) != want:
            raise ConsistencyError(f"{family.name} sends {nu} to {tuple(got)}, table says {want}")
    return f"all {len(table)} rows exact, in enumeration order"


@_check("golden-sp2", budget=0.001)
def _check_golden_sp2() -> str:
    """Weight-6 symplectic char-2 golden table, exact."""
    return _golden(JordanFamily.SYMPLECTIC_CHAR2, 6, GOLDEN_SP2_WEIGHT6)


@_check("golden-so2", budget=0.001)
def _check_golden_so2() -> str:
    """Weight-8 even orthogonal char-2 golden table, exact."""
    return _golden(JordanFamily.ORTHOGONAL_CHAR2, 8, GOLDEN_SO2_WEIGHT8)


@_check("bijectivity", budget=10.0)
def _check_bijectivity() -> str:
    """Each family map is a bijection onto its enumerated codomain.

    The enumerated domain must also have as many members as the counting
    programme finds without listing them, and ``invert_bijection`` must send
    each codomain element back to the member whose image it is.
    """
    cases = inverted = 0
    for family in JordanFamily:
        if family is JordanFamily.ORTHOGONAL:
            weights = range(0, 26)
        else:
            weights = range(0, 25, 2)
        for weight in weights:
            rule = _rule(family, weight)
            _, excess, half, _ = rule
            members = _listed_runs(family, weight)
            count = count_jordan(family, weight)
            _ensure(
                len(members) == count,
                f"{family.name} weight {weight}: enumerated {len(members)} members, counted {count}",
            )
            images = [_rewrite(rule, runs) for runs in members]
            _ensure(
                len(set(images)) == len(images),
                f"{family.name} weight {weight}: map is not injective",
            )
            want = enumerate_bipartitions(half, excess)
            _ensure(
                set(images) == set(want),
                f"{family.name} weight {weight}: image has {len(set(images))} of "
                f"{len(want)} codomain elements",
            )
            preimages = dict(zip(images, members))
            for bp in want:
                nu = invert_bijection(family, weight, bp)
                if nu != _datum(family, preimages[bp]):
                    raise ConsistencyError(f"{family.name} weight {weight}: {tuple(bp)} inverts to {nu}")
            cases, inverted = cases + 1, inverted + len(want)
    return (
        f"{cases} family/weight pairs are bijections onto their codomains; "
        f"all {inverted} codomain elements invert to their preimages"
    )


@_check("sp4-strata")
def _check_sp4_strata() -> str:
    """Sp_4 has five strata, dims {8,6,4,4,0}, with the two known dim-4 ones."""
    sp4 = GroupDescriptor(Series.SP, 4)
    strata = enumerate_strata(sp4)
    dims = sorted((s.class_dim for s in strata), reverse=True)
    _ensure(dims == [8, 6, 4, 4, 0], f"Sp_4 dims are {dims}")
    semisimple = classify(
        SpectralDatum(
            sp4,
            [
                EigenOrbit("1", OrbitKind.INVOLUTIVE, Partition([1, 1])),
                EigenOrbit("-1", OrbitKind.INVOLUTIVE, Partition([1, 1])),
            ],
        )
    )
    unipotent = classify(
        SpectralDatum(sp4, [EigenOrbit("1", OrbitKind.INVOLUTIVE, Partition([2, 1, 1]))])
    )
    _ensure(
        semisimple.class_dim == 4 and unipotent.class_dim == 4,
        f"expected class dimension 4 twice, got {semisimple.class_dim} and {unipotent.class_dim}",
    )
    _ensure(
        semisimple.bp != unipotent.bp,
        "the two dimension-4 spectral data landed in one stratum",
    )
    return "5 strata with dims [8, 6, 4, 4, 0]; the two dim-4 strata are distinct"


@_check("dimension-sets", budget=5.0)
def _check_dimension_sets() -> str:
    """Dimension sets from the DP are the listed strata's.

    For rank n <= 20, each series' dimension set, which lists no stratum,
    equals the class dimensions of its enumerated strata.  SO_2n+1 and Sp_2n
    need no comparison of their own: the DP reads only the weight n, the
    excess, (2, 2) for both series, and the positive-root count, n * n for
    both, so their sets are one DP.  Neither depends on the characteristic,
    and ``bijectivity`` shows that the characteristic-2 unipotent classes of
    Sp_2n reach every label, so every value, for n <= 12.
    """
    for n in range(0, 21):
        # GL_n, Sp_2n, SO_2n+1 and SO_2n, in the order of Series
        for group in map(GroupDescriptor, Series, (n, 2 * n, 2 * n + 1, 2 * n)):
            dims = {s.class_dim for s in enumerate_strata(group)}
            _ensure(dimension_set(group) == dims, f"{group.series.value}_{group.dimension}: DP and strata differ")
    return "dimension sets equal the strata's for n <= 20"


@_check("minimal-dimension", budget=2.0)
def _check_minimal_dimension() -> str:
    """The smallest nonzero class dimension of a rank-n stratum is 2n.

    One DP per rank serves Sp_2n and SO_2n+1: both series have excess (2, 2)
    and n * n positive roots, the only inputs of ``dimension_set``.
    """
    for n in range(3, 61):
        nonzero = sorted(d for d in dimension_set(GroupDescriptor(Series.SP, 2 * n)) if d)
        _ensure(
            nonzero and nonzero[0] == 2 * n,
            f"Sp_{2 * n} and SO_{2 * n + 1} rank {n}: minimal nonzero dim {nonzero[:1]} != {2 * n}",
        )
    return "minimal nonzero stratum dimension is 2n for ranks 3 through 60"


@_check("e8-counts", reads_atlas=True)
def _check_e8_counts(atlas) -> str:
    """E8: 75 strata; 70 contain unipotents in char 0, 74 in char 2, 71 in char 3."""
    counts = {
        "rows": len(atlas.rows("E8")),
        0: len(atlas.strata_for_characteristic("E8", 0)),
        2: len(atlas.strata_for_characteristic("E8", 2)),
        3: len(atlas.strata_for_characteristic("E8", 3)),
    }
    want = {"rows": 75, 0: 70, 2: 74, 3: 71}
    _ensure(counts == want, f"E8 counts {counts} != {want}")
    return "75 rows; characteristic 0/2/3 give 70/74/71 strata with unipotents"


@_check("star-inventory", reads_atlas=True)
def _check_star_inventory(atlas) -> str:
    """The starred representations match the recorded per-prime lists."""
    want = {
        "G2": {(1, 3, 3)},
        "F4": {(9, 6, 2), (4, 7, 2), (4, 8, 2), (2, 16, 2)},
        "E6": set(),
        "E7": {(84, 15, 2)},
        "E8": {(1050, 10, 2), (840, 14, 2), (168, 24, 2), (972, 32, 2), (175, 12, 3)},
    }
    for group in EXC_GROUPS:
        got = {(r.rep.d, r.rep.n, r.rep.star) for r in atlas.rows(group) if r.rep.star}
        _ensure(got == want[group], f"{group} starred set is {sorted(got)}")
    return "starred sets exact for all five groups"


@_check("endpoints", reads_atlas=True)
def _check_endpoints(atlas) -> str:
    """A_0 maps to 1_(positive-root count) and the Coxeter class to 1_0."""
    coxeter = {"G2": "G_2", "F4": "F_4", "E6": "E_6", "E7": "E_7", "E8": "E_8"}
    for group in EXC_GROUPS:
        bottom = atlas.rep_of_class(group, "A_0")
        _ensure(
            (bottom.d, bottom.n) == (1, EXC_POSITIVE_ROOTS[group]),
            f"{group}: A_0 maps to {bottom}",
        )
        top = atlas.rep_of_class(group, coxeter[group])
        _ensure((top.d, top.n) == (1, 0), f"{group}: Coxeter class maps to {top}")
    return "both endpoints exact in all five tables"


# B_1..B_10 and D_4..D_10, whose fibers cross-sections lists and whose image surjectivity checks
_SIGNED_TYPES = tuple(WeylType(s, n) for s, lo in ((WeylSeries.B, 1), (WeylSeries.D, 4)) for n in range(lo, 11))


@_check("cross-sections", budget=10.0, reads_atlas=True)
def _check_cross_sections(atlas) -> str:
    """Fixed-space dimension has a unique minimizer on every fiber."""
    rows = 0
    for group in EXC_GROUPS:
        for row in atlas.rows(group):
            atlas.cross_section(group, row.rep)  # raises on a tie
            rows += 1
    # strata_fibers checks the unique minimum inside
    fibers = sum(len(strata_fibers(wt)) for wt in _SIGNED_TYPES)
    fibers += sum(len(strata_fibers(WeylType(WeylSeries.A, n))) for n in range(1, 9))
    return f"unique minimizer on {rows} exceptional rows and {fibers} classical fibers"


@_check("surjectivity")
def _check_surjectivity() -> str:
    """Classical class-to-stratum maps hit every stratum label."""
    for wt in _SIGNED_TYPES:
        got = {stratum_of_class(wt, c) for c in enumerate_classes(wt)}
        want = set(enumerate_bipartitions(wt.rank, stratum_excess(wt.group.series)))
        _ensure(
            got == want,
            f"{wt.series.value}_{wt.rank}: image covers {len(got)} of {len(want)} labels",
        )
    for n in range(1, 9):
        wt = WeylType(WeylSeries.A, n)
        for cls in enumerate_classes(wt):
            _ensure(
                stratum_of_class(wt, cls) == cls,
                f"A_{n}: class {cls} does not map to itself",
            )
    return "B (n<=10) and D (n in 4..10) surject; A (n<=8) is the identity"


@_check("gl-oracle", budget=1.0)
def _check_gl_oracle() -> str:
    """The general-linear dimension formula matches the conjugate-sum oracle."""
    checked = 0
    for n in range(0, 13):
        for part in enumerate_partitions(n):
            expected = sum(c * (c - 1) // 2 for c in part.conjugate())
            got = n_invariant(part, n)
            _ensure(
                got == expected,
                f"partition {tuple(part)}: n-invariant {got} != oracle {expected}",
            )
            checked += 1
    return f"{checked} partitions of n <= 12 agree with the conjugate-sum oracle"
