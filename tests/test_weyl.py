import copy
import json
import pickle

import pytest

from weylstrata import weyl
from weylstrata.classical import GroupDescriptor, Series, stratum_of_label
from weylstrata.cli import main
from weylstrata.enumeration import enumerate_bipartitions
from weylstrata.errors import ConsistencyError, DomainError
from weylstrata.jordan import JordanFamily, LabeledPartition, apply_bijection, in_family
from weylstrata.partitions import Bipartition, Partition
from weylstrata.weyl import (
    SignedCycleType,
    WeylSeries,
    WeylType,
    enumerate_classes,
    fixed_space_dim,
    jordan_of_class,
    parse_class,
    stratum_of_class,
    strata_fibers,
    weyl_series_from_name,
)


def wa(n):
    return WeylType(WeylSeries.A, n)


def wb(n):
    return WeylType(WeylSeries.B, n)


def wd(n):
    return WeylType(WeylSeries.D, n)


def sct(pos, neg):
    return SignedCycleType(Partition(pos), Partition(neg))


# ---------------------------------------------------------------------------
# permutation simulator: realize a signed cycle type as a signed permutation
# of {+-1, ..., +-n}, read off its cycles on that set, and decide the label
# of each even value by testing whether some cycle of that length commutes
# with the sign-flip involution.  Used as an independent oracle for
# jordan_of_class on every class of rank at most 4.


def _build_signed_permutation(c):
    w = {}
    next_letter = 1
    for l in c.positive:
        letters = list(range(next_letter, next_letter + l))
        next_letter += l
        for i, a in enumerate(letters):
            b = letters[(i + 1) % l]
            w[a] = b
            w[-a] = -b
    for l in c.negative:
        letters = list(range(next_letter, next_letter + l))
        next_letter += l
        for i, a in enumerate(letters):
            if i + 1 < l:
                w[a] = letters[i + 1]
                w[-a] = -letters[i + 1]
            else:
                w[a] = -letters[0]
                w[-a] = letters[0]
    return w


def _orbits(w):
    seen = set()
    orbits = []
    for start in w:
        if start in seen:
            continue
        orbit = [start]
        seen.add(start)
        x = w[start]
        while x != start:
            orbit.append(x)
            seen.add(x)
            x = w[x]
        orbits.append(orbit)
    return orbits


def _cycle_commutes_with_tau(w, orbit):
    domain = list(w)
    cycle = {x: (w[x] if x in orbit else x) for x in domain}
    return all(cycle[-x] == -cycle[x] for x in domain)


def _simulated_jordan(c):
    w = _build_signed_permutation(c)
    orbits = _orbits(w)
    parts = sorted((len(o) for o in orbits), reverse=True)
    base = Partition(parts)
    labels = {}
    for v in set(parts):
        if v % 2 == 0 and base.count(v) % 2 == 0:
            commuting = any(
                len(o) == v and _cycle_commutes_with_tau(w, o) for o in orbits
            )
            labels[v] = 1 if commuting else 0
    return LabeledPartition(base, labels)


# ---------------------------------------------------------------------------
# types and parsing


def test_weyl_type_validation():
    assert WeylType("C", 3).series is WeylSeries.B
    assert weyl_series_from_name("d") is WeylSeries.D
    for series, rank in ((WeylSeries.A, 0), (WeylSeries.B, -1), (WeylSeries.D, -1)):
        with pytest.raises(DomainError) as err:
            WeylType(series, rank)
        assert err.value.code == "bad_rank"
    with pytest.raises(DomainError):
        weyl_series_from_name("E")
    WeylType(WeylSeries.B, 0)  # trivial group allowed
    WeylType(WeylSeries.D, 2)


@pytest.mark.parametrize("series", list(WeylSeries))
def test_series_members_hash_by_identity(series):
    # Enum equality is identity, so an identity hash agrees with it, and
    # every route to a member is the member itself, which keys _STRATUM_FAMILY
    assert WeylSeries.__hash__ is object.__hash__ and hash(series) == object.__hash__(series)
    assert [other for other in WeylSeries if other == series] == [series]
    routes = [
        WeylSeries(series.value), weyl_series_from_name(series.value), WeylType(series.value, 4).series,
        copy.copy(series), copy.deepcopy(series), pickle.loads(pickle.dumps(series)),
    ]
    for got in routes:
        assert got is series
        assert weyl._STRATUM_FAMILY.get(got) is weyl._STRATUM_FAMILY.get(series)
    assert (series in weyl._STRATUM_FAMILY) == (series is not WeylSeries.A)


@pytest.mark.parametrize(
    "series,rank", [(WeylSeries.B, 2.0), (WeylSeries.A, True), (WeylSeries.D, "4"), (WeylSeries.B, None)]
)
def test_rank_must_be_an_integer(series, rank):
    with pytest.raises(DomainError) as err:
        WeylType(series, rank)
    assert (err.value.code, str(err.value)) == ("bad_rank", f"rank must be an integer, got {rank!r}")


# the classical group whose strata each Weyl type's classes label:
# A_r -> GL_{r+1}, B_r = C_r -> Sp_{2r}, D_r -> SO_{2r}; A_0 is refused
_GROUP_OF_WEYL_TYPE = {
    **{("A", r): ("GL", r + 1) for r in range(1, 7)},
    **{(s, r): ("Sp", 2 * r) for s in "BC" for r in range(7)},
    **{("D", r): ("SO_even", 2 * r) for r in range(7)},
}


@pytest.mark.parametrize("letter,rank", sorted(_GROUP_OF_WEYL_TYPE))
def test_weyl_type_group(capsys, letter, rank):
    series, dimension = _GROUP_OF_WEYL_TYPE[letter, rank]
    assert WeylType(letter, rank).group == GroupDescriptor(Series(series), dimension)
    # phi reports the same group; the class is the identity: rank + 1 fixed
    # points in A, rank positive 1-cycles otherwise
    label = ",".join(["1"] * (rank + 1)) if letter == "A" else ",".join(["1"] * rank) + ";"
    assert main(["phi", "--group", letter, "--rank", str(rank), "--class", label]) == 0
    group = json.loads(capsys.readouterr().out)["payload"]["group"]
    assert (group["series"], group["N"], group["char"]) == (series, dimension, 0)


def _phi_class_text(w, c):
    # the "class" text of phi's payload: "3,1" in type A, "3,1;2" in B/D
    return ",".join(map(str, c)) if w.series is WeylSeries.A else str(c)


_PHI_TYPES = (
    [wa(r) for r in range(1, 7)] + [wb(r) for r in range(1, 7)] + [wd(r) for r in range(2, 7)]
)


@pytest.mark.parametrize("w", _PHI_TYPES, ids=lambda w: f"{w.series.value}{w.rank}")
def test_phi_answers_every_class_as_the_library(capsys, w):
    for c in enumerate_classes(w):
        text = _phi_class_text(w, c)
        assert parse_class(w, text) == c
        argv = ["phi", "--group", w.series.value, "--rank", str(w.rank), "--class", text]
        assert main(argv) == 0
        payload = json.loads(capsys.readouterr().out)["payload"]
        want = stratum_of_label(w.group, stratum_of_class(w, c))
        assert payload["class"] == text
        assert tuple(payload["stratum"]["parts"]) == want.bp
        assert (payload["n_invariant"], payload["class_dim"]) == (want.n_invariant, want.class_dim)
        assert payload["fixed_space_dim"] == fixed_space_dim(w, c)


def test_signed_cycle_type_parse_and_str():
    c = parse_class(wb(6), "3,1;2")
    assert c == sct([3, 1], [2])
    assert str(c) == "3,1;2"
    assert parse_class(wb(0), ";") == sct([], [])
    assert parse_class(wb(3), "2,1;") == sct([2, 1], [])
    assert parse_class(wb(6), "1,3;2") == sct([3, 1], [2])  # sorted on parse
    assert parse_class(wa(2), "2,1") == Partition([2, 1])
    assert parse_class(wa(2), "1,2") == Partition([2, 1])  # type A sorts too
    assert parse_class(wa(3), " 1, 3 ") == Partition([3, 1])
    refusals = [
        (wb(4), "3,1", "parse_error"),
        (wb(4), "a;b", "parse_error"),
        (wb(3), "2,,1;", "parse_error"),
        (wa(2), "2,,1", "parse_error"),
        (wa(2), ",2,1,", "parse_error"),
        (wa(2), "2;1", "parse_error"),
        (wa(2), "x", "parse_error"),
        (wa(3), "-1,4", "bad_class"),
        (wb(3), "-1,4;", "bad_class"),
        (wa(2), "3,0", "bad_class"),
        (wa(2), "", "bad_class"),  # no cycles: weight 0, not 3
        (wa(2), "2,2", "bad_class"),
        (wd(4), "2;2", "bad_class"),
    ]
    for w, text, code in refusals:
        with pytest.raises(DomainError) as err:
            parse_class(w, text)
        assert err.value.code == code, (w, text)


# ---------------------------------------------------------------------------
# class enumeration


def test_enumerate_classes_type_a():
    assert enumerate_classes(wa(2)) == ((3,), (2, 1), (1, 1, 1))


def test_enumerate_classes_type_b_counts():
    # pairs of partitions with total weight n
    assert len(enumerate_classes(wb(2))) == 5
    assert len(enumerate_classes(wb(3))) == 10
    assert len(enumerate_classes(wb(4))) == 20
    assert enumerate_classes(wb(0)) == (sct([], []),)


def test_enumerate_classes_type_d_counts():
    # even number of negative cycles (unsplit representation)
    assert len(enumerate_classes(wd(4))) == 11
    assert len(enumerate_classes(wd(2))) == 3
    for c in enumerate_classes(wd(6)):
        assert len(c.negative) % 2 == 0


def test_enumerate_classes_equals_the_validating_constructor():
    # the listing fills its records through their slot setters
    for w in [wb(n) for n in range(0, 9)] + [wd(n) for n in range(0, 9)]:
        for c in enumerate_classes(w):
            assert type(c.positive) is Partition and type(c.negative) is Partition
            built = SignedCycleType(list(c.positive), list(c.negative))
            assert built == c and hash(built) == hash(c) and repr(built) == repr(c)


def test_enumerate_classes_ranks():
    for w in [wb(5), wd(6)]:
        for c in enumerate_classes(w):
            assert c.rank == w.rank


# ---------------------------------------------------------------------------
# the labeled Jordan type of a class


def test_jordan_of_class_examples():
    assert jordan_of_class(sct([1, 1], [])) == LabeledPartition([1, 1, 1, 1], {})
    assert jordan_of_class(sct([], [1, 1])) == LabeledPartition([2, 2], {2: 1})
    assert jordan_of_class(sct([2], [])) == LabeledPartition([2, 2], {2: 0})
    assert jordan_of_class(sct([1], [1])) == LabeledPartition([2, 1, 1], {})
    assert jordan_of_class(sct([], [2])) == LabeledPartition([4], {})
    assert jordan_of_class(sct([2], [1, 1])) == LabeledPartition([2, 2, 2, 2], {2: 1})


def test_jordan_of_class_matches_permutation_simulator():
    for n in range(1, 5):
        for c in enumerate_classes(wb(n)):
            assert jordan_of_class(c) == _simulated_jordan(c), str(c)


def test_jordan_of_class_lands_in_the_right_families():
    for n in range(1, 9):
        for c in enumerate_classes(wb(n)):
            nu = jordan_of_class(c)
            assert nu.weight == 2 * n
            assert in_family(JordanFamily.SYMPLECTIC_CHAR2, nu)
        for c in enumerate_classes(wd(n)):
            assert in_family(JordanFamily.ORTHOGONAL_CHAR2, jordan_of_class(c))


# ---------------------------------------------------------------------------
# the stratum map


def test_stratum_of_class_type_a_is_identity():
    for n in range(1, 9):
        for c in enumerate_classes(wa(n)):
            assert stratum_of_class(wa(n), c) == Bipartition(c)


def test_stratum_of_class_b2_examples():
    assert stratum_of_class(wb(2), sct([], [2])) == (2,)
    assert stratum_of_class(wb(2), sct([1, 1], [])) == (0, 1, 0, 1)
    assert stratum_of_class(wb(2), sct([], [1, 1])) == (1, 1)
    assert stratum_of_class(wb(2), sct([2], [])) == (0, 2)
    assert stratum_of_class(wb(2), sct([1], [1])) == (1, 0, 1)


def test_stratum_map_is_bijective_for_b2():
    fibers = strata_fibers(wb(2))
    assert len(fibers) == 5
    assert all(len(f.classes) == 1 for f in fibers.values())


def _validated_jordan(c):
    # the Jordan type of c built through the validating constructor
    parts = sorted([l for l in c.positive for _ in (0, 1)] + [2 * l for l in c.negative], reverse=True)
    labels = {
        v: int(v // 2 in c.negative) for v in set(parts) if v % 2 == 0 and parts.count(v) % 2 == 0
    }
    return LabeledPartition(parts, labels)


def test_stratum_of_class_matches_the_validated_path():
    for n in range(1, 10):
        for w, family in (
            (wb(n), JordanFamily.SYMPLECTIC_CHAR2),
            (wd(n), JordanFamily.ORTHOGONAL_CHAR2),
        ):
            for c in enumerate_classes(w):
                nu = _validated_jordan(c)
                assert jordan_of_class(c) == nu, str(c)
                assert stratum_of_class(w, c) == apply_bijection(family, nu), str(c)
            for bp, fiber in strata_fibers(w).items():
                assert all(stratum_of_class(w, c) == bp for c in fiber.classes)


def test_strata_fibers_keeps_the_tie_check(monkeypatch):
    # listing every class twice puts a tie at the minimum of every fiber
    classes = enumerate_classes(wd(4))
    monkeypatch.setattr(weyl, "enumerate_classes", lambda w: classes + classes)
    with pytest.raises(ConsistencyError, match="cross-section not unique") as err:
        strata_fibers(wd(4))
    assert err.value.code == "cross_section_tie"


def _oracle_fibers(w):
    # the fibers built class by class from the public point query
    grouped = {}
    for c in enumerate_classes(w):
        grouped.setdefault(stratum_of_class(w, c), []).append(c)
    return {bp: grouped[bp] for bp in sorted(grouped, reverse=True)}


def test_strata_fibers_match_the_class_by_class_oracle():
    for w in [wa(n) for n in range(1, 9)] + [f(n) for f in (wb, wd) for n in range(13)]:
        fibers, oracle = strata_fibers(w), _oracle_fibers(w)
        assert list(fibers) == list(oracle), w
        for bp, classes in oracle.items():
            fiber = fibers[bp]
            assert type(fiber) is weyl.ClassFiber and fiber.classes == tuple(classes), (w, bp)
            dims = [fixed_space_dim(w, c) for c in classes]
            assert dims.count(min(dims)) == 1, (w, bp)
            assert fiber.cross_section == classes[dims.index(min(dims))], (w, bp)


def test_strata_fibers_rewrite_each_jordan_type_once(monkeypatch):
    calls = []
    rewrite = weyl._rewrite

    def counted(rule, runs):
        calls.append(runs)
        return rewrite(rule, runs)

    monkeypatch.setattr(weyl, "_rewrite", counted)
    for w, classes, fibers in ((wb(12), 1165, 800), (wd(12), 588, 408)):
        calls.clear()
        assert len(enumerate_classes(w)) == classes
        assert len(strata_fibers(w)) == fibers == len(calls) == len(set(calls)), w


def test_strata_fibers_refuse_two_jordan_types_with_one_label(monkeypatch):
    monkeypatch.setattr(weyl, "_rewrite", lambda rule, runs: tuple.__new__(Bipartition, (2,)))
    with pytest.raises(ConsistencyError, match=r"classes 2; and 1,1; of .* differ in Jordan type but map to \(2,\)$") as err:
        strata_fibers(wb(2))
    assert err.value.code == "consistency_error"


def test_stratum_of_class_rejects_mismatches():
    mismatches = [
        (wb(3), sct([2], [])),  # rank 2 vs 3
        (wd(3), sct([2], [1])),  # odd number of negative cycles
        (wa(2), sct([3], [])),
        (wb(2), Partition([2])),
        (wa(2), Partition([2, 1, 1])),  # weight 4 != 3
    ]
    for w, c in mismatches:
        for query in (stratum_of_class, fixed_space_dim):
            with pytest.raises(DomainError) as err:
                query(w, c)
            assert err.value.code == "bad_class", (w, c)


def test_stratum_map_surjectivity():
    for n in range(1, 7):
        image = {stratum_of_class(wb(n), c) for c in enumerate_classes(wb(n))}
        assert image == set(enumerate_bipartitions(n, (2, 2)))
    for n in range(4, 7):
        image = {stratum_of_class(wd(n), c) for c in enumerate_classes(wd(n))}
        assert image == set(enumerate_bipartitions(n, (0, 4)))
    for n in range(1, 9):
        image = {stratum_of_class(wa(n), c) for c in enumerate_classes(wa(n))}
        assert image == set(enumerate_bipartitions(n + 1, (0, 0)))


# ---------------------------------------------------------------------------
# fixed-space dimension and cross-sections


def test_fixed_space_dim():
    assert fixed_space_dim(wa(3), Partition([2, 1, 1])) == 2
    assert fixed_space_dim(wa(3), Partition([4])) == 0
    assert fixed_space_dim(wb(3), sct([2, 1], [])) == 2
    assert fixed_space_dim(wb(3), sct([], [3])) == 0
    assert fixed_space_dim(wd(4), sct([1, 1], [1, 1])) == 2


def test_fixed_space_dim_is_rank_only_on_identity():
    for w in [wa(4), wb(4), wd(4)]:
        classes = enumerate_classes(w)
        tops = [c for c in classes if fixed_space_dim(w, c) == w.rank]
        if w.series is WeylSeries.A:
            assert tops == [Partition([1] * (w.rank + 1))]
        else:
            assert tops == [sct([1] * w.rank, [])]


def test_cross_sections_unique_and_minimal():
    for w in [wb(2), wb(3), wb(4), wb(5), wb(6), wd(4), wd(5), wd(6), wa(5)]:
        fibers = strata_fibers(w)
        for bp, fiber in fibers.items():
            m0 = fixed_space_dim(w, fiber.cross_section)
            others = [c for c in fiber.classes if c != fiber.cross_section]
            assert all(fixed_space_dim(w, c) > m0 for c in others)


def test_fiber_counts_match_stratum_counts():
    for n in range(1, 7):
        assert len(strata_fibers(wb(n))) == len(enumerate_bipartitions(n, (2, 2)))
    for n in range(4, 7):
        assert len(strata_fibers(wd(n))) == len(enumerate_bipartitions(n, (0, 4)))


def test_d4_collision_fiber():
    # two D_4 classes share the Jordan type (2,2,2,2) with label 1; the one
    # with no positive cycles is the cross-section
    fibers = strata_fibers(wd(4))
    target = stratum_of_class(wd(4), sct([], [1, 1, 1, 1]))
    fiber = fibers[target]
    assert set(fiber.classes) == {sct([], [1, 1, 1, 1]), sct([2], [1, 1])}
    assert fiber.cross_section == sct([], [1, 1, 1, 1])


def test_coxeter_class_maps_to_top_stratum():
    for n in range(2, 7):
        assert stratum_of_class(wb(n), sct([], [n])) == (n,)
