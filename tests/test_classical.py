import random
import time
from functools import reduce
from math import comb

import pytest

from weylstrata.atlas import load_atlas
from weylstrata.classical import (
    EigenOrbit,
    GroupDescriptor,
    OrbitKind,
    Series,
    SpectralDatum,
    classify,
    dimension_set,
    enumerate_strata,
    positive_roots,
    series_from_name,
    stratum_excess,
    stratum_of_label,
)
from weylstrata import classical
from weylstrata.enumeration import enumerate_bipartitions, enumerate_partitions
from weylstrata.errors import ConsistencyError, DomainError
from weylstrata.jordan import JordanFamily, LabeledPartition, apply_bijection
from weylstrata.jordan_inverse import enumerate_jordan
from weylstrata.partitions import Bipartition, Partition, bp_sum, n_invariant

GEN = OrbitKind.GENERIC
INV = OrbitKind.INVOLUTIVE


def gl(n, char=0):
    return GroupDescriptor(Series.GL, n, char)


def sp(N, char=0):
    return GroupDescriptor(Series.SP, N, char)


def so_odd(N, char=0):
    return GroupDescriptor(Series.SO_ODD, N, char)


def so_even(N, char=0):
    return GroupDescriptor(Series.SO_EVEN, N, char)


# ---------------------------------------------------------------------------
# descriptors and root counts


def test_group_descriptor_validation():
    assert GroupDescriptor("Sp", 4).series is Series.SP
    assert series_from_name("so_even") is Series.SO_EVEN
    with pytest.raises(DomainError):
        GroupDescriptor(Series.SP, 5)
    with pytest.raises(DomainError):
        GroupDescriptor(Series.SO_ODD, 4)
    with pytest.raises(DomainError):
        GroupDescriptor(Series.SO_EVEN, 7)
    with pytest.raises(DomainError):
        GroupDescriptor(Series.GL, 3, 4)  # 4 is not a characteristic
    GroupDescriptor(Series.GL, 3, 7)  # odd primes fine


@pytest.mark.parametrize(
    "series,dimension,message",
    [
        (Series.SP, 5, "Sp needs even dimension, got 5"),
        (Series.SO_ODD, 6, "SO_odd needs odd dimension, got 6"),
        (Series.SO_EVEN, 7, "SO_even needs even dimension, got 7"),
        (Series.SP, -2, "dimension must be nonnegative, got -2"),
        # a dimension is an int and not a bool
        (Series.SP, 4.0, "dimension must be an integer, got 4.0"),
        (Series.GL, True, "dimension must be an integer, got True"),
        (Series.SP, "4", "dimension must be an integer, got '4'"),
        (Series.SO_ODD, None, "dimension must be an integer, got None"),
    ],
)
def test_parity_refusal_messages(series, dimension, message):
    with pytest.raises(DomainError) as err:
        GroupDescriptor(series, dimension)
    assert err.value.code == "bad_dimension"
    assert str(err.value) == message


def _accepted(char, check):
    try:
        check(char)
    except DomainError as err:
        assert err.code == "bad_characteristic"
        return False
    return True


def test_characteristic_primality():
    start = time.perf_counter()
    assert _accepted(2**61 - 1, lambda p: gl(3, p))  # used to hang in trial division
    assert time.perf_counter() - start < 1.0
    for composite in (561, 1000000000001, 4):
        assert not _accepted(composite, lambda p: gl(3, p))
    # a composite that passes Miller-Rabin for the first twelve prime bases
    assert not _accepted(318665857834031151167461, lambda p: gl(3, p))
    # at and above the bound of exactness the answer is refused, not guessed
    assert not _accepted(3317044064679887385961981, lambda p: gl(3, p))


def test_characteristic_checks_agree():
    for p in range(0, 2001):
        on_group = _accepted(p, lambda c: gl(3, c))
        on_atlas = _accepted(p, lambda c: load_atlas().strata_for_characteristic("G2", c))
        assert on_group == on_atlas, p
        assert on_group == (p == 0 or (p >= 2 and all(p % q for q in range(2, p)))), p


@pytest.mark.parametrize("char", [2.0, True, "2", None])
def test_characteristic_must_be_an_integer(char):
    with pytest.raises(DomainError) as err:
        GroupDescriptor(Series.SP, 4, char)
    assert (err.value.code, str(err.value)) == (
        "bad_characteristic", f"characteristic must be an integer, got {char!r}"
    )


def test_positive_roots():
    assert positive_roots(gl(3)) == 3
    assert positive_roots(gl(1)) == 0
    assert positive_roots(sp(4)) == 4
    assert positive_roots(so_odd(5)) == 4
    assert positive_roots(sp(8)) == 16
    assert positive_roots(so_even(8)) == 12
    assert positive_roots(so_even(2)) == 0


def test_rank_half():
    assert gl(3).rank_half == 3
    assert sp(6).rank_half == 3
    assert so_odd(7).rank_half == 3
    assert so_even(8).rank_half == 4


# ---------------------------------------------------------------------------
# spectral datum validation


def test_spectral_datum_bookkeeping():
    with pytest.raises(DomainError):
        SpectralDatum(sp(4), [EigenOrbit("1", INV, Partition([1, 1]))])  # sums to 2
    with pytest.raises(DomainError):
        SpectralDatum(gl(3), [EigenOrbit("x", GEN, Partition([2]))])  # sums to 2
    with pytest.raises(DomainError):
        SpectralDatum(
            sp(4),
            [EigenOrbit("x", GEN, Partition([1])), EigenOrbit("x", GEN, Partition([1]))],
        )  # duplicate ids


def test_spectral_datum_family_checks():
    # eigenvalue 1 of Sp away from characteristic 2 needs a symplectic Jordan type
    with pytest.raises(DomainError):
        SpectralDatum(sp(4), [EigenOrbit("1", INV, Partition([3, 1]))])
    # and a labeled one in characteristic 2
    with pytest.raises(DomainError):
        SpectralDatum(sp(4, 2), [EigenOrbit("1", INV, Partition([2, 2]))])
    SpectralDatum(sp(4, 2), [EigenOrbit("1", INV, LabeledPartition([2, 2], {2: 0}))])
    # -1 does not exist in characteristic 2
    with pytest.raises(DomainError):
        SpectralDatum(
            sp(4, 2),
            [EigenOrbit("-1", INV, LabeledPartition([2, 2], {2: 0}))],
        )
    # GL data is generic only
    with pytest.raises(DomainError):
        SpectralDatum(gl(2), [EigenOrbit("1", INV, Partition([1, 1]))])
    # eigenvalue 1 of an odd orthogonal group has odd weight
    with pytest.raises(DomainError):
        SpectralDatum(
            so_odd(5),
            [
                EigenOrbit("1", INV, Partition([1, 1])),
                EigenOrbit("-1", INV, Partition([3])),
            ],
        )


@pytest.mark.parametrize(
    "group,orbits,code,message",
    [
        (
            sp(4),
            [EigenOrbit("x", GEN, Partition([1])), EigenOrbit("x", GEN, Partition([1]))],
            "bad_orbit",
            "orbit ids must be distinct, got ['x', 'x']",
        ),
        (
            gl(3),
            [EigenOrbit("x", GEN, Partition([1])), EigenOrbit("1", INV, Partition([1, 1]))],
            "bad_orbit",
            "GL spectral data uses only generic orbits",
        ),
        (
            sp(4, 2),
            [EigenOrbit("-1", INV, LabeledPartition([2, 2], {2: 0}))],
            "bad_orbit",
            "the eigenvalue -1 does not exist in characteristic 2",
        ),
        (
            sp(4),
            [EigenOrbit("1", INV, Partition([3, 1]))],
            "not_in_family",
            "involutive orbit '1': Jordan type (3, 1) is not in the symplectic family",
        ),
        (
            so_odd(5),
            [EigenOrbit("1", INV, Partition([1, 1])), EigenOrbit("-1", INV, Partition([3]))],
            "bad_parity",
            "involutive orbit '1' of SO_odd must have odd weight, got 2",
        ),
        (
            so_odd(5),
            [EigenOrbit("-1", INV, Partition([3])), EigenOrbit("1", INV, Partition([1, 1]))],
            "bad_parity",
            "involutive orbit '-1' of SO_odd must have even weight, got 3",
        ),
        (
            so_even(4),
            [EigenOrbit("1", INV, Partition([3])), EigenOrbit("-1", INV, Partition([1]))],
            "bad_parity",
            "involutive orbit '1' of SO_even must have even weight, got 3",
        ),
        (
            gl(3),
            [EigenOrbit("x", GEN, Partition([4, 1]))],
            "bookkeeping",
            "orbit weights account for dimension 5, expected 3",
        ),
        (
            sp(4),
            [EigenOrbit("1", INV, Partition([1, 1]))],
            "bookkeeping",
            "orbit weights account for dimension 2, expected 4",
        ),
        # arguments of the wrong type are refused with a code, not an AttributeError
        ("sp4", [], "bad_group", "the group must be a GroupDescriptor, got 'sp4'"),
        (sp(2), [3], "bad_orbit", "orbits must be EigenOrbit records, got 3"),
    ],
)
def test_spectral_datum_refusals(group, orbits, code, message):
    with pytest.raises(DomainError) as err:
        SpectralDatum(group, orbits)
    assert (err.value.code, str(err.value)) == (code, message)


@pytest.mark.parametrize(
    "ident,kind,jordan,message",
    [
        # a kind that is not an OrbitKind was accepted, then refused as a GL misfit
        ("x", "generic", Partition([1]), "orbit kind must be an OrbitKind, got 'generic'"),
        ("x", None, Partition([1]), "orbit kind must be an OrbitKind, got None"),
        (
            "1",
            INV,
            [2, 1, 1],
            "involutive Jordan types are Partition or LabeledPartition records, got [2, 1, 1]",
        ),
        ("-1", INV, None, "involutive Jordan types are Partition or LabeledPartition records, got None"),
        ("x", GEN, [1], "generic orbits carry a plain partition Jordan type"),
    ],
)
def test_eigen_orbit_refusals(ident, kind, jordan, message):
    with pytest.raises(DomainError) as err:
        EigenOrbit(ident, kind, jordan)
    assert (err.value.code, str(err.value)) == ("bad_orbit", message)


def test_eigen_orbit_validation():
    with pytest.raises(DomainError):
        EigenOrbit("q", INV, Partition([1]))  # involutive ids are 1 / -1
    with pytest.raises(DomainError):
        EigenOrbit("1", GEN, Partition([1]))  # generic ids must differ from them
    with pytest.raises(DomainError):
        EigenOrbit("x", GEN, Partition())  # empty Jordan type
    with pytest.raises(DomainError) as err:
        EigenOrbit("", GEN, Partition([1]))
    assert (err.value.code, str(err.value)) == ("bad_orbit", "orbit id must be a nonempty string, got ''")
    with pytest.raises(DomainError) as err:
        EigenOrbit("x", GEN, LabeledPartition([2, 2], {2: 0}))
    assert (err.value.code, str(err.value)) == ("bad_orbit", "generic orbits carry a plain partition Jordan type")


# ---------------------------------------------------------------------------
# classify: worked examples


def test_classify_gl_regular():
    datum = SpectralDatum(
        gl(3),
        [EigenOrbit("x", GEN, Partition([2])), EigenOrbit("y", GEN, Partition([1]))],
    )
    res = classify(datum)
    assert res.bp == (3,)
    assert res.n_invariant == 0
    assert res.class_dim == 6
    assert res.pair_degenerate is None


def test_classify_sp4_two_strata_same_dimension():
    a = classify(
        SpectralDatum(
            sp(4),
            [
                EigenOrbit("1", INV, Partition([1, 1])),
                EigenOrbit("-1", INV, Partition([1, 1])),
            ],
        )
    )
    b = classify(SpectralDatum(sp(4), [EigenOrbit("1", INV, Partition([2, 1, 1]))]))
    assert a.bp == (0, 2) and a.class_dim == 4
    assert b.bp == (1, 0, 1) and b.class_dim == 4
    assert a.bp != b.bp


def test_classify_so5():
    res = classify(
        SpectralDatum(
            so_odd(5),
            [
                EigenOrbit("1", INV, Partition([1])),
                EigenOrbit("-1", INV, Partition([1, 1, 1, 1])),
            ],
        )
    )
    assert res.bp == (1, 0, 1)
    assert res.class_dim == 4


def test_classify_mixed_generic_and_involutive():
    # Sp_8: a generic pair with Jordan type (2) and unipotent part (2,1,1) at 1
    res = classify(
        SpectralDatum(
            sp(8),
            [
                EigenOrbit("q", GEN, Partition([2])),
                EigenOrbit("1", INV, Partition([2, 1, 1])),
            ],
        )
    )
    # (2) + (1,0,1) entrywise
    assert res.bp == (3, 0, 1)
    assert res.n_invariant == n_invariant(Bipartition([3, 0, 1]), 4)
    assert res.class_dim == 2 * 16 - 2 * res.n_invariant


def test_classify_tests_membership_once(monkeypatch):
    # validation tests each involutive orbit and reads its rule; classify
    # rewrites the runs it kept under the rule it kept
    calls, rules = [], []
    member, rule = classical._runs_if_member, classical._rule
    monkeypatch.setattr(classical, "_runs_if_member", lambda *args: calls.append(args) or member(*args))
    monkeypatch.setattr(classical, "_rule", lambda *args: rules.append(args) or rule(*args))
    datum = SpectralDatum(
        sp(8),
        [EigenOrbit("1", INV, Partition([2, 1, 1])), EigenOrbit("-1", INV, Partition([2, 2]))],
    )
    assert len(calls) == 2
    assert rules == [(JordanFamily.SYMPLECTIC, 4), (JordanFamily.SYMPLECTIC, 4)]
    assert classify(datum).bp == (2, 1, 1)
    assert len(calls) == 2 and len(rules) == 2


def test_classify_refuses_a_sum_that_is_no_bipartition(monkeypatch):
    # the sum of bipartitions is one; a rewrite that broke that claim
    # surfaces as a ConsistencyError, not as a label
    monkeypatch.setattr(classical, "_rewrite", lambda rule, runs: tuple.__new__(Bipartition, (1, 0, 3)))
    datum = SpectralDatum(sp(8), [EigenOrbit("1", INV, Partition([2, 2])), EigenOrbit("x0", GEN, Partition([1, 1]))])
    with pytest.raises(ConsistencyError, match=r"add up to \(2, 1, 3\), not a bipartition") as err:
        classify(datum)
    assert err.value.code == "consistency_error"


def test_classify_sp_char2_identity():
    res = classify(
        SpectralDatum(
            sp(6, 2), [EigenOrbit("1", INV, LabeledPartition([1] * 6, {}))]
        )
    )
    assert res.bp == (0, 1, 0, 1, 0, 1)
    assert res.class_dim == 0


def test_classify_so_even_char0_and_degeneracy():
    res = classify(
        SpectralDatum(so_even(8), [EigenOrbit("1", INV, Partition([1] * 8))])
    )
    assert res.bp == (1, 0, 1, 0, 1, 0, 1)
    assert res.class_dim == 0
    assert res.pair_degenerate is False
    res2 = classify(
        SpectralDatum(so_even(8), [EigenOrbit("1", INV, Partition([2, 2, 2, 2]))])
    )
    assert res2.bp == (1, 1, 1, 1)
    assert res2.pair_degenerate is True


def test_classify_so_odd_char2_delegates():
    # spectral data are those of the symplectic group one dimension down
    datum = SpectralDatum(
        so_odd(7, 2), [EigenOrbit("1", INV, LabeledPartition([2, 2, 1, 1], {2: 1}))]
    )
    res = classify(datum)
    twin = classify(
        SpectralDatum(sp(6, 2), [EigenOrbit("1", INV, LabeledPartition([2, 2, 1, 1], {2: 1}))])
    )
    assert (res.bp, res.n_invariant, res.class_dim) == (twin.bp, twin.n_invariant, twin.class_dim)
    assert res.pair_degenerate is None
    with pytest.raises(DomainError):
        SpectralDatum(so_odd(7, 2), [EigenOrbit("1", INV, Partition([7]))])


def _outcome(group, orbits):
    # the stratum, or the code and message of the refusal
    try:
        return classify(SpectralDatum(group, orbits))
    except DomainError as exc:
        return exc.code, str(exc)


@pytest.mark.parametrize(
    "orbits,refusal",
    [
        ([EigenOrbit("1", INV, LabeledPartition([2, 2, 1, 1], {2: 1}))], None),
        ([EigenOrbit("1", INV, LabeledPartition([1] * 6, {}))], None),
        (
            [EigenOrbit("1", INV, LabeledPartition([2, 2], {2: 0})), EigenOrbit("a", GEN, Partition([1]))],
            None,
        ),
        ([EigenOrbit("a", GEN, Partition([2, 1]))], None),
        (
            [EigenOrbit("1", INV, LabeledPartition([1, 1], {})), EigenOrbit("-1", INV, LabeledPartition([2, 2], {2: 1}))],
            "does not exist in characteristic 2",
        ),
        ([EigenOrbit("1", INV, Partition([2, 2, 1, 1]))], "not in the symplectic_char2 family"),
        ([EigenOrbit("1", INV, LabeledPartition([3, 3], {}))], None),
        ([EigenOrbit("a", GEN, Partition([2])), EigenOrbit("a", GEN, Partition([1]))], "must be distinct"),
        ([EigenOrbit("1", INV, LabeledPartition([2, 2, 1, 1, 1, 1], {2: 1}))], "expected 6"),
        ([], "expected 6"),
    ],
)
def test_so_odd_char2_answers_as_sp_one_dimension_down(orbits, refusal):
    # SO_7 in characteristic 2 gives the strata and the refusals of Sp_6 there
    got, twin = _outcome(so_odd(7, 2), orbits), _outcome(sp(6, 2), orbits)
    assert got == twin
    if refusal is None:
        assert got.pair_degenerate is None
    else:
        assert refusal in got[1]


# ---------------------------------------------------------------------------
# enumerate_strata and dimension sets


def test_enumerate_strata_sp4():
    strata = enumerate_strata(sp(4))
    assert [tuple(s.bp) for s in strata] == [
        (2,),
        (1, 1),
        (1, 0, 1),
        (0, 2),
        (0, 1, 0, 1),
    ]
    assert [s.class_dim for s in strata] == [8, 6, 4, 4, 0]


def test_enumerate_strata_gl():
    strata = enumerate_strata(gl(2))
    assert {s.class_dim for s in strata} == {2, 0}
    strata3 = enumerate_strata(gl(3))
    assert [tuple(s.bp) for s in strata3] == [(3,), (2, 1), (1, 1, 1)]
    assert [s.class_dim for s in strata3] == [6, 4, 0]


def test_enumerate_strata_so8():
    strata = enumerate_strata(so_even(8))
    assert len(strata) == 10
    # the degenerate labels in weight 4, excess (0, 4)
    degenerate = {tuple(s.bp) for s in strata if s.pair_degenerate}
    assert degenerate == {(2, 2), (1, 1, 1, 1)}
    assert max(s.class_dim for s in strata) == 24


def test_enumerate_strata_characteristic_independent():
    for a, b in [(sp(8, 0), sp(8, 2)), (so_even(8, 0), so_even(8, 2))]:
        assert [s.bp for s in enumerate_strata(a)] == [s.bp for s in enumerate_strata(b)]
        assert dimension_set(a) == dimension_set(b)


def _groups_up_to(dimension):
    for series in Series:
        for d in range(dimension + 1):
            if series is Series.GL or d % 2 == (series is Series.SO_ODD):
                yield GroupDescriptor(series, d)


def test_enumerate_strata_is_stratum_of_each_label():
    # stratum_of_label checks each label and computes it alone: the oracle of the one pass
    for group in _groups_up_to(30):
        labels = enumerate_bipartitions(group.rank_half, stratum_excess(group.series))
        assert enumerate_strata(group) == tuple(stratum_of_label(group, bp) for bp in labels), group


@pytest.mark.parametrize(
    "group,label,message",
    [
        # it returned class_dim=-2
        (
            GroupDescriptor(Series.GL, 2),
            [0, 2],
            "(0, 2) is no stratum label of GL: its entries climb past the excess (0, 0)",
        ),
        (
            GroupDescriptor(Series.SP, 6),
            [0, 3],
            "(0, 3) is no stratum label of Sp: its entries climb past the excess (2, 2)",
        ),
        (
            GroupDescriptor(Series.SO_ODD, 9, 2),
            [0, 3, 0, 1],
            "(0, 3, 0, 1) is no stratum label of SO_odd: its entries climb past the excess (2, 2)",
        ),
        (
            GroupDescriptor(Series.SO_EVEN, 4),
            [0, 2],
            "(0, 2) is no stratum label of SO_even: its entries climb past the excess (0, 4)",
        ),
    ],
)
def test_stratum_of_label_refuses_a_label_outside_the_label_set(group, label, message):
    for bp in (label, Bipartition(label)):
        with pytest.raises(DomainError) as err:
            stratum_of_label(group, bp)
        assert (err.value.code, str(err.value)) == ("bad_label", message)


def test_stratum_of_label_words_the_weight_before_the_excess():
    with pytest.raises(DomainError) as err:
        stratum_of_label(GroupDescriptor(Series.GL, 2), Bipartition([0, 3]))
    assert (err.value.code, str(err.value)) == (
        "weight_mismatch", "weight mismatch: bipartition has weight 3, expected 2"
    )
    # a label given as a list comes back as the Bipartition it names
    assert stratum_of_label(GroupDescriptor(Series.SP, 4), [1, 1]).bp == Bipartition([1, 1])
    assert type(stratum_of_label(GroupDescriptor(Series.SP, 4), [1, 1]).bp) is Bipartition


def test_dimension_set_is_the_strata_class_dimensions():
    for group in _groups_up_to(30):
        assert dimension_set(group) == {s.class_dim for s in enumerate_strata(group)}, group


def test_dimension_set_so5():
    assert dimension_set(so_odd(5)) == {0, 4, 6, 8}


def test_dimension_sets_agree_across_forms():
    # odd orthogonal and symplectic groups of equal rank share dimension sets,
    # and both match the unipotent class dimensions in characteristic 2
    for n in range(1, 7):
        sp_set = dimension_set(sp(2 * n))
        assert dimension_set(so_odd(2 * n + 1)) == sp_set
        assert dimension_set(sp(2 * n, 2)) == sp_set
        unip = {
            2 * n * n - 2 * n_invariant(apply_bijection(JordanFamily.SYMPLECTIC_CHAR2, nu), n)
            for nu in enumerate_jordan(JordanFamily.SYMPLECTIC_CHAR2, 2 * n)
        }
        assert unip == sp_set


def test_so_even_unipotent_dimensions_cover_strata():
    for n in range(1, 7):
        grp = so_even(2 * n)
        unip = {
            2 * positive_roots(grp)
            - 2 * n_invariant(apply_bijection(JordanFamily.ORTHOGONAL_CHAR2, nu), n)
            for nu in enumerate_jordan(JordanFamily.ORTHOGONAL_CHAR2, 2 * n)
        }
        assert unip == dimension_set(grp)


def test_sp_and_so_odd_share_the_dimension_set_inputs():
    # dimension_set reads only the weight, the excess and the positive-root
    # count, so verify compares no dimension sets of these two series
    for n in range(0, 61):
        groups = (sp(2 * n), sp(2 * n, 2), so_odd(2 * n + 1), so_odd(2 * n + 1, 2))
        assert {(g.rank_half, stratum_excess(g.series), positive_roots(g)) for g in groups} == {
            (n, (2, 2), n * n)
        }


def test_minimal_nonzero_dimension_is_2n():
    for n in range(1, 7):
        dims = dimension_set(sp(2 * n))
        nonzero = sorted(d for d in dims if d > 0)
        assert nonzero[0] == 2 * n


# ---------------------------------------------------------------------------
# classification lands in the enumerated strata (randomized)


def _random_jordan(rng, family, weight):
    pool = enumerate_jordan(family, weight)
    return pool[rng.randrange(len(pool))]


def _random_generic_orbits(rng, budget):
    orbits = []
    i = 0
    while budget > 0:
        w = rng.randint(1, budget)
        ps = enumerate_partitions(w)
        orbits.append(EigenOrbit(f"x{i}", GEN, ps[rng.randrange(len(ps))]))
        budget -= w
        i += 1
    return orbits


def _random_datum(rng, series, char):
    if series is Series.GL:
        n = rng.randint(1, 12)
        return SpectralDatum(gl(n, char), _random_generic_orbits(rng, n))
    if series is Series.SP or (series is Series.SO_ODD and char == 2):
        N = 2 * rng.randint(1, 6)
        fam = JordanFamily.SYMPLECTIC_CHAR2 if char == 2 else JordanFamily.SYMPLECTIC
        d1 = 2 * rng.randint(0, N // 2)
        dm1 = 0 if char == 2 else 2 * rng.randint(0, (N - d1) // 2)
        orbits = []
        if d1:
            orbits.append(EigenOrbit("1", INV, _random_jordan(rng, fam, d1)))
        if dm1:
            orbits.append(EigenOrbit("-1", INV, _random_jordan(rng, fam, dm1)))
        orbits += _random_generic_orbits(rng, (N - d1 - dm1) // 2)
        if series is Series.SO_ODD:
            return SpectralDatum(so_odd(N + 1, 2), orbits)
        return SpectralDatum(sp(N, char), orbits)
    if series is Series.SO_ODD:
        N = 2 * rng.randint(1, 6) + 1
        dm1 = 2 * rng.randint(0, (N - 1) // 2)
        d1 = N - dm1 - 2 * rng.randint(0, (N - 1 - dm1) // 2)
        orbits = [EigenOrbit("1", INV, _random_jordan(rng, JordanFamily.ORTHOGONAL, d1))]
        if dm1:
            orbits.append(
                EigenOrbit("-1", INV, _random_jordan(rng, JordanFamily.ORTHOGONAL, dm1))
            )
        orbits += _random_generic_orbits(rng, (N - d1 - dm1) // 2)
        return SpectralDatum(so_odd(N, 0), orbits)
    # SO_EVEN
    N = 2 * rng.randint(1, 6)
    if char == 2:
        d1 = 2 * rng.randint(0, N // 2)
        orbits = []
        if d1:
            orbits.append(
                EigenOrbit("1", INV, _random_jordan(rng, JordanFamily.ORTHOGONAL_CHAR2, d1))
            )
        orbits += _random_generic_orbits(rng, (N - d1) // 2)
        return SpectralDatum(so_even(N, 2), orbits)
    d1 = 2 * rng.randint(0, N // 2)
    dm1 = 2 * rng.randint(0, (N - d1) // 2)
    orbits = []
    if d1:
        orbits.append(EigenOrbit("1", INV, _random_jordan(rng, JordanFamily.ORTHOGONAL, d1)))
    if dm1:
        orbits.append(EigenOrbit("-1", INV, _random_jordan(rng, JordanFamily.ORTHOGONAL, dm1)))
    orbits += _random_generic_orbits(rng, (N - d1 - dm1) // 2)
    return SpectralDatum(so_even(N, 0), orbits)


# the family whose map sends an involutive orbit of the classifying group to
# its contribution; SO_odd in characteristic 2 is classified through Sp
_ORACLE_FAMILY = {
    (Series.SP, False): JordanFamily.SYMPLECTIC,
    (Series.SP, True): JordanFamily.SYMPLECTIC_CHAR2,
    (Series.SO_ODD, False): JordanFamily.ORTHOGONAL,
    (Series.SO_ODD, True): JordanFamily.SYMPLECTIC_CHAR2,
    (Series.SO_EVEN, False): JordanFamily.ORTHOGONAL,
    (Series.SO_EVEN, True): JordanFamily.ORTHOGONAL_CHAR2,
}


@pytest.mark.parametrize(
    "series,char",
    [
        (Series.GL, 0),
        (Series.GL, 2),
        (Series.SP, 0),
        (Series.SP, 2),
        (Series.SO_ODD, 0),
        (Series.SO_ODD, 2),
        (Series.SO_EVEN, 0),
        (Series.SO_EVEN, 2),
    ],
)
def test_classification_lands_in_enumerated_strata(series, char):
    # the label is also checked against the bp_sum, one pair at a time, of
    # each involutive orbit's image and each generic orbit's partition
    rng = random.Random(f"{series}-{char}")
    family = _ORACLE_FAMILY.get((series, char == 2))
    strata_cache = {}
    for _ in range(500):
        datum = _random_datum(rng, series, char)
        res = classify(datum)
        images = [o.jordan if o.kind is GEN else apply_bijection(family, o.jordan) for o in datum.orbits]
        assert res.bp == reduce(bp_sum, images, Bipartition()), datum
        key = (datum.group.series, datum.group.dimension)
        if key not in strata_cache:
            grp = GroupDescriptor(datum.group.series, datum.group.dimension, char)
            strata_cache[key] = {s.bp: s for s in enumerate_strata(grp)}
        table = strata_cache[key]
        assert res.bp in table
        assert table[res.bp].class_dim == res.class_dim
        assert table[res.bp].n_invariant == res.n_invariant


# ---------------------------------------------------------------------------
# unipotent classes embed injectively into strata


def _unipotent_data(group):
    char = group.characteristic
    if group.series is Series.GL:
        for p in enumerate_partitions(group.dimension):
            yield SpectralDatum(group, [EigenOrbit("x0", GEN, p)])
        return
    N = group.dimension - 1 if group.series is Series.SO_ODD and char == 2 else group.dimension
    if group.series is Series.SP or (group.series is Series.SO_ODD and char == 2):
        fam = JordanFamily.SYMPLECTIC_CHAR2 if char == 2 else JordanFamily.SYMPLECTIC
    elif char == 2:
        fam = JordanFamily.ORTHOGONAL_CHAR2
    else:
        fam = JordanFamily.ORTHOGONAL
    for nu in enumerate_jordan(fam, N):
        yield SpectralDatum(group, [EigenOrbit("1", INV, nu)])


@pytest.mark.parametrize("char", [0, 2])
def test_unipotent_uniqueness(char):
    groups = []
    for N in range(2, 13, 2):
        groups += [sp(N, char), so_even(N, char)]
    for N in range(3, 13, 2):
        groups.append(so_odd(N, char))
    for group in groups:
        seen = {}
        for datum in _unipotent_data(group):
            bp = classify(datum).bp
            assert bp not in seen, (group, datum.orbits, seen[bp])
            seen[bp] = datum.orbits


# ---------------------------------------------------------------------------
# the general linear Springer-dimension oracle


def test_gl_springer_dimension_matches_conjugate_binomials():
    for n in range(0, 13):
        for p in enumerate_partitions(n):
            expected = sum(comb(m, 2) for m in p.conjugate())
            assert n_invariant(Bipartition(p), n) == expected


def test_stratum_excess():
    from weylstrata.partitions import Excess

    assert stratum_excess(Series.GL) == Excess(0, 0)
    assert stratum_excess(Series.SP) == Excess(2, 2)
    assert stratum_excess(Series.SO_ODD) == Excess(2, 2)
    assert stratum_excess(Series.SO_EVEN) == Excess(0, 4)
