import copy
import gc
import hashlib
import pickle
import re
from itertools import groupby, product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from weylstrata import jordan, jordan_inverse
from weylstrata.enumeration import enumerate_bipartitions, enumerate_partitions
from weylstrata.errors import ConsistencyError, DomainError
from weylstrata.jordan import (
    FAMILY_ALIASES,
    JordanFamily,
    LabeledPartition,
    apply_bijection,
    codomain,
    family_from_name,
    in_family,
)
from weylstrata.jordan_inverse import count_jordan, enumerate_jordan, invert_bijection
from weylstrata.partitions import Bipartition, Partition, has_excess
from weylstrata.verify import run_suite
from weylstrata.weyl import WeylSeries, WeylType, strata_fibers

SP = JordanFamily.SYMPLECTIC
SP2 = JordanFamily.SYMPLECTIC_CHAR2
SO = JordanFamily.ORTHOGONAL
SO2 = JordanFamily.ORTHOGONAL_CHAR2


# ---------------------------------------------------------------------------
# strings and labels


def test_eligible_values():
    # labels sit on the eligible values, descending, whatever the order given
    assert LabeledPartition([4, 4, 2, 2, 1, 1], {2: 0, 4: 1}).labels == ((4, 1), (2, 0))
    assert LabeledPartition([4, 2, 2, 2], {}).labels == ()
    with pytest.raises(DomainError):
        LabeledPartition([4, 2, 2, 2], {2: 0})  # 2 has odd multiplicity
    assert LabeledPartition([1, 1], {}).labels == ()
    with pytest.raises(DomainError):
        LabeledPartition([1, 1], {1: 0})  # odd values never eligible


def test_labeled_partition_validation():
    lp = LabeledPartition([2, 2, 1, 1], {2: 1})
    assert lp.weight == 6
    assert lp.label_map() == {2: 1}
    with pytest.raises(DomainError):
        LabeledPartition([2, 2, 1, 1], {})  # missing label
    with pytest.raises(DomainError):
        LabeledPartition([2, 1, 1], {2: 0})  # 2 not eligible (odd multiplicity)
    with pytest.raises(DomainError):
        LabeledPartition([2, 2, 1, 1], {2: 2})  # label not binary
    with pytest.raises(DomainError):
        LabeledPartition([3, 1], {})  # odd value with odd multiplicity


@pytest.mark.parametrize(
    "make,code",
    [
        (lambda: LabeledPartition([2, 2, 1, 1], {}), "bad_labels"),
        (lambda: LabeledPartition([2, 2, 1, 1], {2: 2}), "bad_labels"),
        (lambda: LabeledPartition([3, 1], {}), "bad_parity"),
        # a label is the int 0 or 1: not a bool, a float or a string equal to one
        (lambda: LabeledPartition([2, 2], {2: True}), "bad_labels"),
        (lambda: LabeledPartition([2, 2], {2: False}), "bad_labels"),
        (lambda: LabeledPartition([2, 2], {2: 1.0}), "bad_labels"),
        (lambda: LabeledPartition([2, 2], {2: "1"}), "bad_labels"),
    ],
)
def test_labeled_partition_refusal_codes(make, code):
    with pytest.raises(DomainError) as err:
        make()
    assert err.value.code == code


def _reference_labeled(parts, labels):
    # LabeledPartition's validation as two passes over the strings, kept as
    # the reference for the one-pass constructor: (parts, labels) or a refusal
    base = parts if isinstance(parts, Partition) else Partition(parts)
    strings = [(v, len(list(run))) for v, run in groupby(base)]
    for v, m in strings:
        if m % 2 and v % 2 == 1:
            raise DomainError(
                f"odd value {v} occurs {m} times in {tuple(base)}; "
                "odd values must occur an even number of times",
                code="bad_parity",
            )
    eligible = [v for v, m in strings if v % 2 == 0 and m % 2 == 0]
    given = dict(labels or {})
    if set(given) != set(eligible):
        raise DomainError(
            f"labels must be given for exactly the eligible values "
            f"{sorted(eligible, reverse=True)} of {tuple(base)}, got keys "
            f"{sorted(given)}",
            code="bad_labels",
        )
    for v, bit in given.items():
        if type(bit) is not int or bit not in (0, 1):
            raise DomainError(f"label for value {v} must be 0 or 1, got {bit!r}", code="bad_labels")
    return base, tuple((v, given[v]) for v in eligible)


_BIT = st.sampled_from((0, 1, 0, 1, True, False, 2, -1))


@st.composite
def _labeled_inputs(draw):
    """Parts from distinct values with multiplicities, now and then changed, and labels
    on the eligible values, now and then with a key missing or added."""
    values = sorted(draw(st.sets(st.integers(1, 8), max_size=5)), reverse=True)
    parts = [v for v in values for _ in range(draw(st.integers(1, 4)))]
    if parts and draw(st.integers(0, 4)) == 0:  # a negative, a zero, a climb or a non-int
        parts[draw(st.integers(0, len(parts) - 1))] = draw(st.sampled_from((-1, 0, 9, True, 2.0)))
    keys = {v for v in set(parts) if isinstance(v, int) and v % 2 == 0 and parts.count(v) % 2 == 0}
    if draw(st.integers(0, 3)) == 0:
        keys ^= {draw(st.integers(0, 9))}
    return parts, {v: draw(_BIT) for v in sorted(keys)} if keys or draw(st.booleans()) else None


def _labeled_outcome(make, parts, labels):
    try:
        out = make(parts, labels)
    except DomainError as err:
        return err.code, str(err)
    return out if isinstance(out, tuple) else (out.parts, out.labels)


@settings(max_examples=400, deadline=None)
@given(_labeled_inputs())
def test_labeled_partition_agrees_with_its_two_pass_reference(inputs):
    assert _labeled_outcome(LabeledPartition, *inputs) == _labeled_outcome(_reference_labeled, *inputs)


def test_labeled_partition_equality_and_hash():
    a = LabeledPartition([4, 4], {4: 1})
    b = LabeledPartition((4, 4), {4: 1})
    c = LabeledPartition([4, 4], {4: 0})
    assert a == b and hash(a) == hash(b)
    assert a != c


def test_family_membership():
    assert in_family(SP, Partition([2, 1, 1]))
    assert not in_family(SP, Partition([3, 1]))  # odd value once
    assert in_family(SO, Partition([3, 2, 2]))
    assert not in_family(SO, Partition([2, 1, 1]))  # even value once
    assert in_family(SP2, LabeledPartition([2, 2], {2: 0}))
    assert not in_family(SP2, Partition([2, 2]))  # labels required
    assert in_family(SO2, LabeledPartition([2, 2], {2: 1}))
    assert not in_family(SO2, LabeledPartition([2, 1, 1], {}))  # 3 parts


def test_family_aliases():
    assert family_from_name("Z2") is SP2
    assert family_from_name("z1p") is SO
    assert family_from_name("orthogonal_char2") is SO2
    with pytest.raises(DomainError):
        family_from_name("Z3")
    assert set(FAMILY_ALIASES) == {"Z1", "Z2", "Z1P", "Z2P"}


def test_family_members_hash_by_identity():
    # Enum equality is identity, so an identity hash agrees with it
    for family in JordanFamily:
        assert type(family).__hash__ is object.__hash__
        assert hash(family) == object.__hash__(family)
        assert [other for other in JordanFamily if other == family] == [family]


@pytest.mark.parametrize("family", list(JordanFamily))
def test_every_route_to_a_family_is_the_member_itself(family):
    # so the tables keyed by the member are found through each route
    alias = next(name for name, member in FAMILY_ALIASES.items() if member is family)
    routes = [
        JordanFamily(family.value), FAMILY_ALIASES[alias], family_from_name(alias),
        copy.copy(family), copy.deepcopy(family), pickle.loads(pickle.dumps(family)),
    ]
    keys = [key for key in jordan._REPLACEMENTS if key[0] is family]
    assert keys
    for got in routes:
        assert got is family
        for _, parity in keys:
            assert jordan._REPLACEMENTS[got, parity] is jordan._REPLACEMENTS[family, parity]
            assert jordan_inverse._PARSE_ROWS[got, parity] is jordan_inverse._PARSE_ROWS[family, parity]


@pytest.mark.parametrize(
    "call",
    [
        lambda family: invert_bijection(family, 8, Bipartition([2, 2])),
        lambda family: apply_bijection(family, Partition([2, 2])),
        lambda family: count_jordan(family, 8),
        lambda family: enumerate_jordan(family, 8),
        lambda family: codomain(family, 8),
        lambda family: in_family(family, Partition([2, 2])),
    ],
    ids=["invert_bijection", "apply_bijection", "count_jordan", "enumerate_jordan", "codomain", "in_family"],
)
def test_a_family_that_is_no_member_is_refused(call):
    # a name, a value or another enum's member is refused, not read as the family it names
    for family in ("Z2", "symplectic_char2", None, WeylSeries.B, 1):
        with pytest.raises(DomainError) as err:
            call(family)
        message = f"Jordan family must be a JordanFamily, got {family!r}"
        assert (err.value.code, str(err.value)) == ("bad_family", message)


def test_jordan_listing_counting_and_inverse_leave_no_cycles():
    # as with the bipartition listings, each call's work is freed on return,
    # not left to the cyclic collector
    gc.collect()
    gc.disable()
    try:
        enumerate_jordan(SP2, 28)
        enumerate_jordan(SO, 27)
        count_jordan(SO2, 28)
        invert_bijection(SP2, 28, Bipartition([5, 5, 2, 1, 1]))
        assert gc.collect() == 0
    finally:
        gc.enable()


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 4), max_size=12))
def test_strings_are_the_maximal_runs_in_order(parts):
    assert jordan._strings(parts) == [(v, len(list(run))) for v, run in groupby(parts)]


# ---------------------------------------------------------------------------
# forward maps on single examples


def test_sp_map_examples():
    assert apply_bijection(SP, Partition([2, 1, 1])) == (1, 0, 1)
    assert apply_bijection(SP, Partition([3, 3])) == (1, 2)
    assert apply_bijection(SP, Partition([1, 1])) == (0, 1)
    assert apply_bijection(SP, Partition([2, 2, 1, 1])) == (1, 1, 0, 1)
    assert apply_bijection(SP, Partition()) == ()
    with pytest.raises(DomainError):
        apply_bijection(SP, Partition([3, 1]))


def test_sp_map_transvection_chain():
    # a single Jordan block of size 2 plus fixed vectors: the minimal
    # nonzero-dimension stratum of the symplectic group
    for n in range(2, 7):
        nu = Partition([2] + [1] * (2 * n - 2))
        bp = apply_bijection(SP, nu)
        assert bp == Bipartition([1] + [0, 1] * (n - 2) + [0, 1])


def test_sp2_map_examples():
    assert apply_bijection(SP2, LabeledPartition([2, 2, 1, 1], {2: 1})) == (1, 1, 0, 1)
    assert apply_bijection(SP2, LabeledPartition([2, 2, 1, 1], {2: 0})) == (0, 2, 0, 1)
    assert apply_bijection(SP2, LabeledPartition([6], {})) == (3,)
    with pytest.raises(DomainError):
        apply_bijection(SP2, Partition([2, 2]))  # unlabeled input


def test_so_odd_map_examples():
    assert apply_bijection(SO, Partition([3])) == (1,)
    assert apply_bijection(SO, Partition([1, 1, 1])) == (0, 1)
    assert apply_bijection(SO, Partition([1])) == ()
    assert apply_bijection(SO, Partition([2, 2, 1])) == (0, 2)
    with pytest.raises(DomainError):
        apply_bijection(SO, Partition([2, 1]))  # 2 occurs once


def test_so_even_map_examples():
    assert apply_bijection(SO, Partition([3, 1])) == (2,)
    assert apply_bijection(SO, Partition([2, 2])) == (1, 1)
    assert apply_bijection(SO, Partition([1, 1, 1, 1])) == (1, 0, 1)
    assert apply_bijection(SO, Partition([5, 3])) == (3, 1)
    assert apply_bijection(SO, Partition()) == ()


def test_so2_map_examples():
    assert apply_bijection(SO2, LabeledPartition([6, 2], {})) == (4,)
    assert apply_bijection(SO2, LabeledPartition([4, 4], {4: 1})) == (3, 1)
    assert apply_bijection(SO2, LabeledPartition([4, 4], {4: 0})) == (2, 2)
    assert apply_bijection(SO2, LabeledPartition([4, 2, 1, 1], {})) == (3, 0, 1)
    with pytest.raises(DomainError):
        apply_bijection(SO2, LabeledPartition([2, 1, 1], {}))  # odd part count


# ---------------------------------------------------------------------------
# golden tables: complete maps at weight 6 (symplectic, characteristic 2)
# and weight 8 (even orthogonal, characteristic 2), in enumeration order

GOLDEN_SP2_6 = [
    (((6,), {}), (3,)),
    (((4, 2), {}), (2, 1)),
    (((4, 1, 1), {}), (2, 0, 1)),
    (((3, 3), {}), (1, 2)),
    (((2, 2, 2), {}), (1, 1, 1)),
    (((2, 2, 1, 1), {2: 1}), (1, 1, 0, 1)),
    (((2, 2, 1, 1), {2: 0}), (0, 2, 0, 1)),
    (((2, 1, 1, 1, 1), {}), (1, 0, 1, 0, 1)),
    (((1, 1, 1, 1, 1, 1), {}), (0, 1, 0, 1, 0, 1)),
]

GOLDEN_SO2_8 = [
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
]


def test_golden_table_sp2_weight6():
    domain = enumerate_jordan(SP2, 6)
    assert len(domain) == len(GOLDEN_SP2_6) == 9
    for nu, ((parts, labels), expected) in zip(domain, GOLDEN_SP2_6):
        assert nu == LabeledPartition(parts, labels)
        assert apply_bijection(SP2, nu) == expected


def test_golden_table_so2_weight8():
    domain = enumerate_jordan(SO2, 8)
    assert len(domain) == len(GOLDEN_SO2_8) == 10
    for nu, ((parts, labels), expected) in zip(domain, GOLDEN_SO2_8):
        assert nu == LabeledPartition(parts, labels)
        assert apply_bijection(SO2, nu) == expected


# ---------------------------------------------------------------------------
# pinned images: one sha256 per (family, weight) over the ordered list of
# (str(datum), image) pairs, so that any change to any image is caught, even
# one that permutes images inside the codomain

IMAGE_DIGESTS = {
    ("Z1", 0): "0bdba3cb90956b92ddaa2adf02fbd78ed8c6076a49e11e4231b1890f9cb924d1",
    ("Z1", 2): "ed6a16ed380cf677b0845aef83caf277824ab6d00a4a06e83886e44d077dad6b",
    ("Z1", 4): "cc6b28c4b1e7997cc723327e2cbb56948c55084427f6d23ed9b89fcc24744fb5",
    ("Z1", 6): "f8c194c86646b4d4cd2a1cb96641be129da030a014a53e347d965c0505042849",
    ("Z1", 8): "2ad67973faac9be4fe1d2651495db1ab37c7ae6a04e14c9791c59d7303274595",
    ("Z1", 10): "55d16078fea1fee529ad1a29db72459ed6ffd4b52092f98b39c537724a240361",
    ("Z1", 12): "278a07e768634b2d8b2cd3658a1e25fb3466bbdb1652114901f1650e374731fc",
    ("Z1", 14): "617c785856fe0f856c9b9aa072982b8aead9b2d733e37aa5de32c19bf09d5d6d",
    ("Z1", 16): "1cd365aa66046a2d19bced9c690c3c6596f44160a2089abf17a1f946e1e09933",
    ("Z2", 0): "0bdba3cb90956b92ddaa2adf02fbd78ed8c6076a49e11e4231b1890f9cb924d1",
    ("Z2", 2): "ed6a16ed380cf677b0845aef83caf277824ab6d00a4a06e83886e44d077dad6b",
    ("Z2", 4): "374b6cf10bdd943f580c6618efbe8ef4ce947c527c7e7ffc858bb6dec1d43258",
    ("Z2", 6): "83c5de6d8e7ee26c8a2ef26acad69fcc63c13ffea5c4de17860a3e9e79be516e",
    ("Z2", 8): "b3bf30080152b90d2d23da3b3fa7f9535705b7deea58675dbd676e714d10435f",
    ("Z2", 10): "0fc7bc5b8420d9d5a3df7fed4a56378d61e4e110a7f16227ace85206e7cc1999",
    ("Z2", 12): "a327c32165d206573e84eac87f5cac8b5ecc38c771b3a119d8df60494bcd12df",
    ("Z2", 14): "b814dc06e9db5f4aea4529f26aea3db48c5298d78991f3017957ad8200ac97d3",
    ("Z2", 16): "1d63088582d6047594737e58af4c6e58592b9cad3106bd2150766d6babfa25e3",
    ("Z1P", 1): "d709c43ce2b73175084855cda2ce5b33ee279cdc59ac4d56a88369b715e3afa5",
    ("Z1P", 2): "ae79ac01c6878e213942595969bf79641e450e3d83a180fe8213c0b46987694b",
    ("Z1P", 3): "f2b5fc53ea84b0cf75fa798c0c2f484188d092dc25d4ea81594e8bcd2a3c1b0b",
    ("Z1P", 4): "cb2277acb7a95d9091f19bc0ec321e6849922f43347b4f4a86431e4b22f252f8",
    ("Z1P", 5): "8bfbc6fe116e0dada84961807a956a857400ee27eb3bdc02282e67421826222b",
    ("Z1P", 6): "460e7d8a8d2f35e983b94f0addb60698cd15c8edd99154534a97749a2e30a3d8",
    ("Z1P", 7): "bc66b80fbc21b9583702d87a85c04132df26721e99e8c63f60ef28e6bfec006a",
    ("Z1P", 8): "71e9c453ff5978b943410f454565acc2f2aa42ca4151b3dfd319780f42d92a91",
    ("Z1P", 9): "2e5aa632e1ce1b6205421586c7bf40d1e26196ccba0fdd68bd5191805ba78a31",
    ("Z1P", 10): "784245e7a07d94a475c47fd10ae3099448833ee6669956bf2ce2f6cf438d9722",
    ("Z1P", 11): "b658f461d63b51c790b67d69cb5e5db1178a16f124aa96f3fb41f247a032173f",
    ("Z1P", 12): "9213ce2509f979e05c10c2cd2c5b2f4d9ce49470c5a1123f80d163d03989972d",
    ("Z1P", 13): "b0fa6fd319596aabd696aeb0401f70335b8885788dc9448537f7869fe77acf75",
    ("Z1P", 14): "f80d26d6c25fb82e7c4b6343dc575e431ce0576341426554e48a9f69b8c51073",
    ("Z1P", 15): "26e457416983a9cc41414bac38e7f6907a6f2a3d97204ab0395cea4c3e717728",
    ("Z1P", 16): "8f7a77deab0393fa0bd8e508c3de31990fb90f282b93b5633ae2a0f3f1089891",
    ("Z1P", 17): "6b4a2da63fcffcf6fd87865530cd4eea326fa529126282ef1e0a052aa4c700d4",
    ("Z2P", 0): "0bdba3cb90956b92ddaa2adf02fbd78ed8c6076a49e11e4231b1890f9cb924d1",
    ("Z2P", 2): "ae79ac01c6878e213942595969bf79641e450e3d83a180fe8213c0b46987694b",
    ("Z2P", 4): "cde1a2f1519948d4d7037ae09720eea31d90c445e529563d707f4ec14174971d",
    ("Z2P", 6): "79fe7f56e3b87ad6445a0014e20d9b7a47470d9965454c91e8c6776397f120ca",
    ("Z2P", 8): "b1d25db17a27a09bc1e3eb06d65b9cf58e5f21e0d0801c35010d84ea346a1cfb",
    ("Z2P", 10): "73e4d6d9c9a7a5295adfbb2b2522ee7d46899282f542b001231e76ca88d0072e",
    ("Z2P", 12): "ac828c74d6adeb6095835db8e5303f5a7e44a5501323465928470bb92a449b8a",
    ("Z2P", 14): "39d8a7371fde336b9cbcda314443eaf48579a753d9ef77eccc9121a31e6bf956",
    ("Z2P", 16): "8bc0156d069d96f24bad298c47b984aff125b51ce3b741446ff2f09f7a4ee7c7",
}


def _image_digest(family, N):
    rows = [(str(nu), tuple(apply_bijection(family, nu))) for nu in enumerate_jordan(family, N)]
    return hashlib.sha256(repr(rows).encode()).hexdigest()


def test_pinned_image_digests():
    assert len(IMAGE_DIGESTS) == 9 + 9 + 17 + 9
    for (name, N), want in IMAGE_DIGESTS.items():
        assert _image_digest(FAMILY_ALIASES[name], N) == want, (name, N)


# ---------------------------------------------------------------------------
# enumeration


def test_enumerate_jordan_counts():
    assert len(enumerate_jordan(SP2, 6)) == 9
    assert len(enumerate_jordan(SO2, 8)) == 10
    assert enumerate_jordan(SP, 0) == (Partition(),)
    assert enumerate_jordan(SP, 2) == (Partition([2]), Partition([1, 1]))
    assert len(enumerate_jordan(SO, 1)) == 1


def test_enumerate_jordan_membership_and_weight():
    for family in JordanFamily:
        for N in range(0, 11):
            if family is not SO and N % 2 == 1:
                with pytest.raises(DomainError):
                    enumerate_jordan(family, N)
                continue
            for nu in enumerate_jordan(family, N):
                assert in_family(family, nu)
                assert nu.weight == N


def _weights(family, top):
    return range(0, top + 1) if family is SO else range(0, top + 1, 2)


# the filter over every partition of N, which enumerate_jordan was before it
# generated members run by run; kept as the oracle for the generator.  It
# spells out the rules of the module docstring itself: Z1P pairs even values,
# the other families odd ones; Z2P needs an even part count; Z2 and Z2P label
# each even value of positive even multiplicity


def _filter_enumerate(family, N):
    codomain(family, N)  # the same weight and parity guard
    paired = 0 if family is SO else 1
    out = []
    for p in enumerate_partitions(N):
        runs = [(v, len(list(g))) for v, g in groupby(p)]
        if any(m % 2 and v % 2 == paired for v, m in runs) or (family is SO2 and len(p) % 2):
            continue
        if family.labeled:
            values = [v for v, m in runs if v % 2 == 0 and m % 2 == 0]
            for bits in product((1, 0), repeat=len(values)):
                out.append(LabeledPartition(p, dict(zip(values, bits))))
        else:
            out.append(p)
    return tuple(out)


@pytest.mark.parametrize("family", list(JordanFamily))
def test_generator_matches_filter_oracle(family):
    for N in _weights(family, 30):
        got, want = enumerate_jordan(family, N), _filter_enumerate(family, N)
        assert [(str(nu), type(nu)) for nu in got] == [(str(nu), type(nu)) for nu in want], (family, N)
        assert got == want


def test_count_jordan_matches_filter_oracle():
    # the filter, counting only: each partition's runs against the parity
    # rules of the module docstring, 2 per eligible value for the labeled
    # families
    for N in range(0, 41):
        want = dict.fromkeys(JordanFamily, 0)
        for p in enumerate_partitions(N):
            runs = [(v, len(list(g))) for v, g in groupby(p)]
            if all(v % 2 or m % 2 == 0 for v, m in runs):
                want[SO] += 1
            if N % 2 == 0 and all(v % 2 == 0 or m % 2 == 0 for v, m in runs):
                labelings = 2 ** sum(1 for v, m in runs if v % 2 == 0 and m % 2 == 0)
                want[SP] += 1
                want[SP2] += labelings
                want[SO2] += labelings if len(p) % 2 == 0 else 0
        for family in JordanFamily:
            if family is SO or N % 2 == 0:
                assert count_jordan(family, N) == want[family], (family, N)
                continue
            with pytest.raises(DomainError) as err:
                count_jordan(family, N)
            assert err.value.code == "bad_parity"


def test_bijectivity_check_asserts_the_count(monkeypatch):
    monkeypatch.setattr("weylstrata.verify.count_jordan", lambda family, N: -1)
    result = run_suite(("bijectivity",))[0]
    assert not result.passed and "counted -1" in result.detail


def test_bijectivity_check_inverts_the_codomain(monkeypatch):
    result = run_suite(("bijectivity",))[0]
    assert result.passed and "all 7193 codomain elements invert to their preimages" in result.detail
    # an inverse that answers the empty partition is caught at the first
    # codomain element whose preimage is not empty
    monkeypatch.setattr("weylstrata.verify.invert_bijection", lambda family, N, bp: Partition())
    result = run_suite(("bijectivity",))[0]
    assert not result.passed and result.detail == "SYMPLECTIC weight 2: (1,) inverts to ()"


def test_count_jordan_examples():
    assert count_jordan(SP2, 6) == 9
    assert count_jordan(SO2, 8) == 10
    assert count_jordan(SP, 0) == 1
    with pytest.raises(DomainError) as err:
        count_jordan(SO, -1)
    assert err.value.code == "bad_weight"


@pytest.mark.parametrize(
    "call",
    [
        lambda N: codomain(SO, N),
        lambda N: enumerate_jordan(SP, N),
        lambda N: count_jordan(SO2, N),
        lambda N: invert_bijection(SP2, N, Bipartition([3])),
    ],
    ids=["codomain", "enumerate_jordan", "count_jordan", "invert_bijection"],
)
def test_weight_must_be_an_integer(call):
    # a float, a bool or a string is refused, not read as the integer it is near
    for N, message in ((6.0, "weight must be an integer, got 6.0"), (5.0, "weight must be an integer, got 5.0"),
                       (True, "weight must be an integer, got True"), ("6", "weight must be an integer, got '6'"),
                       (-2, "weight must be nonnegative, got -2")):
        with pytest.raises(DomainError) as err:
            call(N)
        assert (err.value.code, str(err.value)) == ("bad_weight", message)


@pytest.mark.parametrize(
    "family,nu",
    [
        (SP, Partition([3, 1])),  # odd value once
        (SP, LabeledPartition([2, 2], {2: 1})),  # labels on an unlabeled family
        (SP2, Partition([2, 2])),  # labels missing
        (SO, Partition([2, 1])),  # even value once
        (SO2, LabeledPartition([2, 1, 1], {})),  # odd part count
    ],
)
def test_apply_bijection_refuses_non_members(family, nu):
    with pytest.raises(DomainError, match="is not in the") as err:
        apply_bijection(family, nu)
    assert err.value.code == "not_in_family"


@pytest.mark.parametrize("family", [SP, SO])
def test_a_bipartition_that_is_no_partition_is_refused(family):
    # (2, 1, 2, 1) holds each value twice, but in four strings of one part
    # each: membership reads the strings in order, so the sequence is refused
    # rather than counted into the member (2, 2, 1, 1)
    nu = Bipartition((2, 1, 2, 1))
    assert not in_family(family, nu)
    with pytest.raises(DomainError, match="is not in the") as err:
        apply_bijection(family, nu)
    assert err.value.code == "not_in_family"


def test_a_bipartition_is_read_as_the_partition_it_may_be():
    # (2, 2, 0, 2) is a bipartition whose strings each pass the symplectic
    # parity rule, but no partition, so no member; (2, 1, 1) as a
    # Bipartition is the member it equals
    assert not in_family(SP, Bipartition((2, 2, 0, 2)))
    assert in_family(SP, Bipartition((2, 1, 1)))
    assert apply_bijection(SP, Bipartition((2, 1, 1))) == apply_bijection(SP, Partition([2, 1, 1]))


@pytest.mark.parametrize(
    "change,message",
    [
        (lambda key, d1, d2: (d1 - 5, d2), "negative entry"),
        # key is (value % 2, label 0, origin % 2): odd values at even origin
        (lambda key, d1, d2: (d1, d2 + 10) if (key[0], key[2]) == (1, 0) else (d1, d2), "non-bipartition"),
        (lambda key, d1, d2: (d1 + 1, d2), "outside the stated codomain"),
    ],
)
def test_every_path_keeps_the_consistency_checks(monkeypatch, change, message):
    # a broken replacement row surfaces as a ConsistencyError whether the datum
    # was generated (under verify, as a FAIL row), read off a signed cycle
    # type, or passed in
    excess, offsets = jordan._REPLACEMENTS[SP2, 0]
    broken = dict(jordan._REPLACEMENTS)
    broken[SP2, 0] = (excess, {key: change(key, *pair) for key, pair in offsets.items()})
    monkeypatch.setattr(jordan, "_REPLACEMENTS", broken)
    result = run_suite(("golden-sp2",))[0]
    assert not result.passed and re.search(message, result.detail)
    with pytest.raises(ConsistencyError, match=message):
        strata_fibers(WeylType(WeylSeries.B, 3))
    with pytest.raises(ConsistencyError, match=message):
        apply_bijection(SP2, LabeledPartition([2, 1, 1, 1, 1], {}))


def test_enumerate_jordan_label_expansion_order():
    # two eligible values: label vectors descending, value-major
    entries = [
        nu for nu in enumerate_jordan(SP2, 12)
        if isinstance(nu, LabeledPartition) and nu.parts == (4, 4, 2, 2)
    ]
    assert [e.label_map() for e in entries] == [
        {4: 1, 2: 1},
        {4: 1, 2: 0},
        {4: 0, 2: 1},
        {4: 0, 2: 0},
    ]


# ---------------------------------------------------------------------------
# bijectivity: forward maps are bijections onto the stated codomain


@pytest.mark.parametrize("family", list(JordanFamily))
def test_bijectivity(family):
    weights = range(1, 18) if family is SO else range(0, 17, 2)
    for N in weights:
        domain = enumerate_jordan(family, N)
        excess, half = codomain(family, N)
        images = [apply_bijection(family, nu) for nu in domain]
        assert len(set(images)) == len(images), (family, N)
        assert set(images) == set(enumerate_bipartitions(half, excess)), (family, N)


def test_images_satisfy_codomain_contract():
    for family in JordanFamily:
        weights = [7, 10] if family is SO else [10]
        for N in weights:
            excess, half = codomain(family, N)
            for nu in enumerate_jordan(family, N):
                bp = apply_bijection(family, nu)
                assert bp.weight == half
                assert has_excess(bp, excess)
                assert all(c >= 0 for c in bp)


# ---------------------------------------------------------------------------
# inversion


def test_invert_examples():
    assert invert_bijection(SP2, 6, Bipartition([3])) == LabeledPartition([6], {})
    assert invert_bijection(SO2, 8, Bipartition([3, 1])) == LabeledPartition([4, 4], {4: 1})
    assert invert_bijection(SP, 0, Bipartition()) == Partition()
    assert invert_bijection(SO, 7, Bipartition([1, 2])) == invert_bijection(
        SO, 7, (1, 2)
    )


def test_invert_roundtrip():
    for family in JordanFamily:
        weights = range(1, 14) if family is SO else range(0, 13, 2)
        for N in weights:
            for nu in enumerate_jordan(family, N):
                assert invert_bijection(family, N, apply_bijection(family, nu)) == nu


def test_invert_no_preimage():
    with pytest.raises(DomainError):
        invert_bijection(SP2, 6, Bipartition([2, 2]))  # wrong weight
    with pytest.raises(DomainError):
        invert_bijection(SP2, 6, Bipartition([0, 3]))  # outside excess (2, 2)
    with pytest.raises(DomainError):
        invert_bijection(SP, 5, Bipartition([2]))  # odd weight for an even family


@pytest.mark.parametrize(
    "family,N,target,message",
    [
        (SP2, 6, [2, 2], "(2, 2) lies outside the image of weight-6 symplectic_char2 data (expected weight 3, excess (2, 2))"),
        (SP2, 6, [0, 3], "(0, 3) lies outside the image of weight-6 symplectic_char2 data (expected weight 3, excess (2, 2))"),
        (SO2, 8, [1, 3], "(1, 3) lies outside the image of weight-8 orthogonal_char2 data (expected weight 4, excess (0, 4))"),
        (SO, 7, [0, 3], "(0, 3) lies outside the image of weight-7 orthogonal data (expected weight 3, excess (2, 0))"),
    ],
    ids=["weight", "excess", "Z2P excess", "Z1P odd excess"],
)
def test_invert_words_the_no_preimage_refusal(family, N, target, message):
    with pytest.raises(DomainError) as err:
        invert_bijection(family, N, Bipartition(target))
    assert str(err.value) == message and err.value.code == "no_preimage"


def test_invert_rejects_malformed_target():
    with pytest.raises(DomainError):
        invert_bijection(SP2, 6, (1, 2, 3))  # not a bipartition


# the exhaustive inverse, kept as the oracle for the run-by-run parse: every
# datum of weight N mapped forward, keyed by its image


def _exhaustive_inverse(family, N):
    domain = enumerate_jordan(family, N)
    table = {apply_bijection(family, nu): nu for nu in domain}
    assert len(table) == len(domain), (family, N)  # injective
    return table


@pytest.mark.parametrize("family", list(JordanFamily))
def test_invert_matches_exhaustive_oracle(family):
    weights = range(0, 22) if family is SO else range(0, 21, 2)
    for N in weights:
        oracle = _exhaustive_inverse(family, N)
        excess, half = codomain(family, N)
        for bp in enumerate_bipartitions(half, excess):
            assert invert_bijection(family, N, bp) == oracle[bp], (family, N, bp)


@pytest.mark.parametrize(
    "family,N,target,runs,message",
    [
        pytest.param(
            SP, 4, [2], [[(2, 1, None), (1, 2, None)], [(4, 1, None)]], "injectivity failed",
            id="runs0-injectivity failed",
        ),
        pytest.param(SP, 4, [2], [[(2, 1, None), (1, 2, None)]], "does not map back", id="runs1-does not map back"),
        pytest.param(SP, 4, [2], [], "surjectivity failed", id="runs2-surjectivity failed"),
        # the weight-2 member (1, 1) maps to (1,) under the weight-2 rule, so
        # only the weight check tells it from a weight-3 preimage
        pytest.param(SO, 3, [1], [[(1, 2, None)]], "not a weight-3 member", id="wrong-weight member"),
        # the odd value 3 once: not in the family
        pytest.param(SP, 4, [2], [[(3, 1, None), (1, 1, None)]], "not a weight-4 member", id="non-member"),
        # the runs of a member of weight 4, values ascending
        pytest.param(SP, 4, [2], [[(1, 2, None), (2, 1, None)]], "not a weight-4 member", id="values ascend"),
    ],
)
def test_invert_checks_what_the_parse_returns(monkeypatch, family, N, target, runs, message):
    # no parse, a second parse, or one that is not the target's preimage can
    # only come from a broken table; fake the parse to reach each check
    monkeypatch.setattr("weylstrata.jordan_inverse._parse_runs", lambda *args: runs)
    with pytest.raises(ConsistencyError, match=message):
        invert_bijection(family, N, Bipartition(target))


def test_invert_compares_the_trimmed_entries_with_the_target(monkeypatch):
    # the emitted entries must be the target once trailing zeros are trimmed;
    # any other entries, a negative one included, do not map back
    emit = jordan_inverse._emit
    nu = invert_bijection(SP2, 8, Bipartition([2, 2]))
    monkeypatch.setattr("weylstrata.jordan_inverse._emit", lambda rule, runs: emit(rule, runs) + [0, 0])
    assert invert_bijection(SP2, 8, Bipartition([2, 2])) == nu
    for tail in ([-1], [0, 1], [1]):
        monkeypatch.setattr("weylstrata.jordan_inverse._emit", lambda rule, runs: emit(rule, runs) + tail)
        with pytest.raises(ConsistencyError, match="which does not map back to it"):
            invert_bijection(SP2, 8, Bipartition([2, 2]))


def test_parse_rows_regroup_the_replacement_offsets():
    # the replacement table is the one source of the parse: each key's rows
    # are its offsets regrouped by origin parity, none lost and none added
    assert set(jordan_inverse._PARSE_ROWS) == set(jordan._REPLACEMENTS)
    for key, (_, offsets) in jordan._REPLACEMENTS.items():
        rows = jordan_inverse._PARSE_ROWS[key]
        assert len(rows) == 2, key
        regrouped = [(p, label0, origin, (d1, d2)) for origin in (0, 1) for p, label0, d1, d2 in rows[origin]]
        assert sorted(regrouped) == sorted(k + (pair,) for k, pair in offsets.items()), key


BILLION = 10**9


@pytest.mark.parametrize(
    "family,N,target,parts,labels",
    [
        (SP, BILLION, (BILLION // 2,), (BILLION,), None),
        (SP, BILLION, (3 * BILLION // 10, BILLION // 5), (3 * BILLION // 5, 2 * BILLION // 5), None),
        (SP2, BILLION, (BILLION // 2,), (BILLION,), ()),
        (SP2, BILLION, (BILLION // 4, BILLION // 4), (BILLION // 2,) * 2, ((BILLION // 2, 1),)),
        (SP2, BILLION, (BILLION // 4 - 1, BILLION // 4 + 1), (BILLION // 2,) * 2, ((BILLION // 2, 0),)),
        (SO, BILLION + 1, (BILLION // 2,), (BILLION + 1,), None),
        (SO, BILLION + 1, (BILLION // 4, BILLION // 4), (BILLION // 2 + 1, BILLION // 2 - 1, 1), None),
        (SO2, BILLION, (BILLION // 2,), (BILLION - 2, 2), ()),
        (SO2, BILLION, (BILLION // 4, BILLION // 4), (BILLION // 2,) * 2, ((BILLION // 2, 0),)),
        # all-ones targets of 3,200 entries
        (SP, 6400, (1,) * 3200, (2,) * 3200, None),
        (SP2, 6400, (1,) * 3200, (2,) * 3200, ((2, 1),)),
        (SO, 6400, (1,) * 3200, (2,) * 3200, None),
        (SO, 6401, (1,) * 3200, (3,) + (2,) * 3198 + (1, 1), None),
        (SO2, 6400, (1,) * 3200, (2,) * 3200, ((2, 0),)),
    ],
)
def test_invert_large_weights_and_long_targets(family, N, target, parts, labels):
    # the parse's cost follows the target's length, not N
    nu = invert_bijection(family, N, Bipartition(target))
    got = (nu.parts, nu.labels) if family.labeled else (nu, None)
    assert got == (parts, labels)
    assert nu.weight == N and apply_bijection(family, nu) == target


WEIGHT_CAP = 60


@st.composite
def family_members(draw, family):
    """A family member of weight at most WEIGHT_CAP, random labels on its eligible values."""
    budget = WEIGHT_CAP
    parts = []
    for v in sorted(draw(st.sets(st.integers(1, WEIGHT_CAP), max_size=8)), reverse=True):
        # a multiplicity of the parity the family asks of this value
        step = 2 if (v % 2 == 0) == (family is SO) else 1
        top = budget // (v * step)
        if top:
            m = step * draw(st.integers(1, min(top, 4)))
            parts += [v] * m
            budget -= v * m
    nu = Partition(parts)
    if family.labeled:
        eligible = [v for v, g in groupby(nu) if v % 2 == 0 and len(list(g)) % 2 == 0]
        nu = LabeledPartition(nu, {v: draw(st.integers(0, 1)) for v in eligible})
    assume(in_family(family, nu))  # an even part count for Z2P
    return nu


@st.composite
def codomain_members(draw, family):
    """(N, bp) with bp drawn entry by entry from the codomain of weight-N data, N <= WEIGHT_CAP."""
    N = draw(st.integers(0, WEIGHT_CAP))
    if family is not SO:
        N -= N % 2
    excess, remaining = codomain(family, N)
    entries = []
    while remaining:
        cap = remaining
        if len(entries) >= 2:
            cap = min(cap, entries[-2])
        if entries:
            cap = min(cap, entries[-1] + excess[(len(entries) - 1) % 2])
        low = 1 if entries and entries[-1] == 0 else 0
        assume(low <= cap)  # both tracks ended before the weight was used up
        entries.append(draw(st.integers(low, cap)))
        remaining -= entries[-1]
    return N, Bipartition(entries)


@pytest.mark.parametrize("family", list(JordanFamily))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_invert_inverts_the_forward_map(family, data):
    nu = data.draw(family_members(family))
    assert invert_bijection(family, nu.weight, apply_bijection(family, nu)) == nu


@pytest.mark.parametrize("family", list(JordanFamily))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_forward_map_inverts_the_inverse(family, data):
    N, bp = data.draw(codomain_members(family))
    assert has_excess(bp, codomain(family, N)[0]) and bp.weight == N // 2
    assert apply_bijection(family, invert_bijection(family, N, bp)) == bp


# ---------------------------------------------------------------------------
# the image check: one pass, with the spelled-out checks wording each refusal


@pytest.mark.parametrize(
    "entries,half,message",
    [
        ([1, -1, 0], 0, "the symplectic_char2 map emitted a negative entry: [1, -1, 0]"),
        (
            [1, 0, 2, 0],
            3,
            "the symplectic_char2 map emitted a non-bipartition: entries at positions 1 "
            "and 3 must weakly decrease, got [1, 0, 2]",
        ),
        ([2, 1], 4, "the symplectic_char2 map emitted (2, 1), outside the stated codomain"),
        ([0, 3], 3, "the symplectic_char2 map emitted (0, 3), outside the stated codomain"),
        # with several faults, the first check in this order words the error
        ([-1, 0, 2, 0], 1, "the symplectic_char2 map emitted a negative entry: [-1, 0, 2, 0]"),
        (
            [0, 0, 1, 4],
            9,
            "the symplectic_char2 map emitted a non-bipartition: entries at positions 1 "
            "and 3 must weakly decrease, got [0, 0, 1, 4]",
        ),
    ],
    ids=["negative", "non-bipartition", "weight", "excess", "negative-first", "tracks-before-weight"],
)
def test_finish_words_each_refusal(entries, half, message):
    with pytest.raises(ConsistencyError) as failure:
        jordan._finish(entries, SP2, codomain(SP2, 0)[0], half)
    assert str(failure.value) == message


def test_finish_trims_trailing_zeros():
    bp = jordan._finish([2, 1, 0, 0], SP2, codomain(SP2, 0)[0], 3)
    assert type(bp) is Bipartition and bp == (2, 1)
    assert jordan._finish([0, 0], SP2, codomain(SP2, 0)[0], 0) == ()


def _old_image_check(entries, excess, half):
    # the checks _finish made before its one pass, in their order: the image,
    # or the words of the refusal of the first check that fails
    if any(c < 0 for c in entries):
        return "a negative entry"
    try:
        bp = Bipartition(entries)
    except DomainError:
        return "a non-bipartition"
    return bp if bp.weight == half and has_excess(bp, excess) else "outside the stated codomain"


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_finish_accepts_what_the_old_checks_accept(data):
    # raw entries, or a listed bipartition of the excess with trailing zeros
    excess = data.draw(st.sampled_from([(1, 1), (2, 2), (2, 0), (0, 2), (0, 4), (0, 0)]))
    raw = st.lists(st.integers(-2, 6), max_size=9)
    listed = st.integers(0, 7).flatmap(lambda n: st.sampled_from(enumerate_bipartitions(n, excess)))
    entries = list(data.draw(st.one_of(raw, listed))) + [0] * data.draw(st.integers(0, 2))
    half = sum(entries) + data.draw(st.sampled_from([0, 0, 0, 1, -1]))
    want = _old_image_check(entries, excess, half)
    if isinstance(want, str):
        with pytest.raises(ConsistencyError) as failure:
            jordan._finish(list(entries), SP2, excess, half)
        assert want in str(failure.value)
    else:
        got = jordan._finish(list(entries), SP2, excess, half)
        assert type(got) is Bipartition and got == want


# ---------------------------------------------------------------------------
# family rules and records built without validation


def test_family_rules_are_member_attributes():
    rules = {family: (family.paired, family.even_count, family.labeled) for family in JordanFamily}
    assert rules == {
        SP: (1, False, False),
        SP2: (1, False, True),
        SO: (0, False, False),
        SO2: (1, True, True),
    }
    assert all("labeled" in vars(family) for family in JordanFamily)


@pytest.mark.parametrize("family", list(JordanFamily))
def test_enumerate_jordan_equals_the_validating_constructors(family):
    for N in _weights(family, 16):
        for nu in enumerate_jordan(family, N):
            if family.labeled:
                built = LabeledPartition(list(nu.parts), dict(nu.labels))
                assert type(nu.parts) is Partition
            else:
                built = Partition(list(nu))
            assert type(built) is type(nu) and built == nu and repr(built) == repr(nu)
