import gc
import hashlib
import importlib.util
import random
from itertools import count, product, zip_longest
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weylstrata.enumeration import (
    _SHARED_WEIGHT,
    _enumerate,
    count_bipartitions,
    enumerate_bipartitions,
    enumerate_partitions,
    n_invariant_set,
)
from weylstrata.errors import DomainError
from weylstrata.partitions import (
    Bipartition,
    Excess,
    Partition,
    bp_sum,
    has_excess,
    n_invariant,
    parse_entries,
)


# ---------------------------------------------------------------------------
# Brute-force oracle: enumerate every nonnegative sequence of a given weight
# (length at most 2n suffices: each track dies after its first zero) and
# filter by the definition directly.  Independent of the library's generator.


def _oracle_sequences(n, max_len):
    if n == 0:
        yield ()
        return
    stack = [((), n)]
    while stack:
        prefix, rem = stack.pop()
        if rem == 0:
            yield prefix
            continue
        if len(prefix) == max_len:
            continue
        for v in range(rem + 1):
            if v == 0 and len(prefix) + 1 == max_len:
                continue
            stack.append((prefix + (v,), rem - v))


def _oracle_is_bipartition(seq):
    return all(seq[i] >= seq[i + 2] for i in range(len(seq) - 2))


def _oracle_has_excess(seq, e, ep):
    for i in range(len(seq) - 1):
        slack = e if i % 2 == 0 else ep
        if seq[i] + slack < seq[i + 1]:
            return False
    return True


def _oracle_bipartitions(n, e, ep):
    found = set()
    for seq in _oracle_sequences(n, 2 * n):
        if seq and seq[-1] == 0:
            continue
        if _oracle_is_bipartition(seq) and _oracle_has_excess(seq, e, ep):
            found.add(seq)
    return found


def _random_bipartition(rng, max_weight):
    # interleave two random partitions; always a valid bipartition
    def rand_partition(w):
        parts = []
        while w > 0:
            p = rng.randint(1, w)
            parts.append(p)
            w -= p
        return sorted(parts, reverse=True)

    w = rng.randint(0, max_weight)
    odd = rand_partition(rng.randint(0, w))
    even = rand_partition(w - sum(odd))
    entries = []
    for a, b in zip_longest(odd, even, fillvalue=0):
        entries.extend((a, b))
    return Bipartition(entries)


def _minimal_excess(bp):
    e = max((bp[i + 1] - bp[i] for i in range(0, len(bp) - 1, 2)), default=0)
    ep = max((bp[i + 1] - bp[i] for i in range(1, len(bp) - 1, 2)), default=0)
    return Excess(max(e, 0), max(ep, 0))


# ---------------------------------------------------------------------------
# Partition


def test_partition_trims_trailing_zeros():
    assert Partition([3, 1, 0, 0]) == (3, 1)
    assert Partition([]) == ()
    assert Partition([0, 0]) == ()


def test_partition_rejects_bad_input():
    with pytest.raises(DomainError):
        Partition([1, 2])
    with pytest.raises(DomainError):
        Partition([2, -1])
    with pytest.raises(DomainError):
        Partition([2, 0, 1])


def test_partition_weight_and_multiplicity():
    p = Partition([4, 2, 2, 1])
    assert p.weight == 9
    assert p.count(2) == 2
    assert p.count(3) == 0


def test_partition_conjugate():
    assert Partition([4, 2, 1]).conjugate() == (3, 2, 1, 1)
    assert Partition([1, 1, 1]).conjugate() == (3,)
    assert Partition().conjugate() == ()
    for p in enumerate_partitions(9):
        assert p.conjugate().conjugate() == p


def test_enumerate_partitions_counts():
    # classical values of the partition function
    expected = {0: 1, 1: 1, 2: 2, 3: 3, 4: 5, 5: 7, 6: 11, 7: 15, 10: 42}
    for n, count in expected.items():
        assert len(enumerate_partitions(n)) == count


def test_enumerate_partitions_order_is_lex_descending():
    ps = enumerate_partitions(6)
    assert ps[0] == (6,)
    assert ps[-1] == (1, 1, 1, 1, 1, 1)
    assert list(ps) == sorted(ps, reverse=True)


# ---------------------------------------------------------------------------
# Bipartition basics


def test_bipartition_canonical_form():
    assert Bipartition([2, 1, 0, 0]) == (2, 1)
    assert Bipartition([1, 0, 1, 0]) == (1, 0, 1)
    assert Bipartition([]) == ()
    # interior zeros are significant
    assert Bipartition([1, 0, 1]) != Bipartition([1, 1])


def test_bipartition_rejects_track_violations():
    with pytest.raises(DomainError):
        Bipartition([0, 1, 1])  # odd track (0, 1) climbs
    assert Bipartition([1, 2, 0, 1]) == (1, 2, 0, 1)
    assert Bipartition([0, 1]) == (0, 1)
    with pytest.raises(DomainError):
        Bipartition([1, 1, 2])
    with pytest.raises(DomainError):
        Bipartition([1, -1])
    # the constructor accepts exactly the nonnegative sequences the oracle accepts
    for seq in (s for length in range(6) for s in product(range(3), repeat=length)):
        try:
            Bipartition(seq)
        except DomainError:
            assert not _oracle_is_bipartition(seq), seq
        else:
            assert _oracle_is_bipartition(seq), seq


# (make, code, message)
_REFUSALS = [
    (lambda: Partition([1, 2]), "bad_partition", "partition parts must weakly decrease, got [1, 2]"),
    (lambda: Partition([2, -1]), "bad_partition", "partition parts must be positive, got -1 in [2, -1]"),
    (lambda: Partition([2, 1.5]), "bad_entries", "entries must be integers, got 1.5"),
    (
        lambda: Bipartition([1, 1, 2]),
        "bad_bipartition",
        "entries at positions 1 and 3 must weakly decrease, got [1, 1, 2]",
    ),
    (lambda: Bipartition([1, -1]), "bad_bipartition", "bipartition entries must be nonnegative, got [1, -1]"),
    (lambda: Bipartition([True]), "bad_entries", "entries must be integers, got True"),
    (
        lambda: has_excess(Bipartition([1]), (-1, 0)),
        "bad_excess",
        "excess components must be nonnegative, got Excess(e=-1, e_prime=0)",
    ),
    (lambda: has_excess(Bipartition([1]), "x"), "bad_excess", "excess must be a pair of integers, got 'x'"),
    (lambda: n_invariant(Bipartition(), -1), "bad_weight", "half must be nonnegative, got -1"),
    (lambda: enumerate_partitions(-1), "bad_weight", "weight must be nonnegative, got -1"),
    # a weight is an int and not a bool, as in the Jordan maps
    (lambda: enumerate_partitions(True), "bad_weight", "weight must be an integer, got True"),
    (lambda: enumerate_bipartitions(3.0, (2, 2)), "bad_weight", "weight must be an integer, got 3.0"),
    (lambda: count_bipartitions(4.5, (2, 2)), "bad_weight", "weight must be an integer, got 4.5"),
    (lambda: n_invariant_set(2.0, (0, 0)), "bad_weight", "weight must be an integer, got 2.0"),
    (lambda: enumerate_partitions("4"), "bad_weight", "weight must be an integer, got '4'"),
    (lambda: count_bipartitions(None, (2, 2)), "bad_weight", "weight must be an integer, got None"),
    # a plain list is read as a Bipartition first
    (
        lambda: has_excess([1, 1, 2], (0, 0)),
        "bad_bipartition",
        "entries at positions 1 and 3 must weakly decrease, got [1, 1, 2]",
    ),
    (
        lambda: n_invariant([1, 1, 2], 4),
        "bad_bipartition",
        "entries at positions 1 and 3 must weakly decrease, got [1, 1, 2]",
    ),
    # an excess is exactly two components, each an int and not a bool
    (
        lambda: enumerate_bipartitions(3, (1.9, 0.5)),
        "bad_excess",
        "excess must be a pair of integers, got (1.9, 0.5)",
    ),
    (lambda: has_excess(Bipartition([1]), ("1", True)), "bad_excess", "excess must be a pair of integers, got ('1', True)"),
    (lambda: has_excess(Bipartition([1]), (1, True)), "bad_excess", "excess must be a pair of integers, got (1, True)"),
    (lambda: has_excess(Bipartition([1]), (1, 1, 5)), "bad_excess", "excess must be a pair of integers, got (1, 1, 5)"),
    (lambda: has_excess(Bipartition([1]), (1,)), "bad_excess", "excess must be a pair of integers, got (1,)"),
    (lambda: count_bipartitions(4, [2.9, 2.9]), "bad_excess", "excess must be a pair of integers, got [2.9, 2.9]"),
    (lambda: count_bipartitions(4, None), "bad_excess", "excess must be a pair of integers, got None"),
    (lambda: has_excess(Bipartition([1]), "12"), "bad_excess", "excess must be a pair of integers, got '12'"),
    # an iterator is refused without being read, so an endless one too
    (lambda: count_bipartitions(4, count()), "bad_excess", "excess must be a pair of integers, got count(0)"),
    # the n-invariant's weight is an int and not a bool, as every other weight
    (lambda: n_invariant(Bipartition([2, 1, 1]), "4"), "bad_weight", "half must be an integer, got '4'"),
    (lambda: n_invariant(Bipartition([1, 1]), 2.0), "bad_weight", "half must be an integer, got 2.0"),
    (lambda: n_invariant(Bipartition([1]), True), "bad_weight", "half must be an integer, got True"),
]
_REFUSAL_MESSAGE = {make: message for make, _, message in _REFUSALS}


@pytest.mark.parametrize("make,code", [row[:2] for row in _REFUSALS])
def test_refusal_codes(make, code):
    with pytest.raises(DomainError) as err:
        make()
    assert (err.value.code, str(err.value)) == (code, _REFUSAL_MESSAGE[make])


# ---------------------------------------------------------------------------
# The constructors against their per-entry loops, kept here as the reference:
# the same entries accepted, and each refusal with the same code and message.


def _reference_int_seq(seq):
    out = list(seq)
    for x in out:
        if type(x) is not int and (isinstance(x, bool) or not isinstance(x, int)):
            raise DomainError(f"entries must be integers, got {x!r}", code="bad_entries")
    return out


def _reference_bipartition(entries):
    data = _reference_int_seq(entries)
    while data and data[-1] == 0:
        data.pop()
    for x in data:
        if x < 0:
            raise DomainError(f"bipartition entries must be nonnegative, got {data}", code="bad_bipartition")
    for i in range(len(data) - 2):
        if data[i] < data[i + 2]:
            raise DomainError(
                f"entries at positions {i + 1} and {i + 3} must weakly decrease, got {data}",
                code="bad_bipartition",
            )
    return data


def _reference_partition(parts):
    data = _reference_int_seq(parts)
    while data and data[-1] == 0:
        data.pop()
    for i, x in enumerate(data):
        if x <= 0:
            raise DomainError(f"partition parts must be positive, got {x} in {data}", code="bad_partition")
        if i > 0 and data[i - 1] < x:
            raise DomainError(f"partition parts must weakly decrease, got {data}", code="bad_partition")
    return data


class _Int(int):
    """An int subclass: the constructors take it as an entry, and keep it."""


_DESCENDING = st.lists(st.integers(0, 6), max_size=9).map(lambda xs: sorted(xs, reverse=True))
_TRACKS = st.tuples(_DESCENDING, _DESCENDING).map(
    lambda t: [x for pair in zip_longest(*t, fillvalue=0) for x in pair]
)
_ENTRY = st.one_of(st.integers(-2, 7), st.booleans(), st.integers(-1, 7).map(_Int), st.just(1.0))


@st.composite
def _entry_lists(draw):
    """Valid partitions and bipartitions, some with one entry changed, and arbitrary lists."""
    entries = draw(st.one_of(_DESCENDING, _TRACKS, st.lists(_ENTRY, max_size=9)))
    if entries and draw(st.booleans()):  # a negative, an interior zero, a climb or a non-int
        entries[draw(st.integers(0, len(entries) - 1))] = draw(_ENTRY)
    return entries


def _construct(make, entries):
    try:
        out = make(list(entries))
    except DomainError as err:
        return err.code, str(err)
    return tuple(out), [type(x) for x in out]


@pytest.mark.parametrize("make, reference", [(Bipartition, _reference_bipartition), (Partition, _reference_partition)])
@settings(max_examples=400, deadline=None)
@given(_entry_lists())
def test_constructors_agree_with_the_per_entry_loops(make, reference, entries):
    assert _construct(make, entries) == _construct(reference, entries)


@pytest.mark.parametrize(
    "text,entries",
    [
        ("", []),
        ("  ", []),
        ("3", [3]),
        ("2,0,1", [2, 0, 1]),
        (" 1 , +2,-3 ", [1, 2, -3]),
        ("\t7\n,007", [7, 7]),
        ("\u20033\u2003", [3]),  # non-ASCII whitespace around a piece, as int() strips it
    ],
)
def test_parse_entries_reads_signed_ascii_integers(text, entries):
    assert parse_entries(text) == entries


@pytest.mark.parametrize(
    "text",
    ["1_0", "\u0663", "\uff13", "1,\u0663", "2,,1", ",3", "3,", "x", "+", "-", "+-3", "3.0", "0x3",
     "1 0", "\x1c3"],
)
def test_parse_entries_refuses_anything_else(text):
    with pytest.raises(DomainError) as err:
        parse_entries(text)
    assert err.value.code == "parse_error"


def test_pair_swapped_and_symmetry():
    assert Bipartition([2, 1]).pair_swapped() == (1, 2)
    assert Bipartition([1, 0, 1]).pair_swapped() == (0, 1, 0, 1)
    assert Bipartition([2, 2, 1, 1]).is_pair_symmetric
    assert not Bipartition([2, 1]).is_pair_symmetric
    assert Bipartition().is_pair_symmetric


def test_pair_symmetry_is_fixed_by_pair_swap():
    for n in range(13):
        for x in ((2, 2), (0, 4)):
            for bp in enumerate_bipartitions(n, x):
                assert bp.is_pair_symmetric == (bp == bp.pair_swapped()), bp


def test_pair_swapped_is_involution():
    rng = random.Random(11)
    for _ in range(200):
        bp = _random_bipartition(rng, 10)
        swapped = bp.pair_swapped()
        assert swapped.pair_swapped() == bp
        assert swapped.weight == bp.weight


# ---------------------------------------------------------------------------
# Excess


def test_has_excess_examples():
    assert has_excess(Bipartition([0, 2]), (2, 2))
    assert not has_excess(Bipartition([0, 2]), (0, 2))
    assert has_excess(Bipartition([3]), (0, 0))
    assert has_excess(Bipartition(), (0, 0))
    assert has_excess(Bipartition([1, 0, 1]), (0, 4))
    # a plain list is read as the Bipartition it spells
    assert has_excess([0, 2], (2, 2)) and not has_excess([0, 2], (0, 2))


def test_has_excess_matches_oracle():
    rng = random.Random(7)
    for _ in range(300):
        bp = _random_bipartition(rng, 8)
        e, ep = rng.randint(0, 3), rng.randint(0, 3)
        assert has_excess(bp, (e, ep)) == _oracle_has_excess(bp, e, ep)


def test_excess_rejects_negative():
    with pytest.raises(DomainError):
        has_excess(Bipartition([1]), (-1, 0))


# ---------------------------------------------------------------------------
# Enumeration of bipartitions


def test_enumerate_bipartitions_weight_two():
    got = enumerate_bipartitions(2, (2, 2))
    assert set(got) == {(2,), (1, 1), (0, 2), (1, 0, 1), (0, 1, 0, 1)}
    assert len(got) == 5
    # canonical order: lexicographically descending
    assert list(got) == sorted(got, reverse=True)


def test_enumerate_bipartitions_zero_excess_is_partitions():
    for n in range(17):
        bps = enumerate_bipartitions(n, (0, 0))
        ps = enumerate_partitions(n)
        assert [tuple(b) for b in bps] == [tuple(p) for p in ps]


def test_enumerate_bipartitions_empty_weight():
    assert enumerate_bipartitions(0, (2, 2)) == (Bipartition(),)


def test_enumerate_bipartitions_matches_oracle():
    # one-sided slacks ((1, 0), (0, 3), ...) decide on their own whether a
    # zero entry can be followed by a positive one
    excesses = [(0, 0), (1, 1), (2, 2), (2, 0), (0, 2), (0, 4), (1, 0), (0, 1), (3, 0), (0, 3)]
    for n in range(7):
        for x in excesses:
            got = enumerate_bipartitions(n, x)
            assert list(got) == sorted(set(got), reverse=True)
            assert {tuple(b) for b in got} == _oracle_bipartitions(n, *x)


def test_enumeration_digests():
    # order-sensitive fingerprint of both enumerators, types included
    h = hashlib.sha256()
    for n in range(21):
        for p in enumerate_partitions(n):
            h.update(f"{type(p).__name__} {n}: {list(p)}\n".encode())
    for n in range(11):
        for e in range(5):
            for ep in range(5):
                for bp in enumerate_bipartitions(n, (e, ep)):
                    h.update(f"{type(bp).__name__} {n} ({e}, {ep}): {list(bp)}\n".encode())
    assert h.hexdigest() == "2076824fe36079cc2c264bb8e3cedbefc19b724e256b921cf31a9733782af6e7"


def _reference_enumerate(n, x, cls):
    # the generator before leaves were emitted from their parent's call: one
    # call per entry, the weight left checked at the top of each
    e, ep = x
    out, prefix = [], []

    def extend(remaining, track_cap, prev, slack, next_slack):
        if remaining == 0:
            out.append(cls(prefix))
            return
        stop = -1 if next_slack > 0 and prev > 0 else 0
        for v in range(min(remaining, track_cap, prev + slack), stop, -1):
            prefix.append(v)
            extend(remaining - v, prev, v, next_slack, slack)
            prefix.pop()

    extend(n, n, n, ep, e)
    return tuple(out)


def test_enumeration_matches_the_one_call_per_entry_reference():
    # past _SHARED_WEIGHT for the three excesses of the strata, so that labels
    # are built from a prefix and a shared completion
    assert _SHARED_WEIGHT < 22
    for x, top in [((0, 0), 23), ((2, 2), 23), ((0, 4), 23), ((1, 3), 15), ((3, 0), 15), ((1, 0), 15), ((0, 1), 15)]:
        for n in range(top):
            for cls in (Bipartition, Partition) if x == (0, 0) else (Bipartition,):
                got = _enumerate(n, x, cls)
                assert got == _reference_enumerate(n, x, cls), (n, x)
                assert {type(bp) for bp in got} == {cls}


def test_listing_and_counting_leave_no_cycles():
    # each call's memos are freed on return, not left to the cyclic collector
    gc.collect()
    gc.disable()
    try:
        enumerate_bipartitions(20, (2, 2))
        enumerate_partitions(24)
        count_bipartitions(40, (2, 2))
        n_invariant_set(40, (0, 4))
        assert gc.collect() == 0
    finally:
        gc.enable()


_DP_EXCESSES = [(0, 0), (2, 2), (0, 4), (1, 3), (3, 0)]


def test_counts_and_n_invariant_sets_match_the_enumeration():
    # the enumeration is the oracle of the DP that lists nothing
    for n in range(17):
        for x in _DP_EXCESSES:
            bps = enumerate_bipartitions(n, x)
            assert count_bipartitions(n, x) == len(bps), (n, x)
            assert n_invariant_set(n, x) == {n_invariant(bp, n) for bp in bps}, (n, x)


def _benchmark_sampler():
    # perfbench/sampler.py has its own counting DPs, written apart from the library;
    # it is read from its file, since perfbench is not a package of the library
    path = Path(__file__).resolve().parents[1] / "perfbench" / "sampler.py"
    spec = importlib.util.spec_from_file_location("perfbench_sampler", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_counts_and_n_invariant_sets_match_the_samplers_dp_past_the_enumeration():
    sampler = _benchmark_sampler()
    for n in [*range(17, 25), 32]:
        for x in _DP_EXCESSES:
            assert count_bipartitions(n, x) == sampler.bp_count(n, x), (n, x)
            assert n_invariant_set(n, x) == sampler.n_invariant_set(n, x), (n, x)


def test_counts_past_the_enumeration():
    # the partition numbers, and the CLI's refusals of Sp_120 and GL_80
    assert [count_bipartitions(n, (0, 0)) for n in range(11)] == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]
    assert count_bipartitions(100, (0, 0)) == 190569292
    assert count_bipartitions(60, (2, 2)) == 239872923
    assert count_bipartitions(80, (0, 0)) == 15796476


@pytest.mark.parametrize("call", [count_bipartitions, n_invariant_set])
def test_dp_refusals(call):
    with pytest.raises(DomainError) as err:
        call(-1, (2, 2))
    assert err.value.code == "bad_weight"
    with pytest.raises(DomainError) as err:
        call(3, (1, -1))
    assert err.value.code == "bad_excess"


def test_enumerate_bipartitions_membership_postconditions():
    for n in range(9):
        for x in [(1, 1), (2, 2), (2, 0), (0, 2), (0, 4)]:
            for bp in enumerate_bipartitions(n, x):
                assert bp.weight == n
                assert has_excess(bp, x)


def test_enumerate_bipartitions_monotone_in_excess():
    # larger slack can only enlarge the set
    for n in range(10):
        small = set(enumerate_bipartitions(n, (1, 1)))
        large = set(enumerate_bipartitions(n, (2, 2)))
        assert small <= large
        assert set(enumerate_bipartitions(n, (0, 2))) <= set(
            enumerate_bipartitions(n, (0, 4))
        )


# ---------------------------------------------------------------------------
# Sum


def test_bp_sum_examples():
    assert bp_sum(Bipartition([2, 1]), Bipartition([1])) == (3, 1)
    assert bp_sum(Bipartition([1, 0, 1]), Bipartition()) == (1, 0, 1)
    assert bp_sum(Bipartition([0, 1]), Bipartition([0, 1])) == (0, 2)


@given(
    st.integers(0, 1 << 30),
    st.integers(0, 1 << 30),
    st.integers(0, 1 << 30),
)
def test_bp_sum_algebra(seed_a, seed_b, seed_c):
    a = _random_bipartition(random.Random(seed_a), 9)
    b = _random_bipartition(random.Random(seed_b), 9)
    c = _random_bipartition(random.Random(seed_c), 9)
    assert bp_sum(a, b) == bp_sum(b, a)
    assert bp_sum(a, bp_sum(b, c)) == bp_sum(bp_sum(a, b), c)
    assert bp_sum(a, Bipartition()) == a
    assert bp_sum(a, b).weight == a.weight + b.weight


def test_excess_additivity_on_random_pairs():
    # minimal excesses of summands add up to a valid excess of the sum
    rng = random.Random(2026)
    for _ in range(1000):
        a = _random_bipartition(rng, 12)
        b = _random_bipartition(rng, 12)
        xa, xb = _minimal_excess(a), _minimal_excess(b)
        assert has_excess(a, xa) and has_excess(b, xb)
        assert has_excess(bp_sum(a, b), (xa.e + xb.e, xa.e_prime + xb.e_prime))


# ---------------------------------------------------------------------------
# n-invariant


def test_n_invariant_examples():
    assert n_invariant(Bipartition([2]), 2) == 0
    assert n_invariant(Bipartition([1, 1]), 2) == 1
    assert n_invariant(Bipartition([0, 1, 0, 1]), 2) == 4
    assert n_invariant(Bipartition(), 0) == 0
    assert n_invariant([0, 1, 0, 1], 2) == 4


def test_n_invariant_rejects_weight_mismatch():
    with pytest.raises(DomainError):
        n_invariant(Bipartition([2]), 3)
    with pytest.raises(DomainError):
        n_invariant(Bipartition([2]), -1)


def test_n_invariant_reindexing_oracle():
    # sum of (k-1) * c_k over 1-based positions equals the partial-sum form
    for n in range(13):
        for bp in enumerate_bipartitions(n, (n, n)):
            expected = sum(k * c for k, c in enumerate(bp))
            assert n_invariant(bp, n) == expected


def test_n_invariant_zero_iff_single_entry():
    for n in range(1, 13):
        for bp in enumerate_bipartitions(n, (n, n)):
            if n_invariant(bp, n) == 0:
                assert bp == (n,)


@settings(max_examples=200)
@given(st.integers(0, 1 << 30))
def test_n_invariant_nonnegative(seed):
    bp = _random_bipartition(random.Random(seed), 14)
    assert n_invariant(bp, bp.weight) >= 0
