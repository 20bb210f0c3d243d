"""The seeded sampler: determinism, family validity, and its counting DPs."""

import pytest

import sampler as S
import workloads as W


def _brute_bipartitions(n, excess):
    """Every trimmed sequence of weight n, filtered by the excess rules."""
    out = []

    def extend(prefix, rem):
        if rem == 0:
            if not prefix or prefix[-1]:
                out.append(tuple(prefix))
            return
        if prefix[-2:] == [0, 0]:
            return  # both tracks have reached zero
        for v in range(rem + 1):
            extend(prefix + [v], rem - v)

    extend([], n)
    return [bp for bp in out if S.has_excess(bp, excess)]


def _brute_partitions(n, cap=None):
    if n == 0:
        return [()]
    cap = n if cap is None else cap
    return [(v,) + rest for v in range(min(n, cap), 0, -1) for rest in _brute_partitions(n - v, v)]


@pytest.mark.parametrize("name", list(W.WORKLOADS))
def test_same_seed_same_inputs(name):
    first, second = W.make(name), W.make(name)
    for wl in (first, second):
        wl.prepare()
    assert S.digest(first.cycle(7, 0)) == S.digest(second.cycle(7, 0))
    assert S.digest(first.cycle(7, 3)) == S.digest(second.cycle(7, 3))
    assert S.digest(first.cycle(7, 0)) != S.digest(first.cycle(8, 0))


@pytest.mark.parametrize("name", list(W.WORKLOADS))
def test_cycle_shape_does_not_depend_on_seed(name):
    wl = W.make(name)
    wl.prepare()
    shapes = {tuple(sorted((op["kind"], op["expect"] == "ok") for op in wl.cycle(seed, 0))) for seed in range(5)}
    assert len(shapes) == 1


@pytest.mark.parametrize("family", S.FAMILIES)
def test_jordan_types_are_in_their_family(family):
    rng = S.rng_for("test", 1, 0)
    for weight in range(1, 41):
        if family != "Z1P" and weight % 2:
            continue
        parts, labels = S.jordan_type(rng, family, weight)
        assert sum(parts) == weight and S.in_family(family, parts, labels)
    draws = {S.canonical(S.jordan_type(rng, family, 8)) for _ in range(3000)}
    assert len(draws) == S.jordan_count(family, 8)  # every member is drawn


@pytest.mark.parametrize("series", S.SERIES)
@pytest.mark.parametrize("char", (0, 2, 3))
def test_spectral_data_keep_the_dimension_bookkeeping(series, char):
    rng = S.rng_for("test", 2, 0)
    for n in range(1, 25):
        doc = S.spectral_datum(rng, series, char, n)
        N = doc["group"]["N"]
        assert S.rank_half(series, N) == n
        total = 0
        for orbit in doc["orbits"]:
            weight = sum(orbit["parts"])
            if orbit["kind"] == "generic":
                total += weight if series == "GL" else 2 * weight
                continue
            assert series != "GL" and not (char == 2 and orbit["id"] == "-1")
            family = {"Sp": "Z1", "SO_odd": "Z1P", "SO_even": "Z1P"}[series]
            if char == 2:
                family = "Z2P" if series == "SO_even" else "Z2"
            assert S.in_family(family, orbit["parts"], orbit.get("labels"))
            if series == "SO_odd" and char != 2:
                assert weight % 2 == (orbit["id"] == "1")
            total += weight
        assert total == N - (series == "SO_odd" and char == 2)


@pytest.mark.parametrize("series", ("B", "D"))
def test_signed_cycle_types(series):
    rng = S.rng_for("test", 3, 0)
    for rank in range(0, 25):
        pos, neg = S.signed_cycle_type(rng, series, rank)
        assert sum(pos) + sum(neg) == rank
        assert series == "B" or len(neg) % 2 == 0


@pytest.mark.parametrize("excess", ((1, 1), (2, 2), (0, 4), (2, 0), (0, 2), (0, 0)))
def test_bipartition_dp_matches_brute_force(excess):
    for n in range(0, 7):
        brute = _brute_bipartitions(n, excess)
        assert S.bp_count(n, excess) == len(brute)
        assert S.n_invariant_set(n, excess) == {S.n_invariant(bp) for bp in brute}


def test_sampled_bipartitions_cover_the_codomain():
    rng = S.rng_for("test", 4, 0)
    draws = {S.sample_bipartition(rng, 4, (2, 2)) for _ in range(400)}
    assert draws == set(_brute_bipartitions(4, (2, 2)))


def test_known_counts():
    assert S.bp_count(2, (2, 2)) == 5  # the five strata of Sp_4
    assert [S.partition_count(n) for n in range(8)] == [1, 1, 2, 3, 5, 7, 11, 15]
    assert S.signed_class_count("B", 2) == 5  # classes of the hyperoctahedral group of rank 2


@pytest.mark.parametrize("family", S.FAMILIES)
def test_jordan_count_matches_brute_force(family):
    for N in range(0, 13):
        want = 0
        for p in _brute_partitions(N):
            labels = {v: 0 for v in S.eligible(list(p))} if family in S.LABELED else None
            if S.in_family(family, p, labels):
                want += 2 ** len(labels) if labels is not None else 1
        assert S.jordan_count(family, N) == want


def test_parity_rules_reject():
    assert not S.in_family("Z1", (3, 1), None)  # odd values once each
    assert not S.in_family("Z1P", (2, 1), None)  # even value once
    assert not S.in_family("Z2", (2, 2), {})  # missing label of the eligible value 2
    assert not S.in_family("Z2P", (2,), {})  # odd number of parts
    assert S.in_family("Z2P", (2, 2), {2: 1})


def test_digest_is_canonical():
    a = {"b": [1, 2], "a": (3, b"\xff")}
    b = {"a": [3, b"\xff"], "b": (1, 2)}
    assert S.digest(a) == S.digest(b)
    assert len({S.digest({"x": i}) for i in range(50)}) == 50
