"""Seeded inputs for the benchmark, built without the library under test.

Everything here is plain Python over tuples and dicts: the Jordan-type
parity rules, the bipartition counting DP and the atlas reader are the
benchmark's own, so two commits of the library receive byte-identical
inputs for the same seed.  One *cycle* is a fixed multiset of request
shapes; the seed chooses the concrete inputs and their order.  Every
workload runs whole cycles, so the mix of shapes does not depend on the
seed or on how many cycles fit into a run.
"""

from __future__ import annotations

import functools
import hashlib
import json
import random

FAMILIES = ("Z1", "Z2", "Z1P", "Z2P")
LABELED = ("Z2", "Z2P")
SERIES = ("Sp", "SO_odd", "SO_even", "GL")

# a prime above 10^12: accepted as a characteristic, but checked by trial division
BIG_PRIME = 1000000000039

_BIG = 1 << 30


def rng_for(workload: str, seed: int, cycle: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{cycle}")


def canonical(obj) -> str:
    """Canonical JSON text of plain data; bytes appear as hex."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), default=_hex_bytes)


def digest(obj) -> str:
    return hashlib.sha256(canonical(obj).encode()).hexdigest()


def _hex_bytes(obj):
    if isinstance(obj, bytes):
        return obj.hex()
    raise TypeError(f"cannot serialise {obj!r}")


# ---------------------------------------------------------------------------
# the paper's combinatorics, restated for inputs and for checking outputs


def stratum_excess(series: str) -> tuple[int, int]:
    """Excess of the stratum labels; GL labels are partitions, excess (0, 0)."""
    return {"GL": (0, 0), "SO_even": (0, 4)}.get(series, (2, 2))


def rank_half(series: str, dimension: int) -> int:
    if series == "GL":
        return dimension
    return (dimension - 1) // 2 if series == "SO_odd" else dimension // 2


def positive_roots(series: str, n: int) -> int:
    if series == "GL":
        return n * (n - 1) // 2
    return n * n - n if series == "SO_even" else n * n


def codomain(family: str, N: int) -> tuple[tuple[int, int], int]:
    """Excess and weight of the image of weight-N data of a family."""
    if family == "Z1":
        return (1, 1), N // 2
    if family == "Z2":
        return (2, 2), N // 2
    if family == "Z1P":
        return ((2, 0), (N - 1) // 2) if N % 2 else ((0, 2), N // 2)
    return (0, 4), N // 2


def eligible(parts) -> list[int]:
    """Even values of positive even multiplicity, descending."""
    return sorted({v for v in parts if v % 2 == 0 and parts.count(v) % 2 == 0}, reverse=True)


def in_family(family: str, parts, labels) -> bool:
    """The family's parity rules on a raw Jordan type (weight included)."""
    parts = list(parts)
    if parts != sorted(parts, reverse=True) or any(v <= 0 for v in parts):
        return False
    if (labels is not None) != (family in LABELED):
        return False
    paired_parity = 0 if family == "Z1P" else 1  # values that must come in pairs
    if any(v % 2 == paired_parity and parts.count(v) % 2 for v in set(parts)):
        return False
    if family != "Z1P" and sum(parts) % 2:
        return False
    if family == "Z2P" and len(parts) % 2:
        return False
    if labels is not None:
        return sorted(labels) == sorted(eligible(parts)) and set(labels.values()) <= {0, 1}
    return True


def has_excess(bp, excess) -> bool:
    """Whether bp is a bipartition (both tracks weakly decrease) of the excess."""
    if any(c < 0 for c in bp):
        return False
    if any(bp[i] < bp[i + 2] for i in range(len(bp) - 2)):
        return False
    return all(bp[i] + excess[i % 2] >= bp[i + 1] for i in range(len(bp) - 1))


def n_invariant(bp) -> int:
    """Sum over stored entries k of (weight - c1 - ... - ck)."""
    rem, total = sum(bp), 0
    for c in bp:
        rem -= c
        total += rem
    return total


def _caps(rem, a, b, odd, excess):
    # entries after the previous one at an odd position may climb by e, else by e'
    return min(rem, a, b + excess[0 if odd else 1])


@functools.lru_cache(maxsize=None)
def _bp_count(rem, a, b, odd, excess):
    if rem == 0:
        return 1
    if a == 0 and b == 0:
        return 0
    return sum(
        _bp_count(rem - v, b, v, not odd, excess)
        for v in range(_caps(rem, a, b, odd, excess), -1, -1)
    )


def bp_count(n: int, excess) -> int:
    """|BP(n; e, e')| by a DP over (remaining weight, last two entries, parity)."""
    return _bp_count(n, _BIG, _BIG, False, tuple(excess))


@functools.lru_cache(maxsize=None)
def _ninv_set(rem, a, b, odd, excess):
    if rem == 0:
        return frozenset((0,))
    if a == 0 and b == 0:
        return frozenset()
    out = set()
    for v in range(_caps(rem, a, b, odd, excess), -1, -1):
        out.update(rem - v + s for s in _ninv_set(rem - v, b, v, not odd, excess))
    return frozenset(out)


def n_invariant_set(n: int, excess) -> frozenset:
    """The n-invariants over BP(n; e, e'), without listing the bipartitions."""
    return _ninv_set(n, _BIG, _BIG, False, tuple(excess))


def sample_bipartition(rng: random.Random, n: int, excess) -> tuple[int, ...]:
    """A uniformly random element of BP(n; e, e'), drawn through the counting DP."""
    excess = tuple(excess)
    out, rem, a, b, odd = [], n, _BIG, _BIG, False
    while rem:
        choices = range(_caps(rem, a, b, odd, excess), -1, -1)
        weights = [_bp_count(rem - v, b, v, not odd, excess) for v in choices]
        v = rng.choices(choices, weights)[0]
        out.append(v)
        rem, a, b, odd = rem - v, b, v, not odd
    return tuple(out)


# Partitions counted by multiplicity, part value by part value.  Besides the
# four Jordan families, "P" is every partition and "P_even" every partition
# with an even number of parts (the negative cycles of type D classes).
_PAIRED = {"Z1": 1, "Z2": 1, "Z2P": 1, "Z1P": 0}  # parity of values whose multiplicity must be even
_EVEN_PART_COUNT = ("Z2P", "P_even")


def _ways(family: str, v: int, m: int) -> int:
    """Members contributed by m parts equal to v: 0 if forbidden, 2 if v carries a label."""
    if v % 2 == _PAIRED.get(family, -1) and m % 2:
        return 0
    return 2 if family in LABELED and v % 2 == 0 and m and m % 2 == 0 else 1


@functools.lru_cache(maxsize=None)
def _count(family: str, v: int, rem: int, parity: int) -> int:
    """Ways to fill weight rem with parts <= v, given the parity of the parts so far."""
    if v == 0:
        return int(rem == 0 and (family not in _EVEN_PART_COUNT or parity == 0))
    return sum(
        _ways(family, v, m) * _count(family, v - 1, rem - m * v, parity ^ (m & 1)) for m in range(rem // v + 1)
    )


def partition_count(n: int, even_parts: bool = False) -> int:
    return _count("P_even" if even_parts else "P", n, n, 0)


def jordan_count(family: str, N: int) -> int:
    """Members of a family of weight N, each labeling counted once."""
    return _count(family, N, N, 0)


def signed_class_count(series: str, rank: int) -> int:
    """Signed cycle types of the given rank (type D: even number of negative cycles)."""
    return sum(partition_count(a) * partition_count(rank - a, series == "D") for a in range(rank + 1))


# ---------------------------------------------------------------------------
# random objects


def jordan_type(rng: random.Random, family: str, weight: int):
    """A uniformly random member of the family of the given weight: (parts, labels or None)."""
    parts, rem, parity = [], weight, 0
    for v in range(weight, 0, -1):
        if rem == 0:
            break
        choices = range(rem // v + 1)
        weights = [_ways(family, v, m) * _count(family, v - 1, rem - m * v, parity ^ (m & 1)) for m in choices]
        m = rng.choices(choices, weights)[0]
        parts += [v] * m
        rem, parity = rem - m * v, parity ^ (m & 1)
    labels = {v: rng.randint(0, 1) for v in eligible(parts)} if family in LABELED else None
    return tuple(parts), labels


def partition(rng: random.Random, n: int, even_parts: bool = False) -> tuple[int, ...]:
    """A uniformly random partition of n (with an even number of parts if asked)."""
    return jordan_type(rng, "P_even" if even_parts else "P", n)[0]


def composition(rng: random.Random, total: int, k: int) -> list[int]:
    """total split into k positive parts (k <= total)."""
    cuts = sorted(rng.sample(range(1, total), k - 1))
    return [b - a for a, b in zip([0] + cuts, cuts + [total])]


def _orbit(ident, kind, parts, labels=None) -> dict:
    orbit = {"id": ident, "kind": kind, "parts": list(parts)}
    if labels is not None:
        orbit["labels"] = labels
    return orbit


def spectral_datum(rng: random.Random, series: str, char: int, n: int) -> dict:
    """A valid spectral datum document of rank n (label weight n), in CLI form."""
    if series == "GL":
        weights = composition(rng, n, rng.randint(1, min(3, n)))
        orbits = [_orbit(f"g{i}", "generic", partition(rng, w)) for i, w in enumerate(weights)]
        return {"group": {"series": series, "N": n, "char": char}, "orbits": orbits}
    N = 2 * n + 1 if series == "SO_odd" else 2 * n
    generic = rng.randint(0, n // 2)
    weights = composition(rng, generic, rng.randint(1, min(2, generic))) if generic else []
    orbits = [_orbit(f"g{i}", "generic", partition(rng, w)) for i, w in enumerate(weights)]
    rest = N - 2 * generic
    if char == 2:
        # SO_odd in characteristic 2 is classified through Sp on N - 1
        family = "Z2P" if series == "SO_even" else "Z2"
        split = [(rest - (series == "SO_odd"), "1")]
    elif series == "SO_odd":
        family, w1 = "Z1P", 2 * rng.randint(0, (rest - 1) // 2) + 1
        split = [(w1, "1"), (rest - w1, "-1")]
    else:
        family, w1 = ("Z1" if series == "Sp" else "Z1P"), 2 * rng.randint(0, rest // 2)
        split = [(w1, "1"), (rest - w1, "-1")]
    for w, ident in split:
        if w:
            orbits.append(_orbit(ident, "involutive", *jordan_type(rng, family, w)))
    rng.shuffle(orbits)
    return {"group": {"series": series, "N": N, "char": char}, "orbits": orbits}


def signed_cycle_type(rng: random.Random, series: str, rank: int):
    """A uniformly random class: (positive cycles, negative cycles); type D has an even number of negative ones."""
    even = series == "D"
    sizes = range(rank + 1)
    a = rng.choices(sizes, [partition_count(a) * partition_count(rank - a, even) for a in sizes])[0]
    return partition(rng, a), partition(rng, rank - a, even)


# ---------------------------------------------------------------------------
# the exceptional tables, read straight from the data file


def read_atlas(path: str) -> list[dict]:
    """Rows of the atlas file: group, rep (d, n, star, synthetic id), classes."""
    rows = []
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            fields = line.strip().split("|")
            if fields[0] == "row":
                _, group, d, n, star, sid, classes, _note = fields
                rows.append({
                    "group": group,
                    "rep": [int(d), int(n), int(star), int(sid)],
                    "classes": classes.split(","),
                })
    return rows


def class_index(rows: list[dict]) -> dict[tuple[str, str], list[list[int]]]:
    """(group, class) -> reps of every row naming the class."""
    index: dict[tuple[str, str], list[list[int]]] = {}
    for row in rows:
        for label in row["classes"]:
            index.setdefault((row["group"], label), []).append(row["rep"])
    return index


def rows_for_char(rows: list[dict], group: str, char) -> list[dict]:
    """Rows of one group that `tables --char` keeps: unstarred, or starred for char."""
    return [r for r in rows if r["group"] == group and (char is None or r["rep"][2] in (0, char))]
