"""Conjugacy classes of classical Weyl groups and their map onto strata.

Classes of the symmetric group (type A) are partitions of n+1.  Classes of
the hyperoctahedral group (type B, equal to type C) are signed cycle types:
a pair of partitions (positive cycles; negative cycles) of total weight n.
Type D classes are the signed cycle types with an even number of negative
cycles; the two classes into which an all-positive, all-even cycle type
splits inside the rotation subgroup are represented by the single unsplit
pair, since every quantity computed here agrees on the two halves.

``parse_class`` reads a class of a given Weyl type from text: cycle lengths
"3,1,1" in type A, and positive and negative cycle lengths "3,1;2" in types
B/C/D, either side possibly empty.  Both sides follow the one rule of type
A: comma-separated positive integers in any order, empty text for no
cycles.  An empty or non-integer piece is a parse_error, a length of 0 or
less a bad_class, and the class is then checked against the type.

The map onto strata goes through a labeled Jordan type: a positive cycle of
length l contributes two parts l, a negative cycle of length l contributes
one part 2l, and an eligible even value 2l is labeled 1 exactly when l
occurs among the negative cycle lengths (negative cycles are the ones whose
point orbits are stable under the sign-flip involution, hence commute with
it).  Composing with the characteristic-2 unipotent bijections lands in the
stratum sets: excess (2, 2) in weight n for type B, excess (0, 4) for type
D.  For type A the class partition itself is the stratum label.  Which
bijection serves a type is read from ``classical``: the characteristic-2
family of the group, GL_{r+1}, Sp_{2r} or SO_{2r}, that ``_GROUP_SERIES``
assigns to the Weyl series.  So in types B and D the map factors through
the labeled Jordan type, and the bijection after it is one-to-one: a fiber
is the set of classes sharing one Jordan type, and ``strata_fibers``
rewrites each Jordan type once, one rewrite per fiber.

Each class also carries the dimension m of the fixed space of a
representative on the reflection representation: parts minus one in type A,
the number of positive cycles in types B and D.  Within each fiber of the
stratum map the minimizer of m is unique and is returned as the fiber's
cross-section; a tie would falsify that uniqueness and raises a
ConsistencyError with the code cross_section_tie, from the one rule
``errors.unique_minimizer`` that the exceptional atlas shares.
"""

from __future__ import annotations

import enum
from typing import NamedTuple, Union

from .classical import GroupDescriptor, Series, _involutive_family
from .errors import ConsistencyError, DomainError, Record, _check_int, unique_minimizer
from .jordan import JordanFamily, LabeledPartition, _datum, _rewrite, _rule, _runs
from .partitions import Bipartition, Partition, _read_name, parse_entries


class WeylSeries(enum.Enum):
    A = "A"
    B = "B"
    D = "D"

    __hash__ = object.__hash__  # keys _STRATUM_FAMILY; in C, and equal members are the same object


# the members the query paths read, bound once by name
_A, _D = WeylSeries.A, WeylSeries.D
# the series of the classical group whose strata the classes label
_GROUP_SERIES = {WeylSeries.A: Series.GL, WeylSeries.B: Series.SP, WeylSeries.D: Series.SO_EVEN}
# the characteristic-2 Jordan family of that group, for the series whose
# classes map through one; read off classical's rule once
_STRATUM_FAMILY = {w: _involutive_family(series, 2) for w, series in _GROUP_SERIES.items() if w is not _A}
# the spellings of the series; C has the Weyl group of B
_WEYL_SERIES_NAMES = {"a": WeylSeries.A, "b": WeylSeries.B, "c": WeylSeries.B, "d": WeylSeries.D}


def weyl_series_from_name(name: str) -> WeylSeries:
    return _read_name(name, _WEYL_SERIES_NAMES, "unknown Weyl series {name!r}; expected A, B, C, or D", "bad_series")


class WeylType(Record):
    """A classical Weyl group: series and rank.

    Small ranks are permitted throughout, with rank 0 giving the trivial
    group; type D at rank below 4 is understood through the same signed
    cycle combinatorics.
    """

    __slots__ = ("series", "rank")

    def __init__(self, series: WeylSeries, rank: int):
        if not isinstance(series, WeylSeries):
            series = weyl_series_from_name(series)
        if type(rank) is not int:
            _check_int(rank, "rank", "bad_rank")
        lo = 1 if series is _A else 0
        if rank < lo:
            raise DomainError(
                f"rank must be at least {lo} for type {series.value}", code="bad_rank"
            )
        self._fill(series, rank)

    @property
    def group(self) -> GroupDescriptor:
        """The classical group whose strata the classes label: GL_{r+1}, Sp_{2r} or SO_{2r}."""
        return GroupDescriptor(_GROUP_SERIES[self.series], self.rank + 1 if self.series is _A else 2 * self.rank)


class SignedCycleType(Record):
    """Cycle type of a signed permutation: positive and negative cycle lengths."""

    __slots__ = ("positive", "negative")

    def __init__(self, positive, negative):
        self._fill(
            positive if isinstance(positive, Partition) else Partition(positive),
            negative if isinstance(negative, Partition) else Partition(negative),
        )

    @property
    def rank(self) -> int:
        return self.positive.weight + self.negative.weight

    def __str__(self) -> str:
        return f"{','.join(map(str, self.positive))};{','.join(map(str, self.negative))}"


WeylClass = Union[Partition, SignedCycleType]


def enumerate_classes(w: WeylType) -> tuple[WeylClass, ...]:
    """All conjugacy classes of the Weyl group, in canonical order.

    Type A(n): partitions of n+1, lexicographically descending.  Types B and
    D: signed cycle types ordered by descending positive weight, then
    lexicographically descending positive part, then negative part; type D
    keeps only the types with an even number of negative cycles.  A Weyl
    group that is no WeylType is refused with the code bad_group.
    """
    from .enumeration import enumerate_partitions

    _check_weyl(w)
    if w.series is _A:
        return enumerate_partitions(w.rank + 1)
    # records of partitions, filled through _fill
    new, fill = object.__new__, SignedCycleType._fill
    out: list[SignedCycleType] = []
    for a in range(w.rank, -1, -1):
        negatives = enumerate_partitions(w.rank - a)
        if w.series is _D:
            negatives = [neg for neg in negatives if len(neg) % 2 == 0]
        for pos in enumerate_partitions(a):
            for neg in negatives:
                out.append(fill(new(SignedCycleType), pos, neg))
    return tuple(out)


def _bad_class(why: str) -> DomainError:
    return DomainError(why, code="bad_class")


def _check_weyl(w) -> None:
    # the Weyl group gate of the entry points that take a WeylType
    if not isinstance(w, WeylType):
        raise DomainError(f"the Weyl group must be a WeylType, got {w!r}", code="bad_group")


def _check_class(w: WeylType, c: WeylClass) -> WeylClass:
    # a WeylType passes on one type test
    if type(w) is not WeylType:
        _check_weyl(w)
    if w.series is _A:
        if not isinstance(c, Partition):
            raise _bad_class(f"type A classes are partitions, got {c!r}")
        if c.weight != w.rank + 1:
            raise _bad_class(
                f"type A rank {w.rank} classes are partitions of {w.rank + 1}, got weight {c.weight}"
            )
        return c
    if not isinstance(c, SignedCycleType):
        raise _bad_class(f"type {w.series.value} classes are signed cycle types, got {c!r}")
    rank = sum(c.positive) + sum(c.negative)  # c.rank, without its two property reads
    if rank != w.rank:
        raise _bad_class(f"signed cycle type has rank {rank}, expected {w.rank}")
    if w.series is _D and len(c.negative) % 2 == 1:
        raise _bad_class(f"type D classes have an even number of negative cycles, got {c}")
    return c


def _cycle_lengths(text: str) -> Partition:
    # one comma-separated side of class text
    lengths = parse_entries(text)
    if any(l <= 0 for l in lengths):
        raise _bad_class(f"cycle lengths must be positive, got {text!r}")
    return Partition(sorted(lengths, reverse=True))


def parse_class(w: WeylType, text: str) -> WeylClass:
    """The class of w written as text: "3,1,1" in type A, "3,1;2" in types B/C/D.

    A Weyl group that is no WeylType is refused with the code bad_group.
    """
    _check_weyl(w)
    if w.series is _A:
        return _check_class(w, _cycle_lengths(text))
    if text.count(";") != 1:
        raise DomainError(f"signed cycle type needs exactly one ';', got {text!r}", code="parse_error")
    pos_text, neg_text = text.split(";")
    return _check_class(w, SignedCycleType(_cycle_lengths(pos_text), _cycle_lengths(neg_text)))


def _class_runs(family: JordanFamily, c: SignedCycleType) -> list:
    # The runs of the labeled Jordan type of c: a value v occurs twice per
    # positive v-cycle and once per negative v/2-cycle, and 2l is labeled 1
    # when l is a negative cycle length, that is when it is a key of `negative`.
    negative: dict[int, int] = {}
    for l in c.negative:
        negative[2 * l] = negative.get(2 * l, 0) + 1
    mult = negative.copy()
    for l in c.positive:
        mult[l] = mult.get(l, 0) + 2
    return _runs(family, sorted(mult.items(), reverse=True), negative)


def jordan_of_class(c: SignedCycleType) -> LabeledPartition:
    """The labeled Jordan type attached to a signed cycle type.

    Parts: l, l for each positive l-cycle and 2l for each negative l-cycle.
    An eligible even value 2l is labeled 1 exactly when l occurs as a
    negative cycle length.
    """
    if not isinstance(c, SignedCycleType):
        raise _bad_class(f"a class must be a signed cycle type, got {c!r}")
    return _datum(JordanFamily.SYMPLECTIC_CHAR2, _class_runs(JordanFamily.SYMPLECTIC_CHAR2, c))


def _stratum_rule(w: WeylType):
    # The _rule of w's stratum map, read once per call; None in type A, whose
    # classes are their own labels.
    family = _STRATUM_FAMILY.get(w.series)
    return None if family is None else _rule(family, 2 * w.rank)


def _stratum(rule, c: WeylClass) -> Bipartition:
    # c is a class of the Weyl type whose _stratum_rule is rule; rule[0] is its family
    return c if rule is None else _rewrite(rule, _class_runs(rule[0], c))


def stratum_of_class(w: WeylType, c: WeylClass) -> Bipartition:
    """The stratum label of a Weyl class.

    Type A: the partition itself.  Type B: the labeled Jordan type pushed
    through the characteristic-2 symplectic bijection (weight-n bipartitions
    of excess (2, 2)).  Type D: through the characteristic-2 even-orthogonal
    bijection (excess (0, 4)).  The Jordan type is rewritten from the runs
    read off the cycle type, without being built.  A Weyl group that is no
    WeylType is refused with the code bad_group.
    """
    c = _check_class(w, c)
    return _stratum(_stratum_rule(w), c)


def _fixed_space_dim(w: WeylType, c: WeylClass) -> int:
    # c is a class of w
    return len(c) - 1 if w.series is _A else len(c.positive)


def fixed_space_dim(w: WeylType, c: WeylClass) -> int:
    """Dimension of the fixed space on the reflection representation; bad_group for no WeylType."""
    return _fixed_space_dim(w, _check_class(w, c))


class ClassFiber(NamedTuple):
    """All classes over one stratum, with the unique fixed-space minimizer."""

    classes: tuple[WeylClass, ...]
    cross_section: WeylClass


def strata_fibers(w: WeylType) -> dict[Bipartition, ClassFiber]:
    """Fibers of the stratum map, keyed by label in descending order.

    Each fiber records its classes (in enumeration order) and the unique
    class minimizing the fixed-space dimension.  In types B and D the map
    factors through the labeled Jordan type, so the classes are grouped by
    the runs of their Jordan type and each group is rewritten once, one
    rewrite per fiber.  Two Jordan types with one label would falsify the
    bijectivity of the family map and raise a ConsistencyError; a tie for
    the minimum would falsify the cross-section property and raises one
    with the code cross_section_tie.  A Weyl group that is no WeylType is
    refused with the code bad_group.
    """
    _check_weyl(w)
    rule = _stratum_rule(w)
    # type A classes are their own labels and keys; else the key is the runs
    by_key: dict = {}
    for c in enumerate_classes(w):
        by_key.setdefault(c if rule is None else tuple(_class_runs(rule[0], c)), []).append(c)
    grouped: dict[Bipartition, list[WeylClass]] = {}
    for key, classes in by_key.items():
        bp = key if rule is None else _rewrite(rule, key)
        if grouped.setdefault(bp, classes) is not classes:
            raise ConsistencyError(
                f"classes {grouped[bp][0]} and {classes[0]} of {w} differ in Jordan type but map to {tuple(bp)}"
            )
    out: dict[Bipartition, ClassFiber] = {}
    for bp in sorted(grouped, reverse=True):
        classes = grouped[bp]
        if len(classes) == 1:
            best = classes[0]
        else:
            dims = [_fixed_space_dim(w, c) for c in classes]
            best = unique_minimizer(classes, dims, lambda: f"over {tuple(bp)} in {w}")
        out[bp] = tuple.__new__(ClassFiber, (tuple(classes), best))
    return out
