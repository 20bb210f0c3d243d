"""Strata of the classical groups and classification of spectral data.

A conjugacy class in GL_n, Sp_N, or SO_N is described here by *spectral
data*: the multiset of eigenvalue orbits of a representative, each orbit
carrying the Jordan type of the unipotent part on its eigenspace.  Orbits
come in two kinds.  A GENERIC orbit stands for a pair {x, 1/x} with x*x != 1
(for GL, where eigenvalues are not paired, every eigenvalue is its own
generic orbit).  An INVOLUTIVE orbit is the eigenvalue 1 or -1, whose
eigenspace inherits the ambient form; its Jordan type is then constrained to
the Jordan family of that form and characteristic.

The classification map sends spectral data to the stratum label: a weight
N/2 bipartition (weight n for GL_n, weight (N-1)/2 for odd orthogonal
groups).  Generic orbits contribute their Jordan type unchanged; involutive
orbits contribute through the unipotent bijections; contributions add
entrywise.  Validating the data keeps the group it classifies through and,
for each involutive orbit, its runs and the rule of its family map at its
weight, so ``classify`` only rewrites them, sums the contributions in one
pass, checks the sum once and compares its weight once.
The class dimension is 2 * (number of positive roots) minus
twice the n-invariant of the label, and is constant on each stratum.
``stratum_of_label`` also checks that its label lies in the series' label
set; ``classify``, whose labels lie there by construction, calls its body,
``_stratum_of_label``, without that check.

Only whether the characteristic is 2 or not ever matters; odd primes are
accepted and treated alike.  Odd orthogonal groups in characteristic 2 are
classified through the isogeny onto the symplectic group one dimension
down: callers supply the symplectic spectral data on dimension N-1.  The
check that a characteristic is 0 or a prime is ``errors.check_characteristic``,
which the exceptional atlas shares.
"""

from __future__ import annotations

import enum
from itertools import accumulate, zip_longest
from operator import lt
from typing import Iterable, Optional

from .errors import ConsistencyError, DomainError, Record, _check_size, check_characteristic
from .jordan import JordanDatum, JordanFamily, LabeledPartition, _rewrite, _rule, _runs_if_member
from .partitions import Bipartition, Excess, Partition, _read_name, _within_excess, n_invariant


class Series(enum.Enum):
    GL = "GL"
    SP = "Sp"
    SO_ODD = "SO_odd"
    SO_EVEN = "SO_even"


# the members the query paths read, bound once by name: a module global is
# read in a fraction of the time of a member read through its enum class
_GL, _SP, _SO_ODD, _SO_EVEN = Series.GL, Series.SP, Series.SO_ODD, Series.SO_EVEN
_SYMPLECTIC, _SYMPLECTIC_CHAR2 = JordanFamily.SYMPLECTIC, JordanFamily.SYMPLECTIC_CHAR2
_ORTHOGONAL, _ORTHOGONAL_CHAR2 = JordanFamily.ORTHOGONAL, JordanFamily.ORTHOGONAL_CHAR2

_SERIES_NAMES = {
    "gl": Series.GL,
    "sp": Series.SP,
    "so_odd": Series.SO_ODD,
    "soodd": Series.SO_ODD,
    "so_even": Series.SO_EVEN,
    "soeven": Series.SO_EVEN,
}


def series_from_name(name: str) -> Series:
    return _read_name(name, _SERIES_NAMES, "unknown series {name!r}; expected GL, Sp, SO_odd, or SO_even", "bad_series")


class GroupDescriptor(Record):
    """A classical group: series, dimension of the natural module, characteristic.

    The dimension is n for GL_n and N for Sp_N / SO_N, with the parity
    demanded by the series.  Only the 2-versus-not-2 distinction of the
    characteristic is ever consumed.
    """

    __slots__ = ("series", "dimension", "characteristic")

    def __init__(self, series: Series, dimension: int, characteristic: int = 0):
        if not isinstance(series, Series):
            series = series_from_name(series)
        # a plain int passes each integer gate on one type test, and 0 and 2,
        # the characteristics the maps read, the gate and the primality test
        if type(characteristic) is not int or (characteristic != 0 and characteristic != 2):
            check_characteristic(characteristic)
        if type(dimension) is not int or dimension < 0:
            _check_size(dimension, "dimension", "bad_dimension")
        odd = series is _SO_ODD
        if series is not _GL and dimension % 2 != odd:
            raise DomainError(
                f"{series.value} needs {'odd' if odd else 'even'} dimension, got {dimension}",
                code="bad_dimension",
            )
        self._fill(series, dimension, characteristic)

    @property
    def rank_half(self) -> int:
        """The weight of stratum labels: n, N/2, or (N-1)/2 by series."""
        # (N-1)/2 is N // 2 for the odd N of SO_odd
        return self.dimension if self.series is _GL else self.dimension // 2


def _check_group(group) -> None:
    # the group gate of SpectralDatum, stratum_of_label and positive_roots,
    # through which enumerate_strata and dimension_set pass it: a
    # GroupDescriptor passes on one type test
    if type(group) is not GroupDescriptor and not isinstance(group, GroupDescriptor):
        raise DomainError(f"the group must be a GroupDescriptor, got {group!r}", code="bad_group")


def positive_roots(group: GroupDescriptor) -> int:
    """Number of positive roots of the group's root system; bad_group for no GroupDescriptor."""
    if type(group) is not GroupDescriptor:
        _check_group(group)
    n, series = group.rank_half, group.series
    if series is _GL:
        return n * (n - 1) // 2
    if series is _SP or series is _SO_ODD:
        return n * n
    return n * n - n


def _bad_orbit(why: str) -> DomainError:
    return DomainError(why, code="bad_orbit")


class OrbitKind(enum.Enum):
    GENERIC = "generic"
    INVOLUTIVE = "involutive"


_GENERIC, _INVOLUTIVE = OrbitKind.GENERIC, OrbitKind.INVOLUTIVE


class EigenOrbit(Record):
    """One eigenvalue orbit with the Jordan type of its unipotent part.

    `ident` is "1" or "-1" for involutive orbits and an arbitrary distinct
    token for generic ones.  `jordan` is a Partition, or a LabeledPartition
    for involutive orbits in characteristic 2.
    """

    __slots__ = ("ident", "kind", "jordan")

    def __init__(self, ident: str, kind: OrbitKind, jordan: JordanDatum):
        if not isinstance(ident, str) or not ident:
            raise _bad_orbit(f"orbit id must be a nonempty string, got {ident!r}")
        if kind is _INVOLUTIVE:
            if ident not in ("1", "-1"):
                raise _bad_orbit(f"involutive orbit ids must be '1' or '-1', got {ident!r}")
            if not isinstance(jordan, (Partition, LabeledPartition)):
                raise _bad_orbit(f"involutive Jordan types are Partition or LabeledPartition records, got {jordan!r}")
        else:
            if kind is not _GENERIC:
                raise _bad_orbit(f"orbit kind must be an OrbitKind, got {kind!r}")
            if ident in ("1", "-1"):
                raise _bad_orbit(f"generic orbits may not use the involutive id {ident!r}")
            if not isinstance(jordan, Partition):
                raise _bad_orbit("generic orbits carry a plain partition Jordan type")
        # the parts are positive: the weight is 0 exactly when there are none
        if not (jordan.parts if isinstance(jordan, LabeledPartition) else jordan):
            raise _bad_orbit(f"orbit {ident!r} has empty Jordan type")
        self._fill(ident, kind, jordan)


def _classifying_group(g: GroupDescriptor) -> GroupDescriptor:
    # SO_odd in characteristic 2 is classified through Sp_{N-1}, characteristic
    # 2, which has the same rank and positive-root count and no pair symmetry;
    # every other group through itself
    if g.series is _SO_ODD and g.characteristic == 2:
        return GroupDescriptor(_SP, g.dimension - 1, 2)
    return g


def _involutive_family(series: Series, char: int) -> JordanFamily:
    if series is _SP:
        return _SYMPLECTIC_CHAR2 if char == 2 else _SYMPLECTIC
    return _ORTHOGONAL_CHAR2 if char == 2 else _ORTHOGONAL


class SpectralDatum(Record):
    """Spectral data of one conjugacy class: the group plus its eigen orbits.

    One loop validates every series.  It enforces the dimension bookkeeping
    (involutive weights plus twice the generic weights add up to the natural
    dimension; once for GL, which has no involutive orbits), distinct ids,
    the absence of the eigenvalue -1 in characteristic 2, membership of each
    involutive Jordan type in the family dictated by the series and
    characteristic, and its weight parity: odd exactly for the eigenvalue 1
    of an odd orthogonal group.  Validation reads each orbit's weight once
    and keeps the group it classifies through and each involutive orbit's
    family rule with its runs, so ``classify`` rewrites them without testing
    membership, reading the rule or deriving the group again.
    """

    # _classifying and _orbit_runs are hidden: equality, hashing and repr see
    # group and orbits only
    __slots__ = ("group", "orbits", "_classifying", "_orbit_runs")

    def __init__(self, group: GroupDescriptor, orbits: Iterable[EigenOrbit]):
        _check_group(group)
        try:
            orbits = tuple(orbits)
        except TypeError:
            raise _bad_orbit(f"orbits must be an iterable of EigenOrbit records, got {orbits!r}") from None
        for o in orbits:
            if not isinstance(o, EigenOrbit):
                raise _bad_orbit(f"orbits must be EigenOrbit records, got {o!r}")
        g = _classifying_group(group)
        ids = [o.ident for o in orbits]
        if len(set(ids)) != len(ids):
            raise _bad_orbit(f"orbit ids must be distinct, got {ids}")
        gl = g.series is _GL
        char = g.characteristic
        fam = _involutive_family(g.series, char)
        total = 0
        # one entry per orbit: (its _rule, its runs) for an involutive one, else None
        orbit_runs = []
        for o in orbits:
            jordan = o.jordan
            # an EigenOrbit's Jordan type is a Partition or a LabeledPartition
            weight = sum(jordan.parts if isinstance(jordan, LabeledPartition) else jordan)
            if o.kind is _GENERIC:
                # a pair {x, 1/x}, except in GL where eigenvalues are not paired
                total += weight if gl else 2 * weight
                orbit_runs.append(None)
                continue
            if gl:
                raise _bad_orbit("GL spectral data uses only generic orbits")
            if o.ident == "-1" and char == 2:
                raise _bad_orbit("the eigenvalue -1 does not exist in characteristic 2")
            runs = _runs_if_member(fam, jordan)
            if runs is None:
                raise DomainError(
                    f"involutive orbit {o.ident!r}: Jordan type {jordan} is not in "
                    f"the {fam.value} family",
                    code="not_in_family",
                )
            # the symplectic families already force even weight
            want_odd = g.series is _SO_ODD and o.ident == "1"
            if weight % 2 != want_odd:
                raise DomainError(
                    f"involutive orbit {o.ident!r} of {g.series.value} must have "
                    f"{'odd' if want_odd else 'even'} weight, got {weight}",
                    code="bad_parity",
                )
            # the weight picks the variant of the orthogonal map: SO_odd's
            # eigenvalue 1 has odd weight and -1 even weight
            orbit_runs.append((_rule(fam, weight), runs))
            total += weight
        if total != g.dimension:
            raise DomainError(
                f"orbit weights account for dimension {total}, expected {g.dimension}",
                code="bookkeeping",
            )
        self._fill(group, orbits, g, tuple(orbit_runs))


class StratumResult(Record):
    """A stratum: its bipartition label and derived dimensions.

    springer_dim equals the n-invariant; class_dim is the common dimension
    of the conjugacy classes in the stratum.  pair_degenerate is only
    meaningful for even orthogonal groups, where a pair-symmetric label
    denotes a fibre of two strata swapped by the outer involution; it is
    None for the other series.
    """

    __slots__ = ("bp", "n_invariant", "class_dim", "pair_degenerate")

    def __init__(self, bp: Bipartition, n_invariant: int, class_dim: int, pair_degenerate: Optional[bool] = None):
        self._fill(bp, n_invariant, class_dim, pair_degenerate)

    @property
    def springer_dim(self) -> int:
        return self.n_invariant


def stratum_of_label(group: GroupDescriptor, bp: Bipartition) -> StratumResult:
    """The stratum of the group labelled bp.

    bp must be a bipartition of weight ``group.rank_half`` in the series'
    label set, the bipartitions of excess ``stratum_excess(group.series)``.
    A label of another weight is refused with the code weight_mismatch, and
    then one outside the label set with the code bad_label.  A group that is
    no GroupDescriptor is refused first, with the code bad_group.
    """
    _check_group(group)
    bp = bp if isinstance(bp, Bipartition) else Bipartition(bp)
    result = _stratum_of_label(group, bp)
    excess = stratum_excess(group.series)
    if not _within_excess(bp, excess):
        raise DomainError(
            f"{tuple(bp)} is no stratum label of {group.series.value}: "
            f"its entries climb past the excess {tuple(excess)}",
            code="bad_label",
        )
    return result


def _stratum_of_label(group: GroupDescriptor, bp: Bipartition) -> StratumResult:
    # stratum_of_label without the excess check, for a Bipartition in the
    # series' label set.  Its weight is compared once, and n_invariant words
    # a mismatch.
    half = group.rank_half
    if sum(bp) != half:
        n_invariant(bp, half)
    n_e = len(bp) * half - sum(accumulate(bp))
    degenerate = bp.is_pair_symmetric if group.series is _SO_EVEN else None
    return StratumResult._fill(object.__new__(StratumResult), bp, n_e, 2 * positive_roots(group) - 2 * n_e, degenerate)


def classify(datum: SpectralDatum) -> StratumResult:
    """The stratum containing the conjugacy class with the given spectral data.

    The orbits' contributions are added entrywise in one pass, and the sum
    is checked once: both of its tracks must weakly decrease.  The sum of
    bipartitions is always a bipartition, so a failure is a ConsistencyError.
    A datum that is no SpectralDatum is refused with the code bad_datum.
    """
    if type(datum) is not SpectralDatum and not isinstance(datum, SpectralDatum):
        raise DomainError(f"the datum must be a SpectralDatum, got {datum!r}", code="bad_datum")
    contributions = [
        o.jordan if kept is None else _rewrite(*kept) for o, kept in zip(datum.orbits, datum._orbit_runs)
    ]
    entries = list(map(sum, zip_longest(*contributions, fillvalue=0)))
    if any(map(lt, entries, entries[2:])):
        raise ConsistencyError(f"the orbit contributions add up to {tuple(entries)}, not a bipartition")
    return _stratum_of_label(datum._classifying, tuple.__new__(Bipartition, entries))  # checked above


def stratum_excess(series: Series) -> Excess:
    """The excess cutting out the stratum labels of a series; bad_series for no Series."""
    if series is _GL:
        return Excess(0, 0)
    if series is _SO_EVEN:
        return Excess(0, 4)
    if type(series) is not Series:
        raise DomainError(f"the series must be a Series, got {series!r}", code="bad_series")
    return Excess(2, 2)


def enumerate_strata(group: GroupDescriptor) -> tuple[StratumResult, ...]:
    """All strata of the group, in canonical (lexicographically descending) order.

    The answer does not depend on the characteristic: strata are indexed by
    weight-n bipartitions of excess (0, 0), that is partitions of n, for
    GL_n, by weight-N/2 bipartitions of excess (2, 2) for Sp_N and SO_{N+1},
    and of excess (0, 4) for SO_N with N even.  A group that is no
    GroupDescriptor is refused with the code bad_group.
    """
    from .enumeration import enumerate_bipartitions

    # each label's stratum_of_label, without checking the enumerated label
    # again, in a record filled through _fill; positive_roots gates the group
    two_roots = 2 * positive_roots(group)
    half = group.rank_half
    so_even = group.series is _SO_EVEN
    new, fill = object.__new__, StratumResult._fill
    out = []
    for bp in enumerate_bipartitions(half, stratum_excess(group.series)):
        n_e = len(bp) * half - sum(accumulate(bp))
        degenerate = len(bp) % 2 == 0 and bp[0::2] == bp[1::2] if so_even else None
        out.append(fill(new(StratumResult), bp, n_e, two_roots - 2 * n_e, degenerate))
    return tuple(out)


def dimension_set(group: GroupDescriptor) -> frozenset[int]:
    """The set of class dimensions over all strata of the group, listing no stratum.

    A group that is no GroupDescriptor is refused with the code bad_group.
    """
    from .enumeration import n_invariant_set

    two_roots = 2 * positive_roots(group)
    n_invariants = n_invariant_set(group.rank_half, stratum_excess(group.series))
    return frozenset(two_roots - 2 * n_e for n_e in n_invariants)
