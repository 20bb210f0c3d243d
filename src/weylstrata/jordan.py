"""Bijections between unipotent Jordan types and stratum bipartitions.

Four families of Jordan data appear, one per classical form and
characteristic regime:

* SYMPLECTIC: partitions whose odd parts each occur an even number of times
  (Jordan types of symplectic unipotents away from characteristic 2).
* SYMPLECTIC_CHAR2: the same partitions carrying one binary label per
  *eligible* part value, i.e. per even value occurring a positive even number
  of times (the extra datum distinguishing characteristic-2 symplectic
  classes).
* ORTHOGONAL: partitions whose even parts each occur an even number of times
  (orthogonal unipotents away from characteristic 2; any total weight).
* ORTHOGONAL_CHAR2: labeled partitions as in SYMPLECTIC_CHAR2 that in
  addition have an even number of parts (even orthogonal groups in
  characteristic 2).

Every family map rewrites the partition string by string.  A *string* is a
maximal run of equal positive parts; its *origin* is the 1-based position
where the run starts.  A string of value 2a or 2a+1 and length l is replaced
in place by the l entries a+d1, a+d2, a+d1, ..., and the concatenation of the
replacements, read as a single sequence and trimmed of trailing zeros, is the
image bipartition.  The offsets (d1, d2) depend only on the family, the
parity of the total weight N, the value's parity, whether the string carries
label 0, and the origin's parity; the table ``_REPLACEMENTS`` holds them all:

* Z1: an even value 2a becomes a repeated; an odd value 2a+1 (necessarily of
  even length) becomes the alternation a, a+1, ....
* Z2: as Z1, except that an even value of even length with label 0 becomes
  a-1, a+1, ....
* Z1P, odd N: an even value 2a (necessarily of even length) becomes a-1,
  a+1, ... at odd origin and a repeated at even origin; an odd value 2a+1
  becomes a, a+1, ... at odd origin and a+1, a, ... at even origin.
* Z1P, even N: the same with the origin parities swapped.
* Z2P: an even value 2a of odd length or with label 1 becomes a-1, a+1, ...
  at even origin and a+1, a-1, ... at odd origin; with label 0 it becomes
  a-2, a+2, ... at even origin and a repeated at odd origin; an odd value 2a+1
  becomes a-1, a+2, ... at even origin and a+1, a, ... at odd origin.  The
  family's parity constraints (even part count, labels only on even-length
  runs) rule out every configuration that would emit a negative entry.

Inside the module each family's rules are plain attributes of its
``JordanFamily`` member, set once from one table next to the class:
``paired`` is the parity of the values whose strings must have even length,
``even_count`` whether members need an even number of parts, and ``labeled``
whether eligible strings carry a label.  A partition is read as its strings,
one (value, multiplicity) pair each.
A member travels as its *runs*: one (value, length, label) triple per
string, values descending, the label None unless the family is labeled and
the value eligible.  ``_runs_if_member`` is the one membership test on
the runs of a datum, and serves ``in_family``, ``apply_bijection``,
``classical``'s validation and the check of each inverse.  A validated
``LabeledPartition`` keeps the runs its validation read off its strings, so
those callers do not split its parts again; one built by ``_datum``, the
member with given runs, keeps none, and its runs are read off its parts.
One rewrite loop, ``_emit``, emits the entries of the image of given runs
under a rule that ``_rule`` reads from ``_REPLACEMENTS`` once per call,
not once per image, and ``_finish`` checks them in one pass; ``_rewrite``
is the two in turn.  ``apply_bijection`` decomposes its datum once,
``classical.classify`` rewrites the runs and rule its validation kept, and
generated data and the Jordan types of Weyl classes (``weyl``) reach
``_rewrite`` with runs known by construction.  The inverse compares the
entries ``_emit`` gives with a target it has already checked, so it needs
no ``_finish``.  ``_rule``, ``in_family`` and ``apply_bijection`` refuse
a family that is not a ``JordanFamily`` member with the code bad_family,
through one check, which ``_rule`` makes only once a type test has found
no member, as it does for a weight that is no nonnegative int.
``in_family`` and ``apply_bijection`` then refuse a datum that is no
``Bipartition`` or ``LabeledPartition`` with the code bad_datum; a
``Bipartition`` is a member only if it is a partition in value.
Listing, counting and inverting the weight-N members of a family are
``jordan_inverse``'s.

Weight always halves: each map sends weight-N Jordan data to weight-N//2
bipartitions of the family's excess ((N-1)/2 for odd-weight orthogonal data).
Only ORTHOGONAL has odd weights.  That each image is a bipartition of the
stated weight and excess is checked at run time, in one pass over its
entries, and a violation is reported as a consistency failure.
"""

from __future__ import annotations

import enum
from typing import Container, Iterable, Mapping, Optional, Sequence, Union

from .errors import ConsistencyError, DomainError, Record, _check_size
from .partitions import Bipartition, Excess, Partition, _read_name


class JordanFamily(enum.Enum):
    """The four Jordan-data families, named for the form they classify.

    Each member carries its family's rules as plain attributes, set once from
    the table below the class: ``paired``, the parity of the values whose
    strings must have even length; ``even_count``, whether members need an
    even number of parts; and ``labeled``, whether eligible strings carry a
    0/1 label.

    Members hash by identity, which agrees with the identity equality of
    ``Enum`` (each member is a singleton: lookup by value, copying and
    pickling all return the member itself).  ``Enum.__hash__`` is Python
    code that hashes the member's name, and the members key the tables
    ``_REPLACEMENTS`` and ``jordan_inverse._PARSE_ROWS`` that every map and
    inverse reads once per call; identity hashing keeps those lookups in C.
    """

    SYMPLECTIC = "symplectic"
    SYMPLECTIC_CHAR2 = "symplectic_char2"
    ORTHOGONAL = "orthogonal"
    ORTHOGONAL_CHAR2 = "orthogonal_char2"

    __hash__ = object.__hash__  # in C, and equal members are the same object


# family: (paired, even_count, labeled)
for _family, _rules in {
    JordanFamily.SYMPLECTIC: (1, False, False),
    JordanFamily.SYMPLECTIC_CHAR2: (1, False, True),
    JordanFamily.ORTHOGONAL: (0, False, False),
    JordanFamily.ORTHOGONAL_CHAR2: (1, True, True),
}.items():
    _family.paired, _family.even_count, _family.labeled = _rules
del _family, _rules
_LABELED_PAIRED = JordanFamily.SYMPLECTIC_CHAR2.paired  # shared by both labeled families


# Terse aliases used in the literature and accepted by the command line.
FAMILY_ALIASES = {
    "Z1": JordanFamily.SYMPLECTIC,
    "Z2": JordanFamily.SYMPLECTIC_CHAR2,
    "Z1P": JordanFamily.ORTHOGONAL,
    "Z2P": JordanFamily.ORTHOGONAL_CHAR2,
}


# every spelling family_from_name accepts: the aliases and the values
_FAMILY_NAMES = {**{alias.lower(): f for alias, f in FAMILY_ALIASES.items()}, **{f.value: f for f in JordanFamily}}
_UNKNOWN_FAMILY = (
    f"unknown Jordan family {{name!r}}; expected one of {sorted(FAMILY_ALIASES)} or {[f.value for f in JordanFamily]}"
)


def family_from_name(name: str) -> JordanFamily:
    return _read_name(name, _FAMILY_NAMES, _UNKNOWN_FAMILY, "bad_family")


def _strings(parts: Iterable[int]) -> list[tuple[int, int]]:
    # One (value, multiplicity) pair per string, in the order of parts, in
    # one pass.
    out = []
    prev, m = None, 0
    for v in parts:
        if v == prev:
            m += 1
        else:
            if m:
                out.append((prev, m))
            prev, m = v, 1
    if m:
        out.append((prev, m))
    return out


def _is_eligible(value: int, length: int) -> bool:
    # The one label rule: an even value occurring a positive even number of times.
    return value % 2 == 0 and length > 0 and length % 2 == 0


class LabeledPartition(Record):
    """A partition with one binary label per eligible even value.

    Valid instances always have every odd value occurring an even number of
    times, and carry a label for exactly the eligible values (even value,
    positive even multiplicity).  Labels are keyed by part value, not by
    string position.  Validation keeps the runs it reads off the strings,
    so a map reads them without splitting the parts again.
    """

    # _kept_runs is hidden: equality, hashing and repr see parts and labels only
    __slots__ = ("parts", "labels", "_kept_runs")

    def __init__(self, parts: Iterable[int], labels: Mapping[int, int] | None = None):
        base = parts if isinstance(parts, Partition) else Partition(parts)
        # one pass over the strings checks parity and collects the eligible values
        strings = _strings(base)
        eligible = []
        for v, m in strings:
            if _is_eligible(v, m):
                eligible.append(v)
            elif m % 2 and v % 2 == _LABELED_PAIRED:
                raise DomainError(
                    f"odd value {v} occurs {m} times in {tuple(base)}; "
                    "odd values must occur an even number of times",
                    code="bad_parity",
                )
        # only None means no labels; anything else must be a mapping
        if labels is not None and type(labels) is not dict and not isinstance(labels, Mapping):
            raise DomainError(f"labels must map values to bits, got {labels!r}", code="bad_labels")
        given = {} if labels is None else dict(labels)
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
        # the keys are the eligible values, so a string's run label is its value's, or None
        self._fill(base, tuple([(v, given[v]) for v in eligible]), tuple([(v, m, given.get(v)) for v, m in strings]))

    @property
    def weight(self) -> int:
        return self.parts.weight

    def label_map(self) -> dict[int, int]:
        return dict(self.labels)

    def __str__(self) -> str:
        if not self.labels:
            return str(tuple(self.parts))
        bits = ",".join(f"{v}:{b}" for v, b in self.labels)
        return f"{tuple(self.parts)}[{bits}]"


JordanDatum = Union[Partition, LabeledPartition]

# A run (value, length, label) is a string of `length` parts equal to `value`;
# label is the string's 0/1 label when the family is labeled and the value is
# eligible, else None.
Run = tuple[int, int, Optional[int]]


def _runs(
    family: JordanFamily, multiplicities: Iterable[tuple[int, int]], ones: Container[int]
) -> list[Run]:
    # The runs of the family member with these (value, multiplicity) pairs,
    # values descending, whose eligible values in `ones` carry label 1 and
    # whose other eligible values carry label 0.
    labeled = family.labeled
    return [
        (v, m, (1 if v in ones else 0) if labeled and _is_eligible(v, m) else None)
        for v, m in multiplicities
    ]


# ---------------------------------------------------------------------------
# family membership


def in_family(family: JordanFamily, nu: JordanDatum) -> bool:
    """Whether a Jordan datum is a member of the family, at whatever weight it has.

    A member is labeled exactly when the family is, and keeps the family's
    string-length parity and part-count rules.  Those rules force an even
    weight on every family but ORTHOGONAL.
    """
    return _member_runs(family, nu) is not None


def _member_runs(family: JordanFamily, nu: JordanDatum) -> Optional[Sequence[Run]]:
    # _runs_if_member behind the gates of the public entry points: the family,
    # then the datum.  A Bipartition that is not weakly decreasing is no member.
    _check_family(family)
    if not isinstance(nu, (Partition, LabeledPartition)):
        if not isinstance(nu, Bipartition):
            raise DomainError(f"Jordan datum must be a Partition or LabeledPartition, got {nu!r}", code="bad_datum")
        if list(nu) != sorted(nu, reverse=True):
            return None
    return _runs_if_member(family, nu)


def _runs_if_member(family: JordanFamily, nu: JordanDatum) -> Optional[Sequence[Run]]:
    # The runs of nu when it is a member of the family, else None: a
    # validated LabeledPartition's kept runs, or runs read off the strings.
    labeled = family.labeled
    if labeled != isinstance(nu, LabeledPartition):
        return None
    if not labeled:
        runs, count = _runs(family, _strings(nu), ()), len(nu)
    else:
        runs, count = nu._kept_runs, len(nu.parts)
        if runs is None:
            runs = _runs(family, _strings(nu.parts), {v for v, bit in nu.labels if bit})
    # the family's parity rules on the runs and the part count; the labels
    # were checked when nu was built
    paired = family.paired
    for v, m, _ in runs:
        if m & 1 and v & 1 == paired:
            return None
    return None if family.even_count and count & 1 else runs


def _finish(entries: list[int], family: JordanFamily, excess: Excess, half: int) -> Bipartition:
    # The emitted entries are claimed to form a bipartition of the stated
    # weight and excess; on validated input a failure here falsifies the
    # construction itself, so it surfaces as a consistency error rather than a
    # bad-input one.  One pass checks each entry against 0, against the entry
    # two back (its track) and against the previous entry plus the slack
    # between them, and takes it off the weight left to account for.
    # Trailing zeros pass every check and are trimmed from entries, the
    # caller's scratch list, afterwards.  A rejected image is worded by the
    # first fault in this order: a negative entry anywhere, then a track
    # that climbs (the Bipartition constructor's message), then the weight
    # or excess, which is all that is left to reject once both of those hold.
    two_back = last = rest = half  # no entry of a weight-half image exceeds half
    slack, next_slack = excess[1], excess[0]
    for x in entries:
        if x < 0 or x > two_back or x > last + slack:
            break
        # two pairs, not one 4-tuple: CPython swaps a pair without building a tuple
        two_back, last = last, x
        slack, next_slack = next_slack, slack
        rest -= x
    else:
        if not rest:
            while entries and not entries[-1]:
                entries.pop()
            return tuple.__new__(Bipartition, entries)  # valid: checked above
    if any(c < 0 for c in entries):
        raise ConsistencyError(f"the {family.value} map emitted a negative entry: {entries}")
    try:
        bp = Bipartition(entries)
    except DomainError as exc:
        raise ConsistencyError(f"the {family.value} map emitted a non-bipartition: {exc}") from exc
    raise ConsistencyError(f"the {family.value} map emitted {tuple(bp)}, outside the stated codomain")


# ---------------------------------------------------------------------------
# the replacement table, and the one rewrite loop behind every family map


def _offsets(odd, even, even_label0):
    # each argument pairs (d1, d2) at odd origin with (d1, d2) at even origin
    rows = {(1, False): odd, (0, False): even, (0, True): even_label0}
    return {
        (value, label0, origin): pair[1 - origin]
        for (value, label0), pair in rows.items()
        if pair is not None
        for origin in (1, 0)
    }


# (family, N % 2) -> (codomain excess, {(value % 2, string carries label 0,
# origin % 2): (d1, d2)}).  A missing pair is an even-only family at odd weight.
_REPLACEMENTS = {
    (FAMILY_ALIASES[name], parity): (Excess(*excess), _offsets(odd, even, even_label0))
    for name, parity, excess, odd, even, even_label0 in (
        # family, N % 2, excess, then (d1, d2) at odd / even origin for an odd
        # value, an even value, and an even value whose string has label 0
        ("Z1", 0, (1, 1), ((0, 1), (0, 1)), ((0, 0), (0, 0)), None),
        ("Z2", 0, (2, 2), ((0, 1), (0, 1)), ((0, 0), (0, 0)), ((-1, 1), (-1, 1))),
        ("Z1P", 1, (2, 0), ((0, 1), (1, 0)), ((-1, 1), (0, 0)), None),
        ("Z1P", 0, (0, 2), ((1, 0), (0, 1)), ((0, 0), (-1, 1)), None),
        ("Z2P", 0, (0, 4), ((1, 0), (-1, 2)), ((1, -1), (-1, 1)), ((0, 0), (-2, 2))),
    )
}


def _check_family(family) -> None:
    # the one family gate of the Jordan entry points
    if type(family) is not JordanFamily:
        raise DomainError(f"Jordan family must be a JordanFamily, got {family!r}", code="bad_family")


def _rule(family: JordanFamily, N: int) -> tuple:
    # What _emit and _finish read of a weight-N family map, read once per
    # call: (family, codomain excess, N // 2, offsets).  A family member and
    # a nonnegative int pass on a type test each; anything else goes to the
    # gate that words its refusal.
    if type(family) is not JordanFamily:
        _check_family(family)
    if type(N) is not int or N < 0:
        _check_size(N, "weight", "bad_weight")
    rule = _REPLACEMENTS.get((family, N & 1))
    if rule is None:
        raise DomainError(
            f"the {family.value} family is defined for even weights, got {N}",
            code="bad_parity",
        )
    return family, rule[0], N >> 1, rule[1]


def _emit(rule: tuple, runs: Iterable[Run]) -> list[int]:
    # The one rewrite loop: the entries a family member given by its runs,
    # values descending, emits under a _rule of its family and weight, not
    # yet checked or trimmed.  A run of odd length flips the parity of the
    # next run's origin.  Membership is the caller's to establish.
    offsets = rule[3]
    out: list[int] = []
    origin = 1
    for value, length, label in runs:
        a = value >> 1
        d1, d2 = offsets[value & 1, label == 0, origin]
        if length > 1:  # one part emits no pair: build no empty list
            out += [a + d1, a + d2] * (length >> 1)
        if length & 1:
            out.append(a + d1)
            origin ^= 1
    return out


def _rewrite(rule: tuple, runs: Iterable[Run]) -> Bipartition:
    # The image of a family member given by its runs, checked by _finish.
    family, excess, half, _ = rule
    return _finish(_emit(rule, runs), family, excess, half)


def apply_bijection(family: JordanFamily, nu: JordanDatum) -> Bipartition:
    """Rewrite a Jordan datum string by string into its stratum bipartition."""
    runs = _member_runs(family, nu)
    if runs is None:
        raise DomainError(f"{nu} is not in the {family.value} family", code="not_in_family")
    return _rewrite(_rule(family, sum(nu.parts) if family.labeled else nu.weight), runs)


def codomain(family: JordanFamily, N: int) -> tuple[Excess, int]:
    """Excess and weight of the image set for weight-N data of a family."""
    return _rule(family, N)[1:3]


def _datum(family: JordanFamily, runs: Iterable[Run]) -> JordanDatum:
    # The family member with these runs, valid by construction.  A labeled
    # one keeps no runs: a check of it reads them off its parts and labels.
    parts: list[int] = []
    labels = []
    for value, length, label in runs:
        parts += [value] * length
        if label is not None:
            labels.append((value, label))
    base = tuple.__new__(Partition, parts)
    if not family.labeled:
        return base
    return LabeledPartition._fill(object.__new__(LabeledPartition), base, tuple(labels), None)
