"""Partitions, bipartitions, excess bounds, and the Springer-fiber dimension.

A *bipartition* here is a single finite sequence c = (c1, c2, c3, ...) of
nonnegative integers whose odd-position entries (c1, c3, c5, ...) and
even-position entries (c2, c4, c6, ...) each form a weakly decreasing
sequence.  Conceptually the sequence is infinite with trailing zeros; the
canonical stored form trims trailing zeros only, so interior zeros are
significant: (1, 0, 1) and (1, 1) are different bipartitions.

The *excess* pair (e, e') bounds how much the sequence may climb from one
entry to the next: c[i] + e >= c[i+1] at odd positions i and c[i] + e' >=
c[i+1] at even positions (1-based).  A partition is exactly a bipartition
with excess (0, 0), and `Partition` is that subtype of `Bipartition`: a
partition is accepted wherever a bipartition is.  The sets BP(n; e, e') of
weight-n bipartitions with a given excess index the strata of the classical
groups, with (0, 0) for GL, (2, 2) for the symplectic and odd orthogonal
series and (0, 4) for the even orthogonal series; ``enumeration`` lists
and counts them.
"""

from __future__ import annotations

import re
from itertools import accumulate, zip_longest
from typing import Iterable, NamedTuple

from .errors import DomainError, _check_size


class Excess(NamedTuple):
    """Slack pair (e, e'): e bounds odd-position climbs, e' even-position ones."""

    e: int
    e_prime: int


def _as_excess(x) -> Excess:
    # exactly two components, each an int and not a bool; the slice refuses an
    # iterator and copies no more than one component too many, and a
    # DomainError is a ValueError
    try:
        ex = Excess(*_as_int_seq(x[:3]))
    except (TypeError, ValueError):
        raise DomainError(f"excess must be a pair of integers, got {x!r}", code="bad_excess") from None
    if ex.e < 0 or ex.e_prime < 0:
        raise DomainError(f"excess components must be nonnegative, got {ex}", code="bad_excess")
    return ex


def _read_name(name, names: dict, refusal: str, code: str):
    # The member a table of lower-case spellings gives a name, read with case
    # and surrounding whitespace ignored; else a refusal that words the name
    # as given, through refusal's {name!r}.
    member = names.get(str(name).strip().lower())
    if member is None:
        raise DomainError(refusal.format(name=name), code=code)
    return member


def _as_int_seq(seq) -> list[int]:
    try:
        out = list(seq)
    except TypeError:
        raise DomainError(f"entries must be an iterable of integers, got {seq!r}", code="bad_entries") from None
    for x in out:
        if type(x) is not int and (isinstance(x, bool) or not isinstance(x, int)):
            raise DomainError(f"entries must be integers, got {x!r}", code="bad_entries")
    return out


# an entry: ASCII digits with an optional sign, and around them the whitespace
# that int() strips: \s less the separators \x1c-\x1f
_ENTRY = re.compile(r"[^\S\x1c-\x1f]*[+-]?[0-9]+[^\S\x1c-\x1f]*")


def parse_entries(text: str) -> list[int]:
    """The integers of comma-separated text, in order; empty text has none.

    Each piece is ASCII digits with an optional sign and optional whitespace
    around it.  Anything else, an empty piece, underscores or non-ASCII
    digits included, is refused with the code parse_error, as is text that
    is no string.
    """
    try:
        if not isinstance(text, str):
            raise ValueError
        if not text.strip():
            return []
        pieces = text.split(",")
        if not all(map(_ENTRY.fullmatch, pieces)):
            raise ValueError
        return [int(piece) for piece in pieces]
    except ValueError:  # malformed, or more digits than int() converts
        raise DomainError(f"expected comma-separated integers, got {text!r}", code="parse_error") from None


class Bipartition(tuple):
    """Canonical form of an interleaved pair of partitions.

    The stored tuple is the sequence (c1, c2, ..., cm) with cm != 0; the odd
    track (c1, c3, ...) and even track (c2, c4, ...) are each weakly
    decreasing.  Construction trims trailing zeros and validates the two
    tracks.
    """

    __slots__ = ()

    def __new__(cls, entries: Iterable[int] = ()):
        data = _as_int_seq(entries)
        while data and data[-1] == 0:
            data.pop()
        for x in data:
            if x < 0:
                raise DomainError(
                    f"bipartition entries must be nonnegative, got {data}", code="bad_bipartition"
                )
        for i in range(len(data) - 2):
            if data[i] < data[i + 2]:
                raise DomainError(
                    f"entries at positions {i + 1} and {i + 3} must weakly decrease, got {data}",
                    code="bad_bipartition",
                )
        return tuple.__new__(cls, data)

    @property
    def weight(self) -> int:
        return sum(self)

    def pair_swapped(self) -> "Bipartition":
        """Swap entries pairwise: (c2, c1, c4, c3, ...)."""
        padded = self + (0,) * (len(self) % 2)
        return Bipartition(padded[i ^ 1] for i in range(len(padded)))

    @property
    def is_pair_symmetric(self) -> bool:
        """True when c1 = c2, c3 = c4, ...; fixed points of pair_swapped."""
        # an odd length pairs the last, nonzero entry with a zero
        return len(self) % 2 == 0 and self[0::2] == self[1::2]


class Partition(Bipartition):
    """A weakly decreasing tuple of positive integers: a bipartition of excess (0, 0).

    Trailing zeros in the input are trimmed; any other zero would break weak
    decrease and is rejected.  Instances are plain tuples, so equality,
    hashing, and lexicographic comparison all behave as expected.
    """

    __slots__ = ()

    def __new__(cls, parts: Iterable[int] = ()):
        data = _as_int_seq(parts)
        while data and data[-1] == 0:
            data.pop()
        # weakly decreasing to a positive last part is valid, tested in C; the
        # loop below words a refusal
        if not data or data[-1] > 0 and data == sorted(data, reverse=True):
            return tuple.__new__(cls, data)
        for i, x in enumerate(data):
            if x <= 0:
                raise DomainError(
                    f"partition parts must be positive, got {x} in {data}", code="bad_partition"
                )
            if i > 0 and data[i - 1] < x:
                raise DomainError(
                    f"partition parts must weakly decrease, got {data}", code="bad_partition"
                )
        return tuple.__new__(cls, data)

    def conjugate(self) -> "Partition":
        """Transpose of the Young diagram."""
        if not self:
            return Partition()
        return Partition(sum(1 for x in self if x > i) for i in range(self[0]))


def has_excess(bp: Bipartition, x) -> bool:
    """Whether c[i] + e >= c[i+1] (odd i) and c[i] + e' >= c[i+1] (even i).

    Pairs beyond the last nonzero entry hold trivially, so only stored
    consecutive pairs are checked.
    """
    ex = _as_excess(x)
    if not isinstance(bp, Bipartition):
        bp = Bipartition(bp)
    return _within_excess(bp, ex)


def _within_excess(bp: Bipartition, ex: Excess) -> bool:
    # has_excess's bound check, for a bipartition and an Excess already
    # checked: each entry against the one before it plus the slack between them
    slack, next_slack = ex
    for last, x in zip(bp, bp[1:]):
        if x > last + slack:
            return False
        slack, next_slack = next_slack, slack
    return True


def bp_sum(a: Bipartition, b: Bipartition) -> Bipartition:
    """Entrywise sum (implicit zeros beyond each end).

    The sum of two bipartitions is again one: each track is a sum of weakly
    decreasing sequences.  Both arguments are read through Bipartition,
    which refuses anything else.
    """
    return Bipartition(x + y for x, y in zip_longest(Bipartition(a), Bipartition(b), fillvalue=0))


def n_invariant(bp: Bipartition, half: int) -> int:
    """Dimension of the Springer fiber attached to a weight-`half` bipartition.

    Computed as sum over k = 1..m of (half - (c1 + ... + ck)).  The weight of
    bp must equal `half`; a mismatch is a caller error, not a truncation.
    """
    if not isinstance(bp, Bipartition):
        bp = Bipartition(bp)
    _check_size(half, "half", "bad_weight")
    if bp.weight != half:
        raise DomainError(
            f"weight mismatch: bipartition has weight {bp.weight}, expected {half}",
            code="weight_mismatch",
        )
    return len(bp) * half - sum(accumulate(bp))
