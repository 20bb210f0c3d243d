"""Static strata tables for the exceptional Weyl groups.

For G2, F4, E6, E7 and E8 the map from conjugacy classes to the
representations indexing strata is a finite lookup, shipped as a flat
data file (``data/exceptional_atlas.txt``).  Each table row pairs one
representation (a ``RepLabel``) with the classes mapping to it; a star
marker records that the stratum contains unipotent classes only in one
specific characteristic.  The file also carries the reference lists of
isolated subsystems (pseudo-Levi and doubly-isolated flavors); the parser
checks those ``iso`` records and keeps them only in the file's text, so
the library does not expose them.

Classes are named by their root-subsystem labels (``CarterLabel``),
e.g. ``"D_4(a_1)+A_1"`` or ``"(2A_3)''"``.  The parsed rank of a label
is the codimension of the class's fixed space in the reflection
representation, so ``m = rank - parsed_rank`` is the fixed-space
dimension used to select cross-sections.

``load_atlas(path)`` reads the data file at a given path, and without one
the packaged file; nothing else chooses the file.  One table row is found
by ``Atlas.row(group, rep)``, from a ``RepLabel`` or its text, and every
lookup by representation goes through it.
"""

from __future__ import annotations

import functools
import os
import re
from typing import Optional, Union

from .errors import DomainError, Record, _check_int, _check_size, check_characteristic, unique_minimizer

EXC_GROUPS = ("G2", "F4", "E6", "E7", "E8")
EXC_RANK = {"G2": 2, "F4": 4, "E6": 6, "E7": 7, "E8": 8}
EXC_POSITIVE_ROOTS = {"G2": 6, "F4": 24, "E6": 36, "E7": 63, "E8": 120}

# what an iso record may name: a classical series or an exceptional group, and a flavor
_ISO_GROUPS = ("A", "B", "C", "D") + EXC_GROUPS
_ISO_FLAVORS = ("pseudo_levi", "double_isolated")

_PACKAGED_PATH = os.path.abspath(os.path.join(os.path.dirname(__file__), "data", "exceptional_atlas.txt"))
ATLAS_FORMAT_VERSION = 1


def _group_from_name(name: str, groups: tuple[str, ...], kind: str) -> str:
    canon = str(name).strip().upper().replace("_", "")
    if canon in groups:
        return canon
    raise DomainError(f"unknown {kind} {name!r}", code="bad_group")


def exc_group_from_name(name: str) -> str:
    """Canonical exceptional group name: accepts "E8", "e8", "E_8"."""
    return _group_from_name(name, EXC_GROUPS, "exceptional group")


class RepLabel(Record):
    """A representation named by degree and n-invariant, e.g. 1050_10*2.

    star is 0 for representations whose stratum has unipotent classes in
    every characteristic, else the one prime (2 or 3) where it does.
    synthetic_id is 0-based among table rows sharing (group, d, n) and
    disambiguates the few repeated degree_n symbols.
    """

    __slots__ = ("group", "d", "n", "star", "synthetic_id")

    def __init__(self, group: str, d: int, n: int, star: int = 0, synthetic_id: int = 0):
        self._fill(exc_group_from_name(group), d, n, star, synthetic_id)
        _check_int(d, "degree", "bad_rep")
        if d < 1:
            raise DomainError(f"degree must be positive, got {d}", code="bad_rep")
        _check_size(n, "n-invariant", "bad_rep")
        _check_int(star, "star", "bad_rep")
        if star not in (0, 2, 3):
            raise DomainError(f"star must be 0, 2, or 3, got {star}", code="bad_rep")
        _check_int(synthetic_id, "synthetic id", "bad_rep")
        if synthetic_id < 0:
            raise DomainError("synthetic id must be nonnegative", code="bad_rep")

    def __str__(self) -> str:
        return self._text(self.synthetic_id > 0)

    def _text(self, with_id: bool) -> str:
        # "d_n", then "*star" if starred and "#id" if asked; Atlas.format_rep asks when rows need it
        text = f"{self.d}_{self.n}"
        if self.star:
            text += f"*{self.star}"
        if with_id:
            text += f"#{self.synthetic_id}"
        return text


_REP_TEXT = re.compile(r"^([0-9]+)_([0-9]+)(?:\*([0-9]+))?(?:#([0-9]+))?$")
_NUMBER = re.compile(r"[0-9]+")


class CarterLabel(Record):
    """A conjugacy-class label: canonical string plus its parsed rank."""

    __slots__ = ("raw", "parsed_rank")

    def __init__(self, raw: str, parsed_rank: int):
        if not isinstance(raw, str):
            raise DomainError(f"class label must be a string, got {raw!r}", code="bad_carter_label")
        _check_size(parsed_rank, "parsed rank", "bad_carter_label")
        self._fill(raw, parsed_rank)

    def __str__(self) -> str:
        return self.raw


def _malformed(raw: str, why: str) -> DomainError:
    return DomainError(f"malformed class label {raw!r}: {why}", code="bad_carter_label")


# how deep parenthesized sums may nest; the tables nest one level deep
MAX_NESTING = 32

# one summand: an optional multiplicity, then "(" opening a sum or a simple
# label, whose primes may stand in one of three places
_SUMMAND = re.compile(r"([0-9]+(?=[~A-G(]))?(?:(\()|(~?[A-G])('{0,2})_([0-9]+)('{0,2})(\(a_[0-9]+\))?('{0,2}))")
_CLOSE = re.compile(r"\)('{1,2})(?!')")


def _read_label(text: str, raw: str) -> tuple[str, int]:
    # the canonical text and rank, in one pass from the left; text ends in a
    # "+" that closes its last summand, and the stack holds the multiplicity
    # of each open parenthesis with the summands and rank of the sum outside it
    summands, rank, pos, stack = [], 0, 0, []
    while pos < len(text):
        m = _SUMMAND.match(text, pos)
        if m is None:
            raise _malformed(raw, "empty summand" if text[pos] in "+)" else f"bad token {text[pos:-1]!r}")
        digits, opening, head, p1, sub, p2, annot, p3 = m.groups("")
        mult, pos, primes = int(digits or 1), m.end(), p1 + p2 + p3
        if digits and mult < 2:
            raise _malformed(raw, "multiplicity must be at least 2")
        if opening:
            if len(stack) == MAX_NESTING:
                raise _malformed(raw, f"parentheses nest deeper than {MAX_NESTING} levels")
            stack.append((mult, summands, rank))
            summands, rank = [], 0
            continue
        if primes not in (p1, p2, p3):  # two of them nonempty
            raise _malformed(raw, "primes in more than one position")
        summands.append(f"{mult if digits else ''}{head}_{sub}{annot}{primes}")
        rank += mult * int(sub)
        while text[pos] == ")":
            close = _CLOSE.match(text, pos)
            if close is None or not stack:
                why = "a parenthesized sum must end in primes" if stack else "unbalanced parentheses"
                raise _malformed(raw, why)
            inner, (mult, summands, outer_rank) = "+".join(summands), stack.pop()
            summands.append(f"{mult if mult > 1 else ''}({inner}){close.group(1)}")
            rank, pos = outer_rank + mult * rank, close.end()
        if text[pos] != "+":
            raise _malformed(raw, f"bad token {text[m.start() : -1]!r}")  # from the last summand on
        pos += 1
    if stack:
        raise _malformed(raw, "unbalanced parentheses")
    return "+".join(summands), rank


def parse_carter(raw: str) -> CarterLabel:
    """Parse a class label into canonical form and its rank.

    The rank is the sum of multiplicity times subscript over the
    '+'-separated summands; tildes, primes, and "(a_i)" annotations do
    not contribute.  Accepted spellings are whitespace-insensitive and
    tolerate "Ã" for "~A" and primes before the subscript ("A''_5").
    Parenthesized sums nest at most MAX_NESTING (32) deep; a deeper
    label is refused with the code bad_carter_label.
    """
    if not isinstance(raw, str):
        raise DomainError("class label must be a string", code="bad_carter_label")
    text = re.sub(r"\s+", "", raw).replace("Ã", "~A")
    if not text:
        raise _malformed(raw, "empty")
    try:
        return CarterLabel(*_read_label(text + "+", raw))
    except DomainError:  # a ValueError too, already specific
        raise
    except ValueError:  # more digits than int() converts
        raise _malformed(raw, "a number has too many digits") from None


def m_of_class(group: str, label: Union[str, CarterLabel]) -> int:
    """Fixed-space dimension of the class in the reflection representation."""
    group = exc_group_from_name(group)
    if not isinstance(label, CarterLabel):
        label = parse_carter(label)
    m = EXC_RANK[group] - label.parsed_rank
    if m < 0:
        raise DomainError(
            f"label {label.raw!r} has rank {label.parsed_rank}, beyond {group}",
            code="bad_carter_label",
        )
    return m


def _not_a_rep(rep) -> DomainError:
    # the refusal of Atlas.row and Atlas.format_rep for a representation of no RepLabel type
    return DomainError(f"representation must be a RepLabel, got {rep!r}", code="bad_rep")


class AtlasRow(Record):
    """One table row: a representation and the classes mapping to it, in table order.

    The note is the row's provenance, nonempty exactly for starred rows.
    The group is a canonical exceptional name, the classes a tuple of
    CarterLabel records, the rep a RepLabel of that group and the note a
    string; anything else is refused with the code bad_atlas.
    """

    __slots__ = ("group", "classes", "rep", "note")

    def __init__(self, group: str, classes: tuple[CarterLabel, ...], rep: RepLabel, note: str = ""):
        # type tests only: the parser builds every row from fields it has checked
        if type(group) is not str or group not in EXC_RANK:
            raise DomainError(f"row group must be one of {', '.join(EXC_GROUPS)}, got {group!r}", code="bad_atlas")
        if type(classes) is not tuple or not all(isinstance(c, CarterLabel) for c in classes):
            raise DomainError(f"row classes must be a tuple of CarterLabel records, got {classes!r}", code="bad_atlas")
        if not isinstance(rep, RepLabel) or rep.group != group:
            raise DomainError(f"row rep must be a RepLabel of {group}, got {rep!r}", code="bad_atlas")
        if type(note) is not str:
            raise DomainError(f"row note must be a string, got {note!r}", code="bad_atlas")
        self._fill(group, classes, rep, note)

    @property
    def class_dim(self) -> int:
        """Common dimension of the conjugacy classes in the row's stratum: 2|Phi+| - 2n."""
        return 2 * EXC_POSITIVE_ROOTS[self.group] - 2 * self.rep.n


class Atlas:
    """Parsed atlas: per-group tables, and the file's text.

    The isolated-subsystem lists (the ``iso`` records) are checked by the
    parser and kept only in the text; the library does not expose them.
    """

    def __init__(self, rows, text: str):
        # the rows, each an AtlasRow, then the text, a string: else bad_atlas
        try:
            rows = iter(rows)
        except TypeError:
            raise DomainError(
                f"atlas rows must be an iterable of AtlasRow records, got {rows!r}", code="bad_atlas"
            ) from None
        self._rows: dict[str, list[AtlasRow]] = {g: [] for g in EXC_GROUPS}
        self._by_class: dict[tuple[str, str], list[AtlasRow]] = {}
        # the rows of each (group, d, n), in synthetic-id order: every lookup by representation
        self._by_dn: dict[tuple[str, int, int], list[AtlasRow]] = {}
        for row in rows:
            if not isinstance(row, AtlasRow):
                raise DomainError(f"atlas rows must be AtlasRow records, got {row!r}", code="bad_atlas")
            self._rows[row.group].append(row)
            self._by_dn.setdefault((row.group, row.rep.d, row.rep.n), []).append(row)
            for c in row.classes:
                self._by_class.setdefault((row.group, c.raw), []).append(row)
        if not isinstance(text, str):
            raise DomainError(f"atlas text must be a string, got {text!r}", code="bad_atlas")
        self.text = text

    def checksum(self) -> str:
        # the interpreter's own sha256 (_sha2 from 3.12, _sha256 before): hashlib
        # would load OpenSSL's libcrypto, which alone raises a tables process's
        # peak memory by a fifth; only tables calls this, so only it imports one
        try:
            from _sha2 import sha256
        except ImportError:
            try:
                from _sha256 import sha256
            except ImportError:  # a build with neither
                from hashlib import sha256
        return sha256(self.text.encode("utf-8")).hexdigest()

    def rows(self, group: str) -> tuple[AtlasRow, ...]:
        """All rows of one group's table, in canonical order."""
        return tuple(self._rows[exc_group_from_name(group)])

    def format_rep(self, rep: RepLabel) -> str:
        """Shortest rendering of a representation that the atlas can re-read.

        The synthetic id is shown only when several rows share the same
        (d, n, star), as for the two unstarred 8_3 rows of F4.
        """
        if not isinstance(rep, RepLabel):
            raise _not_a_rep(rep)
        rows = self._by_dn.get((rep.group, rep.d, rep.n), ())
        return rep._text(sum(row.rep.star == rep.star for row in rows) > 1)

    def rep_from_string(self, group: str, text: str) -> RepLabel:
        """Resolve "d_n", "d_n*r", "d_n#i", or "d_n*r#i" to a table row's rep.

        With the star omitted the unstarred row is meant; if only a
        starred row carries that (d, n), it is accepted instead.
        """
        group = exc_group_from_name(group)
        m = _REP_TEXT.match(str(text).strip())
        try:
            if m is None:
                raise ValueError
            d, n, star, sid = (None if g is None else int(g) for g in m.groups())
        except ValueError:  # malformed, or more digits than int() converts
            raise DomainError(f"malformed representation label {text!r}", code="bad_rep") from None
        cands = [
            row
            for row in self._by_dn.get((group, d, n), ())
            if (star is None or row.rep.star == star)
            and (sid is None or row.rep.synthetic_id == sid)
        ]
        if star is None and len(cands) > 1:
            unstarred = [row for row in cands if row.rep.star == 0]
            if unstarred:
                cands = unstarred
        if not cands:
            raise DomainError(f"no representation {text!r} in {group}", code="unknown_rep")
        if len(cands) > 1:
            shown = ", ".join(self.format_rep(r.rep) for r in cands)
            raise DomainError(
                f"{text!r} is ambiguous in {group}: candidates {shown}",
                code="ambiguous_rep",
            )
        return cands[0].rep

    def row(self, group: str, rep: Union[RepLabel, str]) -> AtlasRow:
        """The table row of a representation: a RepLabel of the group, or its text.

        The text is read by rep_from_string.  Anything else is refused with
        the code "bad_rep", and a representation the group's table does not
        hold with "unknown_rep".
        """
        group = exc_group_from_name(group)
        if isinstance(rep, str):
            rep = self.rep_from_string(group, rep)
        elif not isinstance(rep, RepLabel):
            raise _not_a_rep(rep)
        elif rep.group != group:
            raise DomainError(
                f"representation {rep} belongs to {rep.group}, not {group}", code="unknown_rep"
            )
        for row in self._by_dn.get((group, rep.d, rep.n), ()):
            if row.rep == rep:
                return row
        raise DomainError(f"no representation {rep} in {group}", code="unknown_rep")

    def rows_of_class(self, group: str, label: Union[str, CarterLabel]) -> tuple[AtlasRow, ...]:
        """The rows that hold a class, in table order; a class in none raises with code "unknown_class"."""
        group = exc_group_from_name(group)
        # a label in canonical form is its own key and is not parsed again
        rows = self._by_class.get((group, label)) if type(label) is str else None
        if rows is None:
            canon = label.raw if isinstance(label, CarterLabel) else parse_carter(label).raw
            rows = self._by_class.get((group, canon))
            if not rows:
                raise DomainError(f"no class {canon!r} in the {group} table", code="unknown_class")
        return tuple(rows)

    def rep_of_class(
        self,
        group: str,
        label: Union[str, CarterLabel],
        rep_hint: Union[RepLabel, str, None] = None,
    ) -> RepLabel:
        """The representation indexing the stratum of the given class.

        A rep_hint must name a row that holds the class, else the lookup
        raises with code "unknown_class".  The E7 label "A_3+A_2" names
        classes in two different rows; such lookups need the hint to
        choose, and raise with code "ambiguous_class" without it.
        """
        rows = self.rows_of_class(group, label)
        if rep_hint is None and len(rows) == 1:
            return rows[0].rep
        group = exc_group_from_name(group)
        canon = label.raw if isinstance(label, CarterLabel) else parse_carter(label).raw  # for the messages
        if rep_hint is not None:
            want = self.row(group, rep_hint)
            if want not in rows:
                raise DomainError(
                    f"class {canon!r} does not occur under {self.format_rep(want.rep)}",
                    code="unknown_class",
                )
            return want.rep
        shown = ", ".join(self.format_rep(r.rep) for r in rows)
        raise DomainError(
            f"class {canon!r} occurs in several {group} rows ({shown}); "
            "pass rep_hint to choose",
            code="ambiguous_class",
        )

    def strata_for_characteristic(self, group: str, char: int) -> tuple[RepLabel, ...]:
        """The representations whose strata contain unipotent classes.

        In characteristic 0 (or any prime other than 2 and 3) these are
        the unstarred rows; in characteristic r in {2, 3} the rows
        starred *_r join them.
        """
        group = exc_group_from_name(group)
        check_characteristic(char)
        return tuple(
            row.rep
            for row in self._rows[group]
            if row.rep.star == 0 or row.rep.star == char
        )

    def cross_section(self, group: str, rep: Union[RepLabel, str]) -> CarterLabel:
        """The unique class of the fiber with minimal fixed-space dimension.

        Uniqueness of the minimizer is a claimed property of the tables;
        a tie raises ConsistencyError rather than picking arbitrarily.
        """
        row = self.row(group, rep)
        dims = [m_of_class(row.group, c) for c in row.classes]
        return unique_minimizer(row.classes, dims, lambda: f"on {row.group} {self.format_rep(row.rep)}")


def _parse_error(source: str, lineno: int, why: str) -> DomainError:
    return DomainError(f"{source}:{lineno}: {why}", code="atlas_parse_error")


def _parse_atlas(text: str, source: str) -> Atlas:
    version: Optional[str] = None
    rows: list[AtlasRow] = []
    # line numbers of the rows read so far, per (group, d, n) in synthetic-id order
    dn_lines: dict[tuple[str, int, int], list[int]] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split("|")
        kind = fields[0]
        if kind == "version":
            if version is not None:
                raise _parse_error(source, lineno, "version must be the first record")
            if len(fields) != 2 or not _NUMBER.fullmatch(fields[1]):
                raise _parse_error(source, lineno, "bad version record")
            # compared as text, so no number is too long to read
            version = fields[1].lstrip("0") or "0"
            if version != str(ATLAS_FORMAT_VERSION):
                raise DomainError(
                    f"{source}: unsupported atlas format version {version}",
                    code="atlas_version",
                )
        elif kind in ("row", "iso") and version is None:
            raise DomainError(f"{source}:{lineno}: missing version record", code="atlas_version")
        elif kind == "row":
            if len(fields) != 8:
                raise _parse_error(source, lineno, f"row needs 8 fields, got {len(fields)}")
            _, group, *numbers, classes, note = fields
            try:
                if not all(map(_NUMBER.fullmatch, numbers)):
                    raise ValueError("degree, n, star and id must be ASCII digits")
                rep = RepLabel(group, *map(int, numbers))
            except (ValueError, DomainError) as exc:
                raise _parse_error(source, lineno, f"bad row: {exc}") from None
            # AtlasRow's rule: a nonempty note exactly for starred rows
            if bool(note) != bool(rep.star):
                why = "is starred and has no note" if rep.star else "is not starred and has a note"
                raise _parse_error(source, lineno, f"row {rep} {why}")
            earlier = dn_lines.setdefault((rep.group, rep.d, rep.n), [])
            if rep.synthetic_id < len(earlier):
                raise _parse_error(
                    source, lineno, f"row {rep} repeats line {earlier[rep.synthetic_id]}"
                )
            if rep.synthetic_id != len(earlier):
                raise _parse_error(
                    source, lineno, f"synthetic id should be {len(earlier)}, got {rep.synthetic_id}"
                )
            earlier.append(lineno)
            # parse_carter refuses an empty label, and m_of_class one beyond the group
            try:
                parsed = tuple(parse_carter(c) for c in classes.split(","))
                for c in parsed:
                    m_of_class(rep.group, c)
            except DomainError as exc:
                raise _parse_error(source, lineno, str(exc)) from None
            if len({c.raw for c in parsed}) != len(parsed):
                raise _parse_error(source, lineno, "repeated class within a row")
            rows.append(AtlasRow(rep.group, parsed, rep, note))
        elif kind == "iso":
            if len(fields) != 5:
                raise _parse_error(source, lineno, f"iso needs 5 fields, got {len(fields)}")
            _, group, flavor, subtype, _ = fields
            try:
                _group_from_name(group, _ISO_GROUPS, "group or series")
            except DomainError as exc:
                raise _parse_error(source, lineno, str(exc)) from None
            if flavor.strip().lower() not in _ISO_FLAVORS:
                raise _parse_error(source, lineno, f"unknown flavor {flavor!r}")
            if not subtype:
                raise _parse_error(source, lineno, "iso entry has no subtype")
        else:
            raise _parse_error(source, lineno, f"unknown record kind {kind!r}")
    if version is None:
        raise DomainError(f"{source}: missing version record", code="atlas_version")
    return Atlas(rows, text)


@functools.lru_cache(maxsize=None)
def _load_from_path(path: str) -> Atlas:
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise DomainError(f"cannot read atlas file {path}: {exc}", code="atlas_io_error")
    return _parse_atlas(text, path)


def load_atlas(path: Union[str, os.PathLike, None] = None) -> Atlas:
    """The atlas read from the file at path, or else from the packaged file.

    A path is a string or an os.PathLike; anything else is refused with the
    code bad_path.
    """
    if path is not None and not isinstance(path, (str, os.PathLike)):
        raise DomainError(f"atlas path must be a string or an os.PathLike, got {path!r}", code="bad_path")
    # the packaged path is absolute from import on, so the common call resolves no path
    return _load_from_path(_PACKAGED_PATH if path is None else os.path.abspath(path))


def rep_of_class(group, label, rep_hint=None) -> RepLabel:
    """rep_of_class on the default atlas; see Atlas.rep_of_class."""
    return load_atlas().rep_of_class(group, label, rep_hint)

