"""Tests for the exceptional strata atlas.

The table content is frozen here: row counts, star inventories, the
checksum of the shipped data file, and spot rows. Structural claims
(unique cross-sections, weakly increasing n, label uniqueness) are
checked exhaustively over all five groups.
"""

import hashlib
import json
import os
import re
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import weylstrata
from weylstrata.atlas import (
    _PACKAGED_PATH,
    EXC_GROUPS,
    EXC_POSITIVE_ROOTS,
    MAX_NESTING,
    Atlas,
    CarterLabel,
    RepLabel,
    _parse_atlas,
    exc_group_from_name,
    load_atlas,
    m_of_class,
    parse_carter,
    rep_of_class,
)
from weylstrata.errors import ConsistencyError, DomainError

DATA_SHA256 = "ac32ec62a4e2e9866eefda0890e8c687fa888352716d75f6b34d7162ec400d32"

ROW_COUNTS = {"G2": 6, "F4": 20, "E6": 21, "E7": 46, "E8": 75}
LABEL_COUNTS = {"G2": 6, "F4": 25, "E6": 25, "E7": 60, "E8": 111}
STARS = {
    "G2": {(1, 3, 3)},
    "F4": {(9, 6, 2), (4, 7, 2), (4, 8, 2), (2, 16, 2)},
    "E6": set(),
    "E7": {(84, 15, 2)},
    "E8": {(1050, 10, 2), (840, 14, 2), (168, 24, 2), (972, 32, 2), (175, 12, 3)},
}


def test_packaged_file_checksum():
    assert load_atlas().checksum() == DATA_SHA256


def _one_byte_changed(text):
    i = text.index("E8")
    return text[:i] + "E9" + text[i + 2 :]


def test_checksum_is_the_sha256_of_the_text():
    # the interpreter's own sha256 module, against hashlib's
    text = load_atlas().text
    for each in (text, _one_byte_changed(text)):
        assert Atlas([], each).checksum() == hashlib.sha256(each.encode("utf-8")).hexdigest()
    assert Atlas([], _one_byte_changed(text)).checksum() != DATA_SHA256


# with neither built-in sha256 module importable, checksum falls back to hashlib
_FALLBACK = """
import json, sys
sys.modules["_sha2"] = sys.modules["_sha256"] = None
from weylstrata.atlas import Atlas, load_atlas
text = load_atlas().text
i = text.index("E8")
sums = [Atlas([], each).checksum() for each in (text, text[:i] + "E9" + text[i + 2 :])]
print(json.dumps(sums + ["hashlib" in sys.modules]))
"""


def test_checksum_falls_back_to_hashlib():
    src = os.path.dirname(os.path.dirname(os.path.abspath(weylstrata.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", _FALLBACK], capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert (done.returncode, done.stderr) == (0, "")
    text = load_atlas().text
    assert json.loads(done.stdout) == [
        DATA_SHA256, hashlib.sha256(_one_byte_changed(text).encode("utf-8")).hexdigest(), True,
    ]


def test_row_counts():
    atlas = load_atlas()
    assert {g: len(atlas.rows(g)) for g in EXC_GROUPS} == ROW_COUNTS


def test_label_instance_counts():
    atlas = load_atlas()
    for group, want in LABEL_COUNTS.items():
        assert sum(len(row.classes) for row in atlas.rows(group)) == want


def test_star_inventory():
    atlas = load_atlas()
    for group, want in STARS.items():
        got = {(r.rep.d, r.rep.n, r.rep.star) for r in atlas.rows(group) if r.rep.star}
        assert got == want, group


def test_starred_rows_carry_notes_and_only_them():
    for row in (row for g in EXC_GROUPS for row in load_atlas().rows(g)):
        assert bool(row.note) == bool(row.rep.star)


def test_n_weakly_increasing_in_each_table():
    atlas = load_atlas()
    for group in EXC_GROUPS:
        ns = [row.rep.n for row in atlas.rows(group)]
        assert ns == sorted(ns), group


def test_table_endpoints():
    atlas = load_atlas()
    coxeter = {"G2": "G_2", "F4": "F_4", "E6": "E_6", "E7": "E_7", "E8": "E_8"}
    for group in EXC_GROUPS:
        top = atlas.rep_of_class(group, coxeter[group])
        assert (top.d, top.n, top.star) == (1, 0, 0)
        bottom = atlas.rep_of_class(group, "A_0")
        assert (bottom.d, bottom.n, bottom.star) == (1, EXC_POSITIVE_ROOTS[group], 0)


def test_each_label_in_one_row_except_the_known_collision():
    atlas = load_atlas()
    collisions = []
    for group in EXC_GROUPS:
        seen = {}
        for row in atlas.rows(group):
            for c in row.classes:
                seen.setdefault(c.raw, []).append(row.rep)
        for raw, reps in seen.items():
            if len(reps) > 1:
                collisions.append((group, raw, [str(r) for r in reps]))
    assert collisions == [("E7", "A_3+A_2", ["378_14", "84_15*2"])]


def test_rep_of_class_examples():
    assert rep_of_class("G2", "A_2") == RepLabel("G2", 2, 1)
    assert rep_of_class("E8", "D_7(a_1)") == RepLabel("E8", 1050, 10, star=2)
    assert rep_of_class("F4", "A_0") == RepLabel("F4", 1, 24)
    # alternate spellings of group and label
    assert rep_of_class("e_8", "D_7(a_1)").d == 1050
    assert rep_of_class("F4", "Ã_1") == RepLabel("F4", 2, 16, star=2, synthetic_id=1)
    assert rep_of_class("E7", "A''_5") == rep_of_class("E7", "A_5''")


def test_every_class_key_is_its_own_canonical_form():
    # rows_of_class, and rep_of_class through it, look a key up without parsing it
    atlas = load_atlas()
    assert len(atlas._by_class) == sum(LABEL_COUNTS.values()) - 1  # E7's A_3+A_2 is in two rows
    for group, raw in atlas._by_class:
        assert parse_carter(raw).raw == raw
        assert atlas.rows_of_class(group, raw) == atlas.rows_of_class(group, parse_carter(raw))


@pytest.mark.parametrize(
    "group, spelling, canonical",
    [
        ("E8", " D_7 (a_1)\t", "D_7(a_1)"),
        ("F4", "Ã_1", "~A_1"),
        ("F4", "Ã_2 + Ã_2", "~A_2+~A_2"),
        ("G2", "A_1+Ã_1", "A_1+~A_1"),
        ("E7", "A''_5", "A_5''"),
        ("E7", "(A_5 + A_1)''", "(A_5+A_1)''"),
        ("E7", " A_3+A_2", "A_3+A_2"),
    ],
)
def test_other_spellings_resolve_as_their_canonical_form(group, spelling, canonical):
    atlas = load_atlas()
    assert (group, spelling) not in atlas._by_class and (group, canonical) in atlas._by_class
    assert atlas.rows_of_class(group, spelling) == atlas.rows_of_class(group, canonical)
    assert atlas.rows_of_class(group, parse_carter(spelling)) == atlas.rows_of_class(group, canonical)
    outcomes = []
    for label in (spelling, canonical, parse_carter(spelling)):
        try:
            outcomes.append(rep_of_class(group, label))
        except DomainError as err:  # the ambiguous class names its canonical form
            outcomes.append((err.code, str(err)))
    assert outcomes[0] == outcomes[1] == outcomes[2]


def test_rep_of_class_errors():
    with pytest.raises(DomainError) as err:
        rep_of_class("G2", "A_3")
    assert err.value.code == "unknown_class"
    with pytest.raises(DomainError) as err:
        rep_of_class("E7", "A_3+A_2")
    assert err.value.code == "ambiguous_class"
    with pytest.raises(DomainError) as err:
        exc_group_from_name("H3")
    assert err.value.code == "bad_group"


def test_ambiguous_class_resolved_by_hint():
    assert rep_of_class("E7", "A_3+A_2", rep_hint="378_14") == RepLabel("E7", 378, 14)
    assert rep_of_class("E7", "A_3+A_2", rep_hint="84_15*2") == RepLabel("E7", 84, 15, star=2)
    with pytest.raises(DomainError) as err:
        rep_of_class("E7", "A_3+A_2", rep_hint="1_0")
    assert err.value.code == "unknown_class"


def test_a_hint_must_name_a_row_holding_the_class():
    # one rule for every class, in one row or in several
    with pytest.raises(DomainError) as err:
        rep_of_class("E8", "A_0", rep_hint="1_0")
    assert err.value.code == "unknown_class"
    atlas = load_atlas()
    for group in EXC_GROUPS:
        rows = atlas.rows(group)
        for label in {c for row in rows for c in row.classes}:
            for row in rows:
                if label in row.classes:
                    assert atlas.rep_of_class(group, label, rep_hint=row.rep) == row.rep
                    assert atlas.rep_of_class(group, label.raw, atlas.format_rep(row.rep)) == row.rep
                    continue
                with pytest.raises(DomainError) as err:
                    atlas.rep_of_class(group, label, rep_hint=row.rep)
                assert err.value.code == "unknown_class"


def test_fiber_examples():
    atlas = load_atlas()
    assert [str(c) for c in atlas.row("E7", "15_28").classes] == ["7A_1", "6A_1", "5A_1", "(4A_1)'"]
    assert [str(c) for c in atlas.row("G2", "1_0").classes] == ["G_2"]
    assert [str(c) for c in atlas.row("E6", "10_9").classes] == ["3A_2", "2A_2+A_1"]
    with pytest.raises(DomainError) as err:
        atlas.row("G2", "17_5")
    assert err.value.code == "unknown_rep"


@pytest.mark.parametrize("method", ["row", "cross_section"])
def test_rep_label_of_another_group_is_refused(method):
    # G2's 1_0 shares its key fields with E8's 1_0, but is not an E8 row
    with pytest.raises(DomainError) as err:
        getattr(load_atlas(), method)("E8", RepLabel("G2", 1, 0))
    assert err.value.code == "unknown_rep"
    assert "G2" in str(err.value) and "E8" in str(err.value)


def test_fibers_partition_the_label_instances():
    atlas = load_atlas()
    for group in EXC_GROUPS:
        total = sum(len(atlas.row(group, row.rep).classes) for row in atlas.rows(group))
        assert total == LABEL_COUNTS[group]


def test_strata_for_characteristic_counts():
    atlas = load_atlas()
    assert len(atlas.strata_for_characteristic("E8", 0)) == 70
    assert len(atlas.strata_for_characteristic("E8", 2)) == 74
    assert len(atlas.strata_for_characteristic("E8", 3)) == 71
    assert len(atlas.strata_for_characteristic("E8", 5)) == 70
    assert len(atlas.strata_for_characteristic("E8", 7)) == 70


def test_strata_for_characteristic_e7():
    # the one starred E7 row is absent away from characteristic 2
    atlas = load_atlas()
    for char in (0, 3, 5):
        reps = atlas.strata_for_characteristic("E7", char)
        assert len(reps) == 45
        assert all((r.d, r.n) != (84, 15) or r.star == 0 for r in reps)
    assert len(atlas.strata_for_characteristic("E7", 2)) == 46


def test_strata_for_characteristic_rejects_nonprimes():
    for bad in (1, 4, 6, -3):
        with pytest.raises(DomainError) as err:
            load_atlas().strata_for_characteristic("G2", bad)
        assert err.value.code == "bad_characteristic"


def test_class_dim():
    atlas = load_atlas()
    assert atlas.row("E8", RepLabel("E8", 1, 0)).class_dim == 240
    assert atlas.row("E8", RepLabel("E8", 1, 120)).class_dim == 0
    assert atlas.row("G2", RepLabel("G2", 2, 1)).class_dim == 10
    # dimensions are even and bounded by dim G - rank
    for group in EXC_GROUPS:
        for row in atlas.rows(group):
            dim = row.class_dim
            assert 0 <= dim <= 2 * EXC_POSITIVE_ROOTS[group]
            assert dim % 2 == 0


def test_class_dim_refuses_a_label_without_a_row():
    atlas = load_atlas()
    for rep in (RepLabel("G2", 1, 500), RepLabel("E8", 7, 3)):
        with pytest.raises(DomainError) as err:
            atlas.row(rep.group, rep)
        assert err.value.code == "unknown_rep"


def test_class_dim_of_every_row_is_twice_the_positive_roots_less_2n():
    atlas = load_atlas()
    for group in EXC_GROUPS:
        for row in atlas.rows(group):
            assert atlas.row(group, row.rep).class_dim == 2 * EXC_POSITIVE_ROOTS[group] - 2 * row.rep.n


def test_cross_section_examples():
    atlas = load_atlas()
    assert str(atlas.cross_section("F4", "9_10")) == "4A_1"
    assert str(atlas.cross_section("G2", "1_6")) == "A_0"
    assert str(atlas.cross_section("E8", "50_56")) == "8A_1"
    assert str(atlas.cross_section("E8", "1400_29")) == "2A_3+2A_1"


def test_cross_section_unique_everywhere():
    atlas = load_atlas()
    for group in EXC_GROUPS:
        for row in atlas.rows(group):
            best = atlas.cross_section(group, row.rep)
            m = m_of_class(group, best)
            others = [c for c in row.classes if c.raw != best.raw]
            assert all(m_of_class(group, c) > m for c in others)


def test_cross_section_refuses_a_tie():
    # two classes of one rank in one row tie for the least fixed-space dimension
    text = load_atlas().text.replace("row|G2|2|1|0|0|A_2|", "row|G2|2|1|0|0|A_1,~A_1|")
    atlas = _parse_atlas(text, "tie")
    with pytest.raises(ConsistencyError) as err:
        atlas.cross_section("G2", "2_1")
    assert err.value.code == "cross_section_tie"
    assert "A_1" in str(err.value) and "~A_1" in str(err.value)


def test_parse_carter_examples():
    assert parse_carter("D_4(a_1)+A_1").parsed_rank == 5
    assert parse_carter("(2A_3)''").parsed_rank == 6
    assert parse_carter("A_0").parsed_rank == 0
    assert parse_carter("4A_1").parsed_rank == 4
    assert parse_carter("Ã_2+A_1").raw == "~A_2+A_1"
    assert parse_carter("~A_2 + A_1").parsed_rank == 3
    assert parse_carter("A''_5").raw == "A_5''"
    assert parse_carter("E_8(a_5)").parsed_rank == 8
    assert parse_carter("(A_5+A_1)''").parsed_rank == 6
    assert parse_carter("2D_4(a_1)").parsed_rank == 8


@pytest.mark.parametrize(
    "bad",
    [
        "", "A", "A_", "_3", "A_3)", "(A_3", "(A_3)", "1A_3", "A'''_2", "A''_5''", "X_2", "A_3++A_1", "a_3",
        # class labels take ASCII digits only
        "A_٣", "٢A_1", "A_1(a_١)",
        pytest.param("A_" + "9" * 5000, id="subscript-of-5000-digits"),
        pytest.param("9" * 5000 + "A_1", id="multiplicity-of-5000-digits"),
        pytest.param("(" * 1200 + "A_1" + ")''" * 1200, id="1200-nested-parentheses"),
        pytest.param(7, id="not-a-string"),
        pytest.param(None, id="None"),
    ],
)
def test_parse_carter_rejects(bad):
    with pytest.raises(DomainError) as err:
        parse_carter(bad)
    assert err.value.code == "bad_carter_label"
    if not isinstance(bad, str):
        assert str(err.value) == "class label must be a string"


def test_parse_carter_nesting_bound():
    deepest = "(" * MAX_NESTING + "A_1" + ")'" * MAX_NESTING
    assert parse_carter(deepest) == CarterLabel(deepest, 1)
    with pytest.raises(DomainError) as err:
        parse_carter("(" + deepest + ")'")
    assert err.value.code == "bad_carter_label"
    assert str(MAX_NESTING) in str(err.value)


# The recursive reader that parse_carter replaced, kept as the reference: it
# splits a sum at its top-level '+' signs and recurses into each parenthesis.
_REF_SIMPLE_TOKEN = re.compile(r"^(~?)([A-G])('{0,2})_([0-9]+)('{0,2})(\(a_[0-9]+\))?('{0,2})$")


def _ref_malformed(raw, why):
    return DomainError(f"malformed class label {raw!r}: {why}", code="bad_carter_label")


def _ref_parse_sum(text, raw):
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise _ref_malformed(raw, "unbalanced parentheses")
        elif ch == "+" and depth == 0:
            parts.append(text[start:i])
            start = i + 1
    if depth != 0:
        raise _ref_malformed(raw, "unbalanced parentheses")
    parts.append(text[start:])
    if any(not p for p in parts):
        raise _ref_malformed(raw, "empty summand")
    canons, ranks = zip(*[_ref_parse_term(part, raw) for part in parts])
    return "+".join(canons), sum(ranks)


def _ref_parse_term(term, raw):
    mult = 1
    m = re.match(r"^([0-9]+)(?=[~A-G(])", term)
    if m:
        mult = int(m.group(1))
        if mult < 2:
            raise _ref_malformed(raw, "multiplicity must be at least 2")
        term = term[m.end():]
    if term.startswith("("):
        depth = 0
        for i, ch in enumerate(term):
            depth += ch == "("
            depth -= ch == ")"
            if depth == 0:
                break
        tail = term[i + 1 :]
        if not re.fullmatch(r"'{1,2}", tail):
            raise _ref_malformed(raw, "a parenthesized sum must end in primes")
        joined, inner_rank = _ref_parse_sum(term[1:i], raw)
        return f"{mult if mult > 1 else ''}({joined}){tail}", mult * inner_rank
    m = _REF_SIMPLE_TOKEN.match(term)
    if m is None:
        raise _ref_malformed(raw, f"bad token {term!r}")
    tilde, letter, p1, sub, p2, annot, p3 = m.groups()
    primes = [p for p in (p1, p2, p3) if p]
    if len(primes) > 1:
        raise _ref_malformed(raw, "primes in more than one position")
    prime = primes[0] if primes else ""
    canon = f"{tilde}{letter}_{sub}{annot or ''}{prime}"
    return f"{mult if mult > 1 else ''}{canon}", mult * int(sub)


def _ref_parse_carter(raw):
    text = re.sub(r"\s+", "", raw).replace("Ã", "~A")
    if not text:
        raise _ref_malformed(raw, "empty")
    try:
        return CarterLabel(*_ref_parse_sum(text, raw))
    except DomainError:
        raise
    except (ValueError, RecursionError):
        raise _ref_malformed(raw, "a number has too many digits or the parentheses nest too deeply") from None


def _outcome(parse, text):
    # (canonical text, rank) of an accepted label, the code of a refused one
    try:
        label = parse(text)
    except DomainError as exc:
        return exc.code
    return label.raw, label.parsed_rank


def _carter_labels(faults: bool):
    # labels nested up to MAX_NESTING deep: the first summand of each sum
    # carries the nesting, the others nest at most one level; with faults,
    # pieces the grammar refuses are drawn too
    mults = st.sampled_from(["", "", "2", "3", "02"] + (["0", "1"] if faults else []))
    primes = ["'", "''"] + (["'''"] if faults else [])
    marks = [("", "", "")] + [m for p in primes for m in ((p, "", ""), ("", p, ""), ("", "", p))]
    if faults:
        marks += [("'", "'", ""), ("", "'", "''"), ("''", "", "'")]
    simple = st.sampled_from([
        f"{tilde}{letter}{p1}_{sub}{p2}{annot}{p3}"
        for tilde in ("", "~") for letter in "ABCDEFG" for sub in ("0", "1", "2", "07", "13")
        for annot in ("", "(a_1)", "(a_02)") for p1, p2, p3 in marks
    ])
    closes = st.sampled_from(["'", "''"] + (["", "'''", "'+", "''x"] if faults else []))

    def term(draw, depth):
        if depth == 0:
            return draw(mults) + draw(simple)
        return f"{draw(mults)}({summands(draw, depth - 1)}){draw(closes)}"

    def summands(draw, depth):
        rest = [term(draw, draw(st.integers(0, min(depth, 1)))) for _ in range(draw(st.integers(0, 2)))]
        return "+".join([term(draw, depth)] + rest)

    @st.composite
    def labels(draw):
        return summands(draw, draw(st.integers(0, MAX_NESTING)))

    return labels()


_PIECES = ["A", "B", "D", "E", "G", "X", "~", "_", "0", "1", "2", "(", ")", "'", "+", "(a_1)", "a", " ", "Ã", "٢"]


@settings(max_examples=300, deadline=None)
@given(st.one_of(_carter_labels(False), _carter_labels(True), st.lists(st.sampled_from(_PIECES), max_size=14).map("".join)))
def test_parse_carter_agrees_with_the_recursive_reader(text):
    outcome = _outcome(parse_carter, text)
    assert outcome == _outcome(_ref_parse_carter, text)
    if outcome != "bad_carter_label":  # the canonical text reads back as itself
        assert _outcome(parse_carter, outcome[0]) == outcome


@settings(max_examples=100, deadline=None)
@given(_carter_labels(False))
def test_parse_carter_accepts_every_well_formed_label(text):
    assert _outcome(parse_carter, text) == _outcome(_ref_parse_carter, text) != "bad_carter_label"


def test_every_atlas_label_parses_as_the_recursive_reader_read_it():
    with open(_PACKAGED_PATH, encoding="utf-8") as handle:
        raws = [c for line in handle if line.startswith("row|") for c in line.split("|")[6].split(",")]
    assert len(raws) == sum(LABEL_COUNTS.values())
    for raw in raws:
        label = parse_carter(raw)
        assert label == _ref_parse_carter(raw)
        assert parse_carter(label.raw) == label


def test_m_of_class():
    assert m_of_class("G2", "A_0") == 2
    assert m_of_class("E8", "8A_1") == 0
    assert m_of_class("E7", "D_4(a_1)+A_1") == 2
    with pytest.raises(DomainError):
        m_of_class("G2", "A_3")


def test_rep_from_string_resolution():
    atlas = load_atlas()
    # bare d_n means the unstarred row
    assert atlas.rep_from_string("F4", "9_6").star == 0
    assert atlas.rep_from_string("F4", "9_6*2").star == 2
    assert atlas.rep_from_string("G2", "1_3").star == 0
    assert atlas.rep_from_string("G2", "1_3*3").star == 3
    # an only-starred (d, n) is still reachable without the star
    assert atlas.rep_from_string("E8", "1050_10").star == 2
    with pytest.raises(DomainError) as err:
        atlas.rep_from_string("F4", "8_3")
    assert err.value.code == "ambiguous_rep"
    assert atlas.rep_from_string("F4", "8_3#1").synthetic_id == 1
    with pytest.raises(DomainError) as err:
        atlas.rep_from_string("F4", "999_9")
    assert err.value.code == "unknown_rep"
    # ASCII digits only, and any number of them
    for bad in ("felix", "١_١٢٠", "1_" + "9" * 5000):
        with pytest.raises(DomainError) as err:
            atlas.rep_from_string("F4", bad)
        assert err.value.code == "bad_rep"


def test_format_rep_round_trips():
    atlas = load_atlas()
    for group in EXC_GROUPS:
        for row in atlas.rows(group):
            text = atlas.format_rep(row.rep)
            assert atlas.rep_from_string(group, text) == row.rep
    assert atlas.format_rep(RepLabel("F4", 8, 3)) == "8_3#0"
    assert atlas.format_rep(RepLabel("F4", 9, 6)) == "9_6"


def test_rep_label_validation():
    with pytest.raises(DomainError):
        RepLabel("E6", 0, 3)
    with pytest.raises(DomainError):
        RepLabel("E6", 5, -1)
    with pytest.raises(DomainError):
        RepLabel("E6", 5, 1, star=5)
    with pytest.raises(DomainError) as err:
        RepLabel("E6", 5, 1, synthetic_id=-1)
    assert (err.value.code, str(err.value)) == ("bad_rep", "synthetic id must be nonnegative")
    assert str(RepLabel("F4", 4, 8, star=2)) == "4_8*2"


def test_load_atlas_from_explicit_path(tmp_path):
    # only a starred row carries a note, so the changed note is a starred row's
    text = load_atlas().text.replace(
        "row|G2|1|3|3|0|~A_1|j-induced: sign", "row|G2|1|3|3|0|~A_1|spot the difference: sign"
    )
    alt = tmp_path / "alt_atlas.txt"
    alt.write_text(text, encoding="utf-8")
    atlas = load_atlas(str(alt))
    assert atlas.row("G2", "1_3*3").note.startswith("spot the difference: sign")
    assert load_atlas().row("G2", "1_3*3").note.startswith("j-induced: sign")


def test_load_atlas_ignores_the_variable(tmp_path, monkeypatch):
    # WEYLSTRATA_ATLAS, which once named the file, names nothing: a copy
    # less one E8 row, named by it, is not read
    alt = tmp_path / "env_atlas.txt"
    alt.write_text(load_atlas().text.replace("row|E8|1|120|0|0|A_0|\n", ""), encoding="utf-8")
    monkeypatch.setenv("WEYLSTRATA_ATLAS", str(alt))
    assert len(load_atlas().rows("E8")) == ROW_COUNTS["E8"]
    assert load_atlas() is load_atlas(_PACKAGED_PATH)
    assert len(load_atlas(alt).rows("E8")) == ROW_COUNTS["E8"] - 1


def test_load_atlas_without_a_path_is_the_cached_packaged_atlas():
    # the packaged path is absolute from import on, so both calls read one cache entry
    assert os.path.isabs(_PACKAGED_PATH)
    assert load_atlas() is load_atlas(_PACKAGED_PATH)


# (mangle, code, the message after the file's path); the atlas lines named are
# those of the packaged file, whose bytes DATA_SHA256 pins
_MALFORMED = [
    (lambda t: t.replace("version|1", "version|9"), "atlas_version", ": unsupported atlas format version 9"),
    (lambda t: t.replace("version|1", "# no version"), "atlas_version", ":46: missing version record"),
    (
        lambda t: t.replace("row|G2|1|0|0|0|G_2|", "row|G2|1|0|0|0|G_2"),
        "atlas_parse_error",
        ":46: row needs 8 fields, got 7",
    ),
    (
        lambda t: t.replace("row|G2|1|0|0|0|G_2|", "row|H9|1|0|0|0|G_2|"),
        "atlas_parse_error",
        ":46: bad row: unknown exceptional group 'H9'",
    ),
    (
        lambda t: t.replace("row|G2|2|1|0|0|A_2|", "row|G2|2|1|0|3|A_2|"),
        "atlas_parse_error",
        ":47: synthetic id should be 0, got 3",
    ),
    (
        lambda t: t.replace("row|G2|2|1|0|0|A_2|", "row|G2|2|1|0|0|A_9|"),
        "atlas_parse_error",
        ":47: label 'A_9' has rank 9, beyond G2",
    ),
    (
        lambda t: t.replace("row|G2|2|1|0|0|A_2|", "row|G2|2|1|4|0|A_2|"),
        "atlas_parse_error",
        ":47: bad row: star must be 0, 2, or 3, got 4",
    ),
    (
        lambda t: t.replace("iso|A|pseudo_levi|A_n|n>=0", "iso|A|levi|A_n|n>=0"),
        "atlas_parse_error",
        ":219: unknown flavor 'levi'",
    ),
    (
        lambda t: t.replace("iso|A|pseudo_levi|A_n|n>=0", "iso|H9|pseudo_levi|A_n|n>=0"),
        "atlas_parse_error",
        ":219: unknown group or series 'H9'",
    ),
    (lambda t: "iso|A|pseudo_levi|A_n|n>=0\n" + t, "atlas_version", ":1: missing version record"),
    (lambda t: t + "wat|1|2\n", "atlas_parse_error", ":286: unknown record kind 'wat'"),
    # the first E8 row repeated at the end of the file
    (
        lambda t: t + next(l for l in t.splitlines() if l.startswith("row|E8|")) + "\n",
        "atlas_parse_error",
        ":286: row 1_0 repeats line 143",
    ),
    (lambda t: t.replace("version|1", "version|²"), "atlas_parse_error", ":44: bad version record"),
    (
        lambda t: t.replace("row|G2|2|1|0|0|A_2|", "row|G2|2|١|0|0|A_2|"),
        "atlas_parse_error",
        ":47: bad row: degree, n, star and id must be ASCII digits",
    ),
    (
        lambda t: t.replace("version|1", "version|" + "9" * 5000),
        "atlas_version",
        ": unsupported atlas format version " + "9" * 5000,
    ),
    (
        lambda t: t.replace("row|G2|2|1|0|0|A_2|", "row|G2|2|1|0|0||"),
        "atlas_parse_error",
        ":47: malformed class label '': empty",
    ),
    (
        lambda t: t.replace("version|1", "version|1\nversion|1"),
        "atlas_parse_error",
        ":45: version must be the first record",
    ),
    (
        lambda t: t.replace("row|G2|2|1|0|0|A_2|", "row|G2|2|1|0|0|A_2,A_2|"),
        "atlas_parse_error",
        ":47: repeated class within a row",
    ),
    (
        lambda t: t.replace("iso|A|pseudo_levi|A_n|n>=0", "iso|A|pseudo_levi|A_n"),
        "atlas_parse_error",
        ":219: iso needs 5 fields, got 4",
    ),
    (
        lambda t: t.replace("iso|A|pseudo_levi|A_n|n>=0", "iso|A|pseudo_levi||n>=0"),
        "atlas_parse_error",
        ":219: iso entry has no subtype",
    ),
    (lambda t: "# a comment and no record\n", "atlas_version", ": missing version record"),
    # a nonempty note exactly for starred rows
    (
        lambda t: t.replace(next(l for l in t.splitlines() if l.startswith("row|E8|1050|10|2|")), "row|E8|1050|10|2|0|D_7(a_1)|"),
        "atlas_parse_error",
        ":158: row 1050_10*2 is starred and has no note",
    ),
    (
        lambda t: t.replace("row|E8|1|0|0|0|E_8|", "row|E8|1|0|0|0|E_8|a note"),
        "atlas_parse_error",
        ":143: row 1_0 is not starred and has a note",
    ),
]
_MESSAGE_OF = {mangle: message for mangle, _, message in _MALFORMED}


@pytest.mark.parametrize("mangle,code", [row[:2] for row in _MALFORMED])
def test_load_atlas_rejects_malformed(tmp_path, mangle, code):
    bad = tmp_path / "bad_atlas.txt"
    bad.write_text(mangle(load_atlas().text), encoding="utf-8")
    with pytest.raises(DomainError) as err:
        load_atlas(str(bad))
    assert (err.value.code, str(err.value)) == (code, f"{bad}{_MESSAGE_OF[mangle]}")


def test_iso_record_names_are_read_loosely(tmp_path):
    # group and flavor are read as the names of the other records are:
    # whitespace around them and case do not matter, nor "_" in the group
    text = load_atlas().text
    alt = tmp_path / "loose_iso.txt"
    alt.write_text(
        text.replace("iso|A|pseudo_levi|A_n|n>=0", "iso| e_6 | Double_Isolated |A_5A_1|"), encoding="utf-8"
    )
    assert load_atlas(str(alt)).text.splitlines()[218] == "iso| e_6 | Double_Isolated |A_5A_1|"


def test_atlas_row_spot_checks():
    atlas = load_atlas()
    # first and last rows of each group
    firsts = {g: atlas.rows(g)[0] for g in EXC_GROUPS}
    for g, row in firsts.items():
        assert str(row.rep) == "1_0"
    assert [str(c) for c in atlas.rows("E8")[4].classes] == ["E_7+A_1", "E_7"]
    assert str(atlas.rows("F4")[3].rep) == "8_3"
    assert [str(c) for c in atlas.rows("F4")[3].classes] == ["D_4", "B_3"]
    assert str(atlas.rows("E7")[-1].rep) == "1_63"
    # the one row whose printed position was out of n-order sits sorted here
    e8_reps = [str(r.rep) for r in atlas.rows("E8")]
    assert e8_reps.index("175_12*3") == e8_reps.index("1400_11") + 1
