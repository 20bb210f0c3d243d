"""End-to-end tests of the command-line interface."""

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import time
from importlib import resources

import jsonschema
import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from weylstrata import cli, verify

from weylstrata.atlas import load_atlas
from weylstrata.cli import main
from weylstrata.commands.enumerate import MAX_STRATA
from weylstrata.enumeration import count_bipartitions
from weylstrata.errors import DomainError
from weylstrata.jordan import FAMILY_ALIASES, JordanFamily
from weylstrata.jordan_inverse import enumerate_jordan, invert_bijection
from weylstrata.partitions import Bipartition
from weylstrata.verify import check_names

SCHEMA_FILE = resources.files("weylstrata").joinpath("data").joinpath("envelope.schema.json")
ENVELOPE = jsonschema.Draft7Validator(json.loads(SCHEMA_FILE.read_text(encoding="utf-8")))


def run_cli(capsys, *argv):
    status = main(list(argv))
    out = capsys.readouterr().out
    if "--format" not in argv and "--raw" not in argv:
        # every JSON envelope the tool writes must match the shipped schema
        ENVELOPE.validate(json.loads(out))
    return status, out


def run_json(capsys, *argv):
    status, out = run_cli(capsys, *argv)
    envelope = json.loads(out)
    assert set(envelope) == {"status", "payload", "diagnostics"}
    return status, envelope


def test_phi_exceptional_example(capsys):
    status, env = run_json(capsys, "phi", "--group", "E8", "--class", "D_7(a_1)")
    assert status == 0
    assert env["status"] == "ok"
    p = env["payload"]
    assert (p["d"], p["n"], p["star"]) == (1050, 10, 2)
    assert p["display"] == "1050_10*2"
    assert p["class_dim"] == 2 * 120 - 2 * 10


def test_enumerate_example(capsys):
    status, env = run_json(capsys, "enumerate", "--series", "Sp", "--dimension", "4")
    assert status == 0
    p = env["payload"]
    assert p["count"] == 5
    assert [row["class_dim"] for row in p["strata"]] == [8, 6, 4, 4, 0]


def test_invert_example(capsys):
    status, env = run_json(capsys, "invert", "--family", "Z2", "--N", "6", "--target", "3")
    assert status == 0
    assert env["payload"]["parts"] == [6]
    # empty text is the empty bipartition
    status, env = run_json(capsys, "invert", "--family", "Z2", "--N", "0", "--target", "")
    assert (status, env["payload"]["target"], env["payload"]["parts"]) == (0, [], [])


def test_invert_labeled(capsys):
    status, env = run_json(
        capsys, "invert", "--family", "Z2", "--N", "6", "--target", "1,1,0,1"
    )
    assert status == 0
    assert env["payload"]["parts"] == [2, 2, 1, 1]
    assert env["payload"]["labels"] == {"2": 1}


def test_invert_large_weight_is_fast(capsys):
    start = time.perf_counter()
    status, env = run_json(
        capsys, "invert", "--family", "Z1", "--N", "1000000000", "--target", "500000000"
    )
    assert time.perf_counter() - start < 1.0
    assert (status, env["payload"]["parts"]) == (0, [1000000000])
    status, env = run_json(capsys, "invert", "--family", "Z1", "--N", "60", "--target", "30")
    assert (status, env["payload"]["parts"]) == (0, [60])


@pytest.mark.parametrize("N", [-3, -2])
@pytest.mark.parametrize("name", sorted(FAMILY_ALIASES))
def test_negative_weight_is_refused_for_its_sign(capsys, name, N):
    # not as a parity error: Z1P takes odd weights, the others even ones
    status, env = run_json(capsys, "invert", "--family", name, "--N", str(N), "--target", "0")
    assert (status, env["payload"]["code"]) == (1, "bad_weight")
    assert "nonnegative" in env["payload"]["message"]
    with pytest.raises(DomainError) as err:
        enumerate_jordan(FAMILY_ALIASES[name], N)
    assert err.value.code == "bad_weight"


def test_classify_file(tmp_path, capsys):
    doc = {
        "group": {"series": "Sp", "N": 4, "char": 0},
        "orbits": [
            {"id": "1", "kind": "involutive", "parts": [1, 1]},
            {"id": "-1", "kind": "involutive", "parts": [1, 1]},
        ],
    }
    path = tmp_path / "datum.json"
    path.write_text(json.dumps(doc))
    status, env = run_json(capsys, "classify", str(path))
    assert status == 0
    assert env["payload"]["stratum"]["parts"] == [0, 2]
    assert env["payload"]["class_dim"] == 4


def test_classify_stdin(capsys, monkeypatch):
    doc = {
        "group": {"series": "Sp", "N": 4, "char": 0},
        "orbits": [{"id": "1", "kind": "involutive", "parts": [2, 1, 1]}],
    }
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
    status, env = run_json(capsys, "classify", "-")
    assert status == 0
    assert env["payload"]["stratum"]["parts"] == [1, 0, 1]
    assert env["payload"]["class_dim"] == 4


def test_classify_labels_from_json_strings(capsys, monkeypatch):
    doc = {
        "group": {"series": "Sp", "N": 6, "char": 2},
        "orbits": [
            {"id": "1", "kind": "involutive", "parts": [2, 2, 1, 1], "labels": {"2": 1}}
        ],
    }
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
    status, env = run_json(capsys, "classify", "-")
    assert status == 0
    assert env["payload"]["stratum"]["parts"] == [1, 1, 0, 1]


# (document, code, message)
_BAD_DOCUMENTS = [
    ("not json", "bad_document", "input is not valid JSON: Expecting value: line 1 column 1 (char 0)"),
    ("[1, 2]", "bad_document", "input document must be a JSON object"),
    ('{"group": {"series": "Sp", "N": 4}}', "bad_document", 'document must have "group" and "orbits"'),
    (
        '{"group": {"series": "Sp"}, "orbits": []}',
        "bad_document",
        'group must be {"series": ..., "N": ..., "char"?: ...}',
    ),
    (
        '{"group": {"series": "Sp", "N": 4}, "orbits": [{"id": "1", "kind": "x", "parts": [2, 2]}]}',
        "bad_document",
        "unknown orbit kind 'x'",
    ),
    (
        '{"group": {"series": "Xq", "N": 4}, "orbits": []}',
        "bad_series",
        "unknown series 'Xq'; expected GL, Sp, SO_odd, or SO_even",
    ),
    (
        '{"group": {"series": "Sp", "N": 4}, "orbits": [{"id": "a", "kind": "generic", "parts": [1]}, '
        '{"id": "a", "kind": "generic", "parts": [1]}]}',
        "bad_orbit",
        "orbit ids must be distinct, got ['a', 'a']",
    ),
    (
        '{"group": {"series": "Sp", "N": 4}, "orbits": [{"id": "1", "kind": "involutive", "parts": [3, 1]}]}',
        "not_in_family",
        "involutive orbit '1': Jordan type (3, 1) is not in the symplectic family",
    ),
    (
        '{"group": {"series": "SO_even", "N": 4}, "orbits": [{"id": "1", "kind": "involutive", "parts": [3]}, '
        '{"id": "-1", "kind": "involutive", "parts": [1]}]}',
        "bad_parity",
        "involutive orbit '1' of SO_even must have even weight, got 3",
    ),
    (
        '{"group": {"series": "Sp", "N": 4}, "orbits": [{"id": "x", "kind": "generic", "parts": [-1]}]}',
        "bad_partition",
        "partition parts must be positive, got -1 in [-1]",
    ),
    (
        '{"group": {"series": "Sp", "N": 4}, "orbits": [{"id": "x", "kind": "generic", "parts": [1, 2]}]}',
        "bad_partition",
        "partition parts must weakly decrease, got [1, 2]",
    ),
    (
        '{"group": {"series": "Sp", "N": 4, "char": 2}, "orbits": [{"id": "1", "kind": "involutive", '
        '"parts": [2, 2], "labels": {"2": 2}}]}',
        "bad_labels",
        "label for value 2 must be 0 or 1, got 2",
    ),
    (
        '{"group": {"series": "Sp", "N": 4, "char": 2}, "orbits": [{"id": "1", "kind": "involutive", '
        '"parts": [2, 2], "labels": {}}]}',
        "bad_labels",
        "labels must be given for exactly the eligible values [2] of (2, 2), got keys []",
    ),
    (
        '{"group": {"series": "Sp", "N": 4, "char": 2}, "orbits": [{"id": "1", "kind": "involutive", '
        '"parts": [3, 1], "labels": {}}]}',
        "bad_parity",
        "odd value 3 occurs 1 times in (3, 1); odd values must occur an even number of times",
    ),
    # label keys follow the integer rule of class text: ASCII digits, no underscores
    (
        '{"group": {"series": "Sp", "N": 40, "char": 2}, "orbits": [{"id": "1", "kind": "involutive", '
        '"parts": [20, 20], "labels": {"2_0": 1}}]}',
        "bad_document",
        "orbit labels must map integers to bits",
    ),
    (
        '{"group": {"series": "Sp", "N": 4, "char": 2}, "orbits": [{"id": "1", "kind": "involutive", '
        '"parts": [2, 2], "labels": {"\u0662": 1}}]}',
        "bad_document",
        "orbit labels must map integers to bits",
    ),
    (
        '{"group": {"series": "Sp", "N": 4}, "orbits": [[2, 2]]}',
        "bad_document",
        "each orbit must be a JSON object",
    ),
    (
        '{"group": {"series": "Sp", "N": 4}, "orbits": [{"id": "1", "parts": [2, 2]}]}',
        "bad_document",
        "orbit is missing ['kind']",
    ),
    (
        '{"group": {"series": "Sp", "N": 4, "char": 2}, "orbits": [{"id": "1", "kind": "involutive", '
        '"parts": [2, 2], "labels": [2]}]}',
        "bad_document",
        "orbit labels must be an object",
    ),
    ('{"group": {"series": "Sp", "N": 4}, "orbits": {"id": "1"}}', "bad_document", '"orbits" must be a list'),
]
_DOCUMENT_MESSAGE = {text: message for text, _, message in _BAD_DOCUMENTS}


@pytest.mark.parametrize("text,code", [row[:2] for row in _BAD_DOCUMENTS])
def test_classify_rejects_bad_documents(capsys, monkeypatch, text, code):
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    status, env = run_json(capsys, "classify", "-")
    assert status == 1
    assert env["status"] == "error"
    assert (env["payload"]["code"], env["payload"]["message"]) == (code, _DOCUMENT_MESSAGE[text])


def test_classify_rejects_non_utf8_input(tmp_path, capsys, monkeypatch):
    doc = b'{"group": {"series": "Sp", "N": 4}, "orbits": [{"id": "g\xe9", "kind": "generic", "parts": [2]}]}'
    path = tmp_path / "latin1.json"
    path.write_bytes(doc)
    status, env = run_json(capsys, "classify", str(path))
    assert (status, env["payload"]["code"]) == (1, "bad_document")
    # stdin decoded strictly, and decoded with surrogateescape as in UTF-8 mode
    for errors in ("strict", "surrogateescape"):
        stdin = io.TextIOWrapper(io.BytesIO(doc), encoding="utf-8", errors=errors)
        monkeypatch.setattr("sys.stdin", stdin)
        status, env = run_json(capsys, "classify", "-")
        assert (status, env["payload"]["code"]) == (1, "bad_document")


@pytest.mark.parametrize("key", [" 2 ", "+2", "2"])
def test_classify_reads_signed_and_padded_label_keys(capsys, monkeypatch, key):
    doc = {
        "group": {"series": "Sp", "N": 4, "char": 2},
        "orbits": [{"id": "1", "kind": "involutive", "parts": [2, 2], "labels": {key: 1}}],
    }
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
    status, env = run_json(capsys, "classify", "-")
    assert (status, env["payload"]["n_invariant"]) == (0, 1)


@pytest.mark.parametrize("label", [1.7, 1.0, True, "1"])
def test_classify_rejects_non_integer_labels(capsys, monkeypatch, label):
    doc = {
        "group": {"series": "Sp", "N": 4, "char": 2},
        "orbits": [{"id": "1", "kind": "involutive", "parts": [2, 2], "labels": {"2": label}}],
    }
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
    status, env = run_json(capsys, "classify", "-")
    # LabeledPartition refuses the bit
    want = (1, "bad_labels", f"label for value 2 must be 0 or 1, got {label!r}")
    assert (status, env["payload"]["code"], env["payload"]["message"]) == want


def test_classify_rejects_deeply_nested_json(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 200000)
    status, env = run_json(capsys, "classify", str(path))
    assert (status, env["payload"]["code"]) == (1, "bad_document")


@pytest.mark.parametrize(
    "field,value", [("N", True), ("char", False), ("parts", [True, True, True, True])]
)
def test_classify_rejects_boolean_group_fields(capsys, monkeypatch, field, value):
    group = {"series": "Sp", "N": 4, "char": 0}
    orbit = {"id": "1", "kind": "involutive", "parts": [2, 1, 1]}
    (orbit if field == "parts" else group)[field] = value
    doc = {"group": group, "orbits": [orbit]}
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
    status, env = run_json(capsys, "classify", "-")
    # the refusal of the record constructor that checks the field
    want = {
        "N": ("bad_dimension", "dimension must be an integer, got True"),
        "char": ("bad_characteristic", "characteristic must be an integer, got False"),
        "parts": ("bad_entries", "entries must be integers, got True"),
    }[field]
    assert (status, env["payload"]["code"], env["payload"]["message"]) == (1, *want)


def test_classify_missing_file(capsys):
    status, env = run_json(capsys, "classify", "/no/such/file.json")
    assert status == 1
    assert env["payload"]["code"] == "io_error"


def test_phi_classical_signed(capsys):
    status, env = run_json(capsys, "phi", "--group", "B", "--rank", "3", "--class", "3;")
    assert status == 0
    p = env["payload"]
    assert p["stratum"]["parts"] == [1, 2]
    assert p["class_dim"] == 14
    assert p["fixed_space_dim"] == 1
    assert p["group"] == {"series": "Sp", "N": 6, "char": 0}


def test_phi_series_c_is_series_b(capsys):
    status, env = run_json(capsys, "phi", "--group", "C", "--rank", "2", "--class", "1,1;")
    assert status == 0
    assert env["payload"]["weyl"]["series"] == "B"
    assert env["diagnostics"]


def test_phi_a_series_identity(capsys):
    status, env = run_json(capsys, "phi", "--group", "A", "--rank", "2", "--class", "2,1")
    assert status == 0
    p = env["payload"]
    assert p["stratum"]["parts"] == [2, 1]
    assert p["class_dim"] == 4
    assert p["group"]["series"] == "GL" and p["group"]["N"] == 3
    # cycle lengths in any order, as in types B/C/D
    assert run_json(capsys, "phi", "--group", "A", "--rank", "2", "--class", "1,2") == (status, env)


# more digits than int() converts at its default limit of 4300
_LONG = "9" * 5000


@pytest.mark.parametrize(
    "argv,code",
    [
        (("phi", "--group", "B", "--class", "3;"), "bad_rank"),
        (("phi", "--group", "E8", "--rank", "4", "--class", "A_2"), "bad_rank"),
        (("phi", "--group", "B", "--rank", "3", "--class", "3;", "--rep", "1_0"), "bad_rep"),
        (("phi", "--group", "E9", "--class", "A_2"), "bad_group"),
        (("phi", "--group", "A", "--rank", "2", "--class", "2,2"), "bad_class"),
        (("phi", "--group", "E7", "--class", "A_3+A_2"), "ambiguous_class"),
        (("phi", "--group", "G2", "--class", "B_2"), "unknown_class"),
        (("invert", "--family", "Qx", "--N", "4", "--target", "2"), "bad_family"),
        (("enumerate", "--series", "Sp", "--dimension", "5"), "bad_dimension"),
        (("enumerate", "--series", "Sp", "--dimension", "4", "--char", "6"), "bad_characteristic"),
        (("phi", "--group", "D", "--rank", "4", "--class", "2;2"), "bad_class"),
        (("phi", "--group", "B", "--rank", "3", "--class", "1;1"), "bad_class"),
        (("phi", "--group", "B", "--rank", "-1", "--class", ";"), "bad_rank"),
        (("phi", "--group", "B", "--rank", "3", "--class", "0;3"), "bad_class"),
        (("phi", "--group", "B", "--rank", "3", "--class", "3,0;"), "bad_class"),
        (("phi", "--group", "A", "--rank", "2", "--class", "3,0"), "bad_class"),
        (("phi", "--group", "A", "--rank", "2", "--class", "0,3"), "bad_class"),
        (("phi", "--group", "A", "--rank", "2", "--class", "2,,1"), "parse_error"),
        (("phi", "--group", "A", "--rank", "2", "--class", ",2,1,"), "parse_error"),
        (("phi", "--group", "A", "--rank", "2", "--class", "2;1"), "parse_error"),
        (("phi", "--group", "A", "--rank", "2", "--class=-1,4"), "bad_class"),
        (("phi", "--group", "B", "--rank", "3", "--class=-1,4;"), "bad_class"),
        (("invert", "--family", "Z2", "--N", "6", "--target", "1,,1,0,1"), "parse_error"),
        (("invert", "--family", "Z2", "--N", "6", "--target", "1,x"), "parse_error"),
        (("invert", "--family", "Z2", "--N", "6", "--target", "1,0,2"), "bad_bipartition"),
        (("phi", "--group", "A", "--rank", "9", "--class", "1_0"), "parse_error"),
        (("phi", "--group", "A", "--rank", "2", "--class", "\u0663"), "parse_error"),
        (("phi", "--group", "B", "--rank", "3", "--class", "\uff13;"), "parse_error"),
        (("invert", "--family", "Z2", "--N", "20", "--target", "1_0"), "parse_error"),
        (("enumerate", "--series", "SO", "--dimension", "1000001"), "too_large"),
        # a hint must name a row that holds the class; labels and reps take ASCII digits only
        (("phi", "--group", "E8", "--class", "A_0", "--rep", "1_0"), "unknown_class"),
        (("phi", "--group", "E8", "--class", "A_0", "--rep", "\u0661_\u0661\u0662\u0660"), "bad_rep"),
        (("phi", "--group", "E8", "--class", "A_\u0663"), "bad_carter_label"),
        (("tables", "--group", "F4", "--rep", "\u0661_\u0661\u0662\u0660"), "bad_rep"),
        # numbers of more digits than int() converts, one row per reader
        (("phi", "--group", "A", "--rank", "2", "--class", _LONG), "parse_error"),
        (("invert", "--family", "Z2", "--N", "6", "--target", _LONG), "parse_error"),
        (("phi", "--group", "E8", "--class", "A_" + _LONG), "bad_carter_label"),
        (("phi", "--group", "E8", "--class", _LONG + "A_1"), "bad_carter_label"),
        (("phi", "--group", "E8", "--class", "A_0", "--rep", "1_" + _LONG), "bad_rep"),
        (("tables", "--group", "E8", "--rep", "1_" + _LONG), "bad_rep"),
        (("classify", "-"), "bad_document"),
        # tables --class reads the class → rows map that phi reads
        (("tables", "--group", "E8", "--class", "A_9"), "unknown_class"),
    ],
)
def test_domain_errors_exit_1(capsys, monkeypatch, argv, code):
    # the one row that reads stdin gets a group whose N has 5000 digits
    monkeypatch.setattr("sys.stdin", io.StringIO('{"group": {"series": "Sp", "N": %s}, "orbits": []}' % _LONG))
    status, env = run_json(capsys, *argv)
    assert status == 1
    assert env["status"] == "error"
    assert env["payload"]["code"] == code


def test_phi_ambiguity_resolved_by_rep_hint(capsys):
    status, env = run_json(
        capsys, "phi", "--group", "E7", "--class", "A_3+A_2", "--rep", "84_15"
    )
    assert status == 0
    assert env["payload"]["display"] == "84_15*2"
    status, env = run_json(
        capsys, "phi", "--group", "E7", "--class", "A_3+A_2", "--rep", "378_14"
    )
    assert status == 0
    assert env["payload"]["display"] == "378_14"


@pytest.mark.parametrize(
    "argv",
    [
        (),
        ("phi", "--group", "E8"),
        ("verify", "--suite", "no-such-suite"),
        ("enumerate", "--series", "Sp"),
        ("classify", "-", "--format", "yaml"),
        ("phi", "--group", "E8", "--class", "-1,4"),
        ("tables", "--c", "A_1", "--group", "E8"),
        ("phi", "--group", "E8", "--class", "A_1", "--no-such-option"),
        ("enumerate", "--series", "Sp", "--dimension", "four"),
        ("phi", "--group", "E8", "--class", "A_1", "--format", "table", "--rank"),
        ("no-such-command",),
        ("--help=x",),
        ("phi", "--group", "E8", "--class", "A_1", "--"),
    ],
)
def test_usage_errors_exit_2(capsys, argv):
    # a usage error is a JSON error envelope on stdout, whatever --format says
    assert main(list(argv)) == 2
    captured = capsys.readouterr()
    envelope = json.loads(captured.out)
    ENVELOPE.validate(envelope)
    assert (envelope["status"], envelope["payload"]["code"]) == ("error", "usage_error")
    assert envelope["payload"]["message"] in captured.err
    assert captured.err.startswith("usage: weylstrata") and "weylstrata: error: " in captured.err


def test_unknown_suite_lists_the_checks(capsys):
    from weylstrata.verify import check_names

    assert main(["verify", "--suite", "no-such-suite"]) == 2
    stderr = capsys.readouterr().err
    assert "argument --suite: invalid choice:" in stderr and "no-such-suite" in stderr
    assert all(name in stderr for name in check_names())


def build_parser() -> argparse.ArgumentParser:
    """The argparse parser that the option table of weylstrata.cli replaced: the reference reader."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "table"), default="json",
                        help="output format (default json)")
    # the option of the commands that read the exceptional tables, after --format
    atlas_file = argparse.ArgumentParser(add_help=False)
    atlas_file.add_argument("--data-file", default=None, metavar="PATH",
                            help="override the packaged strata table file")

    parser = argparse.ArgumentParser(
        prog="weylstrata",
        description="Stratifications of classical and exceptional groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", parents=[common],
                       help="classify a spectral datum into its stratum")
    p.add_argument("input", help="path to a JSON spectral datum, or - for stdin")

    p = sub.add_parser("phi", parents=[common, atlas_file],
                       help="map a Weyl conjugacy class to its stratum")
    p.add_argument("--group", required=True,
                   help="A, B, C, D (with --rank) or G2, F4, E6, E7, E8")
    p.add_argument("--rank", type=int, default=None, help="rank for classical series")
    p.add_argument("--class", dest="class_label", required=True,
                   help="class name: cycle lengths '3,1' (A), positive;negative cycle "
                        "lengths '3,1;2' (B/C/D), or a class label like 'D_7(a_1)'; cycle "
                        "lengths are positive integers in any order")
    p.add_argument("--rep", default=None,
                   help="representation hint 'd_n[*r][#k]' when the class name is ambiguous")

    p = sub.add_parser("enumerate", parents=[common],
                       help="enumerate the strata of a classical group")
    p.add_argument("--series", required=True, help="GL, Sp, SO, SO_odd or SO_even")
    p.add_argument("--dimension", type=int, required=True, help="size N of the group GL_N/Sp_N/SO_N")
    p.add_argument("--char", type=int, default=0, help="field characteristic (default 0)")

    p = sub.add_parser("tables", parents=[common, atlas_file],
                       help="dump rows of the exceptional strata table")
    p.add_argument("--group", required=True, help="G2, F4, E6, E7 or E8")
    p.add_argument("--char", type=int, default=None,
                   help="keep only strata with unipotent classes in this characteristic")
    p.add_argument("--rep", default=None, help="keep only the row for this representation")
    p.add_argument("--class", dest="class_label", default=None,
                   help="keep only rows containing this class")
    p.add_argument("--raw", action="store_true",
                   help="write the table file bytes verbatim and exit")

    p = sub.add_parser("verify", parents=[common, atlas_file],
                       help="run the recorded verification checks")
    p.add_argument("--suite", default="all", choices=("all",) + check_names(), metavar="SUITE",
                   help="which check to run (default all): %(choices)s")

    p = sub.add_parser("invert", parents=[common],
                       help="find the preimage of a stratum under a family bijection")
    p.add_argument("--family", required=True,
                   help="Z1, Z2, Z1P, Z2P or a family name like symplectic_char2")
    p.add_argument("--N", type=int, required=True, help="weight of the preimage")
    p.add_argument("--target", required=True, help="bipartition entries, e.g. '2,0,1'")

    return parser


def reference_reads(argv):
    """argparse's reading of argv: the namespace's values, or the exit status (2 refused, 0 help)."""
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return vars(build_parser().parse_args(list(argv)))
    except SystemExit as stop:
        return stop.code


def table_reads(argv):
    """The option table's reading of argv, in the same terms."""
    try:
        args = cli._read(None, list(argv))
    except cli._UsageError:
        return 2
    return 0 if isinstance(args, str) else vars(args)


_COMMAND_NAMES = ("classify", "phi", "enumerate", "tables", "verify", "invert")
_OPTIONS_OF = {
    "classify": (),
    "phi": ("--data-file", "--group", "--rank", "--class", "--rep"),
    "enumerate": ("--series", "--dimension", "--char"),
    "tables": ("--data-file", "--group", "--char", "--rep", "--class", "--raw"),
    "verify": ("--data-file", "--suite"),
    "invert": ("--family", "--N", "--target"),
}
_OPTION_NAMES = ("--format", "--help", *{name for names in _OPTIONS_OF.values() for name in names})
# every option name shortened to three characters or more, unique prefix or not, and -h
_OPTION_WORDS = sorted({name[:k] for name in _OPTION_NAMES for k in range(3, len(name) + 1)} | {"-h"})
_VALUE_WORDS = (
    "0", "4", "17", "-3", "-1", "-1,4", "-", "--", "E8", "B", "Sp", "SO", "Z2", "3;", "D_7(a_1)", "json", "table",
    "yaml", "all", "golden-sp2", "x y", "", " 3", "-2.5",
)
# '--opt=--' is left out: argparse drops the '--' and stores an empty list there (a fixed case below)
_JOINABLE = tuple(value for value in _VALUE_WORDS if value != "--")
_JOINED = st.builds("{}={}".format, st.sampled_from(_OPTION_WORDS), st.sampled_from(_JOINABLE))
_PIECE = st.one_of(
    st.tuples(st.sampled_from(_OPTION_WORDS), st.sampled_from(_VALUE_WORDS)),
    _JOINED.map(lambda word: (word,)),
    st.sampled_from(_COMMAND_NAMES + tuple(_OPTION_WORDS) + _VALUE_WORDS).map(lambda word: (word,)),
)


# values each option accepts, and some it refuses
_GOOD_VALUES = {"--format": ("json", "table", "yaml"), "--suite": ("all", "golden-sp2", "x")}
_GOOD_VALUES.update(dict.fromkeys(("--rank", "--dimension", "--char", "--N"), ("4", "-3", " 17", "0", "x")))


@st.composite
def _command_lines(draw):
    """A command, most of its own options with values, at most one noise piece, in any order."""
    command = draw(st.sampled_from(_COMMAND_NAMES))
    pieces = [(draw(st.sampled_from(("-", "--", "x.json", "-4"))),)] if command == "classify" else []
    for name in _OPTIONS_OF[command] + ("--format",):
        if draw(st.integers(0, 9)) < 8:
            word = name[:draw(st.integers(3, len(name)))] if draw(st.booleans()) else name
            value = draw(st.sampled_from(_GOOD_VALUES.get(name, ("E8", "-", "D_7(a_1)", "-1", "x y", "", "3;"))))
            forms = [(word,)] if name == "--raw" else [(word, value), (f"{word}={value}",)]
            pieces.append(draw(st.sampled_from(forms)))
    pieces += draw(st.lists(_PIECE, max_size=1))
    return [command] + [word for piece in draw(st.permutations(pieces)) for word in piece]


# a command line of the table's options, or any pieces after at most one command
_ARGV = st.one_of(
    _command_lines(),
    st.builds(lambda head, pieces: head + [w for piece in pieces for w in piece],
              st.lists(st.sampled_from(_COMMAND_NAMES), max_size=1), st.lists(_PIECE, max_size=8)),
)


@settings(max_examples=400, deadline=None)
@given(_ARGV)
def test_option_table_reads_argv_as_argparse_did(argv):
    expected = reference_reads(argv)
    event("read" if isinstance(expected, dict) else f"exit {expected}")
    assert table_reads(argv) == expected


# the checks that finish in under 10 ms; the fuzz below runs one of them
# wherever it draws a longer suite
_FAST_CHECKS = ("golden-sp2", "golden-so2", "sp4-strata", "e8-counts", "star-inventory", "endpoints", "gl-oracle")
_SLOW_SUITES = {"all", *check_names()} - set(_FAST_CHECKS)


@st.composite
def _fuzzed_argv(draw):
    argv = []
    for word in draw(_ARGV):
        head, eq, value = word.partition("=")
        if word in _SLOW_SUITES:
            word = draw(st.sampled_from(_FAST_CHECKS))
        elif eq and value in _SLOW_SUITES:
            word = f"{head}={draw(st.sampled_from(_FAST_CHECKS))}"
        argv.append(word)
    return argv


_ORBIT_DOCUMENTS = st.fixed_dictionaries(
    {
        "id": st.sampled_from(("1", "-1", "x", "y", "")),
        "kind": st.sampled_from(("involutive", "generic", "x")),
        "parts": st.lists(st.integers(-1, 4), max_size=4),
    },
    optional={"labels": st.dictionaries(st.sampled_from(("1", "2", "4", "x")), st.integers(0, 2), max_size=2)},
)
_GROUP_DOCUMENTS = st.fixed_dictionaries(
    {"series": st.sampled_from(("GL", "Sp", "SO", "SO_odd", "SO_even", "Xq")), "N": st.integers(-1, 8)},
    optional={"char": st.sampled_from((0, 2, 3, 4))},
)
_DOCUMENTS = st.one_of(
    st.fixed_dictionaries({"group": _GROUP_DOCUMENTS, "orbits": st.lists(_ORBIT_DOCUMENTS, max_size=3)}).map(json.dumps),
    st.sampled_from(("not json", "[1, 2]", "{}")),
)


@settings(max_examples=300, deadline=None)
@given(_fuzzed_argv(), _DOCUMENTS)
def test_main_keeps_its_contract_on_fuzzed_input(argv, document):
    read = table_reads(argv)
    # verify without --suite runs every check; that command line is left to the acceptance tests
    assume(not isinstance(read, dict) or read["command"] != "verify" or read["suite"] in _FAST_CHECKS)
    out, stdin, sys.stdin = io.StringIO(), sys.stdin, io.StringIO(document)
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            status = main(argv)
    finally:
        sys.stdin = stdin
    assert time.perf_counter() - start < 5.0
    assert status in (0, 1, 2, 3)
    text = out.getvalue()
    event(f"exit {status}")
    if read == 0:
        assert (status, text.startswith("usage: weylstrata ")) == (0, True)
    elif isinstance(read, dict) and read["command"] == "tables" and read["raw"] and status == 0:
        assert text == load_atlas().text
    elif isinstance(read, dict) and read["format"] == "table":
        # the table text, or one error line for a refusal
        assert text.endswith("\n") and text.startswith("error [") == (status in (1, 3))
    else:
        envelope = json.loads(text)
        ENVELOPE.validate(envelope)
        if status in (0, 1, 2):
            assert envelope["status"] == ("ok" if status == 0 else "error")


@pytest.mark.parametrize(
    "argv",
    [
        ("phi", "--group", "A", "--rank", "2", "--class=-1,4"),
        ("enumerate", "--series", "Sp", "--dim", "4"),
        ("phi", "--group", "B", "--rank", "-3", "--class", "3;"),
        ("phi", "--group", "E8", "--group", "G2", "--class", "A_1", "--rank", "1", "--rank", "2"),
        ("classify", "-", "--format", "table"),
        ("classify", "--format", "table", "-"),
        ("classify", "--", "-"),
        ("classify", "-", "--"),
        ("invert", "--family", "Z2", "--N", " 6", "--target", ""),
        ("tables", "--group", "E8", "--raw", "--char=2"),
        ("verify", "--su", "golden-sp2"),
        # refused: a dash-led non-number as a value, an ambiguous prefix, a missing option,
        # an unknown option, a bad choice, a '--' that no positional reads
        ("phi", "--group", "E8", "--class", "-1,4"),
        ("tables", "--c", "x", "--group", "E8"),
        ("tables", "--char", "2"),
        ("phi", "--group", "E8", "--class", "A_1", "--bogus"),
        ("--bogus", "phi", "--group", "E8", "--class", "A_1"),
        ("verify", "--suite", "no-such-suite"),
        ("tables", "--group", "E8", "--raw=yes"),
        ("classify", "-", "--format", "json", "--"),
        ("--", "phi", "--group", "E8", "--class", "A_1"),
        # help, at the top and after a command, before any later error
        ("-h",), ("--help",), ("--he", "phi"), ("--bogus", "-h"),
        ("phi", "--help"), ("tables", "--group", "E8", "-h"), ("tables", "--group", "E8", "--raw=x", "-h"),
        # only phi, tables and verify take --data-file: the others refuse it and its
        # prefixes, and --d is no longer ambiguous for enumerate
        ("classify", "-", "--data-file", "x"),
        ("enumerate", "--series", "Sp", "--da=x", "--dimension", "4"),
        ("enumerate", "--series", "Sp", "--d", "4"),
    ],
)
def test_option_table_fixed_cases(argv):
    assert table_reads(argv) == reference_reads(argv)


def test_option_table_deliberate_differences():
    # argparse drops '--' from '--opt=--' and stores []; the table reads '--' as the
    # value, which int() and the choice checks then refuse
    argv = ["phi", "--group", "E8", "--class=--"]
    assert reference_reads(argv)["class_label"] == []
    assert table_reads(argv)["class_label"] == "--"
    assert table_reads(["phi", "--group", "B", "--class", "3;", "--rank=--"]) == 2
    assert table_reads(["classify", "-", "--format=--"]) == 2
    # argparse reads -hh and -h=h as chains of -h and prints help; the table reads
    # what runs on after -h as its value and refuses it
    for argv in (["-hh"], ["phi", "-h=h"]):
        assert (reference_reads(argv), table_reads(argv)) == (0, 2)


@pytest.mark.parametrize("command", [None, *_COMMAND_NAMES])
def test_help_lists_the_options_of_the_table(capsys, command):
    for flag in ("-h", "--help"):
        assert main([command, flag] if command else [flag]) == 0
        out = capsys.readouterr().out
        assert out.startswith(f"usage: weylstrata {command or ''}".rstrip())
        names = _OPTIONS_OF[command] + ("--format",) if command else _COMMAND_NAMES
        assert all(name in out for name in names)
        assert ("--data-file" in out) == (command in ("phi", "tables", "verify"))


@pytest.mark.parametrize(
    "argv, words",
    [
        (("classify", "-", "--data-file", "x"), "--data-file x"),
        (("enumerate", "--series", "Sp", "--dimension", "4", "--data-file=x"), "--data-file=x"),
        (("invert", "--family", "Z2", "--N", "6", "--target", "3", "--da", "x"), "--da x"),
    ],
    ids=["classify", "enumerate", "invert"],
)
def test_commands_that_read_no_atlas_refuse_data_file(capsys, argv, words):
    # the commands that read no atlas have no --data-file: it is a word left over
    assert main(list(argv)) == 2
    envelope = json.loads(capsys.readouterr().out)
    assert envelope["payload"] == {"code": "usage_error", "message": f"unrecognized arguments: {words}"}


def test_verify_single_suite(capsys):
    status, env = run_json(capsys, "verify", "--suite", "e8-counts")
    assert status == 0
    assert env["payload"]["passed"] is True
    assert [r["name"] for r in env["payload"]["results"]] == ["e8-counts"]


def test_verify_table_lists_every_check(capsys):
    status, out = run_cli(capsys, "verify", "--suite", "golden-sp2", "--format", "table")
    assert status == 0
    assert out.startswith("PASS golden-sp2 ")
    assert out.rstrip().endswith("all checks passed")


def test_verify_falsified_claim_exits_3(tmp_path, capsys):
    # drop one E8 row: the file still parses but the row count claim fails
    text = load_atlas().text
    lines = [line for line in text.splitlines() if line != "row|E8|1|120|0|0|A_0|"]
    assert len(lines) == len(text.splitlines()) - 1
    bad = tmp_path / "atlas.txt"
    bad.write_text("\n".join(lines) + "\n")
    status, env = run_json(
        capsys, "verify", "--suite", "e8-counts", "--data-file", str(bad)
    )
    assert status == 3
    assert env["payload"]["passed"] is False


def test_verify_data_file_restores_the_atlas_variable(tmp_path, capsys, monkeypatch):
    # verify hands --data-file to the checks as an argument: the variable
    # WEYLSTRATA_ATLAS, which names no file, is as it was, set or unset,
    # while the checks read the atlas and after they ran
    bad = tmp_path / "bad.txt"
    bad.write_text(load_atlas().text.replace("row|E8|1|120|0|0|A_0|\n", ""), encoding="utf-8")
    read, seen = verify.load_atlas, []

    def spy(path=None):
        seen.append((path, os.environ.get("WEYLSTRATA_ATLAS")))
        return read(path)

    monkeypatch.setattr(verify, "load_atlas", spy)
    for before in (str(bad), None):
        if before is None:
            monkeypatch.delenv("WEYLSTRATA_ATLAS")
        else:
            monkeypatch.setenv("WEYLSTRATA_ATLAS", before)
        seen.clear()
        status, env = run_json(capsys, "verify", "--suite", "e8-counts", "--data-file", str(bad))
        assert (status, env["payload"]["passed"]) == (3, False)
        assert seen == [(str(bad), before)] and os.environ.get("WEYLSTRATA_ATLAS") == before
        status, env = run_json(capsys, "verify", "--suite", "e8-counts")
        assert (status, env["payload"]["passed"]) == (0, True)


def test_tables_counts_and_filters(capsys):
    status, env = run_json(capsys, "tables", "--group", "E8")
    assert status == 0
    assert env["payload"]["count"] == 75

    status, env = run_json(capsys, "tables", "--group", "E8", "--char", "2")
    assert env["payload"]["count"] == 74

    status, env = run_json(capsys, "tables", "--group", "E7", "--class", "A_3+A_2")
    assert env["payload"]["count"] == 2
    assert [r["display"] for r in env["payload"]["rows"]] == ["378_14", "84_15*2"]

    status, env = run_json(capsys, "tables", "--group", "F4", "--rep", "8_3#1")
    assert env["payload"]["count"] == 1
    assert env["payload"]["rows"][0]["classes"] == ["C_3+A_1", "C_3"]


def test_tables_raw_is_exact_file_text(capsys):
    status, out = run_cli(capsys, "tables", "--group", "G2", "--raw")
    assert status == 0
    assert out == load_atlas().text


def test_tables_raw_with_unreadable_atlas_is_an_error_envelope(tmp_path, capsys):
    missing = str(tmp_path / "no-such-atlas.txt")
    status, out = run_cli(capsys, "tables", "--group", "E8", "--raw", "--data-file", missing)
    envelope = json.loads(out)
    ENVELOPE.validate(envelope)
    assert (status, envelope["status"]) == (1, "error")
    assert envelope["payload"]["code"] == "atlas_io_error"


def test_tables_raw_refuses_an_unknown_group(tmp_path, capsys):
    status, out = run_cli(capsys, "tables", "--group", "Q9", "--raw")
    envelope = json.loads(out)
    ENVELOPE.validate(envelope)
    assert (status, envelope["status"], envelope["payload"]["code"]) == (1, "error", "bad_group")
    # an unreadable atlas is refused before the group is read, as without --raw
    missing = str(tmp_path / "no-such-atlas.txt")
    status, out = run_cli(capsys, "tables", "--group", "Q9", "--raw", "--data-file", missing)
    assert (status, json.loads(out)["payload"]["code"]) == (1, "atlas_io_error")


@pytest.mark.parametrize(
    "filter_argv, code",
    [
        (("--char", "4"), "bad_characteristic"),  # a characteristic --char alone refuses
        (("--char", "2"), "bad_characteristic"),
        (("--rep", "1_0"), "bad_rep"),
        (("--class", "A_1"), "bad_class"),
        (("--class", "A_1", "--char", "0"), "bad_characteristic"),  # the first of --char, --rep, --class
    ],
)
def test_tables_raw_refuses_a_filter(capsys, filter_argv, code):
    # the file bytes are the whole table, so a filter would go unread
    status, out = run_cli(capsys, "tables", "--group", "E8", "--raw", *filter_argv)
    envelope = json.loads(out)
    ENVELOPE.validate(envelope)
    option = {"bad_characteristic": "--char", "bad_rep": "--rep", "bad_class": "--class"}[code]
    assert (status, envelope["status"]) == (1, "error")
    assert envelope["payload"] == {
        "code": code, "message": f"{option} does not apply with --raw, which writes the whole table",
    }


def test_tables_human_format_shows_dimension(capsys):
    status, out = run_cli(capsys, "tables", "--group", "G2", "--format", "table")
    assert status == 0
    assert "1_0" in out and "dim  12" in out


def test_data_file_flag_and_env_override(tmp_path, capsys, monkeypatch):
    # --data-file names the file; WEYLSTRATA_ATLAS, which once did, is ignored
    text = load_atlas().text
    copy = tmp_path / "atlas_copy.txt"
    copy.write_text(text.replace("row|G2|2|1|0|0|A_2|\n", ""))
    status, env = run_json(capsys, "tables", "--group", "G2", "--data-file", str(copy))
    assert status == 0
    assert env["payload"]["count"] == 5

    monkeypatch.setenv("WEYLSTRATA_ATLAS", str(copy))
    status, env = run_json(capsys, "tables", "--group", "G2")
    assert status == 0
    assert env["payload"]["count"] == 6


def test_output_is_byte_stable(capsys):
    _, first = run_cli(capsys, "phi", "--group", "E8", "--class", "D_7(a_1)")
    _, second = run_cli(capsys, "phi", "--group", "E8", "--class", "D_7(a_1)")
    assert first == second
    _, first = run_cli(capsys, "tables", "--group", "E8")
    _, second = run_cli(capsys, "tables", "--group", "E8")
    assert first == second


def test_enumerate_classify_round_trip(capsys, monkeypatch):
    # every Sp stratum holds a characteristic-2 unipotent class; feeding it
    # back through classify must land in the same stratum
    status, env = run_json(
        capsys, "enumerate", "--series", "Sp", "--dimension", "6", "--char", "2"
    )
    assert status == 0
    for row in env["payload"]["strata"]:
        bp = Bipartition(row["parts"])
        nu = invert_bijection(JordanFamily.SYMPLECTIC_CHAR2, 6, bp)
        doc = {
            "group": {"series": "Sp", "N": 6, "char": 2},
            "orbits": [
                {
                    "id": "1",
                    "kind": "involutive",
                    "parts": list(nu.parts),
                    "labels": {str(v): bit for v, bit in nu.labels},
                }
            ],
        }
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
        status, out = run_json(capsys, "classify", "-")
        assert status == 0
        assert out["payload"]["stratum"]["parts"] == row["parts"]


def test_enumerate_classify_round_trip_gl(capsys, monkeypatch):
    status, env = run_json(capsys, "enumerate", "--series", "GL", "--dimension", "5")
    assert status == 0
    for row in env["payload"]["strata"]:
        doc = {
            "group": {"series": "GL", "N": 5, "char": 0},
            "orbits": [{"id": "u", "kind": "generic", "parts": row["parts"]}],
        }
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
        status, out = run_json(capsys, "classify", "-")
        assert status == 0
        assert out["payload"]["stratum"]["parts"] == row["parts"]


def test_enumerate_bare_so_resolves_by_parity(capsys):
    status, env = run_json(capsys, "enumerate", "--series", "SO", "--dimension", "7")
    assert status == 0
    assert env["payload"]["group"]["series"] == "SO_odd"
    status, env = run_json(capsys, "enumerate", "--series", "SO", "--dimension", "8")
    assert status == 0
    assert env["payload"]["group"]["series"] == "SO_even"


@pytest.mark.parametrize("series,dimension", [("Sp", "120"), ("GL", "80")])
def test_enumerate_refuses_too_many_strata_at_once(capsys, series, dimension):
    # 239,872,923 and 15,796,476 strata, which were listed until killed
    start = time.perf_counter()
    status, env = run_json(capsys, "enumerate", "--series", series, "--dimension", dimension)
    assert time.perf_counter() - start < 1.0
    assert status == 1
    assert env["payload"]["code"] == "too_large"
    assert f"more than {MAX_STRATA} strata" in env["payload"]["message"]


# per series, the largest dimension whose strata enumerate lists, and the next
_LARGEST_ALLOWED = {"GL": (41, 42), "Sp": (48, 50), "SO_odd": (49, 51), "SO_even": (52, 54)}


@pytest.mark.parametrize("series", sorted(_LARGEST_ALLOWED))
def test_enumerate_bound_is_between_the_largest_allowed_and_the_next(capsys, series):
    allowed, refused = _LARGEST_ALLOWED[series]
    excess = {"GL": (0, 0), "SO_even": (0, 4)}.get(series, (2, 2))
    half = allowed if series == "GL" else allowed // 2
    assert count_bipartitions(half, excess) <= MAX_STRATA < count_bipartitions(half + 1, excess)
    status, env = run_json(capsys, "enumerate", "--series", series, "--dimension", str(refused))
    assert (status, env["payload"]["code"]) == (1, "too_large")


def test_enumerate_lists_the_largest_allowed_group(capsys):
    status, env = run_json(capsys, "enumerate", "--series", "Sp", "--dimension", "48")
    assert status == 0
    assert env["payload"]["count"] == len(env["payload"]["strata"]) == 47313


def test_so_even_payload_carries_degeneracy(capsys):
    status, env = run_json(capsys, "enumerate", "--series", "SO", "--dimension", "8")
    flags = {tuple(r["parts"]): r["pair_degenerate"] for r in env["payload"]["strata"]}
    assert True in flags.values() and False in flags.values()


def test_envelope_schema_file_is_wellformed():
    from importlib import resources

    ref = resources.files("weylstrata").joinpath("data").joinpath("envelope.schema.json")
    schema = json.loads(ref.read_text(encoding="utf-8"))
    assert schema["required"] == ["status", "payload", "diagnostics"]
    assert set(schema["properties"]) == {"status", "payload", "diagnostics"}
    assert schema["definitions"]["errorPayload"]["required"] == ["code", "message"]


def test_envelope_schema_separates_error_payloads():
    def valid(status, payload):
        return ENVELOPE.is_valid({"status": status, "payload": payload, "diagnostics": []})

    assert valid("error", {"code": "bad_group", "message": "no"})
    assert not valid("error", {"code": "bad_group"})
    assert not valid("error", {"code": "bad_group", "message": "no", "parts": []})
    assert valid("ok", {"parts": [4]})
    assert not valid("ok", [4])


# One sha256 over (argv, format, exit status, stdout) for a fixed corpus of
# commands, each run in both formats, so a change to the CLI that alters any
# byte of its output fails here.  verify is left out because its payload
# carries wall-clock timings.
CLI_CORPUS = (
    ("phi", "--group", "E8", "--class", "D_7(a_1)"),
    ("phi", "--group", "E8", "--class", "A_0"),
    ("phi", "--group", "E7", "--class", "A_3+A_2"),
    ("phi", "--group", "E7", "--class", "A_3+A_2", "--rep", "84_15"),
    ("phi", "--group", "E7", "--class", "A_3+A_2", "--rep", "378_14"),
    ("phi", "--group", "G2", "--class", "B_2"),
    ("phi", "--group", "E9", "--class", "A_2"),
    ("phi", "--group", "E8", "--rank", "4", "--class", "A_2"),
    ("phi", "--group", "B", "--rank", "3", "--class", "3;"),
    ("phi", "--group", "B", "--rank", "3", "--class", "1;2"),
    ("phi", "--group", "C", "--rank", "2", "--class", "1,1;"),
    ("phi", "--group", "D", "--rank", "4", "--class", "1,1;1,1"),
    ("phi", "--group", "D", "--rank", "4", "--class", "2;2"),
    ("phi", "--group", "A", "--rank", "2", "--class", "2,1"),
    ("phi", "--group", "A", "--rank", "2", "--class", "2,2"),
    ("phi", "--group", "B", "--class", "3;"),
    ("phi", "--group", "B", "--rank", "3", "--class", "3;", "--rep", "1_0"),
    ("enumerate", "--series", "Sp", "--dimension", "6"),
    ("enumerate", "--series", "Sp", "--dimension", "6", "--char", "2"),
    ("enumerate", "--series", "SO", "--dimension", "7"),
    ("enumerate", "--series", "SO_odd", "--dimension", "5", "--char", "2"),
    ("enumerate", "--series", "SO", "--dimension", "8"),
    ("enumerate", "--series", "GL", "--dimension", "0"),
    ("enumerate", "--series", "GL", "--dimension", "5"),
    ("enumerate", "--series", "Sp", "--dimension", "4", "--char", "6"),
    ("enumerate", "--series", "Sp", "--dimension", "5"),
    ("enumerate", "--series", "Xq", "--dimension", "4"),
    ("tables", "--group", "E8"),
    ("tables", "--group", "E8", "--char", "2"),
    ("tables", "--group", "E6", "--char", "3"),
    ("tables", "--group", "E7", "--class", "A_3+A_2"),
    ("tables", "--group", "F4", "--rep", "8_3#1"),
    ("tables", "--group", "G2"),
    ("tables", "--group", "E9"),
    ("tables", "--group", "G2", "--rep", "7_9"),
    ("tables", "--group", "G2", "--raw"),
    ("invert", "--family", "Z2", "--N", "6", "--target", "3"),
    ("invert", "--family", "Z2", "--N", "6", "--target", "1,1,0,1"),
    ("invert", "--family", "Z1P", "--N", "7", "--target", "0,2,0,1"),
    ("invert", "--family", "Z2P", "--N", "8", "--target", "2,0,2"),
    ("invert", "--family", "Z1", "--N", "4", "--target", "5"),
    ("invert", "--family", "Qx", "--N", "4", "--target", "2"),
    ("classify", "sp4.json"),
    ("classify", "so8.json"),
    ("classify", "so8_pair.json"),
    ("classify", "so7_char2.json"),
    ("classify", "bad.json"),
    ("classify", "missing.json"),
)

CLI_CORPUS_FILES = {
    "sp4.json": {
        "group": {"series": "Sp", "N": 4, "char": 0},
        "orbits": [
            {"id": "1", "kind": "involutive", "parts": [1, 1]},
            {"id": "-1", "kind": "involutive", "parts": [1, 1]},
        ],
    },
    "so8.json": {
        "group": {"series": "SO_even", "N": 8},
        "orbits": [
            {"id": "1", "kind": "involutive", "parts": [2, 2]},
            {"id": "x", "kind": "generic", "parts": [2]},
        ],
    },
    "so8_pair.json": {
        "group": {"series": "SO_even", "N": 8},
        "orbits": [{"id": "1", "kind": "involutive", "parts": [4, 4]}],
    },
    "so7_char2.json": {
        "group": {"series": "SO_odd", "N": 7, "char": 2},
        "orbits": [{"id": "1", "kind": "involutive", "parts": [2, 2, 1, 1], "labels": {"2": 0}}],
    },
    "bad.json": {"group": {"series": "Sp", "N": 4}},
}

CLI_CORPUS_DIGEST = "28a28fa20c3398eae1e86818175070f331d8de613ae998e302e27cd9e11a7180"


def test_cli_bytes_pinned(tmp_path, capsys, monkeypatch):
    for name, doc in CLI_CORPUS_FILES.items():
        (tmp_path / name).write_text(json.dumps(doc))
    monkeypatch.chdir(tmp_path)
    rows = []
    for argv in CLI_CORPUS:
        for fmt in ("json", "table"):
            status = main([*argv, "--format", fmt])
            rows.append((argv, fmt, status, capsys.readouterr().out))
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == CLI_CORPUS_DIGEST
