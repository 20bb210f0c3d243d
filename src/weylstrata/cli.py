"""Command-line interface.

Every invocation runs exactly one subcommand and writes a single result
envelope to standard output: {"status": "ok"|"error", "payload": ...,
"diagnostics": [...]}.  The exceptions are a successful `tables --raw`,
which writes the table file's bytes verbatim, and -h/--help.  The JSON shape
is described in data/envelope.schema.json.  Exit codes: 0 success, 1 domain
error, 2 usage error (a usage_error envelope, in JSON whatever --format says),
3 consistency failure (a recorded claim was falsified).

The command line is read against one option table, _COMMANDS, by the rules
argparse applies; tests/test_cli.py keeps an argparse parser as the reference.

Each command imports the package modules it uses when it runs, so a
process pays only for those.
"""

from __future__ import annotations

import json
import os
import re
import sys
from types import SimpleNamespace

from .errors import ConsistencyError, DomainError

_CLASSICAL_LETTERS = {"A", "B", "C", "D"}


def _series_for_cli(name: str, dimension: int):
    from .classical import series_from_name

    # bare "SO" picks the odd or even series from the dimension
    if name.strip().lower() == "so":
        return series_from_name("SO_odd" if dimension % 2 else "SO_even")
    return series_from_name(name)


def _read_document(path: str) -> dict:
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as handle:
                text = handle.read()
        # a stdin decoded with surrogateescape passes invalid bytes through
        text.encode("utf-8")
    except OSError as err:
        raise DomainError(f"cannot read {path}: {err}", code="io_error")
    except UnicodeError:
        raise DomainError("input is not valid UTF-8", code="bad_document")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as err:
        raise DomainError(f"input is not valid JSON: {err}", code="bad_document")
    except ValueError:  # int() refuses numbers of more digits than sys.get_int_max_str_digits()
        raise DomainError("input JSON has a number of too many digits", code="bad_document")
    except RecursionError:
        raise DomainError("input JSON is nested too deeply", code="bad_document")
    if not isinstance(doc, dict):
        raise DomainError("input document must be a JSON object", code="bad_document")
    return doc


def _group_from_doc(doc: dict):
    from .classical import GroupDescriptor, series_from_name

    if not isinstance(doc, dict) or "series" not in doc or "N" not in doc:
        raise DomainError('group must be {"series": ..., "N": ..., "char"?: ...}', code="bad_document")
    series = series_from_name(str(doc["series"]))
    dimension = doc["N"]
    char = doc.get("char", 0)
    if any(isinstance(x, bool) or not isinstance(x, int) for x in (dimension, char)):
        raise DomainError("group N and char must be integers", code="bad_document")
    return GroupDescriptor(series, dimension, char)


def _orbit_from_doc(doc: dict):
    from .classical import EigenOrbit, OrbitKind
    from .jordan import LabeledPartition
    from .partitions import _ENTRY, Partition

    if not isinstance(doc, dict):
        raise DomainError("each orbit must be a JSON object", code="bad_document")
    missing = {"id", "kind", "parts"} - set(doc)
    if missing:
        raise DomainError(f"orbit is missing {sorted(missing)}", code="bad_document")
    kind_name = str(doc["kind"]).strip().lower()
    try:
        kind = OrbitKind(kind_name)
    except ValueError:
        raise DomainError(f"unknown orbit kind {doc['kind']!r}", code="bad_document")
    parts = doc["parts"]
    if not isinstance(parts, list) or not all(type(p) is int for p in parts):
        raise DomainError("orbit parts must be a list of integers", code="bad_document")
    if "labels" in doc and doc["labels"] is not None:
        raw_labels = doc["labels"]
        if not isinstance(raw_labels, dict):
            raise DomainError("orbit labels must be an object", code="bad_document")
        try:
            if not all(map(_ENTRY.fullmatch, raw_labels)):  # the rule of class text and --target
                raise ValueError
            labels = {int(k): v for k, v in raw_labels.items()}
            if not all(type(v) is int for v in labels.values()):  # no floats, no bools
                raise ValueError
        except ValueError:
            raise DomainError("orbit labels must map integers to bits", code="bad_document")
        jordan = LabeledPartition(parts, labels)
    else:
        jordan = Partition(parts)
    return EigenOrbit(str(doc["id"]), kind, jordan)


def _group_payload(group) -> dict:
    return {"series": group.series.value, "N": group.dimension, "char": group.characteristic}


_STRATUM_FIELDS = ("n_invariant", "class_dim", "springer_dim", "pair_degenerate")


def _stratum_payload(result, fields=_STRATUM_FIELDS) -> dict:
    # classical phi reports only the first two fields
    payload = {"stratum": {"parts": list(result.bp)}}
    payload.update((name, getattr(result, name)) for name in fields)
    return payload


def _rep_payload(atlas, group: str, rep) -> dict:
    # the exceptional row shared by phi and tables
    return {
        "display": atlas.format_rep(rep),
        "d": rep.d,
        "n": rep.n,
        "star": rep.star,
        "synthetic_id": rep.synthetic_id,
        "class_dim": atlas.class_dim(rep),
        "cross_section": atlas.cross_section(group, rep).raw,
        "note": atlas.note(group, rep),
    }


def _cmd_classify(args) -> tuple[dict, list[str]]:
    from .classical import SpectralDatum, classify

    doc = _read_document(args.input)
    if "group" not in doc or "orbits" not in doc:
        raise DomainError('document must have "group" and "orbits"', code="bad_document")
    if not isinstance(doc["orbits"], list):
        raise DomainError('"orbits" must be a list', code="bad_document")
    group = _group_from_doc(doc["group"])
    datum = SpectralDatum(group, [_orbit_from_doc(o) for o in doc["orbits"]])
    result = classify(datum)
    payload = {"group": _group_payload(group), **_stratum_payload(result)}
    diagnostics = []
    if result.pair_degenerate:
        diagnostics.append("stratum label is fixed by the even orthogonal pair symmetry")
    return payload, diagnostics


def _cmd_phi(args) -> tuple[dict, list[str]]:
    name = args.group.strip()
    diagnostics: list[str] = []
    if name.upper() in _CLASSICAL_LETTERS:
        from .classical import _stratum
        from .weyl import WeylSeries, WeylType, _fixed_space_dim, parse_class, weyl_series_from_name
        from .weyl import _stratum as _class_stratum, _stratum_rule

        if args.rank is None:
            raise DomainError("classical series need --rank", code="bad_rank")
        if args.rep is not None:
            raise DomainError("--rep applies only to exceptional groups", code="bad_rep")
        series = weyl_series_from_name(name)
        if name.upper() == "C":
            diagnostics.append("series C shares its signed cycle classes with series B")
        wt = WeylType(series, args.rank)
        # parse_class checks the class once; the private maps below trust it
        cls = parse_class(wt, args.class_label)
        # dimensions of strata come from the algebraic group with this Weyl group
        group = wt.group
        result = _stratum(group, _class_stratum(_stratum_rule(wt), cls))
        payload = {
            "weyl": {"series": series.value, "rank": args.rank},
            "class": str(cls) if series is not WeylSeries.A else ",".join(map(str, cls)),
            "group": _group_payload(group),
            **_stratum_payload(result, _STRATUM_FIELDS[:2]),
            "fixed_space_dim": _fixed_space_dim(wt, cls),
        }
        return payload, diagnostics
    from .atlas import exc_group_from_name, load_atlas, m_of_class, parse_carter

    group = exc_group_from_name(name)
    if args.rank is not None:
        raise DomainError("--rank applies only to classical series", code="bad_rank")
    atlas = load_atlas(args.data_file)
    hint = atlas.rep_from_string(group, args.rep) if args.rep is not None else None
    # one parse of the label serves the lookup, the payload and the fixed-space dimension
    label = parse_carter(args.class_label)
    rep = atlas.rep_of_class(group, label, rep_hint=hint)
    payload = {
        "group": group,
        "class": label.raw,
        "fixed_space_dim": m_of_class(group, label),
        **_rep_payload(atlas, group, rep),
        "fiber": [c.raw for c in atlas.fiber(group, rep)],
    }
    return payload, diagnostics


# enumerate lists at most this many strata, and refuses a larger group with too_large
MAX_STRATA = 50_000


def _cmd_enumerate(args) -> tuple[dict, list[str]]:
    from .classical import GroupDescriptor, enumerate_strata, stratum_excess
    from .partitions import count_bipartitions

    group = GroupDescriptor(_series_for_cli(args.series, args.dimension), args.dimension, args.char)
    # the counts grow with the weight (add 1 to the first entry), so the first
    # weight past the bound decides, and a larger one is never counted
    for weight in range(group.rank_half + 1):
        if count_bipartitions(weight, stratum_excess(group.series)) > MAX_STRATA:
            raise DomainError(f"{group.series.value}_{group.dimension} has more than {MAX_STRATA} strata, "
                              "the most enumerate lists", code="too_large")
    rows = []
    for result in enumerate_strata(group):
        row = _stratum_payload(result)
        row["parts"] = row.pop("stratum")["parts"]
        rows.append(row)
    payload = {"group": _group_payload(group), "count": len(rows), "strata": rows}
    return payload, []


def _cmd_tables(args) -> tuple[dict | str, list[str]]:
    from .atlas import exc_group_from_name, load_atlas

    atlas = load_atlas(args.data_file)
    if args.raw:
        return atlas.text, []
    group = exc_group_from_name(args.group)
    rows = atlas.rows(group)
    if args.char is not None:
        keep = set(atlas.strata_for_characteristic(group, args.char))
        rows = tuple(row for row in rows if row.rep in keep)
    if args.rep is not None:
        wanted = atlas.rep_from_string(group, args.rep)
        rows = tuple(row for row in rows if row.rep == wanted)
    if args.class_label is not None:
        held = atlas.rows_of_class(group, args.class_label)
        rows = tuple(row for row in rows if row in held)
    payload = {
        "group": group,
        "checksum": atlas.checksum(),
        "count": len(rows),
        "rows": [
            {**_rep_payload(atlas, group, row.rep), "classes": [c.raw for c in row.classes]}
            for row in rows
        ],
    }
    return payload, []


def _cmd_verify(args) -> tuple[dict, list[str]]:
    from .atlas import ATLAS_ENV_VAR
    from .verify import check_names, run_suite

    names = check_names() if args.suite == "all" else (args.suite,)
    # checks load the atlas themselves; route the override through the env var
    saved = os.environ.get(ATLAS_ENV_VAR)
    if args.data_file is not None:
        os.environ[ATLAS_ENV_VAR] = os.path.abspath(args.data_file)
    try:
        results = run_suite(names)
    finally:
        if saved is None:
            os.environ.pop(ATLAS_ENV_VAR, None)
        else:
            os.environ[ATLAS_ENV_VAR] = saved
    # each row holds exactly the fields of CheckResult, so the renderer rebuilds it
    payload = {
        "passed": all(r.passed for r in results),
        "results": [dict(zip(r._fields, r._values(r)), seconds=round(r.seconds, 6)) for r in results],
    }
    return payload, []


def _cmd_invert(args) -> tuple[dict, list[str]]:
    from .jordan import LabeledPartition, family_from_name, invert_bijection
    from .partitions import Bipartition, _parse_entries

    family = family_from_name(args.family)
    target = Bipartition(_parse_entries(args.target))
    preimage = invert_bijection(family, args.N, target)
    payload = {"family": family.value, "N": args.N, "target": list(target)}
    if isinstance(preimage, LabeledPartition):
        payload["parts"] = list(preimage.parts)
        payload["labels"] = {str(v): bit for v, bit in sorted(preimage.labels)}
    else:
        payload["parts"] = list(preimage)
    return payload, []


def _emit(envelope: dict, fmt: str, renderer) -> None:
    if fmt == "json":
        sys.stdout.write(json.dumps(envelope, sort_keys=True, indent=2) + "\n")
        return
    if envelope["status"] == "error":
        err = envelope["payload"]
        sys.stdout.write(f"error [{err['code']}]: {err['message']}\n")
    else:
        sys.stdout.write(renderer(envelope["payload"]))
    for note in envelope["diagnostics"]:
        sys.stdout.write(f"# {note}\n")


def _parts_text(parts) -> str:
    return ",".join(map(str, parts)) if parts else "()"


def _render_stratum(payload: dict) -> str:
    lines = [
        f"stratum      {_parts_text(payload['stratum']['parts'])}",
        f"n-invariant  {payload['n_invariant']}",
        f"class dim    {payload['class_dim']}",
    ]
    if "springer_dim" in payload:
        lines.append(f"springer dim {payload['springer_dim']}")
    if payload.get("pair_degenerate") is not None:
        lines.append(f"degenerate   {payload['pair_degenerate']}")
    if "fixed_space_dim" in payload:
        lines.append(f"fixed space  {payload['fixed_space_dim']}")
    return "\n".join(lines) + "\n"


def _render_phi(payload: dict) -> str:
    if "d" not in payload:
        return _render_stratum(payload)
    lines = [
        f"class        {payload['class']}",
        f"rep          {payload['display']}",
        f"class dim    {payload['class_dim']}",
        f"fixed space  {payload['fixed_space_dim']}",
        f"fiber        {', '.join(payload['fiber'])}",
        f"cross sec    {payload['cross_section']}",
    ]
    if payload["note"]:
        lines.append(f"note         {payload['note']}")
    return "\n".join(lines) + "\n"


def _render_enumerate(payload: dict) -> str:
    width = max((len(_parts_text(row["parts"])) for row in payload["strata"]), default=7)
    width = max(width, len("stratum"))
    lines = [f"{'stratum':<{width}}  {'n':>3}  {'dim':>4}"]
    for row in payload["strata"]:
        lines.append(
            f"{_parts_text(row['parts']):<{width}}  {row['n_invariant']:>3}  {row['class_dim']:>4}"
        )
    lines.append(f"{payload['count']} strata")
    return "\n".join(lines) + "\n"


def _render_tables(payload: dict) -> str:
    lines = []
    for row in payload["rows"]:
        star = f" *{row['star']}" if row["star"] else ""
        note = f"  [{row['note']}]" if row["note"] else ""
        lines.append(
            f"{row['display']:<10} dim {row['class_dim']:>3}{star:<4} "
            f"classes: {', '.join(row['classes'])}{note}"
        )
    lines.append(f"{payload['count']} rows ({payload['group']}, checksum {payload['checksum'][:12]})")
    return "\n".join(lines) + "\n"


def _render_verify(payload: dict) -> str:
    from .verify import CheckResult

    lines = [CheckResult(**row).line() for row in payload["results"]]
    lines.append("all checks passed" if payload["passed"] else "verification FAILED")
    return "\n".join(lines) + "\n"


def _render_invert(payload: dict) -> str:
    text = f"parts  {_parts_text(payload['parts'])}\n"
    if payload.get("labels"):
        bits = ", ".join(f"{v}:{bit}" for v, bit in payload["labels"].items())
        text += f"labels {bits}\n"
    return text


def _one_of(words):
    """A converter that passes the words that words() returns and refuses any other."""

    def check(word: str) -> str:
        if word not in words():
            raise ValueError(f"invalid choice: {word!r} (choose from {', '.join(map(repr, words()))})")
        return word

    return check


def _suite_names() -> tuple[str, ...]:
    from .verify import check_names

    return ("all",) + check_names()


def _flag(value) -> bool:
    """The converter of an option that takes no value."""
    if value is not None:
        raise ValueError(f"ignored explicit argument {value!r}")
    return True


# An option is (name, dest, kind, default, help): kind converts the value (int, str,
# an _one_of check, or _flag), and the default ... marks an option that must be
# given.  A name without dashes is the command's positional argument.
_HELP = (("-h", None, _flag, None, ""), ("--help", None, _flag, None, "show this help message and exit"))
_COMMON = (("--format", "format", _one_of(lambda: ("json", "table")), "json", "json (default) or table"),
           ("--data-file", "data_file", str, None, "override the packaged strata table file"))

# command -> (handler returning (payload, diagnostics), table renderer, help, options)
_COMMANDS = {
    "classify": (_cmd_classify, _render_stratum, "classify a spectral datum into its stratum", (
        ("input", "input", str, ..., "path to a JSON spectral datum, or - for stdin"),)),
    "phi": (_cmd_phi, _render_phi, "map a Weyl conjugacy class to its stratum", (
        ("--group", "group", str, ..., "A, B, C, D (with --rank) or G2, F4, E6, E7, E8"),
        ("--rank", "rank", int, None, "rank for classical series"),
        ("--class", "class_label", str, ..., "cycle lengths '3,1' (A) or '3,1;2' (B/C/D), or a label 'D_7(a_1)'"),
        ("--rep", "rep", str, None, "representation hint 'd_n[*r][#k]' when the class name is ambiguous"),)),
    "enumerate": (_cmd_enumerate, _render_enumerate, "enumerate the strata of a classical group", (
        ("--series", "series", str, ..., "GL, Sp, SO, SO_odd or SO_even"),
        ("--dimension", "dimension", int, ..., "size N of the group GL_N/Sp_N/SO_N"),
        ("--char", "char", int, 0, "field characteristic (default 0)"),)),
    "tables": (_cmd_tables, _render_tables, "dump rows of the exceptional strata table", (
        ("--group", "group", str, ..., "G2, F4, E6, E7 or E8"),
        ("--char", "char", int, None, "keep only strata with unipotent classes in this characteristic"),
        ("--rep", "rep", str, None, "keep only the row for this representation"),
        ("--class", "class_label", str, None, "keep only rows containing this class"),
        ("--raw", "raw", _flag, False, "write the table file bytes verbatim and exit"),)),
    "verify": (_cmd_verify, _render_verify, "run the recorded verification checks", (
        ("--suite", "suite", _one_of(_suite_names), "all", "which check to run (default all)"),)),
    "invert": (_cmd_invert, _render_invert, "find the preimage of a stratum under a family bijection", (
        ("--family", "family", str, ..., "Z1, Z2, Z1P, Z2P or a family name like symplectic_char2"),
        ("--N", "N", int, ..., "weight of the preimage"),
        ("--target", "target", str, ..., "bipartition entries, e.g. '2,0,1'"),)),
}
# the words before the command: the first value names the command, which reads the rest
_TOP = (("command", "command", _one_of(lambda: tuple(_COMMANDS)), ..., "one of:"),)


class _UsageError(Exception):
    """A refused command line, as (command or None, message): main exits 2."""


def _help(command) -> str:
    """The help text of a command, or of the tool; its first line is the usage line."""
    table = _COMMON + _COMMANDS[command][3] if command else _TOP
    spelled = [o[0] if o[2] is _flag or o[0][0] != "-" else f"{o[0]} {o[1].upper()}" for o in table]
    usage = " ".join(s if o[3] is ... else f"[{s}]" for s, o in zip(spelled, table))
    rows = [("-h, --help", _HELP[1][4]), *zip(spelled, (o[4] for o in table))]
    if command is None:
        rows += [(f"  {name}", entry[2]) for name, entry in _COMMANDS.items()]
    about = _COMMANDS[command][2] if command else "Stratifications of classical and exceptional groups."
    return (f"usage: weylstrata {command + ' ' if command else ''}[-h] {usage}\n\n{about}\n\n"
            + "".join(f"  {left:<22} {text}\n" for left, text in rows))


def _option(word: str, names, command) -> tuple | None:
    """How argparse reads a word before a command's '--': None for a value, else
    (option name, the text after '=' or None), the name None for an unknown option."""
    if word[:1] != "-" or word in ("-", "--"):
        return None
    # -h, the one short option, takes what runs on after it as its value
    head, eq, value = ("-h", word[2:], word[2:]) if word[:2] == "-h" else word.partition("=")
    # a long option may be shortened to a prefix of one name
    found = [head] if head in names else [n for n in names if word[1] == "-" and n.startswith(head)]
    if len(found) > 1:
        raise _UsageError(command, f"ambiguous option: {word} could match {', '.join(found)}")
    if found:
        return found[0], value if eq else None
    # a dash and a number, or a word with a space, is a value
    return None if re.match(r"^-\d+$|^-\d*\.\d+$", word) or " " in word else (None, None)


def _read(command, words: list[str], extras=()):
    """The values of a command line as argparse read them, or the help text asked
    for.  With command None the first value names the command, which reads the
    words after it; extras are the words already left over."""
    table = _COMMON + _COMMANDS[command][3] if command else _TOP
    options = {o[0]: o for o in _HELP + table}
    values = {o[1]: o[3] for o in table}
    positional = next((o[0] for o in table if o[0][0] != "-"), None)
    # after a command's first '--' every word is a value; (None, None) marks the '--' and the end
    cut = words.index("--") if command and "--" in words else len(words)
    read = [_option(word, tuple(options), command) for word in words[:cut]]
    read += [(None, None)] + [None] * (len(words) - cut - 1)
    extras, taken, i = list(extras), None, 0
    while i < len(words):
        how, word, i = read[i], words[i], i + 1
        # a value is the positional's, if the command has one and it is not yet given
        name, value = how or (positional, word)
        if name is None or how is None and values[name] is not ...:
            extras.append(word)
            continue
        if how is None:
            taken = i - 1
        elif value is None and options[name][2] is not _flag:
            if read[i] is not None:
                raise _UsageError(command, f"argument {name}: expected one argument")
            value, i = words[i], i + 1
        try:
            value = options[name][2](value)
        except ValueError as err:
            raise _UsageError(command, f"argument {name}: {err}")
        if name in ("-h", "--help"):
            return _help(command)
        if command is None:
            return _read(value, words[i:], extras)
        values[options[name][1]] = value
    missing = [o[0] for o in table if values[o[1]] is ...]
    if missing:
        raise _UsageError(command, f"the following arguments are required: {', '.join(missing)}")
    # a '--' next to the positional's value is read with it
    if cut < len(words) and taken in (cut - 1, cut + 1):
        extras.remove("--")
    if extras:
        raise _UsageError(command, f"unrecognized arguments: {' '.join(extras)}")
    return SimpleNamespace(command=command, **values)


def main(argv=None) -> int:
    try:
        args = _read(None, sys.argv[1:] if argv is None else list(argv))
    except _UsageError as err:
        command, message = err.args
        sys.stderr.write(f"{_help(command).splitlines()[0]}\nweylstrata: error: {message}\n")
        # a usage error is a JSON envelope whatever --format says
        error = {"code": "usage_error", "message": message}
        _emit({"status": "error", "payload": error, "diagnostics": []}, "json", None)
        return 2
    try:
        # a help request is its text, written out as tables --raw writes the table file
        payload, diagnostics = (args, []) if isinstance(args, str) else _COMMANDS[args.command][0](args)
    except (DomainError, ConsistencyError) as err:
        error = {"code": err.code, "message": str(err)}
        _emit({"status": "error", "payload": error, "diagnostics": []}, args.format, None)
        return 3 if isinstance(err, ConsistencyError) else 1
    if isinstance(payload, str):
        # tables --raw and help: the table file bytes or the help text, not an envelope
        sys.stdout.write(payload)
        return 0
    renderer = _COMMANDS[args.command][1]
    _emit({"status": "ok", "payload": payload, "diagnostics": diagnostics}, args.format, renderer)
    # only verify reports "passed"; a falsified check is a consistency failure
    return 3 if payload.get("passed") is False else 0


if __name__ == "__main__":
    sys.exit(main())
