"""Command-line interface.

Every invocation runs exactly one subcommand and writes a single result
envelope to standard output: {"status": "ok"|"error", "payload": ...,
"diagnostics": [...]}.  The one exception is a successful `tables --raw`,
which writes the table file's bytes verbatim.  The JSON shape is described in
data/envelope.schema.json.  Exit codes: 0 success, 1 domain error,
2 usage error, 3 consistency failure (a recorded claim was falsified).

Each command imports the package modules it uses when it runs, so a
process pays only for those.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

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


class _SuiteChoices:
    """The choices of verify --suite, read from the verify module when needed."""

    def __iter__(self):
        from .verify import check_names

        return iter(("all",) + check_names())

    def __contains__(self, name) -> bool:
        return name in iter(self)


# command -> (handler returning (payload, diagnostics), table renderer)
_COMMANDS = {
    "classify": (_cmd_classify, _render_stratum),
    "phi": (_cmd_phi, _render_phi),
    "enumerate": (_cmd_enumerate, _render_enumerate),
    "tables": (_cmd_tables, _render_tables),
    "verify": (_cmd_verify, _render_verify),
    "invert": (_cmd_invert, _render_invert),
}


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "table"), default="json",
                        help="output format (default json)")
    common.add_argument("--data-file", default=None, metavar="PATH",
                        help="override the packaged strata table file")

    parser = argparse.ArgumentParser(
        prog="weylstrata",
        description="Stratifications of classical and exceptional groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", parents=[common],
                       help="classify a spectral datum into its stratum")
    p.add_argument("input", help="path to a JSON spectral datum, or - for stdin")

    p = sub.add_parser("phi", parents=[common],
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

    p = sub.add_parser("tables", parents=[common],
                       help="dump rows of the exceptional strata table")
    p.add_argument("--group", required=True, help="G2, F4, E6, E7 or E8")
    p.add_argument("--char", type=int, default=None,
                   help="keep only strata with unipotent classes in this characteristic")
    p.add_argument("--rep", default=None, help="keep only the row for this representation")
    p.add_argument("--class", dest="class_label", default=None,
                   help="keep only rows containing this class")
    p.add_argument("--raw", action="store_true",
                   help="write the table file bytes verbatim and exit")

    p = sub.add_parser("verify", parents=[common],
                       help="run the recorded verification checks")
    # with a metavar, argparse lists the choices only when it checks a value
    # or formats help, so other commands never import the verify module
    p.add_argument("--suite", default="all", choices=_SuiteChoices(), metavar="SUITE",
                   help="which check to run (default all): %(choices)s")

    p = sub.add_parser("invert", parents=[common],
                       help="find the preimage of a stratum under a family bijection")
    p.add_argument("--family", required=True,
                   help="Z1, Z2, Z1P, Z2P or a family name like symplectic_char2")
    p.add_argument("--N", type=int, required=True, help="weight of the preimage")
    p.add_argument("--target", required=True, help="bipartition entries, e.g. '2,0,1'")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handler, renderer = _COMMANDS[args.command]
    try:
        payload, diagnostics = handler(args)
    except (DomainError, ConsistencyError) as err:
        error = {"code": err.code, "message": str(err)}
        _emit({"status": "error", "payload": error, "diagnostics": []}, args.format, renderer)
        return 3 if isinstance(err, ConsistencyError) else 1
    if isinstance(payload, str):
        # tables --raw: the table file bytes verbatim, not an envelope
        sys.stdout.write(payload)
        return 0
    _emit({"status": "ok", "payload": payload, "diagnostics": diagnostics}, args.format, renderer)
    # only verify reports "passed"; a falsified check is a consistency failure
    return 3 if payload.get("passed") is False else 0


if __name__ == "__main__":
    sys.exit(main())
