"""phi: the stratum of a Weyl group class, classical or exceptional.

A classical class loads only the classical and Weyl code, an exceptional one
only the atlas.
"""

from __future__ import annotations

from ..errors import DomainError
from ._shared import _STRATUM_FIELDS, _group_payload, _rep_payload, _render_stratum, _stratum_payload, _table_text

_CLASSICAL_LETTERS = {"A", "B", "C", "D"}


def run(args) -> tuple[dict, list[str]]:
    name = args.group.strip()
    diagnostics: list[str] = []
    if name.upper() in _CLASSICAL_LETTERS:
        from ..classical import stratum_of_label
        from ..weyl import WeylSeries, WeylType, fixed_space_dim, parse_class, stratum_of_class, weyl_series_from_name

        if args.rank is None:
            raise DomainError("classical series need --rank", code="bad_rank")
        if args.rep is not None:
            raise DomainError("--rep applies only to exceptional groups", code="bad_rep")
        series = weyl_series_from_name(name)
        if name.upper() == "C":
            diagnostics.append("series C shares its signed cycle classes with series B")
        wt = WeylType(series, args.rank)
        cls = parse_class(wt, args.class_label)
        # dimensions of strata come from the algebraic group with this Weyl group
        group = wt.group
        result = stratum_of_label(group, stratum_of_class(wt, cls))
        payload = {
            "weyl": {"series": series.value, "rank": args.rank},
            "class": str(cls) if series is not WeylSeries.A else ",".join(map(str, cls)),
            "group": _group_payload(group),
            "stratum": {"parts": list(result.bp)},
            **_stratum_payload(result, _STRATUM_FIELDS[:2]),
            "fixed_space_dim": fixed_space_dim(wt, cls),
        }
        return payload, diagnostics
    from ..atlas import exc_group_from_name, load_atlas, m_of_class, parse_carter

    group = exc_group_from_name(name)
    if args.rank is not None:
        raise DomainError("--rank applies only to classical series", code="bad_rank")
    atlas = load_atlas(args.data_file)
    hint = atlas.rep_from_string(group, args.rep) if args.rep is not None else None
    # one parse of the label serves the lookup, the payload and the fixed-space dimension
    label = parse_carter(args.class_label)
    row = atlas.row(group, atlas.rep_of_class(group, label, rep_hint=hint))
    payload = {
        "group": group,
        "class": label.raw,
        "fixed_space_dim": m_of_class(group, label),
        **_rep_payload(atlas, row),
        "fiber": [c.raw for c in row.classes],
    }
    return payload, diagnostics


def render(payload: dict) -> str:
    if "d" not in payload:
        return _render_stratum(payload)
    return _table_text((
        ("class", payload["class"]),
        ("rep", payload["display"]),
        ("class dim", payload["class_dim"]),
        ("fixed space", payload["fixed_space_dim"]),
        ("fiber", ", ".join(payload["fiber"])),
        ("cross sec", payload["cross_section"]),
        ("note", payload["note"] or None),
    ))
