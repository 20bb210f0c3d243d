"""tables: rows of the exceptional strata table, or its bytes verbatim."""

from __future__ import annotations

from ..atlas import exc_group_from_name, load_atlas
from ..errors import DomainError
from ._shared import _rep_payload


def run(args) -> tuple[dict | str, list[str]]:
    atlas = load_atlas(args.data_file)
    group = exc_group_from_name(args.group)
    if args.raw:
        # the file bytes are the whole table, so a filter would go unread
        for option, value, code in (
            ("--char", args.char, "bad_characteristic"), ("--rep", args.rep, "bad_rep"),
            ("--class", args.class_label, "bad_class"),
        ):
            if value is not None:
                raise DomainError(f"{option} does not apply with --raw, which writes the whole table", code=code)
        return atlas.text, []
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
            {**_rep_payload(atlas, row), "classes": [c.raw for c in row.classes]}
            for row in rows
        ],
    }
    return payload, []


def render(payload: dict) -> str:
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
