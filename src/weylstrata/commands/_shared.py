"""The payload rows and table text that two commands both build."""

_STRATUM_FIELDS = ("n_invariant", "class_dim", "springer_dim", "pair_degenerate")


def _group_payload(group) -> dict:
    return {"series": group.series.value, "N": group.dimension, "char": group.characteristic}


def _stratum_payload(result, fields=_STRATUM_FIELDS) -> dict:
    # the named fields of a stratum result; classical phi reports only the first two
    return {name: getattr(result, name) for name in fields}


def _rep_payload(atlas, row) -> dict:
    # the exceptional row shared by phi and tables
    rep = row.rep
    return {
        "display": atlas.format_rep(rep),
        "d": rep.d,
        "n": rep.n,
        "star": rep.star,
        "synthetic_id": rep.synthetic_id,
        "class_dim": row.class_dim,
        "cross_section": atlas.cross_section(row.group, rep).raw,
        "note": row.note,
    }


def _parts_text(parts) -> str:
    return ",".join(map(str, parts)) if parts else "()"


def _table_text(rows) -> str:
    # one "label value" line per (label, value) row whose value is not None
    return "".join(f"{label:<12} {value}\n" for label, value in rows if value is not None)


def _render_stratum(payload: dict) -> str:
    return _table_text((
        ("stratum", _parts_text(payload["stratum"]["parts"])),
        ("n-invariant", payload["n_invariant"]),
        ("class dim", payload["class_dim"]),
        ("springer dim", payload.get("springer_dim")),
        ("degenerate", payload.get("pair_degenerate")),
        ("fixed space", payload.get("fixed_space_dim")),
    ))
