"""The payload rows and table text that two commands both build."""

_STRATUM_FIELDS = ("n_invariant", "class_dim", "springer_dim", "pair_degenerate")


def _group_payload(group) -> dict:
    return {"series": group.series.value, "N": group.dimension, "char": group.characteristic}


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
