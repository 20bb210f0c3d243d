"""invert: the preimage of a bipartition under a Jordan family's map."""

from __future__ import annotations

from ..jordan import LabeledPartition, family_from_name
from ..jordan_inverse import invert_bijection
from ..partitions import Bipartition, parse_entries
from ._shared import _parts_text


def run(args) -> tuple[dict, list[str]]:
    family = family_from_name(args.family)
    target = Bipartition(parse_entries(args.target))
    preimage = invert_bijection(family, args.N, target)
    payload = {"family": family.value, "N": args.N, "target": list(target)}
    if isinstance(preimage, LabeledPartition):
        payload["parts"] = list(preimage.parts)
        payload["labels"] = {str(v): bit for v, bit in sorted(preimage.labels)}
    else:
        payload["parts"] = list(preimage)
    return payload, []


def render(payload: dict) -> str:
    text = f"parts  {_parts_text(payload['parts'])}\n"
    if payload.get("labels"):
        bits = ", ".join(f"{v}:{bit}" for v, bit in payload["labels"].items())
        text += f"labels {bits}\n"
    return text
