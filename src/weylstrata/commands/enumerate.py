"""enumerate: every stratum of a classical group, up to MAX_STRATA of them."""

from __future__ import annotations

from ..classical import GroupDescriptor, enumerate_strata, series_from_name, stratum_excess
from ..enumeration import count_bipartitions
from ..errors import DomainError
from ._shared import _group_payload, _parts_text, _stratum_payload

# enumerate lists at most this many strata, and refuses a larger group with too_large
MAX_STRATA = 50_000


def _series_for_cli(name: str, dimension: int):
    # bare "SO" picks the odd or even series from the dimension
    if name.strip().lower() == "so":
        return series_from_name("SO_odd" if dimension % 2 else "SO_even")
    return series_from_name(name)


def run(args) -> tuple[dict, list[str]]:
    group = GroupDescriptor(_series_for_cli(args.series, args.dimension), args.dimension, args.char)
    # the counts grow with the weight (add 1 to the first entry), so the first
    # weight past the bound decides, and a larger one is never counted
    for weight in range(group.rank_half + 1):
        if count_bipartitions(weight, stratum_excess(group.series)) > MAX_STRATA:
            raise DomainError(f"{group.series.value}_{group.dimension} has more than {MAX_STRATA} strata, "
                              "the most enumerate lists", code="too_large")
    rows = [{"parts": list(result.bp), **_stratum_payload(result)} for result in enumerate_strata(group)]
    payload = {"group": _group_payload(group), "count": len(rows), "strata": rows}
    return payload, []


def render(payload: dict) -> str:
    width = max([len("stratum"), *(len(_parts_text(row["parts"])) for row in payload["strata"])])
    lines = [f"{'stratum':<{width}}  {'n':>3}  {'dim':>4}"]
    for row in payload["strata"]:
        lines.append(
            f"{_parts_text(row['parts']):<{width}}  {row['n_invariant']:>3}  {row['class_dim']:>4}"
        )
    lines.append(f"{payload['count']} strata")
    return "\n".join(lines) + "\n"
