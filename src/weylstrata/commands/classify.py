"""classify: the stratum of a spectral datum read from a JSON document."""

from __future__ import annotations

import json
import sys

from ..classical import EigenOrbit, GroupDescriptor, OrbitKind, SpectralDatum, classify
from ..errors import DomainError
from ..jordan import LabeledPartition
from ..partitions import Partition, parse_entries
from ._shared import _group_payload, _render_stratum, _stratum_payload


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
    if not isinstance(doc, dict) or "series" not in doc or "N" not in doc:
        raise DomainError('group must be {"series": ..., "N": ..., "char"?: ...}', code="bad_document")
    # GroupDescriptor reads the series name and checks N and char
    return GroupDescriptor(doc["series"], doc["N"], doc.get("char", 0))


def _orbit_from_doc(doc: dict):
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
    if not isinstance(parts, list):  # Partition checks the entries
        raise DomainError("orbit parts must be a list of integers", code="bad_document")
    if "labels" in doc and doc["labels"] is not None:
        raw_labels = doc["labels"]
        if not isinstance(raw_labels, dict):
            raise DomainError("orbit labels must be an object", code="bad_document")
        try:
            # each key is one entry by the rule of class text and --target; a
            # DomainError is a ValueError.  LabeledPartition checks the bits.
            labels = {key: v for (key,), v in zip(map(parse_entries, raw_labels), raw_labels.values())}
        except ValueError:
            raise DomainError("orbit labels must map integers to bits", code="bad_document")
        jordan = LabeledPartition(parts, labels)
    else:
        jordan = Partition(parts)
    return EigenOrbit(str(doc["id"]), kind, jordan)


def run(args) -> tuple[dict, list[str]]:
    doc = _read_document(args.input)
    if "group" not in doc or "orbits" not in doc:
        raise DomainError('document must have "group" and "orbits"', code="bad_document")
    if not isinstance(doc["orbits"], list):
        raise DomainError('"orbits" must be a list', code="bad_document")
    group = _group_from_doc(doc["group"])
    datum = SpectralDatum(group, [_orbit_from_doc(o) for o in doc["orbits"]])
    result = classify(datum)
    payload = {"group": _group_payload(group), "stratum": {"parts": list(result.bp)}, **_stratum_payload(result)}
    diagnostics = []
    if result.pair_degenerate:
        diagnostics.append("stratum label is fixed by the even orthogonal pair symmetry")
    return payload, diagnostics


render = _render_stratum
