"""Output checks, computed from the benchmark's own combinatorics.

Each function takes plain data (tuples, lists, dicts) and returns None when
the output is right, or a one-line description of what is wrong.  None of
them calls back into the timed code path.
"""

from __future__ import annotations

import json

import sampler as S

class KnownDefect(str):
    """A failure the benchmark expects at this commit; it still counts as failed."""


# Every error envelope matches both branches of the schema's payload `oneOf`
# (the error record, and any object), so the shipped schema rejects it.
SCHEMA_ONEOF = KnownDefect("error envelope matches both payload branches of the schema's oneOf")

EXC_POSITIVE_ROOTS = {"G2": 6, "F4": 24, "E6": 36, "E7": 63, "E8": 120}
WEYL_GROUPS = {"A": "GL", "B": "Sp", "C": "Sp", "D": "SO_even"}


def _pair_symmetric(bp) -> bool:
    padded = list(bp) + [0] * (len(bp) % 2)
    return all(padded[i] == padded[i + 1] for i in range(0, len(padded), 2))


def label_problem(bp, weight: int, excess) -> str | None:
    """bp must be a weight-`weight` bipartition of the given excess, trimmed."""
    if sum(bp) != weight:
        return f"{tuple(bp)} has weight {sum(bp)}, expected {weight}"
    if bp and bp[-1] == 0:
        return f"{tuple(bp)} is not trimmed"
    if not S.has_excess(bp, excess):
        return f"{tuple(bp)} is not a bipartition of excess {tuple(excess)}"
    return None


def stratum_problem(series: str, dimension: int, row) -> str | None:
    """row = (bp, n_invariant, class_dim, pair_degenerate) of a classical stratum."""
    bp, n_inv, class_dim, degenerate = row
    n = S.rank_half(series, dimension)
    problem = label_problem(bp, n, S.stratum_excess(series))
    if problem:
        return problem
    if n_inv != S.n_invariant(bp):
        return f"{tuple(bp)}: n-invariant {n_inv}, expected {S.n_invariant(bp)}"
    want_dim = 2 * S.positive_roots(series, n) - 2 * n_inv
    if class_dim != want_dim:
        return f"{tuple(bp)}: class_dim {class_dim}, expected {want_dim}"
    want_degenerate = _pair_symmetric(bp) if series == "SO_even" else None
    if degenerate != want_degenerate:
        return f"{tuple(bp)}: pair_degenerate {degenerate}, expected {want_degenerate}"
    return None


def _listing_problem(items, count: int, what: str) -> str | None:
    if len(items) != count:
        return f"{len(items)} {what}, expected {count}"
    if any(items[i] <= items[i + 1] for i in range(len(items) - 1)):
        return f"{what} are not strictly descending"
    return None


def bipartitions_problem(n: int, excess, bps) -> str | None:
    for bp in bps:
        problem = label_problem(bp, n, excess)
        if problem:
            return problem
    return _listing_problem([tuple(bp) for bp in bps], S.bp_count(n, excess), "bipartitions")


def strata_problem(series: str, dimension: int, rows) -> str | None:
    for row in rows:
        problem = stratum_problem(series, dimension, row)
        if problem:
            return problem
    n = S.rank_half(series, dimension)
    count = S.bp_count(n, S.stratum_excess(series))
    return _listing_problem([tuple(row[0]) for row in rows], count, "strata")


def dimension_set_problem(series: str, dimension: int, dims) -> str | None:
    n = S.rank_half(series, dimension)
    top = 2 * S.positive_roots(series, n)
    want = sorted(top - 2 * s for s in S.n_invariant_set(n, S.stratum_excess(series)))
    if sorted(dims) != want:
        return f"dimension set of {series} {dimension} differs from the DP: {len(dims)} vs {len(want)} values"
    return None


def fibers_problem(series: str, rank: int, fibers) -> str | None:
    """fibers = [(bp, [(pos, neg), ...], cross_section)] in the library's order."""
    excess = S.stratum_excess(WEYL_GROUPS[series])
    total = 0
    for bp, classes, cross in fibers:
        problem = label_problem(bp, rank, excess)
        if problem:
            return problem
        for pos, neg in classes:
            if sum(pos) + sum(neg) != rank or (series == "D" and len(neg) % 2):
                return f"class {pos};{neg} is not a type {series}{rank} class"
        dims = sorted(len(pos) for pos, _ in classes)
        if cross not in classes or len(cross[0]) != dims[0] or dims[1:2] == dims[:1]:
            return f"cross-section {cross} over {tuple(bp)} is not the unique minimizer"
        total += len(classes)
    if total != S.signed_class_count(series, rank):
        return f"fibers hold {total} classes, expected {S.signed_class_count(series, rank)}"
    labels = [tuple(f[0]) for f in fibers]
    return _listing_problem(labels, S.bp_count(rank, excess), "fibers")


def jordan_problem(family: str, N: int, items) -> str | None:
    """items = [(parts, labels or None)] of enumerate_jordan."""
    for parts, labels in items:
        if sum(parts) != N or not S.in_family(family, parts, labels):
            return f"{parts} {labels} is not a weight-{N} {family} datum"
    keys = {(tuple(p), tuple(sorted((l or {}).items()))) for p, l in items}
    if len(keys) != len(items):
        return "enumerate_jordan repeated a datum"
    if len(items) != S.jordan_count(family, N):
        return f"{len(items)} {family} data of weight {N}, expected {S.jordan_count(family, N)}"
    return None


def preimage_problem(family: str, N: int, target, parts, labels, image) -> str | None:
    """An inverse image must lie in the family and map back onto the target."""
    if sum(parts) != N or not S.in_family(family, parts, labels):
        return f"preimage {parts} {labels} is not a weight-{N} {family} datum"
    if tuple(image) != tuple(target):
        return f"preimage {parts} maps to {tuple(image)}, not {tuple(target)}"
    return None


# ---------------------------------------------------------------------------
# command-line envelopes


def envelope_problem(validator, op: dict, code: int, stdout: bytes) -> str | None:
    """Exit code, envelope schema, then the payload of one CLI request."""
    problem = _envelope_problem(validator, op, code, stdout)
    if problem and op.get("defect"):
        return KnownDefect(f"{op['defect']}: {problem}")
    return problem


def _envelope_problem(validator, op, code, stdout):
    expect = op["expect"]
    want_code = 0 if expect == "ok" else 1
    if code != want_code:
        return f"exit {code}, expected {want_code}"
    try:
        env = json.loads(stdout)
    except ValueError:
        return "stdout is not one JSON document"
    ambiguous = False
    for error in validator.iter_errors(env):
        # a oneOf failure without sub-errors means the payload matched every branch
        if error.validator == "oneOf" and list(error.absolute_path) == ["payload"] and not error.context:
            ambiguous = env.get("status") == "error"
            if ambiguous:
                continue
        return f"envelope violates the schema: {error.message}"
    if expect != "ok":
        if env["status"] != "error":
            return f"status {env['status']!r}, expected 'error'"
        if expect != "error" and env["payload"]["code"] != expect:
            return f"error code {env['payload']['code']!r}, expected {expect!r}"
        return SCHEMA_ONEOF if ambiguous else None
    if env["status"] != "ok":
        return f"status {env['status']!r}: {env['payload']}"
    return _PAYLOAD_CHECKS[op["kind"]](op, env["payload"])


def _phi_exc(op, p):
    d, n, star, sid = op["rep"]
    if (p["d"], p["n"], p["star"], p["synthetic_id"]) != (d, n, star, sid):
        return f"rep {p['d']}_{p['n']}*{p['star']}#{p['synthetic_id']}, atlas says {d}_{n}*{star}#{sid}"
    if p["class_dim"] != 2 * EXC_POSITIVE_ROOTS[op["group"]] - 2 * n:
        return f"class_dim {p['class_dim']} does not match n-invariant {n}"
    if op["label"] not in p["fiber"]:
        return f"{op['label']} missing from its fiber"
    return None


def _phi_classical(op, p):
    series = WEYL_GROUPS[op["series"]]
    dimension = op["rank"] + 1 if series == "GL" else 2 * op["rank"]
    bp = p["stratum"]["parts"]
    # phi reports no pair degeneracy, so that field is not compared
    degenerate = _pair_symmetric(bp) if series == "SO_even" else None
    return stratum_problem(series, dimension, (bp, p["n_invariant"], p["class_dim"], degenerate))


def _classify(op, p):
    g = op["doc"]["group"]
    row = (p["stratum"]["parts"], p["n_invariant"], p["class_dim"], p["pair_degenerate"])
    return stratum_problem(g["series"], g["N"], row)


def _enumerate(op, p):
    rows = [(r["parts"], r["n_invariant"], r["class_dim"], r["pair_degenerate"]) for r in p["strata"]]
    if p["count"] != len(rows):
        return f"count {p['count']} but {len(rows)} rows"
    return strata_problem(op["series"], op["dimension"], rows)


def _tables(op, p):
    got = [[r["d"], r["n"], r["star"], r["synthetic_id"]] for r in p["rows"]]
    if p["count"] != len(op["reps"]) or got != op["reps"]:
        return f"{len(got)} rows for {op['group']} char {op['char']}, atlas file has {len(op['reps'])}"
    return None


def _invert(op, p):
    labels = {int(v): bit for v, bit in p["labels"].items()} if "labels" in p else None
    parts = p["parts"]
    if sum(parts) != op["N"] or not S.in_family(op["family"], parts, labels):
        return f"preimage {parts} {labels} is not a weight-{op['N']} {op['family']} datum"
    return None


_PAYLOAD_CHECKS = {
    "phi_exc": _phi_exc,
    "phi_classical": _phi_classical,
    "classify": _classify,
    "enumerate": _enumerate,
    "tables": _tables,
    "invert": _invert,
}
