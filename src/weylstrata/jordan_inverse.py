"""The weight-N members of a Jordan family: listed, counted, and the inverse map.

``enumerate_jordan`` generates the runs of every member directly, one run
at a time (``_place``), and ``count_jordan`` counts them by a dynamic
programme without listing them.

The inverse, ``invert_bijection``, reads the table of ``jordan``'s family
maps, ``_REPLACEMENTS``, backwards, parsing a bipartition left to right into
the strings of its preimage.  Its parse rows, ``_PARSE_ROWS``, are the
table's offsets regrouped by origin parity, built once at import.  It reads
``_rule`` once per call and builds the preimage from the parse's runs, then
checks it as a weight-N member whose runs are the parse's and whose
emitted entries, trimmed of trailing zeros, are the target.  The target's
excess is checked by the bound check behind ``partitions.has_excess``, on
the rule's trusted excess.
"""

from __future__ import annotations

from itertools import product

from .errors import ConsistencyError, DomainError
from .jordan import _REPLACEMENTS, JordanDatum, JordanFamily, Run, _datum, _emit, _is_eligible, _rule
from .jordan import _runs_if_member
from .partitions import Bipartition, _within_excess

# (family, N % 2) -> the rows _parse_runs reads, indexed by origin % 2: one
# (value % 2, string carries label 0, d1, d2) per offset of that origin.
_PARSE_ROWS = {
    key: [[(p, label0, *pair) for (p, label0, o), pair in offsets.items() if o == origin] for origin in (0, 1)]
    for key, (_, offsets) in _REPLACEMENTS.items()
}


def _listed_runs(family: JordanFamily, N: int) -> list[tuple[Run, ...]]:
    # The runs of every weight-N member, in the canonical order of
    # enumerate_jordan.
    _rule(family, N)
    out: list[tuple[Run, ...]] = []
    _place(family, N, N, 0, (), out)
    return out


def _place(family: JordanFamily, rem: int, cap: int, count: int, choices: tuple, out: list) -> None:
    # Places runs of total weight rem and values at most cap after the
    # `count` parts whose labelings are `choices` (one tuple per placed run),
    # and adds the runs of each member so completed to out.  Runs are placed
    # one at a time, each value below the last and each length from longest
    # to shortest, so base partitions come out lexicographically descending.
    # A run whose length breaks the parity rule is never placed, and a run of
    # 1s must use up the remaining weight, so only the family's even part
    # count is checked at the end.  A module-level function, not a closure
    # that calls itself, so a listing leaves no reference cycle behind.
    if rem == 0:
        if not (family.even_count and count % 2):
            out.extend(product(*choices))
        return
    paired, labeled = family.paired, family.labeled
    for v in range(min(cap, rem), 0, -1):
        step = 2 if v % 2 == paired else 1
        top = rem // v - (rem // v) % step
        for length in range(top, rem - 1 if v == 1 else 0, -step):
            if labeled and _is_eligible(v, length):
                labelings = ((v, length, 1), (v, length, 0))
            else:
                labelings = ((v, length, None),)
            _place(family, rem - v * length, v - 1, count + length, choices + (labelings,), out)


def enumerate_jordan(family: JordanFamily, N: int) -> tuple[JordanDatum, ...]:
    """All family members of weight N, in canonical order.

    Base partitions run lexicographically descending; for labeled families
    each base expands into its label assignments, values descending, label 1
    before label 0.  Members are generated run by run, so no partition
    outside the family is ever built.
    """
    return tuple(_datum(family, runs) for runs in _listed_runs(family, N))


def count_jordan(family: JordanFamily, N: int) -> int:
    """The number of weight-N family members, labelings included, without listing them.

    A dynamic programme over part values v = 1, 2, ..., N: ways[w][p] counts
    the members of weight w built from the values so far whose part count
    has parity p.  Taking m parts equal to v multiplies by 0 when the parity
    rule forbids m, by 2 when the m parts form a labeled run (labeled family,
    even v, positive even m), and by 1 otherwise.
    """
    _rule(family, N)
    paired, labeled = family.paired, family.labeled
    ways = [[1, 0]] + [[0, 0] for _ in range(N)]
    for v in range(1, N + 1):
        new = [[0, 0] for _ in range(N + 1)]
        for w, (even, odd) in enumerate(ways):
            if not (even or odd):
                continue
            for m in range((N - w) // v + 1):
                if m % 2 and v % 2 == paired:
                    continue
                factor = 2 if labeled and _is_eligible(v, m) else 1
                row = new[w + m * v]
                row[m % 2] += factor * even
                row[1 - m % 2] += factor * odd
        ways = new
    even, odd = ways[N]
    return even if family.even_count else even + odd


def _parse_runs(family: JordanFamily, N: int, t: Bipartition) -> list[list[Run]]:
    # Up to two run lists (value, length, label or None) whose rewrites give t,
    # for a weight N that _rule accepts.  A parse state is (position, previous
    # value, remaining weight); it keeps at most two partial parses, each a
    # tuple of its runs in order.  Every run advances the position, so states
    # settle position by position.  Entries past the end of t are implicit
    # zeros.
    rows = _PARSE_ROWS[family, N & 1]
    paired, even_count, labeled = family.paired, family.even_count, family.labeled
    n = len(t)
    layers: dict[int, dict[tuple[int, int], list]] = {0: {(N + 1, N): [()]}}
    found: list = []
    i = 0
    while layers and len(found) < 2:
        x, origin_rows = (t[i] if i < n else 0), rows[(i + 1) & 1]
        for (prev, rem), parses in layers.pop(i, {}).items():
            if rem == 0:
                if i >= n and not (even_count and i & 1):
                    found += parses
                continue
            for parity, label0, d1, d2 in origin_rows:
                a = x - d1
                v = 2 * a + parity
                if not 0 < v < prev or v > rem:
                    continue
                # the run's entries alternate a + d1, which is x, and a + d2
                stop, e2, j = i + rem // v, a + d2, i
                while j < stop and (t[j] if j < n else 0) == (e2 if (j - i) & 1 else x):
                    j += 1
                    length = j - i
                    if length & 1 and parity == paired:
                        continue  # this value parity needs an even run length
                    eligible = labeled and _is_eligible(v, length)
                    if label0 and not eligible:
                        continue
                    label = (0 if label0 else 1) if eligible else None
                    state = layers.setdefault(j, {}).setdefault((v, rem - length * v), [])
                    for p in parses[: 2 - len(state)]:
                        state.append(p + ((v, length, label),))
        i += 1
    return [list(p) for p in found[:2]]


def invert_bijection(family: JordanFamily, N: int, target: Bipartition) -> JordanDatum:
    """The unique weight-N preimage of a bipartition under the family's map.

    The target is parsed left to right one run at a time by reading
    ``_REPLACEMENTS`` backwards, through parse rows built from it once at
    import; parses that reach the same position, previous value and
    remaining weight are merged, so the cost grows with the target's length
    and the table, not with the number of partitions of N.  A target outside
    the codomain raises a DomainError with the code no_preimage.  Inside it,
    no parse would falsify surjectivity and two parses injectivity; either
    raises a ConsistencyError.  The one parse is checked as it stands: its
    values must strictly descend, the datum built from it must be a weight-N
    member whose runs are the parse's, and the entries its runs emit,
    trimmed of trailing zeros, must be the target; a failure raises a
    ConsistencyError too.  The target is a checked codomain element, so
    entries equal to it are a valid image.
    """
    rule = _rule(family, N)
    bp = target if isinstance(target, Bipartition) else Bipartition(target)
    excess, half = rule[1:3]
    if sum(bp) != half or not _within_excess(bp, excess):
        raise DomainError(
            f"{tuple(bp)} lies outside the image of weight-{N} {family.value} data "
            f"(expected weight {half}, excess {tuple(excess)})",
            code="no_preimage",
        )
    parses = _parse_runs(family, N, bp)
    if not parses:
        raise ConsistencyError(
            f"surjectivity failed: no weight-{N} {family.value} datum maps to {tuple(bp)}"
        )
    if len(parses) > 1:
        raise ConsistencyError(
            f"injectivity failed: {len(parses)} weight-{N} {family.value} data map "
            f"to {tuple(bp)}: {[str(_datum(family, runs)) for runs in parses]}"
        )
    runs = parses[0]
    nu = _datum(family, runs)
    # the parse's first value is at most N, the bound _parse_runs starts from
    last = N + 1
    for v, _, _ in runs:
        if not 0 < v < last:
            break
        last = v
    else:
        if _runs_if_member(family, nu) == runs and nu.weight == N:
            entries = _emit(rule, runs)
            while entries and not entries[-1]:
                entries.pop()
            if tuple(entries) == bp:
                return nu
            raise ConsistencyError(
                f"the {family.value} inverse parsed {tuple(bp)} as {nu}, "
                "which does not map back to it"
            )
    raise ConsistencyError(
        f"the {family.value} inverse parsed {tuple(bp)} as {nu}, which is not a weight-{N} member"
    )
