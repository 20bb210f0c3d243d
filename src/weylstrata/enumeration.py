"""Listing and counting the weight-n bipartitions of an excess.

One transition rule, ``_children``, serves both.  A state of the walk is
the weight left to place, the largest entry allowed, the previous entry and
the two slacks in the order they come; each entry a state allows leads to
one child state.  ``_enumerate`` lists every sequence, lexicographically
descending: it walks the states depth first, and below a small state, one
with at most ``_SHARED_WEIGHT`` left or its entry capped at 2 (the long runs
of 2s and 1s in a partition), it lists the state's completions once per
call and shares them with every prefix that reaches the state.
``_tally`` counts the same sequences and collects their n-invariants
without listing them, memoizing each state's count and n-invariant mask.
Each memo is a dict local to one call, freed on return.
"""

from __future__ import annotations

from .errors import _check_size
from .partitions import Bipartition, Excess, Partition, _as_excess


def _start(n: int, x) -> tuple:
    # the first state of a weight-n listing or count of excess x, after
    # checking both: the first entry is capped by n alone, and the climb from
    # it to the second entry uses e
    ex = _as_excess(x)
    _check_size(n, "weight", "bad_weight")
    return n, n, n, ex.e_prime, ex.e


# a state with at most this much weight left, or with its entry capped at 2
# (the long runs of 2s and 1s in a partition), has its completions listed
# once per call and shared by every prefix that reaches it
_SHARED_WEIGHT = 10


def _children(remaining: int, top: int, prev: int, slack: int, next_slack: int) -> list[tuple]:
    """The states after each entry a state allows, largest entry first.

    A state is the weight left, the largest entry allowed, the previous entry
    and the two slacks in the order they come; an entry is the weight left
    less the weight its child state has left.  An entry v leaves rest; the
    next entry is capped by the value two positions back (its track), by v
    plus the next slack and by rest, since capping at the weight left changes
    no completion and keeps the states few.  A zero is allowed only when the
    entry after it may be positive (its slack and the entry two back from it
    are both positive): two adjacent zeros end both tracks with weight still
    to place, so this prunes exactly the dead branches and bounds the length
    by 2n.
    """
    out = []
    for v in range(top, -1 if next_slack and prev else 0, -1):
        rest = remaining - v
        out.append((rest, min(rest, prev, v + next_slack), min(v, rest), next_slack, slack))
    return out


def _tails(state: tuple, memo: dict) -> list:
    # every completion of a state, lexicographically descending
    remaining = state[0]
    if not remaining:
        return [()]
    got = memo.get(state)
    if got is None:
        got = memo[state] = [
            (remaining - child[0],) + tail for child in _children(*state) for tail in _tails(child, memo)
        ]
    return got


def _enumerate(n: int, x, cls: type) -> tuple:
    """All weight-n sequences of excess x as `cls`, lexicographically descending.

    The walk takes the states of `_children` depth first, each with the
    prefix placed before it.  It stops at a small state, one with at most
    `_SHARED_WEIGHT` left or its entry capped at 2, and builds each sequence
    once as prefix + completion.  The completions of every small state, and
    of the states below it, are listed once in a dict local to this call;
    nothing refers back to the dict, so it is freed on return and nothing
    outlives the call.
    """
    out, memo, make = [], {}, tuple.__new__
    stack = [((), _start(n, x))]
    while stack:
        prefix, state = stack.pop()
        if state[0] <= _SHARED_WEIGHT or state[1] <= 2:
            out += [make(cls, prefix + tail) for tail in _tails(state, memo)]  # valid by construction
        else:
            stack += [(prefix + (state[0] - child[0],), child) for child in reversed(_children(*state))]
    return tuple(out)


def _tally(state: tuple, memo: dict) -> tuple[int, int]:
    # (count, n-invariant mask) of a state's completions, the sequences that
    # _enumerate lists from it.  Bit k of the mask is set when some completion
    # adds k to the n-invariant: an entry that leaves `rest` to place adds
    # rest, so the child state's mask is shifted by it.  The memo is a dict
    # local to one call from _start; nothing refers back to it, so it is freed
    # on return and nothing outlives the call.
    if not state[0]:
        return 1, 1
    count = mask = 0
    for child in _children(*state):
        got = memo.get(child)
        if got is None:
            got = _tally(child, memo)
        count += got[0]
        mask |= got[1] << child[0]
    memo[state] = count, mask
    return count, mask


def count_bipartitions(n: int, x) -> int:
    """len(enumerate_bipartitions(n, x)), by a DP that lists nothing."""
    return _tally(_start(n, x), {})[0]


def n_invariant_set(n: int, x) -> frozenset[int]:
    """The n-invariants over the weight-n bipartitions of excess x, listing none."""
    mask = _tally(_start(n, x), {})[1]
    return frozenset(k for k in range(mask.bit_length()) if mask >> k & 1)


def enumerate_partitions(n: int) -> tuple[Partition, ...]:
    """All partitions of n, lexicographically descending."""
    return _enumerate(n, Excess(0, 0), Partition)


def enumerate_bipartitions(n: int, x) -> tuple[Bipartition, ...]:
    """All weight-n bipartitions with excess x, lexicographically descending."""
    return _enumerate(n, x, Bipartition)
