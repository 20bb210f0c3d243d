"""Every public callable, called with raw values in every argument position.

Each callable of ``weylstrata._MODULE_OF`` gets each value of VALUES in
each positional parameter, with every other parameter holding one value of
VALUES too (the same one in all of them).  Each call must return, or raise
a DomainError with a code other than the base "error", within a second.
"""

import copy
import enum
import inspect
import signal
import time

import pytest

import weylstrata
from weylstrata.errors import DomainError

HUGE = 10**30
# ints, floats, bools, strings (some of them names and entries the library reads), None, lists, a huge int
VALUES = (0, 1, -1, 4, 2.0, float("inf"), True, "", "Sp", "E8", "2,1", "A_1", None, [], [2, 1], HUGE)

# the weight, rank or dimension parameter of each listing and count: a huge
# int there asks for an answer of that size, which is its cost, not a defect
SIZE_POSITION = {
    "enumerate_partitions": 0,
    "enumerate_bipartitions": 0,
    "count_bipartitions": 0,
    "n_invariant_set": 0,
    "enumerate_jordan": 1,
    "count_jordan": 1,
}


class _Overran(BaseException):
    """Raised by the alarm in a call that runs past its bound; no library handler catches it."""


def _overran(signum, frame):
    raise _Overran


def _public_callables():
    # The exception classes are left out: calling one builds an error, it
    # refuses nothing.  So is each enum's own value lookup (Series(5)): it
    # is Python's Enum, whose ValueError the library does not word.
    for name in weylstrata._MODULE_OF:
        value = getattr(weylstrata, name)
        if isinstance(value, type) and issubclass(value, (BaseException, enum.Enum)):
            continue
        yield name, value


def _calls(name, func):
    params = [
        p for p in inspect.signature(func).parameters.values()
        if p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)
    ]
    picks = {()} if not params else {
        tuple(v if j == i else w for j in range(len(params)))
        for i in range(len(params)) for v in range(len(VALUES)) for w in range(len(VALUES))
    }
    for pick in sorted(picks):
        args = [VALUES[k] for k in pick]
        if name in SIZE_POSITION and args[SIZE_POSITION[name]] is HUGE:
            continue
        # the whole suite on the packaged tables is the suite's answer, run by test_acceptance
        if name == "run_suite" and args == [None, None]:
            continue
        yield args


@pytest.mark.parametrize("name, func", [pytest.param(name, func, id=name) for name, func in _public_callables()])
def test_every_call_returns_or_refuses_with_a_code(name, func):
    previous = signal.signal(signal.SIGALRM, _overran)
    try:
        for args in _calls(name, func):
            shown = f"{name}({', '.join(map(repr, args))})"
            start = time.perf_counter()
            # a call that never returns is stopped a little past the bound
            signal.setitimer(signal.ITIMER_REAL, 2.0)
            try:
                func(*copy.deepcopy(args))
            except DomainError as err:
                assert err.code != "error", f"{shown} raised a DomainError without its own code: {err}"
            except Exception as err:
                pytest.fail(f"{shown} raised {type(err).__name__}: {err}")
            except _Overran:
                pytest.fail(f"{shown} ran for 2 s")
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            assert time.perf_counter() - start < 1.0, f"{shown} took a second or more"
    finally:
        signal.signal(signal.SIGALRM, previous)


def test_the_table_covers_every_public_callable():
    names = {name for name, _ in _public_callables()}
    left_out = set(weylstrata._MODULE_OF) - names
    assert left_out == {
        "ConsistencyError", "DomainError", "StrataError", "JordanFamily", "OrbitKind", "Series", "WeylSeries",
    }
    assert set(SIZE_POSITION) <= names
