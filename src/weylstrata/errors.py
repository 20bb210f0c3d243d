"""Error hierarchy shared by every module.

Two failure modes are kept apart on purpose.  DomainError means the caller
handed us something outside an operation's domain; it maps to exit code 1 in
the command-line tool.  ConsistencyError means the library itself derived
something that contradicts a structural guarantee (a uniqueness claim, a
nonnegativity claim, a bijectivity claim); it maps to exit code 3 and should
be treated as a falsified theorem, not a usage mistake.

The module also holds the rules that the classical and the exceptional
side share.  The integer gate, ``_check_int(n, noun, code)``, accepts an
int that is not a bool and refuses anything else with the given code
("{noun} must be an integer, got ..."); ``_check_size`` then refuses a
negative one ("{noun} must be nonnegative, got ...").  The records, the
listings and the Jordan maps read their integer arguments through them.
``check_characteristic`` accepts an integer that is 0 or a prime and
refuses anything else with the code bad_characteristic.
``unique_minimizer`` is the one cross-section rule: a fiber's cross-section
is its unique class of least fixed-space dimension, and a tie raises a
ConsistencyError with the code cross_section_tie.

``Record`` is the base of the package's immutable value records; each
record class gets a ``_fill`` that writes its slots, generated from its
``__slots__`` when the class is created.
"""

from functools import partial
from operator import attrgetter


class StrataError(Exception):
    """Common base so callers can catch everything from this package at once."""

    code = "error"

    def __init__(self, message: str, *, code: str | None = None):
        super().__init__(message)
        if code is not None:
            self.code = code

    def __reduce__(self):
        # copy and pickle rebuild the error with its code, which DomainError requires
        return partial(type(self), code=self.code), self.args, self.__dict__


class DomainError(StrataError, ValueError):
    """Input outside the documented domain of an operation; every refusal names its own code."""

    def __init__(self, message: str, *, code: str):
        super().__init__(message, code=code)


class ConsistencyError(StrataError, RuntimeError):
    """A structural guarantee failed to hold on valid input."""

    code = "consistency_error"


def unique_minimizer(items, keys, where):
    """The one item of least key; a tie raises ConsistencyError(cross_section_tie).

    ``keys`` is the list of the items' fixed-space dimensions, in item order.
    ``where()`` names the fiber in the message, and is called only on a tie.
    """
    best = min(keys)
    winners = [item for item, key in zip(items, keys) if key == best]
    if len(winners) != 1:
        raise ConsistencyError(
            f"cross-section not unique {where()}: {', '.join(map(str, winners))} "
            f"all have fixed-space dimension {best}",
            code="cross_section_tie",
        )
    return winners[0]


class Record:
    """An immutable record whose fields are slots; a subclass writes its own __init__.

    The fields are ``_fields``, the ``__slots__`` whose names do not start
    with an underscore: such a hidden slot is seen by no comparison, hash or
    repr.  Records are equal only to records of their own class with equal
    fields, and hash as the tuple of their fields.  ``_fill(self, *values)``
    takes one value per slot, in slot order, writes each past the frozen
    ``__setattr__`` through the slot's own setter, and returns the record:
    every ``__init__`` calls it once, and hot paths call it on a record
    built with ``object.__new__``.  Afterwards assignment and deletion raise
    AttributeError.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        cls._fields = tuple(name for name in cls.__slots__ if name[0] != "_")
        # every record has at least two fields, so this returns a tuple
        cls._values = attrgetter(*cls._fields)
        # one straight-line setter call per slot, generated as namedtuple does,
        # from this class's own slot names only, never from input: a loop over
        # the setters costs much more (a 4-slot record on an Intel Xeon under
        # CPython 3.11: about 820 ns looped, 500 ns generated, 485 ns by hand)
        scope = {f"set_{name}": cls.__dict__[name].__set__ for name in cls.__slots__}
        calls = "".join(f"set_{name}(self, {name}); " for name in cls.__slots__)
        exec(f"def _fill(self, {', '.join(cls.__slots__)}): {calls}return self", scope)
        cls._fill = scope["_fill"]

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._values(self) == self._values(other)

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({shown})"

    def _frozen(self, name, *value):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __setattr__ = __delattr__ = _frozen

    def __setstate__(self, state):
        # copy and pickle restore the slots here, past __setattr__
        for name, value in state[1].items():
            object.__setattr__(self, name, value)


# Miller-Rabin with the first thirteen prime bases decides primality exactly
# below this bound, the least strong pseudoprime to all of them (Sorenson and
# Webster); twelve bases stop short at 318665857834031151167461.
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_BOUND = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for q in _PRIME_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _PRIME_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _check_int(n, noun: str, code: str) -> None:
    # the integer gate: an int passes on one type test, a bool or any other type is refused
    if type(n) is not int and (isinstance(n, bool) or not isinstance(n, int)):
        raise DomainError(f"{noun} must be an integer, got {n!r}", code=code)


def _check_size(n, noun: str, code: str) -> None:
    # the integer gate, then nonnegative
    _check_int(n, noun, code)
    if n < 0:
        raise DomainError(f"{noun} must be nonnegative, got {n}", code=code)


def check_characteristic(p: int) -> int:
    """p itself when it is 0 or a prime; otherwise a bad_characteristic error.

    The integer gate comes first, so a bool or any other type is refused
    before primality is tested.
    """
    _check_int(p, "characteristic", "bad_characteristic")
    if p >= _PRIME_BOUND:
        raise DomainError(
            f"characteristic {p} is too large: primality is decided exactly only "
            f"below {_PRIME_BOUND}",
            code="bad_characteristic",
        )
    if p == 0 or _is_prime(p):
        return p
    raise DomainError(
        f"characteristic must be 0 or a prime, got {p}", code="bad_characteristic"
    )
