"""Exception types shared across the package, and its one integer-argument check."""

import operator


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class SizeError(ValueError):
    """An argument is admissible in principle but exceeds a size guard."""


def check_int(name: str, value, lo: int | None = None, hi: int | None = None) -> int:
    """``value`` as a Python int if it is an integer in [lo, hi], a bound of None being open.

    Any value that ``operator.index`` accepts is an integer: numpy integer
    scalars and 0-d integer arrays included, ``bool`` and numpy's ``bool_``,
    floats and float or 1-d arrays excluded.  Anything else raises
    :class:`DomainError` naming the argument and its range.
    """
    n = None
    if not isinstance(value, bool):
        try:
            n = operator.index(value)
        except TypeError:
            pass
    if n is None or (lo is not None and n < lo) or (hi is not None and n > hi):
        span = f"[{'-inf' if lo is None else lo}, {'inf' if hi is None else hi}]"
        raise DomainError(f"{name} must be an integer in {span}, got {value!r}")
    return n
