"""Exception types shared across the package, its integer-argument check, its ring-length rule and two size guards.

The guards are :mod:`xxchain.exact`'s (it re-exports them); they live here
because the command line fences its arguments against them before any route
module loads.
"""

import operator

# Largest distance of the det route: a time guard for the O(x^2) Schur sweep
# and a size guard for the dense determinants of correlator_det and r_det.
MAX_DET_SIZE = 4096
# Largest ring length, distance and fit size the CLI accepts (finite-size
# --L-list, correlator --x-max, constants --n-fit and --x-fit-max); the log
# R_N tables they build grow linearly in it, in time and memory.  At the
# guard, finite-size --L-list 9999998 takes 0.29-0.33 s and 144 MB max RSS
# (0.31-0.37 s and 145 MB with --x-frac 0.9) on a 2-core Xeon VM: the median
# of 5 runs of the console script, in each of four sets.
MAX_RING_LENGTH = 10_000_000


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


def check_ring_length(L) -> int:
    """``L`` as a Python int if it is an even integer >= 6: the ring-length rule of every route."""
    n = check_int("L", L)
    if n < 6 or n % 2:
        raise DomainError(f"L must be an even integer >= 6, got {L!r}")
    return n
