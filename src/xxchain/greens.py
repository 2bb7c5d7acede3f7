"""Free-fermion two-point function on a periodic ring at half filling.

The kernel computed here,

    G0(x) = sin(pi x / 2) / (L sin(pi x / L)),      G0(x) -> sin(pi x / 2) / (pi x)  as L -> oo,

is the building block of every determinant representation of the spin-spin
correlator.  It is only valid on rings whose half filling M = L/2 is an odd
integer (equivalently L = 2 mod 4): for those rings the fermion momenta are
integer multiples of 2 pi / L, filled symmetrically around the band minimum,
and the Dirichlet kernel collapses to the closed form above.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, check_int

__all__ = ["LatticeSpec", "INFINITE", "g0"]


@dataclass(frozen=True)
class LatticeSpec:
    """A finite periodic ring of even length, or the thermodynamic limit.

    Parameters
    ----------
    length : int or None
        Number of sites; ``None`` selects the infinite chain.

    Notes
    -----
    Finite lengths must satisfy L >= 6, L even and M = L/2 odd.  Rings with
    M even are rejected outright: the closed formulas implemented downstream
    hold only in the M-odd sector.
    """

    length: int | None = None

    def __post_init__(self):
        L = self.length
        if L is None:
            return
        L = check_int("L", L, 6)
        object.__setattr__(self, "length", L)
        if L % 2 != 0 or (L // 2) % 2 != 1:
            raise DomainError(f"L must satisfy L/2 odd, got L={L}")

    @classmethod
    def finite(cls, L: int) -> "LatticeSpec":
        return cls(L)

    @property
    def is_finite(self) -> bool:
        return self.length is not None

    def __str__(self) -> str:
        return "inf" if self.length is None else str(self.length)


INFINITE = LatticeSpec(None)


def g0(x: int, lattice: LatticeSpec = INFINITE) -> float:
    """Green function G0(x) at integer separation x.

    Returns the analytic limit 1/2 at x = 0 (the half-filling density) and
    exactly 0 at every other even separation.  The argument is taken as |x|,
    by g0(-x) = g0(x); on a finite ring, where -L < x < L, it is then folded
    into [0, L/2] by g0(L - x) = g0(x) (which requires M odd), so the sine in
    the denominator is always evaluated at an argument <= pi/2.
    """
    L = lattice.length
    x = check_int("x", x, 1 - L, L - 1) if lattice.is_finite else check_int("x", x)
    n = abs(x)
    if lattice.is_finite:
        n = min(n, L - n)
    if n == 0:
        return 0.5
    if n % 2 == 0:
        return 0.0
    sign = 1.0 if n % 4 == 1 else -1.0
    return sign / (L * math.sin(math.pi * n / L) if lattice.is_finite else math.pi * n)
