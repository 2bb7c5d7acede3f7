"""Free-fermion two-point function on a periodic ring at half filling.

The kernel computed here,

    G0(x) = sin(pi x / 2) / (L sin(pi x / L)),      G0(x) -> sin(pi x / 2) / (pi x)  as L -> oo,

is the building block of every determinant representation of the spin-spin
correlator.  It holds on every even ring, L >= 6: M = L/2 fermions fill
momenta symmetrically around the band minimum, integer multiples of 2 pi / L
for M odd and half-odd ones for M even, and either way the Dirichlet kernel
collapses to the closed form above.  That form is periodic across the ring
for M odd and antiperiodic for M even: G0(x + L) = (-1)^(M+1) G0(x).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import check_int, check_ring_length

__all__ = ["LatticeSpec", "INFINITE", "g0"]


@dataclass(frozen=True)
class LatticeSpec:
    """A finite periodic ring of even length L >= 6, M = L/2 odd or even, or the thermodynamic limit.

    Parameters
    ----------
    length : int or None
        Number of sites; ``None`` selects the infinite chain.
    """

    length: int | None = None

    def __post_init__(self):
        if self.length is not None:
            object.__setattr__(self, "length", check_ring_length(self.length))

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
    by g0(-x) = g0(x).  On a finite ring, where -L < x < L, the denominator
    folds n = |x| into [0, L/2] by sin(pi (L - n)/L) = sin(pi n/L), so its
    sine is always evaluated at an argument <= pi/2.  The sign stays that of
    the unfolded n, so the fold carries g0(L - x) = (-1)^(M+1) g0(x) at odd x.
    """
    L = lattice.length
    x = check_int("x", x, 1 - L, L - 1) if lattice.is_finite else check_int("x", x)
    n = abs(x)
    if n == 0:
        return 0.5
    if n % 2 == 0:
        return 0.0
    sign = 1.0 if n % 4 == 1 else -1.0
    return sign / (L * math.sin(math.pi * min(n, L - n) / L) if lattice.is_finite else math.pi * n)
