"""Low-energy predictions: Luttinger parameters, zero-mode energies, correlator forms.

The finite-ring functional form

    G(x) = C0 (-1)^x / (L sin(pi x / L))^alpha

and its two-term thermodynamic limit

    G(x) ~ (C0 / sqrt(pi)) ( (-1)^x x^(-1/2) - (1/8) x^(-5/2) )

are parametrized by :class:`AsymptoticParams`; the exponent alpha = xi/2 is
carried explicitly so the same comparison machinery can probe other values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .errors import DomainError, check_int, check_ring_length

__all__ = [
    "LuttingerParams",
    "AsymptoticParams",
    "AsymptoticPair",
    "luttinger_from_lambda",
    "finite_size_energy",
    "asym_finite",
    "asym_infinite",
]


@dataclass(frozen=True)
class LuttingerParams:
    """Renormalized velocity u, stiffness xi, and the equivalent (eta, Delta)."""

    lam: float
    u: float
    xi: float
    eta: float
    delta: float

    @property
    def alpha(self) -> float:
        """Leading critical exponent, alpha = xi / 2."""
        return self.xi / 2.0


@dataclass(frozen=True)
class AsymptoticParams:
    """Exponent, amplitude and subleading coefficient of the correlator asymptotics."""

    alpha: float
    c0: float
    sub_coeff: float | None = None

    def __post_init__(self):
        if not self.alpha > 0:
            raise DomainError(f"alpha must be positive, got {self.alpha}")
        if not self.c0 > 0:
            raise DomainError(f"c0 must be positive, got {self.c0}")
        if self.sub_coeff is None:
            object.__setattr__(self, "sub_coeff", -self.c0 / (8.0 * math.sqrt(math.pi)))


class AsymptoticPair(NamedTuple):
    leading: float
    two_term: float


def luttinger_from_lambda(lam: float) -> LuttingerParams:
    """Parameters of the gapless low-energy theory at coupling |lambda| < 1.

    u = sqrt(1 - lambda^2), xi = sqrt((1 + lambda)/(1 - lambda)); eta and
    Delta = cos(eta) are filled in by inverting xi = 2 (pi - eta) / pi.
    """
    if not -1.0 < lam < 1.0:
        raise DomainError(f"require |lambda| < 1 (gapless regime), got {lam}")
    u = math.sqrt(1.0 - lam * lam)
    xi = math.sqrt((1.0 + lam) / (1.0 - lam))
    eta = math.pi * (1.0 - xi / 2.0)
    return LuttingerParams(lam=lam, u=u, xi=xi, eta=eta, delta=math.cos(eta))


def finite_size_energy(dn: int, dq: int, params: LuttingerParams, L: int) -> float:
    """Zero-mode energy shift (pi/2L) u [ xi dN^2 + (1/xi) dQ^2 ], at velocity u.

    H = 1/2 sum (sx sx + sy sy) is in Pauli matrices, so v = 2: its M +- 1 gap is twice the value at u = 1.
    """
    L = check_int("L", L, 1)
    return (math.pi / (2.0 * L)) * params.u * (params.xi * dn * dn + dq * dq / params.xi)


def asym_finite(x: int, L: int, params: AsymptoticParams) -> float:
    """Finite-ring prediction C0 (-1)^x (L sin(pi x / L))^(-alpha), on a ring of the routes' rule: even L >= 6."""
    L = check_ring_length(L)
    x = check_int("x", x, 1, L - 1)
    sign = 1.0 if x % 2 == 0 else -1.0
    return params.c0 * sign * (L * math.sin(math.pi * x / L)) ** (-params.alpha)


def asym_infinite(x: int, params: AsymptoticParams) -> AsymptoticPair:
    """Leading and two-term infinite-chain predictions at separation x >= 1.

    The subleading term carries no staggering: it deepens odd-x values and
    shaves even-x ones.
    """
    x = check_int("x", x, 1)
    sign = 1.0 if x % 2 == 0 else -1.0
    leading = (params.c0 / math.sqrt(math.pi)) * sign * x**-0.5
    return AsymptoticPair(leading=leading, two_term=leading + params.sub_coeff * x**-2.5)
