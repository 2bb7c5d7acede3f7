"""Special-function kernel: Bernoulli numbers, polygamma, Riemann zeta.

Everything here is double precision and self-contained.  The polygamma
evaluator follows the classical scheme: push the argument up by the
recurrence

    psi^(m)(z) = psi^(m)(z+1) - (-1)^m m! / z^(m+1)

until it clears a switchover point, then apply the asymptotic (Bernoulli)
series obtained by differentiating

    psi(z) ~ ln z - 1/(2z) - sum_{n>=1} B_{2n} / (2n z^{2n})

m times.  The series is summed with optimal truncation (stop at the
smallest term), which keeps it both safe and near machine accuracy for the
orders used in this package.
"""

from __future__ import annotations

import functools
import math

from .errors import DomainError

__all__ = ["bernoulli_numbers", "polygamma", "zeta_em", "zeta_odd"]

MAX_POLYGAMMA_ORDER = 64
_N_BERNOULLI = 122  # B_0 .. B_122; plenty for optimal truncation at z >= 16


@functools.lru_cache(maxsize=1)
def bernoulli_numbers(count: int = _N_BERNOULLI) -> tuple[float, ...]:
    """B_0 .. B_count, each an exact rational rounded once to a double.

    B_2k = (-1)^(k-1) 2k T_k / (4^k (4^k - 1)) from the tangent numbers T_k,
    built in integer arithmetic by the Brent-Harvey recurrence; B_1 = -1/2
    and the other odd ones vanish.  Python's int / int is correctly rounded.
    """
    n = count // 2
    T = [0, 1] + [0] * (n - 1)
    for k in range(2, n + 1):
        T[k] = (k - 1) * T[k - 1]
    for k in range(2, n + 1):
        for j in range(k, n + 1):
            T[j] = (j - k) * T[j - 1] + (j - k + 2) * T[j]
    B = [1.0, -0.5] + [0.0] * (count - 1)
    for k in range(1, n + 1):
        B[2 * k] = (-1) ** (k - 1) * 2 * k * T[k] / (4**k * (4**k - 1))
    return tuple(B[: count + 1])


def _polygamma_asym(m: int, z: float) -> float:
    """Asymptotic series for psi^(m)(z), valid once z is large enough."""
    B = bernoulli_numbers()
    inv_z2 = 1.0 / (z * z)
    if m == 0:
        val = math.log(z) - 0.5 / z
        u = inv_z2
        prev = math.inf
        for n in range(1, _N_BERNOULLI // 2):
            term = B[2 * n] / (2 * n) * u
            if abs(term) >= prev:
                break
            val -= term
            prev = abs(term)
            u *= inv_z2
        return val
    sign = -1.0 if m % 2 == 0 else 1.0
    base = math.factorial(m - 1) / z**m + math.factorial(m) / (2.0 * z ** (m + 1))
    # u_n = (2n+m-1)!/(2n)! * z^-(2n+m), updated iteratively to avoid
    # forming huge intermediate powers
    u = z ** (-m) * inv_z2
    for q in range(3, m + 2):
        u *= q
    acc = 0.0
    prev = math.inf
    for n in range(1, _N_BERNOULLI // 2):
        term = B[2 * n] * u
        if abs(term) >= prev:
            break
        acc += term
        prev = abs(term)
        u *= (2 * n + m + 1) * (2 * n + m) / ((2 * n + 2) * (2 * n + 1)) * inv_z2
    return sign * (base + acc)


def polygamma(m: int, z: float, z_cut: float = 16.0) -> float:
    """psi^(m)(z) for z > 0 and order 0 <= m <= 64.

    ``z_cut`` is where the upward recurrence hands over to the asymptotic
    series; two calls with different cuts must agree to ~1e-12 relative,
    which the test suite enforces as a self-check of both halves.
    """
    if not isinstance(m, int) or isinstance(m, bool) or not 0 <= m <= MAX_POLYGAMMA_ORDER:
        raise DomainError(f"order must be an integer in [0, {MAX_POLYGAMMA_ORDER}], got {m!r}")
    if not z > 0:
        raise DomainError(f"z must be positive, got {z}")
    if not z_cut >= 8.0:
        raise DomainError(f"z_cut must be >= 8, got {z_cut}")
    sign = 1.0 if m % 2 == 0 else -1.0
    fact_m = math.factorial(m)
    shift = 0.0
    zz = float(z)
    while zz < z_cut:
        shift += sign * fact_m / zz ** (m + 1)
        zz += 1.0
    return _polygamma_asym(m, zz) - shift


def zeta_em(s: float, n_terms: int = 32, tail_orders: int = 15) -> float:
    """Riemann zeta for real s > 1 by Euler-Maclaurin acceleration.

    Direct sum of the first ``n_terms - 1`` terms plus the integral,
    midpoint and Bernoulli tail corrections at the cut.  With the defaults
    the absolute error is below 1e-15 throughout s >= 1.1.
    """
    if not s > 1:
        raise DomainError(f"require s > 1, got {s}")
    B = bernoulli_numbers()
    N = n_terms
    parts = [float(k) ** -s for k in range(1, N)]
    parts.append(0.5 * float(N) ** -s)
    parts.append(float(N) ** (1.0 - s) / (s - 1.0))
    poch = s
    for j in range(1, tail_orders + 1):
        if j > 1:
            poch *= (s + 2 * j - 3) * (s + 2 * j - 2)
        term = B[2 * j] / math.factorial(2 * j) * poch * float(N) ** (-s - 2 * j + 1)
        parts.append(term)
        if abs(term) < 1e-20:
            break
    return math.fsum(parts)


def zeta_odd(s: int) -> float:
    """zeta(s) at odd integers 3 <= s <= 81, absolute error <= 1e-15."""
    if not isinstance(s, int) or isinstance(s, bool):
        raise DomainError(f"s must be an integer, got {s!r}")
    if s % 2 == 0 or not 3 <= s <= 81:
        raise DomainError(f"s must be odd and in [3, 81], got {s}")
    return zeta_em(float(s))
