"""Special-function kernel: Bernoulli numbers, polygamma, Riemann zeta.

Everything here is double precision, apart from the exact Bernoulli
rationals, and self-contained.  The polygamma evaluator follows the
classical scheme: push the argument up by the recurrence

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

from .errors import DomainError, check_int

__all__ = ["bernoulli_numbers", "polygamma", "zeta_em", "zeta_odd"]

MAX_POLYGAMMA_ORDER = 64
_N_BERNOULLI = 122  # B_0 .. B_122; plenty for optimal truncation at z >= 16
_Z_CUT = 16.0  # where polygamma's upward recurrence hands over to the asymptotic series
_ZETA_CUT, _ZETA_TAIL_ORDERS = 32, 15  # zeta_em's direct-sum cut and Bernoulli tail length


def bernoulli_rationals(count: int = _N_BERNOULLI) -> tuple[tuple[int, int], ...]:
    """B_0 .. B_count exactly, each as (numerator, denominator) in lowest terms, with B_1 = -1/2.

    B_2k = (-1)^(k-1) 2k T_k / (4^k (4^k - 1)) from the tangent numbers T_k,
    built in integer arithmetic by the Brent-Harvey recurrence; the other
    odd ones vanish.  Integer pairs, not fractions.Fraction, whose import
    (it loads decimal) would cost every command ~6 ms.
    """
    n = count // 2
    T = [0, 1] + [0] * (n - 1)
    for k in range(2, n + 1):
        T[k] = (k - 1) * T[k - 1]
    for k in range(2, n + 1):
        for j in range(k, n + 1):
            T[j] = (j - k) * T[j - 1] + (j - k + 2) * T[j]
    B = [(1, 1), (-1, 2)] + [(0, 1)] * (count - 1)
    for k in range(1, n + 1):
        num, den = (-1) ** (k - 1) * 2 * k * T[k], 4**k * (4**k - 1)
        g = math.gcd(num, den)
        B[2 * k] = (num // g, den // g)
    return tuple(B[: count + 1])


@functools.lru_cache(maxsize=1)
def bernoulli_numbers(count: int = _N_BERNOULLI) -> tuple[float, ...]:
    """B_0 .. B_count, each the exact rational of :func:`bernoulli_rationals` rounded once to a double.

    Python's int / int is correctly rounded.
    """
    return tuple(num / den for num, den in bernoulli_rationals(count))


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


def polygamma(m: int, z: float) -> float:
    """psi^(m)(z) for z > 0 and order 0 <= m <= 64.

    The upward recurrence hands over to the asymptotic series at ``_Z_CUT``;
    with the cut moved to 32 the value must agree to ~1e-12 relative, which
    the test suite enforces as a self-check of both halves.
    """
    m = check_int("m", m, 0, MAX_POLYGAMMA_ORDER)
    if not z > 0:
        raise DomainError(f"z must be positive, got {z}")
    sign = 1.0 if m % 2 == 0 else -1.0
    fact_m = math.factorial(m)
    shift = 0.0
    zz = float(z)
    while zz < _Z_CUT:
        shift += sign * fact_m / zz ** (m + 1)
        zz += 1.0
    return _polygamma_asym(m, zz) - shift


def zeta_em(s: float) -> float:
    """Riemann zeta for real s > 1 by Euler-Maclaurin acceleration.

    Direct sum of the first ``_ZETA_CUT - 1`` terms plus the integral,
    midpoint and up to ``_ZETA_TAIL_ORDERS`` Bernoulli tail corrections at
    the cut.  The absolute error is below 1e-15 throughout s >= 1.1; against
    mpmath at 40 digits it is at most 5.4e-16 for s = 1.1, 1.5, 2, 3, 5 and 21.
    """
    if not s > 1:
        raise DomainError(f"require s > 1, got {s}")
    B = bernoulli_numbers()
    N = _ZETA_CUT
    parts = [float(k) ** -s for k in range(1, N)]
    parts.append(0.5 * float(N) ** -s)
    parts.append(float(N) ** (1.0 - s) / (s - 1.0))
    poch = s
    for j in range(1, _ZETA_TAIL_ORDERS + 1):
        if j > 1:
            poch *= (s + 2 * j - 3) * (s + 2 * j - 2)
        term = B[2 * j] / math.factorial(2 * j) * poch * float(N) ** (-s - 2 * j + 1)
        parts.append(term)
        if abs(term) < 1e-20:
            break
    return math.fsum(parts)


def zeta_odd(s: int) -> float:
    """zeta(s) at odd integers 3 <= s <= 81, absolute error <= 1e-15."""
    s = check_int("s", s, 3, 81)
    if s % 2 == 0:
        raise DomainError(f"s must be odd, got {s}")
    return zeta_em(float(s))
