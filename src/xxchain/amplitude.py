"""Large-N asymptotics of R_N and the correlator amplitude, by independent routes.

The object of interest is the limit

    ln B = lim_{N -> oo} ( ln R_N + 1/4 ln N ),

reached here four separate ways: the exact polygamma rewriting of ln R_N
(:func:`log_r_series`), the integral representation (:func:`lukyanov_integral`),
the gamma-function product (:func:`log_r_gamma_product`, equivalently the
Barnes-G telescoping of :func:`log_r_barnes`), and a direct Richardson fit of
the sine product itself.  From B the leading correlator amplitude follows as
C0 = sqrt(pi) B^2 / sqrt(2), and an independent Glaisher-constant route pins
the same number through zeta'(-1).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields

import numpy as np

from .asymptotics import AsymptoticParams
from .errors import DomainError, check_int
from .exact import log_r_table
from .greens import INFINITE
from .special import bernoulli_rationals, polygamma, zeta_em

__all__ = [
    "ConstantsReport",
    "log_r_series",
    "lukyanov_integral",
    "log_r_gamma_product",
    "log_r_barnes",
    "glaisher",
    "amplitude_report",
    "first_term_comparison",
    "asymptotic_params",
]

_P_MAX = 30          # 4^-p decay puts the p-series below 1e-18 by here
_P_TOL = 1e-18

# amplitude_report's and the CLI's defaults; asymptotic_params' C0 is the report's at N_FIT
N_FIT = 10000
X_FIT_MAX = 2000


@dataclass(frozen=True)
class ConstantsReport:
    """All computed constants plus the spread between the ln B routes."""

    ln_b_series: float
    ln_b_integral: float
    ln_b_gamma_product: float
    ln_b_fit: float
    glaisher_a: float
    zeta_prime_minus1: float
    c0: float
    amplitude_half: float
    lukyanov_integral: float
    sub_coeff_fitted: float
    pairwise_max_dev: float

    def as_dict(self) -> dict[str, float]:
        return {f.name: getattr(self, f.name) for f in fields(self)}


@functools.lru_cache(maxsize=1)
def _first_term() -> float:
    """N-independent term of the polygamma rewriting: sum over psi^(2p-2)(1).

    Evaluated once and cached; read-only afterwards.
    """
    parts = []
    for p in range(1, _P_MAX + 1):
        t = (0.25**p) / p * polygamma(2 * p - 2, 1.0) / math.factorial(2 * p - 2)
        parts.append(t)
        if abs(t) < _P_TOL:
            break
    return math.fsum(parts)


def log_r_series(N: int) -> float:
    """ln R_N on the infinite chain from the exact polygamma rewriting.

    ln R_N =   sum_p (1/p) 4^-p psi^(2p-2)(1) / (2p-2)!
             - N sum_p (1/p) 4^-p psi^(2p-1)(N) / (2p-1)!
             -   sum_p (1/p) 4^-p psi^(2p-2)(N) / (2p-2)!

    The rewriting is an identity, not an asymptotic: against mpmath's
    Barnes G form at 40 digits the absolute error is at most 5.8e-16 for
    N = 2, 3, 5, 10, 100, 1e3, 5000 and 1e4.  The p-series is cut when the
    running term drops below 1e-18.
    """
    N = check_int("N", N, 2)
    zN = float(N)
    parts = []
    for p in range(1, _P_MAX + 1):
        c = (0.25**p) / p
        w2 = N * c * polygamma(2 * p - 1, zN) / math.factorial(2 * p - 1)
        w3 = c * polygamma(2 * p - 2, zN) / math.factorial(2 * p - 2)
        parts.append(-w2)
        parts.append(-w3)
        if max(abs(w2), abs(w3)) < _P_TOL:
            break
    return _first_term() + math.fsum(parts)


# Gauss-Legendre panels for the integral, geometric up to the cut at t = 40,
# past which both terms of the integrand are below 1e-34
_PANEL_EDGES = (0.0, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 40.0)
_PANEL_NODES = 32


def _integrand(t):
    # e^(-4t) - sech^2 t = expm1(-4t) + tanh^2 t, without the cancellation near t = 0
    return (np.expm1(-4.0 * t) + np.tanh(t) ** 2) / t


def lukyanov_integral() -> float:
    """I = int_0^inf dt/t (e^(-4t) - sech^2 t); ln B = I/4.

    Composite Gauss-Legendre rule, numpy only: 32 points on each of the
    panels [0, 1/2, 1, 2, 4, 8, 16, 40].  The integrand is evaluated as
    (expm1(-4t) + tanh^2 t) / t, which has no cancellation as t -> 0 (its
    limit there is -4), so it needs no Taylor head and no split at t = 1.
    Against mpmath at 40 digits the error is 1.6e-16 with 32 nodes (5.1e-16
    with 24, 1.8e-12 with 8).
    """
    x, w = np.polynomial.legendre.leggauss(_PANEL_NODES)
    edges = np.array(_PANEL_EDGES)
    half = 0.5 * np.diff(edges)[:, None]
    t = (edges[:-1, None] + half) + half * x
    return float(np.sum(half * w * _integrand(t)))


# Below this k the gamma-product terms are taken directly; from it on, the
# first _GAMMA_TERMS terms of their 1/k series are within 1.8e-18 relative of
# mpmath (at k = 10, and closer beyond).
_GAMMA_K0 = 10
_GAMMA_TERMS = 20


@functools.lru_cache(maxsize=1)
def _gamma_series() -> tuple[float, ...]:
    """c_n, highest n first, of 2 ln Gamma(k) - ln Gamma(k+1/2) - ln Gamma(k-1/2) ~ sum_n c_n k^-n.

    Stirling's series ln Gamma(k+a) ~ (k+a-1/2) ln k - k + ln(2 pi)/2
    + sum_n (-1)^(n+1) B_{n+1}(a) / (n (n+1) k^n) at a = 0, 1/2 and -1/2:
    the ln k, k and ln(2 pi) terms cancel exactly, and the Bernoulli
    polynomials B_m(1/2) = (2^(1-m) - 1) B_m, B_m(-1/2) = B_m(1/2) - m (-1/2)^(m-1)
    leave the exact rationals

        c_n = (-1)^(n+1) [(4 - 2^(1-n)) B_{n+1} + (n+1) (-1/2)^n] / (n (n+1)),

    c_1 = -1/4, c_2 = -1/8, c_3 = -5/96.  With B_{n+1} = p/q that is
    (-1)^(n+1) [(2^(n+2) - 2) p + (-1)^n (n+1) q] / (2^n q n (n+1)), one
    integer quotient, rounded once to a double.
    """
    B = bernoulli_rationals(_GAMMA_TERMS + 1)
    c = []
    for n in range(1, _GAMMA_TERMS + 1):
        p, q = B[n + 1]
        num = (2 ** (n + 2) - 2) * p + (-1) ** n * (n + 1) * q
        c.append((-1) ** (n + 1) * num / (2**n * q * n * (n + 1)))
    return tuple(reversed(c))


def log_r_gamma_product(N: int) -> float:
    """ln R_N on the infinite chain via R_N = prod_k Gamma(k)^2 / (Gamma(k+1/2) Gamma(k-1/2)).

    Each term below k = 10 is the log of its gamma ratio, taken directly;
    the rest are one numpy Horner pass over the 1/k series of
    :func:`_gamma_series`, and a numpy sum.  Per-term lgamma differences
    would lose an ulp of k ln k each (2.2e-9 at N = 1e4 in the Richardson
    limit).  Against mpmath the error is at most 5.4e-16 relative at N = 1,
    2, 9, 10, 11, 500 and 1e4.  Nothing here reads the sine product.
    """
    N = check_int("N", N, 1)
    head = math.fsum(
        math.log(math.gamma(k) ** 2 / (math.gamma(k + 0.5) * math.gamma(k - 0.5)))
        for k in range(1, min(N, _GAMMA_K0 - 1) + 1)
    )
    if N < _GAMMA_K0:
        return head
    u = 1.0 / np.arange(_GAMMA_K0, N + 1)
    t = np.zeros_like(u)
    for c in _gamma_series():
        t += c
        t *= u
    return head + float(np.sum(t))


def log_r_barnes(N: int) -> float:
    """ln R_N through Barnes-G ratios, ln G built as cumulative log-gamma sums.

    R_N telescopes into G(N+1)^2 / (G(N+1/2) G(N+3/2)) times a constant;
    ln G(N+1) = sum_{k<=N} ln Gamma(k), the half-integer ladder is summed from
    G(1/2), and the constant left over is ln Gamma(1/2), which R_1 = 2/pi
    fixes; no other route is called.  The cumulative sums carry the
    rounding of every ln Gamma they add, so against mpmath the relative error
    grows with N: 8.2e-15 at N = 10, 7.3e-11 at N = 500 and 5.2e-9 at N = 1e4.
    """
    N = check_int("N", N, 1)
    s_int = math.fsum(math.lgamma(k) for k in range(1, N + 1))
    s_half = math.fsum(math.lgamma(j + 0.5) for j in range(N))
    return math.lgamma(0.5) + 2.0 * s_int - 2.0 * s_half - math.lgamma(N + 0.5)


def _zeta_reflected(s: float) -> float:
    # zeta(s) for s < 0 via the functional equation; used near s = -1
    return (
        2.0**s
        * math.pi ** (s - 1.0)
        * math.sin(math.pi * s / 2.0)
        * math.gamma(1.0 - s)
        * zeta_em(1.0 - s)
    )


def glaisher() -> tuple[float, float]:
    """(A, zeta'(-1)) with zeta'(-1) computed independently of A.

    zeta is evaluated near s = -1 through the reflection formula and
    differentiated by central differences on a shrinking step, Richardson
    extrapolated; A then follows from A = exp(1/12 - zeta'(-1)).  Against
    mpmath at 40 digits, A is off by 1.4e-15 relative and zeta'(-1) by
    8.1e-15 relative (1.3e-15 absolute).
    """
    levels = 5
    h0 = 0.1
    diffs = []
    for i in range(levels):
        h = h0 / 2.0**i
        diffs.append((_zeta_reflected(-1.0 + h) - _zeta_reflected(-1.0 - h)) / (2.0 * h))
    for lev in range(1, levels):
        fac = 4.0**lev
        diffs = [(fac * diffs[i + 1] - diffs[i]) / (fac - 1.0) for i in range(len(diffs) - 1)]
    zeta_prime = diffs[0]
    return math.exp(1.0 / 12.0 - zeta_prime), zeta_prime


def _richardson_limit(f, n: int) -> float:
    """Limit of f(N) + (1/4) ln N, removing the 1/N^2 term from the pair (n/2, n); n is even."""
    f1 = f(n // 2) + 0.25 * math.log(n // 2)
    f2 = f(n) + 0.25 * math.log(n)
    return (4.0 * f2 - f1) / 3.0


def _c0(ln_b: float) -> float:
    return math.sqrt(math.pi) * math.exp(2.0 * ln_b) / math.sqrt(2.0)


def first_term_comparison() -> dict[str, float]:
    """The N-independent first term, against both closed forms in circulation.

    ``direct`` is the polygamma sum itself.  ``gamma_quarter`` rewrites it
    with psi^(2p-2)(1) = -(2p-2)! zeta(2p-1); ``gamma_half`` is the variant
    with coefficient 1/2 on Euler's constant and a positive zeta sum, which
    disagrees with the direct evaluation by ~0.056 and is reported here so
    the discrepancy is on record rather than silently resolved.
    """
    zsum = math.fsum((0.25**p) / p * zeta_em(float(2 * p - 1)) for p in range(2, _P_MAX + 1))
    euler = -polygamma(0, 1.0)
    return {
        "direct": _first_term(),
        "gamma_quarter": -0.25 * euler - zsum,
        "gamma_half": -0.5 * euler + zsum,
    }


def amplitude_report(n_fit: int = N_FIT, x_fit_max: int = X_FIT_MAX) -> ConstantsReport:
    """Assemble every route into one report.

    ``n_fit``, even, sets the (N/2, N) pair used to extrapolate ln B out of the
    product, gamma-product and polygamma-series routes; ``x_fit_max`` bounds
    the even-x window [20, x_fit_max] of the least-squares fit for the
    subleading coefficient.  C0 and C0/(2 sqrt(pi)) derive from the series
    value of ln B via C0 = sqrt(pi) B^2 / sqrt(2).

    The fit runs in np.longdouble: exp on libm's expl, x^(-1/2) as 1/sqrt(x)
    and x^(-5/2) as x^(-1/2)/x^2 (powl, as accurate to the double that is
    printed, costs 0.9 ms more at the default window), and the dot products on
    numpy's own sequential long double loop, which calls no BLAS; the slope
    is rounded once.  In float64 the exp and powers follow numpy's SIMD
    dispatch and the dot products OpenBLAS's kernel: ``sub_coeff_fitted``
    moved by 359 ulp between dispatch levels and by 3 between kernels.  About
    13 of its 17 printed digits are significant: it is 1.5e-13 relative from
    the same fit on exact log R_N (mpmath), as the float64 table's rounding
    passes through the cancellation in exact - leading.
    """
    n_fit = check_int("n_fit", n_fit, 1000)
    if n_fit % 2:
        raise DomainError(f"n_fit must be even, got {n_fit}")
    x_fit_max = check_int("x_fit_max", x_fit_max, 1000)

    integral = lukyanov_integral()
    # one table serves the ln B fit (N <= n_fit) and the subleading fit (x <= x_fit_max)
    table = log_r_table(max(n_fit, x_fit_max // 2), INFINITE)
    ln_b = {
        "series": _richardson_limit(log_r_series, n_fit),
        "integral": 0.25 * integral,
        "gamma_product": _richardson_limit(log_r_gamma_product, n_fit),
        "fit": _richardson_limit(lambda n: float(table[n]), n_fit),
    }
    vals = list(ln_b.values())
    pairwise = max(abs(a - b) for a in vals for b in vals)

    glaisher_a, zeta_prime = glaisher()

    c0 = _c0(ln_b["series"])
    amplitude_half = c0 / (2.0 * math.sqrt(math.pi))

    # least-squares slope of (exact - leading) against x^(-5/2), even x, in long double
    xs = np.arange(20, x_fit_max + 1, 2)
    root = 1 / np.sqrt(xs, dtype=np.longdouble)  # x^(-1/2)
    resid = 0.5 * np.exp(2.0 * table[xs // 2].astype(np.longdouble)) - (c0 / math.sqrt(math.pi)) * root
    basis = root / xs**2
    sub_coeff = float(np.dot(resid, basis) / np.dot(basis, basis))

    return ConstantsReport(
        ln_b_series=ln_b["series"],
        ln_b_integral=ln_b["integral"],
        ln_b_gamma_product=ln_b["gamma_product"],
        ln_b_fit=ln_b["fit"],
        glaisher_a=glaisher_a,
        zeta_prime_minus1=zeta_prime,
        c0=c0,
        amplitude_half=amplitude_half,
        lukyanov_integral=integral,
        sub_coeff_fitted=sub_coeff,
        pairwise_max_dev=pairwise,
    )


def asymptotic_params() -> AsymptoticParams:
    """Leading-order parameters (alpha = 1/2, C0) from the polygamma-series route.

    For consumers that only need C0: ln B is the Richardson limit of
    :func:`log_r_series` at the (N_FIT/2, N_FIT) pair, so C0 is bit for bit
    ``amplitude_report().c0``, the value the ``constants`` command prints.  It is
    within 9.6e-16 relative of mpmath at 40 digits.  Nothing here reads the
    sine product, so the asym column stays independent of the product route.
    """
    return AsymptoticParams(alpha=0.5, c0=_c0(_richardson_limit(log_r_series, N_FIT)))
