"""Exact spin-spin correlator G(x) = <sigma^+_{i+x} sigma^-_i> by two routes.

Route one is the x-by-x Wick determinant of the free-fermion contraction
kernel k.  k vanishes at even arguments, so the Wick matrix is two
interleaved copies of the reduced Toeplitz matrix B[i, j] = k(2(i-j) - 1),
whose leading minors are R_N, and

    G(2N)   = +1/2 R_N^2
    G(2N+1) = -1/2 R_N R_{N+1},       R_0 = 1.

:func:`correlator_det_sweep` gets every G(x), x <= X, from the Toeplitz Schur
recursion on the ceil(X/2)-square B in np.longdouble: O(X^2) work, O(X)
memory and no matrix, within 4.2e-16 of mpmath at X = 1000.  The per-x
pivoted LU of the full float64 Wick matrix, :func:`correlator_det`, is its
oracle.  Route two evaluates R_N in closed form as a product of sines, in log
space, for every N <= L/2, so it covers every distance 1 <= x <= L-1 on its
own; on a ring R_{L/2} = 1 (the ring Wallis identity).

Both routes work on every even ring, L >= 6, and in the thermodynamic limit
and must agree to near machine precision; neither calls the other, and the
diagonalization oracle in :mod:`xxchain.ed` pins them to the spin Hamiltonian
itself.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import MAX_DET_SIZE, MAX_RING_LENGTH, SizeError, check_int
from .greens import INFINITE, LatticeSpec

__all__ = [
    "Route",
    "CorrelatorSample",
    "LogProduct",
    "correlator",
    "correlator_det",
    "correlator_det_sweep",
    "correlator_sweep",
    "r_det",
    "r_value",
    "log_r_table",
    "MAX_DET_SIZE",
    "MAX_RING_LENGTH",
]

# pi to extended precision; np.pi would carry its 1.2e-16 error into every factor
_PI = np.longdouble("3.141592653589793238462643383279502884")


class Route(enum.Enum):
    DET = "det"
    PRODUCT = "product"


@dataclass(frozen=True)
class CorrelatorSample:
    """One correlator value tagged with its distance and route; :func:`correlator` gives PRODUCT."""

    x: int
    value: float
    route: Route


@dataclass(frozen=True)
class LogProduct:
    """A positive product carried as (sign, log of absolute value)."""

    log_abs: float
    sign: int = 1

    @property
    def value(self) -> float:
        return self.sign * math.exp(self.log_abs)


def _check_distance(x: int, lattice: LatticeSpec) -> int:
    return check_int("x", x, 1, lattice.length - 1 if lattice.is_finite else None)


def _wick_kernel(d: np.ndarray, lattice: LatticeSpec) -> np.ndarray:
    """The contraction kernel 2 G0(d) at odd d and 0 at even d, for integer d in (-L, L), in np.longdouble.

    Vectorised :func:`xxchain.greens.g0` with the same fold: on a ring the
    sine is taken at min(|d|, L - |d|), an argument <= pi/2, from :data:`_PI`,
    and the sign from |d| itself, which carries G0(L - d) = (-1)^(M+1) G0(d)
    at odd d.  The even entries, the
    diagonal d = 0 included, are zero because the density term cancels
    2 G0(0) = 1.  Rounded to float64, a value is within 3.3e-16 of the scalar
    :func:`xxchain.greens.g0`.  L enters as a Python int and a longdouble,
    never as an int64, so a ring of 2^63 sites or more is admitted too, for
    |d| <= L/2 only: past it the fold's L - |d| casts L to int64 and raises
    ``OverflowError``.
    """
    n = np.abs(d)
    odd = n % 2 == 1
    m = n[odd]
    num = np.where(m % 4 == 1, 2, -2)  # the sign of sin(pi m/2), before the fold
    if lattice.is_finite:
        L = lattice.length
        if int(n.max()) > L // 2:  # L - m casts L to int64, which fails from 2^63 on
            m = np.where(m > L // 2, L - m, m)
        L = np.longdouble(L)
    denom = L * np.sin(_PI * m / L) if lattice.is_finite else _PI * m
    out = np.zeros(np.shape(d), dtype=np.longdouble)
    out[odd] = num / denom
    return out


def _kernel_toeplitz(n: int, step: int, lattice: LatticeSpec) -> np.ndarray:
    """The n-by-n Toeplitz matrix T[i, j] = k(step (i-j) - 1) of :func:`_wick_kernel`, in float64.

    step 1 gives the Wick matrix, step 2 the reduced matrix of R_n: a reversed
    sliding window over the 2n - 1 kernel values, each rounded once.
    """
    vals = _wick_kernel(step * np.arange(1 - n, n) - 1, lattice)
    return sliding_window_view(vals, n)[:, ::-1].astype(np.float64)


def _check_det_size(x: int) -> None:
    if x > MAX_DET_SIZE:
        raise SizeError(f"x={x} exceeds the det guard {MAX_DET_SIZE}")


def correlator_det(x: int, lattice: LatticeSpec = INFINITE) -> float:
    """G(x) from the x-by-x Wick determinant, via LU with partial pivoting.

    The Toeplitz kernel is the equal-time contraction <B_i A_j>, which at
    half filling is 2 G0(i-j) for odd i-j and exactly zero for even i-j
    (including the diagonal argument 0, where the density term cancels
    2 G0(0) = 1).  The overall factor (-1)^x / 2 converts the determinant
    over the plain sine kernel to the physical staggered correlator.  This
    scalar form is the test oracle for :func:`correlator_det_sweep`.
    """
    x = _check_distance(x, lattice)
    _check_det_size(x)
    sign = 1.0 if x % 2 == 0 else -1.0
    return 0.5 * sign * float(np.linalg.det(_kernel_toeplitz(x, 1, lattice)))


def correlator_det_sweep(x_max: int, lattice: LatticeSpec = INFINITE) -> np.ndarray:
    """G(x) for x = 1..x_max from the Toeplitz Schur recursion on the reduced matrix, n = ceil(x_max/2).

    The Wick matrix of :func:`correlator_det` splits into the leading ceil(x/2)- and
    floor(x/2)-square blocks of the reduced matrix of :func:`r_det`, T[i, j] = t(i - j)
    with t(d) = k(2d - 1), so G(x) = (-1)^x/2 R_{x//2} R_{(x+1)//2}.  The nonsymmetric
    Toeplitz Schur (Bareiss) recursion gives eps_k = R_{k+1}/R_k from two vectors,
    p = q = t at the start: step k reads eps_k = p(0), a = p(k+1) and b = q(-1) and
    updates both from their old values,

        p(i) <- p(i) - (a/eps_k) q(i-1),      q(i) <- q(i-1) - (b/eps_k) p(i).

    Only p(i <= 0), q(i < 0), p(i > k) and q(i >= k) are read again, so each of the two
    parts of the live window loses one entry a step.  Every eps_k is positive, so nothing
    breaks down.  In np.longdouble, with R_k rounded once to float64: x_max^2/2
    multiply-adds, O(x_max) memory and a max relerr against mpmath of 3.1e-16 at
    x_max = 450 (L = 1102 and infinite), 4.2e-16 at 1000 and 4.7e-16 at 4096.  No sine
    product is involved, so this stays independent of :func:`correlator_sweep`.
    """
    x_max = _check_distance(x_max, lattice)
    _check_det_size(x_max)
    n = (x_max + 1) // 2
    s = np.zeros(2 * n + 1, dtype=np.longdouble)
    s[1:-1] = _wick_kernel(2 * np.arange(n - 1, -n, -1) - 1, lattice)  # t(n-1), .., t(1-n)
    # row 0 of p and q: p(n..1) and q(n-1..0), the right parts reversed; row 1: p(0..1-n) and
    # q(-1..-n).  The zero ends p(n) and q(-n) only ever reach entries that are not read.
    p, q = s[:-1].reshape(2, n), s[1:].reshape(2, n)
    eps = np.empty(n, dtype=np.longdouble)
    for k in range(n):
        eps[k] = e = p[1, 0]
        p, q = p[:, :-1] - (p[0, -1] / e) * q[:, :-1], q[:, 1:] - (q[1, 0] / e) * p[:, 1:]
    r = np.concatenate(([1.0], np.cumprod(eps).astype(np.float64)))
    x = np.arange(1, x_max + 1)
    return np.where(x % 2, -0.5, 0.5) * r[x // 2] * r[(x + 1) // 2]


def _check_r_range(N: int, lattice: LatticeSpec) -> int:
    # 2N <= L keeps every sine argument of R_N in (0, pi)
    return check_int("N", N, 1, lattice.length // 2 if lattice.is_finite else None)


def r_det(N: int, lattice: LatticeSpec = INFINITE) -> float:
    """R_N from the reduced N-by-N Toeplitz determinant with entries 2 G0(2i-2j-1).

    Serves as the independent oracle for :func:`r_value`; R_1 = 2 G0(1) > 0.
    """
    N = _check_r_range(N, lattice)
    _check_det_size(2 * N)
    return float(np.linalg.det(_kernel_toeplitz(N, 2, lattice)))


def _sine_grid(m: int, L: int) -> np.ndarray:
    """sin(2 pi k/L) for k = 1..m, m <= L/4, in np.longdouble by angle addition on a grid.

    The split is the ring's, whatever m is: b = ceil(sqrt(L//4)), L//4 capped at
    MAX_RING_LENGTH so that a ring past 2^63 takes a small grid, k = b i + j for
    i in [0, ceil(m/b)) and j in [1, b], and

        sin(2 pi k/L) = sin(2 pi b i/L) cos(2 pi j/L) + cos(2 pi b i/L) sin(2 pi j/L).

    So each sine has one rounding per ring, and a shorter grid is a prefix of the
    quarter-ring one: its relative error against mpmath, at most 1.62 times the
    longdouble epsilon at m = L//4 for L = 6..669878, bounds every m too.  For
    k <= m both angles lie in [0, pi/2], so both terms are >= 0 and nothing cancels.
    """
    b = math.ceil(math.sqrt(min(L // 4, MAX_RING_LENGTH)))
    hi = 2 * _PI * (b * np.arange(-(-m // b))) / L
    lo = 2 * _PI * np.arange(1, b + 1) / L
    grid = np.outer(np.sin(hi), np.cos(lo))
    grid += np.outer(np.cos(hi), np.sin(lo))
    return grid.ravel()[:m]


# Below this q^2 the log factors take the short series of _neg_log1m: past
# k = 512 on the infinite chain, and within a few k of it on a ring.
_SERIES_Q2 = 2.0**-20


def _neg_log1m(q2: np.ndarray, out: np.ndarray) -> None:
    """out = -log1p(-q2) for a non-increasing np.longdouble q2 in [0, 1/3].

    While q2 > 2^-20 each element takes one log1p.  Past that,

        -log1p(-q^2) = q^2 + q^2 (q^2/2 + q^4/3 + q^6/4) + R,   0 < R <= q^10 / (5 (1 - q^2)),

    with q^2 in np.longdouble and the correction in float64.  R is below
    2^-82 of the result, and the correction, at most q^2/2 <= 2^-21 of the
    result, carries a few float64 roundings, below 2^-71 of it; so the one
    longdouble addition decides, and the series is within 0.50 longdouble eps
    of mpmath on exact inputs, where log1p is within 0.64.
    """
    i = len(q2) - int(np.searchsorted(q2[::-1], _SERIES_Q2, side="right"))
    out[:i] = -np.log1p(-q2[:i])
    t = q2[i:].astype(np.float64)
    c = 0.25 * t
    c += 1.0 / 3.0
    c *= t
    c += 0.5
    c *= t
    c *= t
    np.add(q2[i:], c, out=out[i:])


def _log_factors(n: int, lattice: LatticeSpec) -> np.ndarray:
    """Log factors f_0..f_{n-1} in np.longdouble, with log R_N = sum_{k<N} (N-k) f_k.

    f_0 = log R_1 = log(2 G0(1)); for k >= 1 the exact product-to-sum rewriting

        f_k = 2 ln sin(2 pi k/L) - ln sin(pi(2k+1)/L) - ln sin(pi(2k-1)/L)
            = -log1p(-q_k^2),   q_k = sin(pi/L) / sin(2 pi k/L),

    lets one log1p carry the full relative accuracy, where the three-log form
    loses ~1e-8 absolute by N ~ 1e4; past q_k^2 = 2^-20 a short series takes
    the place of log1p (:func:`_neg_log1m`).  On a ring the sines come from
    :func:`_sine_grid` for k <= L/4, so each f_k is a function of (L, k)
    alone; past L/4 the factors fold exactly,
    f_k = f_{L/2-k} (sin(2 pi k/L) = sin(pi - 2 pi k/L), every even L), so no sine
    is taken past pi/2, where the rounded longdouble argument put sinl off by
    up to 1.1e4 ulp at L = 100002 (1.7e6 at L = 9999998), and a sweep past
    x = L/2 pays for each factor once.  On the infinite chain q_k^2 = 1/(2k)^2
    and f_0 = log(2/pi).  Each f_k, k >= 1, is within 3.8 longdouble eps of
    mpmath at L = 100002 and 669878 (1.1 on the infinite chain), most of it
    from the sines.  f_0 carries one longdouble rounding, and log R_N takes it
    N times: on rings of L = 4.6e5 to 7.8e5, at N ~ L/4, G = +-1/2 R_N R_{N+1}
    is off by 2.2e-15 to 2.3e-14 relative.
    """
    f = np.empty(n, dtype=np.longdouble)
    if lattice.is_finite:
        L = lattice.length
        s = np.sin(_PI / L)
        f[:1] = np.log(2 / (L * s))
        m = min(max(n - 1, 0), L // 4)
        q = _sine_grid(m, L)
        np.divide(s, q, out=q)
        _neg_log1m(np.square(q, out=q), f[1:m + 1])
        h = L // 2
        f[m + 1:] = f[h - n + 1:h - m][::-1]
    else:
        f[:1] = np.log(2 / _PI)
        _neg_log1m(0.25 / np.square(np.arange(1, n), dtype=np.longdouble), f[1:])
    return f


def r_value(N: int, lattice: LatticeSpec = INFINITE) -> LogProduct:
    """R_N from the closed sine product, accumulated in log space.

    The product telescopes the Cauchy determinant of :func:`r_det`:

        R_N = (2 G0(1))^N  prod_{k=1}^{N-1} [ sin^2(2 pi k/L)
                / ( sin(pi(2k+1)/L) sin(pi(2k-1)/L) ) ]^(N-k),

    with sines replaced by their arguments in the thermodynamic limit.
    N = 1 is the empty product.  The terms (N-k) f_k are rounded to doubles and
    summed with math.fsum; this scalar form is the test oracle for :func:`log_r_table`.
    """
    N = _check_r_range(N, lattice)
    terms = (N - np.arange(N)) * _log_factors(N, lattice)
    return LogProduct(log_abs=math.fsum(terms.tolist()), sign=1)


def log_r_table(n_max: int, lattice: LatticeSpec = INFINITE) -> np.ndarray:
    """log R_N for N = 0..n_max in one O(n_max) sweep (log R_0 = 0): the bulk path.

    log R_{N+1} = log R_N + S_N with S_N = sum_{k<=N} f_k, the factors of
    :func:`r_value`, so the table is a prefix sum of prefix sums, both taken
    in np.longdouble.  Against mpmath, the max abs error is 2.77e-16 on the
    infinite chain for N <= 1e4 and 2.88e-16 on L = 4002 for N <= 2000 (the
    final rounding), with x87 80-bit longdouble.  On large rings the one
    rounding of f_0 dominates, since log R_N takes it N times: at N ~ L/4 on
    rings of L = 4.6e5 to 7.8e5, log R_N + log R_{N+1}, the log of 2|G(2N+1)|,
    is off by 2.2e-15 to 2.3e-14.
    """
    n_max = check_int("n_max", n_max, 0)
    _check_r_range(max(n_max, 1), lattice)
    f = _log_factors(n_max, lattice)
    np.cumsum(f, out=f)
    np.cumsum(f, out=f)
    out = np.zeros(n_max + 1)
    out[1:] = f
    return out


def _g_cells(r: np.ndarray, x: np.ndarray) -> np.ndarray:
    """G(x) = (-1)^x/2 exp(r[x//2] + r[(x+1)//2]) for an int array x, r a :func:`log_r_table`.

    The float64 exponent goes through libm's expl in np.longdouble and is
    rounded once: correctly rounded in all 4,450 cells of the sweeps at L = inf
    and 4002 (x <= 2000) and L = 1202 (x <= 450), where numpy's float64 exp,
    which follows its SIMD dispatch, missed 201 of them at AVX-512.
    """
    g = np.exp((r[x // 2] + r[(x + 1) // 2]).astype(np.longdouble)).astype(np.float64)
    return np.where(x % 2, -0.5, 0.5) * g


def correlator_sweep(x_max: int, lattice: LatticeSpec = INFINITE) -> np.ndarray:
    """G(x) for x = 1..x_max from one :func:`log_r_table`, exponentiating once per x.

    Even x = 2N gives +1/2 R_N^2, odd x = 2N+1 gives -1/2 R_N R_{N+1}, R_0 = 1
    (:func:`_g_cells`); each cell is a function of (lattice, x) alone, whatever
    x_max is.  On a ring x = L-1 reads R_{L/2}, 1 by the ring Wallis identity,
    which the table sums like any other entry: G(L-1)/G(1) - 1 is 0 at L = 1202
    and 4.4e-16 at L = 8194, and on larger rings the f_0 rounding of
    :func:`_log_factors`, as for G(L-2)/G(2) - 1 (-1.6e-15 at L = 100002).
    """
    x_max = _check_distance(x_max, lattice)
    return _g_cells(log_r_table((x_max + 1) // 2, lattice), np.arange(1, x_max + 1))


def correlator(x: int, lattice: LatticeSpec = INFINITE) -> CorrelatorSample:
    """G(x) from two entries of one :func:`log_r_table`, for every 1 <= x <= L-1.

    :func:`_g_cells` on a table to (x+1)//2: bit for bit the cell x of every
    :func:`correlator_sweep` to x_max >= x, without the sweep's other cells.
    """
    x = _check_distance(x, lattice)
    value = _g_cells(log_r_table((x + 1) // 2, lattice), np.array([x]))[0]
    return CorrelatorSample(x=x, value=float(value), route=Route.PRODUCT)
