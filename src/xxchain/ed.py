"""Exact diagonalization of H = 1/2 sum_i (sx_i sx_{i+1} + sy_i sy_{i+1}) on a ring.

The Hamiltonian is applied to spins directly in the fixed-magnetization
sector M = L/2, with the periodic bond treated like any other bond.  No
fermionization is involved, so results from this module are independent of
all Jordan-Wigner and determinant bookkeeping and serve as ground truth for
:mod:`xxchain.exact`.

Every even L from 6 to ``MAX_ED_LENGTH`` is admitted, by the ring-length
rule of every route.  H commutes with the translation T; its real momenta
k = 0 and k = pi give sectors of one state per translation orbit (2,704 at
L = 18 against 48,620 states).  The ground state lies at k = pi for M odd,
with the +1 hop, and at k = 0 for M even; the spectral gap is the other
sector's lowest energy less the ground energy.  One cached solve per (L, k)
serves the ground state, the pair pass and the gap.  Each sector's H is one
hop triplet, solved by one small numpy Lanczos loop in float64 from a fixed
start vector, then for a few steps in ``np.longdouble``.  Its longdouble
vector, expanded to full-sector amplitudes exactly antisymmetric (k = pi) or
symmetric (k = 0) under translation, is the one cached copy of the state;
``ed_ground_state`` rounds it to float64 on demand.  Each Lanczos step
takes the lowest Ritz pair of the tridiagonal matrix from ``eigvalsh`` and an
O(m) inverse iteration, on one thread: a dense ``eigh`` would call ``dgemm``
and leave BLAS threads spinning.  The module needs numpy alone; the tests
keep ARPACK (``eigsh``) on an independently built sparse matrix as its oracle.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import SizeError, check_int, check_ring_length

__all__ = [
    "SpinSector",
    "spin_sector",
    "ed_ground_state",
    "ed_correlator",
    "ed_correlator_by_site",
    "ed_correlator_sweep",
    "ed_spectral_gap",
]

MAX_ED_LENGTH = 18
# step budget of the longdouble k = pi Lanczos, which converges in 3, 8 and 11
# steps at L = 6, 10 and 14 and runs all 12 at L = 18, taking the residual
# |H c - E c| from 3.3e-15 to 6.7e-18 (16 steps reach the 5.7e-18 floor)
_POLISH_STEPS = 12
# step budget of the float64 Lanczos, which converges in 3, 11, 34 and 46
# steps at L = 6, 10, 14 and 18 in k = pi (59 at L = 22) and in 3, 11, 37 and
# 52 in k = 0 (66 at L = 22); its block of 64 vectors is the solve's traced peak
_LANCZOS_STEPS = 64


@dataclass(frozen=True)
class SpinSector:
    """Basis of spin configurations with exactly M = L/2 up spins.

    ``basis`` is sorted ascending; bit k of a basis integer is the spin at
    site k.  :meth:`index` finds states by binary search in ``basis``, which
    is bijective on the sector; it is the module's only state lookup.
    """

    L: int
    M: int
    basis: np.ndarray = field(repr=False)

    @property
    def dimension(self) -> int:
        return len(self.basis)

    def index(self, states: np.ndarray) -> np.ndarray:
        return np.searchsorted(self.basis, states)


def _check_length(L: int) -> int:
    """The package's ring-length rule, an even integer L >= 6, capped at ``MAX_ED_LENGTH``."""
    L = check_ring_length(L)
    if L > MAX_ED_LENGTH:
        raise SizeError(f"L={L} exceeds the diagonalization guard {MAX_ED_LENGTH}")
    return L


def _cached_per_length(build):
    """One cache entry per L and further arguments, L checked by :func:`_check_length` first.

    A cache keyed on the raw argument would hand ``18.0`` the entry of L = 18,
    and ``True`` to the build, unchecked.  Later arguments are positional-only, defaults filled in.
    """
    cached = functools.lru_cache(maxsize=None)(build)
    defaults = build.__defaults__ or ()

    @functools.wraps(build)
    def call(L: int, /, *args):
        return cached(_check_length(L), *args, *defaults[len(args):])

    call.cache_info, call.cache_clear = cached.cache_info, cached.cache_clear
    return call


@_cached_per_length
def spin_sector(L: int) -> SpinSector:
    """Build (and cache) the M = L/2 sector for any even ring length 6 <= L <= ``MAX_ED_LENGTH``."""
    M = L // 2
    # rows[m]: the sorted m-bit patterns on the sites below l.  Appending the
    # patterns that set site l after those that leave it empty keeps the
    # order, and a row that can no longer reach M bits is not extended.
    rows = [np.zeros(1, dtype=np.int64)] + [np.zeros(0, dtype=np.int64)] * M
    for l in range(L):
        for m in range(min(l + 1, M), max(M - (L - 1 - l), 1) - 1, -1):
            rows[m] = np.concatenate((rows[m], rows[m - 1] | np.int64(1 << l)))
    basis = rows[M]
    assert len(basis) == math.comb(L, M)
    basis.setflags(write=False)
    return SpinSector(L=L, M=M, basis=basis)


def _start_vector(dim: int) -> np.ndarray:
    """Fixed start vector of every float64 :func:`_lanczos` run, for run-to-run reproducibility.

    Entry k is the multiplicative hash (k * 0x9E3779B97F4A7C15 mod 2^64) >> 11,
    scaled to [-1/2, 1/2): the fractional parts of k times the golden ratio,
    from integer arithmetic alone, with no generator to import.  Both
    momentum sectors start from it, and so does the tests' full-sector
    ``eigsh`` oracle: there a uniform vector would lie in k = 0, orthogonal to
    the k = pi ground state of an M-odd ring, and leave the eigensolver to
    find it through rounding alone.
    """
    k = np.arange(dim, dtype=np.uint64)
    return ((k * np.uint64(0x9E3779B97F4A7C15)) >> np.uint64(11)) * 2.0**-53 - 0.5


def _orbits(sector: SpinSector, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Translation orbits of the basis and their momentum-k phase: ``(leaders, orbit, phase)``.

    ``leaders`` holds each orbit's smallest member, ascending; ``orbit``
    numbers the orbit of every basis state, so ``np.bincount(orbit)`` are
    the orbit lengths P.  A state s = T^l(leader) carries the phase (-1)^(k l),
    k = 0 or 1 in units of pi.  It is the same for every l that reaches s,
    because P is even at either parity of M: a state of period P holds
    M P / L = P/2 up spins per period.  One vectorised pass per power of T.
    """
    L, basis = sector.L, sector.basis
    leader = basis.copy()
    phase = np.ones(len(basis))
    state = basis
    for r in range(1, L):
        state = ((state << 1) | (state >> (L - 1))) & ((1 << L) - 1)
        smaller = state < leader
        leader[smaller] = state[smaller]
        phase[smaller] = (-1.0) ** (k * r)  # T^r(s) = leader, so s = T^(L-r)(leader)
    leaders = basis[leader == basis]
    return leaders, np.searchsorted(leaders, leader), phase


def _momentum_hamiltonian(sector: SpinSector, leaders, orbit, phase) -> tuple:
    """H in the orthonormal momentum states |a> = P_a^(-1/2) sum of phase(s) |s> over orbit a.

    A hop that takes leader a to s in orbit b adds phase(s) sqrt(P_a/P_b) to
    element (b, a), P = ``np.bincount(orbit)``, with the phase of :func:`_orbits`.
    H is one bond-major hop triplet ``(a, b, d)``, H[b, a] += d (bond 0's hops,
    then bond 1's, ..., each in ascending ``a``), with longdouble ``d``.
    """
    L = sector.L
    lengths = np.bincount(orbit).astype(np.longdouble)
    i = np.arange(L)[:, None]
    bond, a = np.nonzero(((leaders >> i) & 1) != ((leaders >> (i + 1) % L) & 1))
    hop = sector.index(leaders[a] ^ ((1 << bond) | (1 << (bond + 1) % L)))
    b = orbit[hop]
    # a copy: the view would keep nonzero's buffer, bond included, alive
    return a.copy(), b, phase[hop] * np.sqrt(lengths[a] / lengths[b])


def _apply(H: tuple, v: np.ndarray) -> np.ndarray:
    """H @ v for H as the hop triplet ``(a, b, d)``, in the dtype of ``d``.

    ``np.add.at`` adds each row's hops in the triplet's bond order, as a
    sequential sum over hops does; it applies the transpose of H, which is H.
    """
    a, b, d = H
    out = np.zeros(len(v), dtype=d.dtype)
    np.add.at(out, a, d * v[b])
    return out


def _lowest_ritz_pair(alpha: np.ndarray, beta: np.ndarray) -> tuple:
    """The lowest eigenpair ``(theta, y)``, |y| = 1, of symmetric tridiagonal T, in alpha's dtype.

    T has diagonal ``alpha`` and off-diagonal ``beta``.  theta starts from
    the lowest ``np.linalg.eigvalsh`` of T rounded to float64, moved down by
    4 eps |T|: the LDL^T pivots of T - theta are then positive up to rounding.
    Two inverse-iteration sweeps from e_0, each an O(m) solve with those
    pivots, give y: every eigenvector of an unreduced T has a nonzero first
    entry, and each sweep shrinks the other eigenvectors' share by about
    eps |T| / gap.  theta is then the Rayleigh quotient y^T T y.
    """
    a, b = alpha.astype(np.float64), beta.astype(np.float64)
    w = np.linalg.eigvalsh(np.diag(a) + np.diag(b, 1) + np.diag(b, -1))
    lam = alpha.dtype.type(w[0] - 4 * np.finfo(np.float64).eps * max(abs(w[0]), abs(w[-1])))
    m, zero = len(alpha), alpha.dtype.type(0)
    pivot, ratio = list(alpha - lam), [zero] * m
    for i, b in enumerate(beta, 1):
        ratio[i] = r = b / pivot[i - 1]
        pivot[i] -= r * b
    y = [alpha.dtype.type(1)] + [zero] * (m - 1)
    for _ in range(2):
        for i in range(1, m):
            y[i] -= ratio[i] * y[i - 1]
        y[-1] /= pivot[-1]
        for i in range(m - 2, -1, -1):
            y[i] = y[i] / pivot[i] - ratio[i + 1] * y[i + 1]
    y = np.array(y)
    y /= np.sqrt(y @ y)
    ty = alpha * y
    ty[:-1] += beta * y[1:]
    ty[1:] += beta * y[:-1]
    return y @ ty, y


def _lanczos(H: tuple, q: np.ndarray, steps: int) -> tuple:
    """Lowest eigenpair of H by Lanczos from q, in q's dtype: ``(energy, vector, steps, converged)``.

    The module's one eigensolver, run twice by :func:`_lowest_level`.  H is a
    hop triplet with ``d`` in q's dtype (:func:`_apply`).  The Krylov block is
    allocated once for ``min(len(q), steps)`` vectors and reorthogonalised in
    full, twice per step.  Each step takes the lowest Ritz pair of the
    tridiagonal T from :func:`_lowest_ritz_pair`, with no dense eigenvector
    solve (its divide and conquer calls ``dgemm`` from m = 26 on and leaves
    BLAS threads spinning).  The run has converged when the pair's residual
    |beta_m y_m| reaches the dtype's eps |theta| or when the Krylov space is
    exhausted, where the pair is exact; otherwise it stops after ``steps``.
    The free-fermion spectrum is degenerate, so one start vector spans only
    as many dimensions as H has distinct eigenvalues: beta_m falls to
    rounding after 3 steps at L = 6 and 11 at L = 10 in k = pi (4 and 26 states).
    """
    dim = len(q)
    steps = min(dim, steps)
    Q = np.empty((steps, dim), dtype=q.dtype)
    alpha, beta = np.zeros(steps, dtype=q.dtype), np.zeros(steps, dtype=q.dtype)
    Q[0] = q / np.linalg.norm(q)
    for m in range(1, steps + 1):
        w = _apply(H, Q[m - 1])
        # np.dot, not @: numpy's matmul is 2.4-3.3x slower on longdouble, with the same sums
        alpha[m - 1] = np.dot(Q[m - 1], w)
        for _ in range(2):
            w -= np.dot(np.dot(Q[:m], w), Q[:m])
        beta[m - 1] = np.linalg.norm(w)
        theta, y = _lowest_ritz_pair(alpha[:m], beta[: m - 1])
        converged = m == dim or abs(beta[m - 1] * y[-1]) <= np.finfo(q.dtype).eps * abs(theta)
        if converged or m == steps:
            return theta, np.dot(y, Q[:m]), m, converged
        Q[m] = w / beta[m - 1]


def _lowest_level(H: tuple) -> tuple:
    """Lowest ``(energy, c)`` of the longdouble hop triplet H, whose every orbit ``a`` has a hop.

    :func:`_lanczos` in float64 from :func:`_start_vector`, then in longdouble
    from the float64 vector; a spent float64 budget raises ``ArithmeticError``.
    """
    a, b, d = H
    _, v, steps, converged = _lanczos(
        (a, b, d.astype(np.float64)), _start_vector(int(a.max()) + 1), _LANCZOS_STEPS)
    if not converged:
        raise ArithmeticError(f"Lanczos did not converge in {steps} steps")
    energy, c, _, _ = _lanczos(H, v.astype(np.longdouble), _POLISH_STEPS)
    return energy, c


@_cached_per_length
def _momentum_level(L: int, other: bool = False, /):
    """Lowest level of momentum k = (M + other) mod 2 (units of pi), expanded to the full sector.

    ``other`` false gives the ground state's sector.  Returns ``(energy, psi)`` in longdouble,
    psi read-only, ordered like ``spin_sector(L).basis`` and the one cached copy of the state.
    """
    sector = spin_sector(L)
    leaders, orbit, phase = _orbits(sector, (sector.M + other) % 2)
    energy, c = _lowest_level(_momentum_hamiltonian(sector, leaders, orbit, phase))
    c /= np.sqrt(c @ c)
    c /= np.sqrt(np.bincount(orbit).astype(np.longdouble))
    psi = c[orbit]
    psi *= phase
    psi.setflags(write=False)
    return energy, psi


def ed_ground_state(L: int) -> tuple[float, np.ndarray]:
    """Lowest eigenpair of the ring Hamiltonian in the M = L/2 sector, from :func:`_momentum_level`.

    Returns ``(energy, amplitudes)``, the amplitudes normalized, ordered like
    ``spin_sector(L).basis`` and rounded afresh from the cached longdouble state.
    Against a full-sector ``eigsh`` the energy and every G(x) agree to 1e-14 at L <= 18.
    """
    energy, psi = _momentum_level(L)
    return float(energy), psi.astype(np.float64)


def ed_spectral_gap(L: int) -> float:
    """Gap E_0(k') - E_0(k) between the two lowest distinct eigenvalues of the M = L/2 sector.

    k is the ground state's momentum and k' the other real one; the longdouble
    difference of their cached :func:`_momentum_level` energies is rounded once,
    within 1.1e-16 of mpmath's 4 sin(pi/L) at L = 6..18.  It is the gap because the
    ground state is simple and the lowest excitation, a particle-hole pair across the
    Fermi sea, carries Delta k = pi and energy 4 sin(pi/L).  Tests in ``test_ed.py``
    check both with no fermions: ``test_ground_state_is_simple`` against ARPACK's two
    lowest full-sector eigenvalues, and ``test_spectral_gap_against_dense_spectrum``.
    """
    return float(_momentum_level(L, True)[0] - _momentum_level(L)[0])


def _pair_values(sector: SpinSector, psi: np.ndarray, lower_site: int, distances) -> np.ndarray:
    """<sigma^+_{lower_site+x} sigma^-_{lower_site}> in the state psi for each x in distances.

    The states with ``lower_site`` up are found and lowered once; each
    distance only tests its raised site among them.  Values are in psi's dtype.
    """
    L, basis, bit = sector.L, sector.basis, np.int64(1 << lower_site)
    src = np.nonzero(basis & bit)[0]
    lowered = basis[src] ^ bit
    out = np.empty(len(distances), dtype=psi.dtype)
    for n, x in enumerate(distances):
        raised = np.int64(1 << ((lower_site + x) % L))
        empty = (lowered & raised) == 0
        out[n] = np.dot(psi[sector.index(lowered[empty] | raised)], psi[src[empty]])
    return out


def ed_correlator_by_site(L: int, x: int) -> np.ndarray:
    """Per-site <sigma^+_{i+x} sigma^-_i>, i = 0..L-1, of the float64 state: their mean is the oracle."""
    sector = spin_sector(L)
    x = check_int("x", x, 1, sector.L - 1)
    _, psi = ed_ground_state(L)
    return np.concatenate([_pair_values(sector, psi, i, (x,)) for i in range(L)])


def ed_correlator(L: int, x: int) -> float:
    """G(x) = <sigma^+_{i+x} sigma^-_i>, the cell x of :func:`ed_correlator_sweep` bit for bit."""
    sector = spin_sector(L)
    x = check_int("x", x, 1, sector.L - 1)
    return float(_pair_values(sector, _momentum_level(L)[1], 0, (x,))[0])


def ed_correlator_sweep(L: int, x_max: int) -> np.ndarray:
    """G(x) for x = 1..x_max, each x independent, from one pair pass over the cached longdouble state.

    The state is exactly symmetric (k = 0) or antisymmetric (k = pi) under
    translation, so site 0 alone is read.  Max relerr against the mpmath sine
    product: 5.6e-17, 8.6e-17 and 7.7e-17 at L = 10, 14 and 18, where the
    full-sector state summed in double over every site gave 6.9e-16, 4.9e-16
    and 1.15e-15.  The float64 oracle is the mean of :func:`ed_correlator_by_site`.
    """
    sector = spin_sector(L)
    x_max = check_int("x_max", x_max, 1, sector.L - 1)
    return _pair_values(sector, _momentum_level(L)[1], 0, range(1, x_max + 1)).astype(np.float64)
