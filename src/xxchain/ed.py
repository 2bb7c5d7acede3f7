"""Exact diagonalization of H = 1/2 sum_i (sx_i sx_{i+1} + sy_i sy_{i+1}) on a ring.

The Hamiltonian is applied to spins directly in the fixed-magnetization
sector M = L/2, with the periodic bond treated like any other bond.  No
fermionization is involved, so results from this module are independent of
all Jordan-Wigner and determinant bookkeeping and serve as ground truth for
:mod:`xxchain.exact`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, SizeError

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
# above this sector dimension the extremal eigenpair is found iteratively
_DENSE_DIM_LIMIT = 1000
# number of set bits in each byte value
_POPCOUNT8 = np.array([bin(b).count("1") for b in range(256)], dtype=np.uint8)


@dataclass(frozen=True)
class SpinSector:
    """Basis of spin configurations with exactly M = L/2 up spins.

    ``basis`` is sorted ascending; bit k of a basis integer is the spin at
    site k.  Index lookup is by binary search, which is bijective on the
    sector by construction.
    """

    L: int
    M: int
    basis: np.ndarray = field(repr=False)

    @property
    def dimension(self) -> int:
        return len(self.basis)

    def index(self, states: np.ndarray) -> np.ndarray:
        return np.searchsorted(self.basis, states)


def _check_length(L: int, allow_even_m: bool) -> None:
    if not isinstance(L, int) or isinstance(L, bool):
        raise DomainError(f"L must be an integer, got {L!r}")
    if L % 2 != 0 or L < 6:
        raise DomainError(f"L must be even and >= 6, got {L}")
    if L > MAX_ED_LENGTH:
        raise SizeError(f"L={L} exceeds the diagonalization guard {MAX_ED_LENGTH}")
    if not allow_even_m and (L // 2) % 2 != 1:
        raise DomainError(f"L must satisfy L/2 odd, got L={L}")


@functools.lru_cache(maxsize=None)
def spin_sector(L: int, allow_even_m: bool = False) -> SpinSector:
    """Build (and cache) the M = L/2 sector for ring length L.

    ``allow_even_m=True`` admits M-even rings (L = 8, 12, 16) for
    exploratory comparisons outside the M-odd regime of the closed formulas.
    """
    _check_length(L, allow_even_m)
    M = L // 2
    states = np.arange(1 << L, dtype=np.int64)
    ups = np.zeros(len(states), dtype=np.uint8)
    for shift in range(0, L, 8):
        ups += _POPCOUNT8[(states >> shift) & 0xFF]
    basis = states[ups == M]
    assert len(basis) == math.comb(L, M)
    basis.setflags(write=False)
    return SpinSector(L=L, M=M, basis=basis)


def _hamiltonian(sector: SpinSector) -> scipy.sparse.csr_matrix:
    # hop amplitude +1 for each flippable bond, periodic closure included
    import scipy.sparse  # deferred, like every scipy import: with scipy.linalg it takes ~0.4 s

    L, basis = sector.L, sector.basis
    rows, cols = [], []
    for i in range(L):
        j = (i + 1) % L
        differ = ((basis >> i) & 1) != ((basis >> j) & 1)
        flipped = basis[differ] ^ ((1 << i) | (1 << j))
        rows.append(sector.index(flipped))
        cols.append(np.nonzero(differ)[0])
    rows = np.concatenate(rows)
    cols = np.concatenate(cols)
    data = np.ones(len(rows))
    dim = sector.dimension
    return scipy.sparse.csr_matrix((data, (rows, cols)), shape=(dim, dim))


@functools.lru_cache(maxsize=None)
def _lowest_pair(L: int, allow_even_m: bool = False):
    """Two lowest eigenvalues and the ground-state vector in the sector."""
    import scipy.linalg
    import scipy.sparse.linalg

    sector = spin_sector(L, allow_even_m)
    H = _hamiltonian(sector)
    if sector.dimension <= _DENSE_DIM_LIMIT:
        w, v = scipy.linalg.eigh(H.toarray(), subset_by_index=[0, 1])
    else:
        # deterministic start vector for run-to-run reproducibility
        v0 = np.ones(sector.dimension) / math.sqrt(sector.dimension)
        w, v = scipy.sparse.linalg.eigsh(H, k=2, which="SA", v0=v0)
    order = np.argsort(w)
    w = w[order]
    psi = np.ascontiguousarray(v[:, order[0]])
    psi /= np.linalg.norm(psi)
    psi.setflags(write=False)
    return float(w[0]), float(w[1]), psi


def ed_ground_state(L: int, allow_even_m: bool = False) -> tuple[float, np.ndarray]:
    """Lowest eigenpair of the ring Hamiltonian in the M = L/2 sector.

    Returns ``(energy, amplitudes)`` with the amplitude vector normalized
    and ordered like ``spin_sector(L).basis``.  Dense solve below dimension
    1000, Lanczos with a fixed start vector above.
    """
    e0, _, psi = _lowest_pair(L, allow_even_m)
    return e0, psi


def ed_spectral_gap(L: int, allow_even_m: bool = False) -> float:
    """Gap between the two lowest sector eigenvalues (simple ground state iff > 0)."""
    e0, e1, _ = _lowest_pair(L, allow_even_m)
    return e1 - e0


def _pair_values(sector: SpinSector, psi: np.ndarray, raise_site: int, lower_site: int) -> float:
    """<sigma^+_{raise_site} sigma^-_{lower_site}> in the state psi."""
    basis = sector.basis
    ok = (((basis >> lower_site) & 1) == 1) & (((basis >> raise_site) & 1) == 0)
    src = np.nonzero(ok)[0]
    moved = (basis[src] & ~np.int64(1 << lower_site)) | np.int64(1 << raise_site)
    dst = sector.index(moved)
    return float(np.dot(psi[dst], psi[src]))


def ed_correlator_by_site(L: int, x: int, allow_even_m: bool = False) -> np.ndarray:
    """Per-site values <sigma^+_{i+x} sigma^-_i> for i = 0..L-1 (translation check)."""
    if not isinstance(x, int) or isinstance(x, bool) or not 1 <= x <= L - 1:
        raise DomainError(f"require 1 <= x <= L-1, got x={x}, L={L}")
    sector = spin_sector(L, allow_even_m)
    _, psi = ed_ground_state(L, allow_even_m)
    return np.array([_pair_values(sector, psi, (i + x) % L, i) for i in range(L)])


def ed_correlator(L: int, x: int, allow_even_m: bool = False) -> float:
    """G(x) = <sigma^+_{i+x} sigma^-_i> averaged over all sites i.

    The state is real by construction (real symmetric Hamiltonian, real
    eigensolver), so the value is returned as a plain float; averaging over
    i removes the residual site noise of the eigensolver.
    """
    return float(np.mean(ed_correlator_by_site(L, x, allow_even_m)))


def ed_correlator_sweep(L: int, x_max: int, allow_even_m: bool = False) -> np.ndarray:
    """G(x) for x = 1..x_max from one pass over the lowered site i.

    For each i the states with a spin up at i are moved to every raised site
    (i + x) mod L at once, and the moved states are looked up in a dense
    int32 rank table over all 2^L spin configurations (1 MB at L = 18).
    A move onto an occupied site leaves the sector; the table sends it to a
    zero amplitude appended to psi.  Averaging over i is as in
    :func:`ed_correlator`, which stays the scalar form and the oracle.
    """
    if not isinstance(x_max, int) or isinstance(x_max, bool) or not 1 <= x_max <= L - 1:
        raise DomainError(f"require 1 <= x_max <= L-1, got x_max={x_max}, L={L}")
    sector = spin_sector(L, allow_even_m)
    _, psi = ed_ground_state(L, allow_even_m)
    basis, dim = sector.basis, sector.dimension
    rank = np.full(1 << L, dim, dtype=np.int32)
    rank[basis] = np.arange(dim, dtype=np.int32)
    amp = np.append(psi, 0.0)
    total = np.zeros(x_max)
    for i in range(L):
        src = np.nonzero((basis >> i) & 1)[0]
        raised = np.int64(1) << ((i + np.arange(1, x_max + 1)) % L)
        moved = (basis[src] ^ np.int64(1 << i))[:, None] | raised
        total += psi[src] @ amp[rank[moved]]
    return total / L
