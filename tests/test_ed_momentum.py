"""The momentum-sector solve against the full sector, and its cache.

M-odd rings solve in k = pi.  The k = 0 solve of M-even rings is checked by
``test_even_m_rings_use_k_0`` and ``test_even_m_solve_and_gap_are_reproducible``;
``test_gap_reuses_the_ground_state_solve`` checks that the gap reads the
ground state's cached solve, and ``test_each_level_caches_one_longdouble_state``
that the cache holds one copy of each state.
"""

import inspect

import numpy as np
import pytest

from refs import eigsh_pair, momentum_filling_energy, rel, sector_hamiltonian
from xxchain import ed_ground_state, ed_spectral_gap, exact, greens, spin_sector
from xxchain import ed
from xxchain.ed import (
    _LANCZOS_STEPS,
    _apply,
    _lanczos,
    _momentum_hamiltonian,
    _momentum_level,
    _orbits,
    _pair_values,
    _start_vector,
    ed_correlator_by_site,
    ed_correlator_sweep,
)

# max relerr of the full-sector ED column against mpmath before the k = pi route
FULL_SECTOR_RELERR = {10: 6.9e-16, 14: 4.9e-16, 18: 1.15e-15}


def _translate(states, L):
    return ((states << 1) | (states >> (L - 1))) & ((1 << L) - 1)


def _full_sector_correlators(L):
    """G(1..L-1) from the full-sector oracle state, averaged over every site."""
    sector = spin_sector(L)
    psi = eigsh_pair(L)[2]
    return np.mean([_pair_values(sector, psi, i, range(1, L)) for i in range(L)], axis=0)


def _k_pi_hamiltonian(L, dtype=np.float64):
    sector = spin_sector(L)
    leaders, orbit, phase = _orbits(sector, 1)
    a, b, d = _momentum_hamiltonian(sector, leaders, orbit, phase)
    return (a, b, d.astype(dtype)), len(leaders)


def _dense(H, dim):
    a, b, d = H
    dense = np.zeros((dim, dim), dtype=d.dtype)
    np.add.at(dense, (b, a), d)
    return dense


@pytest.mark.parametrize("L", [6, 10, 14])
def test_k_pi_bond_matrix_is_symmetric(L):
    # the matvec scatters into a, so it applies H^T
    H, dim = _k_pi_hamiltonian(L)
    dense = _dense(H, dim)
    assert np.array_equal(dense, dense.T)


@pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
@pytest.mark.parametrize("L", [6, 10, 14])
def test_apply_is_the_sequential_hop_sum(L, dtype):
    # each row adds its hops in the triplet's bond order, as this loop does;
    # the solve's states depend on that order bit for bit (a row-sorted
    # np.add.reduceat sums pairwise and moves the float64 matvec by 8.9e-16)
    (a, b, d), dim = _k_pi_hamiltonian(L, dtype)
    v = _start_vector(dim).astype(dtype)
    expected = np.zeros(dim, dtype=dtype)
    for k in range(len(a)):
        expected[a[k]] += d[k] * v[b[k]]
    assert np.array_equal(_apply((a, b, d), v), expected)


@pytest.mark.parametrize("L", [6, 10, 14])
def test_lanczos_energy_matches_dense_spectrum(L):
    H, dim = _k_pi_hamiltonian(L)
    energy, _, _, _ = _lanczos(H, _start_vector(dim), _LANCZOS_STEPS)
    assert abs(energy - np.linalg.eigvalsh(_dense(H, dim))[0]) <= 1e-13


@pytest.mark.parametrize("L", [6, 10])
def test_lanczos_ends_on_krylov_exhaustion(L):
    # below the step budget the Krylov space of the start vector runs out
    # after one step per distinct eigenvalue, and the Ritz pair is exact
    H, dim = _k_pi_hamiltonian(L)
    dense = _dense(H, dim)
    w = np.linalg.eigvalsh(dense)
    distinct = 1 + int(np.sum(np.diff(w) > 1e-9))
    energy, v, steps, converged = _lanczos(H, _start_vector(dim), _LANCZOS_STEPS)
    assert dim < _LANCZOS_STEPS and converged
    assert steps == distinct < dim
    assert abs(energy - w[0]) <= 1e-13
    assert abs(np.linalg.norm(v) - 1) <= 1e-14
    assert np.linalg.norm(dense @ v - energy * v) <= 1e-14


def test_lanczos_raises_when_the_budget_runs_out(monkeypatch):
    monkeypatch.setattr(ed, "_LANCZOS_STEPS", 8)
    _momentum_level.cache_clear()
    with pytest.raises(ArithmeticError, match="8 steps"):
        ed_ground_state(14)
    H, dim = _k_pi_hamiltonian(14)
    assert _lanczos(H, _start_vector(dim), 8)[2:] == (8, False)


def test_lanczos_converges_in_longdouble():
    # the same loop on the longdouble triplet stops on its own eps, far below float64's
    H, dim = _k_pi_hamiltonian(10, np.longdouble)
    energy, v, steps, converged = _lanczos(H, _start_vector(dim).astype(np.longdouble), _LANCZOS_STEPS)
    assert converged and steps < dim
    assert energy.dtype == v.dtype == np.longdouble
    dense = _dense(H, dim)
    v = v / np.sqrt(v @ v)
    residual = dense @ v - energy * v
    assert float(np.sqrt(residual @ residual)) <= 1e-17 * abs(float(energy))


@pytest.mark.parametrize("L", [6, 10, 14, 18])
def test_k_pi_route_matches_full_sector(L):
    energy, psi = ed_ground_state(L)
    e_full, _, psi_full = eigsh_pair(L)
    assert rel(energy, e_full) <= 1e-14
    assert abs(float(psi @ psi_full)) >= 1 - 1e-13
    G = ed_correlator_sweep(L, L - 1)
    oracle = _full_sector_correlators(L)
    assert max(rel(a, b) for a, b in zip(G, oracle)) <= 1e-14


@pytest.mark.parametrize("L", [6, 10, 18])
def test_k_pi_state_is_antisymmetric_under_translation(L):
    sector = spin_sector(L)
    shifted = sector.index(_translate(sector.basis, L))
    _, psi_ld = _momentum_level(L)
    psi = ed_ground_state(L)[1]
    assert np.array_equal(psi[shifted], -psi)
    assert np.array_equal(psi_ld[shifted], -psi_ld)
    assert np.array_equal(psi, psi_ld.astype(np.float64))


def test_k_pi_state_is_an_eigenvector_in_longdouble():
    # the expansion commutes with H and keeps norms, so the full-sector
    # residual of the expanded state is the polished k = pi residual
    L = 18
    _, psi = _momentum_level(L)
    H = sector_hamiltonian(L).astype(np.longdouble)
    h_psi = H @ psi
    # np.sum sums pairwise; numpy's longdouble dot sums in sequence, which
    # over 48,620 terms of one size is off by ~6e-16
    residual = h_psi - np.sum(psi * h_psi) * psi
    assert float(np.sqrt(np.sum(residual * residual))) <= 1e-16
    assert abs(float(np.sum(psi * psi)) - 1) <= 1e-18


@pytest.mark.parametrize("L", sorted(FULL_SECTOR_RELERR))
def test_ed_sweep_against_mpmath(L):
    mp = pytest.importorskip("mpmath")
    from reference import _wick_det

    G = ed_correlator_sweep(L, L - 1)
    with mp.workdps(30):
        ref = [_wick_det(x, L) for x in range(1, L)]
        worst = max(float(abs(mp.mpf(float(g)) / r - 1)) for g, r in zip(G, ref))
    assert worst <= FULL_SECTOR_RELERR[L]


@pytest.mark.parametrize("L", [14, 18])
def test_start_vector_overlaps_ground_state(L):
    psi = eigsh_pair(L)[2]
    v0 = _start_vector(len(psi))
    assert abs(float(v0 @ psi)) / np.linalg.norm(v0) >= 1e-3
    # the uniform vector lies in k = 0, orthogonal to the k = pi ground state
    assert abs(float(psi.sum())) / np.sqrt(len(psi)) <= 1e-12


def test_ed_runs_with_fermion_routes_disabled(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("ED called into a fermionic route")

    for module in (exact, greens):
        for name, obj in list(vars(module).items()):
            if callable(obj) and getattr(obj, "__module__", None) == module.__name__:
                monkeypatch.setattr(module, name, refuse)
    for cache in (spin_sector, _momentum_level):
        cache.cache_clear()
    L = 14
    energy, _ = ed_ground_state(L)
    assert energy == pytest.approx(momentum_filling_energy(L), abs=1e-11)
    assert ed_spectral_gap(L) > 1e-6
    G = ed_correlator_sweep(L, L - 1)
    assert rel(G[2], np.mean(ed_correlator_by_site(L, 3))) <= 1e-14


@pytest.mark.parametrize("L", [8, 12, 16])
def test_even_m_rings_use_k_0(L):
    sector = spin_sector(L)
    energy, psi = ed_ground_state(L)
    assert np.array_equal(psi[sector.index(_translate(sector.basis, L))], psi)
    e_full, _, psi_full = eigsh_pair(L)
    assert rel(energy, e_full) <= 1e-14
    assert abs(float(psi @ psi_full)) >= 1 - 1e-13
    G = ed_correlator_sweep(L, L - 1)
    assert max(rel(a, b) for a, b in zip(G, _full_sector_correlators(L))) <= 1e-14
    # the k = 0 solve is 1.9e-16, 2.0e-16 and 7.6e-16 from the mpmath filling
    # energy at L = 8, 12 and 16, and eigsh 3.3e-15 and 1.5e-14 at 12 and 16;
    # the float64 momentum_filling_energy is itself 1.1e-15 off at L = 8
    assert abs(energy - momentum_filling_energy(L)) <= 2e-15


def test_even_m_solve_and_gap_are_reproducible():
    # 30 eigsh solves at L = 8 gave 8 distinct ground energies.  Longdouble
    # arrays are compared by value: the 6 padding bytes of an x87 long double
    # may differ between equal arrays, so tobytes() can differ too
    runs = []
    for _ in range(30):
        _momentum_level.cache_clear()
        energy, psi = ed_ground_state(8)
        runs.append((energy, ed_spectral_gap(8), psi, _momentum_level(8)[1]))
    energy, gap, psi, psi_ld = runs[0]
    for run in runs[1:]:
        assert run[:2] == (energy, gap)
        assert np.array_equal(run[2], psi) and np.array_equal(run[3], psi_ld)


def test_k_pi_solve_reproducible():
    a, psi_a = ed_ground_state(14)
    _momentum_level.cache_clear()  # force a genuine re-solve, not a cache hit
    b, psi_b = ed_ground_state(14)
    assert psi_a is not psi_b
    assert abs(a - b) <= 1e-14
    assert np.max(np.abs(psi_a - psi_b)) <= 1e-14


def test_k_pi_solve_calls_no_dense_eigh(monkeypatch):
    # the divide and conquer of np.linalg.eigh calls dgemm from m = 26 on,
    # which leaves BLAS threads spinning after the solve
    L = 18
    energy = ed_ground_state(L)[0]

    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg.eigh was called")

    monkeypatch.setattr(np.linalg, "eigh", refuse)
    _momentum_level.cache_clear()
    assert abs(ed_ground_state(L)[0] - energy) <= 1e-14


@pytest.mark.parametrize("cache, call", [
    (spin_sector, spin_sector), (_momentum_level, ed_ground_state), (_momentum_level, ed_spectral_gap)])
def test_numpy_integer_length_hits_the_cache(cache, call):
    # the key is the checked Python int, so a numpy integer reads L = 10's
    # entries: one, or both momentum sectors' for the gap
    entries = 2 if call is ed_spectral_gap else 1
    cache.cache_clear()
    call(10)
    call(np.int64(10))
    info = cache.cache_info()
    assert (info.misses, info.hits) == (entries, entries)


def test_gap_reuses_the_ground_state_solve(monkeypatch):
    # after the ground state, the gap solves only the other sector: one
    # float64 and one longdouble Lanczos run
    _momentum_level.cache_clear()
    ed_ground_state(10)
    runs = []

    def counted(*args):
        runs.append(args[1].dtype)
        return _lanczos(*args)

    monkeypatch.setattr(ed, "_lanczos", counted)
    ed_spectral_gap(10)
    assert runs == [np.float64, np.longdouble]


def test_cache_key_fills_in_the_default():
    # the key is the checked L and every later argument, its default filled
    # in; those arguments are positional-only, as the signature says
    _momentum_level.cache_clear()
    _momentum_level(10)
    _momentum_level(10, False)
    info = _momentum_level.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    other = inspect.signature(_momentum_level).parameters["other"]
    assert other.kind is inspect.Parameter.POSITIONAL_ONLY and other.default is False
    with pytest.raises(TypeError):
        _momentum_level(10, other=True)


def test_each_level_caches_one_longdouble_state():
    # each level keeps its longdouble state alone; ed_ground_state hands out a
    # new float64 rounding of it, which the caller may overwrite
    L = 10
    _momentum_level.cache_clear()
    ed_spectral_gap(L)
    for other in (False, True):
        entry = _momentum_level(L, other)
        assert len(entry) == 2
        energy, psi = entry
        assert isinstance(energy, np.longdouble)
        assert psi.dtype == np.longdouble and psi.shape == (252,) and not psi.flags.writeable
    state = ed_ground_state(L)[1]
    assert state.dtype == np.float64
    assert np.array_equal(state, _momentum_level(L)[1].astype(np.float64))
    G = ed_correlator_sweep(L, L - 1)
    state[:] = 0
    assert np.array_equal(ed_correlator_sweep(L, L - 1), G)
