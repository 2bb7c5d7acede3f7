import math
import tracemalloc

import numpy as np
import pytest

from refs import eigsh_pair, momentum_filling_energy, rel, sector_hamiltonian
from xxchain import (
    DomainError,
    LatticeSpec,
    SizeError,
    correlator,
    correlator_det,
    ed,
    ed_correlator,
    ed_ground_state,
    ed_spectral_gap,
    spin_sector,
)
from xxchain.ed import (
    _momentum_level,
    ed_correlator_by_site,
    ed_correlator_sweep,
)
from xxchain.exact import correlator_det_sweep, correlator_sweep


def test_sector_shape():
    sec = spin_sector(10)
    assert sec.dimension == math.comb(10, 5)
    assert all(bin(int(s)).count("1") == 5 for s in sec.basis)
    assert np.all(np.diff(sec.basis) > 0)


@pytest.mark.parametrize("L", [6, 8, 12, 14, 18])
def test_sector_basis_equals_loop_build(L):
    # the Python loop over 2^L that the combinatorial build replaced
    loop = np.array([s for s in range(1 << L) if bin(s).count("1") == L // 2], dtype=np.int64)
    basis = spin_sector(L).basis
    assert basis.dtype == loop.dtype
    assert np.array_equal(basis, loop)


def test_ground_energy_small_ring():
    energy, psi = ed_ground_state(6)
    assert energy == pytest.approx(-4.0, abs=1e-11)
    assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("L", [6, 10, 14, 18])
def test_ground_energy_matches_momentum_filling(L):
    energy, _ = ed_ground_state(L)
    assert energy == pytest.approx(momentum_filling_energy(L), abs=1e-11)


@pytest.mark.parametrize("L", [6, 10, 14, 16])
def test_ground_state_is_simple(L):
    # ARPACK's two lowest full-sector eigenvalues, from a Hamiltonian built
    # bond by bond with no momentum and no fermions: a degenerate ground state
    # would give e1 = e0, and the gap read from the two real momentum sectors
    # must be their difference
    e0, e1, _ = eigsh_pair(L)
    assert e1 - e0 > 1e-6
    assert abs(ed_spectral_gap(L) - (e1 - e0)) <= 1e-12


def test_energy_reproducible():
    # two solves of both momentum sectors, bit for bit: the solve cache is
    # cleared in between; test_k_pi_solve_reproducible covers the ground state
    gap = ed_spectral_gap(14)
    _momentum_level.cache_clear()
    assert ed_spectral_gap(14) == gap


def test_ed_memory_scales_with_the_sector():
    # traced peaks in units of the int64 basis; the 2^L popcount build and
    # rank table read 12 and 8 units here
    L = 18
    unit = 8 * math.comb(L, L // 2)
    ed_correlator_sweep(L, L - 1)  # the solve, so the sweep below is the pair pass alone
    spin_sector.cache_clear()
    tracemalloc.start()
    try:
        spin_sector(L)
        basis_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        ed_correlator_sweep(L, L - 1)
        sweep_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert basis_peak <= 4 * unit
    assert sweep_peak <= 4 * unit


def test_k_pi_solve_memory():
    # traced peak of the k = pi solve in basis units, with the sector cached;
    # it bounds ED's memory.  Orbit-sized work keeps it near 9.5, reached in
    # the float64 Lanczos: its block of 64 vectors and the matvec's hop-sized
    # temporaries.  A per-state orbit-length array and a full-sector
    # longdouble sqrt(length) read 11.8

    L = 18
    unit = 8 * math.comb(L, L // 2)
    spin_sector(L)
    _momentum_level.cache_clear()
    tracemalloc.start()
    try:
        _momentum_level(L)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 10 * unit


def test_spectral_gap_memory():
    # traced peak of the gap in basis units, with the sector cached and the
    # solve cache cleared: two momentum-sector solves, one after the other,
    # both cached with their expanded longdouble states alone, read 11.5
    # (12.5 with a float64 copy of each, 10.5 when the gap kept the energies
    # alone); the full-sector Lanczos with its 100 x 48,620 float64 block read 160.2
    L = 18
    unit = 8 * math.comb(L, L // 2)
    spin_sector(L)
    _momentum_level.cache_clear()
    tracemalloc.start()
    try:
        ed_spectral_gap(L)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * unit


@pytest.mark.parametrize("L", [6, 8, 10, 12])
def test_spectral_gap_against_dense_spectrum(L):
    w = np.linalg.eigvalsh(sector_hamiltonian(L).toarray())
    assert abs(ed_spectral_gap(L) - (w[1] - w[0])) <= 1e-12


@pytest.mark.parametrize("L", range(6, 20, 2))
def test_spectral_gap_is_the_free_fermion_gap(L):
    # one particle-hole excitation across the Fermi sea, Delta k = pi, on either
    # parity.  The difference of the two longdouble sector energies is within
    # 1.1e-16 of mpmath's; the float64-rounded energies would give up to
    # 7.1e-16 (L = 18), and eigsh gives up to 3.3e-14 (L = 16)
    assert abs(ed_spectral_gap(L) - 4 * math.sin(math.pi / L)) <= 1e-15


@pytest.mark.parametrize("L", [6, 10, 14])
def test_ed_vs_determinant_and_product(L):
    lat = LatticeSpec.finite(L)
    for x in range(1, L):
        e = ed_correlator(L, x)
        assert rel(e, correlator_det(x, lat)) <= 1e-10
        assert rel(e, correlator(x, lat).value) <= 1e-10


@pytest.mark.parametrize("L, even_m", [(6, False), (10, False), (14, False), (18, False), (12, True)])
def test_ed_sweep_equals_per_x(L, even_m):
    # even_m labels the sector; ED takes it from L alone
    assert spin_sector(L).M % 2 == (not even_m)
    sweep = ed_correlator_sweep(L, L - 1)
    assert sweep.shape == (L - 1,)
    for x in range(1, L):
        assert rel(sweep[x - 1], np.mean(ed_correlator_by_site(L, x))) <= 1e-14
    assert np.allclose(ed_correlator_sweep(L, 2), sweep[:2], rtol=1e-14, atol=0)


@pytest.mark.parametrize("L, even_m", [(6, False), (10, False), (14, False), (18, False),
                                       (8, True), (12, True), (16, True)])
def test_ed_correlator_is_the_sweep_cell(L, even_m, monkeypatch):
    # one ED value per distance: the scalar form reads the sweep's pair pass, not the float64 oracle
    def oracle(*args, **kwargs):
        raise AssertionError("ed_correlator called the float64 oracle")

    assert spin_sector(L).M % 2 == (not even_m)
    sweep = ed_correlator_sweep(L, L - 1)
    monkeypatch.setattr(ed, "ed_correlator_by_site", oracle)
    assert [ed_correlator(L, x) for x in range(1, L)] == sweep.tolist()


def test_ed_sweep_guards():
    for bad in (0, 10, 2.0, True):
        with pytest.raises(DomainError):
            ed_correlator_sweep(10, bad)
    # any even L <= MAX_ED_LENGTH is admitted: M = 4 solves in k = 0
    assert np.array_equal(ed_correlator_sweep(8, 3), ed_correlator_sweep(8, 7)[:3])
    for bad in (9, 4):
        with pytest.raises(DomainError):
            ed_correlator_sweep(bad, 3)
    with pytest.raises(SizeError):
        ed_correlator_sweep(22, 3)


@pytest.mark.parametrize("call", [ed_correlator, ed_correlator_by_site, ed_correlator_sweep])
@pytest.mark.parametrize("L", [None, "18", 18.0, True])
def test_length_checked_before_distance(call, L):
    with pytest.raises(DomainError):
        call(L, 3)


def test_translation_invariance():
    vals = ed_correlator_by_site(10, 3)
    assert np.max(vals) - np.min(vals) <= 1e-10


def test_hermiticity():
    # <s+_{i+x} s-_i> vs the adjoint orientation <s+_i s-_{i+x}>
    for L, x in ((6, 2), (10, 3)):
        forward = ed_correlator(L, x)
        backward = ed_correlator(L, L - x)
        assert abs(forward - backward) <= 1e-12


def test_ring_reflection_small():
    for x in (1, 2):
        assert ed_correlator(6, x) == pytest.approx(ed_correlator(6, 6 - x), abs=1e-12)


def test_sign_staggering_from_diagonalization():
    assert ed_correlator(10, 5) < 0
    assert ed_correlator(10, 4) > 0


def test_admissibility():
    # an M-even ring solves in k = 0: its ground state is translation-symmetric
    energy, psi = ed_ground_state(8)
    sector = spin_sector(8)
    translated = ((sector.basis << 1) | (sector.basis >> 7)) & 0xFF
    assert np.array_equal(psi[sector.index(translated)], psi)
    assert energy == pytest.approx(momentum_filling_energy(8), abs=1e-11)
    for bad in (7, 9, 4):
        with pytest.raises(DomainError):
            ed_ground_state(bad)
    with pytest.raises(SizeError):
        ed_ground_state(20)
    with pytest.raises(DomainError):
        ed_correlator(10, 0)
    with pytest.raises(DomainError):
        ed_correlator(10, 10)


@pytest.mark.parametrize("L", [8, 12, 16])
def test_m_even_rings_agree_with_ed_on_every_route(L):
    # on these rings the kernel fold carries G0(L - d) = -G0(d) at odd d; ED, on spins alone, checks that sign
    lat = LatticeSpec.finite(L)
    expected = ed_correlator_sweep(L, L - 1)
    routes = {
        "det sweep": correlator_det_sweep(L - 1, lat),
        "det LU": [correlator_det(x, lat) for x in range(1, L)],
        "product": correlator_sweep(L - 1, lat),
    }
    for name, values in routes.items():
        # at most 1.4e-16, 1.9e-16 and 4.2e-16 measured at L = 8, 12 and 16
        assert max(map(rel, values, expected)) <= 1e-15, name
