import math

import numpy as np
import pytest

from refs import C0, C0_OVER_SQRT_PI, momentum_filling_energy, rel, sector_hamiltonian
from xxchain import (
    AsymptoticParams,
    DomainError,
    INFINITE,
    LatticeSpec,
    asym_finite,
    asym_infinite,
    correlator,
    finite_size_energy,
    luttinger_from_lambda,
)

PI = math.pi
PARAMS = AsymptoticParams(alpha=0.5, c0=C0)


def test_free_fermion_point():
    p = luttinger_from_lambda(0.0)
    assert p.u == 1.0
    assert p.xi == 1.0
    assert p.eta == pytest.approx(PI / 2.0, rel=1e-15)
    assert p.delta == pytest.approx(0.0, abs=1e-15)
    assert p.alpha == 0.5


def test_luttinger_direct_substitution():
    p = luttinger_from_lambda(0.6)
    assert p.u == pytest.approx(0.8, rel=1e-15)
    assert p.xi == pytest.approx(2.0, rel=1e-15)


def test_luttinger_symmetries():
    for lam in (0.1, 0.35, 0.8, 0.99):
        plus = luttinger_from_lambda(lam)
        minus = luttinger_from_lambda(-lam)
        assert plus.xi * minus.xi == pytest.approx(1.0, rel=1e-14)
        assert plus.u == minus.u


def test_luttinger_eta_map_is_consistent():
    # the stored eta inverts to the stored xi, and delta = cos(eta)
    for lam in (-0.7, -0.2, 0.0, 0.4, 0.9):
        p = luttinger_from_lambda(lam)
        assert 2.0 * (PI - p.eta) / PI == pytest.approx(p.xi, rel=1e-14)
        assert p.delta == pytest.approx(math.cos(p.eta), abs=1e-15)


def test_luttinger_domain():
    for lam in (1.0, -1.0, 1.5):
        with pytest.raises(DomainError):
            luttinger_from_lambda(lam)


def test_finite_size_energy_values():
    p0 = luttinger_from_lambda(0.0)
    assert finite_size_energy(0, 0, p0, 100) == 0.0
    assert finite_size_energy(1, 0, p0, 64) == pytest.approx(PI / 128.0, rel=1e-15)
    p = luttinger_from_lambda(0.6)
    assert finite_size_energy(0, 2, p, 100) == pytest.approx(PI / 125.0, rel=1e-14)


@pytest.mark.parametrize("L", [6, 8, 10, 12])
def test_filling_off_half_filling_matches_the_spin_sector(L):
    # the M = L/2 +- 1 filling (periodic for M odd, antiperiodic for M even) against
    # a dense diagonalization of the spin sector, with no fermions: within 1.2e-14
    for M in (L // 2 - 1, L // 2 + 1):
        lowest = np.linalg.eigvalsh(sector_hamiltonian(L, M).toarray())[0]
        assert abs(lowest - momentum_filling_energy(L, M)) <= 3e-14


@pytest.mark.parametrize("L", [6, 10, 14, 18, 102])
def test_finite_size_energy_units(L):
    # H is in Pauli matrices, so v = 2: the M +- 1 gap is twice the value at u = 1,
    # up to (pi^2/6) / L^2 relative; L^4 times the remainder reads 1.62-1.67 (pi^4/60)
    unit = finite_size_energy(1, 0, luttinger_from_lambda(0.0), L)
    for M in (L // 2 - 1, L // 2 + 1):
        gap = momentum_filling_energy(L, M) - momentum_filling_energy(L)
        assert abs((gap / unit - 2) * L**2 - PI**2 / 6) <= 2 / L**2


def test_finite_size_energy_symmetry():
    p = luttinger_from_lambda(0.3)
    for dn, dq in ((1, 0), (0, 3), (2, 1)):
        assert finite_size_energy(dn, dq, p, 50) == finite_size_energy(-dn, -dq, p, 50)


def test_asym_finite_structure():
    L = 1026
    x = L // 2
    v = asym_finite(x, L, PARAMS)
    assert v == pytest.approx(C0 * (-1.0) ** x / math.sqrt(L), rel=1e-14)
    with pytest.raises(DomainError):
        asym_finite(0, L, PARAMS)
    with pytest.raises(DomainError):
        asym_finite(L, L, PARAMS)


def test_two_forms_agree_at_large_l():
    L = 10**6
    for x in (1, 10, 100):
        finite = asym_finite(x, L, PARAMS)
        leading = asym_infinite(x, PARAMS).leading
        assert rel(finite, leading) <= 1e-6


def test_finite_form_approaches_leading_at_second_order():
    # at fixed x the two forms differ by O((x/L)^2): quartering per L-doubling
    for x in (3, 11):
        diffs = [
            abs(asym_finite(x, L, PARAMS) / asym_infinite(x, PARAMS).leading - 1.0)
            for L in (402, 802)
        ]
        assert 3.5 < diffs[0] / diffs[1] < 4.5


def test_asym_infinite_values():
    pair = asym_infinite(100, PARAMS)
    assert pair.leading == pytest.approx(C0_OVER_SQRT_PI / 10.0, rel=1e-12)
    assert pair.leading == pytest.approx(0.0294176, abs=1e-6)
    one = asym_infinite(1, PARAMS)
    assert one.two_term == pytest.approx(-1.125 * C0_OVER_SQRT_PI, rel=1e-12)
    assert one.two_term == pytest.approx(-0.330948, abs=2e-6)
    # close to the exact -1/pi even at x = 1
    assert abs(one.two_term - (-1.0 / PI)) < 0.013


def test_asym_sign_pattern():
    for x in range(1, 12):
        lead = asym_infinite(x, PARAMS).leading
        assert (lead > 0) == (x % 2 == 0)


def test_two_term_improves_on_leading():
    for x in (10, 50, 200, 1000, 2000):
        x_even = x if x % 2 == 0 else x + 1
        exact = correlator(x_even, INFINITE).value
        pair = asym_infinite(x_even, PARAMS)
        assert abs(exact - pair.two_term) <= abs(exact - pair.leading)


def test_true_finite_size_scaling_is_second_order():
    # The measured deviation from the finite-ring form at fixed x/L falls
    # off as 1/L^2: dev * L^2 is L-independent, dev * L is not.
    dev_l2 = []
    for L in (258, 514, 1026):
        x = L // 2
        exact = correlator(x, LatticeSpec.finite(L)).value
        asym = asym_finite(x, L, PARAMS)
        dev_l2.append((exact / asym - 1.0) * L * L)
    mean = sum(dev_l2) / len(dev_l2)
    assert all(abs(v / mean - 1.0) < 0.2 for v in dev_l2)
    print("dev*L^2 at x=L/2:", [f"{v:.5f}" for v in dev_l2])


def test_params_validation():
    with pytest.raises(DomainError):
        AsymptoticParams(alpha=-0.5, c0=C0)
    with pytest.raises(DomainError):
        AsymptoticParams(alpha=0.5, c0=0.0)
    with pytest.raises(DomainError):
        asym_infinite(0, PARAMS)
