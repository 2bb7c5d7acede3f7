import math

import pytest

from xxchain import DomainError, INFINITE, LatticeSpec, ed_correlator, g0


def test_infinite_values():
    assert g0(0, INFINITE) == 0.5
    assert g0(1, INFINITE) == pytest.approx(1.0 / math.pi, rel=1e-15)
    assert g0(2, INFINITE) == 0.0
    assert g0(-5, INFINITE) == pytest.approx(1.0 / (5.0 * math.pi), rel=1e-15)


def test_finite_values():
    assert g0(1, LatticeSpec.finite(6)) == pytest.approx(1.0 / 3.0, rel=1e-15)
    assert g0(2, LatticeSpec.finite(10)) == 0.0
    assert g0(0, LatticeSpec.finite(10)) == 0.5


@pytest.mark.parametrize("L", [6, 8, 10, 12, 14, 62, 64])
def test_ring_reflection(L):
    # g0(L - x) = (-1)^(M+1) g0(x) at odd x: periodic for M odd, antiperiodic for M even
    lat = LatticeSpec.finite(L)
    sign = 1 if (L // 2) % 2 else -1
    for x in range(1, L):
        assert g0(L - x, lat) == pytest.approx((sign if x % 2 else 1) * g0(x, lat), abs=1e-15)


@pytest.mark.parametrize("L", [6, 10, 62])
def test_evenness_and_even_zeros(L):
    lat = LatticeSpec.finite(L)
    for x in range(1, L):
        assert g0(-x, lat) == g0(x, lat)
        if x % 2 == 0:
            assert g0(x, lat) == 0.0


def test_large_argument_reduction_is_exact():
    # reduced evaluation must agree with the raw formula away from arg ~ pi
    lat = LatticeSpec.finite(1026)
    for x in (1, 333, 511, 1025, -1025):
        raw = math.sin(math.pi * x / 2) / (1026 * math.sin(math.pi * x / 1026))
        assert g0(x, lat) == pytest.approx(raw, rel=1e-12)


def test_finite_to_infinite_convergence_is_second_order():
    # |g0(x, L) - g0(x, inf)| should drop ~4x when L doubles
    for x in (1, 3, 7):
        d1 = abs(g0(x, LatticeSpec.finite(402)) - g0(x, INFINITE))
        d2 = abs(g0(x, LatticeSpec.finite(802)) - g0(x, INFINITE))
        ratio = d1 / d2
        assert 3.5 < ratio < 4.5


# 8 and 12 are rings as integers (M-even is admitted); spelled as floats they stay bad lengths
@pytest.mark.parametrize(
    "L", [4, 7, 0, -6, pytest.param(8.0, id="8"), pytest.param(12.0, id="12")]
)
def test_bad_lengths_rejected(L):
    with pytest.raises(DomainError):
        LatticeSpec.finite(L)


def test_one_length_rule_for_every_route():
    # every even L >= 6 is a ring, M = L/2 odd or even; ED applies the same rule below its size guard
    for L in (6, 8, 10, 12, 2**63 + 4):
        assert LatticeSpec.finite(L).length == L
    for bad in (4, 7, 0, -6, 8.0, True):
        with pytest.raises(DomainError) as lattice_error:
            LatticeSpec.finite(bad)
        with pytest.raises(DomainError) as ed_error:
            ed_correlator(bad, 1)
        assert str(ed_error.value) == str(lattice_error.value)


def test_out_of_range_x_rejected():
    lat = LatticeSpec.finite(10)
    for x in (10, -10, 11):
        with pytest.raises(DomainError):
            g0(x, lat)
    with pytest.raises(DomainError):
        g0(1.5, lat)  # type: ignore[arg-type]
