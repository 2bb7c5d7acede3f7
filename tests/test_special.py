import math
from fractions import Fraction

import pytest

from refs import EULER_GAMMA, ZETA_3, ZETA_3_HALVES, ZETA_5_HALVES, rel
from xxchain import DomainError, bernoulli_numbers, polygamma, zeta_em, zeta_odd
from xxchain import special
from xxchain.special import bernoulli_rationals


def test_bernoulli_exact_values():
    B = bernoulli_numbers()
    assert B[0] == 1.0
    assert B[1] == -0.5
    assert B[2] == 1.0 / 6.0
    assert B[4] == -1.0 / 30.0
    assert B[12] == -691.0 / 2730.0
    assert B[3] == B[5] == 0.0


def test_polygamma_at_one():
    assert polygamma(0, 1.0) == pytest.approx(-EULER_GAMMA, abs=1e-14)
    assert polygamma(1, 1.0) == pytest.approx(math.pi**2 / 6.0, rel=1e-14)
    assert polygamma(0, 2.0) == pytest.approx(1.0 - EULER_GAMMA, abs=1e-14)


def test_polygamma_matches_zeta_identity():
    # psi^(n)(1) = (-1)^(n+1) n! zeta(n+1)
    for n in range(2, 11):
        lhs = polygamma(n, 1.0)
        rhs = (-1.0) ** (n + 1) * math.factorial(n) * zeta_em(float(n + 1))
        assert rel(lhs, rhs) <= 1e-13


def test_zeta3_from_polygamma():
    assert -polygamma(2, 1.0) / 2.0 == pytest.approx(zeta_odd(3), rel=1e-13)


def test_finite_power_sums_from_polygamma():
    # sum_{k<=n} k^-m = (-1)^m / (m-1)! * (psi^(m-1)(1) - psi^(m-1)(n+1)),
    # checked against the brute-force sum
    for m in (2, 3, 5):
        for n in (5, 17, 40):
            brute = sum(k**-m for k in range(1, n + 1))
            via_psi = (
                (-1.0) ** m
                / math.factorial(m - 1)
                * (polygamma(m - 1, 1.0) - polygamma(m - 1, float(n + 1)))
            )
            assert rel(brute, via_psi) <= 1e-13


def test_dual_cut_self_check(monkeypatch):
    grid = [(m, z) for m in range(0, 21) for z in (0.5, 1.0, 1.5, 3.7, 10.0, 25.0, 100.0)]
    assert special._Z_CUT == 16.0
    a = [polygamma(m, z) for m, z in grid]
    monkeypatch.setattr(special, "_Z_CUT", 32.0)
    for (m, z), value in zip(grid, a):
        assert rel(value, polygamma(m, z)) <= 1e-12, (m, z)


def test_recurrence_relation():
    for m, z in ((0, 0.7), (1, 1.3), (3, 2.5), (7, 4.0)):
        step = (-1.0) ** m * math.factorial(m) / z ** (m + 1)
        assert polygamma(m, z + 1.0) - polygamma(m, z) == pytest.approx(step, rel=1e-11)


def test_gradient_check_second_order():
    # (psi(z+h) - psi(z-h)) / 2h -> psi'(z), error shrinking ~h^2
    for z in (1.5, 10.0, 100.0):
        exact = polygamma(1, z)
        errs = []
        for h in (1e-2, 5e-3):
            fd = (polygamma(0, z + h) - polygamma(0, z - h)) / (2.0 * h)
            errs.append(abs(fd - exact))
        assert errs[0] <= 1e-4
        ratio = errs[0] / errs[1]
        assert 3.0 < ratio < 5.0


def test_polygamma_domain():
    with pytest.raises(DomainError):
        polygamma(0, 0.0)
    with pytest.raises(DomainError):
        polygamma(0, -1.0)
    with pytest.raises(DomainError):
        polygamma(-1, 1.0)
    with pytest.raises(DomainError):
        polygamma(65, 1.0)


@pytest.mark.parametrize("m, z, expected", [(1, 1e-200, math.inf), (2, 1e-110, -math.inf), (4, 1e-70, -math.inf)])
def test_polygamma_overflows_where_the_power_underflows(m, z, expected):
    # z^(m+1) underflows to 0.0 in each case; where it is subnormal instead, as in polygamma(1, 1e-160),
    # m!/z^(m+1) overflows to the same inf
    assert polygamma(m, z) == expected


def test_zeta_em_reference_values():
    assert zeta_em(2.0) == pytest.approx(math.pi**2 / 6.0, rel=1e-15)
    assert zeta_em(1.5) == pytest.approx(ZETA_3_HALVES, rel=1e-15)
    assert zeta_em(2.5) == pytest.approx(ZETA_5_HALVES, rel=1e-15)
    with pytest.raises(DomainError):
        zeta_em(1.0)
    assert zeta_em(math.inf) == zeta_em(1e308) == 1.0


def test_zeta_odd_values_and_monotonicity():
    assert zeta_odd(3) == pytest.approx(ZETA_3, abs=1e-15)
    vals = [zeta_odd(s) for s in range(3, 82, 2)]
    # decreasing toward 1; ties appear once 2^-s drops below one ulp of 1.0
    assert all(a >= b for a, b in zip(vals, vals[1:]))
    strict = [zeta_odd(s) for s in range(3, 52, 2)]
    assert all(a > b for a, b in zip(strict, strict[1:]))
    assert all(v >= 1.0 for v in vals)
    assert vals[-1] == pytest.approx(1.0 + 2.0**-81 + 3.0**-81, rel=1e-15)


def test_zeta_odd_domain():
    for s in (2, 4, 1, 83, -3):
        with pytest.raises(DomainError):
            zeta_odd(s)
    with pytest.raises(DomainError):
        zeta_odd(3.0)  # type: ignore[arg-type]


def test_bernoulli_numbers_against_mpmath():
    mp = pytest.importorskip("mpmath")
    exact = tuple(float(Fraction(*mp.bernfrac(k))) for k in range(123))
    assert bernoulli_numbers() == exact


def test_bernoulli_rationals_are_exact():
    mp = pytest.importorskip("mpmath")
    exact = bernoulli_rationals()
    assert exact == tuple(mp.bernfrac(k) for k in range(123))
    assert tuple(num / den for num, den in exact) == bernoulli_numbers()
    assert bernoulli_rationals(4) == ((1, 1), (-1, 2), (1, 6), (0, 1), (-1, 30))
