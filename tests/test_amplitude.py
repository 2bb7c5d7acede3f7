import math

import pytest

from refs import (
    AMPLITUDE_HALF,
    B_CONST,
    C0,
    C0_OVER_SQRT_PI,
    GLAISHER_A,
    LN_B,
    LUKYANOV_I,
    SUB_COEFF,
    ZETA_PRIME_M1,
    rel,
)
from xxchain import (
    DomainError,
    INFINITE,
    amplitude_report,
    asymptotic_params,
    first_term_comparison,
    glaisher,
    log_r_barnes,
    log_r_gamma_product,
    log_r_series,
    lukyanov_integral,
    polygamma,
    r_value,
    zeta_em,
)
from xxchain import amplitude
from xxchain.amplitude import _integrand

PI = math.pi


@pytest.mark.parametrize("N", [2, 10, 100, 1000])
def test_series_is_an_identity(N):
    # the polygamma rewriting reproduces the sine product exactly
    assert abs(log_r_series(N) - r_value(N, INFINITE).log_abs) <= 1e-10


def test_series_limit_is_ln_b():
    assert log_r_series(20000) + 0.25 * math.log(20000) == pytest.approx(LN_B, abs=1e-9)


def test_cancellation_identity():
    # N sum_p (1/p) 4^-p psi^(2p-1)(1)/(2p-1)! = -N ln(2/pi), per unit N
    acc = math.fsum(
        (0.25**p) / p * polygamma(2 * p - 1, 1.0) / math.factorial(2 * p - 1)
        for p in range(1, 31)
    )
    assert abs(acc + math.log(2.0 / PI)) <= 1e-12


def test_lukyanov_integral_value():
    assert lukyanov_integral() == pytest.approx(LUKYANOV_I, abs=1e-10)


def test_lukyanov_integral_against_mpmath():
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        exact = mp.quad(lambda t: (mp.exp(-4 * t) - mp.sech(t) ** 2) / t, [0, 1, 4, 16, 40, mp.inf])
        err = abs(mp.mpf(lukyanov_integral()) - exact)
    assert err <= 1e-15


@pytest.mark.parametrize("nodes", [16, 24, 32])
def test_lukyanov_rule_converged(nodes, monkeypatch):
    # doubling the nodes on every panel moves the value by no more than rounding
    values = []
    for n in (nodes, 2 * nodes):
        monkeypatch.setattr(amplitude, "_PANEL_NODES", n)
        values.append(lukyanov_integral())
    assert abs(values[0] - values[1]) <= 1e-15


def test_integrand_tail_is_negligible():
    # decay is set by sech^2 t ~ 4 e^(-2t): ~8e-10 at t=10, < 1e-35 at the
    # t=40 cutoff, which is what justifies truncating there
    assert abs(_integrand(10.0)) == pytest.approx(4.0 * math.exp(-20.0) / 10.0, rel=1e-3)
    assert abs(_integrand(10.0)) <= 1e-9
    assert abs(_integrand(40.0)) <= 1e-30


def test_integrand_head_matches_series():
    # near zero the direct quotient agrees with the Taylor head used inside
    for t in (1e-3, 5e-4):
        series = -4.0 + 9.0 * t - (32.0 / 3.0) * t**2 + 10.0 * t**3
        assert _integrand(t) == pytest.approx(series, abs=1e-11)
    assert _integrand(1e-6) == pytest.approx(-4.0, abs=1e-5)


def test_gamma_product_closed_forms():
    assert log_r_gamma_product(1) == pytest.approx(math.log(2.0 / PI), abs=1e-14)
    assert log_r_gamma_product(2) == pytest.approx(math.log(16.0 / (3.0 * PI**2)), abs=1e-14)


@pytest.mark.parametrize("N", [10, 100, 1000])
def test_gamma_product_matches_sine_product(N):
    assert rel(log_r_gamma_product(N), r_value(N, INFINITE).log_abs) <= 1e-10


def test_gamma_product_at_fit_scale():
    # per-term lgamma differences measured 2.2e-10 relative here; the 1/k
    # series measures 7.9e-14, most of it r_value's rounding of (N-k) f_k
    assert rel(log_r_gamma_product(10000), r_value(10000, INFINITE).log_abs) <= 1e-9


def test_barnes_matches_gamma_product():
    assert log_r_barnes(1) == pytest.approx(math.log(2.0 / PI), abs=1e-13)
    for N in (2, 7, 50):
        assert abs(log_r_barnes(N) - log_r_gamma_product(N)) <= 1e-11
    # identical telescoping, but the cumulative-lgamma grouping accumulates
    # input rounding ~ eps * sum |ln Gamma|; measured 1.4e-10 at N=500
    assert abs(log_r_barnes(500) - log_r_gamma_product(500)) <= 1e-9
    assert abs(log_r_barnes(10000) - log_r_gamma_product(10000)) <= 1e-7


def test_barnes_drift_to_ln_b():
    f1 = log_r_barnes(5000) + 0.25 * math.log(5000)
    f2 = log_r_barnes(10000) + 0.25 * math.log(10000)
    assert (4.0 * f2 - f1) / 3.0 == pytest.approx(LN_B, abs=1e-7)


def test_glaisher_constants():
    A, zp = glaisher()
    assert A == pytest.approx(GLAISHER_A, abs=1e-8)
    assert zp == pytest.approx(ZETA_PRIME_M1, abs=1e-11)
    # the defining identity, not the tabulated number
    assert A == pytest.approx(math.exp(1.0 / 12.0 - zp), rel=1e-15)


def test_glaisher_cross_identity_with_series_limit(report):
    # (ln 2)/12 + 3 zeta'(-1) equals the extrapolated limit of the series route
    _, zp = glaisher()
    assert abs(math.log(2.0) / 12.0 + 3.0 * zp - report.ln_b_series) <= 1e-7


def test_first_term_comparison_reports_the_discrepancy():
    cmp = first_term_comparison()
    # the direct polygamma evaluation and the quarter-gamma rewriting agree
    assert abs(cmp["direct"] - cmp["gamma_quarter"]) <= 1e-12
    # and both equal ln B + 1/4
    assert cmp["direct"] == pytest.approx(LN_B + 0.25, abs=1e-12)
    # the half-gamma variant with a positive zeta sum is a different number
    assert abs(cmp["gamma_half"] - cmp["direct"]) > 0.05
    direct, half = cmp["direct"], cmp["gamma_half"]
    print(f"first term: direct={direct:.12f} half-gamma variant={half:.12f} "
          f"(difference {half - direct:+.6f})")


def test_report_values(report):
    assert report.amplitude_half == pytest.approx(AMPLITUDE_HALF, abs=1e-9)
    assert report.c0 == pytest.approx(C0, abs=1e-9)
    assert math.exp(report.ln_b_series) == pytest.approx(B_CONST, abs=1e-9)
    assert report.glaisher_a == pytest.approx(GLAISHER_A, abs=1e-8)
    assert report.zeta_prime_minus1 == pytest.approx(ZETA_PRIME_M1, abs=1e-10)
    assert report.lukyanov_integral == pytest.approx(LUKYANOV_I, abs=1e-10)
    assert report.pairwise_max_dev <= 1e-7


def test_report_internal_identities(report):
    # c0 = sqrt(pi) exp(2 lnB) / sqrt(2), amplitude_half = c0 / (2 sqrt(pi))
    assert report.c0 == pytest.approx(
        math.sqrt(PI) * math.exp(2.0 * report.ln_b_series) / math.sqrt(2.0), rel=1e-14
    )
    assert report.amplitude_half == pytest.approx(report.c0 / (2.0 * math.sqrt(PI)), rel=1e-14)
    dev = max(
        abs(a - b)
        for a in (report.ln_b_series, report.ln_b_integral, report.ln_b_gamma_product, report.ln_b_fit)
        for b in (report.ln_b_series, report.ln_b_integral, report.ln_b_gamma_product, report.ln_b_fit)
    )
    assert report.pairwise_max_dev == pytest.approx(dev, rel=1e-12)


def test_sub_coefficient_fit(report):
    assert rel(report.sub_coeff_fitted, SUB_COEFF) <= 0.01
    assert report.sub_coeff_fitted == pytest.approx(-C0_OVER_SQRT_PI / 8.0, rel=0.01)


def test_b_from_glaisher_matches_extrapolation(report):
    b_closed = 2.0 ** (1.0 / 12.0) * math.exp(0.25) * report.glaisher_a**-3.0
    assert abs(b_closed - math.exp(report.ln_b_fit)) <= 1e-7
    assert b_closed == pytest.approx(0.645002, abs=1e-6)


def test_n_squared_correction():
    ln_b = math.log(2.0) / 12.0 + 3.0 * glaisher()[1]
    g = {}
    for N in (100, 1000, 10000):
        g[N] = (r_value(N, INFINITE).log_abs + 0.25 * math.log(N) - ln_b) * N * N
    extrap = (g[10000] * 10000**2 - g[1000] * 1000**2) / (10000**2 - 1000**2)
    assert abs(extrap - (-1.0 / 64.0)) <= 1e-3


def test_residual_beyond_n_squared_is_fourth_order():
    # after removing -1/(64 N^2) the remainder shrinks ~16x per N-doubling
    ln_b = math.log(2.0) / 12.0 + 3.0 * glaisher()[1]

    def residual(N):
        return r_value(N, INFINITE).log_abs + 0.25 * math.log(N) - ln_b + 1.0 / (64.0 * N * N)

    r20, r40 = residual(20), residual(40)
    assert 12.0 < r20 / r40 < 20.0
    assert abs(residual(80)) <= 1e-9


def test_asymptotic_params_shortcut(report):
    params = asymptotic_params()
    assert params.alpha == 0.5
    assert params.c0 == pytest.approx(report.c0, abs=1e-8)
    assert params.sub_coeff == pytest.approx(SUB_COEFF, abs=1e-8)


def test_asymptotic_params_is_the_report_c0(report):
    # one derivation of C0, from the series ln B, for the asym column, finite-size and constants
    assert asymptotic_params().c0 == report.c0


def test_preconditions():
    with pytest.raises(DomainError):
        log_r_series(1)
    with pytest.raises(DomainError):
        log_r_gamma_product(0)
    with pytest.raises(DomainError):
        log_r_barnes(0)
    with pytest.raises(DomainError):
        amplitude_report(n_fit=100)
    with pytest.raises(DomainError):
        amplitude_report(x_fit_max=500)
    # the fit pair is (N/2, N): an odd n_fit of 1001 fitted (500, 1000)
    with pytest.raises(DomainError, match=r"^n_fit must be even, got 1001$"):
        amplitude_report(n_fit=1001)


@pytest.mark.parametrize("N", [1, 2, 9, 10, 11, 500, 10000])
def test_gamma_product_against_mpmath(N):
    # 9 and 10 straddle the cut between the direct terms and the 1/k series
    mp = pytest.importorskip("mpmath")
    from reference import _log_r_barnes

    assert amplitude._GAMMA_K0 == 10
    with mp.workdps(40):
        ref = _log_r_barnes(N)
        assert float(abs(log_r_gamma_product(N) / ref - 1)) <= 1e-13  # 5.4e-16 at most measured


def test_constant_routes_at_their_measured_accuracy():
    # each bound is about 3x the figure measured against mpmath at 40 digits
    # and given in the route's docstring
    mp = pytest.importorskip("mpmath")
    from reference import _log_r_barnes

    with mp.workdps(40):
        A, zeta_prime = glaisher()
        assert float(abs(A / mp.glaisher - 1)) <= 4.2e-15  # 1.4e-15
        assert float(abs(zeta_prime / mp.zeta(-1, derivative=1) - 1)) <= 2.4e-14  # 8.1e-15
        ln_b = mp.log(2) / 12 + mp.mpf(1) / 4 - 3 * mp.log(mp.glaisher)
        c0 = mp.sqrt(mp.pi) * mp.exp(2 * ln_b) / mp.sqrt(2)
        assert float(abs(asymptotic_params().c0 / c0 - 1)) <= 3e-15  # 9.6e-16
        for N in (2, 3, 5, 10, 100, 1000, 5000, 10000):
            assert float(abs(log_r_series(N) - _log_r_barnes(N))) <= 1.7e-15  # 5.8e-16
        for s in (1.1, 1.5, 2.0, 3.0, 5.0, 21.0):
            assert float(abs(zeta_em(s) - mp.zeta(s))) <= 1.6e-15  # 5.4e-16


def test_gamma_series_coefficients():
    c = amplitude._gamma_series()[::-1]
    assert len(c) == amplitude._GAMMA_TERMS
    assert c[:4] == (-1 / 4, -1 / 8, -5 / 96, -1 / 64)
