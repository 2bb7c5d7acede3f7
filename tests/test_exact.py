import math
import tracemalloc

import numpy as np
import pytest

from refs import rel
from xxchain import (
    DomainError,
    INFINITE,
    LatticeSpec,
    Route,
    SizeError,
    correlator,
    correlator_det,
    log_r_table,
    r_det,
    r_value,
)
from xxchain import exact
from xxchain.ed import ed_correlator_sweep
from xxchain.exact import MAX_DET_SIZE, _wick_kernel, correlator_det_sweep, correlator_sweep
from xxchain.greens import g0

PI = math.pi


def test_det_closed_forms():
    assert correlator_det(1, INFINITE) == pytest.approx(-1.0 / PI, rel=1e-12)
    assert correlator_det(2, INFINITE) == pytest.approx(2.0 / PI**2, rel=1e-12)


def test_r_det_closed_forms():
    assert r_det(1, INFINITE) == pytest.approx(2.0 / PI, rel=1e-13)
    assert r_det(2, INFINITE) == pytest.approx(16.0 / (3.0 * PI**2), rel=1e-13)
    assert r_det(2, INFINITE) == pytest.approx(0.5403796, abs=1e-7)


def test_r_value_examples():
    # N = 1 is the empty product on every lattice
    for lat in (INFINITE, LatticeSpec.finite(10), LatticeSpec.finite(62)):
        lp = r_value(1, lat)
        assert lp.sign == 1
        assert lp.value == pytest.approx(r_det(1, lat), rel=1e-13)
    assert r_value(1, INFINITE).value == pytest.approx(2.0 / PI, rel=1e-14)
    assert r_value(2, INFINITE).value == pytest.approx(16.0 / (3.0 * PI**2), rel=1e-13)
    # finite-lattice value against the independently assembled determinant
    assert r_value(2, LatticeSpec.finite(10)).value == pytest.approx(
        r_det(2, LatticeSpec.finite(10)), rel=1e-13
    )


@pytest.mark.parametrize("lat", [INFINITE, LatticeSpec.finite(62), LatticeSpec.finite(122)])
def test_r_value_equals_r_det(lat):
    for N in range(1, 16):
        assert rel(r_det(N, lat), r_value(N, lat).value) <= 1e-9


def test_correlator_closed_forms():
    assert correlator(1, INFINITE).value == pytest.approx(-1.0 / PI, rel=1e-13)
    assert correlator(2, INFINITE).value == pytest.approx(2.0 / PI**2, rel=1e-13)
    assert correlator(3, INFINITE).value == pytest.approx(-16.0 / (3.0 * PI**3), rel=1e-13)


def test_r0_convention():
    for lat in (INFINITE, LatticeSpec.finite(14)):
        assert correlator(1, lat).value == pytest.approx(-0.5 * r_value(1, lat).value, rel=1e-15)


@pytest.mark.parametrize("lat", [INFINITE, LatticeSpec.finite(62)])
def test_route_equivalence_det_vs_product(lat):
    for x in range(1, 25):
        a = correlator_det(x, lat)
        b = correlator(x, lat).value
        assert rel(a, b) <= 1e-10, (x, a, b)


def test_route_equivalence_at_scale():
    # the two routes stay glued far beyond desk scale
    for x in (100, 500, 1024):
        assert rel(correlator_det(x, INFINITE), correlator(x, INFINITE).value) <= 1e-12
    lat = LatticeSpec.finite(1026)
    assert rel(r_det(257, lat), r_value(257, lat).value) <= 1e-12
    assert rel(correlator_det(513, lat), correlator(513, lat).value) <= 1e-12


def test_sign_staggering():
    for x in range(1, 21):
        v = correlator(x, INFINITE).value
        assert (v >= 0) == (x % 2 == 0)
        assert (correlator_det(x, INFINITE) >= 0) == (x % 2 == 0)


@pytest.mark.parametrize("L", [6, 10, 14])
def test_ring_symmetry(L):
    lat = LatticeSpec.finite(L)
    for x in range(1, L):
        a = abs(correlator(x, lat).value)
        b = abs(correlator(L - x, lat).value)
        assert rel(a, b) <= 1e-9


def test_energy_identity():
    assert 2.0 * correlator(1, INFINITE).value == pytest.approx(-2.0 / PI, rel=1e-12)


def test_last_distance_is_a_product_cell():
    # x = L-1 reads R_{L/2} from the sine product, as x = L-2 reads R_{L/2-1}
    lat = LatticeSpec.finite(10)
    sample = correlator(9, lat)
    assert sample.route is Route.PRODUCT
    assert sample.value == pytest.approx(correlator_det(9, lat), rel=1e-15)
    assert correlator(7, lat).route is Route.PRODUCT


@pytest.mark.parametrize("L", [18, 62, 1102, 1202])
def test_last_ring_cell_is_the_product_sweep_cell(L):
    # G(L-1) = G(1) by reflection, which neither route builds in: the product cell equals
    # G(1) here, the det sweep's cell is within 3.5e-16 of it and the dense float64 oracle
    # 5.3e-14 off at L = 1102
    lat = LatticeSpec.finite(L)
    last = correlator_sweep(L - 1, lat)[-1]
    assert correlator(L - 1, lat).value == last
    assert rel(last, correlator(1, lat).value) <= 1e-15
    assert rel(last, correlator_det_sweep(L - 1, lat)[-1]) <= 1e-15
    assert rel(last, correlator_det(L - 1, lat)) <= 1e-13


def test_log_product_reconstruction():
    lp = r_value(7, INFINITE)
    assert math.isfinite(lp.log_abs)
    assert lp.value == lp.sign * math.exp(lp.log_abs)


def test_log_r_table_matches_r_value():
    table = log_r_table(300, INFINITE)
    assert table[0] == 0.0
    assert log_r_table(0, INFINITE).tolist() == log_r_table(0, LatticeSpec.finite(10)).tolist() == [0.0]
    for N in (1, 2, 17, 150, 300):
        assert table[N] == pytest.approx(r_value(N, INFINITE).log_abs, abs=1e-12)
    lat = LatticeSpec.finite(1026)
    table_f = log_r_table(400, lat)
    for N in (1, 40, 400):
        assert table_f[N] == pytest.approx(r_value(N, lat).log_abs, abs=1e-12)


@pytest.mark.parametrize("n_max", [-3, "5", 2.0, None, True])
def test_log_r_table_rejects_bad_sizes(n_max):
    with pytest.raises(DomainError):
        log_r_table(n_max, INFINITE)


def test_domain_guards():
    lat = LatticeSpec.finite(10)
    with pytest.raises(DomainError):
        correlator_det(0, INFINITE)
    with pytest.raises(DomainError):
        correlator_det(10, lat)
    with pytest.raises(DomainError):
        correlator(0, lat)
    with pytest.raises(DomainError):
        r_value(6, lat)  # 2N = 12 > L
    with pytest.raises(DomainError):
        r_value(0, INFINITE)
    with pytest.raises(SizeError):
        correlator_det(4097, INFINITE)
    with pytest.raises(SizeError):
        r_det(2049, INFINITE)


@pytest.mark.parametrize("L, n_max", [(None, 10000), (4002, 2000), (10002, 5000)])
def test_log_r_table_against_mpmath(L, n_max):
    mp = pytest.importorskip("mpmath")
    from reference import _log_r_recurrence

    lat = INFINITE if L is None else LatticeSpec.finite(L)
    ref = _log_r_recurrence(L, n_max)
    table = log_r_table(n_max, lat)
    worst = max(abs(float(mp.mpf(float(t)) - r)) for t, r in zip(table, ref))
    assert worst <= 1e-15  # docstring: 2.77e-16, 2.88e-16 and 3.24e-16 measured
    samples = sorted({int(N) for N in np.linspace(1, n_max, 60)})
    table_err = max(abs(float(mp.mpf(float(table[N])) - ref[N])) for N in samples)
    scalar_err = max(abs(float(mp.mpf(r_value(N, lat).log_abs) - ref[N])) for N in samples)
    assert table_err <= scalar_err


def _mp_max_relerr(sweep, L, mp):
    """Max relerr of G(1..len(sweep)) against the sine product of the mpmath reference."""
    from reference import _log_r_recurrence

    log_r = _log_r_recurrence(L, len(sweep) // 2 + 1)
    with mp.workdps(30):
        worst = 0.0
        for x in range(1, len(sweep) + 1):
            N = x // 2
            ref = mp.exp(2 * log_r[N]) / 2 if x % 2 == 0 else -mp.exp(log_r[N] + log_r[N + 1]) / 2
            worst = max(worst, float(abs(mp.mpf(float(sweep[x - 1])) / ref - 1)))
    return worst


def test_correlator_sweep_against_mpmath_past_the_fold():
    mp = pytest.importorskip("mpmath")
    L = 1202
    # x = L - 2 reads R_N up to N = L/2 - 1: factors past k = L/4 come from k' = L/2 - k
    worst = _mp_max_relerr(correlator_sweep(L - 2, LatticeSpec.finite(L)), L, mp)
    assert worst <= 1e-15  # 5.0e-16 measured


@pytest.mark.parametrize("L", [6, 10, 14, 1202, 100002, 669878])
def test_sine_grid_within_two_ulp(L):
    # ulp here is relative: |grid / sin - 1| in units of the longdouble epsilon 2^-63
    mp = pytest.importorskip("mpmath")
    m = L // 4
    grid = exact._sine_grid(m, L)
    assert grid.shape == (m,) and grid.dtype == np.longdouble
    ks = sorted({int(k) for k in np.linspace(1, m, 200)} | {1, m})
    with mp.workdps(40):
        eps = mp.mpf(2) ** -63
        worst = 0.0
        for k in ks:
            num, den = grid[k - 1].as_integer_ratio()
            ref = mp.sin(2 * mp.pi * k / L)
            worst = max(worst, float(abs(mp.mpf(num) / den / ref - 1) / eps))
    assert worst <= 2.0  # 1.62 measured


def test_sine_grid_small_sizes():
    for m in range(4):
        assert exact._sine_grid(m, 14).shape == (m,)


@pytest.mark.parametrize("L", [6, 14, 1110, 1250, 4002, 2**63 + 2])
def test_sine_grid_split_is_the_rings(L):
    # a shorter grid is a prefix of the quarter-ring one, bit for bit: the split reads L, not m
    # (a ring past 2^63 is checked to m = 300, its grid's b being capped)
    full = exact._sine_grid(min(L // 4, 300), L)
    for m in sorted({*range(min(len(full), 40)), *np.linspace(0, len(full), 25, dtype=int)}):
        assert np.array_equal(exact._sine_grid(m, L), full[:m]), m


@pytest.mark.parametrize("L", [6, 10, 14, 62, 1202, 10002])
def test_log_factors_fold_at_the_quarter_ring(L):
    n = L // 2  # the largest table a ring admits: 2N <= L
    f = exact._log_factors(n, LatticeSpec.finite(L))
    for k in range(L // 4 + 1, n):
        assert f[k] == f[L // 2 - k], k


@pytest.mark.parametrize("lat, x_max", [
    (LatticeSpec.finite(10), 9),
    (LatticeSpec.finite(14), 13),
    (LatticeSpec.finite(62), 61),
    (INFINITE, 300),
])
def test_correlator_sweep_matches_correlator(lat, x_max):
    sweep = correlator_sweep(x_max, lat)
    assert sweep.shape == (x_max,)
    for x in range(1, x_max + 1):
        assert rel(sweep[x - 1], correlator(x, lat).value) <= 1e-14, x
    assert correlator(x_max, lat).route is Route.PRODUCT


@pytest.mark.parametrize("lat, d_max", [
    (LatticeSpec.finite(6), 6),
    (LatticeSpec.finite(10), 10),
    (LatticeSpec.finite(62), 62),
    (LatticeSpec.finite(1202), 1202),
    (INFINITE, 5000),
])
def test_wick_kernel_equals_scalar_g0(lat, d_max):
    d = np.arange(-d_max + 1, d_max)
    scalar = [2.0 * g0(int(v), lat) if v % 2 else 0.0 for v in d]
    np.testing.assert_allclose(_wick_kernel(d, lat), scalar, rtol=1e-15, atol=0)


@pytest.mark.parametrize("lat, x_max", [
    *[(LatticeSpec.finite(L), L - 1) for L in range(6, 63, 4)],
    (INFINITE, 300),
    (LatticeSpec.finite(62), 30),
    (INFINITE, 1),
    (INFINITE, 299),
])
def test_det_sweep_matches_per_x_det(lat, x_max):
    sweep = correlator_det_sweep(x_max, lat)
    assert sweep.shape == (x_max,)
    for x in range(1, x_max + 1):
        assert rel(sweep[x - 1], correlator_det(x, lat)) <= 1e-12, x


@pytest.mark.parametrize("L", [1102, 1202, None])
def test_det_sweep_against_mpmath(L):
    mp = pytest.importorskip("mpmath")
    x_max = 450
    lat = INFINITE if L is None else LatticeSpec.finite(L)
    worst = _mp_max_relerr(correlator_det_sweep(x_max, lat), L, mp)
    assert worst <= 1e-15  # 3.1e-16 on L = 1102, 2.6e-16 on L = 1202, 3.0e-16 on the infinite chain


@pytest.mark.parametrize("L", [62, 1202, 4094, 1200, 4096])
def test_det_sweep_is_reflection_symmetric(L):
    # G(L - x) = G(x) on a ring; the recursion reaches the two ends by different steps
    g = correlator_det_sweep(L - 1, LatticeSpec.finite(L))
    assert np.max(np.abs(g[::-1] / g - 1)) <= 1e-14  # 0, 4.4e-16, 3.1e-15, 6.7e-16 and 1.3e-15 measured


def test_det_sweep_is_independent_of_the_sine_product(monkeypatch):
    cases = [(61, LatticeSpec.finite(62)), (200, INFINITE)]
    expected = [correlator_det_sweep(x_max, lat) for x_max, lat in cases]

    def forbidden(*args):
        raise AssertionError("the det sweep reached the sine product")

    monkeypatch.setattr(exact, "_log_factors", forbidden)
    monkeypatch.setattr(exact, "log_r_table", forbidden)
    for (x_max, lat), values in zip(cases, expected):
        np.testing.assert_array_equal(correlator_det_sweep(x_max, lat), values)


@pytest.mark.parametrize("L", [10, 62, 1102, 8194])
def test_product_route_is_independent_of_the_det_route(monkeypatch, L):
    lat = LatticeSpec.finite(L)
    g1 = correlator(1, lat).value

    def forbidden(*args):
        raise AssertionError("the sine product reached the det route")

    for name in ("correlator_det_sweep", "correlator_det", "_wick_kernel"):
        monkeypatch.setattr(exact, name, forbidden)
    sample = correlator(L - 1, lat)
    assert sample.route is Route.PRODUCT
    assert rel(sample.value, g1) <= 1e-15
    assert rel(correlator_sweep(L - 1, lat)[-1], g1) <= 1e-15  # 4.4e-16 at L = 8194


@pytest.mark.parametrize("L", [*range(6, 63, 4), 1102, 8194, 8, 12, 1200, 8192])
def test_ring_wallis_identity_and_mirror(L):
    # log R_{L/2} = 0, and R_N = R_{L/2-N} from G(2N) = G(L-2N): the table builds in neither
    h = L // 2
    lat = LatticeSpec.finite(L)
    table = log_r_table(h, lat)
    assert abs(table[h]) <= 1e-15  # 2.6e-16 measured at L = 8194, 9.5e-17 at L = 8192
    assert np.max(np.abs(table - table[::-1])) <= 1e-15  # 4.4e-16 measured at L = 8194 and 8192
    if L <= 62:  # the float64 determinant drifts from 1 as L grows
        assert abs(r_det(h, lat) - 1) <= 1e-13  # 2.4e-15 measured at L = 62


def test_det_sweep_holds_one_reduced_matrix():
    # the recursion holds O(X) longdouble vectors, about 120 bytes per x measured; at X = 4096
    # the reduced matrix alone would be 32 MiB, and at X = 1024 the Wick matrix 8 MiB
    for x_max, bound in ((1024, 2 * 8 * 512**2), (4096, 256 * 4096)):
        tracemalloc.start()
        try:
            correlator_det_sweep(x_max, INFINITE)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound, x_max


def test_det_sweep_guards():
    with pytest.raises(SizeError):
        correlator_det_sweep(MAX_DET_SIZE + 1, INFINITE)
    with pytest.raises(DomainError):
        correlator_det_sweep(0, INFINITE)
    with pytest.raises(DomainError):
        correlator_det_sweep(10, LatticeSpec.finite(10))


def test_det_route_on_a_ring_past_int64():
    # L = 2^63 + 2 does not fit an int64: the kernel folds only where |d| > L/2 occurs
    lat = LatticeSpec.finite(2**63 + 2)
    det = correlator_det_sweep(40, lat)
    assert np.max(np.abs(det / correlator_sweep(40, lat) - 1)) <= 1e-15
    for x in (1, 2, 5, 17):
        assert rel(correlator_det(x, lat), det[x - 1]) <= 1e-15
    for N in (1, 2, 9):
        assert rel(r_det(N, lat), r_value(N, lat).value) <= 1e-15


@pytest.mark.parametrize("L, xs", [
    (62, [1, 2, 15, 16, 31, 40, 45, 60, 61]),
    (1202, [1, 2, 301, 302, 601, 602, 901, 1200, 1201]),
    (100002, [1, 2, 25001, 25002, 50001, 50002, 90001, 100000, 100001]),
    (None, [1, 2, 3, 511, 1024, 1025, 9999, 20000]),
])
def test_correlator_is_the_last_sweep_cell(L, xs):
    # odd and even x, x past L/2, x = L-2 and, on the rings, x = L-1, past the det guard on L = 100002
    lat = INFINITE if L is None else LatticeSpec.finite(L)
    for x in xs:
        sample = correlator(x, lat)
        assert sample.value == correlator_sweep(x, lat)[-1], x
        assert sample.route is Route.PRODUCT


def test_sweep_rejects_an_oversized_det_cell_before_the_table(monkeypatch):
    # x_max = L-1 above MAX_DET_SIZE is no det cell: one table to N = L/2 and no guard
    tables = []
    table = exact.log_r_table

    def counted(n_max, lat):
        tables.append(n_max)
        return table(n_max, lat)

    def refuse(*args):
        raise AssertionError("the product sweep reached the det guard")

    monkeypatch.setattr(exact, "log_r_table", counted)
    monkeypatch.setattr(exact, "_check_det_size", refuse)
    L = 2 * MAX_DET_SIZE + 2
    g = correlator_sweep(L - 1, LatticeSpec.finite(L))
    assert tables == [L // 2]
    assert rel(g[-1], g[0]) <= 1e-15  # 4.4e-16 measured


def _ld_to_mp(v, mp):
    num, den = v.as_integer_ratio()
    return mp.mpf(num) / den


@pytest.mark.parametrize("L", [100002, 669878, None])
def test_far_factors_against_mpmath(L):
    # relative error in units of the longdouble epsilon 2^-63, on both sides of
    # the k where q_k^2 = (sin(pi/L) / sin(2 pi k/L))^2 crosses the series threshold
    mp = pytest.importorskip("mpmath")
    lat = INFINITE if L is None else LatticeSpec.finite(L)
    n = 20000 if L is None else L // 4 + 1
    f = exact._log_factors(n, lat)
    with mp.workdps(40):
        s = mp.mpf(1) / 2 if L is None else mp.sin(mp.pi / L)

        def q2(k):
            return (s / (k if L is None else mp.sin(2 * mp.pi * k / L))) ** 2

        split = next(k for k in range(1, n) if q2(k) <= exact._SERIES_Q2)
        ks = sorted(set(range(split - 40, split + 40))
                    | {int(k) for k in np.geomspace(1, n - 1, 120)})
        assert ks[0] >= 1 and ks[-1] < n
        eps = mp.mpf(2) ** -63
        worst = {True: 0.0, False: 0.0}
        for k in ks:
            err = abs(_ld_to_mp(f[k], mp) / -mp.log1p(-q2(k)) - 1) / eps
            worst[k >= split] = max(worst[k >= split], float(err))
    # the log1p factors measured 2.99, 2.74 and 1.03, the series ones 3.74, 3.28
    # and 0.82 (infinite chain last), as at the parent: the sines dominate
    assert worst[False] <= 4.0 and worst[True] <= 4.0


def test_series_step_against_mpmath():
    # the shared step alone, on exact longdouble inputs spanning both branches
    mp = pytest.importorskip("mpmath")
    q2 = np.geomspace(np.longdouble(0.25), np.longdouble(1e-13), 3000)
    out = np.empty_like(q2)
    exact._neg_log1m(q2, out)
    split = int(np.count_nonzero(q2 > exact._SERIES_Q2))
    assert 0 < split < len(q2)
    with mp.workdps(40):
        eps = mp.mpf(2) ** -63
        errs = [float(abs(_ld_to_mp(o, mp) / -mp.log1p(-_ld_to_mp(q, mp)) - 1) / eps)
                for q, o in zip(q2, out)]
    assert max(errs[:split]) <= 1.0  # log1p: 0.64 measured
    assert max(errs[split:]) <= 0.51  # series: the one longdouble addition, 0.50 measured


def _sweep(route, L, x_max):
    if route == "ed":
        return ed_correlator_sweep(L, x_max)
    sweep = correlator_det_sweep if route == "det" else correlator_sweep
    return sweep(x_max, INFINITE if L is None else LatticeSpec.finite(L))


@pytest.mark.parametrize("route, L", [
    ("det", None), ("det", 1202), ("det", 4002),
    ("product", None), ("product", 1110), ("product", 1250), ("product", 1290),
    ("product", 4002), ("product", 10002),
    ("ed", 10), ("ed", 14), ("ed", 18),
])
def test_sweeps_are_prefix_stable(route, L):
    # a cell is a function of (lattice, x) alone, whatever x_max the sweep runs to; before the sine
    # grid's split was the ring's, a product sweep to x_max < L/2 moved cells: x = 853-855 on
    # L = 4002, and in the sweep to 450, x = 357, 358 on L = 1110, 142 on 1250 and 159, 160 on 1290
    x_full = min(4001 if L is None else L - 1, MAX_DET_SIZE)
    full = _sweep(route, L, x_full)
    xs = {1, 2, 3, 142, 159, 160, 357, 358, 450, 853, 854, 855, 999, 2042, 3656}
    xs |= {x_full // 4, x_full // 4 + 1, x_full // 2, x_full // 2 + 1, x_full - 1}
    for x in sorted(x for x in xs if x < x_full):
        assert np.array_equal(_sweep(route, L, x), full[:x]), x


@pytest.mark.parametrize("L", [4002, 10002])
def test_correlator_is_every_cell_of_the_full_sweep(L):
    # each correlator builds its own shorter table; it used to differ at x = 853-855 on L = 4002
    # and at x = 2042 and 3656 on L = 10002
    lat = LatticeSpec.finite(L)
    full = correlator_sweep(L - 1, lat)
    assert [x for x in range(1, L) if correlator(x, lat).value != full[x - 1]] == []
