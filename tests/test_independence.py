"""The route-independence map: the package code each route may run, and what two checked routes may share.

Routes are trusted because independent ones agree, so no route may run the route it is checked against.
"""

import functools

import pytest

from refs import GUARDS, code_of, names, ran
from xxchain import amplitude as amp, asymptotics as asy, ed, exact, greens, special as sp

KERNEL, FACTORS = {exact._wick_kernel}, {exact._log_factors, exact._neg_log1m, exact._sine_grid}
DENSE = {exact._kernel_toeplitz, *KERNEL}
BERNOULLI = {sp.bernoulli_numbers, sp._rounded_bernoulli, sp.bernoulli_rationals}
SERIES = {amp.log_r_series, amp._first_term, amp._richardson_limit, sp.polygamma, sp._polygamma_asym, *BERNOULLI}
SOLVE = {ed.spin_sector, ed.SpinSector.index, ed._orbits, ed._apply, ed._start_vector, ed._momentum_hamiltonian,
         ed._momentum_level, ed._lowest_level, ed._lanczos, ed._lowest_ritz_pair, ed._pair_values}
BOTH, N = (greens.LatticeSpec(62), greens.INFINITE), amp.N_FIT
ROUTES = {  # route: (what it may run besides GUARDS, its calls)
    "det sweep": ({exact.correlator_det_sweep, *KERNEL}, lambda: [exact.correlator_det_sweep(61, a) for a in BOTH]),
    "per-x LU": ({exact.correlator_det, *DENSE}, lambda: [exact.correlator_det(61, a) for a in BOTH]),
    "r_det": ({exact.r_det, *DENSE}, lambda: [exact.r_det(31, a) for a in BOTH]),
    "product": ({exact.correlator_sweep, exact.correlator, exact._g_cells, exact.log_r_table, *FACTORS},
                lambda: [(exact.correlator_sweep(61, a), exact.correlator(61, a)) for a in BOTH]),
    "r_value": ({exact.r_value, *FACTORS}, lambda: [exact.r_value(31, a) for a in BOTH]),
    "g0": ({greens.g0}, lambda: [greens.g0(61, a) for a in BOTH]),
    "ED": ({ed.ed_correlator_sweep, ed.ed_spectral_gap, *SOLVE},  # k = 0 at L = 8, k = pi at L = 10
           lambda: [(ed.ed_correlator_sweep(L, L - 1), ed.ed_spectral_gap(L)) for L in (8, 10)]),
    "ED by site": ({ed.ed_correlator_by_site, ed.ed_ground_state, *SOLVE}, lambda: ed.ed_correlator_by_site(10, 3)),
    "asym": ({amp.asymptotic_params, amp._c0, asy.asym_infinite, asy.asym_finite, *SERIES},
             lambda: (p := amp.asymptotic_params(), asy.asym_infinite(5, p), asy.asym_finite(5, 62, p))),
    "series": (SERIES, lambda: amp._richardson_limit(amp.log_r_series, N)),
    "integral": ({amp.lukyanov_integral, amp._integrand}, amp.lukyanov_integral),
    "gamma product": ({amp.log_r_gamma_product, amp._gamma_series, amp._richardson_limit, sp.bernoulli_rationals},
                      lambda: amp._richardson_limit(amp.log_r_gamma_product, N)),
    "fit": ({amp._richardson_limit, exact.log_r_table, *FACTORS},  # amplitude_report's ln B fit
            lambda: amp._richardson_limit(lambda n: float(exact.log_r_table(n)[n]), N)),
    "Glaisher": ({amp.glaisher, amp._zeta_reflected, sp.zeta_em, *BERNOULLI}, amp.glaisher),
    "Barnes": ({amp.log_r_barnes}, lambda: amp.log_r_barnes(500)),
}
PAIRS = {  # "route & route": what the two may share besides GUARDS
    "det sweep & per-x LU": KERNEL,  # the LU checks the Schur algebra, g0 the kernel
    "product & r_value": FACTORS,  # r_value checks the summation
    "series & gamma product": {amp._richardson_limit, sp.bernoulli_rationals},
    "series & Glaisher": BERNOULLI,
    "fit & product": {exact.log_r_table, *FACTORS},
    "ED & ED by site": SOLVE,  # by site checks the pair sums at every site
    **dict.fromkeys(["det sweep & product", "ED & det sweep", "ED & product", "g0 & det sweep", "r_det & r_value",
                     "Barnes & gamma product", "gamma product & product", "asym & product", "integral & series",
                     "integral & gamma product", "integral & fit"], set()),
}


@functools.cache
def route_ran(route: str) -> frozenset:
    return ran(ROUTES[route][1])


@pytest.mark.parametrize("case", [*ROUTES, *PAIRS])
def test_routes_run_and_share_only_what_the_map_declares(case):
    codes = frozenset.intersection(*map(route_ran, case.split(" & ")))
    declared = PAIRS[case] if case in PAIRS else ROUTES[case][0]
    assert names(codes - code_of(declared | GUARDS)) == []
