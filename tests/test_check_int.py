"""Integer arguments: numpy integers are admitted, anything else raises DomainError."""

import numpy as np
import pytest

from xxchain import (
    AsymptoticParams,
    DomainError,
    LatticeSpec,
    amplitude_report,
    asym_finite,
    asym_infinite,
    correlator,
    ed_correlator,
    ed_ground_state,
    finite_size_energy,
    g0,
    log_r_barnes,
    log_r_gamma_product,
    log_r_series,
    log_r_table,
    luttinger_from_lambda,
    polygamma,
    r_value,
    zeta_odd,
)
from xxchain.ed import ed_correlator_by_site, ed_correlator_sweep
from xxchain.errors import check_int

RING = LatticeSpec(10)
PARAMS = AsymptoticParams(alpha=0.5, c0=0.5)
FREE = luttinger_from_lambda(0.0)

# one entry per guarded argument: (call of the argument, an admissible value, out-of-range values)
CASES = {
    "log_r_series": (log_r_series, 7, (1,)),
    "log_r_gamma_product": (log_r_gamma_product, 12, (0,)),
    "log_r_barnes": (log_r_barnes, 12, (0,)),
    "ed_ground_state.L": (ed_ground_state, 10, (4, 7)),
    "ed_correlator_by_site.x": (lambda x: ed_correlator_by_site(10, x), 3, (0, 10)),
    "ed_correlator_sweep.x_max": (lambda x: ed_correlator_sweep(10, x), 9, (0, 10)),
    "correlator.x": (lambda x: correlator(x, RING), 5, (0, 10)),
    "r_value.N": (lambda N: r_value(N, RING), 5, (0, 6)),
    "log_r_table.n_max": (lambda n: log_r_table(n, RING), 5, (-1, 6)),
    "LatticeSpec.L": (LatticeSpec, 10, (2,)),
    "g0.x": (lambda x: g0(x, RING), 3, (10, -10)),
    "polygamma.m": (lambda m: polygamma(m, 1.5), 3, (-1, 65)),
    "zeta_odd.s": (zeta_odd, 5, (1, 83)),
    "amplitude_report.n_fit": (lambda n: amplitude_report(n_fit=n, x_fit_max=1000), 1000, (999,)),
    "amplitude_report.x_fit_max": (lambda x: amplitude_report(n_fit=1000, x_fit_max=x), 1000, (999,)),
    "asym_finite.x": (lambda x: asym_finite(x, 10, PARAMS), 3, (0, 10)),
    "asym_finite.L": (lambda L: asym_finite(3, L, PARAMS), 10, (1, 3)),
    "asym_infinite.x": (lambda x: asym_infinite(x, PARAMS), 5, (0,)),
    "finite_size_energy.L": (lambda L: finite_size_energy(1, 1, FREE, L), 10, (0,)),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_numpy_integers_give_the_python_int_value(case):
    call, good, out_of_range = CASES[case]
    expected = call(good)
    for dtype in (np.int64, np.int32):
        np.testing.assert_equal(call(dtype(good)), expected)
    bad_values = (True, 2.0, "3", np.True_, np.array(5.0), np.array([3]))
    for bad in (*bad_values, *(np.int64(v) for v in out_of_range)):
        with pytest.raises(DomainError):
            call(bad)


def test_numpy_integers_become_python_ints():
    assert type(LatticeSpec(np.int64(10)).length) is int
    assert type(correlator(np.int32(5), RING).x) is int
    assert type(check_int("x", np.uint8(3))) is int


def test_one_message_names_the_argument_and_its_range():
    assert ed_correlator(10, np.int64(3)) == ed_correlator(10, 3)
    with pytest.raises(DomainError, match=r"^x must be an integer in \[1, 9\], got 2\.0$"):
        ed_correlator(10, 2.0)
    with pytest.raises(DomainError, match=r"^x must be an integer in \[1, 9\], got np\.int64\(10\)$"):
        correlator(np.int64(10), RING)
    with pytest.raises(DomainError, match=r"^n_max must be an integer in \[0, inf\], got -1$"):
        log_r_table(-1)
    with pytest.raises(DomainError, match=r"^x must be an integer in \[-inf, inf\], got True$"):
        g0(True)
    with pytest.raises(DomainError, match=r"^x must be an integer in \[-9, 9\], got 10$"):
        g0(10, RING)
