"""The library's guard map: each guarded argument of each public callable is a row, rejected before any route runs.

Bad or oversized input fails up front, with ``DomainError`` or ``SizeError``, never inside a sweep.  A row is
the call of one argument, an admissible value, rejected values, the message each gets (``str.format``-ted with
the value, as the guard prints it) and the exception.  An argument with two guards, a range and a size or a
parity, has a row per guard.  The command line's rows are ``test_cli.py``'s usage errors.
"""

import inspect
import math
import re
from typing import Callable, NamedTuple

import numpy as np
import pytest

import xxchain
from refs import GUARDS, code_of, names, ran
from xxchain import (
    INFINITE,
    AsymptoticParams,
    DomainError,
    LatticeSpec,
    SizeError,
    amplitude_report,
    asym_finite,
    asym_infinite,
    bernoulli_numbers,
    correlator,
    correlator_det,
    ed_correlator,
    ed_ground_state,
    ed_spectral_gap,
    finite_size_energy,
    g0,
    log_r_barnes,
    log_r_gamma_product,
    log_r_series,
    log_r_table,
    luttinger_from_lambda,
    polygamma,
    r_det,
    r_value,
    spin_sector,
    zeta_em,
    zeta_odd,
)
from xxchain.ed import ed_correlator_by_site, ed_correlator_sweep
from xxchain.errors import check_int
from xxchain.exact import correlator_det_sweep, correlator_sweep

RING = LatticeSpec(10)
PARAMS = AsymptoticParams(alpha=0.5, c0=0.5)
FREE = luttinger_from_lambda(0.0)


class Row(NamedTuple):
    call: Callable
    good: object
    rejected: tuple
    message: str
    error: type = DomainError


def span(name, lo, hi="inf"):
    return f"{name} must be an integer in [{lo}, {hi}], got {{!r}}"


RING_RULE, ED_SIZE = "L must be an even integer >= 6, got {!r}", "L={} exceeds the diagonalization guard 18"
DET_SIZE, NAN = "x={} exceeds the det guard 4096", math.nan
ROWS = {  # "function.argument[ guard]": the row; the x = 9 and 5 of the L rows show L is checked first
    "LatticeSpec.L": Row(LatticeSpec, 12, (4, 7, 0, -6, 2), RING_RULE),
    "g0.x": Row(lambda x: g0(x, RING), 3, (10, -10, 11), span("x", -9, 9)),
    "correlator.x": Row(lambda x: correlator(x, RING), 5, (0, 10), span("x", 1, 9)),
    "correlator_sweep.x": Row(lambda x: correlator_sweep(x, RING), 9, (0, 10), span("x", 1, 9)),
    "correlator_det.x": Row(lambda x: correlator_det(x, RING), 5, (0, 10), span("x", 1, 9)),
    "correlator_det.x <= 4096": Row(lambda x: correlator_det(x), 5, (4097,), DET_SIZE, SizeError),
    "correlator_det_sweep.x": Row(lambda x: correlator_det_sweep(x, RING), 9, (0, 10), span("x", 1, 9)),
    "correlator_det_sweep.x <= 4096": Row(lambda x: correlator_det_sweep(x), 9, (4097,), DET_SIZE, SizeError),
    "r_det.N": Row(lambda N: r_det(N, RING), 5, (0, 6), span("N", 1, 5)),
    "r_det.N <= 2048": Row(lambda N: r_det(N), 5, (2049,), "x=4098 exceeds the det guard 4096", SizeError),
    "r_value.N": Row(lambda N: r_value(N, RING), 5, (0, 6), span("N", 1, 5)),
    "log_r_table.n_max": Row(lambda n: log_r_table(n, INFINITE), 5, (-1, -3), span("n_max", 0)),
    "log_r_table.n_max <= L/2": Row(lambda n: log_r_table(n, RING), 5, (6,), "N must be an integer in [1, 5], got {}"),
    "spin_sector.L": Row(spin_sector, 10, (4, 9), RING_RULE),
    "spin_sector.L <= 18": Row(spin_sector, 10, (20, 22), ED_SIZE, SizeError),
    "ed_ground_state.L": Row(ed_ground_state, 10, (4, 9), RING_RULE),
    "ed_ground_state.L <= 18": Row(ed_ground_state, 10, (20, 22), ED_SIZE, SizeError),
    "ed_spectral_gap.L": Row(ed_spectral_gap, 10, (4, 9), RING_RULE),
    "ed_spectral_gap.L <= 18": Row(ed_spectral_gap, 10, (20, 22), ED_SIZE, SizeError),
    "ed_correlator.L": Row(lambda L: ed_correlator(L, 9), 10, (4, 9), RING_RULE),
    "ed_correlator.L <= 18": Row(lambda L: ed_correlator(L, 9), 10, (20, 22), ED_SIZE, SizeError),
    "ed_correlator.x": Row(lambda x: ed_correlator(10, x), 3, (0, 10), span("x", 1, 9)),
    "ed_correlator_by_site.L": Row(lambda L: ed_correlator_by_site(L, 9), 10, (4, 9), RING_RULE),
    "ed_correlator_by_site.L <= 18": Row(lambda L: ed_correlator_by_site(L, 9), 10, (20, 22), ED_SIZE, SizeError),
    "ed_correlator_by_site.x": Row(lambda x: ed_correlator_by_site(10, x), 3, (0, 10), span("x", 1, 9)),
    "ed_correlator_sweep.L": Row(lambda L: ed_correlator_sweep(L, 9), 10, (4, 9), RING_RULE),
    "ed_correlator_sweep.L <= 18": Row(lambda L: ed_correlator_sweep(L, 9), 10, (20, 22), ED_SIZE, SizeError),
    "ed_correlator_sweep.x_max": Row(lambda x: ed_correlator_sweep(10, x), 9, (0, 10), span("x_max", 1, 9)),
    "bernoulli_numbers.count": Row(bernoulli_numbers, 4, (-1,), span("count", 0)),
    "polygamma.m": Row(lambda m: polygamma(m, 1.0), 3, (-1, 65), span("m", 0, 64)),
    "polygamma.z": Row(lambda z: polygamma(0, z), 1.5, (0.0, -1.0, NAN), "z must be positive, got {}"),
    "zeta_em.s": Row(zeta_em, 2.0, (1.0, 0.5, NAN), "require s > 1, got {}"),
    "zeta_odd.s": Row(zeta_odd, 3, (1, 83, -3), span("s", 3, 81)),
    "zeta_odd.s odd": Row(zeta_odd, 3, (4, 80), "s must be odd, got {}"),
    "log_r_series": Row(log_r_series, 7, (1,), span("N", 2)),
    "log_r_gamma_product": Row(log_r_gamma_product, 12, (0,), span("N", 1)),
    "log_r_barnes": Row(log_r_barnes, 12, (0,), span("N", 1)),
    "amplitude_report.n_fit": Row(lambda n: amplitude_report(n, 1000), 1000, (999, 100), span("n_fit", 1000)),
    "amplitude_report.n_fit even": Row(lambda n: amplitude_report(n, 1000), 1000, (1001,),
                                       "n_fit must be even, got {}"),
    "amplitude_report.x_fit_max": Row(lambda x: amplitude_report(1000, x), 1000, (999, 500), span("x_fit_max", 1000)),
    "AsymptoticParams.alpha": Row(lambda a: AsymptoticParams(a, 0.5), 0.5, (0.0, -1.0, NAN),
                                  "alpha must be positive, got {}"),
    "AsymptoticParams.c0": Row(lambda c: AsymptoticParams(0.5, c), 0.5, (0.0, -1.0, NAN),
                               "c0 must be positive, got {}"),
    "luttinger_from_lambda.lam": Row(luttinger_from_lambda, 0.0, (1.0, -1.0, 1.5, NAN),
                                     "require |lambda| < 1 (gapless regime), got {}"),
    "finite_size_energy.L": Row(lambda L: finite_size_energy(1, 1, FREE, L), 10, (0,), span("L", 1)),
    "asym_finite.x": Row(lambda x: asym_finite(x, 10, PARAMS), 3, (0, 10), span("x", 1, 9)),
    "asym_finite.L": Row(lambda L: asym_finite(5, L, PARAMS), 10, (2, 4, 7), RING_RULE),
    "asym_infinite.x": Row(lambda x: asym_infinite(x, PARAMS), 5, (0, -1), span("x", 1)),
}
# records with no guarded field, and the exception types
UNCHECKED = {"CorrelatorSample", "LogProduct", "LuttingerParams", "ConstantsReport", "Route",
             "DomainError", "SizeError"}
# no integer argument admits these; None aside, which is LatticeSpec's infinite chain
NOT_INTEGERS = (True, np.True_, 1.5, "3", np.array(5.0), np.array([3]))
# an integer argument's first row, whose guard is check_int's
INTEGER_ROWS = sorted(case for case, row in ROWS.items() if type(row.good) is int and " " not in case)


def public(case):
    """The public callable a row calls, named before its first dot."""
    name = case.split(".")[0]
    return next(getattr(m, name) for m in (xxchain, xxchain.ed, xxchain.exact) if hasattr(m, name))


def test_every_public_callable_with_a_parameter_has_a_row():
    assert UNCHECKED <= set(xxchain.__all__)
    guarded = {name for name in set(xxchain.__all__) - UNCHECKED
               if callable(obj := getattr(xxchain, name)) and inspect.signature(obj).parameters}
    assert sorted(guarded - {case.split(".")[0] for case in ROWS}) == []


@pytest.mark.parametrize("case", INTEGER_ROWS)
def test_numpy_integers_give_the_python_int_value(case):
    call, good = ROWS[case][:2]
    expected = call(good)
    for dtype in (np.int64, np.int32, np.uint16):
        result = call(dtype(good))
        np.testing.assert_equal(result, expected)
        assert repr(result) == repr(expected)  # no numpy integer is carried into the result


@pytest.mark.parametrize("case", sorted(ROWS))
def test_rejected_values_raise_before_any_route_code(case):
    row = ROWS[case]
    row.call(np.int64(row.good) if type(row.good) is int else row.good)  # 4.0 is an equal key to np.int64(4)
    values = [*row.rejected, *(np.int64(v) for v in row.rejected if type(v) is int)]
    checks = [(v, re.escape(row.message.format(v))) for v in values]
    if case in INTEGER_ROWS:  # the message names the argument and the value as given
        arg = re.escape(row.message.split()[0])
        bad = [*NOT_INTEGERS, float(row.good)] + ([] if row.call is LatticeSpec else [None])
        checks += [(v, rf"{arg} must be an integer in \[.+\], got {re.escape(repr(v))}") for v in bad]

    def reject(value, message):
        with pytest.raises(row.error) as info:
            row.call(value)
        assert re.fullmatch(message, str(info.value)), (value, str(info.value))

    for check in checks:  # with the admissible call's caches warm, where a check behind a cache would be skipped
        reject(*check)
    # and from cold caches, where nothing may run but the guards and the called function's own body
    codes = ran(lambda: [reject(*check) for check in checks])
    assert names(codes - code_of(GUARDS) - {getattr(public(case), "__code__", None)}) == []


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
