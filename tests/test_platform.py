"""Preconditions of the platform that the suite's accuracy bounds rest on."""

import numpy as np


def test_long_double_is_x87_extended():
    """np.longdouble carries at least the 63 explicit mantissa bits of x87 extended precision.

    The det sweep, the log R_N table and the k = pi Lanczos run in np.longdouble,
    and these tests bound their errors below what a float64 long double (numpy on
    Windows and macOS arm64) reaches:

    * test_exact.py: test_det_sweep_against_mpmath, test_det_sweep_is_reflection_symmetric,
      test_log_r_table_against_mpmath and test_ring_wallis_identity_and_mirror;
    * test_ed_momentum.py: test_lanczos_converges_in_longdouble and
      test_k_pi_state_is_an_eigenvector_in_longdouble;
    * test_ed.py: test_spectral_gap_is_the_free_fermion_gap, the difference of
      two momentum sectors' energies from the longdouble Lanczos run.

    test_sine_grid_within_two_ulp, test_far_factors_against_mpmath and
    test_series_step_against_mpmath (test_exact.py) count their errors in units
    of 2^-63, the x87 epsilon.

    The goldens of test_golden.py (test_printed_bytes_equal_the_golden,
    test_a_one_ulp_move_shows and test_golden_bytes_hold_under_a_capped_dispatch)
    pin bytes that the long double makes independent of the CPU: the product
    column's exp and the constants' subleading fit run on libm's expl and sqrtl.
    Where np.longdouble is a double, np.exp on it is numpy's float64 SIMD loop
    again, and those bytes move with the dispatch.

    This is a stated precondition, not a skip: on a
    platform without it those tests fail, and so does this one, saying why.
    """
    assert np.finfo(np.longdouble).nmant >= 63, np.finfo(np.longdouble)
