"""Property tests over admissible rings (every even L >= 6, M = L/2 odd or even): symmetries and route agreement."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from refs import rel  # noqa: E402
from xxchain import INFINITE, LatticeSpec, correlator, correlator_det  # noqa: E402
from xxchain.ed import MAX_ED_LENGTH, ed_correlator_sweep  # noqa: E402

# the same examples on every run, and no example database left behind
FAST = settings(max_examples=40, deadline=None, derandomize=True, database=None)


@st.composite
def ring_and_distance(draw, max_length=402):
    """An admissible ring length, even 6 <= L <= max_length, and a distance 1 <= x <= L - 1."""
    L = 2 * draw(st.integers(3, max_length // 2))
    return L, draw(st.integers(1, L - 1))


@FAST
@given(ring_and_distance())
def test_ring_reflection(case):
    L, x = case
    lat = LatticeSpec.finite(L)
    assert rel(correlator(x, lat).value, correlator(L - x, lat).value) <= 1e-12


@FAST
@given(ring_and_distance(), st.integers(1, 2000))
def test_sign_staggering(case, x_inf):
    L, x = case
    for value, dist in ((correlator(x, LatticeSpec.finite(L)).value, x), (correlator(x_inf).value, x_inf)):
        assert value != 0 and (value > 0) == (dist % 2 == 0)


@FAST
@given(ring_and_distance(max_length=202))
def test_det_equals_product(case):
    L, x = case
    lat = LatticeSpec.finite(L)
    assert rel(correlator_det(x, lat), correlator(x, lat).value) <= 1e-12


@FAST
@given(st.integers(1, 400))
def test_det_equals_product_infinite_chain(x):
    assert rel(correlator_det(x, INFINITE), correlator(x, INFINITE).value) <= 1e-12


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(ring_and_distance(max_length=MAX_ED_LENGTH))
def test_ed_equals_det(case):
    L, x = case
    assert rel(ed_correlator_sweep(L, L - 1)[x - 1], correlator_det(x, LatticeSpec.finite(L))) <= 1e-13
