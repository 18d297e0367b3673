import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heisadams.group import gauge_arr, group_mul_arr

# magnitudes bounded away from the subnormal range: t^2 underflows to zero
# below ~1e-154, where the strict positivity of the gauge genuinely fails
coords = st.one_of(st.just(0.0),
                   st.floats(min_value=1e-6, max_value=50),
                   st.floats(min_value=-50, max_value=-1e-6))
points = st.tuples(coords, coords, coords)
ORIGIN = (0.0, 0.0, 0.0)


def mul(p, q):
    return group_mul_arr(*p, *q)


def inverse(p):
    return tuple(-c for c in p)


def dilate(lam, p):
    x, y, t = p
    return (lam * x, lam * y, lam * lam * t)


def distance(p, q):
    """Gauge distance |q^-1 * p|."""
    return gauge_arr(*mul(inverse(q), p))


def assert_close(lhs, rhs, scale):
    for a, b in zip(lhs, rhs):
        assert a == pytest.approx(b, abs=1e-9 * scale)


def test_identity_element():
    # a batch of points against the scalar origin: the product broadcasts
    p = (np.array([3.0, 0.5, -2.0]), np.array([-1.0, 0.0, 4.0]), np.array([7.0, -3.0, 0.25]))
    for prod in (mul(ORIGIN, p), mul(p, ORIGIN)):
        for got, want in zip(prod, p):
            assert np.array_equal(got, want)


def test_inverse_exact():
    p = (1.0, 0.0, 0.0)
    assert mul(p, inverse(p)) == ORIGIN


def test_hand_product():
    # (1,0,0)*(0,1,0): t-component 2(y x' - x y') = -2
    assert mul((1.0, 0.0, 0.0), (0.0, 1.0, 0.0)) == (1.0, 1.0, -2.0)


def test_noncommutative():
    p, q = (1.0, 0.0, 0.0), (0.0, 1.0, 0.0)
    assert mul(p, q) != mul(q, p)


def test_gauge_values():
    assert gauge_arr(*ORIGIN) == 0.0
    assert gauge_arr(1.0, 0.0, 0.0) == 1.0
    assert gauge_arr(0.0, 0.0, 4.0) == pytest.approx(2.0, abs=0)


def test_dilate_basics():
    p = (1.0, 0.0, 1.0)
    assert dilate(1.0, p) == p
    assert dilate(2.0, p) == (2.0, 0.0, 4.0)


@given(points)
def test_gauge_nonnegative_and_zero_only_at_origin(p):
    g = gauge_arr(*p)
    assert g >= 0.0
    if p != ORIGIN:
        assert g > 0.0


@given(points, st.floats(min_value=0.1, max_value=10))
def test_gauge_homogeneity(p, lam):
    assert gauge_arr(*dilate(lam, p)) == pytest.approx(lam * gauge_arr(*p), rel=1e-12, abs=1e-12)


@given(points, points, points)
@settings(max_examples=200)
def test_associativity(p, q, r):
    lhs = mul(mul(p, q), r)
    rhs = mul(p, mul(q, r))
    assert_close(lhs, rhs, max(1.0, abs(lhs[2]), abs(rhs[2])))


@given(points, points, st.floats(min_value=0.1, max_value=10))
@settings(max_examples=200)
def test_dilation_homomorphism_order(p, q, lam):
    """delta_lam(p*q) = delta_lam(p) * delta_lam(q); the swapped order fails.

    The swapped product delta(q)*delta(p) reverses the sign of the twist
    term, so it only agrees when p and q commute.
    """
    lhs = dilate(lam, mul(p, q))
    rhs = mul(dilate(lam, p), dilate(lam, q))
    assert_close(lhs, rhs, max(1.0, abs(lhs[2])))


def test_dilation_swapped_order_fails_generically():
    p, q, lam = (1.0, 0.0, 0.0), (0.0, 1.0, 0.0), 2.0
    lhs = dilate(lam, mul(p, q))
    swapped = mul(dilate(lam, q), dilate(lam, p))
    assert lhs != swapped


def test_left_invariant_distance():
    p, q, g = (0.3, -0.2, 1.0), (-1.0, 0.5, 0.2), (2.0, 1.0, -3.0)
    d0 = distance(p, q)
    d1 = distance(mul(g, p), mul(g, q))
    assert d1 == pytest.approx(d0, rel=1e-12)
