import math
import sys

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import contextprob as cp
from contextprob.hyperbolic import HyperbolicNumber, exp_j, polar

finite = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)
numbers = st.builds(HyperbolicNumber, finite, finite)


def test_zero_divisors_exist():
    z = HyperbolicNumber(1.0, 1.0) * HyperbolicNumber(1.0, -1.0)
    assert z == HyperbolicNumber(0.0, 0.0)


def test_generator_squares_to_one():
    j = HyperbolicNumber(0.0, 1.0)
    assert j * j == HyperbolicNumber(1.0, 0.0)


def test_norm_sq_signed_example():
    assert HyperbolicNumber(3.0, 5.0).norm_sq() == -16.0


def test_conjugation():
    z = HyperbolicNumber(2.0, -3.0)
    assert z.conj() == HyperbolicNumber(2.0, 3.0)
    assert (z * z.conj()).y == 0.0


def _magnitude(z):
    return abs(z.x) + abs(z.y)


@given(numbers, numbers, numbers)
@example(
    HyperbolicNumber(386910.0, -387141.0),
    HyperbolicNumber(610154.0, -610321.0),
    HyperbolicNumber(610187.0, 610187.0),
)
def test_ring_laws(z1, z2, z3):
    assert z1 * z2 == z2 * z1
    assert z1 + z2 == z2 + z1
    eps, tiny = sys.float_info.epsilon, sys.float_info.min
    m1, m2, m3 = map(_magnitude, (z1, z2, z3))
    # a component of a product of two factors is off by at most
    # gamma_2 = eps / (1 - eps) times the product of the factors'
    # magnitudes, and each side of a law rounds two products or a product
    # and a sum.  Near the null cone the results cancel, so the bounds
    # scale with the operands' magnitudes, not with the results; below
    # the normal range rounding is absolute, and stays under ``tiny``.
    lhs = (z1 * z2) * z3
    rhs = z1 * (z2 * z3)
    # each side is off by at most (2 gamma_2 + gamma_2^2) m1 m2 m3
    bound = 5 * eps * m1 * m2 * m3 + tiny
    assert abs(lhs.x - rhs.x) <= bound
    assert abs(lhs.y - rhs.y) <= bound
    lhs = z1 * (z2 + z3)
    rhs = z1 * z2 + z1 * z3
    # each side is off by at most about 3 eps / 2 times m1 (m2 + m3)
    bound = 4 * eps * m1 * (m2 + m3) + tiny
    assert abs(lhs.x - rhs.x) <= bound
    assert abs(lhs.y - rhs.y) <= bound


@given(numbers, numbers)
@example(HyperbolicNumber(0.0, 5.0), HyperbolicNumber(1e6, 999999.984375))
@example(HyperbolicNumber(0.0, 406.0), HyperbolicNumber(0.0, 3.879430967299876e-165))
def test_norm_multiplicative(z1, z2):
    lhs = (z1 * z2).norm_sq()
    rhs = z1.norm_sq() * z2.norm_sq()
    # x^2 - y^2 of the product cancels terms of size (x1^2 + y1^2)(x2^2 + y2^2),
    # so the rounding error scales with that product, not with the result
    scale = (z1.x**2 + z1.y**2) * (z2.x**2 + z2.y**2)
    # below the normal range rounding is absolute (half a subnormal ulp per
    # operation); amplified by operands of at most 1e6 it stays far below the
    # smallest normal float
    assert abs(lhs - rhs) <= 16 * sys.float_info.epsilon * scale + sys.float_info.min


@given(numbers, numbers)
def test_positive_cone_is_multiplicative(z1, z2):
    if z1.in_positive_cone() and z2.in_positive_cone():
        prod = z1 * z2
        tol = 1e-9 * max(1.0, abs(prod.x), abs(prod.y)) ** 2
        assert prod.in_positive_cone(tol)


@given(
    st.floats(min_value=-50, max_value=50, allow_nan=False),
    st.floats(min_value=-50, max_value=50, allow_nan=False),
)
def test_exponential_is_homomorphism(t1, t2):
    lhs = exp_j(t1) * exp_j(t2)
    rhs = exp_j(t1 + t2)
    # the products cancel at the cosh(t1) cosh(t2) scale
    scale = math.cosh(t1) * math.cosh(t2)
    assert abs(lhs.x - rhs.x) <= 1e-12 * scale
    assert abs(lhs.y - rhs.y) <= 1e-12 * scale


def test_exponential_unit_norm():
    # the contract holds absolutely at moderate rapidity; beyond that the
    # x^2 - y^2 cancellation error grows like cosh^2 * eps
    for theta in (-4.0, -3.0, 0.0, 0.5, 3.0, 4.0):
        assert exp_j(theta).norm_sq() == pytest.approx(1.0, abs=1e-12)
    for theta in (10.0, 25.0):
        scale = math.cosh(theta) ** 2
        assert exp_j(theta).norm_sq() == pytest.approx(1.0, abs=1e-12 * scale)


def test_exponential_identities():
    assert exp_j(0.0) == HyperbolicNumber(1.0, 0.0)
    theta = 1.3
    assert exp_j(theta).conj() == exp_j(-theta)
    cosh = 0.5 * (exp_j(theta) + exp_j(-theta))
    assert cosh.x == pytest.approx(math.cosh(theta), abs=1e-15)
    assert cosh.y == 0.0


def test_rapidity_overflow_guard():
    with pytest.raises(cp.RapidityOverflow):
        exp_j(701.0)


class TestPolar:
    def test_positive_real(self):
        p = polar(HyperbolicNumber(2.0, 0.0))
        assert (p.sign, p.modulus, p.theta) == (1, 2.0, 0.0)

    def test_negative_unit_circle_point(self):
        z = -1.0 * exp_j(1.5)
        p = polar(z)
        assert p.sign == -1
        assert p.modulus == pytest.approx(1.0, abs=1e-12)
        assert p.theta == pytest.approx(1.5, abs=1e-12)

    def test_example_five_three(self):
        p = polar(HyperbolicNumber(5.0, 3.0))
        assert p.sign == 1
        assert p.modulus == pytest.approx(4.0, abs=1e-12)
        assert p.theta == pytest.approx(math.atanh(3.0 / 5.0), abs=1e-12)

    def test_outside_cone_rejected(self):
        with pytest.raises(cp.NotInPositiveCone):
            polar(HyperbolicNumber(1.0, 2.0))
        with pytest.raises(cp.NotInPositiveCone):
            polar(HyperbolicNumber(1.0, 1.0))

    @given(
        st.floats(min_value=0.01, max_value=100, allow_nan=False),
        st.floats(min_value=-0.99, max_value=0.99),
        st.sampled_from((1, -1)),
    )
    def test_roundtrip(self, magnitude, ratio, sign):
        z = HyperbolicNumber(sign * magnitude, sign * magnitude * ratio)
        back = polar(z).reconstruct()
        assert abs(back.x - z.x) <= 1e-10 * max(1.0, abs(z.x))
        assert abs(back.y - z.y) <= 1e-10 * max(1.0, abs(z.x))

    def test_inverse_via_polar(self):
        z = HyperbolicNumber(5.0, 3.0)
        p = polar(z)
        via_polar = (p.sign / p.modulus) * exp_j(-p.theta)
        assert z * via_polar == pytest.approx(HyperbolicNumber(1.0, 0.0), abs=1e-14)

    def test_open_cone_is_a_group(self):
        rng_vals = [(2.0, 1.0), (-3.0, 0.5), (1.5, -1.2), (-0.7, 0.2)]
        elements = [HyperbolicNumber(x, y) for x, y in rng_vals]
        for z in elements:
            assert z.norm_sq() > 0
            # the inverse in the algebra is conj(z) / |z|^2
            inverse = (1.0 / z.norm_sq()) * z.conj()
            assert z * inverse == pytest.approx(HyperbolicNumber(1.0, 0.0), abs=1e-12)
        for z1 in elements:
            for z2 in elements:
                assert (z1 * z2).norm_sq() > 0
