"""Sparse polynomial and rational-function algebra, exact."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nevlab.errors import UsageError
from nevlab.polynomials import (Polynomial, RationalFunction, poly_gcd,
                                try_divide)
from nevlab.rationals import ONE, GaussianRational
from oracles import restrict_exact, restrict_scalar

fracs = st.fractions(min_value=-6, max_value=6, max_denominator=6)
coeffs = st.builds(GaussianRational, fracs, fracs)


def polys(nvars, max_deg=3, max_terms=5):
    exps = st.tuples(*[st.integers(0, max_deg)] * nvars)
    return st.builds(lambda t: Polynomial(nvars, t),
                     st.dictionaries(exps, coeffs, max_size=max_terms))


def nonzero(strategy):
    return strategy.filter(lambda p: not p.is_zero())


def test_constructors_and_predicates():
    z = Polynomial.variable(0, 1)
    assert z.total_degree() == 1
    assert Polynomial.zero(2).total_degree() == -1
    assert Polynomial.constant(5, 2).is_constant()
    assert Polynomial.monomial((1, 2), 3).total_degree() == 3
    assert (z * z + z).is_homogeneous() is False
    assert (z * z).is_homogeneous()


def test_scalar_coercion():
    z = Polynomial.variable(0, 1)
    assert z + 1 == z + Polynomial.constant(1, 1)
    assert 1 + z == z + 1
    assert 2 * z == z.scale(2)
    assert (3 - z) + (z - 3) == Polynomial.zero(1)


def test_division_exactness():
    z = Polynomial.variable(0, 1)
    p = (z + 1) * (z - 2)
    assert try_divide(p, z + 1) == z - 2
    assert try_divide(p, z + 3) is None
    with pytest.raises(UsageError):
        try_divide(p, Polynomial.zero(1))


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 2).flatmap(lambda m: st.tuples(polys(m), polys(m))))
def test_add_sub_roundtrip(ab):
    a, b = ab
    assert (a + b) - b == a


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 2).flatmap(lambda m: st.tuples(polys(m),
                                                     nonzero(polys(m)))))
def test_mul_div_roundtrip(ab):
    a, b = ab
    assert try_divide(a * b, b) == a


@settings(max_examples=40, deadline=None)
@given(st.tuples(nonzero(polys(1)), nonzero(polys(1))))
def test_gcd_divides_and_coprime_quotients(ab):
    a, b = ab
    g = poly_gcd(a, b)
    qa, qb = try_divide(a, g), try_divide(b, g)
    assert qa is not None and qb is not None
    assert poly_gcd(qa, qb).is_constant()


nonzero_coeffs = coeffs.filter(bool)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3).flatmap(
    lambda m: st.tuples(nonzero(polys(m)), nonzero_coeffs)))
def test_gcd_with_nonzero_constant_is_one(pc):
    p, c = pc
    one = Polynomial.constant(1, p.nvars)
    cp = Polynomial.constant(c, p.nvars)
    assert poly_gcd(p, cp) == one
    assert poly_gcd(cp, p) == one


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3).flatmap(
    lambda m: st.tuples(polys(m), nonzero_coeffs)))
def test_rational_with_constant_denominator_is_scaled_numerator(pc):
    p, c = pc
    r = RationalFunction(p, Polynomial.constant(c, p.nvars))
    assert r.num == p.scale(ONE / c)
    assert r.den == Polynomial.constant(1, p.nvars)
    assert r == RationalFunction(p.scale(ONE / c))


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 2).flatmap(
    lambda m: st.tuples(polys(m), polys(m),
                        st.tuples(*[st.builds(GaussianRational, fracs,
                                              fracs)] * m))))
def test_restriction_commutes_with_product(abxi):
    a, b, xi = abxi
    if not any(xi):
        xi = tuple([GaussianRational(1, 0)] + list(xi[1:]))
    assert restrict_exact(a * b, xi) == \
        restrict_exact(a, xi) * restrict_exact(b, xi)


def test_rational_reduction():
    z = Polynomial.variable(0, 1)
    r = RationalFunction((z + 1) * (z - 2), (z + 1) * (z + 3))
    assert r.num == z - 2
    assert r.den == z + 3
    # denominator kept monic
    r2 = RationalFunction(z, z.scale(2) + 2)
    assert r2.den == z + 1
    with pytest.raises(UsageError):
        RationalFunction(z, Polynomial.zero(1))


@settings(max_examples=40, deadline=None)
@given(st.tuples(nonzero(polys(1, 2, 3)), nonzero(polys(1, 2, 3))))
def test_rational_field_axioms(ab):
    a, b = ab
    ra, rb = RationalFunction(a), RationalFunction(b)
    assert (ra / rb) * rb == ra
    assert ra - ra == RationalFunction(Polynomial.zero(1))


# a coordinate of a sampled line: signed zeros on either part, small and
# large magnitudes
coordinates = st.builds(
    complex,
    st.one_of(st.sampled_from([0.0, -0.0]),
              st.floats(-1e3, 1e3, allow_subnormal=False)),
    st.one_of(st.sampled_from([0.0, -0.0]),
              st.floats(-1e3, 1e3, allow_subnormal=False)))


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 3).flatmap(lambda m: st.tuples(
    polys(m, max_deg=9, max_terms=6),
    st.lists(st.lists(coordinates, min_size=m, max_size=m).filter(any),
             min_size=1, max_size=6))))
def test_restrict_numeric_rows_are_the_scalar_restriction_bitwise(case):
    # exponents to 9 run numpy's binary powering past the unrolled 1, 2, 3
    p, lines = case
    lines = np.array(lines, dtype=complex)
    got = p.restrict_numeric(lines)
    assert got.shape == (len(lines), max(p.total_degree(), 0) + 1)
    with np.errstate(all="ignore"):
        want = np.array([restrict_scalar(p, xi) for xi in lines])
    assert got.tobytes() == want.tobytes()


def test_restrict_numeric_high_power_and_signed_zero_coordinates():
    # x**e for e >= 100 is libm's cpow, taken per entry; signed zero
    # coordinates
    x, y = Polynomial.variable(0, 2), Polynomial.variable(1, 2)
    p = x ** 101 + GaussianRational(Fraction(1, 3), Fraction(-2)) * x * y ** 5
    lines = np.array([[0.99 + 0.1j, -0.0 - 0.0j], [complex(-0.0, 0.5), 1j],
                      [complex(0.0, -0.0), 2.0]])
    want = np.array([restrict_scalar(p, xi) for xi in lines])
    assert p.restrict_numeric(lines).tobytes() == want.tobytes()
    for bad in (np.ones(2), np.ones((1, 3)), np.zeros((2, 2))):
        with pytest.raises(UsageError):
            p.restrict_numeric(bad)
