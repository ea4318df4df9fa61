"""Exact Gaussian-rational arithmetic."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from nevlab.rationals import GaussianRational, ONE, ZERO

fracs = st.fractions(min_value=-20, max_value=20, max_denominator=12)
gaussians = st.builds(GaussianRational, fracs, fracs)


def test_construction_and_coercion():
    assert GaussianRational.from_value(3) == GaussianRational(3, 0)
    assert GaussianRational.from_value(Fraction(1, 2)).re == Fraction(1, 2)
    g = GaussianRational.from_value(GaussianRational(1, 2))
    assert (g.re, g.im) == (1, 2)


def test_basic_identities():
    i = GaussianRational(0, 1)
    assert i * i == GaussianRational(-1, 0)
    assert (ONE + i) * (ONE - i) == GaussianRational(2, 0)
    assert not ZERO and ONE


def test_division_and_pow():
    a = GaussianRational(3, 4)
    assert a / a == ONE
    assert a ** 0 == ONE
    assert a ** -1 == ONE / a
    with pytest.raises(ZeroDivisionError):
        a / ZERO


def test_to_complex():
    assert GaussianRational(1, -2).to_complex() == 1 - 2j


@given(gaussians, gaussians)
def test_add_sub_roundtrip(a, b):
    assert (a + b) - b == a


@given(gaussians, gaussians, gaussians)
def test_distributivity(a, b, c):
    assert a * (b + c) == a * b + a * c


@given(gaussians, gaussians)
def test_mul_div_roundtrip(a, b):
    if b:
        assert (a * b) / b == a
