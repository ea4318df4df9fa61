"""Slice functions, projective maps, forms, and general position."""

from fractions import Fraction

import numpy as np
import pytest

from nevlab.errors import UsageError
from nevlab.funcspace import (HomogeneousForm, ProductEntireSlice,
                              ProjectiveMap, QPochhammerSpec, RationalSlice,
                              apply_form, check_general_position,
                              constant_slice, ideal_slice_dim,
                              monomials_of_degree, quotient_dim,
                              reduce_representation)
from nevlab.polynomials import Polynomial, RationalFunction

Z = Polynomial.variable(0, 1)


def test_rational_slice_log_value():
    h = RationalSlice(RationalFunction(Z * Z + 1, Z - 2))
    z = np.array([3.0 + 0j])
    assert abs(np.exp(h.log_value_at(z)) - 10.0) < 1e-12


def test_product_and_quotient_values():
    a = RationalSlice(Z + 1)
    b = RationalSlice(Z - 1)
    z = np.array([2.0 + 0j])
    assert abs(np.exp((a * b).log_value_at(z)) - 3.0) < 1e-12
    assert abs(np.exp((a / b).log_value_at(z)) - 3.0) < 1e-12


def test_rational_line_view_kept_per_direction():
    x, y = Polynomial.variable(0, 2), Polynomial.variable(1, 2)
    h = RationalSlice(RationalFunction(x * y + 1, x - y + 3))
    xi = np.array([0.6, 0.8j])
    view = h.line_view(xi)
    assert h.line_view(xi.copy()) is view
    assert h.line_view([0.6, 0.8j]) is view
    other = h.line_view(np.array([0.8, 0.6j]))
    assert other is not view
    assert h.line_view(np.array([0.8, 0.6j])) is other
    # views are per instance: an equal slice builds its own
    assert RationalSlice(h.rf).line_view(xi) is not view


def test_pochhammer_value():
    # (z; 1/2)_inf at z = 1/4: prod (1 - 2^-(k+2))
    h = ProductEntireSlice(QPochhammerSpec(Fraction(1, 2), Z))
    expected = 1.0
    for k in range(200):
        expected *= 1.0 - 0.25 * 0.5 ** k
    got = np.exp(h.log_value_at(np.array([0.25 + 0j])))
    assert abs(got - expected) < 1e-12


def test_pochhammer_zero_lattice():
    # zeros of (z; 1/2)_inf sit at z = 2^k, k >= 0
    h = ProductEntireSlice(QPochhammerSpec(Fraction(1, 2), Z))
    v = h.line_view(np.array([1.0 + 0j]))
    zs = sorted(abs(a) for a, _ in v.zeros(10.0))
    assert np.allclose(zs, [1.0, 2.0, 4.0, 8.0])


def test_reduce_representation():
    comps = [Z * (Z + 1), Z * (Z - 1)]
    f = reduce_representation(comps)
    assert f.polynomials()[0] == Z + 1
    assert f.polynomials()[1] == Z - 1


def test_reduce_rejects_all_zero():
    with pytest.raises(UsageError):
        reduce_representation([Polynomial.zero(1), Polynomial.zero(1)])


def test_apply_form_hyperplane():
    f = ProjectiveMap([constant_slice(1, 1), RationalSlice(Z)])
    H = HomogeneousForm.hyperplane([3, -2])
    df = apply_form(H, f)
    assert isinstance(df, RationalSlice)
    assert df.rf == RationalFunction(Z.scale(-2) + 3)


def test_apply_form_degree_two():
    f = ProjectiveMap([constant_slice(1, 1), RationalSlice(Z)])
    D = HomogeneousForm(2, 2, {(2, 0): 1, (0, 2): 1})
    df = apply_form(D, f)
    assert df.rf == RationalFunction(Z * Z + 1)


def test_form_validation():
    with pytest.raises(UsageError):
        HomogeneousForm(2, 1, {(2, 0): 1})  # degree mismatch
    with pytest.raises(UsageError):
        HomogeneousForm.hyperplane([0, 0])


def test_monomials_of_degree():
    ms = monomials_of_degree(3, 2)
    assert len(ms) == 6
    assert all(sum(e) == 2 for e in ms)
    assert len(set(ms)) == 6


def test_general_position():
    H = [HomogeneousForm.hyperplane(c)
         for c in ([1, 0], [0, 1], [1, 1])]
    ok, _ = check_general_position(H, 1)
    assert ok
    bad = [HomogeneousForm.hyperplane(c)
           for c in ([1, 0], [2, 0], [0, 1])]
    ok, witness = check_general_position(bad, 1)
    assert not ok and witness is not None


def test_quotient_dim_lines():
    # ideal (x1, x2) in P^2 at degree alpha: quotient is spanned by x0^alpha
    gammas = [HomogeneousForm(3, 1, {(0, 1, 0): 1}),
              HomogeneousForm(3, 1, {(0, 0, 1): 1})]
    for alpha in (2, 4):
        total = len(monomials_of_degree(3, alpha))
        assert ideal_slice_dim(gammas, alpha) == total - 1
        assert quotient_dim(gammas, alpha) == 1
