"""Slice functions, projective maps, forms, and general position."""

from fractions import Fraction

import numpy as np
import pytest

from nevlab.errors import UsageError
from nevlab.funcspace import (HomogeneousForm, ProductEntireSlice,
                              ProjectiveMap, QPochhammerSpec, RationalSlice,
                              apply_form, check_general_position,
                              constant_slice, ideal_slice_dim,
                              monomials_of_degree, multiple_rows,
                              quotient_dim, reduce_representation)
from nevlab.polynomials import Polynomial, RationalFunction

Z = Polynomial.variable(0, 1)


def value_at(h, z):
    """h(z): a point is the node u = 1 on the line through it."""
    return np.exp(h.line_view(np.asarray(z)[None]).log_values(np.ones(1))[
        0, 0])


def test_rational_slice_log_value():
    h = RationalSlice(RationalFunction(Z * Z + 1, Z - 2))
    z = np.array([3.0 + 0j])
    assert abs(value_at(h, z) - 10.0) < 1e-12


def test_product_and_quotient_values():
    a = RationalSlice(Z + 1)
    b = RationalSlice(Z - 1)
    z = np.array([2.0 + 0j])
    assert abs(value_at(a * b, z) - 3.0) < 1e-12
    assert abs(value_at(a / b, z) - 3.0) < 1e-12


def test_rational_line_view_kept_per_direction():
    x, y = Polynomial.variable(0, 2), Polynomial.variable(1, 2)
    h = RationalSlice(RationalFunction(x * y + 1, x - y + 3))
    # one bundle per direction set, kept by the directions' bytes
    lines = np.array([[0.6, 0.8j], [0.8, 0.6j]])
    view = h.line_view(lines)
    assert h.line_view(lines.copy()) is view
    assert h.line_view([[0.6, 0.8j], [0.8, 0.6j]]) is view
    other = h.line_view(lines[::-1])
    assert other is not view
    assert h.line_view(np.array([[0.8, 0.6j], [0.6, 0.8j]])) is other
    assert np.array_equal(other.num, view.num[::-1])
    # views are per instance: an equal slice builds its own
    assert RationalSlice(h.rf).line_view(lines) is not view
    c = constant_slice(3, 2)
    assert c.line_view(lines) is c.line_view(lines.copy())
    assert np.array_equal(c.line_view(lines).log_values(np.ones(3)),
                          np.full((2, 3), np.log(3 + 0j)))


def test_pochhammer_value():
    # (z; 1/2)_inf at z = 1/4: prod (1 - 2^-(k+2))
    h = ProductEntireSlice(QPochhammerSpec(Fraction(1, 2), Z))
    expected = 1.0
    for k in range(200):
        expected *= 1.0 - 0.25 * 0.5 ** k
    got = value_at(h, np.array([0.25 + 0j]))
    assert abs(got - expected) < 1e-12


def test_pochhammer_zero_lattice():
    # zeros of (z; 1/2)_inf sit at z = 2^k, k >= 0
    h = ProductEntireSlice(QPochhammerSpec(Fraction(1, 2), Z))
    v = h.line_view(np.array([[1.0 + 0j]]))
    [(zeros, poles)] = v.divisor(10.0)
    zs = sorted(abs(a) for a, _ in zeros)
    assert np.allclose(zs, [1.0, 2.0, 4.0, 8.0]) and poles == []


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


def test_multiple_rows_are_the_products_with_each_monomial():
    base = HomogeneousForm(3, 2, {(2, 0, 0): "1/2", (0, 1, 1): -3,
                                  (1, 0, 1): 1j}).to_polynomial()
    for degree in (0, 1, 3):
        mus = monomials_of_degree(3, degree)
        rows = list(multiple_rows(base, degree))
        assert rows == [(base * Polynomial.monomial(mu)).terms for mu in mus]
    assert list(multiple_rows(base, -1)) == []


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
