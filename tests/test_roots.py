"""Univariate root extraction with multiplicity clustering."""

import numpy as np
import pytest

from nevlab.errors import UsageError
from nevlab.roots import univariate_roots


def coeffs_from_roots(roots):
    c = np.array([1.0 + 0j])
    for a in roots:
        c = np.convolve(c, np.array([-a, 1.0 + 0j]))
    return c


def test_simple_roots():
    targets = [2.0, -3.0, 1j]
    rs = univariate_roots(coeffs_from_roots(targets))
    assert rs.total_multiplicity() == 3
    for target in targets:
        err = min(abs(a - target) for a, _ in rs.roots)
        assert err < 1e-8


def test_multiplicity_clustering():
    # companion-matrix roots of a triple root scatter ~eps^(1/3); cluster
    # with a tolerance above that scatter
    rs = univariate_roots(coeffs_from_roots([1.5, 1.5, 1.5, -2.0]), tol=1e-4)
    assert sorted(m for _, m in rs.roots) == [1, 3]
    assert rs.total_multiplicity() == 4


def test_root_at_origin():
    rs = univariate_roots(np.array([0.0, 0.0, 3.0 + 0j]))
    assert rs.roots[0] == (0j, 2)


def test_degree_padding_stripped():
    # trailing zeros in the ascending-coefficient array
    rs = univariate_roots(np.array([-2.0, 1.0, 0.0, 0.0], dtype=complex))
    assert rs.total_multiplicity() == 1
    assert abs(rs.roots[0][0] - 2.0) < 1e-10


def test_constant_has_no_roots():
    rs = univariate_roots(np.array([3.0 + 0j]))
    assert rs.total_multiplicity() == 0


def test_zero_polynomial_rejected():
    with pytest.raises(UsageError):
        univariate_roots(np.array([0.0 + 0j]))


def test_large_spread_of_moduli():
    targets = [1e-3, 1e3, -7.0]
    c = coeffs_from_roots(targets)
    rs = univariate_roots(c)
    assert rs.total_multiplicity() == 3
    for target in targets:
        err = min(abs(a - target) / max(abs(target), 1.0)
                  for a, _ in rs.roots)
        assert err < 1e-6
    scale = np.max(np.abs(c))
    for a, _ in rs.roots:
        assert abs(np.polyval(c[::-1], a)) / scale < 1e-6
