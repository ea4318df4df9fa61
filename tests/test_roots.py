"""Univariate root extraction with multiplicity clustering."""

import numpy as np
import pytest

from nevlab.errors import UsageError
from nevlab.roots import _companion_roots, univariate_roots


def coeffs_from_roots(roots):
    c = np.array([1.0 + 0j])
    for a in roots:
        c = np.convolve(c, np.array([-a, 1.0 + 0j]))
    return c


def test_simple_roots():
    targets = [2.0, -3.0, 1j]
    rs = univariate_roots([coeffs_from_roots(targets)])[0]
    assert rs.total_multiplicity() == 3
    for target in targets:
        err = min(abs(a - target) for a, _ in rs.roots)
        assert err < 1e-8


def test_multiplicity_clustering():
    # companion-matrix roots of a triple root scatter ~eps^(1/3); cluster
    # with a tolerance above that scatter
    rs = univariate_roots(
        [coeffs_from_roots([1.5, 1.5, 1.5, -2.0])], tol=1e-4)[0]
    assert sorted(m for _, m in rs.roots) == [1, 3]
    assert rs.total_multiplicity() == 4


def test_root_at_origin():
    rs = univariate_roots(np.array([[0.0, 0.0, 3.0 + 0j]]))[0]
    assert rs.roots[0] == (0j, 2)


def test_degree_padding_stripped():
    # trailing zeros in the ascending-coefficient array
    rs = univariate_roots(np.array([[-2.0, 1.0, 0.0, 0.0]],
                                         dtype=complex))[0]
    assert rs.total_multiplicity() == 1
    assert abs(rs.roots[0][0] - 2.0) < 1e-10


def test_constant_has_no_roots():
    rs = univariate_roots(np.array([[3.0 + 0j]]))[0]
    assert rs.total_multiplicity() == 0


def test_zero_polynomial_rejected():
    with pytest.raises(UsageError):
        univariate_roots(np.array([[0.0 + 0j]]))


def test_large_spread_of_moduli():
    targets = [1e-3, 1e3, -7.0]
    c = coeffs_from_roots(targets)
    rs = univariate_roots([c])[0]
    assert rs.total_multiplicity() == 3
    for target in targets:
        err = min(abs(a - target) / max(abs(target), 1.0)
                  for a, _ in rs.roots)
        assert err < 1e-6
    scale = np.max(np.abs(c))
    for a, _ in rs.roots:
        assert abs(np.polyval(c[::-1], a)) / scale < 1e-6


def test_rows_are_rooted_as_alone():
    # rows of several lengths, padded with zero or negligible top
    # coefficients, with roots at the origin, a constant and a zero row
    rng = np.random.default_rng(4)
    rows = (rng.standard_normal((9, 6)) + 1j * rng.standard_normal((9, 6))
            ) * 10.0 ** rng.integers(-3, 4, (9, 1))
    rows[1, 4:] = 0
    rows[2, 5] = 1e-16 * abs(rows[2, 0])
    rows[3, :2] = 0
    rows[4, 1:] = 0
    rows[5, 2:] = 0
    got = univariate_roots(rows)
    for row, rs in zip(rows, got):
        assert rs.roots == univariate_roots(row[None])[0].roots
    rows[6] = 0
    with pytest.raises(UsageError):
        univariate_roots(rows)
    with pytest.raises(UsageError):
        univariate_roots(rows[0])


def test_stacked_companion_roots_are_numpy_roots_bitwise():
    # every row of one length shares one stacked eigvals call
    rng = np.random.default_rng(8)
    for n in (2, 3, 4, 7, 10):
        rows = [(rng.standard_normal(n) + 1j * rng.standard_normal(n))
                * 10.0 ** rng.integers(-4, 5, n) for _ in range(64)]
        rows += [rng.standard_normal(n + 1) + 0j for _ in range(3)]
        for c, got in zip(rows, _companion_roots(rows)):
            assert got.tobytes() == np.roots(c[::-1]).tobytes()
