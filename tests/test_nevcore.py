"""Counting, proximity, characteristic: closed forms and invariants."""

import math

import numpy as np
import pytest

from nevlab.errors import UsageError
from nevlab.funcspace import (ProjectiveMap, RationalSlice, constant_slice,
                              HomogeneousForm)
from nevlab.nevcore import (DirectionSet, QuadratureSpec, RadialGrid,
                            characteristic, characteristic_function, counting,
                            fit_slope, jensen_residual, order_estimate,
                            proximity, weil_value)
from nevlab.funcspace import SliceFunction
from nevlab.polynomials import Polynomial, RationalFunction
from nevlab.slicing import LineView

Z = Polynomial.variable(0, 1)
QUAD = QuadratureSpec(n_lines=8, n_theta=128, seed=1)


def test_grid_validation():
    with pytest.raises(UsageError):
        RadialGrid((0.5, 2.0))
    with pytest.raises(UsageError):
        RadialGrid((10.0, 5.0))
    g = RadialGrid.parse("10:1000:3")
    assert np.allclose(g.radii, [10.0, 100.0, 1000.0])
    with pytest.raises(UsageError):
        RadialGrid.parse("10:1000")


def test_quad_validation():
    with pytest.raises(UsageError):
        QuadratureSpec(n_theta=100)  # not a power of two
    with pytest.raises(UsageError):
        QuadratureSpec(n_lines=0)


def test_direction_weights_sum_to_one():
    for m in (1, 2, 3):
        ds = DirectionSet.sample(m, QuadratureSpec(n_lines=16, seed=4))
        assert abs(ds.weights.sum() - 1.0) < 1e-12
        assert np.allclose(np.linalg.norm(ds.directions, axis=1), 1.0)


def test_counting_closed_form():
    # single pole at 2: N(r, h) = log(r/2) for r >= 2
    h = RationalSlice(RationalFunction(Polynomial.constant(1, 1), Z - 2))
    grid = RadialGrid((4.0, 8.0, 16.0))
    for s in counting(h, grid, QUAD):
        assert abs(s.n_pole - math.log(s.r / 2)) < 1e-12
        assert s.n_zero == 0.0


def test_counting_ignores_roots_inside_unit_disk():
    # root at 1/4 contributes log(r / max(|a|, 1)) = log r
    h = RationalSlice(Z - Polynomial.constant(0.25, 1))
    grid = RadialGrid((10.0, 100.0))
    for s in counting(h, grid, QUAD):
        assert abs(s.n_zero - math.log(s.r)) < 1e-12


def test_counting_monotone_in_r():
    h = RationalSlice((Z - 3) * (Z - 30) * (Z + 7))
    grid = RadialGrid.log_spaced(2.0, 1e3, 8)
    ns = [s.n_zero for s in counting(h, grid, QUAD)]
    assert all(b >= a for a, b in zip(ns, ns[1:]))


def test_proximity_closed_form():
    # m(r, z) = mean over the circle of log+ |r e^{i t}| = log r
    h = RationalSlice(Z)
    for s in proximity(h, RadialGrid((10.0, 100.0)), QUAD):
        assert abs(s.m_val - math.log(s.r)) < 1e-9


def test_characteristic_function_additive():
    h = RationalSlice(RationalFunction(Z * Z + 1, Z - 2))
    grid = RadialGrid((10.0, 100.0))
    for s in characteristic_function(h, grid, QUAD):
        assert abs(s.t_val - (s.m_val + s.n_pole)) < 1e-12
        assert s.err >= 0.0


def test_characteristic_normalized_at_one():
    f = ProjectiveMap([constant_slice(1, 1), RationalSlice(Z)])
    # T(r) = log+ ... ~ log r for the identity; check slope and base point
    grid = RadialGrid.log_spaced(10.0, 1e4, 5)
    t = characteristic(f, grid, QUAD)
    slope = fit_slope([math.log(s.r) for s in t], [s.t_val for s in t])
    assert abs(slope - 1.0) < 0.01


def test_jensen_residual_vanishes_for_rational():
    h = RationalSlice(RationalFunction((Z - 3) * (Z + 5), Z - 7))
    grid = RadialGrid((2.0, 20.0, 200.0))
    for s in jensen_residual(h, grid, QUAD):
        assert abs(s.m_val) <= 1e-6 + s.err


def test_weil_value_nonnegative():
    f = ProjectiveMap([constant_slice(1, 1), RationalSlice(Z)])
    H = HomogeneousForm.hyperplane([1, 1])
    rng = np.random.default_rng(0)
    for _ in range(20):
        z = rng.standard_normal(1) + 1j * rng.standard_normal(1)
        assert weil_value(f, H, z) >= -1e-12


def test_order_estimate_zero_for_bounded_growth():
    # constant map: T identically 0
    f = ProjectiveMap([constant_slice(1, 1), constant_slice(2, 1)])
    grid = RadialGrid.log_spaced(10.0, 1e4, 5)
    t = characteristic(f, grid, QUAD)
    assert order_estimate(t) == 0.0


def test_order_estimate_polynomial_growth():
    # T ~ 2 log r has order-estimate slope ~ log log growth -> near 0;
    # the estimate flags positive order only for genuinely fast growth
    f = ProjectiveMap([constant_slice(1, 1), RationalSlice(Z ** 2)])
    grid = RadialGrid.log_spaced(10.0, 1e4, 6)
    t = characteristic(f, grid, QUAD)
    assert order_estimate(t) < 0.3


class _CountingView(LineView):
    """u -> 1 + u/2, entire without closed zeros: counted through Jensen."""

    has_closed_zeros = False

    def __init__(self):
        self.calls = 0

    def log_values(self, u):
        self.calls += 1
        return np.log(1 + 0.5 * np.asarray(u, dtype=complex))


class _CountingSlice(SliceFunction):
    nvars = 2

    def __init__(self):
        self.views = []

    def line_view(self, xi):
        self.views.append(_CountingView())
        return self.views[-1]


def test_counting_evaluates_unit_circle_once_per_direction():
    h = _CountingSlice()
    quad = QuadratureSpec(n_lines=3, n_theta=64, seed=2)
    grid = RadialGrid((10.0, 100.0, 1000.0))
    samples = counting(h, grid, quad, DirectionSet.sample(2, quad))
    assert [v.calls for v in h.views] == [len(grid.radii) + 1] * 3
    for s in samples:  # one zero, at u = -2
        assert abs(s.n_zero - math.log(s.r / 2)) < 1e-9
