"""Counting, proximity, characteristic: closed forms and invariants."""

import math

import numpy as np
import pytest

from nevlab.errors import UsageError
from nevlab.funcspace import (ProductEntireSlice, ProductSlice,
                              ProjectiveMap, QPochhammerSpec, RationalSlice,
                              constant_slice, HomogeneousForm)
from nevlab.nevcore import (DirectionSet, NevSample, QuadratureSpec,
                            RadialGrid,
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


def _reference_characteristic(f, grid, quad, dirs):
    """The per-radius loop that batched `characteristic` replaced: one
    circle per evaluation, half-step retry on the non-finite nodes only.
    Returns the samples and whether any retry ran."""
    retried = False

    def sphere(vs, r):
        nonlocal retried

        def max_log(offset):
            th = (np.arange(quad.n_theta) + offset) * (2 * np.pi
                                                       / quad.n_theta)
            u = r * np.exp(1j * th)
            return np.max([v.log_abs(u) for v in vs
                           if not v.identically_zero], axis=0)

        vals = max_log(0.0)
        if not np.all(np.isfinite(vals)):
            retried = True
            vals = np.where(np.isfinite(vals), vals, max_log(0.5))
        full = float(np.mean(vals))
        return full, abs(full - float(np.mean(vals[::2])))

    out = [NevSample(r) for r in grid.radii]
    for xi, w in zip(dirs.directions, dirs.weights):
        vs = [c.line_view(xi) for c in f.components]
        base, ebase = sphere(vs, 1.0)
        for s in out:
            tr, er = sphere(vs, s.r)
            s.t_val += w * (tr - base)
            s.err += w * (er + ebase)
    return out, retried


def _pochhammer():
    return ProductEntireSlice(QPochhammerSpec(0.5, Z))


X2, Y2 = Polynomial.variable(0, 2), Polynomial.variable(1, 2)
# (map, radii, whether a node of some circle is a common zero)
BATCH_CASES = {
    "rational_2d": (ProjectiveMap([
        RationalSlice(X2 * Y2 + 1), RationalSlice(X2 - Y2.scale(2)),
        RationalSlice(X2 * X2 + Y2)]), (10.0, 100.0, 1000.0), False),
    # u = 10 is the theta = 0 node of the r = 10 circle
    "rational_node_zero": (ProjectiveMap([
        RationalSlice(Z - 10), RationalSlice(Z * Z - Z.scale(10))]),
        (10.0, 100.0, 1000.0), True),
    # the zeros 2^k of (u; 1/2)_inf lie on the nodes of r = 4, 16, 64
    "product_node_zero": (ProjectiveMap([
        _pochhammer(), ProductSlice([_pochhammer(), RationalSlice(Z)])]),
        (4.0, 16.0, 64.0), True),
}


@pytest.mark.parametrize("case", sorted(BATCH_CASES))
def test_batched_characteristic_matches_per_radius_loop(case):
    f, radii, node_zero = BATCH_CASES[case]
    grid = RadialGrid(radii)
    quad = QuadratureSpec(n_lines=3, n_theta=64, seed=5)
    dirs = DirectionSet.sample(f.nvars, quad)
    got = characteristic(f, grid, quad, dirs)
    want, retried = _reference_characteristic(f, grid, quad, dirs)
    assert retried == node_zero
    for g, w in zip(got, want):
        scale = max(abs(w.t_val), 1.0)
        assert abs(g.t_val - w.t_val) <= 1e-12 * scale
        assert abs(g.err - w.err) <= 1e-12 * scale
