"""Counting, proximity, characteristic: closed forms and invariants."""

import collections
import math
import os
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nevlab.errors import NumericError, UsageError
from nevlab.funcspace import (ProductEntireSlice, ProductSlice,
                              ProjectiveMap, QPochhammerSpec, QuotientSlice,
                              RationalSlice, constant_slice)
from nevlab.nevcore import (DirectionSet, NevSample, QuadratureSpec,
                            RadialGrid, characteristic,
                            characteristic_function, circle_mean_log, counting,
                            _line_counts, _line_sum, directions_for,
                            fit_slope,
                            jensen_residual, order_estimate, proximity)
from nevlab.funcspace import SliceFunction
from nevlab.funcspace import HomogeneousForm
from nevlab.polynomials import Polynomial, RationalFunction
from nevlab.serialize import load_run_config
from nevlab.verifier import verify_cartan_smt
from nevlab.slicing import (LineView, PochhammerLineView, ProductLineView,
                            QuotientLineView, RationalLineView)
import nevlab.nevcore as nevcore
import nevlab.slicing as slicing
from oracles import OneLine, divisor_counts, resample_per_line

Z = Polynomial.variable(0, 1)
X2, Y2 = Polynomial.variable(0, 2), Polynomial.variable(1, 2)
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
    # a log-spaced end <= 1, inf or NaN fails before numpy takes its log,
    # which would print a RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for spec in ("abc:10:3", "10:100:-2", "10:100:2.5", "0:100:3",
                     "-1:10:3", "10:-1:3", "0.5:10:3", "2:inf:3", "nan:10:3"):
            with pytest.raises(UsageError, match=f"grid spec '{spec}'"):
                RadialGrid.parse(spec)
        assert RadialGrid.parse("5:5:1").radii == (5.0,)
    for radii in ((float("nan"), 100.0), (10.0, math.inf)):
        with pytest.raises(UsageError):
            RadialGrid(radii)


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


# ---------------------------------------------------------------------------
# the direction picker: which sampled lines are resampled
# ---------------------------------------------------------------------------

RESAMPLE_QUAD = QuadratureSpec(n_lines=4, n_theta=64, seed=3)
ON_X2_AXIS = np.array([0.0, 1.0], dtype=complex)  # z1 = 0 on this line


def _draw_with(monkeypatch, rows):
    """Make DirectionSet.sample return its usual draw for RESAMPLE_QUAD with
    the given rows replaced; returns that draw."""
    base = DirectionSet.sample(2, RESAMPLE_QUAD)
    for i, xi in rows.items():
        base.directions[i] = xi
    monkeypatch.setattr(DirectionSet, "sample",
                        classmethod(lambda cls, m, quad: base))
    return base


def _replaced_rows(got, base):
    assert np.array_equal(got.weights, base.weights)
    return [i for i, (a, b) in enumerate(zip(got.directions, base.directions))
            if a.tobytes() != b.tobytes()]


def test_direction_where_a_slice_vanishes_is_replaced(monkeypatch):
    h = RationalSlice(X2)
    base = _draw_with(monkeypatch, {1: ON_X2_AXIS})
    got = directions_for(RESAMPLE_QUAD, h)
    assert _replaced_rows(got, base) == [1]
    assert not OneLine(h, got.directions[1]).identically_zero


def test_direction_where_every_map_component_vanishes_is_replaced(
        monkeypatch):
    base = _draw_with(monkeypatch, {2: ON_X2_AXIS})
    f = ProjectiveMap([RationalSlice(X2), RationalSlice(X2 * X2)])
    got = directions_for(RESAMPLE_QUAD, f=f)
    assert _replaced_rows(got, base) == [2]
    # one component left nonzero on the line keeps the direction
    g = ProjectiveMap([RationalSlice(X2), RationalSlice(Y2)])
    assert _replaced_rows(directions_for(RESAMPLE_QUAD, f=g), base) == []


def test_directions_for_is_one_pass_of_the_combined_predicate(monkeypatch):
    h, g = RationalSlice(X2 - Y2), RationalSlice(Y2)
    f = ProjectiveMap([RationalSlice(X2), RationalSlice(X2 * Y2)])
    diagonal = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2)
    on_x1_axis = np.array([1.0, 0.0], dtype=complex)
    base = _draw_with(monkeypatch, {0: ON_X2_AXIS, 1: diagonal,
                                    3: on_x1_axis})

    # the oracle asks the predicate line by line, the lines alone
    def bad(xi):
        return (all(OneLine(c, xi).identically_zero for c in f.components)
                or OneLine(h, xi).identically_zero
                or OneLine(g, xi).identically_zero)

    want = resample_per_line(base, bad, RESAMPLE_QUAD)
    got = directions_for(RESAMPLE_QUAD, h, g, f=f)
    assert _replaced_rows(got, base) == [0, 1, 3]
    assert got.directions.tobytes() == want.directions.tobytes()


def test_degenerate_replacement_draw_is_drawn_again(monkeypatch):
    # the first replacement of row 1 lands on the degenerate line again;
    # the direction picker and the line-by-line oracle draw the same rows
    h, g = RationalSlice(X2), RationalSlice(X2 - Y2)
    base = _draw_with(monkeypatch, {1: ON_X2_AXIS, 2: ON_X2_AXIS})
    draw = DirectionSet._draw

    def run(pick):
        drawn = []

        def degenerate_first(rng, k, m):
            drawn.append(draw(rng, k, m))
            return ON_X2_AXIS[None] if len(drawn) == 1 else drawn[-1]

        monkeypatch.setattr(DirectionSet, "_draw",
                            staticmethod(degenerate_first))
        return pick(), len(drawn)

    got, n_got = run(lambda: directions_for(RESAMPLE_QUAD, h, g))
    want, n_want = run(lambda: resample_per_line(
        base, lambda xi: OneLine(h, xi).identically_zero
        or OneLine(g, xi).identically_zero, RESAMPLE_QUAD))
    assert _replaced_rows(got, base) == [1, 2]
    assert n_got == n_want == 3
    assert got.directions.tobytes() == want.directions.tobytes()


def test_degenerate_single_slice_raises():
    with pytest.raises(NumericError):
        directions_for(QUAD, constant_slice(0, 1))


def test_always_bad_predicate_raises_after_resample_limit():
    quad = QuadratureSpec(n_lines=4, n_theta=64, seed=3, resample_limit=5)
    calls = []

    def bad(lines):
        calls.append(lines)
        return np.ones(len(lines), dtype=bool)

    with pytest.raises(NumericError):
        DirectionSet.sample(2, quad).resample_against(bad, quad)
    assert len(calls) == quad.resample_limit + 1
    with pytest.raises(NumericError):
        directions_for(quad, constant_slice(0, 2))


def test_line_sum_is_the_per_direction_accumulation_bitwise():
    # the loop every functional ran before: s.x += w * value, from 0.0
    rng = np.random.default_rng(6)
    base = DirectionSet.sample(2, QuadratureSpec(n_lines=16, seed=6))
    w = rng.random(16)
    dirs = DirectionSet(base.directions, w / w.sum())
    rows = rng.standard_normal((16, 3, 5)) * 10.0 ** rng.integers(
        -8, 8, (16, 3, 5))
    want = np.zeros((3, 5))
    for j in range(3):
        for i in range(5):
            acc = 0.0
            for row, wk in zip(rows, dirs.weights):
                acc += wk * row[j, i]
            want[j, i] = acc
    passes = []

    def part(lines):
        passes.append(lines)
        return rows[lines]

    assert _line_sum(dirs, part).tobytes() == want.tobytes()
    # one line per call
    assert passes == [slice(k, k + 1) for k in range(16)]


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
    """u -> 1 + u/2 on each of its lines, entire without closed zeros:
    counted through Jensen.  Every view of a slice of its lines is kept in
    `parts`."""

    has_closed_zeros = False

    def __init__(self, lines, parts):
        self.identically_zero = np.zeros(lines, dtype=bool)
        self.is_entire = np.ones(lines, dtype=bool)
        self.parts = parts
        self.calls = 0

    def __getitem__(self, lines):
        self.parts.append(type(self)(len(self.is_entire[lines]), self.parts))
        return self.parts[-1]

    def log_values(self, u):
        self.calls += 1
        u = np.asarray(u, dtype=complex)
        return np.log(1 + 0.5 * np.broadcast_to(u, (len(self),) + u.shape))


class _CountingSlice(SliceFunction):
    nvars = 2

    def __init__(self):
        self.views = []

    def line_view(self, lines):
        self.views.append(_CountingView(len(lines), []))
        return self.views[-1]


def test_counting_evaluates_unit_circle_once_per_direction():
    h = _CountingSlice()
    quad = QuadratureSpec(n_lines=3, n_theta=64, seed=2)
    grid = RadialGrid((10.0, 100.0, 1000.0))
    samples = counting(h, grid, quad, DirectionSet.sample(2, quad))
    # one bundle for all lines; Jensen reads one line per call
    [view] = h.views
    assert view.calls == 0
    assert [len(v) for v in view.parts] == [1] * 3
    assert [v.calls for v in view.parts] == [len(grid.radii) + 1] * 3
    for s in samples:  # one zero, at u = -2
        assert abs(s.n_zero - math.log(s.r / 2)) < 1e-9


def test_line_counts_asks_each_view_for_its_divisor_once(monkeypatch):
    # a closed divisor is built once per bundle, at the largest radius,
    # and every radius is counted from it; the calls keep their views
    # alive, so no two of them share an id
    calls = []
    for cls in (slicing.RationalLineView, slicing.PochhammerLineView,
                slicing.ProductLineView, slicing.QuotientLineView):
        def counted(self, r, original=cls.divisor):
            calls.append((self, r))
            return original(self, r)

        monkeypatch.setattr(cls, "divisor", counted)
    poch = ProductEntireSlice(QPochhammerSpec(Fraction(1, 2), X2 + Y2))
    h = QuotientSlice(ProductSlice([RationalSlice(X2 - 1), poch]),
                      RationalSlice(Y2 - 2))
    quad = QuadratureSpec(n_lines=3, n_theta=64, seed=2)
    grid = RadialGrid((10.0, 100.0, 1000.0))
    counting(h, grid, quad, DirectionSet.sample(2, quad))
    assert collections.Counter(type(v).__name__ for v, _ in calls) == {
        "QuotientLineView": 1, "ProductLineView": 1,
        "RationalLineView": 2, "PochhammerLineView": 1}
    assert len({id(v) for v, _ in calls}) == len(calls)
    assert {r for _, r in calls} == {1000.0}


# Gaussian half-integers: exact points at least 1/2 apart.  4|a|^2 is an
# integer for each of them and 4r^2 is not for any radius here, so no
# point lies on a counting circle.
POINTS = st.builds(lambda a, b: complex(a / 2, b / 2),
                   st.integers(-12, 12), st.integers(-12, 12))
DIVISOR_RADII = (1.3, 2.9, 7.7, 20.3)


@st.composite
def composite_divisors(draw):
    """A product or quotient of seeded RationalLineViews and one
    PochhammerLineView, with the exact zeros and poles of each factor.

    A zero of the Pochhammer factor always cancels against a root of the
    first rational factor, and with two or more rational factors a zero of
    the first cancels against a pole of the second (zeros and poles of the
    whole view).  One polynomial has distinct roots: recovering a repeated
    root from its coefficients is the separate subject of certified
    multiplicities, while here multiplicities arise across factors."""
    qinv = draw(st.sampled_from([2, 4]))
    a = draw(st.sampled_from([1, 2, 0.5, 1j, -2]))
    poch_zeros = [qinv ** k / a for k in range(12)]
    poch_side = draw(st.booleans())  # True: numerator
    rational = []  # [side, num roots, den roots, leading coefficient]
    for _ in range(draw(st.integers(1, 3))):
        # the numerator gets a factor: the first rational one, when the
        # Pochhammer factor is in the denominator
        rational.append([draw(st.booleans()) or not (rational or poch_side),
                         draw(st.lists(POINTS, max_size=4, unique=True)),
                         draw(st.lists(POINTS, max_size=4, unique=True)),
                         draw(st.sampled_from([1, -2, 0.5j, 3 + 1j]))])

    def add(factor, point, as_zero):
        # num roots are zeros of a numerator factor, poles of a denominator
        roots = factor[1] if as_zero == factor[0] else factor[2]
        if point not in roots:
            roots.append(point)

    add(rational[0], draw(st.sampled_from(
        [w for w in poch_zeros if abs(w) <= 8.5])), as_zero=not poch_side)
    if len(rational) > 1:
        shared = draw(POINTS)
        add(rational[0], shared, as_zero=True)
        add(rational[1], shared, as_zero=False)
    sides = {True: [], False: []}
    zeros, poles = (poch_zeros, []) if poch_side else ([], poch_zeros)
    sides[poch_side].append(PochhammerLineView(1 / qinv, [a], [0]))
    for side, nr, dr, lead in rational:
        coeffs = [lead * (np.poly(r)[::-1] if r else np.ones(1))[None]
                  for r in (nr, dr)]
        sides[side].append(RationalLineView(*coeffs))
        zeros, poles = (zeros + nr, poles + dr) if side \
            else (zeros + dr, poles + nr)
    view = ProductLineView(draw(st.permutations(sides[True])))
    if sides[False]:
        view = QuotientLineView(view, ProductLineView(sides[False]))
    return view, zeros, poles


@settings(max_examples=60, deadline=None)
@given(composite_divisors())
def test_line_counts_match_known_divisor(case):
    view, zeros, poles = case
    [(nz, npole, err)] = _line_counts(view, DIVISOR_RADII, 64)
    ez, ep = divisor_counts(zeros, poles, DIVISOR_RADII)
    assert np.allclose(nz, ez, rtol=0, atol=1e-9)
    assert np.allclose(npole, ep, rtol=0, atol=1e-9)
    assert not np.any(err)


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
        vs = [OneLine(c, xi) for c in f.components]
        base, ebase = sphere(vs, 1.0)
        for s in out:
            tr, er = sphere(vs, s.r)
            s.t_val += w * (tr - base)
            s.err += w * (er + ebase)
    return out, retried


def _pochhammer():
    return ProductEntireSlice(QPochhammerSpec(0.5, Z))


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


@pytest.mark.parametrize("zero_lines", [[1], [0]])
def test_component_vanishing_on_a_line_drops_out_of_its_max(zero_lines):
    # X2 vanishes identically on the x2-axis line: that line's max reads
    # the other component, every other line both.  There the vanishing
    # component may have a pole, at the node u = 2 of r = 2, where its log
    # is not -inf but NaN: X2 / (Y2 - 2) is entire, u / -2, on the x1 axis
    quad = QuadratureSpec(n_lines=3, n_theta=64, seed=5)
    dirs = DirectionSet.sample(2, quad)
    dirs.directions[zero_lines] = ON_X2_AXIS
    f = ProjectiveMap([RationalSlice(X2), RationalSlice(X2 * Y2 + Y2 + 1)])
    if zero_lines == [0]:
        dirs = DirectionSet(np.array([ON_X2_AXIS, [1.0, 0.0]]),
                            np.full(2, 0.5))
        f = ProjectiveMap([RationalSlice(RationalFunction(X2, Y2 - 2)),
                           RationalSlice(Y2 + 3)])
    grid = RadialGrid((2.0, 10.0, 100.0))
    got = characteristic(f, grid, quad, dirs)
    want, retried = _reference_characteristic(f, grid, quad, dirs)
    assert not retried
    for g, w in zip(got, want):
        scale = max(abs(w.t_val), 1.0)
        assert abs(g.t_val - w.t_val) <= 1e-12 * scale
        assert abs(g.err - w.err) <= 1e-12 * scale


def _circle(r, n_theta, offset):
    th = (np.arange(n_theta) + offset) * (2 * np.pi / n_theta)
    return r * np.exp(1j * th)


class _OldCircleMeans:
    """The per-radius circle means that one batched `circle_mean_log`
    replaced: `mean_log` with its half rule (the N/2-node half retries its
    own non-finite nodes half an N/2 step away) and `mean_logplus`.
    Records whether any half-step retry ran."""

    def __init__(self, n_theta):
        self.n_theta = n_theta
        self.retried = False

    def _finite(self, view, vals, r, n_theta):
        bad = ~np.isfinite(vals)
        if np.any(bad):
            self.retried = True
            vals = np.where(bad, view.log_abs(_circle(r, n_theta, 0.5)),
                            vals)
        assert np.all(np.isfinite(vals))
        return vals

    def mean_log(self, view, r):
        n = self.n_theta
        vals = view.log_abs(_circle(r, n, 0.0))
        full = float(np.mean(self._finite(view, vals, r, n)))
        half = float(np.mean(self._finite(view, vals[::2], r, n // 2)))
        return full, abs(full - half)

    def mean_logplus(self, view, r):
        vals = view.log_abs(_circle(r, self.n_theta, 0.0))
        vp = np.maximum(self._finite(view, vals, r, self.n_theta), 0.0)
        full = float(np.mean(vp))
        return full, abs(full - float(np.mean(vp[::2])))


def _reference_proximity(h, grid, old, dirs):
    out = [NevSample(r) for r in grid.radii]
    for xi, w in zip(dirs.directions, dirs.weights):
        v = OneLine(h, xi)
        for s in out:
            mv, err = old.mean_logplus(v, s.r)
            s.m_val += w * mv
            s.err += w * err
    return out


def _reference_jensen_counting(h, grid, old, dirs):
    out = [NevSample(r) for r in grid.radii]
    for xi, w in zip(dirs.directions, dirs.weights):
        v = OneLine(h, xi)
        i1, e1 = old.mean_log(v, 1.0)
        for s in out:
            ir, er = old.mean_log(v, s.r)
            s.n_zero += w * (ir - i1)
            s.err += w * (er + e1)
    return out


def _reference_jensen_residual(h, grid, old, dirs):
    out = [NevSample(r) for r in grid.radii]
    for xi, w in zip(dirs.directions, dirs.weights):
        v = OneLine(h, xi)
        i1, e1 = old.mean_log(v, 1.0)
        for s in out:
            zeros, poles = v.divisor(s.r)
            nz = sum(m * math.log(s.r / max(abs(a), 1.0))
                     for a, m in zeros if abs(a) <= s.r)
            npole = sum(m * math.log(s.r / max(abs(a), 1.0))
                        for a, m in poles if abs(a) <= s.r)
            ir, er = old.mean_log(v, s.r)
            s.m_val += w * ((nz - npole) - (ir - i1))
            s.err += w * (er + e1)
    return out


class _NodeZeroView(_CountingView):
    """u -> 1 - u/10: the zero u = 10 is the theta = 0 node of r = 10."""

    def log_values(self, u):
        self.calls += 1
        u = np.asarray(u, dtype=complex)
        with np.errstate(divide="ignore"):
            return np.log(1 - 0.1 * np.broadcast_to(u, (len(self),)
                                                    + u.shape))


class _NodeZeroSlice(_CountingSlice):
    def line_view(self, lines):
        self.views.append(_NodeZeroView(len(lines), []))
        return self.views[-1]


# (slice, radii, whether a node of some circle is a zero or pole)
SLICE_CASES = {
    "rational_2d": (RationalSlice(RationalFunction(
        X2 * Y2 + 1, X2 - Y2.scale(2))), (10.0, 100.0, 1000.0), False),
    # the zero u = 10 and the pole u = 100 are theta = 0 nodes
    "rational_node_zero": (RationalSlice(RationalFunction(
        Z * Z - Z.scale(10), Z - 100)), (10.0, 100.0, 1000.0), True),
    "product_node_zero": (ProductSlice([_pochhammer(), RationalSlice(Z)]),
                          (4.0, 16.0, 64.0), True),
}
# entire stub slices without closed zeros: counted through Jensen
JENSEN_CASES = {
    "entire": (_CountingSlice(), (10.0, 100.0, 1000.0), False),
    "entire_node_zero": (_NodeZeroSlice(), (10.0, 100.0, 1000.0), True),
}
FUNCTIONALS = {
    "proximity": (proximity, _reference_proximity, "m_val", SLICE_CASES),
    "counting": (counting, _reference_jensen_counting, "n_zero",
                 JENSEN_CASES),
    "jensen_residual": (jensen_residual, _reference_jensen_residual,
                        "m_val", SLICE_CASES),
}


@pytest.mark.parametrize("name, case", [
    (name, case) for name in sorted(FUNCTIONALS)
    for case in sorted(FUNCTIONALS[name][3])])
def test_batched_functional_matches_per_radius_loop(name, case):
    functional, reference, attr, cases = FUNCTIONALS[name]
    h, radii, node_zero = cases[case]
    grid = RadialGrid(radii)
    quad = QuadratureSpec(n_lines=3, n_theta=64, seed=5)
    dirs = DirectionSet.sample(h.nvars, quad)
    got = functional(h, grid, quad, dirs)
    old = _OldCircleMeans(quad.n_theta)
    want = reference(h, grid, old, dirs)
    assert old.retried == node_zero
    for g, w in zip(got, want):
        scale = max(abs(getattr(w, attr)), 1.0)
        assert abs(getattr(g, attr) - getattr(w, attr)) <= 1e-12 * scale
        # on a node zero the Jensen half estimate now takes the even nodes
        # of the retried N-node array, not its own N/2-node retry
        if name == "proximity" or not node_zero:
            assert abs(g.err - w.err) <= 1e-12 * scale
        assert 0.0 <= g.err < math.inf


def _singular_at_zero_angle(u):
    # -inf on the theta = 0 node and, after the retry, on the node half a
    # step away: both node sets hit the singular set
    return np.where(np.abs(np.angle(u)) < 0.1, -np.inf, 0.0)


@pytest.mark.parametrize("reduce", [None, lambda a: np.maximum(a, 0.0)],
                         ids=["plain", "log_plus"])
def test_circle_mean_log_raises_when_retry_stays_singular(reduce):
    # reduce runs after the retry: max(-inf, 0) must not hide the node
    with pytest.raises(NumericError):
        circle_mean_log(_singular_at_zero_angle, (10.0, 100.0), 64,
                        reduce=reduce)


# ---------------------------------------------------------------------------
# bundles: a functional restricts each slice to all its lines at once and
# reads them one line per call
# ---------------------------------------------------------------------------

DATA = os.path.join(os.path.dirname(__file__), "data")


def test_fmt_residual_rejects_a_pole_before_counting():
    # D(f) of a q-Pochhammer and a rational component with a pole is a form
    # composition with neither closed zeros nor an entire slice: the
    # components are rejected first, as a usage error
    f = ProjectiveMap([
        ProductEntireSlice(QPochhammerSpec(Fraction(1, 2), X2)),
        RationalSlice(RationalFunction(Polynomial.constant(1, 2), Y2 - 3))])
    with pytest.raises(UsageError, match="holomorphic components"):
        nevcore.fmt_residual(f, HomogeneousForm.hyperplane([1, 1]),
                             RadialGrid((10.0, 100.0)),
                             QuadratureSpec(n_lines=4, n_theta=64))


def test_one_restriction_per_polynomial_for_all_lines(monkeypatch):
    # every polynomial of the harness is restricted to the 64 sampled lines
    # in one call, whatever the number of passes its functionals take
    calls = []
    restrict = Polynomial.restrict_numeric

    def counted(self, lines):
        calls.append((self, len(lines)))
        return restrict(self, lines)

    monkeypatch.setattr(Polynomial, "restrict_numeric", counted)
    cfg = load_run_config(os.path.join(DATA, "golden_run_degree3.json"))
    rep = verify_cartan_smt(cfg.map, cfg.forms, cfg.q, cfg.grid, cfg.quad)
    assert len(rep.rows) == len(cfg.grid.radii)
    assert {n for _, n in calls} == {cfg.quad.n_lines}
    per_poly = collections.Counter(id(p) for p, _ in calls)
    assert set(per_poly.values()) == {1}
    # numerator and denominator of 3 components, 5 hyperplane compositions
    # and the exact Casoratian
    assert len(calls) == 2 * (3 + 5 + 1)
