"""q-rescaling operators, Casoratians, nondegeneracy, ratio series."""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from nevlab.errors import UsageError
from nevlab.funcspace import (CompositionSlice, ProductEntireSlice,
                              ProductSlice, ProjectiveMap, QPochhammerSpec,
                              QuotientSlice, RationalSlice, ShiftedSlice,
                              constant_slice)
from nevlab.nevcore import QuadratureSpec, RadialGrid
from nevlab.polynomials import Polynomial, RationalFunction, try_divide
import nevlab.qops as qops
from nevlab.qops import (N_SAMPLES, CasoratiSlice, MonomialCasoratiSlice,
                         QShift, _det_rational,
                         _sample_points, casorati, casorati_monomials,
                         ldl_ratio, linear_nondegeneracy, q_periodic_test,
                         qscale, scaled_samples, shift_counting_ratio)
from nevlab.rationals import GaussianRational
from nevlab.slicing import POCHHAMMER_TAIL, _nterms, _pochhammer_log
import nevlab.slicing as slicing
from oracles import (OneLine, eval_abs_terms, eval_complex,
                     log_matrix_per_view, qscale_exact, qshift_numeric,
                     scaled_samples_per_point)

Z = Polynomial.variable(0, 1)
Q2 = QShift([2])


def test_qshift_validation():
    with pytest.raises(UsageError):
        QShift([])
    with pytest.raises(UsageError):
        QShift([0])
    assert QShift([2, 2]).diagonal
    assert QShift([Fraction(1, 2)]).exact
    assert not QShift([2.5j, 1.0]).exact


def test_qshift_powers():
    q = QShift([Fraction(3, 2)])
    assert q.powers(2)[0].re == Fraction(9, 4)
    assert q.powers(-1)[0].re == Fraction(2, 3)
    # a double entry counts as its exact value, powered exactly
    assert QShift([1.1]).powers(3)[0] == GaussianRational(Fraction(1.1) ** 3)


def test_qscale_rational():
    h = RationalSlice(Z + 1)
    g = qscale(h, Q2)
    assert g.rf == RationalFunction(Z.scale(2) + 1)
    assert qscale(h, Q2, 0) is h
    # a rational h stays exact under a float q, scaled by the double's value
    g = qscale(h, QShift([1.1]), 2)
    assert isinstance(g, RationalSlice)
    assert g.rf == RationalFunction(Z.scale(Fraction(1.1) ** 2) + 1)
    # any other h is a change of line, under any q
    w = ProductEntireSlice(QPochhammerSpec(Fraction(1, 2), Z))
    for q in (Q2, QShift([1.1])):
        g = qscale(w, q)
        assert isinstance(g, ShiftedSlice) and g.h is w


def test_qscale_keeps_constant_instance():
    one = constant_slice(1, 2)
    assert qscale(one, QShift([2, 3]), 1) is one
    assert qscale(one, QShift([Fraction(1, 2), 5]), 3) is one
    assert qscale(one, QShift([0.5, 1.5 + 0.25j]), 2) is one


def test_ratio_series_float_q_matches_exact_q():
    # 5/4 is a double, so the float q rescales the rational h exactly by
    # the same value as the exact q, and the two runs agree bitwise
    h = RationalSlice(RationalFunction(Polynomial.constant(1, 1), Z - 3))
    quad = QuadratureSpec(n_lines=4, n_theta=128, seed=5)
    grid = RadialGrid((10.0, 100.0, 1000.0, 10000.0))
    for series in (ldl_ratio, shift_counting_ratio):
        exact = series(h, QShift([Fraction(5, 4)]), grid, quad)
        numeric = series(h, QShift([1.25]), grid, quad)
        np.testing.assert_array_equal(numeric.ratios, exact.ratios)


EPS = np.finfo(float).eps
SHIFT_Q = [2, Fraction(-1, 2), Fraction(3, 2), GaussianRational(0, 2),
           GaussianRational(Fraction(3, 4), Fraction(-1, 2))]
quarters = st.builds(lambda a, b: GaussianRational(Fraction(a, 4),
                                                   Fraction(b, 4)),
                     st.integers(-8, 8), st.integers(-8, 8)).filter(bool)


@st.composite
def slice_leaves(draw, m):
    """A rational function over 1 or 1 + c z_j, or a q-Pochhammer product
    of a nonconstant affine form, in m variables."""
    if draw(st.booleans()):
        exps = st.tuples(*[st.integers(0, 2)] * m)
        num = Polynomial(m, draw(st.dictionaries(exps, quarters, min_size=1,
                                                 max_size=3)))
        den = Polynomial.constant(1, m)
        if draw(st.booleans()):
            j = draw(st.integers(0, m - 1))
            den = den + Polynomial.variable(j, m).scale(draw(quarters))
        return RationalSlice(RationalFunction(num, den))
    linear = [tuple(int(i == j) for i in range(m)) for j in range(m)]
    ell = Polynomial(m, draw(st.dictionaries(st.sampled_from(linear),
                                             quarters, min_size=1)))
    if draw(st.booleans()):
        ell = ell + Polynomial.constant(draw(quarters), m)
    qbase = draw(st.sampled_from([0.5, -0.3 + 0.4j, 0.8j]))
    return ProductEntireSlice(QPochhammerSpec(qbase, ell))


@st.composite
def shifted_slices(draw):
    """(h, q, k, xi, u): h of every slice class, an exact q, a shift k, a
    seeded direction xi and nodes u on a circle."""
    m = draw(st.integers(1, 2))
    leaf = slice_leaves(m)
    kind = draw(st.sampled_from(["leaf", "product", "quotient", "form"]))
    if kind == "leaf":
        h = draw(leaf)
    elif kind == "product":
        h = ProductSlice([draw(leaf), draw(leaf)])
    elif kind == "quotient":
        h = QuotientSlice(draw(leaf), draw(leaf))
    else:
        d = draw(st.integers(1, 2))
        exps = st.sampled_from([(i, d - i) for i in range(d + 1)])
        terms = draw(st.dictionaries(exps, quarters, min_size=1))
        h = CompositionSlice([(c.to_complex(), e) for e, c in terms.items()],
                             [draw(leaf), draw(leaf)])
    q = QShift(draw(st.lists(st.sampled_from(SHIFT_Q), min_size=m,
                             max_size=m)))
    k = draw(st.sampled_from([-1, 1, 2, 3]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    xi = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    r = draw(st.sampled_from([0.5, 1.5, 4.0]))
    u = r * np.exp(2j * np.pi * (np.arange(8) + 0.5) / 8)
    return h, q, k, xi, u


def _log_rounding(h, xi, u):
    """First-order bound on the rounding error of the complex log of h on
    the line through xi at the nodes u, from the sizes of the values each
    evaluation adds up.  It covers a rounding of xi itself as well."""
    z = np.multiply.outer(u, xi)
    if isinstance(h, RationalSlice):
        out = np.zeros(u.shape)
        for p in (h.rf.num, h.rf.den):
            # coefficient, power, sum and Horner roundings of each term
            deg = max(sum(e) for e in p.terms)
            v = np.abs(eval_complex(p, z))
            out += EPS * ((8 * deg + len(p.terms) + 2)
                          * eval_abs_terms(p, z) / v + abs(np.log(v)))
        return out
    if isinstance(h, ProductEntireSlice):
        lin, b = h.spec.affine_parts()
        ell = z @ lin + b
        size = np.abs(z) @ np.abs(lin) + abs(b)
        q = complex(h.spec.qbase)
        n = _nterms(q, float(np.max(np.abs(ell))))
        k = np.arange(n)[:, None]
        # ell from a dot product, q^k from a running product, then one
        # multiply, subtract, chunk product and log per factor
        err = (abs(q) ** k * (3 * (len(lin) + 2) * size
                              + 3 * (k + 2) * np.abs(ell)) + 4)
        logs = _pochhammer_log(q, ell[None])[0]
        return (EPS * (np.sum(err / np.abs(1 - q ** k * ell), axis=0)
                       + n * abs(logs))
                + 2 * POCHHAMMER_TAIL / (1 - abs(q)))
    if isinstance(h, (ProductSlice, QuotientSlice)):
        parts = h.factors if isinstance(h, ProductSlice) else [h.num, h.den]
        return sum(_log_rounding(p, xi, u)
                   + EPS * np.abs(OneLine(p, xi).log_values(u))
                   for p in parts)
    logs = [OneLine(c, xi).log_values(u) for c in h.components]
    errs = [_log_rounding(c, xi, u) for c in h.components]
    terms = [np.log(a) + sum(e * lv for e, lv in zip(exps, logs))
             for a, exps in h.coeffs]
    shift = np.max([t.real for t in terms], axis=0)
    total = np.abs(np.sum([np.exp(t - shift) for t in terms], axis=0))
    spread = np.zeros(u.shape)
    for t, (a, exps) in zip(terms, h.coeffs):
        # the term's log accumulates by parts, then exp(t - shift)
        rel = sum(e * (d + 4 * EPS * np.abs(lv))
                  for e, d, lv in zip(exps, errs, logs)) \
            + 4 * EPS * (abs(np.log(a)) + np.abs(shift) + len(terms))
        spread += np.exp(t.real - shift) * rel
    return spread / total + EPS * np.abs(shift + np.log(total))


@settings(max_examples=80, deadline=None)
@given(shifted_slices())
def test_qscale_is_a_change_of_direction(case):
    # h(q^k z) on the line through xi is h on the line through q^k xi, and
    # agrees with h rebuilt from exactly rescaled rational functions and
    # Pochhammer arguments
    h, q, k, xi, u = case
    shifted = qshift_numeric(q) ** k * xi
    got = OneLine(qscale(h, q, k), xi).log_abs(u)
    bound = 2 * _log_rounding(h, shifted, u)
    for want in (OneLine(h, shifted).log_abs(u),
                 OneLine(qscale_exact(h, q, k), xi).log_abs(u)):
        assert np.all((got == want) | (np.abs(got - want) <= bound))


def test_casorati_power_basis_vandermonde():
    # C(1, z, ..., z^n) = prod_{i<j} (q^j - q^i) * z^{n(n+1)/2}
    for n in (1, 2, 3, 4, 5, 6):
        comps = [RationalSlice(Z ** k) for k in range(n + 1)]
        det = casorati(comps, Q2)
        coeff = 1
        for j in range(n + 1):
            for i in range(j):
                coeff *= 2 ** j - 2 ** i
        expected = RationalFunction(
            (Z ** (n * (n + 1) // 2)).scale(coeff))
        assert det.rf == expected


def _leibniz(mat):
    """The determinant as the signed sum over permutations (test oracle),
    returned as (N, D) with det = N / D: every row is multiplied by the
    product P of the distinct denominators, so D = P^n and the sum needs
    polynomial arithmetic only."""
    n = len(mat)
    p = Polynomial.constant(1, 1)
    for den in {e.den for row in mat for e in row}:
        p = p * den
    rows = [[e.num * try_divide(p, e.den) for e in row] for row in mat]
    num = Polynomial.zero(1)
    for perm in itertools.permutations(range(n)):
        odd = sum(perm[i] > perm[j] for i in range(n)
                  for j in range(i + 1, n)) % 2
        term = Polynomial.constant(-1 if odd else 1, 1)
        for i, j in enumerate(perm):
            term = term * rows[i][j]
        num = num + term
    return num, p ** n


gaussians = st.builds(lambda a, b: GaussianRational(Fraction(a, 2),
                                                    Fraction(b, 3)),
                      st.integers(-4, 4), st.integers(-4, 4))
upolys = st.builds(lambda t: Polynomial(1, t), st.dictionaries(
    st.tuples(st.integers(0, 2)), gaussians, max_size=3))


@st.composite
def rational_matrices(draw):
    """n x n matrices, n <= 4, of one-variable Gaussian-rational functions
    whose denominators come from a pool of up to three, so entries share
    denominators or not; empty numerators give zero entries."""
    n = draw(st.integers(1, 4))
    dens = draw(st.lists(upolys.filter(lambda p: not p.is_zero()),
                         min_size=1, max_size=3))
    pick = st.integers(0, len(dens) - 1)
    return [[RationalFunction(draw(upolys), dens[draw(pick)])
             for _ in range(n)] for _ in range(n)]


@settings(max_examples=60, deadline=None)
@given(rational_matrices())
def test_det_rational_matches_leibniz(mat):
    det = _det_rational(mat)
    num, den = _leibniz(mat)
    assert det.num * den == num * det.den


# q entries whose doubles are exact, so that a float q and the exact q
# rescale every component by the same numbers
DYADIC_Q = [Fraction(1, 2), Fraction(3, 2), Fraction(2), Fraction(-3, 4),
            Fraction(5, 4), GaussianRational(Fraction(1, 2), Fraction(1, 2)),
            GaussianRational(Fraction(3, 2), Fraction(-1, 4))]


@st.composite
def casorati_inputs(draw):
    """(components, exact q entries): rational maps of 2 to 4 components
    in one variable, over monic linear denominators or 1, and polynomial
    maps of 2 or 3 components in two variables (whose exact Casoratians
    over denominators can take most of a minute each)."""
    m = draw(st.integers(1, 2))
    exps = st.tuples(*[st.integers(0, 2)] * m).filter(lambda e: sum(e) <= 2)
    nums = st.builds(lambda t: Polynomial(m, t), st.dictionaries(
        exps, gaussians, min_size=1, max_size=3)).filter(
            lambda p: not p.is_zero())
    one = Polynomial.constant(1, m)
    dens = st.just(one) if m == 2 else st.one_of(st.just(one), st.builds(
        lambda c: Z + Polynomial.constant(c, 1), gaussians))
    n1 = draw(st.integers(2, 4 if m == 1 else 3))
    comps = [RationalSlice(RationalFunction(draw(nums), draw(dens)))
             for _ in range(n1)]
    q = draw(st.lists(st.sampled_from(DYADIC_Q), min_size=m, max_size=m))
    return comps, q


def _permanent(a):
    """Permanents of a stack of (n, n) matrices, by expansion."""
    n = a.shape[-1]
    return sum(np.prod([a[..., k, p[k]] for k in range(n)], axis=0)
               for p in itertools.permutations(range(n)))


def _rounding_scale(rf, z):
    """|rf| at z and the relative rounding of evaluating it there, in
    units of eps: (sum of |terms|) / |value| of numerator and
    denominator."""
    nv, dv = eval_complex(rf.num, z), eval_complex(rf.den, z)
    return np.abs(nv / dv), (eval_abs_terms(rf.num, z) / np.abs(nv)
                             + eval_abs_terms(rf.den, z) / np.abs(dv))


@settings(max_examples=25, deadline=None)
@given(casorati_inputs(), st.integers(0, 2**32 - 1))
def test_numeric_casorati_matches_exact(inputs, seed):
    comps, q = inputs
    exact = casorati(comps, QShift(q))
    assume(not exact.rf.is_zero())
    numeric = casorati(comps, QShift(qshift_numeric(QShift(q)).tolist()))
    assert isinstance(numeric, CasoratiSlice)
    m, n = comps[0].nvars, len(comps)
    rng = np.random.default_rng(seed)
    xi = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    u = np.outer([0.5, 2.0], np.exp(2j * np.pi * np.arange(8) / 8)).ravel()
    z = u[:, None] * xi
    got = OneLine(numeric, xi).log_values(u).real
    c_abs, c_round = _rounding_scale(exact.rf, z)
    assume(np.all(c_abs > 0) and np.all(np.isfinite(c_abs)))
    ref = np.log(c_abs)
    # A first-order rounding bound from the values at each node.  The
    # numeric path rounds every entry f (relative error _rounding_scale),
    # carries it through log and exp around the dual scaling (relative
    # error |log|f|| + 1) and eliminates; an entry error moves the Leibniz
    # sum by at most the permanent of the entry errors, relative to |C|.
    # The oracle's own evaluation of the exact C adds its _rounding_scale,
    # and the final log adds |log|C||.  Each unit of eps stands for at most
    # 4n roundings.
    err = np.empty((len(u), n, n))
    for k in range(n):
        for j, c in enumerate(comps):
            f_abs, f_round = _rounding_scale(qscale(c, QShift(q), k).rf, z)
            err[:, k, j] = f_abs * (f_round + np.abs(np.log(f_abs)) + 1)
    tol = 4 * n * np.finfo(float).eps * (
        _permanent(err) / c_abs + c_round + np.abs(ref))
    # beyond 1/2 the first-order bound says nothing: a node near a zero of C
    well_posed = tol < 0.5
    assert np.all(np.abs(got - ref)[well_posed] <= tol[well_posed])


def _rf_matrix(rows):
    return [[e if isinstance(e, RationalFunction)
             else RationalFunction(Polynomial.constant(e, 1)) for e in row]
            for row in rows]


def test_det_rational_hand_cases():
    # the second pivot vanishes after the first step: a row swap flips sign
    assert _det_rational(_rf_matrix([[1, 1, 0], [1, 1, 1], [0, 1, 1]])) == \
        RationalFunction.constant(-1, 1)
    # singular: a zero column, and a last entry that eliminates to zero
    zero = RationalFunction(Polynomial.zero(1))
    assert _det_rational(_rf_matrix([[0, 1], [0, 2]])) == zero
    r = RationalFunction(Z + 1, Z - 2)
    two = RationalFunction.constant(2, 1)
    assert _det_rational(_rf_matrix([[r, 2], [r * r, r * two]])) == zero
    assert _det_rational([[r]]) == r


def test_casorati_alternation_and_multilinearity():
    a = RationalSlice(Z + 1)
    b = RationalSlice(Z ** 2 - 3)
    c = RationalSlice(RationalFunction(Polynomial.constant(1, 1), Z - 5))
    assert casorati([a, b], Q2).rf == -casorati([b, a], Q2).rf
    lhs = casorati([a, b], Q2).rf + casorati([c, b], Q2).rf
    assert lhs == casorati([RationalSlice(a.rf + c.rf), b], Q2).rf


def test_monomial_casorati_reduces_to_plain_casorati():
    # alpha = 1 monomials of a 2-component map are the components themselves
    f = ProjectiveMap([constant_slice(1, 1), RationalSlice(Z)])
    det1 = casorati(f.components, Q2)
    det2 = casorati_monomials(f, 1, Q2)
    assert det1.rf == det2.rf or det1.rf == -det2.rf


def _mixed_map():
    """[1 + z1 : (1/2; z1 - z2/2)_inf : z2^2 / (1 - z1)] in two variables."""
    x, y = Polynomial.variable(0, 2), Polynomial.variable(1, 2)
    one = Polynomial.constant(1, 2)
    return ProjectiveMap([
        RationalSlice(one + x),
        ProductEntireSlice(QPochhammerSpec(Fraction(1, 2),
                                           x - y.scale(Fraction(1, 2)))),
        RationalSlice(RationalFunction(y * y, one - x))])


@pytest.mark.parametrize("q", [[2, 2], [Fraction(5, 4), Fraction(-3, 4)],
                               [1.1, -0.7 + 0.2j]])
def test_numeric_alpha1_monomial_casorati_is_the_casorati(q):
    # the degree-1 monomials are the components, in order, so the numeric
    # monomial Casoratian at alpha = 1 reads the same log matrix
    f, q = _mixed_map(), QShift(q)
    plain = casorati(f.components, q)
    mono = casorati_monomials(f, 1, q)
    assert type(plain) is CasoratiSlice
    assert type(mono) is MonomialCasoratiSlice
    rng = np.random.default_rng(3)
    u = np.outer([0.5, 2.0, 8.0], np.exp(2j * np.pi * np.arange(16) / 16))
    lines = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    assert np.array_equal(plain.line_view(lines).log_abs(u),
                          mono.line_view(lines).log_abs(u))
    pts = _sample_points(2, N_SAMPLES, 7)
    assert np.array_equal(scaled_samples(plain, pts),
                          scaled_samples(mono, pts))


def test_linear_nondegeneracy_symbolic():
    good = ProjectiveMap([constant_slice(1, 1), RationalSlice(Z)])
    v = linear_nondegeneracy(good, Q2)
    assert v.nondegenerate is True and v.method == "symbolic"
    # z and 2z are dependent over constants
    bad = ProjectiveMap([RationalSlice(Z), RationalSlice(Z.scale(2))])
    v = linear_nondegeneracy(bad, Q2)
    assert v.nondegenerate is False


def test_nondegeneracy_sampling_path():
    # product-entire components force the sampling branch
    f = ProjectiveMap([
        constant_slice(1, 1),
        ProductEntireSlice(QPochhammerSpec(Fraction(1, 2), Z)),
    ])
    v = linear_nondegeneracy(f, Q2)
    assert v.method == "sampling"
    assert v.nondegenerate is True
    assert len(v.samples) == 8


def _product_map():
    """The benchmark's product map [1 : (1/2; z1)_inf : (3/5; z2)_inf]."""
    x, y = Polynomial.variable(0, 2), Polynomial.variable(1, 2)
    return ProjectiveMap([
        constant_slice(1, 2),
        ProductEntireSlice(QPochhammerSpec(Fraction(1, 2), x)),
        ProductEntireSlice(QPochhammerSpec(Fraction(3, 5), y))])


def test_scaled_samples_stacked_equal_per_point():
    f = _product_map()
    q = QShift([2, 2])
    pts = _sample_points(2, N_SAMPLES, 7)
    poch = f.components[1]
    dets = [casorati(f.components, q), casorati_monomials(f, 2, q),
            # equal columns: every sample reads as zero
            casorati([poch, poch], q)]
    for det in dets:
        got = scaled_samples(det, pts)
        assert got.shape == (N_SAMPLES,)
        # one family evaluation over all 8 * M lines equals one log matrix
        # per point read line by line, bit for bit
        assert got.tobytes() == scaled_samples_per_point(det, pts).tobytes()
    assert np.all(got < qops.SAMPLE_THRESHOLD)


# (map, q, alpha): Pochhammer components with a constant, and a mixed map
# whose rational components are read line by line inside the family call
FAMILY_CASES = [(_product_map, [2, 2], 4), (_product_map, [1.1, 1.1], 2),
                (_mixed_map, [Fraction(5, 4), Fraction(-3, 4)], 2),
                (_mixed_map, [1.1, -0.7 + 0.2j], 1)]


@pytest.mark.parametrize("make, q, alpha", FAMILY_CASES)
def test_family_log_matrix_equals_per_view_loop(make, q, alpha):
    f, q = make(), QShift(q)
    rng = np.random.default_rng(11)
    circle = np.exp(2j * np.pi * np.arange(64) / 64)
    for det in (casorati(f.components, q), casorati_monomials(f, alpha, q)):
        for r in (10.0, 1000.0):
            lines = rng.standard_normal((3, 2)) \
                + 1j * rng.standard_normal((3, 2))
            view = det.line_view(lines)
            for u in (r * circle, np.ones(1)):
                got = view.log_matrix(u)
                for k, xi in enumerate(lines):
                    ref = log_matrix_per_view(det, xi, u)
                    assert got[k].shape == ref.shape
                    assert np.array_equal(got[k], ref, equal_nan=True)
                    assert np.array_equal(view[k:k + 1].log_matrix(u)[0],
                                          ref, equal_nan=True)
        pts = _sample_points(2, N_SAMPLES, 5)
        assert scaled_samples(det, pts).tobytes() == \
            scaled_samples_per_point(det, pts).tobytes()


def test_one_kernel_call_per_component_family(monkeypatch):
    # the product map has two Pochhammer components: one kernel call each
    # per log matrix and per set of sample points, whatever the shift count
    calls = []
    kernel = slicing._pochhammer_log

    def counted(qbase, ell, phase=True):
        calls.append(np.shape(ell))
        return kernel(qbase, ell, phase)

    monkeypatch.setattr(slicing, "_pochhammer_log", counted)
    f, q = _product_map(), QShift([2, 2])
    u = 100.0 * np.exp(2j * np.pi * np.arange(64) / 64)
    pts = _sample_points(2, N_SAMPLES, 7)
    for det, M in ((casorati(f.components, q), 3),
                   (casorati_monomials(f, 4, q), 15)):
        view = det.line_view(np.array([[1.0, 0.5j]]))
        calls.clear()
        view.log_matrix(u)
        assert calls == [(M, 64)] * 2
        calls.clear()
        scaled_samples(det, pts)
        assert calls == [(N_SAMPLES * M, 1)] * 2


def test_sampled_verdict_scales_all_points_in_one_call(monkeypatch):
    calls = []
    dual = qops._dual_slogdet

    def counted(logm):
        calls.append(np.shape(logm))
        return dual(logm)

    monkeypatch.setattr(qops, "_dual_slogdet", counted)
    v = linear_nondegeneracy(_product_map(), QShift([2, 2]))
    assert v.nondegenerate is True
    assert calls == [(N_SAMPLES, 3, 3)]
    assert all(type(x) is float for x in v.samples)


def test_q_periodic_test():
    # homogeneous degree-0 ratios are invariant under diagonal rescaling
    z1 = Polynomial.variable(0, 2)
    z2 = Polynomial.variable(1, 2)
    ratio = RationalSlice(RationalFunction(z1, z2))
    assert q_periodic_test(ratio, QShift([2, 2]))
    assert not q_periodic_test(ratio, QShift([2, 3]))
    assert not q_periodic_test(RationalSlice(Z), Q2)
    assert q_periodic_test(constant_slice(5, 1), Q2)


def test_q_periodic_requires_exact_q():
    with pytest.raises(UsageError):
        q_periodic_test(RationalSlice(Z), QShift([2.0 + 0j]))


def test_ldl_ratio_closed_form():
    quad = QuadratureSpec(n_lines=4, n_theta=128, seed=5)
    grid = RadialGrid((100.0, 1000.0, 10000.0, 100000.0))
    rs = ldl_ratio(RationalSlice(Z), Q2, grid, quad)
    for r, ratio in zip(rs.radii, rs.ratios):
        target = math.log(2) / math.log(r)
        assert abs(ratio - target) <= 0.05 * target


def test_ldl_rejects_non_diagonal_q():
    z1 = Polynomial.variable(0, 2)
    quad = QuadratureSpec(n_lines=4, n_theta=64, seed=5)
    grid = RadialGrid((10.0, 100.0, 1000.0, 10000.0))
    with pytest.raises(UsageError):
        ldl_ratio(RationalSlice(z1), QShift([2, 3]), grid, quad)


def test_shift_counting_rational():
    quad = QuadratureSpec(n_lines=4, n_theta=128, seed=6)
    grid = RadialGrid((100.0, 1000.0, 10000.0))
    h = RationalSlice(RationalFunction(Polynomial.constant(1, 1), Z - 1))
    rs = shift_counting_ratio(h, Q2, grid, quad)
    # pole orbit of z=1 under q=2 halves the seed: ratio -> 1
    assert abs(rs.ratios[-1] - 1.0) <= 0.02
