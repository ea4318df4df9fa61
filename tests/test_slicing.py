"""Log-domain line views and scaled determinant evaluation."""

import math
import os
import subprocess
import sys
import textwrap
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from nevlab.errors import UsageError
from nevlab.funcspace import (CompositionSlice, HomogeneousForm,
                              ProductEntireSlice, ProductSlice, ProjectiveMap,
                              QPochhammerSpec, QuotientSlice, RationalSlice,
                              constant_slice)
from nevlab.nevcore import (DirectionSet, QuadratureSpec, RadialGrid,
                            counting, fmt_residual)
from nevlab.polynomials import Polynomial, RationalFunction
from nevlab.rationals import GaussianRational
from nevlab.slicing import (ConstantLineView, DeterminantLineView,
                            FormCompositionLineView,
                            MonomialDeterminantLineView, PochhammerLineView,
                            ProductLineView, QuotientLineView,
                            RationalLineView, _nterms, _pochhammer_log,
                            _scaled_slogdet, _tropical_slogdet)
import nevlab.slicing as slicing
from oracles import eval_complex

# the src/ directory nevlab is imported from, for fresh processes
SRC = os.path.dirname(os.path.dirname(slicing.__file__))


def logdet_reference(a):
    sign, logabs = np.linalg.slogdet(np.exp(a))
    return logabs


def test_scaled_slogdet_matches_reference():
    rng = np.random.default_rng(0)
    for _ in range(20):
        n = rng.integers(2, 6)
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        got = _scaled_slogdet(a)
        assert abs(got.real - logdet_reference(a)) < 1e-9


def graded(rng, n, step):
    """A log matrix whose entries span about step * n**2 nats."""
    g = np.arange(n, dtype=float)
    return (step * g[:, None] * g[None, :] + rng.standard_normal((n, n))
            + 1j * rng.standard_normal((n, n)))


def test_scaled_slogdet_batched():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((3, 4, 5, 5)) + 0j
    # graded and singular members: their duals take more rounds to settle
    a[1, 2] = graded(rng, 5, 40.0)
    a[2, 0] = graded(rng, 5, -60.0)
    a[2, 3, 1] = -np.inf
    got = _scaled_slogdet(a)
    assert got.shape == (3, 4)
    for i in range(3):
        for j in range(4):
            # the stacked pass equals one call per matrix, bit for bit
            assert got[i, j].tobytes() == _scaled_slogdet(a[i, j]).tobytes()
            if (i, j) in ((1, 2), (2, 0)):
                # log|det| of hundreds of nats: relative agreement
                ref = brute_force_logdet(a[i, j])
                assert abs(got[i, j].real - ref) < 1e-9 * abs(ref)
            elif (i, j) != (2, 3):
                assert abs(got[i, j].real - logdet_reference(a[i, j])) < 1e-9
    assert got[2, 3].real == float("-inf")


def test_scaled_slogdet_solves_a_stack_in_one_call(monkeypatch):
    calls = []
    tropical = slicing._tropical_slogdet

    def counted(logm):
        calls.append(np.shape(logm))
        return tropical(logm)

    monkeypatch.setattr(slicing, "_tropical_slogdet", counted)
    rng = np.random.default_rng(5)
    a = np.stack([graded(rng, 8, 50.0) for _ in range(12)])
    got = _scaled_slogdet(a)
    assert calls == [a.shape]
    assert np.all(np.isfinite(got.real))


@pytest.mark.parametrize("n", [6, 8, 10, 12, 15])
@pytest.mark.parametrize("s", [0.5, 1.0, 2.0, 3.0])
def test_scaled_slogdet_vandermonde(n, s):
    # a_kl = -s*k*l is the log of the Vandermonde matrix of x_k = e^{-s k},
    # whose |det| = prod_{i<j} |x_j - x_i| spans hundreds of nats
    k = np.arange(n, dtype=float)
    a = -s * np.multiply.outer(k, k) + 0j
    ref = sum(math.log(abs(math.expm1(-s * (j - i)))) - s * i
              for i in range(n) for j in range(i + 1, n))
    assert abs(_scaled_slogdet(a).real - ref) < 1e-9


def brute_force_logdet(a):
    """Log-domain Leibniz expansion; an oracle independent of any scaling."""
    from itertools import permutations
    n = a.shape[0]
    idx = np.arange(n)
    terms, signs = [], []
    for p in permutations(range(n)):
        terms.append(a[idx, list(p)].sum())
        inv = sum(1 for i in range(n) for j in range(i + 1, n)
                  if p[i] > p[j])
        signs.append(-1.0 if inv % 2 else 1.0)
    terms = np.array(terms)
    peak = terms.real.max()
    total = np.sum(np.array(signs) * np.exp(terms - peak))
    return peak + np.log(abs(total))


def test_graded_matrix_resolved():
    # entries spanning thousands of nats in magnitude: the plain product
    # representation under/overflows, the assignment-dual scaling does not
    a = graded(np.random.default_rng(2), 7, 200.0)
    got = _scaled_slogdet(a[None, ...])[0]
    ref = brute_force_logdet(a)
    assert np.isfinite(got.real)
    assert abs(got.real - ref) < 1e-6 * abs(ref)


def best_assignment(w):
    """(largest sum of w over a permutation, every permutation reaching
    it to 1e-12), by enumeration."""
    from itertools import permutations
    idx = np.arange(len(w))
    sums = {p: w[idx, list(p)].sum() for p in permutations(range(len(w)))}
    top = max(sums.values())
    return top, [p for p, t in sums.items() if t >= top - 1e-12]


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 6), st.integers(1, 4), st.booleans(),
       st.floats(0.0, 0.6), st.integers(0, 2**32 - 1))
def test_tropical_duals_match_brute_force_assignment(n, k, cplx, holes,
                                                     seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((k, n, n)) * rng.uniform(0.1, 30.0)
    if cplx:
        a = a + 1j * rng.standard_normal((k, n, n))
    # entries at -inf off one transversal, which keeps the optimum finite
    keep = np.zeros((k, n, n), dtype=bool)
    for m in range(k):
        keep[m, np.arange(n), rng.permutation(n)] = True
    a[~keep & (rng.uniform(size=(k, n, n)) < holes)] = -np.inf
    u, v = _tropical_slogdet(a)
    assert u.shape == v.shape == (k, n)
    for m in range(k):
        w = a[m].real
        top, best = best_assignment(w)
        assert abs(u[m].sum() + v[m].sum() - top) < 1e-9
        slack = u[m][:, None] + v[m][None, :] - w
        assert np.all(slack[np.isfinite(w)] >= -1e-9)
        for p in best:
            assert np.all(np.abs(slack[np.arange(n), list(p)]) < 1e-9)


def test_tropical_slogdet_agrees_on_moderate_input():
    rng = np.random.default_rng(3)
    for _ in range(10):
        a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        u, v = _tropical_slogdet(a)
        scaled = np.exp(a - u[:, None] - v[None, :])
        assert np.all(np.abs(scaled) <= 1.0 + 1e-12)
        ld = np.linalg.slogdet(scaled)[1] + u.sum() + v.sum()
        assert abs(ld - logdet_reference(a)) < 1e-9
        assert abs(_scaled_slogdet(a).real - logdet_reference(a)) < 1e-9


def test_tropical_slogdet_singular():
    a = np.log(np.array([[1.0, 2.0], [2.0, 4.0]], dtype=complex))
    assert _scaled_slogdet(a).real == float("-inf")


def test_assignment_scale_dominates_det():
    # sum(u) + sum(v) is the largest single permutation term, so
    # log|det| <= scale + log(n!)
    rng = np.random.default_rng(4)
    for _ in range(10):
        a = rng.standard_normal((5, 5)) * 3.0 + 0j
        u, v = _tropical_slogdet(a)
        scale = u.sum() + v.sum()
        ld = _scaled_slogdet(a).real
        assert ld <= scale + math.log(math.factorial(5)) + 1e-9


def assignment_stacks():
    """(name, stack of weight matrices): random, tied, and holed as
    _tropical_slogdet holes them (-inf entries read as -1e300, with one
    finite transversal kept)."""
    rng = np.random.default_rng(6)
    holed = rng.standard_normal((16, 7, 7)) * 20.0
    for w in holed:
        keep = np.zeros((7, 7), dtype=bool)
        keep[np.arange(7), rng.permutation(7)] = True
        w[~keep & (rng.uniform(size=(7, 7)) < 0.5)] = -1e300
    return [("random", rng.standard_normal((32, 5, 5)) * 10.0),
            ("tied", rng.integers(-1, 2, size=(32, 6, 6)).astype(float)),
            ("all equal", np.zeros((2, 4, 4))),
            ("holed", holed),
            ("one by one", rng.standard_normal((3, 1, 1)))]


@pytest.fixture
def fresh_solver():
    """The assignment loader with an empty cache, emptied again after the
    test, so a monkeypatched locator cannot leak into other tests."""
    slicing._assignment_solver.cache_clear()
    yield slicing._assignment_solver
    slicing._assignment_solver.cache_clear()


def test_loaded_solver_matches_scipy_optimize(fresh_solver):
    from scipy.optimize import linear_sum_assignment
    solve = fresh_solver()
    for name, stack in assignment_stacks():
        for w in stack:
            rows, cols = solve(-w)
            ref_rows, ref_cols = linear_sum_assignment(-w)
            assert np.array_equal(rows, ref_rows), name
            assert np.array_equal(cols, ref_cols), name


def test_lsap_locator_finds_the_extension_file():
    path = slicing._lsap_path()
    assert path is not None and os.path.isfile(path)
    assert os.path.basename(os.path.dirname(path)) == "optimize"
    assert os.path.basename(path).startswith("_lsap.")


def test_solver_falls_back_to_the_public_import(fresh_solver, monkeypatch):
    stacks = [s + 0j for _, s in assignment_stacks()]
    loaded = [_tropical_slogdet(a) for a in stacks]
    fresh_solver.cache_clear()

    def no_file_load(*args):
        raise AssertionError("the fallback must not load a file")

    from scipy.optimize import linear_sum_assignment
    monkeypatch.setattr(slicing, "_lsap_path", lambda: None)
    monkeypatch.setattr(slicing.importlib.util, "spec_from_file_location",
                        no_file_load)
    assert fresh_solver() is linear_sum_assignment
    for a, (u, v) in zip(stacks, loaded):
        fu, fv = _tropical_slogdet(a)
        assert fu.tobytes() == u.tobytes() and fv.tobytes() == v.tobytes()


def test_scipy_optimize_imports_after_the_loader():
    # a fresh process: the loader runs first, then the public import, which
    # must still succeed and solve alike
    code = textwrap.dedent("""
        import sys
        import numpy as np
        from nevlab import slicing
        solve = slicing._assignment_solver()
        assert "scipy.optimize" not in sys.modules
        import scipy.optimize
        w = np.arange(16.0).reshape(4, 4) % 5
        assert np.array_equal(scipy.optimize.linear_sum_assignment(w)[1],
                              solve(w)[1])
    """)
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_rational_line_view_cancellation():
    # (z-2)(z-3)/(z-2): the common root must not appear in both multisets
    num = np.array([6.0, -5.0, 1.0], dtype=complex)
    den = np.array([-2.0, 1.0], dtype=complex)
    v = RationalLineView(num, den)
    zeros, poles = v.divisor(10.0)
    assert sum(m for _, m in zeros) == 1
    assert abs(zeros[0][0] - 3.0) < 1e-8
    assert not poles


# ---------------------------------------------------------------------------
# chunked q-Pochhammer kernel against the per-factor loop it replaced
# ---------------------------------------------------------------------------

def pochhammer_log_reference(qbase, ell):
    """(sum_k log(1 - ell * q^k), min_k |1 - ell * q^k|): one log per
    factor, same term count, plus the factor nearest zero.

    The logs are summed with math.fsum: thousands of factors each add a
    phase of up to pi, and a running sum drifts by ~1e-9 over them."""
    q = complex(qbase)
    ell = np.asarray(ell, dtype=complex)
    n = _nterms(q, float(np.max(np.abs(ell))))
    logs = []
    nearest = np.full(ell.shape, np.inf)
    qk = 1.0 + 0j
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(n):
            logs.append(np.log(1 - ell * qk))
            nearest = np.minimum(nearest, np.abs(1 - ell * qk))
            qk *= q
    per_point = np.asarray(logs).reshape(n, -1).T
    out = np.array([complex(math.fsum(c.real), math.fsum(c.imag))
                    for c in per_point]).reshape(ell.shape)
    return out, nearest


def assert_log_close(got, ref, nearest=None):
    """Real parts to 1e-12 relative, imaginary parts mod 2*pi.  got reads
    -inf where ref does, and otherwise only where a factor lies within
    1e-280 of zero (nearest: the reference's smallest factor)."""
    got, ref = np.asarray(got), np.asarray(ref)
    assert got.shape == ref.shape
    assert not np.any(np.isnan(got.real) | np.isnan(got.imag))
    inf = np.isneginf(got.real)
    ref_inf = np.isneginf(ref.real)
    assert np.all(inf[ref_inf])
    allowed = ref_inf if nearest is None else ref_inf | (nearest < 1e-280)
    assert np.all(allowed[inf])
    g, r = got[~inf], ref[~inf]
    assert np.all(np.abs(g.real - r.real)
                  <= 1e-12 * np.maximum(1.0, np.abs(r.real)))
    turn = np.remainder(g.imag - r.imag + np.pi, 2 * np.pi) - np.pi
    assert np.all(np.abs(turn) <= 1e-9)


fraction_bases = st.builds(
    Fraction, st.integers(-19, 19).filter(bool), st.integers(20, 40))
complex_bases = st.builds(
    lambda m, t: complex(m * np.cos(t), m * np.sin(t)),
    st.floats(0.05, 0.9), st.floats(0.0, 2 * np.pi))
# |ell| from 1e-3 up to 1e150 (chunks must shorten to stay finite)
ell_arrays = st.lists(
    st.tuples(st.floats(-3.0, 150.0), st.floats(0.0, 2 * np.pi)),
    min_size=1, max_size=12).map(
    lambda pts: np.array([10.0 ** e * complex(math.cos(t), math.sin(t))
                          for e, t in pts]))


@settings(max_examples=60, deadline=None)
@given(st.one_of(fraction_bases, complex_bases), ell_arrays)
def test_pochhammer_kernel_matches_per_factor_loop(qbase, ell):
    # one line: a family of one row
    assert_log_close(_pochhammer_log(qbase, ell[None])[0],
                     *pochhammer_log_reference(qbase, ell))


@settings(max_examples=20, deadline=None)
@given(complex_bases, ell_arrays)
def test_pochhammer_kernel_keeps_shape(qbase, ell):
    # a family of two lines with a (2, n) node grid each; each line keeps
    # its own term count
    grid = np.stack([np.stack([ell, 0.5 * ell]), np.stack([ell, 2 * ell])])
    got = _pochhammer_log(qbase, grid)
    assert got.shape == grid.shape
    for line, row in zip(got, grid):
        assert_log_close(line, *pochhammer_log_reference(qbase, row))
    # one line with a single node
    point = _pochhammer_log(qbase, ell[:1])
    assert point.shape == (1,)
    assert_log_close(point[0], *pochhammer_log_reference(qbase, ell[0]))


def test_pochhammer_kernel_exact_zero():
    # ell * q^k = 1 exactly: 4 * (1/2)^2 and -4 * (i/2)^2
    for qbase, root in ((Fraction(1, 2), 4.0), (0.5j, -4.0)):
        ell = np.array([root, 3.0, root * 1e120, 0.0]) + 0j
        got = _pochhammer_log(qbase, ell[None])[0]
        assert got.real[0] == -np.inf
        assert np.all(np.isfinite(got[1:]))
        assert_log_close(got, *pochhammer_log_reference(qbase, ell))
    # 5e-324 from a zero: the chunk product leaves the normal range
    assert _pochhammer_log(0.5, np.array([1 + 5e-324j])).real[0] \
        == -np.inf
    assert PochhammerLineView(0.5, 0.0, 4.0).identically_zero
    assert not PochhammerLineView(0.5, 0.0, 3.0).identically_zero


def test_pochhammer_kernel_fraction_base_equals_complex_base():
    ell = np.array([0.3 + 2j, -70.0, 1e40j])
    assert np.array_equal(_pochhammer_log(Fraction(3, 5), ell[None]),
                          _pochhammer_log(0.6 + 0j, ell[None]))


family_bases = st.one_of(
    st.floats(0.2, 0.95).flatmap(lambda m: st.sampled_from([m, -m])),
    st.builds(lambda m, t: complex(m * np.cos(t), m * np.sin(t)),
              st.floats(0.2, 0.95), st.floats(0.0, 2 * np.pi)))


def _family(ratio, K, N, scale, wide):
    """ell[k] = (a * u + b) * ratio^k on N nodes u of one circle: the
    arguments of K shifted lines.  With wide the last line is scaled past
    1e16, where its chunks shorten; then one node of the first line is put
    exactly on the zero of the first factor (ell = 1)."""
    u = scale * np.exp(2j * np.pi * (np.arange(N) + 0.25) / N)
    ell = np.stack([(0.7 - 0.4j) * u * ratio ** k + 0.3 for k in range(K)])
    if wide:
        ell[-1] *= 1e17 / np.max(np.abs(ell[-1]))
    ell[0, 0] = 1.0
    return ell


@settings(max_examples=40, deadline=None)
@given(family_bases, st.sampled_from([2.0, 1.1, -0.7 + 0.2j]),
       st.integers(1, 28), st.integers(1, 9), st.floats(0.5, 1e4),
       st.booleans(), st.booleans())
def test_pochhammer_family_is_bitwise_per_line(qbase, ratio, K, N, scale,
                                               wide, phase):
    ell = _family(ratio, K, N, scale, wide)
    got = _pochhammer_log(qbase, ell, phase)
    lines = [_pochhammer_log(qbase, ell[k:k + 1], phase)[0]
             for k in range(K)]
    assert np.array_equal(got, np.stack(lines), equal_nan=True)
    assert np.isneginf(got.real[0, 0])


def test_pochhammer_pass_cap_keeps_bits(monkeypatch):
    # splitting the nodes into passes of at most _PASS factor entries
    # leaves every node's result unchanged
    ells = [_family(2.0, 28, 64, 10.0, False),
            _family(-0.7 + 0.2j, 5, 3, 1e3, True)]

    def evaluate(cap):
        monkeypatch.setattr(slicing, "_PASS", cap)
        return [_pochhammer_log(q, ell, phase)
                for q in (0.6, 0.3 + 0.8j) for ell in ells
                for phase in (True, False)]

    uncapped = evaluate(2 ** 40)
    for cap in (1, 7, 200, 2 ** 15):
        for g, w in zip(evaluate(cap), uncapped):
            assert np.array_equal(g, w, equal_nan=True)


gauss = st.builds(GaussianRational,
                  st.fractions(-5, 5, max_denominator=4),
                  st.fractions(-5, 5, max_denominator=4))


# ---------------------------------------------------------------------------
# point values: a point z is the node u = 1 on the line through z
# ---------------------------------------------------------------------------

def point_log(h, z):
    return h.line_view(z).log_values(np.ones(1))[0]


def reference_log(h, z):
    """(log h(z), smallest Pochhammer factor) without line views:
    eval_complex for rational slices, the per-factor loop for Pochhammer
    slices."""
    if isinstance(h, RationalSlice):
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.log(complex(eval_complex(h.rf, z))), np.inf
    if isinstance(h, ProductEntireSlice):
        ell = complex(eval_complex(h.spec.argument, z))
        return pochhammer_log_reference(h.spec.qbase, ell)
    if isinstance(h, ProductSlice):
        parts = [reference_log(f, z) for f in h.factors]
        return sum(p for p, _ in parts), min(n for _, n in parts)
    (num, n1), (den, n2) = reference_log(h.num, z), reference_log(h.den, z)
    assume(np.isfinite(den.real))  # no pole at z
    return num - den, min(n1, n2)


def reference_composition(h, z):
    """(h(z), sum of the magnitudes of its terms) for a CompositionSlice,
    summed as complex values."""
    logs = [reference_log(c, z)[0] for c in h.components]
    assume(all(lv.real < np.inf for lv in logs))  # no pole at z
    vals = [np.exp(lv) for lv in logs]
    terms = [c * np.prod([v ** e for v, e in zip(vals, exps)])
             for c, exps in h.coeffs]
    return sum(terms), sum(abs(t) for t in terms)


# dyadic coefficients and points: every term of a polynomial at z is exact
# in double precision, so the rational references are exact
dyadic = st.builds(GaussianRational, st.integers(-8, 8).map(
    lambda k: Fraction(k, 4)), st.integers(-8, 8).map(lambda k: Fraction(k, 4)))
dyadic_points = st.lists(
    st.integers(-24, 24).map(lambda k: k / 8), min_size=4, max_size=4).map(
    lambda x: np.array([complex(x[0], x[1]), complex(x[2], x[3])])).filter(
    lambda z: np.any(z))  # the origin lies on no line
EXPS = [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2), (3, 0), (1, 2)]


@st.composite
def rational_slices(draw):
    num = Polynomial(2, dict(zip(
        draw(st.lists(st.sampled_from(EXPS), min_size=1, max_size=4)),
        draw(st.lists(dyadic, min_size=4, max_size=4)))))
    assume(not num.is_zero())
    # a monic denominator keeps the reduced coefficients dyadic
    den = draw(st.sampled_from([Polynomial.constant(1, 2),
                                Polynomial.variable(0, 2),
                                Polynomial.variable(1, 2) + 1]))
    return RationalSlice(RationalFunction(num, den))


@st.composite
def pochhammer_slices(draw):
    c0, c1, c2 = draw(st.lists(dyadic, min_size=3, max_size=3).filter(
        lambda c: any(c[1:])))
    qbase = draw(st.one_of(st.just(Fraction(1, 2)), fraction_bases,
                           complex_bases))
    ell = Polynomial(2, {(0, 0): c0, (1, 0): c1, (0, 1): c2})
    return ProductEntireSlice(QPochhammerSpec(qbase, ell))


leaves = st.one_of(rational_slices(), pochhammer_slices())


@settings(max_examples=80, deadline=None)
@given(leaves, leaves, st.sampled_from(["leaf", "product", "quotient"]),
       dyadic_points)
def test_point_value_through_view_matches_reference(a, b, kind, z):
    h = {"leaf": a, "product": ProductSlice([a, b]),
         "quotient": QuotientSlice(a, b)}[kind]
    ref, nearest = reference_log(h, z)
    assume(ref.real < np.inf)  # no pole at z
    assert_log_close(point_log(h, z), ref, nearest)


@settings(max_examples=60, deadline=None)
@given(st.lists(leaves, min_size=2, max_size=2),
       st.lists(st.tuples(dyadic.filter(bool), st.integers(0, 3),
                          st.integers(0, 3)), min_size=1, max_size=3),
       dyadic_points)
def test_composition_point_value_matches_reference(comps, terms, z):
    h = CompositionSlice([(c.to_complex(), (i, j)) for c, i, j in terms],
                         comps)
    ref, envelope = reference_composition(h, z)
    got = point_log(h, z)
    assert not (np.isnan(got.real) or np.isnan(got.imag))
    assert abs(np.exp(got) - ref) <= 1e-10 * envelope


def test_composition_point_value_where_a_component_vanishes():
    z1 = Polynomial.variable(0, 1)
    poch = ProductEntireSlice(QPochhammerSpec(Fraction(1, 2), z1))
    # (z; 1/2)_inf + 1 at z = 1, a zero of the first term
    h = CompositionSlice([(1.0, (1, 0)), (1.0, (0, 1))],
                         [poch, constant_slice(1, 1)])
    assert point_log(h, np.array([1.0 + 0j])) == 0
    # z^1000 - 1 at z = 3: the terms leave the double range, the log not
    h = CompositionSlice([(1.0, (1000, 0)), (-1.0, (0, 1000))],
                         [RationalSlice(z1), constant_slice(1, 1)])
    got = point_log(h, np.array([3.0 + 0j]))
    assert abs(got.real - 1000 * math.log(3)) <= 1e-12 * 1000 * math.log(3)


@settings(max_examples=40, deadline=None)
@given(gauss.filter(bool), st.lists(st.floats(-3, 3), min_size=4,
                                    max_size=4).filter(any),
       st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=6))
def test_nonzero_constant_gets_constant_view(c, xs, us):
    xi = np.array([complex(xs[0], xs[1]), complex(xs[2], xs[3])])
    u = np.array(us) * (1 - 0.5j)
    view = constant_slice(c, 2).line_view(xi)
    assert isinstance(view, ConstantLineView)
    ref = RationalLineView([c.to_complex()], [1])
    assert view.log_values(u).tobytes() == ref.log_values(u).tobytes()
    assert view.log_abs(u).tobytes() == ref.log_abs(u).tobytes()
    assert view.divisor(1e6) == ([], [])
    assert not view.identically_zero


def test_counting_zero_constant_raises():
    # the zero constant gets a ConstantLineView like every other constant;
    # counting is where a view vanishing on its line is rejected
    h = constant_slice(0, 2)
    view = h.line_view(np.array([1.0, 1j]))
    assert isinstance(view, ConstantLineView) and view.identically_zero
    quad = QuadratureSpec(n_lines=2, n_theta=64, seed=0)
    with pytest.raises(UsageError, match="vanishes identically"):
        counting(h, RadialGrid((2.0, 4.0)), quad,
                 DirectionSet.sample(2, quad))


def test_form_composition_zero_component_gives_no_nan():
    # (u; 1/2)_inf vanishes at u = 1, a node of the unit circle, so one
    # component log is -inf there; scaling it by its exponent must not
    # produce NaN (numpy warns on -inf * (1 + 0j))
    f = ProjectiveMap([constant_slice(1, 1), ProductEntireSlice(
        QPochhammerSpec(Fraction(1, 2), Polynomial.variable(0, 1)))])
    quad = QuadratureSpec(n_lines=1, n_theta=128, seed=0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rs = fmt_residual(f, HomogeneousForm.hyperplane([1, 1]),
                          RadialGrid((10.0, 100.0)), quad)
    assert all(math.isfinite(s.m_val) and math.isfinite(s.err) for s in rs)


# ---------------------------------------------------------------------------
# log_abs, the real path, against the real part of log_values
# ---------------------------------------------------------------------------

def assert_log_abs_matches(view, u):
    """log_abs(u) equals log_values(u).real to 1e-12 relative (to
    1 + |log|h||, since log|h| crosses 0), with the same infinities and
    no NaN on either path."""
    got, ref = view.log_abs(u), view.log_values(u).real
    assert got.dtype == float and got.shape == np.shape(u)
    assert not np.any(np.isnan(got)) and not np.any(np.isnan(ref))
    inf = np.isinf(ref)
    assert np.array_equal(got[inf], ref[inf])
    assert np.all(np.isfinite(got[~inf]))
    assert np.all(np.abs(got[~inf] - ref[~inf])
                  <= 1e-12 * (1.0 + np.abs(ref[~inf])))
    return got


# (u - 1)(u + 2), zero at u = 1; (u + 1/2)(u - 3), zero at u = -1/2: both
# vanish exactly in double precision at those nodes
NUM = np.array([-2.0, 1.0, 1.0], dtype=complex)
DEN = np.array([-1.5, -2.5, 1.0], dtype=complex)
# (u; 1/2)_inf vanishes at u = 1, 2, 4, ...
POCH = (0.5, 1.0, 0.0)
NODES = np.array([1.0, -0.5, 2.0, 0.0, 0.3 + 0.7j, -2.5 - 1e3j, 40 + 3j])


def _rational():
    return RationalLineView(NUM, DEN)


VIEWS = {
    "constant": lambda: ConstantLineView(-1.5 + 2j),
    "constant_zero": lambda: ConstantLineView(0),
    "rational_constant_den": lambda: RationalLineView(NUM, [0.5 - 2j]),
    "rational": _rational,
    "product": lambda: ProductLineView([
        _rational(), PochhammerLineView(*POCH), ConstantLineView(3j)]),
    "quotient": lambda: QuotientLineView(
        RationalLineView(NUM, [1.0]), PochhammerLineView(0.5, -2.0, 0.0)),
    "form_composition": lambda: FormCompositionLineView(
        [(1.0, (2, 0)), (-3 + 1j, (1, 1)), (0.5, (0, 3))],
        [RationalLineView(NUM, [2.0]), PochhammerLineView(*POCH)]),
    # det [[u, 1], [1, u]] = u^2 - 1 vanishes at u = 1
    "determinant": lambda: DeterminantLineView(
        [[RationalLineView([0, 1], [1]), ConstantLineView(1)],
         [ConstantLineView(1), RationalLineView([0, 1], [1])]]),
    "monomial_determinant": lambda: MonomialDeterminantLineView(
        [[RationalLineView(NUM, [1.0]), PochhammerLineView(*POCH)],
         [RationalLineView([1, 1, 1], [1.0]), PochhammerLineView(0.25, 3, 0)]],
        [(1, 0), (0, 1)]),
}


@pytest.mark.parametrize("name", sorted(VIEWS))
def test_log_abs_matches_real_part_of_log_values(name):
    view = VIEWS[name]()
    got = assert_log_abs_matches(view, NODES)
    assert_log_abs_matches(view, NODES.reshape(7, 1) * np.ones((1, 3)))
    # nodes on a zero and on a pole read -inf and +inf, the others a finite
    # value
    expect = {"constant_zero": dict.fromkeys(range(len(NODES)), -np.inf),
              "rational_constant_den": {0: -np.inf},
              "rational": {0: -np.inf, 1: np.inf},
              "product": {0: -np.inf, 1: np.inf, 2: -np.inf},
              "quotient": {0: -np.inf, 1: np.inf},
              # both components vanish at u = 1
              "form_composition": {0: -np.inf},
              "determinant": {0: -np.inf},
              # every component of the first row vanishes at u = 1
              "monomial_determinant": {0: -np.inf}}.get(name, {})
    for i, value in expect.items():
        assert got[i] == value
    assert np.all(np.isfinite(np.delete(got, list(expect))))


def test_pochhammer_log_abs_is_bitwise_real_part():
    view = PochhammerLineView(0.3 - 0.4j, 2 - 1j, 0.5)
    u = np.concatenate([NODES, 10.0 ** np.arange(-3, 150, 7) * (1 - 1j)])
    assert view.log_abs(u).tobytes() == view.log_values(u).real.tobytes()
    on_zero = PochhammerLineView(*POCH).log_abs(NODES)
    assert on_zero.tobytes() == \
        PochhammerLineView(*POCH).log_values(NODES).real.tobytes()
    assert on_zero[0] == on_zero[2] == -np.inf


@settings(max_examples=60, deadline=None)
@given(st.lists(st.complex_numbers(max_magnitude=1e3, allow_nan=False,
                                   allow_infinity=False),
                min_size=1, max_size=6).filter(lambda c: any(c)),
       st.lists(st.complex_numbers(max_magnitude=1e3, allow_nan=False,
                                   allow_infinity=False),
                min_size=1, max_size=4).filter(lambda c: any(c)),
       st.lists(st.complex_numbers(max_magnitude=1e4, allow_nan=False,
                                   allow_infinity=False),
                min_size=1, max_size=8))
def test_rational_log_abs_matches_on_random_views(num, den, u):
    view = RationalLineView(num, den)
    u = np.array(u)
    pv = np.polynomial.polynomial.polyval
    # 0/0 is undefined on both paths
    assume(not np.any((pv(u, view.num) == 0) & (pv(u, view.den) == 0)))
    assert_log_abs_matches(view, u)
