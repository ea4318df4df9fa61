"""q-rescaling operators, Casoratians, nondegeneracy, ratio series."""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from nevlab.errors import UsageError
from nevlab.funcspace import (ProductEntireSlice, ProjectiveMap,
                              QPochhammerSpec, RationalSlice, constant_slice)
from nevlab.nevcore import QuadratureSpec, RadialGrid
from nevlab.polynomials import Polynomial, RationalFunction, try_divide
from nevlab.qops import (QShift, _det_rational, casorati, casorati_monomials,
                         ldl_ratio, linear_nondegeneracy, q_periodic_test,
                         qscale, shift_counting_ratio)
from nevlab.rationals import GaussianRational

Z = Polynomial.variable(0, 1)
Q2 = QShift([2])


def test_qshift_validation():
    with pytest.raises(UsageError):
        QShift([])
    with pytest.raises(UsageError):
        QShift([0])
    with pytest.raises(UsageError):
        QShift([2, 3], diagonal=True)
    assert QShift([2, 2]).diagonal
    assert QShift([Fraction(1, 2)]).exact
    assert not QShift([2.5j, 1.0]).exact


def test_qshift_powers():
    q = QShift([Fraction(3, 2)])
    assert q.powers(2)[0].re == Fraction(9, 4)
    assert q.powers(-1)[0].re == Fraction(2, 3)


def test_qscale_rational():
    h = RationalSlice(Z + 1)
    g = qscale(h, Q2)
    assert g.rf == RationalFunction(Z.scale(2) + 1)
    assert qscale(h, Q2, 0) is h


def test_qscale_keeps_constant_instance():
    one = constant_slice(1, 2)
    assert qscale(one, QShift([2, 3]), 1) is one
    assert qscale(one, QShift([Fraction(1, 2), 5]), 3) is one


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
    assert _det_rational(_rf_matrix([[r, 2], [r * r, r.scale(2)]])) == zero
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
