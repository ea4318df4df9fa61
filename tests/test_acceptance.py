"""Acceptance suite: twelve end-to-end criteria at desk scale.

Each test states its tolerance and (where applicable) a wall-clock
budget.  Expected values are either closed-form, produced by an
independent oracle computed inside the test, or exact symbolic identities.
"""

import math
import time
from fractions import Fraction

import numpy as np

from nevlab.filtration import filtration_report, hilbert_stabilization, \
    quotient_check
from nevlab.funcspace import (HomogeneousForm, ProductEntireSlice,
                              ProjectiveMap, QPochhammerSpec, QuotientSlice,
                              RationalSlice, constant_slice)
from nevlab.nevcore import (QuadratureSpec, RadialGrid, characteristic,
                            fit_slope, fmt_residual, jensen_residual)
from nevlab.polynomials import Polynomial, RationalFunction
from nevlab.qops import (QShift, casorati, ldl_ratio, linear_nondegeneracy,
                         shift_counting_ratio)
from nevlab.rationals import GaussianRational
from nevlab.verifier import (QDiffPolynomial, QDiffTerm,
                             forward_invariance_check,
                             gundersen_hayman_identity, partition_by_q_ratio,
                             picard_check, tumura_clunie_ratio,
                             verify_cartan_smt, verify_hypersurface_smt)
from oracles import eval_complex, qshift_numeric

Z = Polynomial.variable(0, 1)
Z1 = Polynomial.variable(0, 2)
Z2 = Polynomial.variable(1, 2)
Q2 = QShift([2])


def quantize(x, denom=16):
    return Fraction(round(x * denom), denom)


def random_root(rng, grid_radii):
    """A Gaussian-rational point whose modulus stays away from the unit
    circle and from every quadrature circle of the grid."""
    avoid = [1.0] + list(grid_radii)
    while True:
        rho = math.exp(rng.uniform(math.log(2.2), math.log(850.0)))
        if all(abs(rho - r) > 0.12 * r for r in avoid):
            break
    phi = rng.uniform(0, 2 * math.pi)
    return GaussianRational(quantize(rho * math.cos(phi)),
                            quantize(rho * math.sin(phi)))


def linear_factor(a):
    """z - a as an exact polynomial."""
    return Z - Polynomial.constant(a, 1)


# ---------------------------------------------------------------------------
# 1. Jensen identity on seeded rational functions
# ---------------------------------------------------------------------------

def test_criterion_01_jensen_identity():
    rng = np.random.default_rng(20260823)
    grid = RadialGrid((2.0, 8.0, 40.0, 200.0, 1000.0))
    quad1 = QuadratureSpec(n_lines=1, n_theta=256, seed=1)
    quad2 = QuadratureSpec(n_lines=8, n_theta=256, seed=1)
    cases = []
    # 12 univariate: products of linear factors over linear factors
    for _ in range(12):
        n_num = int(rng.integers(1, 6))
        n_den = int(rng.integers(0, 4))
        num = Polynomial.constant(1, 1)
        for _ in range(n_num):
            num = num * linear_factor(random_root(rng, grid.radii))
        den = Polynomial.constant(1, 1)
        for _ in range(n_den):
            den = den * linear_factor(random_root(rng, grid.radii))
        cases.append((RationalSlice(RationalFunction(num, den)), quad1))
    # 8 bivariate: products of affine forms with large constant offsets
    for _ in range(8):
        def affine():
            a = random_root(rng, grid.radii)
            c1 = GaussianRational(quantize(rng.normal()),
                                  quantize(rng.normal()))
            c2 = GaussianRational(quantize(rng.normal()),
                                  quantize(rng.normal()))
            if not c1 and not c2:
                c1 = GaussianRational(1, 0)
            return (Z1.scale(c1) + Z2.scale(c2)
                    + Polynomial.constant(a, 2))
        num = affine() * affine()
        den = affine() if rng.integers(0, 2) else Polynomial.constant(1, 2)
        cases.append((RationalSlice(RationalFunction(num, den)), quad2))
    assert len(cases) == 20
    start = time.perf_counter()
    for h, quad in cases:
        for s in jensen_residual(h, grid, quad):
            assert abs(s.m_val) <= 1e-6 + s.err, \
                f"residual {s.m_val:.3e} exceeds 1e-6 + {s.err:.3e} " \
                f"at r={s.r:g} for {h!r}"
    assert time.perf_counter() - start < 30.0


# ---------------------------------------------------------------------------
# 2. characteristic growth slope equals max component degree
# ---------------------------------------------------------------------------

def test_criterion_02_characteristic_slope():
    quad = QuadratureSpec(n_lines=64, n_theta=512, seed=2)
    grid = RadialGrid.log_spaced(10.0, 1e4, 5)
    maps = [
        (ProjectiveMap([constant_slice(1, 1), RationalSlice(Z)]), 1),
        (ProjectiveMap([constant_slice(1, 1), RationalSlice(Z ** 2)]), 2),
        (ProjectiveMap([constant_slice(1, 1), RationalSlice(Z),
                        RationalSlice(Z ** 3)]), 3),
        (ProjectiveMap([RationalSlice(Z + 1), RationalSlice(Z ** 2 - 2),
                        RationalSlice(Z ** 4)]), 4),
        (ProjectiveMap([constant_slice(1, 1), RationalSlice(Z - 5),
                        RationalSlice(Z ** 2 + 3 * Z),
                        RationalSlice(Z ** 3)]), 3),
        (ProjectiveMap([constant_slice(1, 2), RationalSlice(Z1),
                        RationalSlice(Z2)]), 1),
        (ProjectiveMap([constant_slice(1, 2), RationalSlice(Z1 * Z2),
                        RationalSlice(Z2 ** 2)]), 2),
        (ProjectiveMap([RationalSlice(Z1), RationalSlice(Z2),
                        RationalSlice(Z1 ** 2 + Z2 ** 2)]), 2),
        (ProjectiveMap([constant_slice(1, 2), RationalSlice(Z1 ** 3),
                        RationalSlice(Z1 * Z2 ** 2)]), 3),
        (ProjectiveMap([constant_slice(1, 2), RationalSlice(Z1 + Z2),
                        RationalSlice((Z1 - Z2) ** 2)]), 2),
    ]
    start = time.perf_counter()
    for f, deg in maps:
        t = characteristic(f, grid, quad)
        slope = fit_slope([math.log(s.r) for s in t], [s.t_val for s in t])
        assert abs(slope - deg) <= 0.01 * deg, \
            f"slope {slope:.4f} vs degree {deg} for {f!r}"
    assert time.perf_counter() - start < 60.0


# ---------------------------------------------------------------------------
# 3. first-main-theorem residual is O(1) across radii
# ---------------------------------------------------------------------------

def test_criterion_03_fmt_residual_bounded():
    quad = QuadratureSpec(n_lines=16, n_theta=256, seed=3)
    grid = RadialGrid.log_spaced(10.0, 1e4, 5)
    f1 = ProjectiveMap([constant_slice(1, 1), RationalSlice(Z)])
    f2 = ProjectiveMap([constant_slice(1, 1), RationalSlice(Z),
                        RationalSlice(Z ** 2)])
    f3 = ProjectiveMap([RationalSlice(Z1), RationalSlice(Z2)])
    pairs = [
        (f1, HomogeneousForm.hyperplane([1, 1])),
        (f1, HomogeneousForm.hyperplane([3, -2])),
        (f2, HomogeneousForm(3, 2, {(0, 2, 0): 1, (1, 0, 1): 1})),
        (f3, HomogeneousForm.hyperplane([1, -1])),
        (f3, HomogeneousForm.hyperplane([2, 5])),
    ]
    for f, D in pairs:
        rs = fmt_residual(f, D, grid, quad)
        spread = max(s.m_val for s in rs) - min(s.m_val for s in rs)
        tol = 0.05 + 10 * max(s.err for s in rs)
        assert spread <= tol, f"variation {spread:.4f} > {tol:.4f}"


# ---------------------------------------------------------------------------
# 4. logarithmic-difference ratio: closed form and decay
# ---------------------------------------------------------------------------

def test_criterion_04_ldl_decay():
    quad = QuadratureSpec(n_lines=8, n_theta=256, seed=4)
    grid = RadialGrid((10.0, 100.0, 1000.0, 10000.0))
    rs = ldl_ratio(RationalSlice(Z), Q2, grid, quad)
    for r, ratio in zip(rs.radii, rs.ratios):
        if r < 100:
            continue
        target = math.log(2) / math.log(r)
        assert abs(ratio - target) <= 0.05 * target, \
            f"ratio {ratio:.4f} vs {target:.4f} at r={r:g}"
    h = ProductEntireSlice(QPochhammerSpec(Fraction(1, 2), Z))
    rs2 = ldl_ratio(h, Q2, grid, quad)
    tail = rs2.ratios[-3:]
    assert all(b < a for a, b in zip(tail, tail[1:])), \
        f"product-function ratios not decreasing: {tail}"


# ---------------------------------------------------------------------------
# 5. Casoratian algebra: exact multilinearity, alternation, Vandermonde
# ---------------------------------------------------------------------------

def random_rational(rng, max_deg=3):
    def poly(min_terms):
        while True:
            p = Polynomial(1, {
                (int(d),): GaussianRational(
                    Fraction(int(rng.integers(-9, 10)),
                             int(rng.integers(1, 5))),
                    Fraction(int(rng.integers(-9, 10)),
                             int(rng.integers(1, 5))))
                for d in rng.integers(0, max_deg + 1,
                                      size=rng.integers(1, 4))})
            if len(p.terms) >= min_terms:
                return p
    return RationalFunction(poly(1), poly(1))


def test_criterion_05_casorati_algebra():
    rng = np.random.default_rng(5)
    for _ in range(50):
        a, b, c = (random_rational(rng) for _ in range(3))
        sa, sb, sc = (RationalSlice(x) for x in (a, b, c))
        # alternation: C(a, b) = -C(b, a), exactly
        assert casorati([sa, sb], Q2).rf == -casorati([sb, sa], Q2).rf
        # multilinearity in the first row, exactly
        lhs = casorati([sa, sb], Q2).rf + casorati([sc, sb], Q2).rf
        rhs = casorati([RationalSlice(a + c), sb], Q2).rf
        assert lhs == rhs
    # symbolic Vandermonde oracle for the power basis
    for n in (1, 2, 3, 4):
        comps = [RationalSlice(Z ** k) for k in range(n + 1)]
        coeff = 1
        for j in range(n + 1):
            for i in range(j):
                coeff *= 2 ** j - 2 ** i
        expected = RationalFunction((Z ** (n * (n + 1) // 2)).scale(coeff))
        assert casorati(comps, Q2).rf == expected


# ---------------------------------------------------------------------------
# 6. dependence verdicts agree with a brute-force orbit-rank oracle
# ---------------------------------------------------------------------------

def orbit_rank_dependent(comps, q, rng):
    """Brute-force oracle: components are dependent over the q-invariant
    field iff the orbit matrix F[k, i] = f_i(q^k z0) is rank deficient at
    generic points (invariant coefficients are constant along an orbit)."""
    k = len(comps)
    qv = qshift_numeric(q)
    for _ in range(5):
        z0 = rng.standard_normal(comps[0].nvars) \
            + 1j * rng.standard_normal(comps[0].nvars)
        rows = []
        for s in range(k + 2):
            z = z0 * qv ** s
            rows.append([complex(eval_complex(c.rf, z)) for c in comps])
        m = np.array(rows)
        sv = np.linalg.svd(m, compute_uv=False)
        if sv[-1] > 1e-8 * sv[0]:
            return False  # full column rank at a generic point
    return True


def random_small_poly(rng, nvars, max_deg):
    while True:
        exps = rng.integers(0, max_deg + 1, size=(3, nvars))
        p = Polynomial(nvars, {
            tuple(int(x) for x in e):
            Fraction(int(rng.integers(-5, 6))) for e in exps})
        if not p.is_zero():
            return p


def random_homogeneous(rng, deg):
    while True:
        p = Polynomial(2, {
            (k, deg - k): Fraction(int(rng.integers(-5, 6)))
            for k in range(deg + 1)})
        if not p.is_zero():
            return p


def test_criterion_06_dependence_oracle():
    rng = np.random.default_rng(6)
    instances = []
    # 10 dependent over the constants
    for _ in range(5):
        p = random_small_poly(rng, 1, 3)
        c = int(rng.integers(2, 7))
        instances.append(([RationalSlice(p), RationalSlice(p.scale(c))],
                          Q2, True))
    for _ in range(5):
        p1, p2 = random_small_poly(rng, 1, 3), random_small_poly(rng, 1, 3)
        combo = p1.scale(3) - p2.scale(2)
        if combo.is_zero():
            combo = p1
        instances.append(([RationalSlice(p1), RationalSlice(p2),
                           RationalSlice(combo)], Q2, True))
    # 10 dependent over the invariant field: equal-degree homogeneous
    # pairs under a diagonal rescaling (their ratio is degree-0
    # homogeneous, hence q-invariant)
    qd = QShift([2, 2])
    for _ in range(10):
        deg = int(rng.integers(1, 4))
        g1, g2 = random_homogeneous(rng, deg), random_homogeneous(rng, deg)
        instances.append(([RationalSlice(g1), RationalSlice(g2)], qd, True))
    # 10 independent controls
    for _ in range(6):
        d1, d2 = sorted(rng.choice(4, size=2, replace=False))
        p1 = random_small_poly(rng, 1, int(d1)) + Polynomial.constant(1, 1)
        p2 = (Z ** int(d2 + 1)) + random_small_poly(rng, 1, int(d2))
        instances.append(([RationalSlice(p1), RationalSlice(p2)], Q2, False))
    instances.append(([constant_slice(1, 1), RationalSlice(Z)], Q2, False))
    instances.append(([constant_slice(1, 1), RationalSlice(Z),
                       RationalSlice(Z ** 2)], Q2, False))
    instances.append(([RationalSlice(Z1), RationalSlice(Z2 ** 2)],
                      qd, False))
    instances.append(([RationalSlice(Z1 + 1), RationalSlice(Z2)],
                      qd, False))
    assert len(instances) == 30
    for comps, q, expect_dependent in instances:
        oracle = orbit_rank_dependent(comps, q, rng)
        assert oracle == expect_dependent, \
            f"oracle disagrees with construction for {comps}"
        f = ProjectiveMap(list(comps))
        verdict = linear_nondegeneracy(f, q)
        got_dependent = verdict.nondegenerate is not True
        assert got_dependent == oracle, \
            f"Casoratian test {verdict} vs oracle dependent={oracle}"


# ---------------------------------------------------------------------------
# 7. filtration integrity
# ---------------------------------------------------------------------------

def line_forms():
    return [HomogeneousForm(3, 1, {(0, 1, 0): 1}),
            HomogeneousForm(3, 1, {(0, 0, 1): 1})]


def conic_forms():
    return [HomogeneousForm(3, 2, {(0, 2, 0): 1, (1, 0, 1): -1}),
            HomogeneousForm(3, 2, {(0, 0, 2): 1, (1, 1, 0): -1})]


def test_criterion_07_filtration_integrity():
    start = time.perf_counter()
    for gammas, d in ((line_forms(), 1), (conic_forms(), 2)):
        hs = hilbert_stabilization(gammas)
        assert hs.is_zero_dim is True
        assert hs.stable_value == d * d  # product of the degrees
        for alpha in (4, 8):
            rep = filtration_report(gammas, alpha)
            assert rep.M == math.comb(alpha + 2, 2)
            assert sum(lv.quotient_dim for lv in rep.levels) == rep.M
            qc = quotient_check(rep.levels, alpha, d, 2,
                                rep.alpha0_empirical)
            assert qc.ok, f"guaranteed region violated: {qc.violations}"
            for lv in rep.levels:
                if d * sum(lv.tuple) < alpha - rep.alpha0_empirical:
                    assert lv.quotient_dim == d * d
            assert len(set(rep.deltas_by_j)) == 1
    assert time.perf_counter() - start < 120.0


# ---------------------------------------------------------------------------
# 8. asymptotic coefficient ratio
# ---------------------------------------------------------------------------

def test_criterion_08_asymptotic_ratio():
    target = 2 * 3  # d (n+1) for conics in P^2
    ratios = [filtration_report(conic_forms(), a).ratio_malpha_delta
              for a in (8, 12, 16)]
    assert ratios[0] > ratios[1] > ratios[2] > target
    assert abs(ratios[-1] - target) <= 0.25 * target


# ---------------------------------------------------------------------------
# 9. Cartan-type inequality and its degree-one reduction
# ---------------------------------------------------------------------------

def cartan_inputs():
    f = ProjectiveMap([constant_slice(1, 1), RationalSlice(Z)])
    H = [HomogeneousForm.hyperplane(c) for c in ([1, 0], [0, 1], [1, 1])]
    return f, H


def test_criterion_09_cartan_smt():
    quad = QuadratureSpec(n_lines=8, n_theta=128, seed=9)
    grid = RadialGrid.log_spaced(10.0, 1e4, 5)
    f, H = cartan_inputs()
    rep = verify_cartan_smt(f, H, Q2, grid, quad)
    assert not rep.report_only, rep.failed_hypotheses()
    for row in rep.rows:
        assert row.margin >= -0.1 - 10 * row.err, \
            f"margin {row.margin:.4f} at r={row.r:g}"
    slope, ok = rep.margin_trend()
    assert ok, f"margin/T trend {slope:.4f} below -0.05"
    hrep = verify_hypersurface_smt(f, H, Q2, 1, grid, quad)
    assert not hrep.report_only
    for a, b in zip(rep.rows, hrep.rows):
        assert abs(a.margin - b.margin) <= 2 * (a.err + b.err) + 1e-9, \
            f"degree-one reduction drifts at r={a.r:g}"


# ---------------------------------------------------------------------------
# 10. Gundersen-Hayman identity residual
# ---------------------------------------------------------------------------

def test_criterion_10_gundersen_identity():
    quad = QuadratureSpec(n_lines=8, n_theta=128, seed=10)
    grid = RadialGrid.log_spaced(10.0, 1e4, 5)
    f, H = cartan_inputs()
    rs = gundersen_hayman_identity(f, H, Q2, grid, quad)
    spread = max(s.m_val for s in rs) - min(s.m_val for s in rs)
    assert spread <= 1e-4 + max(s.err for s in rs), \
        f"residual varies by {spread:.3e}"


# ---------------------------------------------------------------------------
# 11. Picard machinery: invariance, partitions, rigidity
# ---------------------------------------------------------------------------

def test_criterion_11_picard_machinery():
    # forward invariance on the three reference examples
    assert forward_invariance_check(Z1, QShift([2, 4]))
    assert not forward_invariance_check(Z - 1, Q2)
    assert forward_invariance_check(Z1 ** 2 - Z2, QShift([2, 4]))
    # exact partitions
    part = partition_by_q_ratio(
        [constant_slice(1, 1), RationalSlice(Z), RationalSlice(Z.scale(2))],
        Q2)
    assert part.classes == [[0], [1, 2]]
    assert partition_by_q_ratio(
        [RationalSlice(Z1), RationalSlice(Z2)], QShift([2, 2])).l == 1
    assert partition_by_q_ratio(
        [RationalSlice(Z1), RationalSlice(Z2)], QShift([2, 3])).l == 2
    # m=2, n=1, p=3 rigidity: f(qz) = f(z) projectively, symbolically
    f = ProjectiveMap([RationalSlice(Z1), RationalSlice(Z2)])
    H = [HomogeneousForm.hyperplane(c) for c in ([1, 0], [0, 1], [1, -1])]
    rep = picard_check(f, H, QShift([2, 2]))
    assert not rep.failed
    assert rep.theorem_applies
    assert rep.q_periodic_map is True
    assert rep.dimension_bound == 0
    assert rep.partition.classes == [[0, 1]]


# ---------------------------------------------------------------------------
# 12. shift counting ratios and report-only controls
# ---------------------------------------------------------------------------

def test_criterion_12_shift_counting_and_controls():
    quad = QuadratureSpec(n_lines=8, n_theta=128, seed=12)
    grid = RadialGrid((100.0, 1000.0, 10000.0))
    # poles of 1/(z-1) under q=2: exact orbit, ratio 1
    h1 = RationalSlice(RationalFunction(Polynomial.constant(1, 1), Z - 1))
    rs1 = shift_counting_ratio(h1, Q2, grid, quad)
    assert abs(rs1.ratios[-1] - 1.0) <= 0.02
    # poles of 1/(z;1/2)_inf under a near-identity rescaling
    h2 = QuotientSlice(
        constant_slice(1, 1),
        ProductEntireSlice(QPochhammerSpec(Fraction(1, 2), Z)))
    rs2 = shift_counting_ratio(h2, QShift([Fraction(21, 20)]), grid, quad)
    assert abs(rs2.ratios[-1] - 1.0) <= 0.02
    # hypothesis-violating controls must stay report-only
    gridt = RadialGrid.log_spaced(10.0, 1e4, 5)
    G = QDiffPolynomial([QDiffTerm(1, [(Q2, 1), (QShift([1]), 1)])], 1)
    w = ProductEntireSlice(QPochhammerSpec(Fraction(1, 2), Z))
    for ctl in (w, QuotientSlice(constant_slice(1, 1), w)):
        rep = tumura_clunie_ratio(G, ctl, gridt,
                                  QuadratureSpec(n_lines=4, n_theta=128,
                                                 seed=12))
        assert rep.report_only
        assert rep.floor_holds() is None
