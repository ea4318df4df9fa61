"""Inequality and identity harnesses: closed forms and report contracts."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from nevlab import qops, verifier
from nevlab.errors import HypothesisFailure, UsageError
from nevlab.funcspace import (HomogeneousForm, ProductEntireSlice,
                              ProjectiveMap, QPochhammerSpec, QuotientSlice,
                              RationalSlice, check_general_position,
                              constant_slice)
from nevlab.nevcore import QuadratureSpec, RadialGrid
from nevlab.polynomials import Polynomial, RationalFunction
from nevlab.qops import QShift
from nevlab.rationals import GaussianRational
from nevlab.verifier import (QDiffPolynomial, QDiffTerm, SmtReport, SmtRow,
                             clunie_check, compose_qdiff,
                             forward_invariance_check,
                             gundersen_hayman_identity, partition_by_q_ratio,
                             picard_check, tumura_clunie_ratio,
                             verify_cartan_smt, verify_hsmt_weil,
                             verify_hypersurface_smt)
from oracles import q_periodic_map

Z = Polynomial.variable(0, 1)
Q2 = QShift([2])
QUAD = QuadratureSpec(n_lines=4, n_theta=128, seed=6)
GRID = RadialGrid.log_spaced(10.0, 1e4, 5)


def closed_form_inputs():
    f = ProjectiveMap([constant_slice(1, 1), RationalSlice(Z)])
    H = [HomogeneousForm.hyperplane(c) for c in ([1, 0], [0, 1], [1, 1])]
    return f, H


# ---------------------------------------------------------------------------
# report mechanics
# ---------------------------------------------------------------------------

def test_report_only_blocks_verdict():
    rep = SmtReport("x")
    rep.hypotheses["h"] = (False, "violated")
    rep.rows = [SmtRow(10.0, 0.0, 1.0, 1.0, 0.0)]
    rep.t_values = [1.0]
    assert rep.report_only
    assert rep.verdict() is None
    assert rep.failed_hypotheses() == ["h"]


def test_floor_verdict():
    rep = SmtReport("x")
    rep.hypotheses["h"] = (True, "")
    rep.rows = [SmtRow(r, 0.0, m, m, 0.0)
                for r, m in ((10.0, 0.5), (100.0, 0.4), (1000.0, 0.4))]
    rep.t_values = [1.0, 1.0, 1.0]
    assert rep.verdict() is True
    rep.rows[-1] = SmtRow(1000.0, 0.0, -5.0, -5.0, 0.0)
    assert rep.verdict() is False


# ---------------------------------------------------------------------------
# harnesses on the closed-form case
# ---------------------------------------------------------------------------

def test_cartan_closed_form_passes():
    f, H = closed_form_inputs()
    rep = verify_cartan_smt(f, H, Q2, GRID, QUAD)
    assert rep.verdict() is True
    assert all(row.margin >= -0.1 - 10 * row.err for row in rep.rows)


def test_cartan_degenerate_map_reports_only():
    f = ProjectiveMap([RationalSlice(Z), RationalSlice(Z.scale(2))])
    H = [HomogeneousForm.hyperplane(c) for c in ([1, 0], [0, 1], [1, 1])]
    rep = verify_cartan_smt(f, H, Q2, GRID, QUAD)
    assert rep.report_only
    assert rep.verdict() is None
    # the same note as `nevlab nondegeneracy` prints for this map
    assert rep.hypotheses["linear_nondegeneracy"] == (
        False, qops.linear_nondegeneracy(f, Q2).note)


def test_cartan_rejects_degree_two_forms():
    f, _ = closed_form_inputs()
    D = HomogeneousForm(2, 2, {(2, 0): 1, (0, 2): 1})
    with pytest.raises(UsageError):
        verify_cartan_smt(f, [D, D, D], Q2, GRID, QUAD)


def test_hsmt_weil_bounded_mode():
    f, H = closed_form_inputs()
    rep = verify_hsmt_weil(f, H, Q2, GRID, QUAD)
    assert rep.margin_mode == "bounded"
    assert rep.verdict() is True


def test_weil_subsets_use_exact_rank():
    # a float rank drops these exactly independent pairs: the relative
    # tolerance of numpy's matrix_rank sees [1, 10^16] and [1, 0] as
    # parallel, and [1, 10^15], [0, 1] (determinant 1) likewise
    f = ProjectiveMap([constant_slice(1, 1), RationalSlice(Z)])
    H = [HomogeneousForm.hyperplane(c) for c in ([1, 10 ** 16], [1, 0])]
    assert check_general_position(H, 1)[0]
    assert verifier._admissible_subsets(H, 1) == [(0, 1)]
    quad = QuadratureSpec(n_lines=1, n_theta=32, seed=6)
    rep = verify_hsmt_weil(f, H, Q2, RadialGrid((10.0, 100.0)), quad)
    assert len(rep.rows) == 2
    H = [HomogeneousForm.hyperplane(c)
         for c in ([1, 10 ** 15], [1, 0], [0, 1])]
    assert verifier._admissible_subsets(H, 1) == [(0, 1), (0, 2), (1, 2)]


def test_hypersurface_alpha_one_matches_cartan():
    f, H = closed_form_inputs()
    rep = verify_cartan_smt(f, H, Q2, GRID, QUAD)
    hrep = verify_hypersurface_smt(f, H, Q2, 1, GRID, QUAD)
    assert not hrep.report_only
    for a, b in zip(rep.rows, hrep.rows):
        assert abs(a.margin - b.margin) <= 2 * (a.err + b.err) + 1e-9


@pytest.mark.parametrize("harness", ["cartan", "hsmt", "hypersurface"])
def test_harness_builds_casoratian_once(monkeypatch, harness):
    # the nondegeneracy hypothesis is decided on the Casoratian the
    # harness counts with, not on a second copy
    builder = "casorati_monomials" if harness == "hypersurface" \
        else "casorati"
    original = getattr(qops, builder)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(qops, builder, counted)
    monkeypatch.setattr(verifier, builder, counted)
    f, H = closed_form_inputs()
    quad = QuadratureSpec(n_lines=1, n_theta=32, seed=6)
    grid = RadialGrid((10.0, 100.0))
    if harness == "cartan":
        rep = verify_cartan_smt(f, H, Q2, grid, quad)
    elif harness == "hsmt":
        rep = verify_hsmt_weil(f, H, Q2, grid, quad)
    else:
        rep = verify_hypersurface_smt(f, H, Q2, 2, grid, quad)
    assert not rep.report_only
    assert len(calls) == 1


def test_gundersen_residual_constant():
    f, H = closed_form_inputs()
    rs = gundersen_hayman_identity(f, H, Q2, GRID, QUAD)
    spread = max(s.m_val for s in rs) - min(s.m_val for s in rs)
    assert spread <= 1e-4 + max(s.err for s in rs)


# ---------------------------------------------------------------------------
# invariance, partitions, rigidity
# ---------------------------------------------------------------------------

def test_forward_invariance():
    assert forward_invariance_check(Polynomial.variable(0, 2),
                                    QShift([2, 4]))
    assert not forward_invariance_check(Z - 1, Q2)
    parabola = Polynomial.variable(0, 2) ** 2 - Polynomial.variable(1, 2)
    assert forward_invariance_check(parabola, QShift([2, 4]))
    with pytest.raises(UsageError):
        forward_invariance_check(Z, QShift([2.0 + 0j]))


def test_partition_by_q_ratio():
    part = partition_by_q_ratio(
        [constant_slice(1, 1), RationalSlice(Z), RationalSlice(Z.scale(2))],
        Q2)
    assert part.classes == [[0], [1, 2]]
    assert part.l == 2
    assert (1, 2) in part.witnesses


def test_picard_rigidity_conclusion():
    z1 = Polynomial.variable(0, 2)
    z2 = Polynomial.variable(1, 2)
    f = ProjectiveMap([RationalSlice(z1), RationalSlice(z2)])
    H = [HomogeneousForm.hyperplane(c)
         for c in ([1, 0], [0, 1], [1, -1])]
    rep = picard_check(f, H, QShift([2, 2]))
    assert not rep.failed
    assert rep.theorem_applies
    assert rep.q_periodic_map is True
    assert rep.dimension_bound == 0
    assert rep.partition.classes == [[0, 1]]


@st.composite
def polynomial_maps(draw):
    """(components, q): 2 to 4 nonzero polynomials of one or two terms in
    one or two variables, and exact q among 2, 4, -2 and 1/2, under which
    ratios of monomials are often q-periodic."""
    m = draw(st.integers(1, 2))
    exps = st.tuples(*[st.integers(0, 2)] * m)
    coeffs = st.sampled_from([1, -1, 3, GaussianRational(0, 1)])
    comps = draw(st.lists(st.dictionaries(exps, coeffs, min_size=1,
                                          max_size=2).map(
        lambda t: Polynomial(m, t)), min_size=2, max_size=4))
    q = draw(st.lists(st.sampled_from([2, 4, -2, Fraction(1, 2)]),
                      min_size=m, max_size=m))
    return comps, QShift(q)


@settings(max_examples=60, deadline=None)
@given(polynomial_maps())
@example(([Z, Z.scale(2)], Q2))
@example(([Z, Z + 1], Q2))
def test_one_partition_class_iff_map_is_q_periodic(case):
    comps, q = case
    part = partition_by_q_ratio([RationalSlice(p) for p in comps], q)
    assert (part.l == 1) == q_periodic_map(comps, q)


def test_partition_rejects_a_zero_component():
    z1, z2 = Polynomial.variable(0, 2), Polynomial.variable(1, 2)
    f = ProjectiveMap([RationalSlice(Polynomial.zero(2)), RationalSlice(z1),
                       RationalSlice(z2)])
    with pytest.raises(UsageError, match="nonzero"):
        partition_by_q_ratio(f.components, QShift([2, 3]))
    # every H(f) is a monomial, so forward invariant; f(qz) != f(z)
    H = [HomogeneousForm.hyperplane(c)
         for c in ([1, 1, 0], [1, 0, 1], [1, 2, 0], [1, 0, 2])]
    with pytest.raises(UsageError, match="nonzero"):
        picard_check(f, H, QShift([2, 3]))


def test_picard_requires_general_position():
    f, _ = closed_form_inputs()
    bad = [HomogeneousForm.hyperplane(c)
           for c in ([1, 0], [2, 0], [0, 1])]
    with pytest.raises(HypothesisFailure):
        picard_check(f, bad, Q2)


# ---------------------------------------------------------------------------
# q-difference polynomials
# ---------------------------------------------------------------------------

def test_compose_qdiff_rational():
    # P(z, w) = w(z) * w(2z) applied to w = z gives 2 z^2
    P = QDiffPolynomial([QDiffTerm(1, [(QShift([1]), 1), (Q2, 1)])], 1)
    out = compose_qdiff(P, RationalSlice(Z))
    assert out.rf == RationalFunction((Z ** 2).scale(2))


def test_compose_qdiff_empty_is_zero():
    P = QDiffPolynomial([], 1)
    out = compose_qdiff(P, RationalSlice(Z))
    assert out.rf.is_zero()


def test_clunie_identity_enforced():
    qid = QShift([1])
    U = QDiffPolynomial([QDiffTerm(1, [(qid, 1)])], 1)
    P = QDiffPolynomial([QDiffTerm(1, [(Q2, 1)])], 1)
    Qbad = QDiffPolynomial([QDiffTerm(2, [(qid, 1), (Q2, 1)])], 1)
    with pytest.raises(UsageError):
        clunie_check(U, P, Qbad, RationalSlice(Z), Q2, GRID, QUAD)


def test_clunie_positive_case_decays():
    qid = QShift([1])
    w = ProductEntireSlice(QPochhammerSpec(Fraction(1, 2), Z))
    U = QDiffPolynomial([QDiffTerm(1, [(qid, 1)])], 1)
    P = QDiffPolynomial([QDiffTerm(3, [])], 1)
    Q = QDiffPolynomial([QDiffTerm(3, [(qid, 1)])], 1)
    rep = clunie_check(U, P, Q, w, Q2, GRID, QUAD)
    assert not rep.report_only
    assert rep.ratios[-1] < rep.ratios[0]
    assert rep.ratios[-1] < 0.2


def test_tumura_controls_report_only():
    G = QDiffPolynomial([QDiffTerm(1, [(Q2, 1), (QShift([1]), 1)])], 1)
    w = ProductEntireSlice(QPochhammerSpec(Fraction(1, 2), Z))
    for ctl in (w, QuotientSlice(constant_slice(1, 1), w)):
        rep = tumura_clunie_ratio(G, ctl, GRID, QUAD)
        assert rep.report_only
        assert rep.floor_holds() is None
        assert rep.notes


# 1.25 is a double whose exact value is 5/4: a rational w under the float q
# is rescaled exactly by 5/4, so each check runs as under the exact q
FLOAT_Q, EXACT_Q = QShift([1.25]), QShift([Fraction(5, 4)])


def test_clunie_rational_w_under_float_q_is_symbolic():
    w = RationalSlice(RationalFunction(Z + 1, Z - 3))
    reps = []
    for q in (FLOAT_Q, EXACT_Q):
        qid = QShift([1.0]) if q is FLOAT_Q else QShift([1])
        U = QDiffPolynomial([QDiffTerm(1, [(qid, 1)])], 1)
        P = QDiffPolynomial([QDiffTerm(Z, [(q, 1)]), QDiffTerm(1, [])], 1)
        Q = QDiffPolynomial([QDiffTerm(Z, [(qid, 1), (q, 1)]),
                             QDiffTerm(1, [(qid, 1)])], 1)
        reps.append(clunie_check(U, P, Q, w, q, GRID, QUAD))
    assert all(r.notes[0] == "symbolic identity check" for r in reps)
    assert reps[0].ratios == reps[1].ratios
    assert reps[0].t_values == reps[1].t_values


def test_clunie_zero_p_detected_under_float_q():
    # P(z, w) = w(qz) - (5/4) w(z) vanishes identically for w = z
    w = RationalSlice(Z)
    qid = QShift([1.0])
    U = QDiffPolynomial([QDiffTerm(1, [(qid, 1)])], 1)
    P = QDiffPolynomial([QDiffTerm(1, [(FLOAT_Q, 1)]),
                         QDiffTerm(Fraction(-5, 4), [(qid, 1)])], 1)
    assert compose_qdiff(P, w).rf.is_zero()
    rep = clunie_check(U, P, QDiffPolynomial([], 1), w, FLOAT_Q, GRID, QUAD)
    assert rep.ratios == [0.0] * len(GRID.radii)


def test_tumura_multi_term_g_over_rational_f_under_float_q():
    # G(z, f) = f(qz) f(z) + f(qz) over f = 1/(z - 3), which has a pole:
    # G(., f) is rational, so its zeros are counted from roots
    f = RationalSlice(RationalFunction(Polynomial.constant(1, 1), Z - 3))
    reps = []
    for q in (FLOAT_Q, EXACT_Q):
        qid = QShift([1.0]) if q is FLOAT_Q else QShift([1])
        G = QDiffPolynomial([QDiffTerm(1, [(q, 1), (qid, 1)]),
                             QDiffTerm(1, [(q, 1)])], 1)
        assert isinstance(compose_qdiff(G, f), RationalSlice)
        reps.append(tumura_clunie_ratio(G, f, GRID, QUAD))
    assert reps[0].ratios == reps[1].ratios
    assert reps[0].hypothesis_ratios == reps[1].hypothesis_ratios
    assert all(r > 0 for r in reps[0].ratios)
