"""Built-in example gallery.

Each case packages inputs, expected outcomes with tolerances, and a
provenance tag saying how the expectation was obtained: "closed-form"
(hand-derivable answer), "oracle" (independent exact computation), or
"cross-check" (two code paths must agree).  `run_all` is what the
`gallery` CLI command executes.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import tempfile
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, List, Optional, Tuple

from .errors import UsageError
from .filtration import filtration_report, hilbert_stabilization, quotient_check
from .funcspace import (HomogeneousForm, ProductEntireSlice, ProjectiveMap,
                        QPochhammerSpec, QuotientSlice, RationalSlice,
                        constant_slice)
from .nevcore import (QuadratureSpec, RadialGrid, characteristic,
                      fit_slope, fmt_residual, jensen_residual)
from .polynomials import Polynomial, RationalFunction
from .qops import (QShift, casorati, ldl_ratio, linear_nondegeneracy,
                   shift_counting_ratio)
from .verifier import (QDiffPolynomial, QDiffTerm, clunie_check,
                       forward_invariance_check, gundersen_hayman_identity,
                       partition_by_q_ratio, picard_check,
                       tumura_clunie_ratio, verify_cartan_smt,
                       verify_hypersurface_smt)


@dataclass
class GalleryCase:
    name: str
    summary: str
    tag: str                       # closed-form | oracle | cross-check
    run: Callable[[], Tuple[bool, str]]


def _z(nvars: int = 1, index: int = 0) -> Polynomial:
    return Polynomial.variable(index, nvars)


def _one(nvars: int = 1) -> Polynomial:
    return Polynomial.constant(1, nvars)


def _poch(qbase, argument: Polynomial) -> ProductEntireSlice:
    return ProductEntireSlice(QPochhammerSpec(qbase, argument))


def _hyper(coeffs) -> HomogeneousForm:
    return HomogeneousForm.hyperplane(coeffs)


def _conic_pair():
    return [HomogeneousForm(3, 2, {(0, 2, 0): 1, (1, 0, 1): -1}),
            HomogeneousForm(3, 2, {(0, 0, 2): 1, (1, 1, 0): -1})]


# ---------------------------------------------------------------------------
# cases
# ---------------------------------------------------------------------------

def _case_jensen() -> Tuple[bool, str]:
    quad = QuadratureSpec(n_lines=8, n_theta=256, seed=2)
    grid = RadialGrid((2.0, 20.0, 200.0, 1000.0))
    z = _z()
    cases = [
        RationalSlice(RationalFunction((z - _one().scale(3)) * (z + _one().scale(5)), _one())),
        RationalSlice(RationalFunction(z * z + _one().scale(16), z - _one().scale(7))),
        RationalSlice(RationalFunction(
            (_z(2, 0) - 4) * (_z(2, 1) + 6),
            _z(2, 0) + _z(2, 1) - 9)),
        RationalSlice(RationalFunction(
            _z(2, 0) * _z(2, 1) + 25, _one(2))),
    ]
    worst = 0.0
    for h in cases:
        for s in jensen_residual(h, grid, quad):
            excess = abs(s.m_val) - (1e-6 + s.err)
            worst = max(worst, excess)
            if excess > 0:
                return False, f"residual exceeds bound by {excess:.2e}"
    return True, f"worst residual-bound slack {worst:.2e}"


def _case_slope() -> Tuple[bool, str]:
    quad = QuadratureSpec(n_lines=16, n_theta=256, seed=3)
    grid = RadialGrid.log_spaced(10.0, 1e4, 5)
    maps = [
        (ProjectiveMap([RationalSlice(_one()), RationalSlice(_z())]), 1),
        (ProjectiveMap([RationalSlice(_one()),
                        RationalSlice(_z() ** 2),
                        RationalSlice(_z() ** 3)]), 3),
        (ProjectiveMap([RationalSlice(_one(2)),
                        RationalSlice(_z(2, 0) * _z(2, 1)),
                        RationalSlice(_z(2, 1) ** 2)]), 2),
    ]
    details = []
    for f, deg in maps:
        t = characteristic(f, grid, quad)
        slope = fit_slope([math.log(s.r) for s in t], [s.t_val for s in t])
        details.append(f"{slope:.4f}/{deg}")
        if abs(slope - deg) > 0.01 * deg:
            return False, f"slope {slope:.4f} vs degree {deg}"
    return True, "fitted slopes " + ", ".join(details)


def _case_fmt() -> Tuple[bool, str]:
    quad = QuadratureSpec(n_lines=8, n_theta=128, seed=4)
    grid = RadialGrid.log_spaced(10.0, 1e4, 4)
    f1 = ProjectiveMap([RationalSlice(_one()), RationalSlice(_z())])
    f2 = ProjectiveMap([RationalSlice(_one()), RationalSlice(_z()),
                        RationalSlice(_z() ** 2)])
    f3 = ProjectiveMap([RationalSlice(_z(2, 0)), RationalSlice(_z(2, 1))])
    pairs = [
        (f1, _hyper([1, 1])),
        (f1, _hyper([3, -2])),
        (f2, HomogeneousForm(3, 2, {(0, 2, 0): 1, (1, 0, 1): 1})),
        (f3, _hyper([1, -1])),
        (f3, _hyper([2, 5])),
    ]
    worst = 0.0
    for f, D in pairs:
        rs = fmt_residual(f, D, grid, quad)
        spread = max(s.m_val for s in rs) - min(s.m_val for s in rs)
        tol = 0.05 + 10 * max(s.err for s in rs)
        worst = max(worst, spread - tol)
        if spread > tol:
            return False, f"residual variation {spread:.4f} > {tol:.4f}"
    return True, f"worst variation-bound slack {worst:.2e}"


def _case_ldl() -> Tuple[bool, str]:
    quad = QuadratureSpec(n_lines=8, n_theta=256, seed=5)
    grid = RadialGrid((10.0, 100.0, 1000.0, 10000.0))
    q = QShift([2])
    rs = ldl_ratio(RationalSlice(_z()), q, grid, quad)
    for r, ratio in zip(rs.radii, rs.ratios):
        if r < 100:
            continue
        target = math.log(2) / math.log(r)
        if abs(ratio - target) > 0.05 * target:
            return False, f"ratio {ratio:.4f} vs log2/log r = {target:.4f}"
    rs2 = ldl_ratio(_poch(Fraction(1, 2), _z()), q, grid, quad)
    tail = rs2.ratios[-3:]
    if any(b >= a for a, b in zip(tail, tail[1:])):
        return False, f"product-function ratios not decreasing: {tail}"
    return True, (f"rational ratios track log2/log r; product ratios "
                  f"decay {tail[0]:.4f} -> {tail[-1]:.4f}")


def _case_vandermonde() -> Tuple[bool, str]:
    q = QShift([2])
    for n in (1, 2, 3):
        comps = [RationalSlice(_z() ** k) for k in range(n + 1)]
        det = casorati(comps, q)
        coeff = 1
        for j in range(n + 1):
            for i in range(j):
                coeff *= 2 ** j - 2 ** i
        expected = RationalFunction(
            _z() ** (n * (n + 1) // 2) * Polynomial.constant(coeff, 1),
            _one())
        if det.rf != expected:
            return False, f"power basis n={n}: {det.rf} != {expected}"
    # multilinearity and alternation, exact
    a = RationalSlice(_z() + _one())
    b = RationalSlice(_z() ** 2 - _one().scale(3))
    c = RationalSlice(RationalFunction(_one(), _z() - 5))
    lhs = casorati([a, b], q).rf + casorati([c, b], q).rf
    rhs = casorati([RationalSlice(a.rf + c.rf), b], q).rf
    if lhs != rhs:
        return False, "multilinearity failed"
    if casorati([a, b], q).rf != -casorati([b, a], q).rf:
        return False, "alternation failed"
    return True, "power-basis products, multilinearity, alternation exact"


def _case_dependence() -> Tuple[bool, str]:
    q = QShift([2])
    z = _z()
    cases = [
        (ProjectiveMap([RationalSlice(z), RationalSlice(z.scale(2))]), False),
        (ProjectiveMap([RationalSlice(_one()), RationalSlice(z)]), True),
        (ProjectiveMap([RationalSlice(z ** 2),
                        RationalSlice(z ** 2 + z)]), True),
        (ProjectiveMap([RationalSlice(z + _one()),
                        RationalSlice(z.scale(3) + _one().scale(3))]), False),
        (ProjectiveMap([RationalSlice(_one()), RationalSlice(z),
                        RationalSlice(z + _one())]), False),
        (ProjectiveMap([RationalSlice(_one()), RationalSlice(z),
                        RationalSlice(z ** 2)]), True),
    ]
    for f, expect in cases:
        verdict = linear_nondegeneracy(f, q)
        got = verdict.nondegenerate is True
        if got != expect:
            return False, (f"{f}: nondegenerate={verdict.nondegenerate} "
                           f"({verdict.note}), expected {expect}")
    return True, f"{len(cases)} dependence verdicts match the oracle"


def _case_filtration() -> Tuple[bool, str]:
    lines = [HomogeneousForm(3, 1, {(0, 1, 0): 1}),
             HomogeneousForm(3, 1, {(0, 0, 1): 1})]
    details = []
    for gammas, d in ((lines, 1), (_conic_pair(), 2)):
        hs = hilbert_stabilization(gammas)
        if hs.is_zero_dim is not True or hs.stable_value != d * d:
            return False, f"Hilbert value {hs.stable_value}, expected {d*d}"
        for alpha in (4, 8):
            if alpha < d:
                continue
            rep = filtration_report(gammas, alpha)
            if sum(lv.quotient_dim for lv in rep.levels) != rep.M:
                return False, "quotient dimensions do not total M"
            qc = quotient_check(rep.levels, alpha, d, 2, rep.alpha0_empirical)
            if not qc.ok:
                return False, f"guaranteed region violated: {qc.violations}"
            if len(set(rep.deltas_by_j)) != 1:
                return False, f"Delta varies across j: {rep.deltas_by_j}"
            details.append(f"d={d},a={alpha}:M={rep.M},D={rep.delta}")
    return True, "; ".join(details)


def _case_asymptotics() -> Tuple[bool, str]:
    ratios = []
    target = 2 * 3  # common degree times (n+1)
    for alpha in (8, 12, 16):
        rep = filtration_report(_conic_pair(), alpha)
        ratios.append(rep.ratio_malpha_delta)
    if any(b >= a for a, b in zip(ratios, ratios[1:])):
        return False, f"M*alpha/Delta not decreasing: {ratios}"
    if abs(ratios[-1] - target) > 0.25 * target:
        return False, f"final ratio {ratios[-1]:.4f} not within 25% of {target}"
    return True, ("M*alpha/Delta = "
                  + ", ".join(f"{x:.4f}" for x in ratios)
                  + f" -> {target}")


def _cartan_inputs():
    f = ProjectiveMap([RationalSlice(_one()), RationalSlice(_z())])
    H = [_hyper([1, 0]), _hyper([0, 1]), _hyper([1, 1])]
    return f, H, QShift([2])


def _case_cartan() -> Tuple[bool, str]:
    quad = QuadratureSpec(n_lines=8, n_theta=128, seed=6)
    grid = RadialGrid.log_spaced(10.0, 1e4, 5)
    f, H, q = _cartan_inputs()
    rep = verify_cartan_smt(f, H, q, grid, quad)
    if rep.verdict() is not True:
        return False, (f"verdict {rep.verdict()}; failed hypotheses "
                       f"{rep.failed_hypotheses()}")
    hrep = verify_hypersurface_smt(f, H, q, 1, grid, quad)
    for a, b in zip(rep.rows, hrep.rows):
        if abs(a.margin - b.margin) > 2 * (a.err + b.err) + 1e-9:
            return False, (f"degree-one reduction drifts at r={a.r:g}: "
                           f"{a.margin:.6f} vs {b.margin:.6f}")
    worst = min(row.margin for row in rep.rows)
    return True, f"verdict pass; min margin {worst:.4f}; reduction agrees"


def _case_gundersen() -> Tuple[bool, str]:
    quad = QuadratureSpec(n_lines=8, n_theta=128, seed=7)
    grid = RadialGrid.log_spaced(10.0, 1e4, 5)
    f, H, q = _cartan_inputs()
    rs = gundersen_hayman_identity(f, H, q, grid, quad)
    spread = max(s.m_val for s in rs) - min(s.m_val for s in rs)
    tol = 1e-4 + max(s.err for s in rs)
    if spread > tol:
        return False, f"residual variation {spread:.2e} > {tol:.2e}"
    return True, f"residual constant within {spread:.2e}"


def _case_picard() -> Tuple[bool, str]:
    q2 = QShift([2])
    if not forward_invariance_check(_z(2, 0), QShift([2, 4])):
        return False, "coordinate hyperplane should be invariant"
    if forward_invariance_check(_z() - 1, q2):
        return False, "shifted zero set wrongly judged invariant"
    g = _z(2, 0) ** 2 - _z(2, 1)
    if not forward_invariance_check(g, QShift([2, 4])):
        return False, "parabola under (2,4) should be invariant"
    part = partition_by_q_ratio(
        [constant_slice(1, 1), RationalSlice(_z()),
         RationalSlice(_z().scale(2))], q2)
    if part.classes != [[0], [1, 2]]:
        return False, f"partition {part.classes} != [[0], [1, 2]]"
    part2 = partition_by_q_ratio(
        [RationalSlice(_z(2, 0)), RationalSlice(_z(2, 1))], QShift([2, 2]))
    if part2.l != 1:
        return False, f"diagonal-q partition has {part2.l} classes, expected 1"
    part3 = partition_by_q_ratio(
        [RationalSlice(_z(2, 0)), RationalSlice(_z(2, 1))], QShift([2, 3]))
    if part3.l != 2:
        return False, f"mixed-q partition has {part3.l} classes, expected 2"
    f = ProjectiveMap([RationalSlice(_z(2, 0)), RationalSlice(_z(2, 1))])
    H = [_hyper([1, 0]), _hyper([0, 1]), _hyper([1, -1])]
    rep = picard_check(f, H, QShift([2, 2]))
    if rep.failed or not rep.theorem_applies or rep.q_periodic_map is not True:
        return False, f"rigidity case: {rep}"
    if rep.dimension_bound != 0 or rep.partition.classes != [[0, 1]]:
        return False, (f"bound {rep.dimension_bound}, partition "
                       f"{rep.partition.classes}")
    return True, "invariance, partitions, and the rigidity conclusion verified"


def _case_shift_counting() -> Tuple[bool, str]:
    quad = QuadratureSpec(n_lines=8, n_theta=128, seed=8)
    grid = RadialGrid((100.0, 1000.0, 10000.0))
    h1 = RationalSlice(RationalFunction(_one(), _z() - 1))
    rs1 = shift_counting_ratio(h1, QShift([2]), grid, quad)
    if abs(rs1.ratios[-1] - 1.0) > 0.02:
        return False, f"rational pole ratio {rs1.ratios[-1]:.4f}"
    h2 = QuotientSlice(constant_slice(1, 1), _poch(Fraction(1, 2), _z()))
    rs2 = shift_counting_ratio(h2, QShift([Fraction(21, 20)]), grid, quad)
    if abs(rs2.ratios[-1] - 1.0) > 0.02:
        return False, f"product pole ratio {rs2.ratios[-1]:.4f} at r=1e4"
    return True, (f"ratios at r=1e4: {rs1.ratios[-1]:.4f} (rational), "
                  f"{rs2.ratios[-1]:.4f} (product)")


def _case_tumura() -> Tuple[bool, str]:
    quad = QuadratureSpec(n_lines=4, n_theta=128, seed=9)
    grid = RadialGrid.log_spaced(10.0, 1e4, 5)
    q2 = QShift([2])
    G = QDiffPolynomial(
        [QDiffTerm(1, [(q2, 1), (QShift([1]), 1)])], 1)
    w = _poch(Fraction(1, 2), _z())
    controls = [w, QuotientSlice(constant_slice(1, 1), w)]
    for ctl in controls:
        rep = tumura_clunie_ratio(G, ctl, grid, quad)
        if not rep.report_only or rep.floor_holds() is not None:
            return False, "hypothesis-violating control got a verdict"
    eng = tumura_clunie_ratio(
        G, _poch(Fraction(1, 2), _z().scale(Fraction(1, 1024))), grid, quad)
    if not eng.notes:
        return False, "engineered run carries no hypothesis diagnostics"
    return True, ("controls correctly report-only; engineered run notes: "
                  + "; ".join(eng.notes))


def _case_clunie() -> Tuple[bool, str]:
    quad = QuadratureSpec(n_lines=4, n_theta=128, seed=10)
    grid = RadialGrid.log_spaced(10.0, 1e4, 5)
    q2 = QShift([2])
    qid = QShift([1])
    # negative control: w = z, U = w, Q = w(z) w(2z), P = w(2z)
    w = RationalSlice(_z())
    U = QDiffPolynomial([QDiffTerm(1, [(qid, 1)])], 1)
    P = QDiffPolynomial([QDiffTerm(1, [(q2, 1)])], 1)
    Q = QDiffPolynomial([QDiffTerm(1, [(qid, 1), (q2, 1)])], 1)
    rep = clunie_check(U, P, Q, w, q2, grid, quad)
    if rep.structure_ok or not rep.report_only:
        return False, "degree-violating control not in report-only mode"
    # decaying case: w a product function, P a constant, Q = c * w
    wp = _poch(Fraction(1, 2), _z())
    c = 3
    P2 = QDiffPolynomial([QDiffTerm(c, [])], 1)
    Q2 = QDiffPolynomial([QDiffTerm(c, [(qid, 1)])], 1)
    rep2 = clunie_check(U, P2, Q2, wp, q2, grid, quad)
    if rep2.report_only:
        return False, f"structural check failed: {rep2.notes}"
    if not rep2.ratios[-1] < rep2.ratios[0] or rep2.ratios[-1] > 0.2:
        return False, f"ratio not decaying: {rep2.ratios}"
    # P = 0
    P3 = QDiffPolynomial([], 1)
    Q3 = QDiffPolynomial([], 1)
    rep3 = clunie_check(U, P3, Q3, wp, q2, grid, quad)
    if any(x != 0.0 for x in rep3.ratios):
        return False, "zero numerator should give zero ratios"
    return True, (f"control report-only; decaying ratios "
                  f"{rep2.ratios[0]:.4f} -> {rep2.ratios[-1]:.4f}")


def _case_hypersurface() -> Tuple[bool, str]:
    f = ProjectiveMap([
        constant_slice(1, 2),
        _poch(Fraction(1, 2), _z(2, 0)),
        _poch(Fraction(1, 3), _z(2, 1)),
    ])
    C = _conic_pair() + [
        HomogeneousForm(3, 2, {(2, 0, 0): 1, (0, 2, 0): 2, (0, 0, 2): 3}),
        HomogeneousForm(3, 2, {(2, 0, 0): 1, (0, 1, 1): 1}),
    ]
    rep = verify_hypersurface_smt(
        f, C, QShift([2, 2]), 8, RadialGrid((10.0, 100.0, 1000.0)),
        QuadratureSpec(n_lines=4, n_theta=128, seed=3))
    if rep.report_only:
        return False, f"hypotheses failed: {rep.failed_hypotheses()}"
    if any(not math.isfinite(row.margin) for row in rep.rows):
        return False, "non-finite margin row"
    return True, ("hypotheses verified; margins "
                  + ", ".join(f"{row.margin:.1f}" for row in rep.rows)
                  + f"; exact coefficient {rep.extra['coeff_exact']:.4g} vs "
                  + f"asymptotic {rep.extra['coeff_asymptotic']:.4g}")


def _case_cli() -> Tuple[bool, str]:
    from . import cli

    poly1 = {"nvars": 1, "terms": [{"exps": [1], "re": "1", "im": "0"}]}
    one1 = {"nvars": 1, "terms": [{"exps": [0], "re": "1", "im": "0"}]}
    mp = {"components": [one1, poly1]}
    hyps = [
        {"nvars": 2, "terms": [{"exps": [1, 0], "re": "1", "im": "0"}]},
        {"nvars": 2, "terms": [{"exps": [0, 1], "re": "1", "im": "0"}]},
        {"nvars": 2, "terms": [{"exps": [1, 0], "re": "1", "im": "0"},
                               {"exps": [0, 1], "re": "1", "im": "0"}]},
    ]
    qj = {"q": [["2", "0"]]}
    gammas = [{"nvars": 3, "terms": [{"exps": [0, 1, 0], "re": "1", "im": "0"}]},
              {"nvars": 3, "terms": [{"exps": [0, 0, 1], "re": "1", "im": "0"}]}]
    runs: List[Tuple[List[str], int]] = []
    with tempfile.TemporaryDirectory() as tmp:
        def path(name, obj):
            p = os.path.join(tmp, name)
            with open(p, "w") as fh:
                json.dump(obj, fh)
            return p

        fmap = path("map.json", mp)
        ffn = path("fn.json", poly1)
        fq = path("q.json", qj)
        fg = path("gammas.json", {"forms": gammas})
        base = {"schema": "nevlab-run/1", "map": mp, "hyperplanes": hyps,
                "q": qj, "grid": "10:1000:3",
                "quad": {"lines": 4, "theta": 32, "seed": 1}}
        fcartan = path("cartan.json", base)
        fhyper = path("hyper.json", {**base, "alpha": 1})
        fpicard = path("picard.json", {
            "schema": "nevlab-run/1",
            "map": {"components": [
                {"nvars": 2, "terms": [{"exps": [1, 0], "re": "1", "im": "0"}]},
                {"nvars": 2, "terms": [{"exps": [0, 1], "re": "1", "im": "0"}]}]},
            "hyperplanes": [
                {"nvars": 2, "terms": [{"exps": [1, 0], "re": "1", "im": "0"}]},
                {"nvars": 2, "terms": [{"exps": [0, 1], "re": "1", "im": "0"}]},
                {"nvars": 2, "terms": [{"exps": [1, 0], "re": "1", "im": "0"},
                                       {"exps": [0, 1], "re": "-1", "im": "0"}]}],
            "q": {"q": [["2", "0"], ["2", "0"]]}})
        qd_id = [[["1", "0"]]]
        qd_two = [[["2", "0"]]]
        fclunie = path("clunie.json", {
            "schema": "nevlab-run/1", "q": qj, "grid": "10:1000:3",
            "quad": {"lines": 4, "theta": 32, "seed": 1},
            "w": poly1,
            "U": {"nvars": 1, "terms": [
                {"coeff": one1, "factors": [{"q": qd_id[0], "exponent": 1}]}]},
            "P": {"nvars": 1, "terms": [
                {"coeff": one1, "factors": [{"q": qd_two[0], "exponent": 1}]}]},
            "Q": {"nvars": 1, "terms": [
                {"coeff": one1, "factors": [{"q": qd_id[0], "exponent": 1},
                                            {"q": qd_two[0], "exponent": 1}]}]},
        })
        ftumura = path("tumura.json", {
            "schema": "nevlab-run/1", "q": qj, "grid": "10:10000:5",
            "quad": {"lines": 4, "theta": 32, "seed": 1},
            "f": {"qbase": ["1/2", "0"], "linear": poly1},
            "G": {"nvars": 1, "terms": [
                {"coeff": one1, "factors": [{"q": qd_two[0], "exponent": 1},
                                            {"q": qd_id[0], "exponent": 1}]}]},
        })
        fcomponents = path("comps.json", {"components": [one1, poly1]})
        out = os.path.join(tmp, "out")
        runs = [
            (["nev", "--fn", ffn, "--grid", "10:100:2",
              "--lines", "4", "--theta", "32"], 0),
            (["nev", "--map", fmap, "--grid", "10:100:2",
              "--lines", "4", "--theta", "32"], 0),
            (["casorati", "--map", fmap, "--q", fq], 0),
            (["nondegeneracy", "--map", fmap, "--q", fq], 0),
            (["nondegeneracy", "--map", fmap, "--q", fq, "--alpha", "2"], 0),
            (["filtration", "inspect", "--gammas", fg, "--alpha", "4"], 0),
            (["hilbert", "--gammas", fg], 0),
            (["verify", "cartan", "--config", fcartan, "--out", out], 0),
            (["verify", "hsmt", "--config", fcartan], 0),
            (["verify", "hypersurface", "--config", fhyper], 0),
            (["verify", "gundersen", "--config", fcartan], 0),
            (["verify", "picard", "--config", fpicard], 0),
            (["verify", "clunie", "--config", fclunie], 2),
            (["verify", "tumura", "--config", ftumura], 2),
            (["partition", "--components", fcomponents, "--q", fq], 0),
            (["nev", "--fn", os.path.join(tmp, "missing.json")], 1),
        ]
        for argv, expected in runs:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(argv)
            if code != expected:
                return False, (f"`{' '.join(argv)}` exited {code}, "
                               f"expected {expected}")
        if not os.path.exists(os.path.join(out, "report.json")) or \
                not os.path.exists(os.path.join(out, "rows.csv")):
            return False, "verify --out did not write report.json/rows.csv"
    return True, f"{len(runs)} command invocations exited as expected"


CASES: List[GalleryCase] = [
    GalleryCase("jensen_rational",
                "Jensen identity residual on seeded rational functions",
                "closed-form", _case_jensen),
    GalleryCase("characteristic_slope",
                "characteristic growth slope equals max component degree",
                "closed-form", _case_slope),
    GalleryCase("fmt_stability",
                "first-main-theorem residual constant across radii",
                "closed-form", _case_fmt),
    GalleryCase("ldl_decay",
                "logarithmic-difference ratio matches log2/log r and decays",
                "closed-form", _case_ldl),
    GalleryCase("casorati_vandermonde",
                "Casoratian alternation, multilinearity, power-basis product",
                "oracle", _case_vandermonde),
    GalleryCase("dependence_oracle",
                "nondegeneracy verdicts agree with known dependence",
                "oracle", _case_dependence),
    GalleryCase("filtration_conics",
                "filtration dimensions: totals, guaranteed region, Hilbert",
                "oracle", _case_filtration),
    GalleryCase("filtration_asymptotics",
                "M*alpha/Delta decreases toward d(n+1)",
                "oracle", _case_asymptotics),
    GalleryCase("cartan_smt",
                "Cartan-type inequality margins plus degree-one reduction",
                "cross-check", _case_cartan),
    GalleryCase("gundersen_identity",
                "product/Casoratian counting identity residual constant",
                "closed-form", _case_gundersen),
    GalleryCase("picard_rigidity",
                "forward invariance, ratio partitions, rigidity conclusion",
                "closed-form", _case_picard),
    GalleryCase("shift_counting",
                "rescaled counting ratio near 1 at large radius",
                "closed-form", _case_shift_counting),
    GalleryCase("tumura_controls",
                "zero-ratio harness: controls report-only, diagnostics kept",
                "closed-form", _case_tumura),
    GalleryCase("clunie_cases",
                "factorization harness: control, decay, zero numerator",
                "closed-form", _case_clunie),
    GalleryCase("hypersurface_pipeline",
                "full degree-2, alpha=8 pipeline executes with margins",
                "cross-check", _case_hypersurface),
    GalleryCase("cli_smoke",
                "every CLI command and exit-code contract",
                "cross-check", _case_cli),
]

_BY_NAME = {c.name: c for c in CASES}


def run_all(names: Optional[List[str]] = None):
    """Run the selected (or all) cases, one after another.

    Returns a list of (name, ok, detail, tag) in declaration order.
    """
    if names:
        missing = [n for n in names if n not in _BY_NAME]
        if missing:
            raise UsageError("unknown gallery case(s): " + ", ".join(missing))
        selected = [_BY_NAME[n] for n in names]
    else:
        selected = list(CASES)
    return [(c.name, *c.run(), c.tag) for c in selected]
