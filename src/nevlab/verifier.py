"""Theorem-level harnesses.

Each harness evaluates both sides of one of the main inequalities or
identities on a radius grid and reports per-radius margins.  Harnesses are
report-first: a pass/fail verdict is attached only when every hypothesis
has been machine-verified; otherwise the data is emitted without judgment
(the inequalities only hold off exceptional radius sets that a finite grid
cannot certify).  The o(T) error term is operationalized as a trend test:
margin/T must not slope below TREND_FLOOR over the top decade.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .errors import HypothesisFailure, UsageError
from .funcspace import (CompositionSlice, HomogeneousForm, ProjectiveMap,
                        RationalSlice, SliceFunction, apply_form, as_slice,
                        check_general_position, constant_slice,
                        ideal_slice_dim)
from .filtration import filtration_report, lift_to_common_degree
from .nevcore import (NevSample, QuadratureSpec, RadialGrid, _line_sum,
                      characteristic, characteristic_function,
                      circle_mean_log, counting, directions_for, fit_slope,
                      order_estimate, proximity)
from .polynomials import Polynomial, try_divide
from .qops import (T_FLOOR, QShift, casorati, casorati_monomials,
                   decide_nonzero, q_periodic_test, qscale)

ORDER_ZERO_THRESHOLD = 0.3
TREND_FLOOR = -0.05
MARGIN_FLOOR = -0.1
TUMURA_FLOOR = 0.01


@dataclass
class SmtRow:
    r: float
    lhs: float
    rhs: float
    margin: float
    err: float


@dataclass
class SmtReport:
    theorem: str
    rows: List[SmtRow] = field(default_factory=list)
    hypotheses: Dict[str, Tuple[Optional[bool], str]] = field(
        default_factory=dict)
    t_values: List[float] = field(default_factory=list)
    extra: dict = field(default_factory=dict)
    margin_mode: str = "floor"  # "floor" or "bounded" (O(1)-offset margins)

    @property
    def report_only(self) -> bool:
        return any(v is not True for v, _ in self.hypotheses.values())

    def failed_hypotheses(self) -> List[str]:
        return [k for k, (v, _) in self.hypotheses.items() if v is not True]

    def margin_trend(self) -> Tuple[float, bool]:
        """Slope of margin/T over the top decade of radii; ok iff >=
        TREND_FLOOR."""
        if not self.rows:
            return 0.0, True
        rmax = max(row.r for row in self.rows)
        pts = [(math.log(row.r), row.margin / t)
               for row, t in zip(self.rows, self.t_values)
               if row.r >= rmax / 10 and t > T_FLOOR]
        if len(pts) < 2:
            return 0.0, True
        slope = fit_slope([x for x, _ in pts], [y for _, y in pts])
        return slope, slope >= TREND_FLOOR

    def verdict(self) -> Optional[bool]:
        """None in report-only mode; otherwise the inequality check."""
        if self.report_only:
            return None
        if self.margin_mode == "bounded":
            ms = [row.margin for row in self.rows]
            spread = max(ms) - min(ms)
            tol = 0.2 + 10 * max(row.err for row in self.rows)
            return spread <= tol and self.margin_trend()[1]
        ok = all(row.margin >= MARGIN_FLOOR - 10 * row.err
                 for row in self.rows)
        return ok and self.margin_trend()[1]


def _zero_order_hypothesis(t_samples: Sequence[NevSample]) -> Tuple[bool, str]:
    zeta = order_estimate(t_samples) if len(t_samples) >= 4 else 0.0
    ok = zeta < ORDER_ZERO_THRESHOLD
    return ok, f"order estimate {zeta:.3f} (threshold {ORDER_ZERO_THRESHOLD})"


def _smt_setup(rep, f, forms, q, alpha: Optional[int], quad):
    """Record the shared hypotheses: general position, diagonal q, and a
    Casoratian C not identically zero (on the components, or on the
    degree-alpha monomials when alpha is given).  None when C == 0;
    otherwise C, the slices D_j(f) and one direction set for all of them."""
    gp, witness = check_general_position(forms, f.n)
    rep.hypotheses["general_position"] = (
        gp, "" if gp else f"failing subset {witness}")
    rep.hypotheses["diagonal_q"] = (q.diagonal, "")
    if alpha is None:
        C, key = casorati(f.components, q), "linear_nondegeneracy"
    else:
        C, key = casorati_monomials(f, alpha, q), "algebraic_nondegeneracy"
    nd = decide_nonzero(C, f.nvars)
    rep.hypotheses[key] = (nd.nondegenerate, nd.note)
    if nd.nondegenerate is False:
        return None
    comps = [apply_form(g, f) for g in forms]
    return C, comps, directions_for(quad, *comps, C, f=f)


def _characteristic(rep, f, grid, quad, dirs) -> List[NevSample]:
    """T_f(r) on the shared directions, with its zero-order hypothesis."""
    t = characteristic(f, grid, quad, dirs)
    rep.hypotheses["zero_order"] = _zero_order_hypothesis(t)
    rep.t_values = [s.t_val for s in t]
    return t


def _n_sums(comps, degrees, C, grid, quad, dirs):
    """Per radius: sum_j N(r, 1/D_j(f))/d_j, the sum of its errors, and the
    N(r, 1/C(f)) sample."""
    n_forms = [counting(h, grid, quad, dirs) for h in comps]
    n_cas = counting(C, grid, quad, dirs)
    return [(sum(nf[i].n_zero / d for nf, d in zip(n_forms, degrees)),
             sum(nf[i].err for nf in n_forms), nc)
            for i, nc in enumerate(n_cas)]


def _counting_rows(rep, f, forms, setup, grid, quad,
                   coeffs) -> List[List[SmtRow]]:
    """Rows of (p-n-1) T_f(r) <= sum_j N(r, 1/D_j(f))/d_j - c N(r, 1/C(f)),
    one row list per coefficient c."""
    C, comps, dirs = setup
    t = _characteristic(rep, f, grid, quad, dirs)
    sums = _n_sums(comps, [g.degree for g in forms], C, grid, quad, dirs)
    k = len(forms) - f.n - 1

    def row(s, nsum, nerr, nc, c):
        lhs = k * s.t_val
        rhs = nsum - c * nc.n_zero
        return SmtRow(s.r, lhs, rhs, rhs - lhs, s.err + nerr + nc.err)

    return [[row(s, *ns, c) for s, ns in zip(t, sums)] for c in coeffs]


# ---------------------------------------------------------------------------
# Cartan-type second main theorem (hyperplanes)
# ---------------------------------------------------------------------------

def verify_cartan_smt(f: ProjectiveMap, hyperplanes: Sequence[HomogeneousForm],
                      q: QShift, grid: RadialGrid,
                      quad: QuadratureSpec) -> SmtReport:
    """(p-n-1) T_f(r)  <=  sum_j N(r, 1/H_j(f)) - N(r, 1/C(f)) + o(T_f(r))."""
    if any(h.degree != 1 for h in hyperplanes):
        raise UsageError("this harness takes hyperplanes (degree 1)")
    rep = SmtReport("cartan_smt")
    setup = _smt_setup(rep, f, hyperplanes, q, None, quad)
    if setup is not None:
        rep.rows = _counting_rows(rep, f, hyperplanes, setup, grid, quad,
                                  [1.0])[0]
    return rep


# ---------------------------------------------------------------------------
# Weil-function variant
# ---------------------------------------------------------------------------

def _log_norm2(views, u: np.ndarray) -> np.ndarray:
    """log ||f(u xi)||_2 on each line of the component bundles,
    overflow-safe."""
    logs = np.stack([v.log_abs(u) for v in views])
    mx = np.max(logs, axis=0)
    mx = np.where(np.isfinite(mx), mx, 0.0)
    return mx + 0.5 * np.log(np.sum(np.exp(2 * (logs - mx)), axis=0))


def _admissible_subsets(hyperplanes, n: int) -> List[Tuple[int, ...]]:
    """The (n+1)-subsets (all, if fewer) of linearly independent
    hyperplanes, decided by exact rank."""
    size = min(n + 1, len(hyperplanes))
    out = []
    for K in itertools.combinations(range(len(hyperplanes)), size):
        if ideal_slice_dim([hyperplanes[k] for k in K], 1) == len(K):
            out.append(K)
    if not out:
        raise UsageError("no linearly independent hyperplane subset")
    return out


def verify_hsmt_weil(f: ProjectiveMap, hyperplanes: Sequence[HomogeneousForm],
                     q: QShift, grid: RadialGrid,
                     quad: QuadratureSpec) -> SmtReport:
    """Sphere average of the max summed Weil values against
    (n+1) T_f(r) - N(r, 1/C(f))."""
    rep = SmtReport("hsmt_weil", margin_mode="bounded")
    setup = _smt_setup(rep, f, hyperplanes, q, None, quad)
    if setup is None:
        return rep
    C, comps, dirs = setup
    n = f.n
    t = _characteristic(rep, f, grid, quad, dirs)
    n_cas = counting(C, grid, quad, dirs)
    subsets = _admissible_subsets(hyperplanes, n)
    log_na = [math.log(np.linalg.norm(h.coeff_vector()))
              for h in hyperplanes]

    def weil(cviews, hviews, u):
        # (hyperplane, line, radius, theta) Weil values lambda_j
        ln = _log_norm2(cviews, u)
        return np.stack([ln + la - hv.log_abs(u)
                         for la, hv in zip(log_na, hviews)])

    def best(lam):
        return np.max(
            np.stack([np.sum(lam[list(K)], axis=0) for K in subsets]),
            axis=0)

    cviews = [c.line_view(dirs.directions) for c in f.components]
    hviews = [c.line_view(dirs.directions) for c in comps]

    def rows(lines):
        cv, hv = [v[lines] for v in cviews], [v[lines] for v in hviews]
        return circle_mean_log(lambda u: weil(cv, hv, u), grid.radii,
                               quad.n_theta, reduce=best)[0]

    lhs_vals = _line_sum(dirs, rows)
    for s, nc, lhs in zip(t, n_cas, lhs_vals):
        rhs = (n + 1) * s.t_val - nc.n_zero
        rep.rows.append(SmtRow(s.r, lhs, rhs, rhs - lhs, s.err + nc.err))
    return rep


# ---------------------------------------------------------------------------
# hypersurface second main theorem
# ---------------------------------------------------------------------------

def verify_hypersurface_smt(f: ProjectiveMap,
                            forms: Sequence[HomogeneousForm], q: QShift,
                            alpha: int, grid: RadialGrid,
                            quad: QuadratureSpec) -> SmtReport:
    """(p-n-1) T_f(r) <= sum_j N(r, 1/D_j(f))/d_j
                          - coeff * N(r, 1/C~(f)) + o(T_f(r)),
    with coeff taken as the exact 1/Delta from the filtration (the stated
    asymptotic coefficient (n+1)!/alpha^{n+1} is reported for comparison).
    """
    rep = SmtReport("hypersurface_smt")
    n = f.n
    d = math.lcm(*[g.degree for g in forms])
    rep.hypotheses["alpha_divisible"] = (
        alpha % d == 0, f"alpha={alpha}, lcm(d_j)={d}")
    setup = _smt_setup(rep, f, forms, q, alpha, quad)
    if setup is None:
        return rep
    filt = filtration_report(lift_to_common_degree(list(forms[:n])), alpha)
    coeff_exact = 1.0 / filt.delta
    coeff_asym = math.factorial(n + 1) / alpha ** (n + 1)
    rep.extra.update(filtration=filt, coeff_exact=coeff_exact,
                     coeff_asymptotic=coeff_asym)
    rep.rows, rep.extra["asymptotic_rows"] = _counting_rows(
        rep, f, forms, setup, grid, quad, [coeff_exact, coeff_asym])
    return rep


# ---------------------------------------------------------------------------
# Gundersen-Hayman identity
# ---------------------------------------------------------------------------

def gundersen_hayman_identity(f: ProjectiveMap,
                              hyperplanes: Sequence[HomogeneousForm],
                              q: QShift, grid: RadialGrid,
                              quad: QuadratureSpec) -> List[NevSample]:
    """Residual of
    N(r,1/L) - N(r,L) = sum_j N(r,1/H_j(f)) - N(r,1/C(f)) + O(1)
    with L = prod_j H_j(f) / C(f); expected constant within tolerance."""
    C = casorati(f.components, q)
    if isinstance(C, RationalSlice) and C.rf.is_zero():
        raise UsageError("Casoratian identically zero")
    comps = [apply_form(h, f) for h in hyperplanes]
    L: SliceFunction = constant_slice(1, f.nvars)
    for c in comps:
        L = L * c
    L = L / C
    dirs = directions_for(quad, *comps, C, f=f)
    nl = counting(L, grid, quad, dirs)
    # L is the plain product, so each H_j(f) counts once whatever its degree
    sums = _n_sums(comps, [1] * len(comps), C, grid, quad, dirs)
    return [NevSample(r, m_val=s.n_zero - s.n_pole - (nsum - nc.n_zero),
                      err=s.err + nerr + nc.err)
            for r, s, (nsum, nerr, nc) in zip(grid.radii, nl, sums)]


# ---------------------------------------------------------------------------
# forward invariance, partitions, Picard
# ---------------------------------------------------------------------------

def forward_invariance_check(g: Polynomial, q: QShift) -> bool:
    """Does the zero multiset of g satisfy tau(Z) inside Z for tau(z)=qz,
    i.e. does g divide g(qz)?"""
    if g.is_zero():
        raise UsageError("zero polynomial")
    if not q.exact:
        raise UsageError("forward invariance is decided exactly; supply "
                         "exact q entries")
    return try_divide(g.scale_vars(q.powers(1)), g) is not None


@dataclass
class PartitionResult:
    classes: List[List[int]]
    witnesses: Dict[Tuple[int, int], str]
    l: int


def partition_by_q_ratio(components: Sequence[SliceFunction],
                         q: QShift) -> PartitionResult:
    """Partition indices so i ~ j iff f_i/f_j is invariant under z -> qz."""
    comps = list(components)
    if not all(isinstance(c, RationalSlice) for c in comps):
        raise UsageError("the partition test is symbolic; components must "
                         "be rational")
    if any(c.rf.is_zero() for c in comps):
        # 0 / f_j is q-invariant for every f_j, so a zero would join classes
        raise UsageError("the partition needs nonzero components")
    k = len(comps)
    parent = list(range(k))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    witnesses: Dict[Tuple[int, int], str] = {}
    for i in range(k):
        for j in range(i + 1, k):
            ratio = comps[i].rf / comps[j].rf
            if q_periodic_test(RationalSlice(ratio), q):
                witnesses[(i, j)] = repr(ratio)
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[ri] = rj
    groups: Dict[int, List[int]] = {}
    for i in range(k):
        groups.setdefault(find(i), []).append(i)
    classes = sorted(groups.values())
    return PartitionResult(classes, witnesses, len(classes))


@dataclass
class PicardReport:
    invariant: List[bool]
    failed: List[int]
    p: int
    n: int
    theorem_applies: bool            # p > n+1 with all preimages invariant
    q_periodic_map: Optional[bool]   # f(qz) == f(z) projectively
    dimension_bound: Optional[int]   # floor(n / (p - n)) when p >= n+2
    partition: Optional[PartitionResult]


def picard_check(f: ProjectiveMap, hyperplanes: Sequence[HomogeneousForm],
                 q: QShift) -> PicardReport:
    """Forward invariance of every H_j(f) preimage, and — when enough
    hyperplanes are invariant — the rigidity conclusion f(qz) = f(z)."""
    n = f.n
    p = len(hyperplanes)
    gp, witness = check_general_position(hyperplanes, n)
    if not gp:
        raise HypothesisFailure(f"hyperplanes not in general position "
                                f"(subset {witness})")
    if not f.is_polynomial():
        raise UsageError("this check needs a polynomial reduced map")
    inv = []
    for h in hyperplanes:
        g = apply_form(h, f).rf
        inv.append(forward_invariance_check(g.num, q))
    failed = [j for j, ok in enumerate(inv) if not ok]
    applies = (not failed) and p > n + 1
    periodic = None
    bound = None
    part = None
    if applies:
        bound = n // (p - n)
        part = partition_by_q_ratio(f.components, q)
        periodic = part.l == 1
    return PicardReport(inv, failed, p, n, applies, periodic, bound, part)


# ---------------------------------------------------------------------------
# q-difference polynomials (Clunie / Tumura-Clunie)
# ---------------------------------------------------------------------------

@dataclass
class QDiffTerm:
    coeff: object                       # scalar, Polynomial, RationalFunction
    factors: List[Tuple[QShift, int]]   # (rescaling, exponent) of w(q_s z)^e

    def total_degree(self) -> int:
        return sum(e for _, e in self.factors)


@dataclass
class QDiffPolynomial:
    terms: List[QDiffTerm]
    nvars: int

    def total_degree(self) -> int:
        return max((t.total_degree() for t in self.terms), default=0)

    def max_degree_terms(self) -> List[QDiffTerm]:
        d = self.total_degree()
        return [t for t in self.terms if t.total_degree() == d]

    def all_diagonal(self) -> bool:
        return all(qs.diagonal for t in self.terms for qs, _ in t.factors)


def compose_qdiff(P: QDiffPolynomial, w: SliceFunction) -> SliceFunction:
    """The function z -> P(z, w) as a slice function."""
    if P.nvars != w.nvars:
        raise UsageError("variable count mismatch")
    if not P.terms:
        return constant_slice(0, w.nvars)
    term_slices = []
    for t in P.terms:
        s = as_slice(t.coeff, w.nvars)
        for qs, e in t.factors:
            shifted = qscale(w, qs, 1)
            for _ in range(e):
                s = s * shifted
        term_slices.append(s)
    if len(term_slices) == 1:
        return term_slices[0]
    if all(s.is_rational() for s in term_slices):
        out = term_slices[0].rf
        for s in term_slices[1:]:
            out = out + s.rf
        return RationalSlice(out)
    # sum of non-rational terms: stitch through a composition slice
    coeffs = []
    k = len(term_slices)
    for i in range(k):
        e = [0] * k
        e[i] = 1
        coeffs.append((1.0 + 0j, tuple(e)))
    return CompositionSlice(coeffs, term_slices)


@dataclass
class ClunieReport:
    ratios: List[float]
    radii: List[float]
    t_values: List[float]
    structure_ok: bool
    notes: List[str]
    identity_ok: bool

    @property
    def report_only(self) -> bool:
        return not (self.structure_ok and self.identity_ok)


def _identity_holds(U, P, Q, w) -> Tuple[bool, str]:
    up = compose_qdiff(U, w) * compose_qdiff(P, w)
    qq = compose_qdiff(Q, w)
    if up.is_rational() and qq.is_rational():
        ok = up.rf == qq.rf
        return ok, "symbolic identity check"
    rng = np.random.default_rng(11)
    pts = rng.standard_normal((8, w.nvars)) + \
        1j * rng.standard_normal((8, w.nvars))
    worst = 0.0
    # a point is the node u = 1 on the line through it
    one = np.ones(1)
    logs = zip(up.line_view(pts).log_values(one)[:, 0],
               qq.line_view(pts).log_values(one)[:, 0])
    for a, b in logs:
        scale = max(a.real, b.real, 0.0)
        worst = max(worst, abs(np.exp(a - scale) - np.exp(b - scale)))
    return worst <= 1e-9, f"residual identity check, worst {worst:.2e}"


def clunie_check(U: QDiffPolynomial, P: QDiffPolynomial, Q: QDiffPolynomial,
                 w: SliceFunction, q: QShift, grid: RadialGrid,
                 quad: QuadratureSpec) -> ClunieReport:
    """Under U(z,w) P(z,w) = Q(z,w) with deg Q <= deg U = n and a single
    maximal-degree term in U, the proximity of P(.,w) is small against
    T_w; the ratio series is reported either way."""
    notes = []
    identity_ok, note = _identity_holds(U, P, Q, w)
    notes.append(note)
    if not identity_ok:
        raise UsageError("the factorization identity U*P = Q fails: " + note)
    structure_ok = True
    if Q.total_degree() > U.total_degree():
        structure_ok = False
        notes.append(f"deg Q = {Q.total_degree()} exceeds deg U = "
                     f"{U.total_degree()}")
    if len(U.max_degree_terms()) != 1:
        structure_ok = False
        notes.append("U has more than one maximal-degree term")
    for qd in (U, P, Q):
        if not qd.all_diagonal():
            structure_ok = False
            notes.append("non-diagonal rescaling in a factor")
            break
    pw = compose_qdiff(P, w)
    pw_zero = _is_zero_slice(pw)
    dirs = directions_for(quad, w, *([] if pw_zero else [pw]))
    t = characteristic_function(w, grid, quad, dirs)
    if pw_zero:
        ratios = [0.0] * len(grid.radii)
    else:
        mp = proximity(pw, grid, quad, dirs)
        ratios = [sm.m_val / st.t_val if st.t_val > T_FLOOR else math.inf
                  for sm, st in zip(mp, t)]
    return ClunieReport(ratios, list(grid.radii), [s.t_val for s in t],
                        structure_ok, notes, identity_ok)


def _is_zero_slice(s: SliceFunction) -> bool:
    return isinstance(s, RationalSlice) and s.rf.is_zero()


@dataclass
class TumuraReport:
    radii: List[float]
    ratios: List[float]          # N(r, 1/G(., f)) / T_f(r)
    hypothesis_ratios: List[float]
    hypothesis_ok: bool
    t_values: List[float]
    floor: float
    notes: List[str]

    @property
    def report_only(self) -> bool:
        return not self.hypothesis_ok

    def floor_holds(self) -> Optional[bool]:
        if self.report_only:
            return None
        tail = self.ratios[-max(2, len(self.ratios) // 4):]
        return min(tail) >= self.floor


def tumura_clunie_ratio(G: QDiffPolynomial, f: SliceFunction,
                        grid: RadialGrid,
                        quad: QuadratureSpec) -> TumuraReport:
    """Ratio N(r, 1/G(., f)) / T_f(r), predicted to stay away from 0 when
    N(r, 1/f) + N(r, f) = o(T_f(r)).  The hypothesis is tested as a decay
    trend on the grid; when it fails the report carries no verdict."""
    notes = []
    gf = compose_qdiff(G, f)
    if _is_zero_slice(gf):
        raise UsageError("G(., f) is identically zero")
    dirs = directions_for(quad, f, gf)
    t = characteristic_function(f, grid, quad, dirs)
    nf = counting(f, grid, quad, dirs)
    hyp = [(s.n_zero + s.n_pole) / st.t_val if st.t_val > T_FLOOR else math.inf
           for s, st in zip(nf, t)]
    rmax = grid.radii[-1]
    top = [(math.log(r), h) for r, h in zip(grid.radii, hyp)
           if r >= rmax / 10 and math.isfinite(h)]
    hyp_ok = False
    if len(top) >= 2:
        slope = fit_slope([x for x, _ in top], [y for _, y in top])
        hyp_ok = slope < -1e-4 and top[-1][1] < 0.5
        notes.append(f"hypothesis trend slope {slope:.4f}, "
                     f"final ratio {top[-1][1]:.4f}")
    else:
        notes.append("grid too small for a hypothesis trend")
    ng = counting(gf, grid, quad, dirs)
    ratios = [s.n_zero / st.t_val if st.t_val > T_FLOOR else math.inf
              for s, st in zip(ng, t)]
    return TumuraReport(list(grid.radii), ratios, hyp, hyp_ok,
                        [s.t_val for s in t], TUMURA_FLOOR, notes)
