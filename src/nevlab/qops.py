"""Rescaling operators z -> qz, q-Casorati determinants, nondegeneracy
tests over the field of q-invariant functions, and the logarithmic
difference / shift counting ratio checks.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import NumericError, SizeError, UsageError
from .funcspace import (CompositionSlice, ProjectiveMap, RationalSlice,
                        SliceFunction, monomials_of_degree)
from .nevcore import (DirectionSet, NevSample, QuadratureSpec, RadialGrid,
                      characteristic_function, counting, directions_for,
                      order_estimate, proximity)
from .polynomials import Polynomial, RationalFunction
from .rationals import GaussianRational
from .slicing import DeterminantLineView, _assignment_scale, _scaled_slogdet


MONOMIAL_CAP = 64

ExactScalar = Union[int, Fraction, GaussianRational]


class QShift:
    """The rescaling q in C^m; entries exact (Gaussian rational) or double."""

    def __init__(self, entries: Sequence, diagonal: Optional[bool] = None):
        self.entries = list(entries)
        if not self.entries:
            raise UsageError("q needs at least one entry")
        self.exact = all(isinstance(e, (int, Fraction, GaussianRational))
                         for e in self.entries)
        if self.exact:
            self.entries = [GaussianRational.from_value(e)
                            for e in self.entries]
            if any(not e for e in self.entries):
                raise UsageError("q entries must be nonzero")
            vals = [e.to_complex() for e in self.entries]
        else:
            vals = [complex(e) for e in self.entries]
            if any(v == 0 for v in vals):
                raise UsageError("q entries must be nonzero")
        self._vals = vals
        is_diag = all(v == vals[0] for v in vals)
        if diagonal is not None and diagonal != is_diag:
            raise UsageError("diagonal flag inconsistent with entries")
        self.diagonal = is_diag
        if all(abs(abs(v) - 1.0) < 1e-12 for v in vals) and \
                any(v != 1 for v in vals):
            warnings.warn("all |q_i| = 1: q may be a root of unity, where "
                          "the q-invariant field degenerates", stacklevel=2)

    @property
    def m(self) -> int:
        return len(self.entries)

    @property
    def value(self) -> complex:
        """The common entry q~ of a diagonal rescaling."""
        if not self.diagonal:
            raise UsageError("q is not diagonal")
        return self._vals[0]

    def powers(self, k: int) -> list:
        if self.exact:
            return [e ** k for e in self.entries]
        return [v ** k for v in self._vals]

    def numeric(self) -> np.ndarray:
        return np.asarray(self._vals, dtype=complex)

    def __repr__(self):
        return f"QShift({self.entries!r})"


def qscale(h: SliceFunction, q: QShift, k: int = 1) -> SliceFunction:
    """h(q^k z)."""
    if q.m != h.nvars:
        raise UsageError("q length must match the variable count")
    if k == 0:
        return h
    return h.scale_q(q.powers(k))


# ---------------------------------------------------------------------------
# determinants
# ---------------------------------------------------------------------------

def _det_rational(mat: List[List[RationalFunction]]) -> RationalFunction:
    n = len(mat)
    nv = mat[0][0].nvars
    if n == 1:
        return mat[0][0]
    if n <= 4:
        # cofactor expansion along the first row
        out = RationalFunction(Polynomial.zero(nv))
        for j in range(n):
            a = mat[0][j]
            if a.is_zero():
                continue
            minor = [[row[c] for c in range(n) if c != j] for row in mat[1:]]
            term = a * _det_rational(minor)
            out = out + (term if j % 2 == 0 else -term)
        return out
    # elimination over the rational-function field (exact)
    m = [row[:] for row in mat]
    det = RationalFunction.constant(1, nv)
    sign = 1
    for col in range(n):
        piv = next((r for r in range(col, n) if not m[r][col].is_zero()), None)
        if piv is None:
            return RationalFunction(Polynomial.zero(nv))
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            sign = -sign
        p = m[col][col]
        det = det * p
        for r in range(col + 1, n):
            if m[r][col].is_zero():
                continue
            factor = m[r][col] / p
            m[r] = [m[r][c] - factor * m[col][c] for c in range(n)]
    return det if sign == 1 else -det


class CasoratiSlice(SliceFunction):
    """Determinant of a matrix of slice functions, log-domain only.

    Only |det| is available along a line (row-scaled slogdet), which is
    what the counting and proximity integrals consume.
    """

    def __init__(self, matrix: Sequence[Sequence[SliceFunction]]):
        self.matrix = [list(r) for r in matrix]
        self.nvars = self.matrix[0][0].nvars

    def line_view(self, xi):
        return DeterminantLineView(
            [[e.line_view(xi) for e in row] for row in self.matrix])

    def _log_matrix(self, z) -> np.ndarray:
        n = len(self.matrix)
        logm = np.empty((n, n), dtype=complex)
        for i, row in enumerate(self.matrix):
            for j, e in enumerate(row):
                logm[i, j] = e.log_value_at(z)
        return logm

    def log_value_at(self, z):
        return complex(_scaled_slogdet(self._log_matrix(z)))

    def scale_q(self, factors):
        return CasoratiSlice(
            [[e.scale_q(factors) for e in row] for row in self.matrix])

    def scaled_sample(self, z) -> float:
        """|det| of the row-normalized matrix at a point (in [0, n^{n/2}])."""
        logm = self._log_matrix(z)
        lv = _scaled_slogdet(logm)
        # magnitude relative to the largest single permutation term
        scale = _assignment_scale(logm)
        return 0.0 if lv.real == float("-inf") else \
            float(np.exp(min(lv.real - scale, 200.0)))


def _shift_matrix(components: Sequence[SliceFunction],
                  q: QShift) -> List[List[SliceFunction]]:
    n = len(components)
    return [[qscale(c, q, k) for c in components] for k in range(n)]


def casorati(components: Sequence[SliceFunction], q: QShift) -> SliceFunction:
    """det[ f_j(q^k z) ]_{k,j}, exact for rational components."""
    comps = list(components)
    if not comps:
        raise UsageError("empty component list")
    if any(c.nvars != comps[0].nvars for c in comps):
        raise UsageError("variable count mismatch")
    mat = _shift_matrix(comps, q)
    if all(c.is_rational() for c in comps) and q.exact:
        return RationalSlice(_det_rational(
            [[e.rf for e in row] for row in mat]))
    return CasoratiSlice(mat)


def monomial_slice(f: ProjectiveMap, exps: Tuple[int, ...]) -> SliceFunction:
    """The monomial f^I = f0^{i0} * ... * fn^{in} as a slice function."""
    if all(c.is_rational() for c in f.components):
        out = RationalFunction.constant(1, f.nvars)
        for c, k in zip(f.components, exps):
            if k:
                out = out * c.rf ** k
        return RationalSlice(out)
    return CompositionSlice([(1.0 + 0j, tuple(exps))], f.components)


class MonomialCasoratiSlice(SliceFunction):
    """Generalized Casoratian on the degree-alpha monomials of a map with
    non-rational components, kept in factored (monomial) form so each line
    only evaluates the component logs once per shift."""

    def __init__(self, f: ProjectiveMap, monos, q: QShift):
        self.f = f
        self.monos = [tuple(e) for e in monos]
        self.q = q
        self.nvars = f.nvars
        self._shifted = [[qscale(c, q, k) for c in f.components]
                         for k in range(len(self.monos))]

    def line_view(self, xi):
        from .slicing import MonomialDeterminantLineView
        rows = [[c.line_view(xi) for c in row] for row in self._shifted]
        return MonomialDeterminantLineView(rows, self.monos)

    def _log_matrix(self, z) -> np.ndarray:
        M = len(self.monos)
        emat = np.asarray(self.monos, dtype=float)
        logm = np.empty((M, M), dtype=complex)
        for k, row in enumerate(self._shifted):
            comp = np.array([c.log_value_at(z) for c in row])
            logm[k, :] = emat @ comp
        return logm

    def log_value_at(self, z):
        return complex(_scaled_slogdet(self._log_matrix(z)))

    def scaled_sample(self, z) -> float:
        logm = self._log_matrix(z)
        lv = _scaled_slogdet(logm)
        scale = _assignment_scale(logm)
        return 0.0 if lv.real == float("-inf") else \
            float(np.exp(min(lv.real - scale, 200.0)))


def casorati_monomials(f: ProjectiveMap, alpha: int, q: QShift,
                       cap: int = MONOMIAL_CAP) -> SliceFunction:
    """Generalized Casoratian on all degree-alpha monomials in the
    components, enumerated in lex order."""
    n1 = f.n + 1
    M = math.comb(alpha + f.n, f.n)
    if M > cap:
        raise SizeError(
            f"monomial Casoratian needs M={M} columns; cap is {cap} "
            f"(lower alpha or raise the cap)")
    monos = monomials_of_degree(n1, alpha)
    if all(c.is_rational() for c in f.components) and q.exact:
        cols = [monomial_slice(f, e) for e in monos]
        return casorati(cols, q)
    return MonomialCasoratiSlice(f, monos, q)


# ---------------------------------------------------------------------------
# nondegeneracy
# ---------------------------------------------------------------------------

@dataclass
class NondegeneracyVerdict:
    nondegenerate: Optional[bool]  # None = inconclusive (likely degenerate)
    method: str                    # "symbolic" or "sampling"
    note: str = ""
    samples: List[float] = field(default_factory=list)

    def __bool__(self):
        return self.nondegenerate is True


def _sample_points(m: int, count: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    pts = rng.standard_normal((count, m)) + 1j * rng.standard_normal((count, m))
    scales = np.exp(rng.uniform(-0.5, 2.0, size=(count, 1)))
    return pts * scales


def decide_nonzero(det: SliceFunction, m: int, seed: int = 7,
                   n_samples: int = 8,
                   threshold: float = 1e-10) -> NondegeneracyVerdict:
    """Is a (monomial) Casoratian not identically zero?  Decided exactly
    for a rational determinant, otherwise by scaled samples at seeded
    points of C^m; all samples below the threshold is inconclusive."""
    if isinstance(det, RationalSlice):
        ok = not det.rf.is_zero()
        return NondegeneracyVerdict(ok, "symbolic",
                                    "determinant computed exactly")
    if not hasattr(det, "scaled_sample"):
        raise UsageError("cannot sample this determinant representation")
    vals = [det.scaled_sample(z) for z in _sample_points(m, n_samples, seed)]
    if any(v > threshold for v in vals):
        return NondegeneracyVerdict(True, "sampling",
                                    f"nonzero at {sum(v > threshold for v in vals)}"
                                    f"/{len(vals)} sample points", vals)
    return NondegeneracyVerdict(
        None, "sampling",
        f"likely degenerate: all {len(vals)} scaled samples below "
        f"{threshold}; not a proof", vals)


def linear_nondegeneracy(f: ProjectiveMap, q: QShift, seed: int = 7,
                         n_samples: int = 8,
                         threshold: float = 1e-10) -> NondegeneracyVerdict:
    """Is f linearly nondegenerate over the q-invariant field?  Decided by
    the Casoratian of the components."""
    return decide_nonzero(casorati(f.components, q), f.nvars, seed,
                          n_samples, threshold)


def algebraic_nondegeneracy(f: ProjectiveMap, alpha: int, q: QShift,
                            seed: int = 7, n_samples: int = 8,
                            threshold: float = 1e-10) -> NondegeneracyVerdict:
    """Degree-alpha analogue via the monomial Casoratian."""
    return decide_nonzero(casorati_monomials(f, alpha, q), f.nvars, seed,
                          n_samples, threshold)


def q_periodic_test(h: SliceFunction, q: QShift) -> bool:
    """Exact membership test h(qz) == h(z) for rational h."""
    if not isinstance(h, RationalSlice):
        raise UsageError("q-periodicity is decided symbolically; supply a "
                         "rational function (numeric sampling is available "
                         "through the nondegeneracy tests)")
    if not q.exact:
        raise UsageError("q-periodicity needs exact q entries")
    rf = h.rf
    sh = rf.scale_vars(q.powers(1))
    return sh.num * rf.den == rf.num * sh.den


# ---------------------------------------------------------------------------
# ratio diagnostics
# ---------------------------------------------------------------------------

@dataclass
class RatioSeries:
    radii: List[float]
    ratios: List[float]
    t_values: List[float]
    order: float
    note: str = ""


def ldl_ratio(h: SliceFunction, q: QShift, grid: RadialGrid,
              quad: QuadratureSpec, allow_general_q: bool = False,
              t_floor: float = 1e-9) -> RatioSeries:
    """m(r, h(qz)/h(z)) / T(r, h) per radius; expected to decay for
    zero-order h under a diagonal rescaling."""
    if not q.diagonal and not allow_general_q:
        raise UsageError("the logarithmic-difference estimate is only "
                         "backed for diagonal q; pass allow_general_q=True "
                         "to run an exploratory, unguaranteed check")
    g = qscale(h, q, 1) / h
    dirs = directions_for(h, quad)
    dirs = dirs.resample_against(
        lambda xi: g.line_view(xi).identically_zero, quad)
    t = characteristic_function(h, grid, quad, dirs)
    if max(s.t_val for s in t) < t_floor:
        raise UsageError("T below floor: the ratio is undefined for "
                         "constant-growth input")
    mg = proximity(g, grid, quad, dirs)
    ratios = [sm.m_val / st.t_val if st.t_val > t_floor else math.inf
              for sm, st in zip(mg, t)]
    note = "exploratory: non-diagonal q" if not q.diagonal else ""
    zeta = order_estimate(t) if len(t) >= 4 else math.nan
    return RatioSeries([s.r for s in t], ratios, [s.t_val for s in t],
                       zeta, note)


def shift_counting_ratio(h: SliceFunction, q: QShift, grid: RadialGrid,
                         quad: QuadratureSpec,
                         use_zeros: bool = False) -> RatioSeries:
    """N(r, h(qz)) / N(r, h) per radius (pole counting; set use_zeros to
    count zeros instead)."""
    hq = qscale(h, q, 1)
    dirs = directions_for(h, quad)
    dirs = dirs.resample_against(
        lambda xi: hq.line_view(xi).identically_zero, quad)
    na = counting(hq, grid, quad, dirs)
    nb = counting(h, grid, quad, dirs)
    pick = (lambda s: s.n_zero) if use_zeros else (lambda s: s.n_pole)
    ratios = []
    for sa, sb in zip(na, nb):
        den = pick(sb)
        ratios.append(pick(sa) / den if den > 0 else math.nan)
    t = characteristic_function(h, grid, quad, dirs)
    note = "" if all(math.isfinite(x) for x in ratios) else \
        "zero denominator at some radii"
    zeta = order_estimate(t) if len(t) >= 4 else math.nan
    return RatioSeries([s.r for s in na], ratios, [s.t_val for s in t],
                       zeta, note)
