"""Rescaling operators z -> qz, q-Casorati determinants, nondegeneracy
tests over the field of q-invariant functions, and the logarithmic
difference / shift counting ratio checks.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from typing import List, Optional, Sequence

import numpy as np

from .errors import NumericError, SizeError, UsageError
from .funcspace import (ProjectiveMap, RationalSlice, ShiftedSlice,
                        SliceFunction, monomial_term, monomials_of_degree)
from .nevcore import (QuadratureSpec, RadialGrid, characteristic_function,
                      counting, directions_for, order_estimate, proximity)
from .polynomials import Polynomial, RationalFunction, try_divide
from .rationals import GaussianRational
from .slicing import (DeterminantLineView, MonomialDeterminantLineView,
                      _dual_slogdet, _entry_logs, _monomial_log_matrix)


MONOMIAL_CAP = 64
N_SAMPLES = 8             # seeded points a sampled Casoratian is tried at
SAMPLE_THRESHOLD = 1e-10  # scaled |det| below this counts as zero
T_FLOOR = 1e-9            # T below this leaves the ldl ratio undefined


class QShift:
    """The rescaling q in C^m; entries exact (Gaussian rational) or double."""

    def __init__(self, entries: Sequence):
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
            self._rationals = self.entries
        else:
            vals = [complex(e) for e in self.entries]
            if any(v == 0 for v in vals):
                raise UsageError("q entries must be nonzero")
            # a double is a Gaussian rational: rescale by its exact value
            self._rationals = [GaussianRational.from_value(v) for v in vals]
        self._vals = vals
        self.diagonal = all(v == vals[0] for v in vals)
        if all(abs(abs(v) - 1.0) < 1e-12 for v in vals) and \
                any(v != 1 for v in vals):
            warnings.warn("all |q_i| = 1: q may be a root of unity, where "
                          "the q-invariant field degenerates", stacklevel=2)

    @property
    def m(self) -> int:
        return len(self.entries)

    def powers(self, k: int) -> list:
        """q^k entrywise and exact; a double entry counts as its exact
        value."""
        return [e ** k for e in self._rationals]

    def numeric_powers(self, k: int) -> np.ndarray:
        """q^k entrywise in double precision."""
        return np.array([v ** k for v in self._vals])

    def __repr__(self):
        return f"QShift({self.entries!r})"


def qscale(h: SliceFunction, q: QShift, k: int = 1) -> SliceFunction:
    """h(q^k z).  A rational h is rescaled exactly, under any q; any other h
    is a change of line, h on the lines through q^k*xi.  h itself serves
    k = 0 and a rational constant, so that every shift of a constant shares
    one view cache."""
    if q.m != h.nvars:
        raise UsageError("q length must match the variable count")
    if k == 0 or (h.is_rational() and h.constant):
        return h
    if h.is_rational():
        return RationalSlice(h.rf.scale_vars(q.powers(k)))
    return ShiftedSlice(h, q.numeric_powers(k))


# ---------------------------------------------------------------------------
# determinants
# ---------------------------------------------------------------------------

def _det_rational(mat: List[List[RationalFunction]]) -> RationalFunction:
    """Exact determinant: each row is scaled by a common multiple of its
    denominators, then fraction-free (Bareiss 1968) elimination runs over
    the polynomial ring, where each division by the last pivot is exact."""
    n = len(mat)
    nv = mat[0][0].nvars
    one = Polynomial.constant(1, nv)
    a, scale = [], one
    for row in mat:
        mult = one
        for e in row:
            if try_divide(mult, e.den) is None:
                mult = mult * e.den
        a.append([e.num * try_divide(mult, e.den) for e in row])
        scale = scale * mult
    sign, prev = 1, one
    for k in range(n - 1):
        piv = next((r for r in range(k, n) if not a[r][k].is_zero()), None)
        if piv is None:
            return RationalFunction(Polynomial.zero(nv))
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                q = try_divide(a[k][k] * a[i][j] - a[i][k] * a[k][j], prev)
                if q is None:
                    raise NumericError("inexact Bareiss division")
                a[i][j] = q
        prev = a[k][k]
    det = a[n - 1][n - 1]
    return RationalFunction(det if sign == 1 else -det, scale)


class CasoratiSlice(SliceFunction):
    """det[ f_j(q^k z) ]_{k,j} of non-rational components or under an
    inexact q, log-domain only: row k of its view restricts the components
    to the line through q^k*xi.

    Only |det| is available along a line (dual-scaled slogdet), which is
    what the counting and proximity integrals consume.
    """

    def __init__(self, components: Sequence[SliceFunction], q: QShift):
        self.components = list(components)
        self.q = q
        self.nvars = self.components[0].nvars
        # the Casoratian is the monomial one on the degree-1 monomials
        n1 = len(self.components)
        self.monos = [tuple(int(i == j) for i in range(n1))
                      for j in range(n1)]

    def _rows(self, points) -> List[List]:
        """The component views on the lines through q^k*z, k < M, for each
        point z of points: M rows per point, point by point."""
        powers = [self.q.numeric_powers(k) for k in range(len(self.monos))]
        return [[c.line_view(p * z) for c in self.components]
                for z in np.asarray(points, dtype=complex) for p in powers]

    def line_view(self, xi):
        return DeterminantLineView(self._rows([xi]))


def casorati(components: Sequence[SliceFunction], q: QShift) -> SliceFunction:
    """det[ f_j(q^k z) ]_{k,j}, exact for rational components."""
    comps = list(components)
    if not comps:
        raise UsageError("empty component list")
    if any(c.nvars != comps[0].nvars for c in comps):
        raise UsageError("variable count mismatch")
    if all(c.is_rational() for c in comps) and q.exact:
        return RationalSlice(_det_rational(
            [[qscale(c, q, k).rf for c in comps] for k in range(len(comps))]))
    return CasoratiSlice(comps, q)


class MonomialCasoratiSlice(CasoratiSlice):
    """Generalized Casoratian on the degree-alpha monomials of a map with
    non-rational components (or under an inexact q), kept in factored
    (monomial) form so each line only evaluates the component logs once
    per shift."""

    def __init__(self, f: ProjectiveMap, monos, q: QShift):
        super().__init__(f.components, q)
        self.monos = [tuple(e) for e in monos]

    def line_view(self, xi):
        return MonomialDeterminantLineView(self._rows([xi]), self.monos)


def casorati_monomials(f: ProjectiveMap, alpha: int,
                       q: QShift) -> SliceFunction:
    """Generalized Casoratian on all degree-alpha monomials in the
    components, enumerated in lex order."""
    n1 = f.n + 1
    M = math.comb(alpha + f.n, f.n)
    if M > MONOMIAL_CAP:
        raise SizeError(
            f"monomial Casoratian needs M={M} columns; cap is "
            f"{MONOMIAL_CAP} (lower alpha)")
    monos = monomials_of_degree(n1, alpha)
    if all(c.is_rational() for c in f.components) and q.exact:
        cols = [RationalSlice(monomial_term(1, f, e)) for e in monos]
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


def scaled_samples(det: CasoratiSlice, pts: np.ndarray) -> np.ndarray:
    """|det| at each point z of pts, relative to the largest single
    permutation term of its matrix (in [0, n^{n/2}]): a scale-free
    magnitude for deciding whether a sampled Casoratian vanishes there.
    Each point is the node u = 1 on the line through it, and row k of its
    matrix the node u = 1 on the line through q^k*z.  These M lines per
    point are the rows of one tall log matrix, so each component is
    evaluated over all of them at once; the matrices are scaled in one
    stacked call."""
    M = len(det.monos)
    logm = _monomial_log_matrix(_entry_logs(det._rows(pts), np.ones(1)),
                                det.monos)
    return np.exp(_dual_slogdet(logm.reshape(len(pts), M, M))[1])


def decide_nonzero(det: SliceFunction, m: int,
                   seed: int = 7) -> NondegeneracyVerdict:
    """Is a (monomial) Casoratian not identically zero?  Decided exactly
    for a rational determinant, otherwise by scaled samples at seeded
    points of C^m; all samples below the threshold is inconclusive."""
    if isinstance(det, RationalSlice):
        ok = not det.rf.is_zero()
        return NondegeneracyVerdict(ok, "symbolic",
                                    "determinant computed exactly")
    if not isinstance(det, CasoratiSlice):
        raise UsageError("cannot sample this determinant representation")
    vals = scaled_samples(det, _sample_points(m, N_SAMPLES, seed)).tolist()
    nonzero = sum(v > SAMPLE_THRESHOLD for v in vals)
    if nonzero:
        return NondegeneracyVerdict(True, "sampling", f"nonzero at {nonzero}"
                                    f"/{len(vals)} sample points", vals)
    return NondegeneracyVerdict(
        None, "sampling",
        f"likely degenerate: all {len(vals)} scaled samples below "
        f"{SAMPLE_THRESHOLD}; not a proof", vals)


def linear_nondegeneracy(f: ProjectiveMap, q: QShift,
                         seed: int = 7) -> NondegeneracyVerdict:
    """Is f linearly nondegenerate over the q-invariant field?  Decided by
    the Casoratian of the components."""
    return decide_nonzero(casorati(f.components, q), f.nvars, seed)


def algebraic_nondegeneracy(f: ProjectiveMap, alpha: int, q: QShift,
                            seed: int = 7) -> NondegeneracyVerdict:
    """Degree-alpha analogue via the monomial Casoratian."""
    return decide_nonzero(casorati_monomials(f, alpha, q), f.nvars, seed)


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
              quad: QuadratureSpec) -> RatioSeries:
    """m(r, h(qz)/h(z)) / T(r, h) per radius; expected to decay for
    zero-order h under a diagonal rescaling."""
    if not q.diagonal:
        raise UsageError("the logarithmic-difference estimate is only "
                         "backed for diagonal q")
    g = qscale(h, q, 1) / h
    dirs = directions_for(quad, h, g)
    t = characteristic_function(h, grid, quad, dirs)
    if max(s.t_val for s in t) < T_FLOOR:
        raise UsageError("T below floor: the ratio is undefined for "
                         "constant-growth input")
    mg = proximity(g, grid, quad, dirs)
    ratios = [sm.m_val / st.t_val if st.t_val > T_FLOOR else math.inf
              for sm, st in zip(mg, t)]
    zeta = order_estimate(t) if len(t) >= 4 else math.nan
    return RatioSeries([s.r for s in t], ratios, [s.t_val for s in t], zeta)


def shift_counting_ratio(h: SliceFunction, q: QShift, grid: RadialGrid,
                         quad: QuadratureSpec) -> RatioSeries:
    """N(r, h(qz)) / N(r, h) per radius, counting poles."""
    hq = qscale(h, q, 1)
    dirs = directions_for(quad, h, hq)
    na = counting(hq, grid, quad, dirs)
    nb = counting(h, grid, quad, dirs)
    ratios = [sa.n_pole / sb.n_pole if sb.n_pole > 0 else math.nan
              for sa, sb in zip(na, nb)]
    t = characteristic_function(h, grid, quad, dirs)
    note = "" if all(math.isfinite(x) for x in ratios) else \
        "zero denominator at some radii"
    zeta = order_estimate(t) if len(t) >= 4 else math.nan
    return RatioSeries([s.r for s in na], ratios, [s.t_val for s in t],
                       zeta, note)
