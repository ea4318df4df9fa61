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
from .funcspace import (ProjectiveMap, RationalSlice,
                        SliceFunction, monomials_of_degree)
from .nevcore import (QuadratureSpec, RadialGrid, characteristic_function,
                      counting, directions_for, order_estimate, proximity)
from .polynomials import Polynomial, RationalFunction, try_divide
from .rationals import GaussianRational
from .slicing import (DeterminantLineView, MonomialDeterminantLineView,
                      _dual_slogdet)


MONOMIAL_CAP = 64
N_SAMPLES = 8             # seeded points a sampled Casoratian is tried at
SAMPLE_THRESHOLD = 1e-10  # scaled |det| below this counts as zero
T_FLOOR = 1e-9            # T below this leaves the ldl ratio undefined

ExactScalar = Union[int, Fraction, GaussianRational]


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
        else:
            vals = [complex(e) for e in self.entries]
            if any(v == 0 for v in vals):
                raise UsageError("q entries must be nonzero")
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
        if self.exact:
            return [e ** k for e in self.entries]
        return [v ** k for v in self._vals]

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
    """Determinant of a matrix of slice functions, log-domain only.

    Only |det| is available along a line (dual-scaled slogdet), which is
    what the counting and proximity integrals consume.
    """

    def __init__(self, matrix: Sequence[Sequence[SliceFunction]]):
        self.matrix = [list(r) for r in matrix]
        self.nvars = self.matrix[0][0].nvars

    def line_view(self, xi):
        return DeterminantLineView(
            [[e.line_view(xi) for e in row] for row in self.matrix])

    def scale_q(self, factors):
        return CasoratiSlice(
            [[e.scale_q(factors) for e in row] for row in self.matrix])


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


def monomial_slice(f: ProjectiveMap, exps: Tuple[int, ...]) -> RationalSlice:
    """The monomial f^I = f0^{i0} * ... * fn^{in} of a map with rational
    components."""
    out = RationalFunction.constant(1, f.nvars)
    for c, k in zip(f.components, exps):
        if k:
            out = out * c.rf ** k
    return RationalSlice(out)


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
        rows = [[c.line_view(xi) for c in row] for row in self._shifted]
        return MonomialDeterminantLineView(rows, self.monos)


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


def scaled_samples(det: SliceFunction, pts: np.ndarray) -> np.ndarray:
    """|det| at each point z of pts, relative to the largest single
    permutation term of its matrix (in [0, n^{n/2}]): a scale-free
    magnitude for deciding whether a sampled Casoratian vanishes there.
    Each point is the node u = 1 on the line through it, so every point
    builds its own log matrix; the matrices are scaled in one stacked
    call."""
    logm = np.stack([det.line_view(z).log_matrix(np.ones(1))[0]
                     for z in pts])
    return np.exp(_dual_slogdet(logm)[1])


def decide_nonzero(det: SliceFunction, m: int,
                   seed: int = 7) -> NondegeneracyVerdict:
    """Is a (monomial) Casoratian not identically zero?  Decided exactly
    for a rational determinant, otherwise by scaled samples at seeded
    points of C^m; all samples below the threshold is inconclusive."""
    if isinstance(det, RationalSlice):
        ok = not det.rf.is_zero()
        return NondegeneracyVerdict(ok, "symbolic",
                                    "determinant computed exactly")
    if not isinstance(det, (CasoratiSlice, MonomialCasoratiSlice)):
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
