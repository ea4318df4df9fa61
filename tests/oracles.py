"""Oracles the tests check nevlab against; nevlab itself never calls them.

Exact line restriction and pointwise complex evaluation of polynomials,
the counting functions of a known divisor, the pairwise test of a
q-periodic polynomial map, q-shifts rebuilt from exactly rescaled parts,
the Fraction-based echelon form that `nevlab.linalg` replaced, the
scalar line restriction, views of a single line, the line-by-line
direction resampling and the determinant log matrices read one shifted
line at a time that line bundles replaced, and JSON
writers for the objects that `nevlab.serialize` reads (only
`polynomial_to_json` stays in nevlab, for the CLI's determinant output).
"""

import collections
import itertools
import math
from fractions import Fraction

import numpy as np

from nevlab.errors import NumericError, UsageError
from nevlab.funcspace import (CompositionSlice, HomogeneousForm,
                              ProductEntireSlice, ProductSlice,
                              ProjectiveMap, QPochhammerSpec, QuotientSlice,
                              RationalSlice, SliceFunction, as_slice)
from nevlab.nevcore import DirectionSet, QuadratureSpec, RadialGrid
from nevlab.polynomials import Polynomial, RationalFunction
from nevlab.qops import MonomialCasoratiSlice, QShift
from nevlab.rationals import GaussianRational
from nevlab.serialize import polynomial_to_json
from nevlab.slicing import _dual_slogdet


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------

def restrict_exact(p: Polynomial, xi) -> Polynomial:
    """Exact substitution z = u * xi; returns a univariate polynomial."""
    xs = [GaussianRational.from_value(x) for x in xi]
    if len(xs) != p.nvars:
        raise UsageError("direction length must equal nvars")
    if not any(xs):
        raise UsageError("zero direction")
    out: dict = {}
    for e, c in p.terms.items():
        k = c
        for x, ei in zip(xs, e):
            if ei:
                k = k * x**ei
        d = (sum(e),)
        out[d] = k if d not in out else out[d] + k
    return Polynomial(1, out)


def eval_complex(p, points) -> np.ndarray:
    """A Polynomial or RationalFunction at points of shape (..., nvars)."""
    if isinstance(p, RationalFunction):
        return eval_complex(p.num, points) / eval_complex(p.den, points)
    points = np.asarray(points, dtype=complex)
    out = np.zeros(points.shape[:-1], dtype=complex)
    for e, c in p.terms.items():
        term = np.full(points.shape[:-1], c.to_complex())
        for i, ei in enumerate(e):
            if ei:
                term = term * points[..., i] ** ei
        out = out + term
    return out


def eval_abs_terms(p: Polynomial, points) -> np.ndarray:
    """sum |c| * |z^e| over the terms of p at points of shape
    (..., nvars): the size of the terms that any floating-point
    evaluation of p there adds up, so its rounding error is at most a
    small multiple of eps times this."""
    points = np.abs(np.asarray(points, dtype=complex))
    out = np.zeros(points.shape[:-1])
    for e, c in p.terms.items():
        term = np.full(points.shape[:-1], abs(c.to_complex()))
        for i, ei in enumerate(e):
            if ei:
                term = term * points[..., i] ** ei
        out = out + term
    return out


def divisor_counts(zeros, poles, radii):
    """(N_zero, N_pole) per radius of a known divisor.  `zeros` and
    `poles` list exact points, each once per unit of multiplicity; a point
    in both cancels first, then N(r) = sum log(r / max(|a|, 1)) over the
    points with |a| <= r."""
    net = collections.Counter(zeros)
    net.subtract(poles)

    def count(sign, r):
        return sum(sign * m * math.log(r / max(abs(a), 1.0))
                   for a, m in net.items() if sign * m > 0 and abs(a) <= r)

    return ([count(1, r) for r in radii], [count(-1, r) for r in radii])


def q_periodic_map(polys, q: QShift) -> bool:
    """f(qz) = f(z) projectively, by cross-multiplying every pair of
    components: f_i(qz) f_j(z) = f_j(qz) f_i(z)."""
    shifted = [p.scale_vars(q.powers(1)) for p in polys]
    return all(shifted[i] * polys[j] == shifted[j] * polys[i]
               for i, j in itertools.combinations(range(len(polys)), 2))


def qshift_numeric(q: QShift) -> np.ndarray:
    """The entries of q in double precision."""
    return np.array([e.to_complex() if isinstance(e, GaussianRational)
                     else complex(e) for e in q.entries])


def qscale_exact(h: SliceFunction, q: QShift, k: int) -> SliceFunction:
    """h(q^k z) for an exact q, rebuilt from exactly rescaled parts: every
    rational function and every q-Pochhammer argument of h is replaced by
    its scale_vars(q.powers(k)).  nevlab rescales only a rational h this
    way; any other h it evaluates on the lines through q^k * xi."""
    f = q.powers(k)
    if isinstance(h, RationalSlice):
        return RationalSlice(h.rf.scale_vars(f))
    if isinstance(h, ProductEntireSlice):
        s = h.spec
        return ProductEntireSlice(
            QPochhammerSpec(s.qbase, s.argument.scale_vars(f)))
    if isinstance(h, ProductSlice):
        return ProductSlice([qscale_exact(p, q, k) for p in h.factors])
    if isinstance(h, QuotientSlice):
        return QuotientSlice(qscale_exact(h.num, q, k),
                             qscale_exact(h.den, q, k))
    return CompositionSlice(h.coeffs,
                            [qscale_exact(c, q, k) for c in h.components])


# ---------------------------------------------------------------------------
# one line at a time: the restriction, views and loops that bundles replaced
# ---------------------------------------------------------------------------

def restrict_scalar(p: Polynomial, xi) -> np.ndarray:
    """Coefficients (ascending degree) of p(u*xi) for one direction, in
    scalar complex arithmetic: the restriction every line took alone."""
    xi = np.asarray(xi, dtype=complex)
    deg = max((sum(e) for e in p.terms), default=0)
    out = np.zeros(deg + 1, dtype=complex)
    for e, c in p.terms.items():
        k = c.to_complex()
        for x, ei in zip(xi, e):
            if ei:
                k *= x**ei
        out[sum(e)] += k
    return out


def rational_logs_per_line(num, den, u):
    """(log_abs, log_values) of num(u)/den(u) from one line's coefficient
    vectors, as the view of a single line evaluated them."""
    pv = np.polynomial.polynomial.polyval
    u = np.asarray(u, dtype=complex)
    nv = pv(u, num)
    with np.errstate(divide="ignore", invalid="ignore"):
        dv = den[0] if len(den) == 1 else pv(u, den)
        log_abs = np.log(np.abs(nv)) - np.log(np.abs(dv))
        dv = pv(u, den)
        log_values = np.log(nv.astype(complex)) - np.log(dv.astype(complex))
    return log_abs, log_values


class OneLine:
    """The view of h on the line through xi alone, with the per-line
    interface that line bundles replaced: scalar identically_zero and
    is_entire, values without the line axis, one (zeros, poles) pair.  It
    reads the bundle of that one line."""

    def __init__(self, h: SliceFunction, xi):
        self.bundle = h.line_view(np.asarray(xi, dtype=complex)[None])
        self.identically_zero = bool(self.bundle.identically_zero[0])
        self.is_entire = bool(self.bundle.is_entire[0])
        self.has_closed_zeros = self.bundle.has_closed_zeros

    def log_values(self, u):
        return self.bundle.log_values(u)[0]

    def log_abs(self, u):
        return self.bundle.log_abs(u)[0]

    def divisor(self, r):
        return self.bundle.divisor(r)[0]


def resample_per_line(dirs: DirectionSet, is_bad, quad: QuadratureSpec):
    """DirectionSet.resample_against with a predicate on one direction,
    asked line by line: the loop that one predicate call on all
    directions replaced."""
    if dirs.directions.shape[1] == 1:
        if is_bad(dirs.directions[0]):
            raise NumericError("the single m=1 slice is degenerate")
        return dirs
    rng = np.random.default_rng(quad.seed + 1)
    out = dirs.directions.copy()
    for i in range(out.shape[0]):
        tries = 0
        while is_bad(out[i]):
            tries += 1
            if tries > quad.resample_limit:
                raise NumericError("could not find a nondegenerate direction")
            out[i] = DirectionSet._draw(rng, 1, out.shape[1])[0]
    return DirectionSet(out, dirs.weights)


def log_matrix_per_view(det, xi, u) -> np.ndarray:
    """The (nodes, M, M) log matrix of a (monomial) Casoratian on the line
    through xi, with one view and one log_values call per component and
    shifted line q^k*xi: the loops that column bundles replaced."""
    flat = np.asarray(u, dtype=complex).ravel()
    M = len(det.monos)
    powers = [det.q.numeric_powers(k) for k in range(M)]
    comp = np.stack([np.stack([OneLine(c, p * xi).log_values(flat)
                               for c in det.components], axis=1)
                     for p in powers])  # comp[k, node, j]
    if not isinstance(det, MonomialCasoratiSlice):
        return comp.transpose(1, 0, 2)
    emat = np.asarray(det.monos, dtype=float)
    fin = np.isfinite(comp.real)
    safe = np.where(fin, comp, 0)
    logm = np.empty((flat.size, M, M), dtype=complex)
    for k in range(M):
        logm[:, k, :] = safe[k] @ emat.T
    if not np.all(fin):
        used = (emat.T > 0).astype(float)
        re = logm.real.transpose(1, 0, 2)
        zero = np.isneginf(comp.real) @ used > 0
        pole = np.isposinf(comp.real) @ used > 0
        re[zero] = -np.inf
        re[pole] = np.inf
        re[zero & pole] = np.nan
    return logm


def scaled_samples_per_point(det, pts) -> np.ndarray:
    """qops.scaled_samples with one log matrix read line by line per
    sample point."""
    logm = np.stack([log_matrix_per_view(det, z, np.ones(1))[0]
                     for z in pts])
    return np.exp(_dual_slogdet(logm)[1])


# ---------------------------------------------------------------------------
# exact elimination
# ---------------------------------------------------------------------------

class FractionEchelon:
    """Sparse echelon form over Gaussian rationals, the reference for
    `nevlab.linalg.SparseEchelon`: each pivot row is scaled to leading
    entry 1, and a row is reduced by subtracting factor * pivot in
    GaussianRational (Fraction) arithmetic."""

    def __init__(self):
        self.pivots: dict = {}

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def reduce(self, row: dict) -> dict:
        """Eliminate existing pivots from a copy of row."""
        row = {c: v for c, v in row.items() if v}
        while row:
            lead = max(row)
            piv = self.pivots.get(lead)
            if piv is None:
                return row
            factor = row[lead]
            for c, v in piv.items():
                s = row.get(c)
                s = -factor * v if s is None else s - factor * v
                if s:
                    row[c] = s
                else:
                    row.pop(c, None)
        return row

    def add(self, row: dict) -> bool:
        """Insert a row; True iff it increased the rank."""
        row = self.reduce(row)
        if not row:
            return False
        lead = max(row)
        inv = row[lead]
        self.pivots[lead] = {c: v / inv for c, v in row.items()}
        return True


# ---------------------------------------------------------------------------
# JSON writers, inverse to the nevlab.serialize readers
# ---------------------------------------------------------------------------

def form_to_json(D: HomogeneousForm) -> dict:
    out = polynomial_to_json(D.to_polynomial())
    out["degree"] = D.degree
    return out


def product_entire_to_json(h: ProductEntireSlice) -> dict:
    s = h.spec
    q = s.qbase
    if isinstance(q, (int, Fraction)):
        qj = [str(Fraction(q)), "0"]
    else:
        qj = [complex(q).real, complex(q).imag]
    return {"qbase": qj, "linear": polynomial_to_json(s.argument)}


def component_to_json(h: SliceFunction) -> dict:
    if isinstance(h, RationalSlice):
        if h.rf.is_polynomial():
            return polynomial_to_json(h.rf.num)
        return {"num": polynomial_to_json(h.rf.num),
                "den": polynomial_to_json(h.rf.den)}
    if isinstance(h, ProductEntireSlice):
        return product_entire_to_json(h)
    if isinstance(h, QuotientSlice):
        return {"quotient": {"num": component_to_json(h.num),
                             "den": component_to_json(h.den)}}
    if isinstance(h, ProductSlice):
        return {"product": [component_to_json(c) for c in h.factors]}
    raise UsageError(f"cannot serialize {type(h).__name__}")


def map_to_json(f: ProjectiveMap) -> dict:
    return {"components": [component_to_json(c) for c in f.components],
            "reduce": False}


def qshift_to_json(q: QShift) -> dict:
    if q.exact:
        pairs = [[str(e.re), str(e.im)] for e in q.entries]
    else:
        pairs = [[v.real, v.imag] for v in qshift_numeric(q)]
    return {"q": pairs, "diagonal": q.diagonal}


def grid_to_json(grid: RadialGrid) -> dict:
    return {"radii": list(grid.radii)}


def quad_to_json(quad: QuadratureSpec) -> dict:
    return {"lines": quad.n_lines, "theta": quad.n_theta,
            "seed": quad.seed, "resample_limit": quad.resample_limit}


def qdiff_to_json(P) -> dict:
    terms = []
    for t in P.terms:
        terms.append({
            "coeff": component_to_json(as_slice(t.coeff, P.nvars)),
            "factors": [{"q": qshift_to_json(qs)["q"], "exponent": e}
                        for qs, e in t.factors]})
    return {"nvars": P.nvars, "terms": terms}
