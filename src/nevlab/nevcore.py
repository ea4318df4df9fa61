"""Nevanlinna functionals m, N, T on C^m by line-slice averaging.

Every functional is computed per sampled direction xi from the exact
one-variable theory of h(u*xi) and then averaged with unit-total-mass
weights; for m = 1 the average degenerates to the single slice u -> h(u).
One direction picker, `directions_for`, draws the directions for every
functional and harness, and one weighted line sum, `_line_sum`, averages
the per-line values over them.
All normalizations are taken at base radius 1 (counting integrals start at
1, characteristics subtract their value on the unit sphere), so zeros and
poles inside the unit disk contribute mult * log r.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .errors import NumericError, UsageError
from .funcspace import (ProjectiveMap, RationalSlice, SliceFunction,
                        apply_form)
from .slicing import LineView


@dataclass(frozen=True)
class QuadratureSpec:
    n_lines: int = 64
    n_theta: int = 512
    seed: int = 0
    resample_limit: int = 32

    def __post_init__(self):
        if self.n_theta < 4 or self.n_theta & (self.n_theta - 1):
            raise UsageError("n_theta must be a power of two, at least 4")
        if self.n_lines < 1:
            raise UsageError("n_lines must be positive")


@dataclass(frozen=True)
class RadialGrid:
    radii: Tuple[float, ...]

    def __post_init__(self):
        r = self.radii
        # 1 < r0 < r1 < ... < inf; a NaN fails every comparison
        steps = zip((1.0,) + r, r + (math.inf,))
        if not r or not all(a < b for a, b in steps):
            raise UsageError("radii must be finite, strictly increasing "
                             "and > 1")

    @classmethod
    def log_spaced(cls, r0: float, r1: float, steps: int) -> "RadialGrid":
        return cls(tuple(np.geomspace(r0, r1, steps)))

    @classmethod
    def parse(cls, text: str) -> "RadialGrid":
        """Grid spec "r0:r1:steps[:log|lin]"."""
        parts = text.split(":")
        if len(parts) not in (3, 4):
            raise UsageError('grid spec must be "r0:r1:steps[:log|lin]"')
        mode = parts[3] if len(parts) == 4 else "log"
        if mode not in ("log", "lin"):
            raise UsageError(f"unknown grid mode {mode!r}")
        try:
            r0, r1, steps = float(parts[0]), float(parts[1]), int(parts[2])
            if mode == "log":
                # checked before numpy takes the logs, which would warn
                if not (1 < r0 < math.inf and 1 < r1 < math.inf):
                    raise ValueError("log-spaced ends must be finite and > 1")
                return cls.log_spaced(r0, r1, steps)
            return cls(tuple(np.linspace(r0, r1, steps)))
        except ValueError as exc:
            raise UsageError(f"grid spec {text!r}: {exc}") from None


@dataclass
class NevSample:
    r: float
    m_val: float = 0.0
    n_zero: float = 0.0
    n_pole: float = 0.0
    t_val: float = 0.0
    err: float = 0.0


@dataclass
class DirectionSet:
    """Sampled unit directions on the sphere of C^m with unit total mass."""

    directions: np.ndarray  # (k, m) complex
    weights: np.ndarray     # (k,) real, sums to 1

    @classmethod
    def sample(cls, m: int, quad: QuadratureSpec) -> "DirectionSet":
        if m == 1:
            return cls(np.ones((1, 1), dtype=complex), np.ones(1))
        rng = np.random.default_rng(quad.seed)
        dirs = cls._draw(rng, quad.n_lines, m)
        w = np.full(quad.n_lines, 1.0 / quad.n_lines)
        return cls(dirs, w)

    @staticmethod
    def _draw(rng, k: int, m: int) -> np.ndarray:
        g = rng.standard_normal((k, m)) + 1j * rng.standard_normal((k, m))
        return g / np.linalg.norm(g, axis=1, keepdims=True)

    def resample_against(self, is_bad: Callable[[np.ndarray], bool],
                         quad: QuadratureSpec) -> "DirectionSet":
        """Replace directions on which the predicate fails (measure-zero
        degeneracy sets justify resampling)."""
        if self.directions.shape[1] == 1:
            if is_bad(self.directions[0]):
                raise NumericError("the single m=1 slice is degenerate")
            return self
        rng = np.random.default_rng(quad.seed + 1)
        dirs = self.directions.copy()
        for i in range(dirs.shape[0]):
            tries = 0
            while is_bad(dirs[i]):
                tries += 1
                if tries > quad.resample_limit:
                    raise NumericError(
                        "could not find a nondegenerate direction "
                        f"after {quad.resample_limit} resamples")
                dirs[i] = self._draw(rng, 1, dirs.shape[1])[0]
        return DirectionSet(dirs, self.weights)


# ---------------------------------------------------------------------------
# circle quadrature
# ---------------------------------------------------------------------------

def _nodes(r, n_theta: int, offset: float = 0.0) -> np.ndarray:
    """Quadrature nodes on the circle of radius r; for an array of radii,
    the node tensor of shape r.shape + (n_theta,)."""
    th = (np.arange(n_theta) + offset) * (2 * np.pi / n_theta)
    return np.multiply.outer(r, np.exp(1j * th))


ArrayFn = Callable[[np.ndarray], np.ndarray]


def circle_mean_log(integrand: ArrayFn, radii, n_theta: int,
                    reduce: Optional[ArrayFn] = None
                    ) -> Tuple[np.ndarray, np.ndarray]:
    """Per radius, the circle mean of a log-integrand and its half-node
    error estimate |mean - mean over the even nodes|.

    `integrand` is evaluated once on the node tensor of `radii` (a scalar
    radius gives scalar results); entries that are not finite, where a node
    hits a zero or pole (the singularity is integrable), are replaced by the
    values half a step away.  `reduce` then maps the values to the array
    averaged over its last axis; it runs after the retry, because e.g.
    max(-inf, 0) is finite and would hide a node on a zero.
    """
    vals = integrand(_nodes(radii, n_theta))
    bad = ~np.isfinite(vals)
    if np.any(bad):
        vals = np.where(bad, integrand(_nodes(radii, n_theta, offset=0.5)),
                        vals)
        if not np.all(np.isfinite(vals)):
            raise NumericError("integrand not finite on perturbed nodes")
    if reduce is not None:
        vals = reduce(vals)
    full = np.mean(vals, axis=-1)
    return full, np.abs(full - np.mean(vals[..., ::2], axis=-1))


# ---------------------------------------------------------------------------
# one-variable building blocks
# ---------------------------------------------------------------------------

def _count_from_roots(roots, r: float) -> float:
    """N(r) = sum mult * log(r / max(|a|, 1)) over |a| <= r."""
    out = 0.0
    for a, m in roots:
        aa = abs(a)
        if aa <= r:
            out += m * math.log(r / max(aa, 1.0))
    return out


def _line_counts(view: LineView, radii: Sequence[float],
                 n_theta: int) -> np.ndarray:
    """Rows N_zero, N_pole, err on one line, one column per radius.  A
    closed divisor is asked for once, at the largest radius; Jensen
    counting evaluates the unit circle once for all radii.  This is the
    one place that rejects a view vanishing identically on its line."""
    if view.identically_zero:
        raise UsageError("function vanishes identically on a sampled line")
    if view.has_closed_zeros:
        zeros, poles = view.divisor(max(radii))
        return np.array([(_count_from_roots(zeros, r),
                          _count_from_roots(poles, r), 0.0)
                         for r in radii]).T
    if view.is_entire:
        # one circle per call: on all radii at once a determinant view holds
        # a (nodes, M, M) log matrix, which at M = 28 raised peak memory of
        # a hypersurface op by 11-14%
        i1, e1 = circle_mean_log(view.log_abs, 1.0, n_theta)
        means = [circle_mean_log(view.log_abs, r, n_theta) for r in radii]
        return np.array([(ir - i1, 0.0, er + e1) for ir, er in means]).T
    raise NumericError(
        "line view has neither closed zeros nor entire Jensen counting")


# ---------------------------------------------------------------------------
# sampled lines
# ---------------------------------------------------------------------------

def directions_for(quad: QuadratureSpec, *slices: SliceFunction,
                   f: Optional[ProjectiveMap] = None) -> DirectionSet:
    """One direction set for every slice and the map f, shared by all terms
    so quadrature constants cancel in differences and margins.  A direction
    is resampled where some slice vanishes identically on its line, or
    every component of f does."""
    nvars = f.nvars if f is not None else slices[0].nvars

    def bad(xi):
        return (f is not None and all(c.line_view(xi).identically_zero
                                      for c in f.components)
                or any(h.line_view(xi).identically_zero for h in slices))

    return DirectionSet.sample(nvars, quad).resample_against(bad, quad)


def _line_sum(dirs: DirectionSet, per_line: ArrayFn):
    """sum_k w_k * per_line(xi_k) in direction order, starting from 0.0."""
    total = 0.0
    for xi, w in zip(dirs.directions, dirs.weights):
        total = total + w * per_line(xi)
    return total


def _samples(radii: Sequence[float], **rows) -> List[NevSample]:
    """One NevSample per radius from per-radius rows of field values."""
    return [NevSample(r, **{k: v[i] for k, v in rows.items()})
            for i, r in enumerate(radii)]


# ---------------------------------------------------------------------------
# functionals
# ---------------------------------------------------------------------------

def counting(h: SliceFunction, grid: RadialGrid, quad: QuadratureSpec,
             dirs: Optional[DirectionSet] = None) -> List[NevSample]:
    nz, npole, err = _line_sum(
        dirs or directions_for(quad, h),
        lambda xi: _line_counts(h.line_view(xi), grid.radii, quad.n_theta))
    return _samples(grid.radii, n_zero=nz, n_pole=npole, err=err)


def proximity(h: SliceFunction, grid: RadialGrid, quad: QuadratureSpec,
              dirs: Optional[DirectionSet] = None) -> List[NevSample]:
    def per_line(xi):
        return np.stack(circle_mean_log(
            h.line_view(xi).log_abs, grid.radii, quad.n_theta,
            reduce=lambda a: np.maximum(a, 0.0)))

    mv, err = _line_sum(dirs or directions_for(quad, h), per_line)
    return _samples(grid.radii, m_val=mv, err=err)


def _log_max_norm(f: ProjectiveMap, xi: np.ndarray, radii: Sequence[float],
                  n_theta: int) -> Tuple[np.ndarray, np.ndarray]:
    """Circle means of log max_j |f_j(u xi)| and their errors, at radius 1
    and then at each radius."""
    vs = [c.line_view(xi) for c in f.components]
    if all(v.identically_zero for v in vs):
        raise NumericError("all components vanish on a sampled line")
    if not all(v.is_entire or v.identically_zero for v in vs):
        raise UsageError(
            "characteristic needs holomorphic components; reduce the map")
    vs = [v for v in vs if not v.identically_zero]
    return circle_mean_log(
        lambda u: np.max(np.stack([v.log_abs(u) for v in vs]), axis=0),
        (1.0,) + tuple(radii), n_theta)


def characteristic(f: ProjectiveMap, grid: RadialGrid, quad: QuadratureSpec,
                   dirs: Optional[DirectionSet] = None) -> List[NevSample]:
    """Cartan characteristic T_f(r), normalized to 0 at r = 1."""
    def per_line(xi):
        full, err = _log_max_norm(f, xi, grid.radii, quad.n_theta)
        return np.stack([full[1:] - full[0], err[1:] + err[0]])

    t, err = _line_sum(dirs or directions_for(quad, f=f), per_line)
    return _samples(grid.radii, t_val=t, err=err)


def characteristic_function(h: SliceFunction, grid: RadialGrid,
                            quad: QuadratureSpec,
                            dirs: Optional[DirectionSet] = None
                            ) -> List[NevSample]:
    """T(r, h) = m(r, h) + N(r, h) for a single meromorphic function."""
    dirs = dirs or directions_for(quad, h)
    ms = proximity(h, grid, quad, dirs)
    ns = counting(h, grid, quad, dirs)
    out = []
    for sm, sn in zip(ms, ns):
        out.append(NevSample(sm.r, m_val=sm.m_val, n_zero=sn.n_zero,
                             n_pole=sn.n_pole, t_val=sm.m_val + sn.n_pole,
                             err=sm.err + sn.err))
    return out


def jensen_residual(h: SliceFunction, grid: RadialGrid, quad: QuadratureSpec,
                    dirs: Optional[DirectionSet] = None) -> List[NevSample]:
    """[N(r,1/h) - N(r,h)] - [mean log|h| at r - at 1], per radius.

    The same sampled directions feed both sides, so for rational h the
    residual is pure quadrature error.
    """
    def per_line(xi):
        v = h.line_view(xi)
        if not v.has_closed_zeros:
            raise UsageError("Jensen residual needs certified zero multisets")
        full, err = circle_mean_log(v.log_abs, (1.0,) + tuple(grid.radii),
                                    quad.n_theta)
        nz, npole, _ = _line_counts(v, grid.radii, quad.n_theta)
        return np.stack([(nz - npole) - (full[1:] - full[0]),
                         err[1:] + err[0]])

    mv, err = _line_sum(dirs or directions_for(quad, h), per_line)
    return _samples(grid.radii, m_val=mv, err=err)


def fmt_residual(f: ProjectiveMap, D, grid: RadialGrid,
                 quad: QuadratureSpec) -> List[NevSample]:
    """m_f(r,Q) + N(r, 1/Q(f)) - d*T_f(r); bounded (O(1)), not zero."""
    df = apply_form(D, f)
    if isinstance(df, RationalSlice) and df.rf.is_zero():
        raise UsageError("map lies in the hypersurface")
    d = D.degree

    def per_line(xi):
        lmax, el = _log_max_norm(f, xi, grid.radii, quad.n_theta)
        dv = df.line_view(xi)
        idf, ed = circle_mean_log(dv.log_abs, grid.radii, quad.n_theta)
        nz, _, en = _line_counts(dv, grid.radii, quad.n_theta)
        # m_f(r,Q) = mean log(||f||^d / |D(f)|); T normalized at 1
        mval, tval = d * lmax[1:] - idf, lmax[1:] - lmax[0]
        return np.stack([mval + nz - d * tval,
                         el[1:] + ed + en + d * el[0]])

    mv, err = _line_sum(directions_for(quad, df, f=f), per_line)
    return _samples(grid.radii, m_val=mv, err=err)


def order_estimate(samples: Sequence[NevSample]) -> float:
    """Least-squares slope of log+ T against log r over the top half."""
    pts = [(s.r, s.t_val) for s in samples]
    if len(pts) < 4:
        raise UsageError("order estimate needs at least 4 samples")
    if all(t <= 0 for _, t in pts):
        return 0.0
    top = pts[len(pts) // 2:]
    xs = np.array([math.log(r) for r, _ in top])
    ys = np.array([math.log(max(t, 1.0)) if t > 1 else 0.0 for _, t in top])
    slope = float(np.polyfit(xs, ys, 1)[0])
    return max(slope, 0.0)


def fit_slope(xs: Sequence[float], ys: Sequence[float]) -> float:
    return float(np.polyfit(np.asarray(xs, float), np.asarray(ys, float), 1)[0])
