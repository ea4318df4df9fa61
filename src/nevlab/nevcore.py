"""Nevanlinna functionals m, N, T on C^m by line-slice averaging.

Every functional is computed per sampled direction xi from the exact
one-variable theory of h(u*xi) and then averaged with unit-total-mass
weights; for m = 1 the average degenerates to the single slice u -> h(u).
All normalizations are taken at base radius 1 (counting integrals start at
1, characteristics subtract their value on the unit sphere), so zeros and
poles inside the unit disk contribute mult * log r.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .errors import NumericError, UsageError
from .funcspace import ProjectiveMap, SliceFunction, apply_form
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
        if not r or any(b <= a for a, b in zip(r, r[1:])) or r[0] <= 1.0:
            raise UsageError("radii must be strictly increasing and > 1")

    @classmethod
    def log_spaced(cls, r0: float, r1: float, steps: int) -> "RadialGrid":
        return cls(tuple(np.geomspace(r0, r1, steps)))

    @classmethod
    def parse(cls, text: str) -> "RadialGrid":
        """Grid spec "r0:r1:steps[:log|lin]"."""
        parts = text.split(":")
        if len(parts) not in (3, 4):
            raise UsageError('grid spec must be "r0:r1:steps[:log|lin]"')
        r0, r1, steps = float(parts[0]), float(parts[1]), int(parts[2])
        mode = parts[3] if len(parts) == 4 else "log"
        if mode == "log":
            return cls.log_spaced(r0, r1, steps)
        if mode == "lin":
            return cls(tuple(np.linspace(r0, r1, steps)))
        raise UsageError(f"unknown grid mode {mode!r}")


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


def _finite_mean(vals: np.ndarray, view: LineView, r: float,
                 n_theta: int) -> float:
    """Mean of log-integrand values; nodes that hit a zero/pole exactly are
    re-evaluated half a step away (the singularity is integrable)."""
    bad = ~np.isfinite(vals)
    if np.any(bad):
        shifted = view.log_abs(_nodes(r, n_theta, offset=0.5))
        vals = np.where(bad, shifted, vals)
        bad = ~np.isfinite(vals)
        if np.any(bad):
            raise NumericError("integrand not finite on perturbed nodes")
    return float(np.mean(vals))


def circle_mean_log(view: LineView, r: float, n_theta: int) -> Tuple[float, float]:
    """(mean of log|h| on the circle of radius r, half-node error estimate)."""
    vals = view.log_abs(_nodes(r, n_theta))
    full = _finite_mean(vals, view, r, n_theta)
    half_vals = vals[::2]
    if np.all(np.isfinite(half_vals)):
        half = float(np.mean(half_vals))
    else:
        half = _finite_mean(half_vals, view, r, n_theta // 2)
    return full, abs(full - half)


def circle_mean_logplus(view: LineView, r: float,
                        n_theta: int) -> Tuple[float, float]:
    vals = view.log_abs(_nodes(r, n_theta))
    vals = np.where(np.isfinite(vals), vals, view.log_abs(
        _nodes(r, n_theta, offset=0.5)))
    if not np.all(np.isfinite(vals)):
        raise NumericError("integrand not finite on perturbed nodes")
    vp = np.maximum(vals, 0.0)
    full = float(np.mean(vp))
    half = float(np.mean(vp[::2]))
    return full, abs(full - half)


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
                 n_theta: int) -> List[Tuple[float, float, float]]:
    """(N_zero, N_pole, err) on one line at each radius; Jensen counting
    evaluates the unit circle once for all radii."""
    if view.identically_zero:
        raise UsageError("function vanishes identically on a sampled line")
    if view.has_closed_zeros:
        return [(_count_from_roots(view.zeros(r), r),
                 _count_from_roots(view.poles(r), r), 0.0) for r in radii]
    if view.is_entire:
        i1, e1 = circle_mean_log(view, 1.0, n_theta)
        out = []
        for r in radii:
            ir, er = circle_mean_log(view, r, n_theta)
            out.append((ir - i1, 0.0, er + e1))
        return out
    raise NumericError(
        "line view has neither closed zeros nor entire Jensen counting")


# ---------------------------------------------------------------------------
# functionals
# ---------------------------------------------------------------------------

def directions_for(h: SliceFunction, quad: QuadratureSpec) -> DirectionSet:
    base = DirectionSet.sample(h.nvars, quad)
    return base.resample_against(
        lambda xi: h.line_view(xi).identically_zero, quad)


def counting(h: SliceFunction, grid: RadialGrid, quad: QuadratureSpec,
             dirs: Optional[DirectionSet] = None) -> List[NevSample]:
    if dirs is None:
        dirs = directions_for(h, quad)
    views = [h.line_view(xi) for xi in dirs.directions]
    out = [NevSample(r) for r in grid.radii]
    for v, w in zip(views, dirs.weights):
        counts = _line_counts(v, grid.radii, quad.n_theta)
        for s, (nz, npole, err) in zip(out, counts):
            s.n_zero += w * nz
            s.n_pole += w * npole
            s.err += w * err
    return out


def proximity(h: SliceFunction, grid: RadialGrid, quad: QuadratureSpec,
              dirs: Optional[DirectionSet] = None) -> List[NevSample]:
    if dirs is None:
        dirs = directions_for(h, quad)
    views = [h.line_view(xi) for xi in dirs.directions]
    out = [NevSample(r) for r in grid.radii]
    for v, w in zip(views, dirs.weights):
        for s in out:
            mv, err = circle_mean_logplus(v, s.r, quad.n_theta)
            s.m_val += w * mv
            s.err += w * err
    return out


def _map_views(f: ProjectiveMap, dirs: DirectionSet) -> List[List[LineView]]:
    views = []
    for xi in dirs.directions:
        vs = [c.line_view(xi) for c in f.components]
        if all(v.identically_zero for v in vs):
            raise NumericError("all components vanish on a sampled line")
        if not all(v.is_entire or v.identically_zero for v in vs):
            raise UsageError(
                "characteristic needs holomorphic components; reduce the map")
        views.append(vs)
    return views


def _max_log(vs: Sequence[LineView], u: np.ndarray) -> np.ndarray:
    stack = np.stack([v.log_abs(u) for v in vs if not v.identically_zero])
    return np.max(stack, axis=0)


def _sphere_max_mean(vs, radii: Sequence[float],
                     n_theta: int) -> Tuple[np.ndarray, np.ndarray]:
    """Per radius, the circle mean of max_j log|f_j| and its half-node
    error estimate, from one evaluation of each view on the node tensor."""
    vals = _max_log(vs, _nodes(radii, n_theta))
    if not np.all(np.isfinite(vals)):
        vals2 = _max_log(vs, _nodes(radii, n_theta, offset=0.5))
        vals = np.where(np.isfinite(vals), vals, vals2)
        if not np.all(np.isfinite(vals)):
            raise NumericError("max-log integrand not finite")
    full = np.mean(vals, axis=-1)
    half = np.mean(vals[:, ::2], axis=-1)
    return full, np.abs(full - half)


def map_directions(f: ProjectiveMap, quad: QuadratureSpec) -> DirectionSet:
    base = DirectionSet.sample(f.nvars, quad)

    def bad(xi):
        vs = [c.line_view(xi) for c in f.components]
        return all(v.identically_zero for v in vs)

    return base.resample_against(bad, quad)


def characteristic(f: ProjectiveMap, grid: RadialGrid, quad: QuadratureSpec,
                   dirs: Optional[DirectionSet] = None) -> List[NevSample]:
    """Cartan characteristic T_f(r), normalized to 0 at r = 1."""
    if dirs is None:
        dirs = map_directions(f, quad)
    views = _map_views(f, dirs)
    out = [NevSample(r) for r in grid.radii]
    radii = (1.0,) + tuple(grid.radii)
    for vs, w in zip(views, dirs.weights):
        full, err = _sphere_max_mean(vs, radii, quad.n_theta)
        for s, tr, er in zip(out, full[1:], err[1:]):
            s.t_val += w * (tr - full[0])
            s.err += w * (er + err[0])
    return out


def characteristic_function(h: SliceFunction, grid: RadialGrid,
                            quad: QuadratureSpec,
                            dirs: Optional[DirectionSet] = None
                            ) -> List[NevSample]:
    """T(r, h) = m(r, h) + N(r, h) for a single meromorphic function."""
    if dirs is None:
        dirs = directions_for(h, quad)
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
    if dirs is None:
        dirs = directions_for(h, quad)
    views = [h.line_view(xi) for xi in dirs.directions]
    out = [NevSample(r) for r in grid.radii]
    for v, w in zip(views, dirs.weights):
        if not v.has_closed_zeros:
            raise UsageError("Jensen residual needs certified zero multisets")
        i1, e1 = circle_mean_log(v, 1.0, quad.n_theta)
        for s in out:
            nz = _count_from_roots(v.zeros(s.r), s.r)
            npole = _count_from_roots(v.poles(s.r), s.r)
            ir, er = circle_mean_log(v, s.r, quad.n_theta)
            s.m_val += w * ((nz - npole) - (ir - i1))
            s.err += w * (er + e1)
    return out


def fmt_residual(f: ProjectiveMap, D, grid: RadialGrid, quad: QuadratureSpec,
                 dirs: Optional[DirectionSet] = None) -> List[NevSample]:
    """m_f(r,Q) + N(r, 1/Q(f)) - d*T_f(r); bounded (O(1)), not zero."""
    df = apply_form(D, f)
    from .funcspace import RationalSlice
    if isinstance(df, RationalSlice) and df.rf.is_zero():
        raise UsageError("map lies in the hypersurface")
    if dirs is None:
        dirs = map_directions(f, quad)
    dirs = dirs.resample_against(
        lambda xi: df.line_view(xi).identically_zero, quad)
    views = _map_views(f, dirs)
    dviews = [df.line_view(xi) for xi in dirs.directions]
    d = D.degree
    out = [NevSample(r) for r in grid.radii]
    radii = (1.0,) + tuple(grid.radii)
    for vs, dv, w in zip(views, dviews, dirs.weights):
        lmax, el = _sphere_max_mean(vs, radii, quad.n_theta)
        counts = _line_counts(dv, grid.radii, quad.n_theta)
        for i, (s, (nz, _, en)) in enumerate(zip(out, counts), 1):
            idf, ed = circle_mean_log(dv, s.r, quad.n_theta)
            # m_f(r,Q) = mean log(||f||^d / |D(f)|); T normalized at 1
            mval = d * lmax[i] - idf
            tval = lmax[i] - lmax[0]
            s.m_val += w * (mval + nz - d * tval)
            s.err += w * (el[i] + ed + en + d * el[0])
    return out


def weil_value(f: ProjectiveMap, H, z) -> float:
    """log(||f(z)|| ||a|| / |H(f)(z)|), nonnegative; inf on the hyperplane."""
    if H.degree != 1:
        raise UsageError("Weil values are defined here for hyperplanes")
    z = np.asarray(z, dtype=complex)
    vals = np.array([np.exp(c.log_value_at(z)) for c in f.components])
    a = H.coeff_vector()
    inner = complex(np.dot(a, vals))
    nf = float(np.linalg.norm(vals))
    na = float(np.linalg.norm(a))
    if inner == 0:
        return math.inf
    return math.log(nf * na / abs(inner))


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
