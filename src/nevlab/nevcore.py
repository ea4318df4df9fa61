"""Nevanlinna functionals m, N, T on C^m by line-slice averaging.

Every functional is computed from the exact one-variable theory of
h(u*xi) on each sampled direction xi and then averaged with
unit-total-mass weights; for m = 1 the average degenerates to the single
slice u -> h(u).  One direction picker, `directions_for`, draws the
directions for every functional and harness.  Each slice is restricted to
all of them in one call, a line bundle (`SliceFunction.line_view`), and one
weighted line sum, `_line_sum`, evaluates the bundle one line per call and
averages the per-line values in direction order.
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
        # numpy's generator rejects a negative seed with a traceback
        if self.seed < 0:
            raise UsageError("seed must be nonnegative")
        if self.resample_limit < 0:
            raise UsageError("resample_limit must be nonnegative")


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

    def resample_against(self, is_bad: Callable[[np.ndarray], np.ndarray],
                         quad: QuadratureSpec) -> "DirectionSet":
        """Replace directions on which the predicate fails (measure-zero
        degeneracy sets justify resampling).  is_bad maps a (K, m) array of
        directions to K booleans; it is asked once for all directions, then
        once per replacement, drawn line by line in direction order."""
        if self.directions.shape[1] == 1:
            if is_bad(self.directions)[0]:
                raise NumericError("the single m=1 slice is degenerate")
            return self
        rng = np.random.default_rng(quad.seed + 1)
        dirs = self.directions.copy()
        for i in np.flatnonzero(is_bad(dirs)):
            for _ in range(quad.resample_limit):
                dirs[i] = self._draw(rng, 1, dirs.shape[1])[0]
                if not is_bad(dirs[i:i + 1])[0]:
                    break
            else:
                raise NumericError(
                    "could not find a nondegenerate direction "
                    f"after {quad.resample_limit} resamples")
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

    `integrand` is evaluated once on the node tensor of `radii`, shape
    radii.shape + (n_theta,), and may add leading axes (a bundle's lines),
    which the results keep; entries that are not finite, where a node
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
    """Rows N_zero, N_pole, err of each line of the bundle view, one column
    per radius: shape (K, 3, R).  A closed divisor is asked for once, at
    the largest radius; Jensen counting evaluates one line and one circle
    per call, the unit circle once per line.  This is the one place that
    rejects a view vanishing identically on one of its lines."""
    if np.any(view.identically_zero):
        raise UsageError("function vanishes identically on a sampled line")
    if view.has_closed_zeros:
        return np.array([[(_count_from_roots(zeros, r),
                           _count_from_roots(poles, r), 0.0) for r in radii]
                         for zeros, poles in view.divisor(max(radii))]
                        ).transpose(0, 2, 1)
    if np.all(view.is_entire):
        # one line and one circle per call: a determinant view holds a
        # (nodes, M, M) log matrix per line, and on all radii at once it
        # raised peak memory of a hypersurface op at M = 28 by 11-14%
        rows = []
        for k in range(len(view)):
            line = view[k:k + 1]
            i1, e1 = circle_mean_log(line.log_abs, 1.0, n_theta)
            means = [circle_mean_log(line.log_abs, r, n_theta)
                     for r in radii]
            rows.append([(ir[0] - i1[0], 0.0, er[0] + e1[0])
                         for ir, er in means])
        return np.array(rows).transpose(0, 2, 1)
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

    def bad(lines):
        out = np.zeros(len(lines), dtype=bool)
        if f is not None:
            out |= np.all([c.line_view(lines).identically_zero
                           for c in f.components], axis=0)
        for h in slices:
            out |= h.line_view(lines).identically_zero
        return out

    return DirectionSet.sample(nvars, quad).resample_against(bad, quad)


def _line_sum(dirs: DirectionSet, rows: Callable[[slice], np.ndarray]):
    """sum_k w_k * row_k in direction order, starting from 0.0.  rows(lines)
    returns the rows of the directions dirs.directions[lines], stacked on a
    leading axis; it is called one line at a time, which bounds the line x
    node entries a functional holds to those of one line."""
    total = 0.0
    for k, w in enumerate(dirs.weights):
        total = total + w * rows(slice(k, k + 1))[0]
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
    dirs = dirs or directions_for(quad, h)
    counts = _line_counts(h.line_view(dirs.directions), grid.radii,
                          quad.n_theta)
    nz, npole, err = _line_sum(dirs, lambda lines: counts[lines])
    return _samples(grid.radii, n_zero=nz, n_pole=npole, err=err)


def proximity(h: SliceFunction, grid: RadialGrid, quad: QuadratureSpec,
              dirs: Optional[DirectionSet] = None) -> List[NevSample]:
    dirs = dirs or directions_for(quad, h)
    view = h.line_view(dirs.directions)

    def rows(lines):
        return np.stack(circle_mean_log(
            view[lines].log_abs, grid.radii, quad.n_theta,
            reduce=lambda a: np.maximum(a, 0.0)), axis=1)

    mv, err = _line_sum(dirs, rows)
    return _samples(grid.radii, m_val=mv, err=err)


def _log_max_norm(views: Sequence[LineView], radii: Sequence[float],
                  n_theta: int) -> Tuple[np.ndarray, np.ndarray]:
    """Circle means of log max_j |f_j(u xi)| and their errors on each line
    of the component bundles `views`, at radius 1 and then at each radius:
    shape (K, 1 + R).  A component that vanishes on a line drops out of
    that line's max."""
    zero = np.array([v.identically_zero for v in views])
    if np.any(np.all(zero, axis=0)):
        raise NumericError("all components vanish on a sampled line")
    if not all(np.all(v.is_entire | z) for v, z in zip(views, zero)):
        raise UsageError(
            "characteristic needs holomorphic components; reduce the map")
    live = [j for j, z in enumerate(zero) if not z.all()]

    def max_log(u):
        logs = np.stack([views[j].log_abs(u) for j in live])
        logs[zero[live]] = -np.inf
        return np.max(logs, axis=0)

    return circle_mean_log(max_log, (1.0,) + tuple(radii), n_theta)


def characteristic(f: ProjectiveMap, grid: RadialGrid, quad: QuadratureSpec,
                   dirs: Optional[DirectionSet] = None) -> List[NevSample]:
    """Cartan characteristic T_f(r), normalized to 0 at r = 1."""
    dirs = dirs or directions_for(quad, f=f)
    views = [c.line_view(dirs.directions) for c in f.components]

    def rows(lines):
        full, err = _log_max_norm([v[lines] for v in views], grid.radii,
                                  quad.n_theta)
        return np.stack([full[:, 1:] - full[:, :1],
                         err[:, 1:] + err[:, :1]], axis=1)

    t, err = _line_sum(dirs, rows)
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
    dirs = dirs or directions_for(quad, h)
    view = h.line_view(dirs.directions)
    if not view.has_closed_zeros:
        raise UsageError("Jensen residual needs certified zero multisets")

    def rows(lines):
        line = view[lines]
        full, err = circle_mean_log(line.log_abs, (1.0,) + tuple(grid.radii),
                                    quad.n_theta)
        counts = _line_counts(line, grid.radii, quad.n_theta)
        nz, npole = counts[:, 0], counts[:, 1]
        return np.stack([(nz - npole) - (full[:, 1:] - full[:, :1]),
                         err[:, 1:] + err[:, :1]], axis=1)

    mv, err = _line_sum(dirs, rows)
    return _samples(grid.radii, m_val=mv, err=err)


def fmt_residual(f: ProjectiveMap, D, grid: RadialGrid,
                 quad: QuadratureSpec) -> List[NevSample]:
    """m_f(r,Q) + N(r, 1/Q(f)) - d*T_f(r); bounded (O(1)), not zero."""
    df = apply_form(D, f)
    if isinstance(df, RationalSlice) and df.rf.is_zero():
        raise UsageError("map lies in the hypersurface")
    d = D.degree
    dirs = directions_for(quad, df, f=f)
    views = [c.line_view(dirs.directions) for c in f.components]
    dview = df.line_view(dirs.directions)

    def rows(lines):
        # per line, the components are checked holomorphic before D(f)
        # is counted
        lmax, el = _log_max_norm([v[lines] for v in views], grid.radii,
                                 quad.n_theta)
        dline = dview[lines]
        idf, ed = circle_mean_log(dline.log_abs, grid.radii, quad.n_theta)
        counts = _line_counts(dline, grid.radii, quad.n_theta)
        nz, en = counts[:, 0], counts[:, 2]
        # m_f(r,Q) = mean log(||f||^d / |D(f)|); T normalized at 1
        mval, tval = d * lmax[:, 1:] - idf, lmax[:, 1:] - lmax[:, :1]
        return np.stack([mval + nz - d * tval,
                         el[:, 1:] + ed + en + d * el[:, :1]], axis=1)

    mv, err = _line_sum(dirs, rows)
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
