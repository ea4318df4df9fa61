"""Univariate root extraction with multiplicity recovery.

Roots come from the companion matrix (numpy.roots); nearby roots are
clustered to recover multiplicities, and each cluster center is polished
with Newton iteration on the (k-1)-th derivative, which has a simple zero
at a k-fold root of the original polynomial.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

import numpy as np

from .errors import NumericError, UsageError

_NEWTON_STEPS = 30


@dataclass
class UnivariateRootMultiset:
    """Roots with integer multiplicities."""

    roots: List[Tuple[complex, int]] = field(default_factory=list)

    def total_multiplicity(self) -> int:
        return sum(m for _, m in self.roots)


def _strip(coeffs: np.ndarray) -> Tuple[np.ndarray, int]:
    """Drop trailing (high-degree) zeros and leading zero coefficients;
    return (coeffs ascending, number of roots at the origin)."""
    c = np.asarray(coeffs, dtype=complex)
    if c.ndim != 1:
        raise UsageError("coefficient array must be one-dimensional")
    mag = np.abs(c)
    scale = mag.max() if c.size else 0.0
    if scale == 0.0:
        raise UsageError("zero polynomial has no root multiset")
    keep = np.flatnonzero(mag > 1e-14 * scale)
    lo, hi = int(keep[0]), int(keep[-1])
    return c[lo:hi + 1], lo


def _poly_eval(coeffs: np.ndarray, z: complex) -> complex:
    out = 0j
    for c in coeffs[::-1]:
        out = out * z + c
    return out


def _derivative(coeffs: np.ndarray) -> np.ndarray:
    if len(coeffs) <= 1:
        return np.zeros(1, dtype=complex)
    return coeffs[1:] * np.arange(1, len(coeffs))


def _newton_polish(coeffs: np.ndarray, z: complex) -> complex:
    d = _derivative(coeffs)
    for _ in range(_NEWTON_STEPS):
        fz = _poly_eval(coeffs, z)
        dz = _poly_eval(d, z)
        if dz == 0:
            break
        step = fz / dz
        z = z - step
        if abs(step) <= 1e-15 * (1.0 + abs(z)):
            break
    return z


def univariate_roots(coeffs, tol: float = 1e-8) -> UnivariateRootMultiset:
    """All complex roots of sum(coeffs[k] * u^k) with multiplicities.

    tol is the relative clustering radius: raw companion-matrix roots
    closer than tol * (1 + |center|) are merged into one multiple root.
    """
    c, n0 = _strip(coeffs)
    out = UnivariateRootMultiset()
    if n0:
        out.roots.append((0j, n0))
    if len(c) > 1:
        raw = np.roots(c[::-1])
        raw = sorted(raw, key=lambda z: (z.real, z.imag))
        clusters: List[List[complex]] = []
        for z in raw:
            placed = False
            for cl in clusters:
                center = sum(cl) / len(cl)
                if abs(z - center) <= tol * (1.0 + abs(center)):
                    cl.append(z)
                    placed = True
                    break
            if not placed:
                clusters.append([z])
        for cl in clusters:
            m = len(cl)
            center = sum(cl) / m
            # polish on the (m-1)-th derivative, where the root is simple
            d = c
            for _ in range(m - 1):
                d = _derivative(d)
            out.roots.append((_newton_polish(d, center), m))
        if out.total_multiplicity() != n0 + len(c) - 1:
            raise NumericError("root multiplicities do not sum to the degree")
    out.roots.sort(key=lambda t: (abs(t[0]), t[0].real, t[0].imag))
    return out
