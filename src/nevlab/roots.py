"""Univariate root extraction with multiplicity recovery.

Roots come from the companion matrix, with the eigenvalues of every
polynomial of one degree taken in one stacked call (bitwise numpy.roots of
each); nearby roots are clustered to recover multiplicities, and each
cluster center is polished with Newton iteration on the (k-1)-th
derivative, which has a simple zero at a k-fold root of the original
polynomial.
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


def _strip(rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """For each coefficient row (ascending) of a two-dimensional array, the
    first and the last index whose magnitude exceeds 1e-14 times the row's
    largest: row[lo:hi + 1] is the row without its negligible top and
    bottom coefficients, and lo is its number of roots at the origin."""
    c = np.asarray(rows, dtype=complex)
    if c.ndim != 2:
        raise UsageError("coefficient rows must form a two-dimensional array")
    mag = np.abs(c)
    scale = mag.max(axis=1, initial=0.0)
    if not np.all(scale):
        raise UsageError("zero polynomial has no root multiset")
    keep = mag > 1e-14 * scale[:, None]
    lo = np.argmax(keep, axis=1)
    hi = c.shape[1] - 1 - np.argmax(keep[:, ::-1], axis=1)
    return lo, hi


def _companion_roots(rows: List[np.ndarray]) -> List[np.ndarray]:
    """numpy.roots of each stripped row (ascending, both ends nonzero),
    with the companion matrices of rows of one length stacked into one
    eigvals call."""
    out: List[np.ndarray] = [np.zeros(0, dtype=complex)] * len(rows)
    by_length = {}
    for i, c in enumerate(rows):
        if len(c) > 1:
            by_length.setdefault(len(c), []).append(i)
    for n, idx in by_length.items():
        p = np.array([rows[i][::-1] for i in idx])  # highest degree first
        comp = np.zeros((len(idx), n - 1, n - 1), dtype=complex)
        comp[:, np.arange(1, n - 1), np.arange(n - 2)] = 1
        comp[:, 0, :] = -p[:, 1:] / p[:, :1]
        for i, raw in zip(idx, np.linalg.eigvals(comp)):
            out[i] = raw
    return out


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


def univariate_roots(rows, tol: float = 1e-8) -> List[UnivariateRootMultiset]:
    """All complex roots of sum(c[k] * u^k) with multiplicities, for each
    coefficient row c of the two-dimensional array `rows`.

    tol is the relative clustering radius: raw companion-matrix roots
    closer than tol * (1 + |center|) are merged into one multiple root.
    """
    lo, hi = _strip(rows)
    stripped = [c[a:b + 1] for c, a, b in zip(np.asarray(rows, dtype=complex),
                                               lo.tolist(), hi.tolist())]
    found = []
    for c, n0, raw in zip(stripped, lo.tolist(), _companion_roots(stripped)):
        out = UnivariateRootMultiset()
        if n0:
            out.roots.append((0j, n0))
        if len(c) > 1:
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
                raise NumericError(
                    "root multiplicities do not sum to the degree")
        out.roots.sort(key=lambda t: (abs(t[0]), t[0].real, t[0].imag))
        found.append(out)
    return found
