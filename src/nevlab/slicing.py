"""One-variable views of functions restricted to a complex line.

A LineView represents u -> h(u*xi) for a fixed direction xi.  Views are
evaluated in the log domain, so that high-degree compositions never
overflow:

- log_abs(u) is the real log|h| at the nodes u.  It is the path every
  functional reads (T_f, N, m and the Weil sums all need only |h|), and
  each view computes it without a complex log.
- log_values(u) is the complex log of h: its real part is log|h| and its
  imaginary part an argument of h defined only mod 2*pi.  Only form
  components and determinant entries need it, because there the phases of
  several terms are summed.

A view whose variant knows its divisor in closed form (has_closed_zeros)
answers divisor(r): its zeros and poles in |u| <= r with multiplicities,
after cancellation, as one pair of lists.  Products and quotients cancel
their parts' divisors once per call, and the counting functional asks each
line once, for its largest radius.  Entire views without closed zeros
(form compositions and determinants) are still countable downstream
through the Jensen integral.

A determinant's entries come from one function on many lines: a Casoratian
row k reads the components on the line through q^k*xi.  Each column is
evaluated as one family of lines (_family_log_values): the K Pochhammer
views of a component are one PochhammerLineView holding arrays (a_k, b_k),
evaluated in one _pochhammer_log call whose rows are bitwise the lines
alone, and a constant's one shared view is evaluated once.  Both
determinant views and the sampled nondegeneracy test read their log
matrices through this path; divisors and counting stay per line.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import math
import os
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .errors import NumericError, UsageError
from .roots import _strip, univariate_roots

RootList = List[Tuple[complex, int]]

_MATCH_TOL = 1e-9
# q-Pochhammer products keep their terms until |ell| * |q|^k < this tail
POCHHAMMER_TAIL = 1e-15


class LineView:
    identically_zero = False
    is_entire = True
    has_closed_zeros = True

    def log_values(self, u: np.ndarray) -> np.ndarray:
        """Complex log of h at the nodes u: the real part is log|h|, the
        imaginary part is defined only mod 2*pi.  For form components and
        determinant entries; magnitudes are read through log_abs."""
        raise NotImplementedError

    def log_abs(self, u: np.ndarray) -> np.ndarray:
        """log|h| at the nodes u, the path every functional reads.  This
        fallback serves views whose magnitude needs the phases of their
        parts (forms) or that compute only a magnitude (determinants)."""
        return self.log_values(u).real

    def divisor(self, r: float) -> Tuple[RootList, RootList]:
        """(zeros, poles) in |u| <= r with multiplicities, after
        cancellation; points outside r may be listed too.  The lists may be
        the view's own cache: callers do not change them."""
        raise UsageError("line view has no closed-form divisor")


def _cancel(zeros: RootList, poles: RootList) -> Tuple[RootList, RootList]:
    """Remove common points (restriction may create removable factors).
    Neither argument is changed."""
    if not zeros or not poles:
        return zeros, poles
    zs = [list(t) for t in zeros]
    kept = []
    for p, pm in poles:
        for z in zs:
            if pm <= 0:
                break
            if z[1] > 0 and abs(z[0] - p) <= _MATCH_TOL * (1.0 + abs(p)):
                k = min(z[1], pm)
                z[1] -= k
                pm -= k
        if pm > 0:
            kept.append((p, pm))
    return [(a, m) for a, m in zs if m > 0], kept


class ConstantLineView(LineView):
    def __init__(self, value: complex):
        self.value = complex(value)
        self.identically_zero = (self.value == 0)

    def log_values(self, u):
        u = np.asarray(u)
        with np.errstate(divide="ignore"):
            return np.full(u.shape, np.log(complex(self.value))
                           if self.value else complex("-inf"))

    def log_abs(self, u):
        with np.errstate(divide="ignore"):
            return np.full(np.shape(u), np.log(np.abs(self.value)))

    def divisor(self, r):
        return [], []


class RationalLineView(LineView):
    """num(u)/den(u) with double-precision coefficients (ascending)."""

    def __init__(self, num: np.ndarray, den: np.ndarray):
        self.num = np.asarray(num, dtype=complex)
        self.den = np.asarray(den, dtype=complex)
        if not np.any(self.den):
            raise UsageError("denominator vanishes identically on the line")
        self.identically_zero = not np.any(self.num)
        # entire when the denominator has degree 0 under the cut of _strip
        kept, low = _strip(self.den)
        self.is_entire = low + len(kept) == 1
        self._cache = None

    def log_values(self, u):
        u = np.asarray(u, dtype=complex)
        nv = np.polynomial.polynomial.polyval(u, self.num)
        dv = np.polynomial.polynomial.polyval(u, self.den)
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.log(nv.astype(complex)) - np.log(dv.astype(complex))

    def log_abs(self, u):
        u = np.asarray(u, dtype=complex)
        nv = np.polynomial.polynomial.polyval(u, self.num)
        # a constant denominator (every polynomial) costs one scalar log
        dv = self.den[0] if len(self.den) == 1 \
            else np.polynomial.polynomial.polyval(u, self.den)
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.log(np.abs(nv)) - np.log(np.abs(dv))

    def divisor(self, r):
        """Every root of num and den, found once: r is not read."""
        if self._cache is None:
            self._cache = _cancel(univariate_roots(self.num).roots,
                                  univariate_roots(self.den).roots)
        return self._cache


# at most this many factors share one log, and a chunk's product is kept
# below 10**_CHUNK_LOG10 in magnitude
_CHUNK = 16
_CHUNK_LOG10 = 250.0
# chunks per block: bounds the term axis of one pass
_BLOCK = 32
# factor entries (terms x nodes) one pass holds at most: splitting the nodes
# bounds memory without changing any node's result
_PASS = 2 ** 15
_TINY = np.finfo(float).tiny


def _nterms(qbase: complex, lmax: float) -> int:
    """Terms k kept in prod_k (1 - l*qbase^k): until |l| * |q|^k is below
    POCHHAMMER_TAIL."""
    if lmax <= 0:
        return 1
    tail = POCHHAMMER_TAIL
    k = math.log(tail / max(lmax, tail)) / math.log(abs(qbase))
    return max(1, int(math.ceil(k)) + 1)


def _chunk_starts(q: complex, lmax: float, n: int) -> List[int]:
    """The first term of each chunk.  Every factor of a chunk starting at
    term k has magnitude at most 1 + lmax * |q|^k, which sets the chunk
    length so that its product cannot overflow."""
    starts = []
    k = 0
    while k < n:
        starts.append(k)
        grow = math.log10(1.0 + lmax * abs(q) ** k)
        k += _CHUNK if grow * _CHUNK <= _CHUNK_LOG10 \
            else max(1, int(_CHUNK_LOG10 / grow))
    return starts


def _pochhammer_log(qbase, ell, phase: bool = True) -> np.ndarray:
    """sum_{k < n} log(1 - ell * qbase^k) for an array ell whose leading
    axis is a family of lines, with n = _nterms(max |ell|) on each line
    (row); with phase=False only its real part, log|prod|, skipping the
    angle pass.

    Consecutive factors are multiplied in chunks that take one log each
    (_chunk_starts).  Rows whose chunks all have full length share one
    pass, in which the factors past a row's own term count are exactly 1,
    so every row is bitwise its result alone; any other row takes a pass
    of its own.  The chunk logs are summed in chunk order, which does not
    depend on how many nodes share the pass.  The real part is log|prod|;
    the imaginary part is defined only mod 2*pi.  A zero factor gives a
    -inf real part, and so does a chunk whose product falls below the
    normal double range, which needs one factor below ~1e-250 (for
    |q| <= 0.9999): the node lies on a zero to double precision.
    """
    q = complex(qbase)
    ell = np.asarray(ell, dtype=complex)
    rows = ell.reshape(len(ell), -1)
    lmax = np.max(np.abs(rows), axis=1, initial=0.0).tolist()
    nterms = np.array([_nterms(q, m) for m in lmax])
    full = [math.log10(1.0 + m) * _CHUNK <= _CHUNK_LOG10 for m in lmax]
    groups = [[r for r, f in enumerate(full) if f]] + \
        [[r] for r, f in enumerate(full) if not f]
    logabs = np.zeros(rows.shape)
    arg = np.zeros(rows.shape)
    for group in filter(None, groups):
        n = int(nterms[group].max())
        starts = np.array(_chunk_starts(q, max(lmax[r] for r in group), n))
        qpow = np.cumprod(np.concatenate(([1.0 + 0j], np.full(n - 1, q))))
        flat = rows[group].reshape(-1)
        # each node's own term count
        own = np.repeat(nterms[group], rows.shape[1])
        la, ar = np.zeros(flat.size), np.zeros(flat.size)
        step = max(1, _PASS // min(n, _BLOCK * _CHUNK))
        with np.errstate(divide="ignore"):
            for e in range(0, flat.size, step):
                nodes = slice(e, e + step)
                for b in range(0, len(starts), _BLOCK):
                    lo = starts[b]
                    hi = starts[b + _BLOCK] if b + _BLOCK < len(starts) \
                        else n
                    factors = np.multiply.outer(qpow[lo:hi], flat[nodes])
                    # in place: 1 - outer(...) takes several times longer
                    np.subtract(1, factors, out=factors)
                    if own[nodes].min() < hi:
                        factors[np.arange(lo, hi)[:, None] >= own[nodes]] = 1
                    prods = np.multiply.reduceat(
                        factors, starts[b:b + _BLOCK] - lo, axis=0)
                    # log|.| and angle separately: numpy's complex log is
                    # several times slower on these large-magnitude products
                    mag = np.abs(prods)
                    # a subnormal product has lost its precision: read it
                    # as a zero
                    mag[mag < _TINY] = 0.0
                    la[nodes] += np.add.accumulate(np.log(mag), axis=0)[-1]
                    if phase:
                        ar[nodes] += np.add.accumulate(np.angle(prods),
                                                       axis=0)[-1]
        logabs[group] = la.reshape(len(group), -1)
        arg[group] = ar.reshape(len(group), -1)
    return (logabs + 1j * arg if phase else logabs).reshape(ell.shape)


class PochhammerLineView(LineView):
    """u -> prod_{k>=0} (1 - (a*u + b) * qbase^k), truncated adaptively.

    Both paths take one log per chunk of factors (_pochhammer_log): log_abs
    reads the chunk magnitudes alone, and the imaginary part of log_values
    is defined only mod 2*pi.  Arrays (a_k, b_k) make the view of a family
    of K lines, read only through log_values and log_abs: its values carry
    a leading line axis, and all K lines take one _pochhammer_log call.
    """

    def __init__(self, qbase: complex, a, b):
        if not 0 < abs(qbase) < 1:
            raise UsageError("product base must satisfy 0 < |q| < 1")
        self.qbase = complex(qbase)
        if isinstance(a, np.ndarray):
            self.a, self.b = a, b
            return
        self.a = complex(a)
        self.b = complex(b)
        if self.a == 0:
            self.identically_zero = bool(np.isneginf(
                _pochhammer_log(self.qbase, [self.b], phase=False)[0]))

    def _log(self, u, phase: bool) -> np.ndarray:
        u = np.asarray(u, dtype=complex)
        lead = (-1,) + (1,) * u.ndim
        out = _pochhammer_log(self.qbase, np.reshape(self.a, lead) * u
                              + np.reshape(self.b, lead), phase)
        return out if isinstance(self.a, np.ndarray) else out[0]

    def log_values(self, u):
        return self._log(u, phase=True)

    def log_abs(self, u):
        return self._log(u, phase=False)

    def divisor(self, r):
        """Zeros: the solutions of a*u + b = qbase^{-k}, k >= 0, inside
        |u| <= r.  No poles."""
        if self.a == 0:
            return [], []
        out = []
        k = 0
        while True:
            target = self.qbase ** (-k)
            u = (target - self.b) / self.a
            if abs(u) <= r:
                out.append((u, 1))
            elif abs(target) > abs(self.a) * r + abs(self.b) + 1:
                break
            k += 1
            if k > 100000:
                raise NumericError("zero enumeration did not terminate")
        out.sort(key=lambda t: abs(t[0]))
        return out, []


class ProductLineView(LineView):
    def __init__(self, views: Sequence[LineView]):
        self.views = list(views)
        self.identically_zero = any(v.identically_zero for v in self.views)
        self.is_entire = all(v.is_entire for v in self.views)
        self.has_closed_zeros = all(v.has_closed_zeros for v in self.views)

    def log_values(self, u):
        return sum(v.log_values(u) for v in self.views)

    def log_abs(self, u):
        return sum(v.log_abs(u) for v in self.views)

    def divisor(self, r):
        z: RootList = []
        p: RootList = []
        for v in self.views:
            vz, vp = v.divisor(r)
            z += vz
            p += vp
        return _cancel(z, p)


class QuotientLineView(LineView):
    def __init__(self, num: LineView, den: LineView):
        if den.identically_zero:
            raise UsageError("denominator vanishes identically on the line")
        self.num = num
        self.den = den
        self.identically_zero = num.identically_zero
        self.is_entire = False
        self.has_closed_zeros = num.has_closed_zeros and den.has_closed_zeros

    def log_values(self, u):
        return self.num.log_values(u) - self.den.log_values(u)

    def log_abs(self, u):
        return self.num.log_abs(u) - self.den.log_abs(u)

    def divisor(self, r):
        (nz, npole), (dz, dpole) = self.num.divisor(r), self.den.divisor(r)
        return _cancel(nz + dpole, npole + dz)


class FormCompositionLineView(LineView):
    """sum_I a_I * prod_j comp_j(u)^{I_j}, evaluated in the log domain.

    Zero/pole sets are not known in closed form; when every component is
    entire the view is entire and downstream counting goes through Jensen.
    """

    def __init__(self, coeffs: Sequence[Tuple[complex, Tuple[int, ...]]],
                 components: Sequence[LineView]):
        if not coeffs:
            raise UsageError("empty form")
        self.coeffs = [(complex(c), tuple(e)) for c, e in coeffs]
        self.components = list(components)
        self.is_entire = all(v.is_entire for v in self.components)
        self.has_closed_zeros = False
        self.identically_zero = False  # caller rules this out symbolically

    def log_values(self, u):
        u = np.asarray(u, dtype=complex)
        logs = [v.log_values(u) for v in self.components]
        term_logs = []
        for c, exps in self.coeffs:
            t = np.full(u.shape, np.log(complex(c)) if c else complex("-inf"))
            for lv, e in zip(logs, exps):
                if e:
                    # by parts: a complex product turns log 0 = -inf into NaN
                    t.real += e * lv.real
                    t.imag += e * lv.imag
            term_logs.append(t)
        stack = np.stack(term_logs)
        shift = np.max(stack.real, axis=0)
        shift = np.where(np.isfinite(shift), shift, 0.0)
        total = np.sum(np.exp(stack - shift), axis=0)
        with np.errstate(divide="ignore", invalid="ignore"):
            return shift + np.log(total.astype(complex))


def _family_log_values(views: Sequence[LineView], u: np.ndarray) -> np.ndarray:
    """log_values of the views of one function on K lines at the nodes u,
    stacked on a leading line axis: (K,) + u.shape.  A view shared by
    every line (a constant) is evaluated once; Pochhammer views of one base
    are one family view; any other view is evaluated line by line."""
    first = views[0]
    if all(v is first for v in views):
        return np.broadcast_to(first.log_values(u), (len(views),) + u.shape)
    if all(type(v) is PochhammerLineView and v.qbase == first.qbase
           for v in views):
        return PochhammerLineView(
            first.qbase, np.array([v.a for v in views]),
            np.array([v.b for v in views])).log_values(u)
    return np.stack([v.log_values(u) for v in views])


def _entry_logs(rows: Sequence[Sequence[LineView]], u) -> np.ndarray:
    """comp[k, node, j]: the log of rows[k][j] at the flattened nodes u.
    Each column, one function on the K lines of the rows, is one family
    evaluation."""
    flat = np.asarray(u, dtype=complex).ravel()
    return np.stack([_family_log_values(col, flat) for col in zip(*rows)],
                    axis=-1)


def _monomial_log_matrix(comp: np.ndarray, monomials) -> np.ndarray:
    """The (nodes, K, M) log matrix whose (k, I) entry is the monomial
    prod_j c_j^{I_j} on line k, from the component logs comp[k, node, j]:
    every entry is an integer combination of them."""
    emat = np.asarray(monomials, dtype=float)  # (M, n1)
    # by parts: a zero or pole raised to the power 0 is 1, where the
    # product 0 * inf would read NaN
    fin = np.isfinite(comp.real)
    logm = np.where(fin, comp, 0) @ emat.T  # logm[k, node, I]
    if not np.all(fin):
        used = (emat.T > 0).astype(float)
        re = logm.real
        zero = np.isneginf(comp.real) @ used > 0
        pole = np.isposinf(comp.real) @ used > 0
        re[zero] = -np.inf
        re[pole] = np.inf
        re[zero & pole] = np.nan  # 0 * inf
    return logm.transpose(1, 0, 2)


class MonomialDeterminantLineView(LineView):
    """Determinant whose (k, I) entry is the monomial prod_j c_j^{I_j}
    evaluated on the k-th shifted copy of the component views.

    Exploits the monomial structure: each row needs only the component
    logs once, and every entry is an integer combination of them.
    """

    def __init__(self, shifted_components, monomials):
        # shifted_components[k][j]: LineView of component j under shift k
        self.rows = [list(r) for r in shifted_components]
        self.monos = [tuple(e) for e in monomials]
        if len(self.rows) != len(self.monos):
            raise UsageError("need as many shifts as monomials")
        self.is_entire = all(v.is_entire for r in self.rows for v in r)
        self.has_closed_zeros = False
        self.identically_zero = False

    def log_matrix(self, u) -> np.ndarray:
        """The (nodes, M, M) log matrix at the flattened nodes u."""
        return _monomial_log_matrix(_entry_logs(self.rows, u), self.monos)

    def log_values(self, u):
        return _scaled_slogdet(self.log_matrix(u)).reshape(np.shape(u))


def _lsap_path() -> Optional[str]:
    """The file of scipy's compiled assignment extension,
    scipy/optimize/_lsap<suffix>, found without importing scipy; None
    where scipy or that file is missing."""
    spec = importlib.util.find_spec("scipy")
    if spec is None or not spec.submodule_search_locations:
        return None
    folder = os.path.join(spec.submodule_search_locations[0], "optimize")
    paths = (os.path.join(folder, "_lsap" + suffix)
             for suffix in importlib.machinery.EXTENSION_SUFFIXES)
    return next((p for p in paths if os.path.isfile(p)), None)


@functools.lru_cache(maxsize=None)
def _assignment_solver():
    """scipy's linear_sum_assignment, loaded from its compiled extension
    alone: the scipy.optimize package, whose start-up dominates a short
    fresh process, is never imported.  scipy.optimize re-exports the
    solver from this very extension, so it is the same solver either
    way."""
    path = _lsap_path()
    if path is None:  # another scipy layout: the public import
        from scipy.optimize import linear_sum_assignment
        return linear_sum_assignment
    spec = importlib.util.spec_from_file_location("scipy.optimize._lsap",
                                                  path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.linear_sum_assignment


def _tropical_slogdet(logm: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Optimal-assignment duals (u, v), each of shape (..., n), of stacked
    (..., n, n) log matrices: u_k + v_l >= Re logm[k, l] with equality
    along a maximum-weight matching, so sum(u) + sum(v) is the tropical
    determinant (the log magnitude of the largest single permutation term)
    and exp(logm - u - v) has every entry of magnitude <= 1 and magnitude 1
    on a full transversal (Gaubert & Sharify 2009).

    One assignment is solved per matrix; the duals then come from one
    longest-path iteration over the whole stack,
    v_l >= v_{sigma(k)} + (w[k, l] - w[k, sigma(k)]), in which each matrix
    stops at the first round that moves none of its v by more than 1e-9.
    """
    linear_sum_assignment = _assignment_solver()
    a = np.asarray(logm)
    n = a.shape[-1]
    w = np.where(np.isfinite(a.real), a.real, -1e300).reshape(-1, n, n)
    # sigma[i, k]: the column matched to row k (rows come back in order)
    sigma = np.array([linear_sum_assignment(-wi)[1] for wi in w],
                     dtype=int).reshape(w.shape[:2])
    diag = np.take_along_axis(w, sigma[:, :, None], axis=2)[:, :, 0]
    d = w - diag[:, :, None]
    v = np.zeros(w.shape[:2])
    # the matrices still iterating, with their rows of sigma and d
    live, sg, dl = np.arange(len(w)), sigma, d
    for _ in range(n + 1):
        vl = v[live]
        vn = np.maximum(vl, np.max(
            np.take_along_axis(vl, sg, axis=1)[:, :, None] + dl, axis=1))
        moved = np.any(vn - vl > 1e-9, axis=1)
        if not moved.all():
            live, sg, dl, vn = live[moved], sg[moved], dl[moved], vn[moved]
        v[live] = vn
        if not live.size:
            break
    u = diag - np.take_along_axis(v, sigma, axis=1)
    return u.reshape(a.shape[:-1]), v.reshape(a.shape[:-1])


def _dual_slogdet(logm: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(log|det exp(logm)|, log|det exp(logm - u - v)|) for stacked
    (..., n, n) log matrices and their assignment duals (u, v), both -inf
    where the determinant vanishes.  The second is |det| relative to the
    largest single permutation term.  One slogdet of the dual-scaled
    matrices, whose entries lie in the unit disk, so no row or column
    underflows whatever the grading; the first adds sum(u) + sum(v) back."""
    u, v = _tropical_slogdet(logm)
    with np.errstate(under="ignore"):
        _, scaled = np.linalg.slogdet(
            np.exp(logm - u[..., :, None] - v[..., None, :]))
    return scaled + np.sum(u, axis=-1) + np.sum(v, axis=-1), scaled


def _scaled_slogdet(logm: np.ndarray) -> np.ndarray:
    """log|det exp(logm)| for stacked (..., n, n) log matrices, -inf where
    the determinant vanishes (see _dual_slogdet)."""
    return _dual_slogdet(logm)[0].astype(complex)


class DeterminantLineView(LineView):
    """|det| of a matrix of views, via the dual-scaled slogdet.

    Only the magnitude is defined (slogdet drops the phase); log_values
    returns log|det| with zero imaginary part, which is all the counting
    and proximity integrals need.
    """

    def __init__(self, matrix: Sequence[Sequence[LineView]]):
        self.matrix = [list(row) for row in matrix]
        n = len(self.matrix)
        if any(len(row) != n for row in self.matrix):
            raise UsageError("determinant view needs a square matrix")
        self.is_entire = all(v.is_entire for row in self.matrix for v in row)
        self.has_closed_zeros = False
        self.identically_zero = False  # decided by the caller's sampling

    def log_matrix(self, u) -> np.ndarray:
        """The (nodes, n, n) log matrix at the flattened nodes u."""
        return _entry_logs(self.matrix, u).transpose(1, 0, 2)

    def log_values(self, u):
        return _scaled_slogdet(self.log_matrix(u)).reshape(np.shape(u))
