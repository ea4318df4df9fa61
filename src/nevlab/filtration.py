"""Graded filtration of V_alpha by powers of fixed forms.

Given n forms gamma_1, ..., gamma_n of common degree d cutting out a
zero-dimensional subvariety of P^n, the spaces

    W_(i) = sum over (e) >= (i) of gamma^(e) * V_{alpha - d*sigma(e)}

(lex order on exponent tuples, sigma = coordinate sum) filter V_alpha.
All dimensions are computed by exact elimination; the quotient dimensions
Delta_(i), their weighted totals Delta, and the stabilized Hilbert value
are integer identities and are checked as such.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from .errors import NumericError, UsageError
from .funcspace import HomogeneousForm, multiple_rows, quotient_dim
from .linalg import SparseEchelon
from .polynomials import Polynomial


@dataclass
class FiltrationLevel:
    tuple: Tuple[int, ...]
    space_dim: int      # dim W_(i)
    quotient_dim: int   # Delta_(i)


@dataclass
class FiltrationReport:
    alpha: int
    d: int
    n: int
    M: int
    alpha0_empirical: int
    alpha0_proof: int      # the n*d value used in the source argument
    delta: int
    deltas_by_j: List[int]
    levels: List[FiltrationLevel]
    ratio_malpha_delta: float
    ratio_target: float          # d*(n+1)
    inv_delta: float
    inv_delta_target: float      # d*(n+1)! / alpha^{n+1}


def enumerate_tuples(n: int, alpha: int, d: int) -> List[Tuple[int, ...]]:
    """All n-tuples (i) of nonnegative integers with d*sigma(i) <= alpha,
    in ascending lex order."""
    if alpha < 0 or d < 1 or n < 1:
        raise UsageError("need alpha >= 0, d >= 1, n >= 1")
    bound = alpha // d
    out: List[Tuple[int, ...]] = []

    def rec(prefix, remaining):
        if len(prefix) == n:
            out.append(tuple(prefix))
            return
        for v in range(remaining + 1):
            rec(prefix + [v], remaining - v)

    rec([], bound)
    out.sort()
    return out


def _common_degree(gammas: Sequence[HomogeneousForm]) -> int:
    ds = {g.degree for g in gammas}
    if len(ds) != 1:
        raise UsageError("forms must share a common degree (lift mixed "
                         "degrees with lift_to_common_degree first)")
    return ds.pop()


def lift_to_common_degree(forms: Sequence[HomogeneousForm]
                          ) -> List[HomogeneousForm]:
    """Raise each form to the power lcm(d_j)/d_j so all degrees agree."""
    d = math.lcm(*[g.degree for g in forms])
    return [g ** (d // g.degree) for g in forms]


# ---------------------------------------------------------------------------
# Hilbert stabilization / zero-dimensionality
# ---------------------------------------------------------------------------

@dataclass
class HilbertResult:
    is_zero_dim: Optional[bool]   # None = inconclusive (k = n+1: emptiness)
    alpha0: Optional[int]
    stable_value: Optional[int]
    dims: List[Tuple[int, int]]   # (alpha, quotient dim)
    note: str = ""


def hilbert_stabilization(gammas: Sequence[HomogeneousForm]) -> HilbertResult:
    """Quotient dimensions dim V_alpha / ideal-slice for increasing alpha.

    For k = n forms in n+1 coordinates, the subvariety is zero-dimensional
    iff the value stabilizes at prod(deg gamma_j); for k = n+1 forms the
    common zero locus is empty iff it stabilizes at 0.  alpha0 is the first
    degree at which the stable value is reached.
    """
    gammas = list(gammas)
    if not gammas:
        raise UsageError("need at least one form")
    n1 = gammas[0].nplus1
    k = len(gammas)
    if k not in (n1 - 1, n1):
        raise UsageError(f"expected {n1 - 1} or {n1} forms in {n1} "
                         "coordinates")
    bound = sum(g.degree - 1 for g in gammas) + 2
    start = 1
    dims = [(a, quotient_dim(gammas, a)) for a in range(start, bound + 1)]
    target = 0 if k == n1 else math.prod(g.degree for g in gammas)
    # stabilized: equals the final value on a tail of length >= 2
    final = dims[-1][1]
    if len(dims) >= 2 and dims[-2][1] == final:
        alpha0 = next(a for a, v in dims
                      if all(v2 == final for a2, v2 in dims if a2 >= a))
        ok = (final == target)
        return HilbertResult(ok, alpha0, final, dims,
                             "" if ok else
                             f"stabilized at {final}, expected {target}")
    return HilbertResult(None, None, None, dims,
                         "no stabilization within the degree bound")


# ---------------------------------------------------------------------------
# filtration construction
# ---------------------------------------------------------------------------

def _level_generators(powers: List[List[Polynomial]], e: Tuple[int, ...],
                      alpha: int, d: int):
    """Rows gamma^(e) * mu for monomials mu of degree alpha - d*sigma(e);
    powers[j][k] is gamma_j^k, and gamma_j^0 = 1 serves the zero tuple."""
    base = functools.reduce(
        operator.mul,
        [pw[k] for pw, k in zip(powers, e) if k] or [powers[0][0]])
    return multiple_rows(base, alpha - d * sum(e))


def build_filtration(gammas: Sequence[HomogeneousForm],
                     alpha: int) -> List[FiltrationLevel]:
    """Exact dims of every W_(i) and the quotient dims Delta_(i).

    Processing the levels in descending lex order makes the running rank
    after level (i) equal dim W_(i); differencing along ascending lex then
    gives the quotients.
    """
    gammas = list(gammas)
    n = len(gammas)
    n1 = gammas[0].nplus1
    if n1 != n + 1:
        raise UsageError("need n forms in n+1 coordinates")
    d = _common_degree(gammas)
    if alpha < d:
        raise UsageError("alpha must be at least the common degree")
    hs = hilbert_stabilization(gammas)
    if hs.is_zero_dim is not True:
        raise UsageError(
            "the forms must cut out a zero-dimensional subvariety; "
            f"Hilbert data: {hs.dims} ({hs.note})")
    # gamma_j^k for k <= alpha // d, each one product from the last
    powers = []
    for g in gammas:
        pw = [Polynomial.constant(1, n1), g.to_polynomial()]
        while len(pw) <= alpha // d:
            pw.append(pw[-1] * pw[1])
        powers.append(pw)
    tuples = enumerate_tuples(n, alpha, d)
    ech = SparseEchelon()
    dims = {}
    for e in reversed(tuples):
        for row in _level_generators(powers, e, alpha, d):
            ech.add(row)
        dims[e] = ech.rank
    levels = []
    for i, e in enumerate(tuples):
        nxt = tuples[i + 1] if i + 1 < len(tuples) else None
        q = dims[e] - (dims[nxt] if nxt else 0)
        levels.append(FiltrationLevel(e, dims[e], q))
    M = math.comb(alpha + n, n)
    if levels and levels[0].space_dim != M:
        raise NumericError(
            f"W at the lowest level has dim {levels[0].space_dim}, "
            f"expected dim V_alpha = {M}")
    return levels


def empirical_alpha0(levels: Sequence[FiltrationLevel], alpha: int, d: int,
                     n: int) -> int:
    """Smallest a0 >= 0 with Delta_(i) = d^n whenever d*sigma(i) < alpha-a0."""
    dn = d ** n
    a0 = 0
    for lv in levels:
        s = d * sum(lv.tuple)
        if lv.quotient_dim != dn:
            a0 = max(a0, alpha - s)
    return a0


@dataclass
class QuotientVerdict:
    ok: bool
    alpha0_empirical: int
    violations: List[Tuple[Tuple[int, ...], int]]


def quotient_check(levels: Sequence[FiltrationLevel], alpha: int, d: int,
                   n: int, alpha0: int) -> QuotientVerdict:
    """Check Delta_(i) = d^n in the region d*sigma(i) < alpha - alpha0."""
    dn = d ** n
    bad = [(lv.tuple, lv.quotient_dim) for lv in levels
           if d * sum(lv.tuple) < alpha - alpha0 and lv.quotient_dim != dn]
    return QuotientVerdict(not bad, empirical_alpha0(levels, alpha, d, n), bad)


def delta_totals(levels: Sequence[FiltrationLevel], alpha: int, d: int,
                 n: int) -> FiltrationReport:
    M = math.comb(alpha + n, n)
    total = sum(lv.quotient_dim for lv in levels)
    if total != M:
        raise NumericError(f"quotient dims sum to {total}, expected M={M}")
    deltas = []
    for j in range(n):
        deltas.append(sum(lv.tuple[j] * lv.quotient_dim for lv in levels))
    if len(set(deltas)) != 1:
        raise NumericError(
            f"Delta depends on the coordinate index: {deltas}")
    delta = deltas[0]
    if delta <= 0:
        raise NumericError("Delta must be positive")
    return FiltrationReport(
        alpha=alpha, d=d, n=n, M=M,
        alpha0_empirical=empirical_alpha0(levels, alpha, d, n),
        alpha0_proof=n * d,
        delta=delta, deltas_by_j=deltas, levels=list(levels),
        ratio_malpha_delta=M * alpha / delta,
        ratio_target=d * (n + 1),
        inv_delta=1.0 / delta,
        inv_delta_target=d * math.factorial(n + 1) / alpha ** (n + 1))


def filtration_report(gammas: Sequence[HomogeneousForm],
                      alpha: int) -> FiltrationReport:
    levels = build_filtration(gammas, alpha)
    n = len(gammas)
    d = _common_degree(gammas)
    return delta_totals(levels, alpha, d, n)
