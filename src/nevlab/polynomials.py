"""Sparse multivariate polynomials and rational functions over Gaussian
rationals.

Terms are stored as a dict from exponent tuples to GaussianRational
coefficients; no zero coefficient is ever kept.  The canonical term order
is lexicographic on the exponent tuple.  Division, gcd and line
restriction are exact.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import UsageError
from .rationals import GaussianRational, ONE, ZERO


class Polynomial:
    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Optional[dict] = None):
        self.nvars = nvars
        cleaned = {}
        if terms:
            for exps, c in terms.items():
                if len(exps) != nvars:
                    raise UsageError(
                        f"exponent tuple {exps} does not have {nvars} entries")
                c = GaussianRational.from_value(c)
                if c:
                    cleaned[tuple(exps)] = c
        self.terms = cleaned

    # ---- constructors -------------------------------------------------
    @classmethod
    def zero(cls, nvars: int) -> "Polynomial":
        return cls(nvars)

    @classmethod
    def constant(cls, c, nvars: int) -> "Polynomial":
        return cls(nvars, {(0,) * nvars: GaussianRational.from_value(c)})

    @classmethod
    def variable(cls, i: int, nvars: int) -> "Polynomial":
        e = [0] * nvars
        e[i] = 1
        return cls(nvars, {tuple(e): ONE})

    @classmethod
    def monomial(cls, exps: Sequence[int], coeff=1) -> "Polynomial":
        return cls(len(exps), {tuple(exps): GaussianRational.from_value(coeff)})

    # ---- predicates ----------------------------------------------------
    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(sum(e) == 0 for e in self.terms)

    def constant_value(self) -> GaussianRational:
        if self.is_zero():
            return ZERO
        if not self.is_constant():
            raise UsageError("polynomial is not constant")
        return next(iter(self.terms.values()))

    def total_degree(self) -> int:
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def is_homogeneous(self) -> bool:
        degs = {sum(e) for e in self.terms}
        return len(degs) <= 1

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def __bool__(self):
        return bool(self.terms)

    # ---- arithmetic ----------------------------------------------------
    def _check(self, other) -> "Polynomial":
        if not isinstance(other, Polynomial):
            other = Polynomial.constant(other, self.nvars)
        if self.nvars != other.nvars:
            raise UsageError(
                f"variable count mismatch: {self.nvars} vs {other.nvars}")
        return other

    def __add__(self, other) -> "Polynomial":
        other = self._check(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e)
            s = c if s is None else s + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return _raw(self.nvars, out)

    def __neg__(self) -> "Polynomial":
        return _raw(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "Polynomial":
        return self + (-self._check(other))

    def __radd__(self, other) -> "Polynomial":
        return self + other

    def __rsub__(self, other) -> "Polynomial":
        return (-self) + other

    def __rmul__(self, other) -> "Polynomial":
        return self * other

    def __mul__(self, other) -> "Polynomial":
        other = self._check(other)
        out: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                c = c1 * c2
                s = out.get(e)
                s = c if s is None else s + c
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
        return _raw(self.nvars, out)

    def scale(self, c) -> "Polynomial":
        c = GaussianRational.from_value(c)
        if not c:
            return Polynomial.zero(self.nvars)
        return _raw(self.nvars, {e: k * c for e, k in self.terms.items()})

    def __pow__(self, k: int) -> "Polynomial":
        if k < 0:
            raise UsageError("negative polynomial power")
        out = Polynomial.constant(1, self.nvars)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

    # ---- structure -----------------------------------------------------
    def leading(self) -> tuple:
        """(exponent tuple, coefficient) of the lex-leading term."""
        if not self.terms:
            raise UsageError("zero polynomial has no leading term")
        e = max(self.terms)
        return e, self.terms[e]

    def monic(self) -> "Polynomial":
        """Scale so the lex-leading coefficient is 1."""
        if not self.terms:
            return self
        _, c = self.leading()
        return self.scale(ONE / c)

    def sorted_terms(self):
        return sorted(self.terms.items(), reverse=True)

    # ---- substitution --------------------------------------------------
    def scale_vars(self, factors: Sequence) -> "Polynomial":
        """p(q1 z1, ..., qm zm) for exact factors."""
        if len(factors) != self.nvars:
            raise UsageError("need one scale factor per variable")
        fs = [GaussianRational.from_value(f) for f in factors]
        out = {}
        for e, c in self.terms.items():
            k = c
            for f, ei in zip(fs, e):
                if ei:
                    k = k * f**ei
            if k:
                out[e] = k
        return _raw(self.nvars, out)

    # ---- line restriction ----------------------------------------------
    def restrict_numeric(self, lines: np.ndarray) -> np.ndarray:
        """Coefficients (ascending degree) of p(u*xi) in double precision,
        one row per direction xi of the (K, nvars) array `lines`.

        Each row is bitwise the scalar complex arithmetic of its line alone
        (c * x1**e1 * ... summed per degree in term order): products are
        taken by parts, re = ar*br - ai*bi and im = ar*bi + ai*br, and the
        powers by numpy's scalar rule (_power_by_parts).  numpy's array
        complex multiply rounds differently."""
        lines = np.asarray(lines, dtype=complex)
        if lines.ndim != 2 or lines.shape[1] != self.nvars:
            raise UsageError("direction length must equal nvars")
        if not np.all(np.any(lines, axis=1)):
            raise UsageError("zero direction")
        deg = max((sum(e) for e in self.terms), default=0)
        re = np.zeros((len(lines), deg + 1))
        im = np.zeros((len(lines), deg + 1))
        powers = {}
        for e, c in self.terms.items():
            k = c.to_complex()
            kr, ki = k.real, k.imag
            for v, ei in enumerate(e):
                if ei:
                    if (v, ei) not in powers:
                        powers[v, ei] = _power_by_parts(lines[:, v], ei)
                    pr, pi = powers[v, ei]
                    kr, ki = kr * pr - ki * pi, kr * pi + ki * pr
            re[:, sum(e)] += kr
            im[:, sum(e)] += ki
        out = np.empty(re.shape, dtype=complex)
        out.real, out.imag = re, im
        return out

    def __repr__(self):
        if not self.terms:
            return "Polynomial(0)"
        bits = []
        for e, c in self.sorted_terms():
            mono = "*".join(f"z{i+1}^{k}" for i, k in enumerate(e) if k)
            s = _fmt_coeff(c)
            bits.append(f"{s}*{mono}" if mono else s)
        return "Polynomial(" + " + ".join(bits) + ")"


def _power_by_parts(x: np.ndarray, n: int):
    """(re, im) of x**n for a complex array x and an integer n >= 1,
    bitwise numpy's scalar complex power up to the sign of a zero, which
    the restriction's sums drop: n = 1, 2, 3 unrolled, then binary powering
    from 1 below n = 100 (libm's cpow from there, taken per entry)."""
    if n >= 100:
        p = np.array([v ** n for v in x], dtype=complex)
        return p.real, p.imag

    def mul(a, b):
        return a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]

    base = (x.real, x.imag)
    if n == 1:
        p = base
    elif n == 2:
        p = mul(base, base)
    elif n == 3:
        p = mul(base, mul(base, base))
    else:
        p, sq = (1.0, 0.0), base
        while True:
            if n & 1:
                p = mul(p, sq)
            n >>= 1
            if not n:
                break
            sq = mul(sq, sq)
    return p


def _raw(nvars: int, terms: dict) -> Polynomial:
    p = Polynomial.__new__(Polynomial)
    p.nvars = nvars
    p.terms = terms
    return p


def _fmt_coeff(c: GaussianRational) -> str:
    if not c.im:
        return str(c.re)
    return f"({c.re}{'+' if c.im >= 0 else ''}{c.im}i)"


# ---------------------------------------------------------------------------
# exact division and gcd
# ---------------------------------------------------------------------------

def try_divide(p: Polynomial, d: Polynomial) -> Optional[Polynomial]:
    """Return p / d if d divides p exactly, else None."""
    p._check(d)
    if d.is_zero():
        raise UsageError("division by zero polynomial")
    de, dc = d.leading()
    quot: dict = {}
    rem = p
    while rem.terms:
        re_, rc = rem.leading()
        qe = tuple(a - b for a, b in zip(re_, de))
        if any(x < 0 for x in qe):
            return None
        qc = rc / dc
        quot[qe] = qc
        rem = rem - d * Polynomial.monomial(qe, 1).scale(qc)
    return _raw(p.nvars, quot)


def _vars_used(p: Polynomial) -> set:
    used = set()
    for e in p.terms:
        for i, k in enumerate(e):
            if k:
                used.add(i)
    return used


def _split_by_var(p: Polynomial, v: int) -> dict:
    """View p as univariate in variable v: degree -> coefficient polynomial
    (same nvars, exponent of v forced to 0)."""
    out: dict = {}
    for e, c in p.terms.items():
        d = e[v]
        e0 = e[:v] + (0,) + e[v + 1:]
        out.setdefault(d, {})[e0] = c
    return {d: _raw(p.nvars, t) for d, t in out.items()}


def _join_by_var(coeffs: dict, v: int, nvars: int) -> Polynomial:
    terms: dict = {}
    for d, poly in coeffs.items():
        for e, c in poly.terms.items():
            terms[e[:v] + (d,) + e[v + 1:]] = c
    return _raw(nvars, terms)


def _uni_deg(coeffs: dict) -> int:
    return max(coeffs) if coeffs else -1


def _pseudo_rem(a: dict, b: dict, v: int, nvars: int) -> dict:
    """Pseudo-remainder of a by b, both split views in variable v."""
    da, db = _uni_deg(a), _uni_deg(b)
    lb = b[db]
    a = dict(a)
    while a and _uni_deg(a) >= db:
        da = _uni_deg(a)
        la = a[da]
        # a <- lb*a - la * x^(da-db) * b
        new: dict = {}
        for d, c in a.items():
            new[d] = c * lb
        for d, c in b.items():
            t = new.get(d + da - db, Polynomial.zero(nvars)) - la * c
            new[d + da - db] = t
        a = {d: c for d, c in new.items() if not c.is_zero()}
    return a


def _content(coeffs: Iterable[Polynomial]) -> Polynomial:
    g = None
    for c in coeffs:
        g = c if g is None else poly_gcd(g, c)
        if g.is_constant() and not g.is_zero():
            break
    return g


def poly_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """Greatest common divisor, monic-normalized on the lex-leading term.

    Primitive pseudo-remainder sequence, recursing on the coefficient ring;
    adequate for the desk-scale degrees this toolkit handles.
    """
    a._check(b)
    if a.is_zero() and b.is_zero():
        raise UsageError("gcd(0, 0) is undefined")
    if a.is_zero():
        return b.monic()
    if b.is_zero():
        return a.monic()
    # a nonzero constant divides everything: the PRS below would reach 1
    if a.is_constant() or b.is_constant():
        return Polynomial.constant(1, a.nvars)
    v = min(_vars_used(a) | _vars_used(b))
    sa, sb = _split_by_var(a, v), _split_by_var(b, v)
    ca, cb = _content(sa.values()), _content(sb.values())
    cg = poly_gcd(ca, cb)
    pa = {d: try_divide(c, ca) for d, c in sa.items()}
    pb = {d: try_divide(c, cb) for d, c in sb.items()}
    # primitive PRS in variable v
    f, g = pa, pb
    if _uni_deg(f) < _uni_deg(g):
        f, g = g, f
    while g:
        r = _pseudo_rem(f, g, v, a.nvars)
        f, g = g, r
        if g:
            c = _content(g.values())
            g = {d: try_divide(p, c) for d, p in g.items()}
    if _uni_deg(f) == 0 and f[0].is_constant():
        return cg.monic()
    prim = _join_by_var(f, v, a.nvars)
    return (cg * prim).monic()


# ---------------------------------------------------------------------------
# rational functions
# ---------------------------------------------------------------------------

class RationalFunction:
    """num / den, kept coprime with a monic (lex-leading) denominator."""

    __slots__ = ("num", "den")

    def __init__(self, num: Polynomial, den: Optional[Polynomial] = None,
                 _reduced: bool = False):
        if den is None:
            den = Polynomial.constant(1, num.nvars)
        num._check(den)
        if den.is_zero():
            raise UsageError("denominator is identically zero")
        if not _reduced:
            if num.is_zero():
                den = Polynomial.constant(1, num.nvars)
            else:
                g = poly_gcd(num, den)
                if not g.is_constant():
                    num = try_divide(num, g)
                    den = try_divide(den, g)
            _, lc = den.leading()
            num = num.scale(ONE / lc)
            den = den.scale(ONE / lc)
        self.num = num
        self.den = den

    @classmethod
    def constant(cls, c, nvars: int) -> "RationalFunction":
        return cls(Polynomial.constant(c, nvars))

    @property
    def nvars(self) -> int:
        return self.num.nvars

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_constant(self) -> bool:
        return self.num.is_constant() and self.den.is_constant()

    def is_polynomial(self) -> bool:
        return self.den.is_constant()

    def __eq__(self, other):
        if isinstance(other, Polynomial):
            other = RationalFunction(other)
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __add__(self, other: "RationalFunction") -> "RationalFunction":
        return RationalFunction(
            self.num * other.den + other.num * self.den, self.den * other.den)

    def __neg__(self):
        return RationalFunction(-self.num, self.den, _reduced=True)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other: "RationalFunction") -> "RationalFunction":
        return RationalFunction(self.num * other.num, self.den * other.den)

    def __truediv__(self, other: "RationalFunction") -> "RationalFunction":
        if other.is_zero():
            raise UsageError("division by zero rational function")
        return RationalFunction(self.num * other.den, self.den * other.num)

    def __pow__(self, k: int) -> "RationalFunction":
        if k < 0:
            return RationalFunction(self.den, self.num) ** (-k)
        return RationalFunction(self.num**k, self.den**k, _reduced=(k == 1))

    def scale_vars(self, factors) -> "RationalFunction":
        return RationalFunction(self.num.scale_vars(factors),
                                self.den.scale_vars(factors))

    def __repr__(self):
        if self.is_polynomial():
            return f"RationalFunction({self.num!r})"
        return f"RationalFunction({self.num!r} / {self.den!r})"
