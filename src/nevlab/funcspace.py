"""Meromorphic functions on C^m with exact line restriction, projective
maps, homogeneous forms, and general-position testing.

Two concrete function classes carry all the symbolic weight: rational
functions (exact everywhere) and product-entire functions built from a
q-Pochhammer-type infinite product, whose zero set along any line is known
in closed form.  Quotients and products of these cover every test case the
harnesses need.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .errors import UsageError
from .linalg import SparseEchelon
from .polynomials import Polynomial, RationalFunction, poly_gcd, try_divide
from .rationals import GaussianRational, ONE
from .slicing import (FormCompositionLineView, LineView, PochhammerLineView,
                      ProductLineView, QuotientLineView, RationalLineView,
                      _pochhammer_log)


# ---------------------------------------------------------------------------
# slice functions
# ---------------------------------------------------------------------------

class SliceFunction:
    """A meromorphic function on C^m restrictable to complex lines."""

    nvars: int

    def line_view(self, xi: np.ndarray) -> LineView:
        raise NotImplementedError

    def log_value_at(self, z: np.ndarray) -> complex:
        """Complex log of the value at a point (real part = log|h(z)|,
        imaginary part defined only mod 2*pi)."""
        raise NotImplementedError

    def scale_q(self, factors: Sequence[complex]) -> "SliceFunction":
        """The composition z -> h(q1 z1, ..., qm zm)."""
        raise NotImplementedError

    def is_rational(self) -> bool:
        return False

    def __mul__(self, other: "SliceFunction") -> "SliceFunction":
        if self.nvars != other.nvars:
            raise UsageError("variable count mismatch")
        if self.is_rational() and other.is_rational():
            return RationalSlice(self.rf * other.rf)
        return ProductSlice([self, other])

    def __truediv__(self, other: "SliceFunction") -> "SliceFunction":
        if self.nvars != other.nvars:
            raise UsageError("variable count mismatch")
        if self.is_rational() and other.is_rational():
            return RationalSlice(self.rf / other.rf)
        return QuotientSlice(self, other)


class RationalSlice(SliceFunction):
    """An exact rational function num/den on C^m.

    The view of each direction is built once and kept per instance (keyed
    by the direction's bytes), so every functional, predicate and harness
    term that restricts this slice to the same line shares one view and
    its cached roots.
    """

    def __init__(self, rf):
        if isinstance(rf, Polynomial):
            rf = RationalFunction(rf)
        if not isinstance(rf, RationalFunction):
            raise UsageError("expected a rational function")
        self.rf = rf
        self.nvars = rf.nvars
        self._views = {}

    def is_rational(self):
        return True

    def is_polynomial(self):
        return self.rf.is_polynomial()

    def line_view(self, xi):
        xi = np.asarray(xi, dtype=complex)
        key = xi.tobytes()
        view = self._views.get(key)
        if view is None:
            num = self.rf.num.restrict_numeric(xi)
            den = self.rf.den.restrict_numeric(xi)
            if not np.any(den):
                raise UsageError("denominator vanishes on this line")
            view = self._views[key] = RationalLineView(num, den)
        return view

    def log_value_at(self, z):
        z = np.asarray(z, dtype=complex)
        nv = complex(self.rf.num.eval_complex(z))
        dv = complex(self.rf.den.eval_complex(z))
        with np.errstate(divide="ignore"):
            return complex(np.log(complex(nv))) - complex(np.log(complex(dv)))

    def scale_q(self, factors):
        return RationalSlice(self.rf.scale_vars(list(factors)))

    def __repr__(self):
        return f"RationalSlice({self.rf!r})"


@dataclass
class QPochhammerSpec:
    """Data for z -> prod_{k>=0} (1 - ell(z) * qbase^k) with deg(ell) <= 1."""

    qbase: complex
    argument: Polynomial  # the affine form ell(z)
    tail: float = 1e-15

    def __post_init__(self):
        if not 0 < abs(self.qbase) < 1:
            raise UsageError("product base must satisfy 0 < |qbase| < 1")
        if self.argument.total_degree() > 1 or self.argument.is_zero():
            raise UsageError("product argument must be affine and nonzero")

    def affine_parts(self) -> Tuple[np.ndarray, complex]:
        """(linear coefficients, constant) of ell."""
        lin = np.zeros(self.argument.nvars, dtype=complex)
        const = 0j
        for e, c in self.argument.terms.items():
            if sum(e) == 0:
                const = c.to_complex()
            else:
                lin[e.index(1)] = c.to_complex()
        return lin, const


class ProductEntireSlice(SliceFunction):
    """Entire zero-order function given by a truncated infinite product."""

    def __init__(self, spec: QPochhammerSpec):
        self.spec = spec
        self.nvars = spec.argument.nvars
        self._lin, self._const = spec.affine_parts()

    def line_view(self, xi):
        a = complex(np.dot(self._lin, np.asarray(xi, dtype=complex)))
        return PochhammerLineView(self.spec.qbase, a, self._const,
                                  self.spec.tail)

    def log_value_at(self, z):
        ell = complex(np.dot(self._lin, np.asarray(z, dtype=complex))) \
            + self._const
        return complex(_pochhammer_log(self.spec.qbase, ell, self.spec.tail))

    def scale_q(self, factors):
        exact = all(isinstance(f, (int, Fraction, GaussianRational))
                    for f in factors)
        if exact:
            arg = self.spec.argument.scale_vars(list(factors))
        else:
            # inexact rescaling: fold the factors into the coefficients
            terms = {}
            for e, c in self.spec.argument.terms.items():
                k = c.to_complex()
                for f, ei in zip(factors, e):
                    if ei:
                        k *= complex(f) ** ei
                terms[e] = GaussianRational(Fraction(k.real), Fraction(k.imag))
            arg = Polynomial(self.nvars, terms)
        return ProductEntireSlice(
            QPochhammerSpec(self.spec.qbase, arg, self.spec.tail))

    def __repr__(self):
        return (f"ProductEntireSlice(qbase={self.spec.qbase}, "
                f"ell={self.spec.argument!r})")


class ProductSlice(SliceFunction):
    def __init__(self, factors: Sequence[SliceFunction]):
        if not factors:
            raise UsageError("empty product")
        self.factors = list(factors)
        self.nvars = factors[0].nvars
        if any(f.nvars != self.nvars for f in factors):
            raise UsageError("variable count mismatch")

    def line_view(self, xi):
        return ProductLineView([f.line_view(xi) for f in self.factors])

    def log_value_at(self, z):
        return sum(f.log_value_at(z) for f in self.factors)

    def scale_q(self, factors):
        return ProductSlice([f.scale_q(factors) for f in self.factors])


class QuotientSlice(SliceFunction):
    def __init__(self, num: SliceFunction, den: SliceFunction):
        if num.nvars != den.nvars:
            raise UsageError("variable count mismatch")
        self.num = num
        self.den = den
        self.nvars = num.nvars

    def line_view(self, xi):
        return QuotientLineView(self.num.line_view(xi), self.den.line_view(xi))

    def log_value_at(self, z):
        return self.num.log_value_at(z) - self.den.log_value_at(z)

    def scale_q(self, factors):
        return QuotientSlice(self.num.scale_q(factors),
                             self.den.scale_q(factors))


class CompositionSlice(SliceFunction):
    """A homogeneous form evaluated on slice-function components.

    Used when the components are not all rational, so the result is only
    available through log-domain evaluation (entire whenever the
    components are entire, which keeps Jensen counting available).
    """

    def __init__(self, coeffs: Sequence[Tuple[complex, Tuple[int, ...]]],
                 components: Sequence[SliceFunction]):
        self.coeffs = list(coeffs)
        self.components = list(components)
        self.nvars = components[0].nvars

    def line_view(self, xi):
        return FormCompositionLineView(
            self.coeffs, [c.line_view(xi) for c in self.components])

    def log_value_at(self, z):
        logs = [c.log_value_at(z) for c in self.components]
        total = 0j
        for c, exps in self.coeffs:
            t = complex(np.log(complex(c))) if c else complex("-inf")
            for lv, e in zip(logs, exps):
                t += e * lv
            total += np.exp(t)
        with np.errstate(divide="ignore"):
            return complex(np.log(complex(total)))

    def scale_q(self, factors):
        return CompositionSlice(self.coeffs,
                                [c.scale_q(factors) for c in self.components])


def constant_slice(c, nvars: int) -> RationalSlice:
    return RationalSlice(RationalFunction.constant(c, nvars))


def as_slice(obj, nvars: Optional[int] = None) -> SliceFunction:
    if isinstance(obj, SliceFunction):
        return obj
    if isinstance(obj, (Polynomial, RationalFunction)):
        return RationalSlice(obj)
    if isinstance(obj, QPochhammerSpec):
        return ProductEntireSlice(obj)
    if nvars is not None:
        return constant_slice(obj, nvars)
    raise UsageError(f"cannot interpret {obj!r} as a slice function")


# ---------------------------------------------------------------------------
# projective maps
# ---------------------------------------------------------------------------

class ProjectiveMap:
    """[f0 : ... : fn] with slice-function components."""

    def __init__(self, components: Sequence[SliceFunction],
                 reduced: bool = False):
        comps = [c if isinstance(c, SliceFunction) else as_slice(c)
                 for c in components]
        if not comps:
            raise UsageError("map needs at least one component")
        self.components = comps
        self.nvars = comps[0].nvars
        if any(c.nvars != self.nvars for c in comps):
            raise UsageError("variable count mismatch among components")
        self.reduced = reduced

    @property
    def n(self) -> int:
        return len(self.components) - 1

    def is_polynomial(self) -> bool:
        return all(isinstance(c, RationalSlice) and c.is_polynomial()
                   for c in self.components)

    def polynomials(self) -> List[Polynomial]:
        if not self.is_polynomial():
            raise UsageError("map components are not all polynomial")
        out = []
        for c in self.components:
            d = c.rf.den.constant_value()
            out.append(c.rf.num if d == 1 else c.rf.num.scale(ONE / d))
        return out

    def scale_q(self, factors) -> "ProjectiveMap":
        return ProjectiveMap([c.scale_q(factors) for c in self.components],
                             reduced=self.reduced)

    def __repr__(self):
        return f"ProjectiveMap({self.components!r})"


def reduce_representation(components: Sequence[Polynomial]) -> ProjectiveMap:
    comps = [c if isinstance(c, Polynomial) else c for c in components]
    if all(c.is_zero() for c in comps):
        raise UsageError("all components identically zero")
    nz = [c for c in comps if not c.is_zero()]
    g = nz[0]
    for c in nz[1:]:
        g = poly_gcd(g, c)
        if g.is_constant():
            break
    if not g.is_constant():
        comps = [Polynomial.zero(c.nvars) if c.is_zero() else try_divide(c, g)
                 for c in comps]
    return ProjectiveMap([RationalSlice(c) for c in comps], reduced=True)


# ---------------------------------------------------------------------------
# homogeneous forms
# ---------------------------------------------------------------------------

class HomogeneousForm:
    """sum_{|I| = d} a_I x^I in n+1 projective coordinates."""

    def __init__(self, nplus1: int, degree: int, terms: dict):
        self.nplus1 = nplus1
        self.degree = degree
        cleaned = {}
        for exps, c in terms.items():
            exps = tuple(exps)
            if len(exps) != nplus1:
                raise UsageError("exponent tuple length must be n+1")
            if sum(exps) != degree:
                raise UsageError(
                    f"term {exps} is not homogeneous of degree {degree}")
            c = GaussianRational.from_value(c)
            if c:
                cleaned[exps] = c
        if not cleaned:
            raise UsageError("form is identically zero")
        self.terms = cleaned

    @classmethod
    def from_polynomial(cls, p: Polynomial,
                        degree: Optional[int] = None) -> "HomogeneousForm":
        if not p.is_homogeneous() or p.is_zero():
            raise UsageError("polynomial is not a nonzero homogeneous form")
        d = p.total_degree() if degree is None else degree
        return cls(p.nvars, d, dict(p.terms))

    @classmethod
    def hyperplane(cls, coeffs: Sequence) -> "HomogeneousForm":
        n1 = len(coeffs)
        terms = {}
        for i, c in enumerate(coeffs):
            e = [0] * n1
            e[i] = 1
            terms[tuple(e)] = c
        return cls(n1, 1, terms)

    def to_polynomial(self) -> Polynomial:
        return Polynomial(self.nplus1, dict(self.terms))

    def coeff_vector(self) -> np.ndarray:
        """For hyperplanes: the vector (a_0, ..., a_n)."""
        if self.degree != 1:
            raise UsageError("coefficient vector only defined for degree 1")
        out = np.zeros(self.nplus1, dtype=complex)
        for e, c in self.terms.items():
            out[e.index(1)] = c.to_complex()
        return out

    def scale(self, c) -> "HomogeneousForm":
        return HomogeneousForm(
            self.nplus1, self.degree,
            {e: v * GaussianRational.from_value(c)
             for e, v in self.terms.items()})

    def __pow__(self, k: int) -> "HomogeneousForm":
        return HomogeneousForm.from_polynomial(self.to_polynomial() ** k)

    def __repr__(self):
        return f"HomogeneousForm(deg={self.degree}, {self.to_polynomial()!r})"


def apply_form(D: HomogeneousForm, f: ProjectiveMap) -> SliceFunction:
    """The composition D(f0, ..., fn)."""
    if D.nplus1 != f.n + 1:
        raise UsageError(
            f"form has {D.nplus1} coordinates, map has {f.n + 1} components")
    if all(c.is_rational() for c in f.components):
        out = RationalFunction(Polynomial.zero(f.nvars))
        for e, a in D.terms.items():
            term = RationalFunction.constant(a, f.nvars)
            for comp, k in zip(f.components, e):
                if k:
                    term = term * comp.rf ** k
            out = out + term
        return RationalSlice(out)
    coeffs = [(a.to_complex(), e) for e, a in D.terms.items()]
    return CompositionSlice(coeffs, f.components)


# ---------------------------------------------------------------------------
# general position / graded slice dimensions
# ---------------------------------------------------------------------------

def monomials_of_degree(nvars: int, degree: int) -> List[Tuple[int, ...]]:
    """All exponent tuples of total degree exactly `degree`, lex-descending."""
    if degree < 0:
        return []
    out = []
    for combo in itertools.combinations_with_replacement(range(nvars), degree):
        e = [0] * nvars
        for i in combo:
            e[i] += 1
        out.append(tuple(e))
    out.sort(reverse=True)
    return out


def ideal_slice_dim(gammas: Sequence[HomogeneousForm], alpha: int) -> int:
    """dim of span{gamma_j * mu : deg mu = alpha - deg gamma_j} in V_alpha."""
    if alpha < 0:
        raise UsageError("alpha must be nonnegative")
    if not gammas:
        return 0
    n1 = gammas[0].nplus1
    if any(g.nplus1 != n1 for g in gammas):
        raise UsageError("forms live in different coordinate counts")
    ech = SparseEchelon()
    for g in gammas:
        gp = g.to_polynomial()
        for mu in monomials_of_degree(n1, alpha - g.degree):
            row = (gp * Polynomial.monomial(mu)).terms
            ech.add(dict(row))
    return ech.rank


def quotient_dim(gammas: Sequence[HomogeneousForm], alpha: int,
                 nplus1: Optional[int] = None) -> int:
    """dim V_alpha / (ideal slice)."""
    n1 = gammas[0].nplus1 if gammas else nplus1
    if n1 is None:
        raise UsageError("need coordinate count for an empty form set")
    total = math.comb(alpha + n1 - 1, n1 - 1)
    return total - ideal_slice_dim(gammas, alpha)


def check_general_position(forms: Sequence[HomogeneousForm],
                           n: int) -> Tuple[bool, Optional[Tuple[int, ...]]]:
    """True iff every (n+1)-subset has empty common zero locus in P^n.

    Emptiness of a subset is decided by the graded quotient reaching
    dimension zero at the degree bound sum(d_j - 1) + 1.  When false, the
    witness is the index tuple of a failing subset.
    """
    forms = list(forms)
    if len(forms) < n + 1:
        raise UsageError(f"need at least {n + 1} forms")
    if any(g.nplus1 != n + 1 for g in forms):
        raise UsageError("every form must have n+1 coordinates")
    for subset in itertools.combinations(range(len(forms)), n + 1):
        gs = [forms[i] for i in subset]
        bound = sum(g.degree - 1 for g in gs) + 1
        alpha = max(bound, max(g.degree for g in gs))
        if quotient_dim(gs, alpha) != 0:
            return False, subset
    return True, None
