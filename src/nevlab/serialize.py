"""JSON schemas for the on-disk objects and the run configuration.

Rational coefficients travel as decimal-free "p/q" strings so every
round trip is bit exact.  All loaders raise UsageError naming the
offending field.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import List, Optional

from .errors import UsageError
from .funcspace import (HomogeneousForm, ProductEntireSlice, ProductSlice,
                        ProjectiveMap, QPochhammerSpec, QuotientSlice,
                        RationalSlice, SliceFunction, reduce_representation)
from .nevcore import QuadratureSpec, RadialGrid
from .polynomials import Polynomial, RationalFunction
from .qops import QShift
from .rationals import GaussianRational

SCHEMA_VERSION = "nevlab-run/1"


def _fail(path: str, msg: str):
    raise UsageError(f"{path}: {msg}")


def _frac(value, path: str) -> Fraction:
    try:
        if isinstance(value, bool):
            raise ValueError
        if isinstance(value, (int, str)):
            return Fraction(value)
    except (ValueError, ZeroDivisionError):
        pass
    _fail(path, f'expected an integer or a "p/q" string, got {value!r}')


# ---------------------------------------------------------------------------
# polynomials and forms
# ---------------------------------------------------------------------------

def polynomial_to_json(p: Polynomial) -> dict:
    terms = [{"exps": list(e), "re": str(c.re), "im": str(c.im)}
             for e, c in sorted(p.terms.items())]
    return {"nvars": p.nvars, "terms": terms}


def polynomial_from_json(obj, path: str = "polynomial") -> Polynomial:
    if not isinstance(obj, dict) or "nvars" not in obj:
        _fail(path, "expected an object with nvars and terms")
    nvars = obj["nvars"]
    if not isinstance(nvars, int) or nvars < 1:
        _fail(path + ".nvars", "must be a positive integer")
    terms_json = obj.get("terms", [])
    if not isinstance(terms_json, list):
        _fail(path + ".terms", "expected a list of terms")
    terms = {}
    for i, t in enumerate(terms_json):
        tp = f"{path}.terms[{i}]"
        if not isinstance(t, dict):
            _fail(tp, "expected an object with exps, re and im")
        exps = t.get("exps")
        if (not isinstance(exps, list) or len(exps) != nvars
                or any(not isinstance(e, int) or e < 0 for e in exps)):
            _fail(tp + ".exps", f"expected {nvars} nonnegative integers")
        c = GaussianRational(_frac(t.get("re", 0), tp + ".re"),
                             _frac(t.get("im", 0), tp + ".im"))
        if c:
            prev = terms.get(tuple(exps))
            terms[tuple(exps)] = c if prev is None else prev + c
    return Polynomial(nvars, terms)


def form_from_json(obj, path: str = "form") -> HomogeneousForm:
    p = polynomial_from_json(obj, path)
    degree = obj.get("degree")
    if degree is not None and not isinstance(degree, int):
        _fail(path + ".degree", "must be an integer")
    try:
        D = HomogeneousForm.from_polynomial(p)
    except UsageError as exc:
        _fail(path, str(exc))
    if degree is not None and degree != D.degree:
        _fail(path + ".degree",
              f"declared {degree} but the terms have degree {D.degree}")
    return D


# ---------------------------------------------------------------------------
# slice functions and maps
# ---------------------------------------------------------------------------

def _base_entry(value, path: str):
    """One slot of a complex pair: number or "p/q" string."""
    if isinstance(value, str):
        return _frac(value, path)
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return value
    _fail(path, f"expected a number or a fraction string, got {value!r}")


def _complex_pair(obj, path: str):
    if not isinstance(obj, list) or len(obj) != 2:
        _fail(path, "expected a [re, im] pair")
    re = _base_entry(obj[0], path + "[0]")
    im = _base_entry(obj[1], path + "[1]")
    if isinstance(re, Fraction) and isinstance(im, Fraction):
        return GaussianRational(re, im)
    return complex(float(re), float(im))


def product_entire_from_json(obj, path: str = "product") -> ProductEntireSlice:
    qbase = _complex_pair(obj.get("qbase"), path + ".qbase")
    linear = polynomial_from_json(obj.get("linear"), path + ".linear")
    if isinstance(qbase, GaussianRational):
        qbase = Fraction(qbase.re) if not qbase.im else qbase.to_complex()
    try:
        return ProductEntireSlice(QPochhammerSpec(qbase, linear))
    except UsageError as exc:
        _fail(path, str(exc))


def component_from_json(obj, path: str = "component") -> SliceFunction:
    if not isinstance(obj, dict):
        _fail(path, "expected an object")
    if "qbase" in obj:
        return product_entire_from_json(obj, path)
    if "quotient" in obj:
        q = obj["quotient"]
        if not isinstance(q, dict) or "num" not in q or "den" not in q:
            _fail(path + ".quotient", "expected num and den components")
        return QuotientSlice(component_from_json(q["num"], path + ".quotient.num"),
                             component_from_json(q["den"], path + ".quotient.den"))
    if "product" in obj:
        fs = obj["product"]
        if not isinstance(fs, list) or not fs:
            _fail(path + ".product", "expected a nonempty list")
        return ProductSlice([component_from_json(c, f"{path}.product[{i}]")
                             for i, c in enumerate(fs)])
    if "num" in obj or "den" in obj:
        num = polynomial_from_json(obj.get("num"), path + ".num")
        den = (polynomial_from_json(obj["den"], path + ".den")
               if "den" in obj else Polynomial.constant(1, num.nvars))
        try:
            return RationalSlice(RationalFunction(num, den))
        except UsageError as exc:
            _fail(path, str(exc))
    if "terms" in obj:
        return RationalSlice(polynomial_from_json(obj, path))
    _fail(path, "unrecognized component: expected polynomial terms, "
          "num/den, qbase, quotient, or product")


def map_from_json(obj, path: str = "map") -> ProjectiveMap:
    if not isinstance(obj, dict) or "components" not in obj:
        _fail(path, "expected an object with components")
    comps_json = obj["components"]
    if not isinstance(comps_json, list) or not comps_json:
        _fail(path + ".components", "expected a nonempty list")
    comps = [component_from_json(c, f"{path}.components[{i}]")
             for i, c in enumerate(comps_json)]
    reduce_flag = obj.get("reduce", False)
    if not isinstance(reduce_flag, bool):
        _fail(path + ".reduce", "must be a boolean")
    f = ProjectiveMap(comps)
    if reduce_flag:
        if not f.is_polynomial():
            _fail(path + ".reduce",
                  "reduction is only supported for polynomial components")
        return reduce_representation(f.polynomials())
    return f


# ---------------------------------------------------------------------------
# rescalings, grids, quadrature
# ---------------------------------------------------------------------------

def qshift_from_json(obj, path: str = "q") -> QShift:
    if not isinstance(obj, dict) or "q" not in obj:
        _fail(path, "expected an object with q")
    entries_json = obj["q"]
    if not isinstance(entries_json, list) or not entries_json:
        _fail(path + ".q", "expected a nonempty list of [re, im] pairs")
    entries = [_complex_pair(pair, f"{path}.q[{i}]")
               for i, pair in enumerate(entries_json)]
    if not all(isinstance(e, GaussianRational) for e in entries):
        entries = [e.to_complex() if isinstance(e, GaussianRational) else e
                   for e in entries]
    try:
        q = QShift(entries)
    except UsageError as exc:
        _fail(path, str(exc))
    declared = obj.get("diagonal")
    if declared is not None and declared != q.diagonal:
        _fail(path + ".diagonal", f"declared {declared} but the entries "
              f"are {'diagonal' if q.diagonal else 'not diagonal'}")
    return q


def grid_from_json(obj, path: str = "grid") -> RadialGrid:
    try:
        if isinstance(obj, str):
            return RadialGrid.parse(obj)
        if isinstance(obj, list):
            return RadialGrid(tuple(float(r) for r in obj))
        if isinstance(obj, dict) and "radii" in obj:
            return RadialGrid(tuple(float(r) for r in obj["radii"]))
    except (UsageError, ValueError, TypeError) as exc:
        _fail(path, str(exc))
    _fail(path, 'expected "r0:r1:steps[:log|lin]", a radius list, '
          'or {"radii": [...]}')


def quad_from_json(obj, path: str = "quad") -> QuadratureSpec:
    if obj is None:
        return QuadratureSpec()
    if not isinstance(obj, dict):
        _fail(path, "expected an object")
    kwargs = {}
    for key, attr in (("lines", "n_lines"), ("theta", "n_theta"),
                      ("seed", "seed"), ("resample_limit", "resample_limit")):
        if key in obj:
            v = obj[key]
            if not isinstance(v, int) or isinstance(v, bool):
                _fail(f"{path}.{key}", "must be an integer")
            kwargs[attr] = v
    try:
        return QuadratureSpec(**kwargs)
    except UsageError as exc:
        _fail(path, str(exc))


# ---------------------------------------------------------------------------
# q-difference polynomials
# ---------------------------------------------------------------------------

def qdiff_from_json(obj, path: str = "qdiff"):
    from .verifier import QDiffPolynomial, QDiffTerm
    if not isinstance(obj, dict) or "nvars" not in obj:
        _fail(path, "expected an object with nvars and terms")
    nvars = obj["nvars"]
    if not isinstance(nvars, int) or nvars < 1:
        _fail(path + ".nvars", "must be a positive integer")
    terms = []
    for i, t in enumerate(obj.get("terms", [])):
        tp = f"{path}.terms[{i}]"
        if not isinstance(t, dict):
            _fail(tp, "expected an object with coeff and factors")
        coeff = component_from_json(t.get("coeff"), tp + ".coeff")
        if coeff.nvars != nvars:
            _fail(tp + ".coeff", f"has {coeff.nvars} variables, "
                  f"expected {nvars}")
        factors = []
        for k, fct in enumerate(t.get("factors", [])):
            fp = f"{tp}.factors[{k}]"
            if not isinstance(fct, dict) or "q" not in fct:
                _fail(fp, "expected an object with q and exponent")
            qs = qshift_from_json({"q": fct["q"]}, fp + ".q")
            if qs.m != nvars:
                _fail(fp + ".q", f"has {qs.m} entries, expected {nvars}")
            e = fct.get("exponent", 1)
            if not isinstance(e, int) or e < 1:
                _fail(fp + ".exponent", "must be a positive integer")
            factors.append((qs, e))
        terms.append(QDiffTerm(coeff, factors))
    return QDiffPolynomial(terms, nvars)


# ---------------------------------------------------------------------------
# run configuration
# ---------------------------------------------------------------------------

@dataclass
class RunConfig:
    """One self-describing verification run loaded from run.json."""

    map: Optional[ProjectiveMap] = None
    forms: List[HomogeneousForm] = field(default_factory=list)
    q: Optional[QShift] = None
    alpha: Optional[int] = None
    grid: RadialGrid = RadialGrid((10.0, 100.0, 1000.0, 10000.0))
    quad: QuadratureSpec = QuadratureSpec()
    extra: dict = field(default_factory=dict)


def run_config_from_json(obj, path: str = "config") -> RunConfig:
    if not isinstance(obj, dict):
        _fail(path, "expected a JSON object")
    schema = obj.get("schema", SCHEMA_VERSION)
    if schema != SCHEMA_VERSION:
        _fail(path + ".schema",
              f"unsupported schema {schema!r}; this build reads "
              f"{SCHEMA_VERSION}")
    cfg = RunConfig()
    if "map" in obj:
        cfg.map = map_from_json(obj["map"], path + ".map")
    forms_json = obj.get("forms", obj.get("hyperplanes",
                                          obj.get("hypersurfaces")))
    if forms_json is not None:
        if not isinstance(forms_json, list):
            _fail(path + ".forms", "expected a list of forms")
        cfg.forms = [form_from_json(Dj, f"{path}.forms[{j}]")
                     for j, Dj in enumerate(forms_json)]
    if "q" in obj:
        qobj = obj["q"]
        cfg.q = qshift_from_json(
            qobj if isinstance(qobj, dict) else {"q": qobj}, path + ".q")
    if "alpha" in obj:
        if not isinstance(obj["alpha"], int) or obj["alpha"] < 1:
            _fail(path + ".alpha", "must be a positive integer")
        cfg.alpha = obj["alpha"]
    if "grid" in obj:
        cfg.grid = grid_from_json(obj["grid"], path + ".grid")
    if "quad" in obj:
        cfg.quad = quad_from_json(obj["quad"], path + ".quad")
    known = {"schema", "map", "forms", "hyperplanes", "hypersurfaces",
             "q", "alpha", "grid", "quad"}
    cfg.extra = {k: v for k, v in obj.items() if k not in known}
    return cfg


def load_json(path: str):
    """Parse a JSON file; a missing file or invalid JSON is a usage error."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise UsageError(f"file not found: {path}")
    except json.JSONDecodeError as exc:
        raise UsageError(f"{path}: invalid JSON ({exc})")


def load_run_config(file_path: str) -> RunConfig:
    return run_config_from_json(load_json(file_path), file_path)
