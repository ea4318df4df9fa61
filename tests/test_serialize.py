"""JSON round trips are bit-exact; malformed input names the bad field."""

import json
from fractions import Fraction

import pytest

from nevlab.errors import UsageError
from nevlab.funcspace import (HomogeneousForm, ProductEntireSlice,
                              QPochhammerSpec, RationalSlice)
from nevlab.polynomials import Polynomial, RationalFunction
from nevlab.qops import QShift
from nevlab.rationals import GaussianRational
from nevlab.serialize import (SCHEMA_VERSION, component_from_json,
                              form_from_json, grid_from_json, map_from_json,
                              polynomial_from_json, polynomial_to_json,
                              qdiff_from_json, qshift_from_json,
                              quad_from_json, run_config_from_json)
from nevlab.verifier import QDiffPolynomial, QDiffTerm
from oracles import (component_to_json, form_to_json, grid_to_json,
                     map_to_json, qdiff_to_json, qshift_to_json, quad_to_json)

Z = Polynomial.variable(0, 1)


def roundtrip_via_text(obj, to_json, from_json):
    return from_json(json.loads(json.dumps(to_json(obj))))


def test_polynomial_roundtrip_exact():
    p = Polynomial(2, {(3, 0): Fraction(22, 7),
                       (0, 1): GaussianRational(Fraction(-1, 3),
                                                Fraction(5, 9))})
    assert roundtrip_via_text(p, polynomial_to_json, polynomial_from_json) == p


def test_polynomial_duplicate_terms_accumulate():
    obj = {"nvars": 1, "terms": [
        {"exps": [1], "re": "1/2", "im": "0"},
        {"exps": [1], "re": "1/2", "im": "0"}]}
    assert polynomial_from_json(obj) == Z


def test_polynomial_rejects_floats():
    obj = {"nvars": 1, "terms": [{"exps": [1], "re": 0.5, "im": 0}]}
    with pytest.raises(UsageError, match="re"):
        polynomial_from_json(obj)


def test_polynomial_rejects_bad_exps():
    obj = {"nvars": 2, "terms": [{"exps": [1], "re": "1", "im": "0"}]}
    with pytest.raises(UsageError):
        polynomial_from_json(obj)


@pytest.mark.parametrize("terms, where", [
    ([[[1], ["1", "0"]]], r"polynomial\.terms\[0\]:"),
    ([{"exps": [1], "re": "1", "im": "0"}, "z"], r"polynomial\.terms\[1\]:"),
    ({"exps": [1], "re": "1", "im": "0"}, r"polynomial\.terms:"),
    ("z", r"polynomial\.terms:")])
def test_polynomial_rejects_malformed_terms(terms, where):
    # a term that is not an object, or terms that are not a list, name
    # their path instead of failing inside the reader
    with pytest.raises(UsageError, match=where):
        polynomial_from_json({"nvars": 1, "terms": terms})


def test_form_roundtrip_and_degree_check():
    D = HomogeneousForm(3, 2, {(0, 2, 0): 1, (1, 0, 1): -1})
    assert roundtrip_via_text(D, form_to_json, form_from_json).terms == D.terms
    bad = form_to_json(D)
    bad["degree"] = 3
    with pytest.raises(UsageError, match="degree"):
        form_from_json(bad)


def test_component_dispatch():
    r = component_from_json({"num": polynomial_to_json(Z),
                             "den": polynomial_to_json(Z - 2)})
    assert isinstance(r, RationalSlice)
    assert r.rf == RationalFunction(Z, Z - 2)
    p = component_from_json({"qbase": ["1/2", "0"],
                             "linear": polynomial_to_json(Z)})
    assert isinstance(p, ProductEntireSlice)


def test_component_roundtrip():
    h = ProductEntireSlice(QPochhammerSpec(Fraction(1, 2), Z.scale(3)))
    h2 = component_from_json(json.loads(json.dumps(component_to_json(h))))
    assert isinstance(h2, ProductEntireSlice)
    assert h2.spec.qbase == h.spec.qbase
    assert h2.spec.argument == h.spec.argument


def test_map_roundtrip_with_reduce():
    obj = {"components": [polynomial_to_json(Z * (Z + 1)),
                          polynomial_to_json(Z * (Z - 1))],
           "reduce": True}
    f = map_from_json(obj)
    assert f.polynomials() == [Z + 1, Z - 1]
    f2 = map_from_json(json.loads(json.dumps(map_to_json(f))))
    assert f2.polynomials() == f.polynomials()


def test_qshift_roundtrip():
    q = QShift([Fraction(21, 20)])
    q2 = roundtrip_via_text(q, qshift_to_json, qshift_from_json)
    assert q2.exact and q2.entries == q.entries
    qf = qshift_from_json({"q": [[2.0, 0.5]]})
    assert not qf.exact


def test_qshift_declared_diagonal_must_match_entries():
    q = {"q": [["2", "0"], ["3", "0"]]}
    assert not qshift_from_json(q).diagonal
    with pytest.raises(UsageError, match="diagonal"):
        qshift_from_json(dict(q, diagonal=True))
    assert qshift_from_json({"q": [["2", "0"], ["2", "0"]],
                             "diagonal": True}).diagonal


def test_grid_forms():
    g = grid_from_json("10:1000:3")
    assert roundtrip_via_text(g, grid_to_json, grid_from_json).radii == g.radii
    g2 = grid_from_json([2.0, 20.0, 200.0])
    assert g2.radii == (2.0, 20.0, 200.0)
    with pytest.raises(UsageError):
        grid_from_json("10:1000")


def test_quad_roundtrip():
    q = quad_from_json({"lines": 4, "theta": 32, "seed": 9})
    assert (q.n_lines, q.n_theta, q.seed) == (4, 32, 9)
    q2 = roundtrip_via_text(q, quad_to_json, quad_from_json)
    assert q2 == q


@pytest.mark.parametrize("key", ["seed", "resample_limit"])
def test_quad_rejects_negative_seed_and_resample_limit(key):
    with pytest.raises(UsageError, match=f"quad: {key} must be nonnegative"):
        quad_from_json({"lines": 4, "theta": 32, key: -1})
    assert getattr(quad_from_json({key: 0}), key) == 0


def test_qdiff_roundtrip():
    P = QDiffPolynomial(
        [QDiffTerm(Polynomial.constant(3, 1),
                   [(QShift([2]), 1), (QShift([1]), 2)])], 1)
    P2 = qdiff_from_json(json.loads(json.dumps(qdiff_to_json(P))))
    assert P2.total_degree() == P.total_degree()
    assert len(P2.terms) == 1
    assert P2.terms[0].factors[0][1] == 1
    assert P2.terms[0].factors[1][1] == 2


def test_run_config_schema_checks():
    base = {"schema": SCHEMA_VERSION,
            "map": {"components": [polynomial_to_json(Z)]},
            "q": {"q": [["2", "0"]]}}
    cfg = run_config_from_json(base)
    assert cfg.q.exact
    with pytest.raises(UsageError, match="schema"):
        run_config_from_json({**base, "schema": "other/9"})


def test_run_config_keeps_extras():
    base = {"schema": SCHEMA_VERSION,
            "q": {"q": [["2", "0"]]},
            "w": polynomial_to_json(Z)}
    cfg = run_config_from_json(base)
    assert "w" in cfg.extra
