"""Graded filtration: enumeration, levels, and exact dimensions."""

import math

import pytest

from nevlab.filtration import (delta_totals, enumerate_tuples,
                               filtration_report, hilbert_stabilization,
                               lift_to_common_degree, quotient_check)
from nevlab.funcspace import HomogeneousForm


def lines():
    return [HomogeneousForm(3, 1, {(0, 1, 0): 1}),
            HomogeneousForm(3, 1, {(0, 0, 1): 1})]


def conics():
    return [HomogeneousForm(3, 2, {(0, 2, 0): 1, (1, 0, 1): -1}),
            HomogeneousForm(3, 2, {(0, 0, 2): 1, (1, 1, 0): -1})]


def test_enumerate_tuples_lex_and_count():
    t = enumerate_tuples(2, 4, 1)
    # all (i1, i2) with i1 + i2 <= 4, in lex order
    assert len(t) == 15
    assert t == sorted(t)
    assert len(set(t)) == 15
    t2 = enumerate_tuples(2, 5, 2)
    assert all(2 * sum(e) <= 5 for e in t2)


def test_hilbert_stabilization_values():
    hs = hilbert_stabilization(lines())
    assert hs.is_zero_dim is True
    assert hs.stable_value == 1
    hs2 = hilbert_stabilization(conics())
    assert hs2.is_zero_dim is True
    assert hs2.stable_value == 4


def test_lift_to_common_degree():
    mixed = [HomogeneousForm(3, 1, {(0, 1, 0): 1}), conics()[0]]
    lifted = lift_to_common_degree(mixed)
    assert all(g.degree == 2 for g in lifted)


def test_filtration_dimensions_lines():
    for alpha in (4, 8):
        rep = filtration_report(lines(), alpha)
        assert rep.M == math.comb(alpha + 2, 2)
        assert sum(lv.quotient_dim for lv in rep.levels) == rep.M
        assert len(set(rep.deltas_by_j)) == 1
        qc = quotient_check(rep.levels, alpha, 1, 2, rep.alpha0_empirical)
        assert qc.ok
        # d = 1: Delta_(i) = 1 on the guaranteed region
        for lv in rep.levels:
            if sum(lv.tuple) < alpha - rep.alpha0_empirical:
                assert lv.quotient_dim == 1


def test_filtration_dimensions_conics():
    rep = filtration_report(conics(), 4)
    assert rep.M == 15
    assert sum(lv.quotient_dim for lv in rep.levels) == 15
    for lv in rep.levels:
        if 2 * sum(lv.tuple) < 4 - rep.alpha0_empirical:
            assert lv.quotient_dim == 4
    assert rep.delta == 7


def test_known_delta_values():
    assert filtration_report(lines(), 4).delta == 20
    assert filtration_report(lines(), 8).delta == 120
    assert filtration_report(conics(), 8).delta == 50


def test_ratio_monotone_toward_limit():
    ratios = [filtration_report(conics(), a).ratio_malpha_delta
              for a in (8, 12, 16)]
    assert ratios[0] > ratios[1] > ratios[2]
    target = 2 * 3  # d (n+1)
    assert abs(ratios[-1] - target) <= 0.25 * target


def test_delta_totals_rejects_bad_levels():
    rep = filtration_report(lines(), 4)
    broken = list(rep.levels)
    broken[0] = type(broken[0])(broken[0].tuple, broken[0].space_dim,
                                broken[0].quotient_dim + 1)
    with pytest.raises(Exception):
        delta_totals(broken, 4, 1, 2)
