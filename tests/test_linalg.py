"""The Gaussian-integer echelon form against the Fraction-based oracle."""

import math
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from nevlab.linalg import SparseEchelon
from nevlab.rationals import GaussianRational, ZERO

from oracles import FractionEchelon

HEIGHT = 10 ** 9
COLUMNS = [(i, 5 - i) for i in range(6)]

parts = st.builds(Fraction, st.integers(-HEIGHT, HEIGHT),
                  st.integers(1, HEIGHT))
small = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
entries = st.one_of(st.builds(GaussianRational, parts, parts),
                    st.builds(GaussianRational, small, small),
                    st.builds(GaussianRational, small))


@st.composite
def stacks(draw):
    """Sparse rows: random ones (non-real entries up to height 1e9, or
    small ones that make ties and cancellations likely), zero rows, and
    exact combinations of earlier rows."""
    rows = []
    for _ in range(draw(st.integers(1, 9))):
        kind = draw(st.sampled_from(["random", "random", "zero", "combo"]))
        if kind == "zero":
            cols = draw(st.lists(st.sampled_from(COLUMNS), max_size=2))
            rows.append({c: ZERO for c in cols})
        elif kind == "combo" and rows:
            picks = draw(st.lists(
                st.tuples(st.integers(0, len(rows) - 1), entries),
                min_size=1, max_size=3))
            row = {}
            for i, k in picks:
                for c, v in rows[i].items():
                    row[c] = row.get(c, ZERO) + k * v
            rows.append(row)
        else:
            rows.append(draw(st.dictionaries(
                st.sampled_from(COLUMNS), entries, min_size=1,
                max_size=len(COLUMNS))))
    return rows


def _denominator_lcm(row):
    return math.lcm(*[x.denominator for v in row.values()
                      for x in (v.re, v.im)])


@settings(max_examples=150, deadline=None)
@given(stacks())
def test_add_matches_fraction_oracle(rows):
    ech, ref = SparseEchelon(), FractionEchelon()
    grew = [ech.add(dict(r)) for r in rows]
    assert grew == [ref.add(dict(r)) for r in rows]
    assert ech.rank == ref.rank == sum(grew)
    assert ech.pivots.keys() == ref.pivots.keys()
    for lead, piv in ech.pivots.items():
        assert math.gcd(*[x for pair in piv.values() for x in pair]) == 1
        # each pivot is the smallest positive-integer multiple of the
        # oracle's monic pivot with Gaussian-integer entries, so its
        # entries are no larger than exact elimination over Q(i) makes
        mono = ref.pivots[lead]
        scale = _denominator_lcm(mono)
        assert piv == {c: (int(v.re * scale), int(v.im * scale))
                       for c, v in mono.items()}


def test_zero_and_dependent_rows_do_not_grow_the_rank():
    i = GaussianRational(0, 1)
    a = {(2, 0): GaussianRational(Fraction(1, 3), 2), (1, 1): i,
         (0, 2): GaussianRational(-7)}
    b = {(1, 1): GaussianRational(Fraction(5, 7), Fraction(-2, 9)),
         (0, 2): ZERO}
    ech = SparseEchelon()
    assert ech.add(a) and ech.add(b)
    assert not ech.add({})
    assert not ech.add({(0, 2): ZERO})
    combo = {c: (1 + i) * a.get(c, ZERO) + Fraction(-3, 4) * b.get(c, ZERO)
             for c in set(a) | set(b)}
    assert not ech.add(combo)
    assert ech.rank == 2
    # a non-real lead is stored as a positive integer
    assert ech.pivots[(2, 0)][(2, 0)] == (37, 0)
