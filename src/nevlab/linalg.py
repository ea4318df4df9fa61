"""Incremental sparse echelon form over the Gaussian integers.

`SparseEchelon.add` takes a row as a dict from column keys (anything
orderable, typically monomial exponent tuples) to GaussianRational
coefficients, as the filtration and ideal-slice code build them.  It clears
the row's denominators once, by their lcm, and from then on holds each
entry as an (re, im) pair of Python ints; no Fraction is built in the
elimination loop, and the rank is exact.

A pivot is keyed by its leading (largest) column.  It is stored primitive
(the integer gcd of all its parts is 1) and with a positive integer leading
entry p: a new pivot is multiplied by the conjugate of its lead.  A row
whose entry in that column is r is reduced fraction-free, row <- p*row -
r*piv (p and r first divided by their common gcd), and then divided by the
integer gcd of all its parts.  Since p is a rational integer, the row stays
a rational multiple of the row that elimination over Q(i) gives, so the gcd
keeps its entries that small.  A non-real p would leave Gaussian factors
that the integer gcd cannot remove, and the entries would grow
exponentially with the rank.
"""

from __future__ import annotations

import math
from typing import Dict, Hashable


def _primitive(row: dict) -> dict:
    """row divided by the integer gcd of all its parts."""
    # one entry at a time, not gcd(*parts): that would build an argument
    # tuple of each row length, and CPython keeps up to 2000 tuples of
    # every size below 20 on free lists, which raised the peak RSS
    g = 0
    for a, b in row.values():
        g = math.gcd(g, a, b)
        if g == 1:
            return row
    return {c: (a // g, b // g) for c, (a, b) in row.items()}


class SparseEchelon:
    """Maintains a set of primitive pivot rows; add() is online."""

    def __init__(self):
        self.pivots: Dict[Hashable, dict] = {}

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def add(self, row: dict) -> bool:
        """Insert a row of GaussianRational entries; True iff it increased
        the rank."""
        row = {c: v for c, v in row.items() if v}
        if not row:
            return False
        den = 1
        for v in row.values():
            den = math.lcm(den, v.re.denominator, v.im.denominator)
        row = _primitive({c: (v.re.numerator * (den // v.re.denominator),
                              v.im.numerator * (den // v.im.denominator))
                          for c, v in row.items()})
        while True:
            lead = max(row)
            piv = self.pivots.get(lead)
            if piv is None:
                a, b = row[lead]
                g = math.gcd(a, b)
                ur, ui = a // g, -b // g
                self.pivots[lead] = _primitive(
                    {c: (ur * x - ui * y, ur * y + ui * x)
                     for c, (x, y) in row.items()})
                return True
            p = piv[lead][0]
            rr, ri = row[lead]
            g = math.gcd(p, rr, ri)
            p, rr, ri = p // g, rr // g, ri // g
            new = row.copy() if p == 1 else \
                {c: (p * a, p * b) for c, (a, b) in row.items()}
            for c, (a, b) in piv.items():
                x, y = new.get(c, (0, 0))
                x -= rr * a - ri * b
                y -= rr * b + ri * a
                if x or y:
                    new[c] = (x, y)
                else:
                    new.pop(c, None)
            if not new:
                return False
            row = _primitive(new)
