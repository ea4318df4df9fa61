"""Incremental sparse echelon form over exact scalars.

Rows are dicts mapping column keys (anything orderable, typically monomial
exponent tuples) to Fraction or GaussianRational coefficients.  The engine
supports the two questions the rest of the toolkit asks: "what is the rank
so far" and "does this row add anything new".
"""

from __future__ import annotations

from typing import Dict, Hashable


class SparseEchelon:
    """Maintains a reduced set of pivot rows; add() is online."""

    def __init__(self):
        self.pivots: Dict[Hashable, dict] = {}

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def reduce(self, row: dict) -> dict:
        """Eliminate existing pivots from a copy of row."""
        row = {c: v for c, v in row.items() if v}
        while row:
            lead = max(row)
            piv = self.pivots.get(lead)
            if piv is None:
                return row
            factor = row[lead]
            for c, v in piv.items():
                s = row.get(c)
                s = -factor * v if s is None else s - factor * v
                if s:
                    row[c] = s
                else:
                    row.pop(c, None)
        return row

    def add(self, row: dict) -> bool:
        """Insert a row; True iff it increased the rank."""
        row = self.reduce(row)
        if not row:
            return False
        lead = max(row)
        inv = row[lead]
        row = {c: v / inv for c, v in row.items()}
        self.pivots[lead] = row
        return True
