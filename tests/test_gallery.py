"""Gallery plumbing: case registry and selection."""

import pytest

from nevlab.errors import UsageError
from nevlab.gallery import CASES, run_all


def test_case_names_unique_and_tagged():
    names = [c.name for c in CASES]
    assert len(names) == len(set(names))
    assert all(c.tag in ("closed-form", "oracle", "cross-check")
               for c in CASES)


def test_run_single_case():
    [(name, ok, detail, tag)] = run_all(["casorati_vandermonde"])
    assert name == "casorati_vandermonde"
    assert ok, detail
    assert tag == "oracle"


def test_run_selected_cases():
    results = run_all(["picard_rigidity", "dependence_oracle"])
    assert [r[0] for r in results] == ["picard_rigidity", "dependence_oracle"]
    assert all(ok for _, ok, _, _ in results)


def test_unknown_name_rejected():
    with pytest.raises(UsageError):
        run_all(["no_such_case"])
