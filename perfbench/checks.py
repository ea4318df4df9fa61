"""Output checks, one per op kind.

Each check takes the exit code, the captured stdout and the op, and returns
None when the output is right or a one-line reason when it is not.  Every
check holds for any seed the generators can draw: it tests an identity or an
invariant of the report, never a value recorded from an earlier run.
"""

from __future__ import annotations

import json
import math
import random
from typing import Callable, Dict, List, Optional

import numpy as np

from workloads import Op, eval_poly

REL = 1e-9


def _finite(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) \
        and math.isfinite(x)


def _close(a: float, b: float, rel: float = REL) -> bool:
    return abs(a - b) <= rel * (1.0 + abs(a) + abs(b))


def _smt_rows(rep: dict, op: Op) -> Optional[str]:
    """Shared by the three inequality harnesses: every hypothesis verified,
    one finite row per radius with margin = rhs - lhs, T nondecreasing."""
    bad = [k for k, v in rep["hypotheses"].items() if v["ok"] is not True]
    if bad or rep["report_only"]:
        return f"hypotheses not verified: {bad}"
    rows = rep["rows"]
    if len(rows) != op.ctx["grid_len"]:
        return f"{len(rows)} rows for a {op.ctx['grid_len']}-radius grid"
    for row in rows:
        if not all(_finite(row[k]) for k in ("r", "lhs", "rhs", "margin",
                                             "err")):
            return f"non-finite row {row}"
        if row["err"] < 0:
            return f"negative err at r={row['r']}"
        if not _close(row["margin"], row["rhs"] - row["lhs"]):
            return f"margin != rhs - lhs at r={row['r']}"
    t = rep["t_values"]
    if len(t) != len(rows) or not all(_finite(x) for x in t):
        return "t_values missing or non-finite"
    for i in range(1, len(t)):
        if t[i] < t[i - 1] - rows[i]["err"] - rows[i - 1]["err"]:
            return f"T decreases between r={rows[i - 1]['r']} and " \
                   f"r={rows[i]['r']}"
    return None


def _filtration_levels(levels: List[dict], alpha: int, n: int, delta,
                       key_dim: str, key_q: str) -> Optional[str]:
    """sum of Delta_(i) = M = C(alpha+n, n); Delta_j equal over j and equal
    to the reported Delta; W_(i) nonincreasing from dim V_alpha."""
    M = math.comb(alpha + n, n)
    total = sum(lv[key_q] for lv in levels)
    if total != M:
        return f"sum of Delta_(i) is {total}, expected M = {M}"
    deltas = [sum(lv["tuple"][j] * lv[key_q] for lv in levels)
              for j in range(n)]
    if len(set(deltas)) != 1 or deltas[0] != delta:
        return f"Delta_j = {deltas}, reported Delta = {delta}"
    dims = [lv[key_dim] for lv in levels]
    if dims[0] != M or any(b > a for a, b in zip(dims, dims[1:])):
        return f"W_(i) dims not nonincreasing from {M}: {dims[:6]}..."
    return None


def check_hypersurface(code: int, out: str, op: Op) -> Optional[str]:
    if code != 0:
        return f"exit {code}"
    rep = json.loads(out)
    why = _smt_rows(rep, op)
    if why:
        return why
    filt = rep["extra"]["filtration"]
    alpha, n = op.ctx["alpha"], op.ctx["n"]
    if filt["alpha"] != alpha or filt["M"] != math.comb(alpha + n, n):
        return f"filtration alpha/M = {filt['alpha']}/{filt['M']}"
    why = _filtration_levels(filt["levels"], alpha, n, filt["delta"],
                             "space_dim", "quotient_dim")
    if why:
        return why
    if not _close(rep["extra"]["coeff_exact"], 1.0 / filt["delta"], 1e-15):
        return f"coeff_exact {rep['extra']['coeff_exact']} != 1/Delta " \
               f"(Delta = {filt['delta']})"
    return None


def check_smt(code: int, out: str, op: Op) -> Optional[str]:
    if code != 0:
        return f"exit {code}"
    return _smt_rows(json.loads(out), op)


def check_gundersen(code: int, out: str, op: Op) -> Optional[str]:
    """The counting identity holds up to a constant: the residual may not
    drift across radii by more than 1e-4 + the largest row err."""
    if code != 0:
        return f"exit {code}"
    rep = json.loads(out)
    rows = rep["rows"]
    if len(rows) != op.ctx["grid_len"]:
        return f"{len(rows)} rows for a {op.ctx['grid_len']}-radius grid"
    if not all(_finite(r["residual"]) and _finite(r["err"]) for r in rows):
        return "non-finite residual or err"
    res = [r["residual"] for r in rows]
    spread = max(res) - min(res)
    tol = 1e-4 + max(r["err"] for r in rows)
    if not _close(spread, rep["residual_spread"]):
        return "reported residual_spread disagrees with the rows"
    if spread > tol:
        return f"residual drifts by {spread:.3g} > {tol:.3g}"
    return None


def check_nev(code: int, out: str, op: Op) -> Optional[str]:
    """CSV r,m,N_zero,N_pole,T,err with T = m + N_pole on every row, and
    counting functions that grow like the input's degrees: a line meets
    the zeros of num in at most deg(num) points, so between radii r1 < r2
    N_zero rises by 0 to deg(num) log(r2/r1), and N_pole likewise with
    deg(den), up to the two rows' err."""
    if code != 0:
        return f"exit {code}"
    lines = out.strip().splitlines()
    if lines[0] != "r,m,N_zero,N_pole,T,err":
        return f"unexpected header {lines[0]!r}"
    rows = [[float(x) for x in ln.split(",")] for ln in lines[1:]]
    if len(rows) != op.ctx["grid_len"]:
        return f"{len(rows)} rows for a {op.ctx['grid_len']}-radius grid"
    for r, m, nz, npole, t, err in rows:
        if not all(math.isfinite(x) for x in (r, m, nz, npole, t, err)):
            return f"non-finite row at r={r}"
        if min(m, nz, npole, err) < -1e-12:
            return f"negative m, N or err at r={r}"
        if not _close(t, m + npole):
            return f"T != m + N_pole at r={r}"
    for prev, row in zip(rows, rows[1:]):
        tol = 1e-9 + prev[5] + row[5]
        span = math.log(row[0] / prev[0])
        for col, deg, what in ((2, op.ctx["deg_num"], "N_zero"),
                               (3, op.ctx["deg_den"], "N_pole")):
            rise = row[col] - prev[col]
            if not -tol <= rise <= deg * span + tol:
                return f"{what} rises by {rise:.6g} from r={prev[0]:g} to " \
                       f"r={row[0]:g}, outside [0, {deg} log(r2/r1)]"
    return None


def check_filtration(code: int, out: str, op: Op) -> Optional[str]:
    if code != 0:
        return f"exit {code}"
    rep = json.loads(out)
    alpha, n = op.ctx["alpha"], op.ctx["n"]
    if rep["alpha"] != alpha or rep["M"] != math.comb(alpha + n, n):
        return f"alpha/M = {rep['alpha']}/{rep['M']}"
    return _filtration_levels(rep["levels"], alpha, n, rep["delta"],
                              "dim", "quotient")


def check_hilbert(code: int, out: str, op: Op) -> Optional[str]:
    """Two plane curves of degree d meeting in finitely many points: the
    quotient dimension stabilizes at d^2 (Bezout)."""
    if code != 0:
        return f"exit {code}"
    rep = json.loads(out)
    d = op.ctx["d"]
    if rep["is_zero_dim"] is not True or rep["stable_value"] != d * d:
        return f"zero_dim={rep['is_zero_dim']}, stable value " \
               f"{rep['stable_value']} != {d * d}"
    return None


def check_casorati(code: int, out: str, op: Op) -> Optional[str]:
    """The exact det[f_j(q^k z)] agrees with numpy.linalg.det of the same
    matrix, evaluated independently from the input map, at random points."""
    if code != 0:
        return f"exit {code}"
    rep = json.loads(out)
    if rep["kind"] != "rational":
        return f"kind {rep['kind']!r}, expected an exact determinant"
    comps = op.ctx["map"]["components"]
    q = op.ctx["q"]
    n = len(comps)
    rng = random.Random(op.ctx["seed"])
    checked = 0
    while checked < 3:
        z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        num, den = (np.array([[eval_poly(c[part], [q ** k * z])
                               for c in comps] for k in range(n)])
                    for part in ("num", "den"))
        den_r = eval_poly(rep["den"], [z])
        if min(np.abs(den).min(), abs(den_r)) < 1e-3:
            continue  # too close to a pole for a fair comparison
        mat = num / den
        ref = np.linalg.det(mat)
        got = eval_poly(rep["num"], [z]) / den_r
        scale = float(np.prod(np.linalg.norm(mat, axis=1)))
        if abs(got - ref) > 1e-8 * scale:
            return f"det mismatch at z={z:.3f}: {got:.6g} vs {ref:.6g}"
        checked += 1
    return None


def check_nondegeneracy(code: int, out: str, op: Op) -> Optional[str]:
    """Independent rational components: the exact Casoratian is nonzero."""
    if code != 0:
        return f"exit {code}"
    rep = json.loads(out)
    if rep["nondegenerate"] is not True or rep["method"] != "symbolic":
        return f"nondegenerate={rep['nondegenerate']} by {rep['method']}"
    return None


CHECKS: Dict[str, Callable[[int, str, Op], Optional[str]]] = {
    "hypersurface": check_hypersurface,
    "cartan": check_smt,
    "hsmt": check_smt,
    "gundersen": check_gundersen,
    "nev": check_nev,
    "filtration": check_filtration,
    "hilbert": check_hilbert,
    "casorati": check_casorati,
    "nondegeneracy": check_nondegeneracy,
}


def check(code: int, out: str, op: Op) -> Optional[str]:
    """Reason the op's output is wrong, or None.  Malformed output is wrong."""
    try:
        return CHECKS[op.kind](code, out, op)
    except (ValueError, KeyError, TypeError, IndexError, ZeroDivisionError) \
            as exc:
        return f"malformed output ({type(exc).__name__}: {exc})"
