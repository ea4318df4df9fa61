"""Command-line front end.

Commands: nev, casorati, nondegeneracy, filtration inspect, hilbert,
verify <theorem>, partition, gallery.  Exit codes: 0 completed,
1 usage or schema error, 2 hypothesis failure (report-only result),
3 hard numeric failure.
Reports are byte-identical for identical config and seed.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import sys
from fractions import Fraction
from typing import List, Optional

import numpy as np

from .errors import HypothesisFailure, NevlabError, NumericError, UsageError
from .rationals import GaussianRational

CSV_HEADER = "r,m,N_zero,N_pole,T,err"


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _jsonable(obj):
    """Recursively convert report objects into JSON-safe structures."""
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else repr(obj)
    if isinstance(obj, complex):
        return [obj.real, obj.imag]
    if isinstance(obj, (Fraction,)):
        return str(obj)
    if isinstance(obj, GaussianRational):
        return {"re": str(obj.re), "im": str(obj.im)}
    if isinstance(obj, np.generic):
        return _jsonable(obj.item())
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: _jsonable(getattr(obj, f.name))
                for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return repr(obj)


def _emit(report: dict, out: Optional[str] = None,
          csv_lines: Optional[List[str]] = None):
    text = json.dumps(_jsonable(report), indent=2, sort_keys=True)
    print(text)
    if out:
        os.makedirs(out, exist_ok=True)
        with open(os.path.join(out, "report.json"), "w") as fh:
            fh.write(text + "\n")
        if csv_lines is not None:
            with open(os.path.join(out, "rows.csv"), "w") as fh:
                fh.write("\n".join(csv_lines) + "\n")


def _csv_row(*values) -> str:
    """One CSV line; repr(float(x)) keeps every digit and prints numpy
    scalars as plain numbers."""
    return ",".join(repr(float(x)) for x in values)


def _quad_from_args(args):
    from .nevcore import QuadratureSpec
    return QuadratureSpec(n_lines=args.lines, n_theta=args.theta,
                          seed=args.seed)


def _forms_file(path: str):
    from . import serialize as S
    obj = S.load_json(path)
    forms = obj.get("forms", obj) if isinstance(obj, dict) else obj
    if not isinstance(forms, list) or not forms:
        raise UsageError(f"{path}: expected a list of forms "
                         '(or {"forms": [...]})')
    return [S.form_from_json(Dj, f"{path}[{j}]")
            for j, Dj in enumerate(forms)]


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _cmd_nev(args) -> int:
    from . import serialize as S
    from .nevcore import RadialGrid, characteristic, characteristic_function
    grid = RadialGrid.parse(args.grid)
    quad = _quad_from_args(args)
    if bool(args.fn) == bool(args.map):
        raise UsageError("exactly one of --fn or --map is required")
    if args.fn:
        h = S.component_from_json(S.load_json(args.fn), args.fn)
        samples = characteristic_function(h, grid, quad)
    else:
        f = S.map_from_json(S.load_json(args.map), args.map)
        samples = characteristic(f, grid, quad)
        for s in samples:
            s.m_val = s.t_val  # a map has no pole decomposition
    lines = [CSV_HEADER]
    for s in samples:
        lines.append(_csv_row(s.r, s.m_val, s.n_zero, s.n_pole, s.t_val,
                              s.err))
    text = "\n".join(lines)
    print(text)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    return 0


def _cmd_casorati(args) -> int:
    from . import serialize as S
    from .funcspace import RationalSlice
    from .qops import (N_SAMPLES, _sample_points, casorati,
                       casorati_monomials, scaled_samples)
    f = S.map_from_json(S.load_json(args.map), args.map)
    q = S.qshift_from_json(S.load_json(args.q), args.q)
    det = (casorati_monomials(f, args.alpha, q) if args.alpha
           else casorati(f.components, q))
    if isinstance(det, RationalSlice):
        report = {"kind": "rational",
                  "num": S.polynomial_to_json(det.rf.num),
                  "den": S.polynomial_to_json(det.rf.den)}
    else:
        pts = _sample_points(f.nvars, N_SAMPLES, args.seed)
        mags = scaled_samples(det, pts).tolist()
        report = {"kind": "samples",
                  "samples": [{"z": [ [v.real, v.imag] for v in z ],
                               "scaled_magnitude": g}
                              for z, g in zip(pts, mags)]}
    _emit(report, args.out)
    return 0


def _cmd_nondegeneracy(args) -> int:
    from . import serialize as S
    from .qops import algebraic_nondegeneracy, linear_nondegeneracy
    f = S.map_from_json(S.load_json(args.map), args.map)
    q = S.qshift_from_json(S.load_json(args.q), args.q)
    if args.alpha:
        v = algebraic_nondegeneracy(f, args.alpha, q, seed=args.seed)
    else:
        v = linear_nondegeneracy(f, q, seed=args.seed)
    _emit({"nondegenerate": v.nondegenerate, "method": v.method,
           "note": v.note, "samples": v.samples}, args.out)
    return 0 if v.nondegenerate is not None else 2


def _cmd_filtration(args) -> int:
    from .filtration import filtration_report
    gammas = _forms_file(args.gammas)
    rep = filtration_report(gammas, args.alpha)
    report = {
        "alpha": rep.alpha, "d": rep.d, "M": rep.M,
        "alpha0": rep.alpha0_empirical, "delta": rep.delta,
        "levels": [{"tuple": list(lv.tuple), "dim": lv.space_dim,
                    "quotient": lv.quotient_dim} for lv in rep.levels],
        "ratios": {"malpha_over_delta": rep.ratio_malpha_delta,
                   "target": rep.ratio_target,
                   "inv_delta": rep.inv_delta,
                   "inv_delta_target": rep.inv_delta_target}}
    _emit(report, args.out)
    return 0


def _cmd_hilbert(args) -> int:
    from .filtration import hilbert_stabilization
    hs = hilbert_stabilization(_forms_file(args.gammas))
    _emit({"is_zero_dim": hs.is_zero_dim, "alpha0": hs.alpha0,
           "stable_value": hs.stable_value,
           "dims": [list(t) for t in hs.dims], "note": hs.note}, args.out)
    return 0 if hs.is_zero_dim is not None else 2


def _smt_report_dict(rep) -> dict:
    trend, trend_ok = rep.margin_trend()
    return {
        "theorem": rep.theorem,
        "hypotheses": {k: {"ok": v, "note": note}
                       for k, (v, note) in rep.hypotheses.items()},
        "report_only": rep.report_only,
        "verdict": rep.verdict(),
        "margin_mode": rep.margin_mode,
        "margin_trend": {"slope": trend, "ok": trend_ok},
        "rows": [dataclasses.asdict(row) for row in rep.rows],
        "t_values": rep.t_values,
        "extra": rep.extra,
    }


def _smt_csv(rep) -> List[str]:
    lines = ["r,lhs,rhs,margin,err"]
    for row in rep.rows:
        lines.append(_csv_row(row.r, row.lhs, row.rhs, row.margin, row.err))
    return lines


def _cmd_verify(args) -> int:
    from . import serialize as S
    from .verifier import (clunie_check, gundersen_hayman_identity,
                           picard_check, tumura_clunie_ratio,
                           verify_cartan_smt, verify_hsmt_weil,
                           verify_hypersurface_smt)
    cfg = S.load_run_config(args.config)
    theorem = args.theorem

    def need(field, value):
        if value is None or value == []:
            raise UsageError(f"{args.config}: '{field}' is required for "
                             f"verify {theorem}")
        return value

    if theorem == "clunie":
        U = S.qdiff_from_json(cfg.extra.get("U"), args.config + ":U")
        P = S.qdiff_from_json(cfg.extra.get("P"), args.config + ":P")
        Q = S.qdiff_from_json(cfg.extra.get("Q"), args.config + ":Q")
        w = S.component_from_json(cfg.extra.get("w"), args.config + ":w")
        rep = clunie_check(U, P, Q, w, need("q", cfg.q), cfg.grid, cfg.quad)
        _emit(_jsonable(rep), args.out,
              ["r,ratio,T"] + [_csv_row(*row) for row in
                               zip(rep.radii, rep.ratios, rep.t_values)])
        return 2 if rep.report_only else 0

    if theorem == "tumura":
        G = S.qdiff_from_json(cfg.extra.get("G"), args.config + ":G")
        f = S.component_from_json(cfg.extra.get("f"), args.config + ":f")
        rep = tumura_clunie_ratio(G, f, cfg.grid, cfg.quad)
        body = _jsonable(rep)
        body["floor_holds"] = rep.floor_holds()
        _emit(body, args.out,
              ["r,ratio,hypothesis_ratio,T"]
              + [_csv_row(*row) for row in
                 zip(rep.radii, rep.ratios, rep.hypothesis_ratios,
                     rep.t_values)])
        return 2 if rep.report_only else 0

    f = need("map", cfg.map)
    forms = need("forms/hyperplanes", cfg.forms)
    q = need("q", cfg.q)
    if theorem == "picard":
        rep = picard_check(f, forms, q)
        _emit(_jsonable(rep), args.out)
        return 2 if rep.failed else 0
    if theorem == "gundersen":
        samples = gundersen_hayman_identity(f, forms, q, cfg.grid, cfg.quad)
        spread = (max(s.m_val for s in samples)
                  - min(s.m_val for s in samples))
        report = {"theorem": "gundersen",
                  "rows": [{"r": s.r, "residual": s.m_val, "err": s.err}
                           for s in samples],
                  "residual_spread": spread}
        csv = ["r,residual,err"] + [_csv_row(s.r, s.m_val, s.err)
                                    for s in samples]
        _emit(report, args.out, csv)
        return 0
    if theorem == "hypersurface":
        rep = verify_hypersurface_smt(f, forms, q, need("alpha", cfg.alpha),
                                      cfg.grid, cfg.quad)
    else:
        harness = {"cartan": verify_cartan_smt, "hsmt": verify_hsmt_weil}
        rep = harness[theorem](f, forms, q, cfg.grid, cfg.quad)
    _emit(_smt_report_dict(rep), args.out, _smt_csv(rep))
    return 2 if rep.report_only else 0


def _cmd_partition(args) -> int:
    from . import serialize as S
    from .verifier import partition_by_q_ratio
    obj = S.load_json(args.components)
    comps_json = obj.get("components") if isinstance(obj, dict) else obj
    if not isinstance(comps_json, list) or not comps_json:
        raise UsageError(f"{args.components}: expected a component list")
    comps = [S.component_from_json(c, f"{args.components}[{i}]")
             for i, c in enumerate(comps_json)]
    q = S.qshift_from_json(S.load_json(args.q), args.q)
    part = partition_by_q_ratio(comps, q)
    _emit({"classes": part.classes, "l": part.l,
           "witnesses": {f"{i},{j}": w
                         for (i, j), w in sorted(part.witnesses.items())}},
          args.out)
    return 0


def _cmd_gallery(args) -> int:
    from .gallery import CASES, run_all
    if not args.all and not args.names:
        raise UsageError("pass case names or --all "
                         f"(known: {', '.join(c.name for c in CASES)})")
    results = run_all(None if args.all else args.names)
    width = max(len(name) for name, *_ in results)
    failed = []
    for name, ok, detail, tag in results:
        status = "PASS" if ok else "FAIL"
        print(f"{name:<{width}}  {status}  [{tag}]  {detail}")
        if not ok:
            failed.append(name)
    print(f"{len(results) - len(failed)}/{len(results)} cases passed")
    if failed:
        print("failing cases: " + ", ".join(failed), file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_quad_flags(p):
    p.add_argument("--lines", type=int, default=64,
                   help="sampled complex lines (default 64)")
    p.add_argument("--theta", type=int, default=512,
                   help="circle nodes per line, power of two (default 512)")
    p.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")


# parse_args keeps no state between calls, so one parser serves them all
@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    top = _Parser(prog="nevlab", description=__doc__,
                  formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("nev", help="per-radius m/N/T table (CSV)")
    p.add_argument("--fn", help="slice-function JSON file")
    p.add_argument("--map", help="projective-map JSON file (emits T; the "
                   "counting columns are zero and m repeats T)")
    p.add_argument("--grid", default="10:10000:4",
                   help='radius grid "r0:r1:steps[:log|lin]"')
    p.add_argument("--out", help="also write the CSV here")
    _add_quad_flags(p)
    p.set_defaults(fn_cmd=_cmd_nev)

    p = sub.add_parser("casorati", help="q-Casorati determinant")
    p.add_argument("--map", required=True)
    p.add_argument("--q", required=True)
    p.add_argument("--alpha", type=int,
                   help="use all degree-alpha monomials of the components")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="output directory")
    p.set_defaults(fn_cmd=_cmd_casorati)

    p = sub.add_parser("nondegeneracy", help="(in)dependence verdict")
    p.add_argument("--map", required=True)
    p.add_argument("--q", required=True)
    p.add_argument("--alpha", type=int,
                   help="test the degree-alpha monomials instead of the "
                   "components")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--out", help="output directory")
    p.set_defaults(fn_cmd=_cmd_nondegeneracy)

    p = sub.add_parser("filtration", help="graded filtration tools")
    fsub = p.add_subparsers(dest="subcommand", required=True)
    pi = fsub.add_parser("inspect", help="level dimensions and ratios")
    pi.add_argument("--gammas", required=True, help="forms JSON file")
    pi.add_argument("--alpha", type=int, required=True)
    pi.add_argument("--out", help="output directory")
    pi.set_defaults(fn_cmd=_cmd_filtration)

    p = sub.add_parser("hilbert", help="quotient-dimension stabilization")
    p.add_argument("--gammas", required=True)
    p.add_argument("--out", help="output directory")
    p.set_defaults(fn_cmd=_cmd_hilbert)

    p = sub.add_parser("verify", help="inequality/identity harnesses")
    p.add_argument("theorem", choices=["cartan", "hsmt", "hypersurface",
                                       "gundersen", "picard", "clunie",
                                       "tumura"])
    p.add_argument("--config", required=True, help="run.json")
    p.add_argument("--out", help="directory for report.json and rows.csv")
    p.set_defaults(fn_cmd=_cmd_verify)

    p = sub.add_parser("partition", help="partition components by q-ratio")
    p.add_argument("--components", required=True)
    p.add_argument("--q", required=True)
    p.add_argument("--out", help="output directory")
    p.set_defaults(fn_cmd=_cmd_partition)

    p = sub.add_parser("gallery", help="run bundled example cases")
    p.add_argument("names", nargs="*", help="case names")
    p.add_argument("--all", action="store_true", help="run every case")
    p.set_defaults(fn_cmd=_cmd_gallery)

    return top


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn_cmd(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except HypothesisFailure as exc:
        print(f"hypothesis failure: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except NevlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
