"""Command-line interface: output artifacts, determinism, exit codes.

Exit contract: 0 completed, 1 usage/schema error, 2 hypothesis failure
(report-only result), 3 hard numeric failure.
"""

import contextlib
import io
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from nevlab import cli
from nevlab.slicing import RationalLineView

POLY_Z = {"nvars": 1, "terms": [{"exps": [1], "re": "1", "im": "0"}]}
POLY_1 = {"nvars": 1, "terms": [{"exps": [0], "re": "1", "im": "0"}]}
MAP_1Z = {"components": [POLY_1, POLY_Z]}
HYPS = [
    {"nvars": 2, "terms": [{"exps": [1, 0], "re": "1", "im": "0"}]},
    {"nvars": 2, "terms": [{"exps": [0, 1], "re": "1", "im": "0"}]},
    {"nvars": 2, "terms": [{"exps": [1, 0], "re": "1", "im": "0"},
                           {"exps": [0, 1], "re": "1", "im": "0"}]},
]
Q2 = {"q": [["2", "0"]]}


def write(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return str(p)


def run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def test_nev_outputs_csv(tmp_path):
    fn = write(tmp_path, "fn.json", POLY_Z)
    code, out = run(["nev", "--fn", fn, "--grid", "10:100:2",
                     "--lines", "4", "--theta", "32"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "r,m,N_zero,N_pole,T,err"
    assert len(lines) == 3
    for line in lines[1:]:
        # plain numbers, not numpy reprs such as np.float64(10.0)
        assert len([float(x) for x in line.split(",")]) == 6


def test_nev_deterministic(tmp_path):
    fn = write(tmp_path, "fn.json", POLY_Z)
    argv = ["nev", "--fn", fn, "--grid", "10:1000:3",
            "--lines", "8", "--theta", "64"]
    (c1, out1), (c2, out2) = run(argv), run(argv)
    assert c1 == c2 == 0
    assert out1 == out2


def test_nev_missing_file_is_usage_error(tmp_path):
    code, _ = run(["nev", "--fn", str(tmp_path / "absent.json")])
    assert code == 1


@pytest.mark.parametrize("spec", ["abc:10:3", "10:100:-2", "-1:10:3"])
def test_nev_malformed_grid_is_usage_error(tmp_path, spec):
    fn = write(tmp_path, "fn.json", POLY_Z)
    src = os.path.dirname(os.path.dirname(cli.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "nevlab.cli", "nev", "--fn", fn,
         f"--grid={spec}"], env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1
    assert proc.stderr.startswith(f"usage error: grid spec '{spec}'")
    assert "Traceback" not in proc.stderr
    assert "Warning" not in proc.stderr


@pytest.mark.parametrize("poly", [
    {"nvars": 1, "terms": [[[1], ["1", "0"]]]},
    {"nvars": 1, "terms": {"exps": [1], "re": "1", "im": "0"}}])
def test_nev_malformed_terms_is_usage_error(tmp_path, poly):
    fn = write(tmp_path, "fn.json", poly)
    src = os.path.dirname(os.path.dirname(cli.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "nevlab.cli", "nev", "--fn", fn,
         "--grid", "10:100:3"], env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1
    assert proc.stderr.startswith(f"usage error: {fn}.terms")
    assert "Traceback" not in proc.stderr


def test_main_reuses_one_parser(tmp_path):
    # consecutive calls, with usage errors between them, answer exactly as
    # calls that each build a fresh parser
    fn = write(tmp_path, "fn.json", POLY_Z)
    mp = write(tmp_path, "map.json", MAP_1Z)
    q = write(tmp_path, "q.json", Q2)
    argvs = [["nev", "--fn", fn, "--grid", "10:100:2", "--lines", "2",
              "--theta", "16"],
             ["verify", "nope", "--config", fn],
             ["casorati", "--map", mp, "--q", q],
             ["nev", "--fn", fn, "--grid", "10:100:2", "--bogus"],
             ["nondegeneracy", "--map", mp, "--q", q],
             ["nev", "--fn", fn, "--grid", "10:1000:3", "--lines", "2",
              "--theta", "16"]]
    fresh = []
    for argv in argvs:
        cli.build_parser.cache_clear()
        fresh.append(run(argv))
    cli.build_parser.cache_clear()
    assert [run(argv) for argv in argvs] == fresh
    assert cli.build_parser.cache_info().misses == 1
    assert [code for code, _ in fresh] == [0, 1, 0, 1, 0, 0]


def test_nev_bad_flag_combination(tmp_path):
    fn = write(tmp_path, "fn.json", POLY_Z)
    mp = write(tmp_path, "map.json", MAP_1Z)
    code, _ = run(["nev", "--fn", fn, "--map", mp])
    assert code == 1


def test_nev_numeric_failure_is_exit_3(tmp_path):
    zero = write(tmp_path, "zero.json", {"nvars": 1, "terms": []})
    code, _ = run(["nev", "--fn", zero, "--grid", "10:100:2",
                   "--lines", "4", "--theta", "32"])
    assert code == 3


def test_casorati_symbolic(tmp_path):
    mp = write(tmp_path, "map.json", MAP_1Z)
    q = write(tmp_path, "q.json", Q2)
    code, out = run(["casorati", "--map", mp, "--q", q])
    assert code == 0
    assert "num" in out or "terms" in out


def test_nondegeneracy_exit_codes(tmp_path):
    mp = write(tmp_path, "map.json", MAP_1Z)
    q = write(tmp_path, "q.json", Q2)
    code, out = run(["nondegeneracy", "--map", mp, "--q", q])
    assert code == 0
    assert '"nondegenerate": true' in out
    dep = write(tmp_path, "dep.json", {"components": [
        POLY_Z, {"nvars": 1, "terms": [{"exps": [1], "re": "2", "im": "0"}]}]})
    code, out = run(["nondegeneracy", "--map", dep, "--q", q])
    assert code == 0
    assert '"nondegenerate": false' in out


def test_filtration_and_hilbert(tmp_path):
    gammas = {"forms": [
        {"nvars": 3, "terms": [{"exps": [0, 1, 0], "re": "1", "im": "0"}]},
        {"nvars": 3, "terms": [{"exps": [0, 0, 1], "re": "1", "im": "0"}]}]}
    fg = write(tmp_path, "g.json", gammas)
    code, out = run(["filtration", "inspect", "--gammas", fg, "--alpha", "4"])
    assert code == 0
    rep = json.loads(out)
    assert rep["M"] == 15
    assert rep["delta"] == 20
    code, out = run(["hilbert", "--gammas", fg])
    assert code == 0
    assert json.loads(out)["stable_value"] == 1


def verify_config():
    return {"schema": "nevlab-run/1", "map": MAP_1Z, "hyperplanes": HYPS,
            "q": Q2, "grid": "10:1000:3",
            "quad": {"lines": 4, "theta": 32, "seed": 1}}


def test_verify_cartan_and_out_dir(tmp_path):
    cfg = write(tmp_path, "c.json", verify_config())
    out_dir = str(tmp_path / "out")
    code, out = run(["verify", "cartan", "--config", cfg, "--out", out_dir])
    assert code == 0
    assert os.path.exists(os.path.join(out_dir, "report.json"))
    csv = open(os.path.join(out_dir, "rows.csv")).read().splitlines()
    assert csv[0] == "r,lhs,rhs,margin,err"
    assert json.loads(out)["verdict"] is True
    rows = [[float(x) for x in line.split(",")] for line in csv[1:]]
    assert [r[0] for r in rows] == [10.0, 100.0, 1000.0]
    assert all(len(r) == 5 for r in rows)


def test_verify_hypothesis_failure_is_exit_2(tmp_path):
    cfg = verify_config()
    cfg["map"] = {"components": [
        POLY_Z, {"nvars": 1, "terms": [{"exps": [1], "re": "2", "im": "0"}]}]}
    p = write(tmp_path, "c.json", cfg)
    code, out = run(["verify", "cartan", "--config", p])
    assert code == 2
    assert json.loads(out)["verdict"] is None


def test_verify_bad_schema_is_exit_1(tmp_path):
    cfg = verify_config()
    cfg["schema"] = "wrong/0"
    p = write(tmp_path, "c.json", cfg)
    code, _ = run(["verify", "cartan", "--config", p])
    assert code == 1


def test_picard_command(tmp_path):
    cfg = {"schema": "nevlab-run/1",
           "map": {"components": [
               {"nvars": 2, "terms": [{"exps": [1, 0], "re": "1",
                                       "im": "0"}]},
               {"nvars": 2, "terms": [{"exps": [0, 1], "re": "1",
                                       "im": "0"}]}]},
           "hyperplanes": [
               {"nvars": 2, "terms": [{"exps": [1, 0], "re": "1",
                                       "im": "0"}]},
               {"nvars": 2, "terms": [{"exps": [0, 1], "re": "1",
                                       "im": "0"}]},
               {"nvars": 2, "terms": [{"exps": [1, 0], "re": "1",
                                       "im": "0"},
                                      {"exps": [0, 1], "re": "-1",
                                       "im": "0"}]}],
           "q": {"q": [["2", "0"], ["2", "0"]]}}
    p = write(tmp_path, "p.json", cfg)
    code, out = run(["verify", "picard", "--config", p])
    assert code == 0
    rep = json.loads(out)
    assert rep["q_periodic_map"] is True


def test_partition_command(tmp_path):
    comps = write(tmp_path, "comps.json", {"components": [POLY_1, POLY_Z]})
    q = write(tmp_path, "q.json", Q2)
    code, out = run(["partition", "--components", comps, "--q", q])
    assert code == 0
    assert json.loads(out)["classes"] == [[0], [1]]


def test_gallery_single_case():
    code, out = run(["gallery", "casorati_vandermonde"])
    assert code == 0
    assert "casorati_vandermonde" in out


def test_gallery_unknown_case():
    code, _ = run(["gallery", "not_a_case"])
    assert code == 1


def test_no_command_is_usage_error():
    code, _ = run([])
    assert code == 1


DATA = os.path.join(os.path.dirname(__file__), "data")


@pytest.mark.parametrize("theorem", ["cartan", "hsmt", "hypersurface",
                                     "gundersen"])
def test_verify_stdout_matches_golden(theorem):
    # this map reaches only exact algebra and rational line views, so a
    # change that keeps their arithmetic keeps every byte of the report,
    # and one that moves it (as reading log|h| without the complex log
    # moved the last ulp of some rows) re-pins these files within each
    # row's err; at alpha 2 its monomial Casoratian vanishes, so hypersurface runs at
    # alpha 1, where the report has rows and a filtration
    config = ("golden_run_alpha1.json" if theorem == "hypersurface"
              else "golden_run.json")
    code, out = run(["verify", theorem, "--config",
                     os.path.join(DATA, config)])
    assert code == 0
    with open(os.path.join(DATA, f"golden_verify_{theorem}.stdout")) as fh:
        assert out == fh.read()


@pytest.mark.parametrize("theorem", ["cartan", "hsmt"])
def test_verify_reads_rational_magnitudes_without_complex_log(
        theorem, monkeypatch):
    # every functional of these harnesses reads log|h| through log_abs;
    # the complex log of a rational view is only for form components and
    # determinant entries, which this polynomial map does not reach
    calls = []
    original = RationalLineView.log_values

    def counted(self, u):
        calls.append(np.size(u))
        return original(self, u)

    monkeypatch.setattr(RationalLineView, "log_values", counted)
    code, _ = run(["verify", theorem, "--config",
                   os.path.join(DATA, "golden_run.json")])
    assert code == 0
    assert calls == []


def _poly2(terms):
    return {"nvars": 2, "terms": [{"exps": list(e), "re": re, "im": im}
                                  for e, re, im in terms]}


# maps with q-Pochhammer components, so their Casoratians are sampled at
# seeded points rather than computed exactly
SAMPLED_MAPS = {
    # the benchmark's product map [1 : (1/2; z1)_inf : (3/5; z2)_inf]
    "product": {"components": [
        _poly2([((0, 0), "1", "0")]),
        {"qbase": ["1/2", "0"], "linear": _poly2([((1, 0), "1", "0")])},
        {"qbase": ["3/5", "0"], "linear": _poly2([((0, 1), "1", "0")])}]},
    # a cubic with several terms of one degree, so the point value sums
    # more than one term per power of u
    "cubic": {"components": [
        _poly2([((3, 0), "1", "0"), ((1, 2), "-2", "0"),
                ((1, 1), "3/2", "0"), ((0, 1), "1", "0"),
                ((0, 0), "-1/2", "1")]),
        {"qbase": ["1/2", "0"],
         "linear": _poly2([((1, 0), "1", "0"), ((0, 1), "2", "0")])},
        {"qbase": ["3/5", "0"], "linear": _poly2([((0, 1), "1", "0")])}]},
}


@pytest.mark.parametrize("alpha", [0, 2])
@pytest.mark.parametrize("name", sorted(SAMPLED_MAPS))
@pytest.mark.parametrize("command", ["casorati", "nondegeneracy"])
def test_sampled_casorati_stdout_matches_golden(tmp_path, command, name,
                                                alpha):
    mp = write(tmp_path, "map.json", SAMPLED_MAPS[name])
    q = write(tmp_path, "q.json", {"q": [["2", "0"], ["2", "0"]]})
    code, out = run([command, "--map", mp, "--q", q, "--alpha", str(alpha)])
    assert code == 0
    golden = f"golden_casorati_{command}_{name}_alpha{alpha}.json"
    with open(os.path.join(DATA, golden)) as fh:
        assert out == fh.read()


def _poly3(terms):
    return {"nvars": 3, "terms": [{"exps": list(e), "re": re, "im": "0"}
                                  for e, re in terms]}


# the gallery's four conics in general position
GALLERY_CONICS = [
    _poly3([((0, 2, 0), "1"), ((1, 0, 1), "-1")]),
    _poly3([((0, 0, 2), "1"), ((1, 1, 0), "-1")]),
    _poly3([((2, 0, 0), "1"), ((0, 2, 0), "2"), ((0, 0, 2), "3")]),
    _poly3([((2, 0, 0), "1"), ((0, 1, 1), "1")]),
]


@pytest.mark.parametrize("theorem", ["cartan", "hypersurface"])
def test_numeric_casoratian_verify_stdout_matches_golden(tmp_path, theorem):
    # the product map's Casoratian (3 x 3 for cartan, the 15 x 15 monomial
    # one at alpha 4 for hypersurface) is numeric, so N(r, 1/C) is read by
    # Jensen from its log matrix on every circle: these bytes pin that path
    with open(os.path.join(DATA, "golden_run.json")) as fh:
        cfg = json.load(fh)
    cfg.update(map=SAMPLED_MAPS["product"],
               quad={"lines": 1, "theta": 64, "seed": 3})
    if theorem == "hypersurface":
        del cfg["hyperplanes"]
        cfg.update(forms=GALLERY_CONICS, alpha=4)
    code, out = run(["verify", theorem, "--config",
                     write(tmp_path, "run.json", cfg)])
    assert code == 0
    golden = f"golden_verify_{theorem}_product.stdout"
    with open(os.path.join(DATA, golden)) as fh:
        assert out == fh.read()


def _rational1(num, den):
    return {"num": {"nvars": 1, "terms": [{"exps": [e], "re": re, "im": im}
                                          for e, re, im in num]},
            "den": {"nvars": 1, "terms": [{"exps": [e], "re": re, "im": im}
                                          for e, re, im in den]}}


# maps whose Casoratians are computed exactly: (map, q, alpha)
EXACT_MAPS = {
    # one-variable rational components over linear denominators, two of
    # them shared and one with a Gaussian root (4 and 5 components)
    "rational4": ({"components": [
        _rational1([(0, "2", "0")], [(1, "1", "0"), (0, "-3", "0")]),
        _rational1([(1, "-1", "0"), (0, "2", "0")],
                   [(1, "2", "0"), (0, "1", "0")]),
        _rational1([(2, "3", "0"), (0, "-1", "0")],
                   [(1, "1", "0"), (0, "-3", "0")]),
        _rational1([(0, "1", "0")], [(1, "-1", "0"), (0, "1/2", "1")])]},
        Q2, 0),
    "rational5": ({"components": [
        _rational1([(0, "-2", "0")], [(1, "1", "0"), (0, "2", "0")]),
        _rational1([(1, "3", "0"), (0, "1", "0")],
                   [(1, "1", "0"), (0, "-1", "0")]),
        _rational1([(2, "1", "0"), (1, "-2", "0")],
                   [(1, "3", "0"), (0, "1", "0")]),
        _rational1([(0, "3", "0")], [(1, "1", "0"), (0, "-1", "0")]),
        _rational1([(1, "-1", "0"), (0, "3", "0")],
                   [(1, "2", "0"), (0, "-3", "0")])]},
        Q2, 0),
    # a polynomial map C^2 -> P^2 of degree 3; its degree-2 monomial
    # Casoratian is a 6 x 6 determinant of two-variable polynomials
    "cubic": ({"components": [
        _poly2([((0, 0), "1", "0")]),
        _poly2([((1, 0), "1", "0"), ((0, 1), "-1", "0")]),
        _poly2([((0, 3), "1", "0"), ((1, 1), "2", "0")])]},
        {"q": [["2", "0"], ["2", "0"]]}, 2),
}


@pytest.mark.parametrize("name", sorted(EXACT_MAPS))
def test_exact_casorati_stdout_matches_golden(tmp_path, name):
    fmap, fq, alpha = EXACT_MAPS[name]
    mp = write(tmp_path, "map.json", fmap)
    q = write(tmp_path, "q.json", fq)
    code, out = run(["casorati", "--map", mp, "--q", q, "--alpha",
                     str(alpha)])
    assert code == 0
    assert json.loads(out)["kind"] == "rational"
    golden = f"golden_casorati_exact_{name}_alpha{alpha}.json"
    with open(os.path.join(DATA, golden)) as fh:
        assert out == fh.read()


@pytest.mark.parametrize("command, golden", [
    (["filtration", "inspect", "--alpha", "8"],
     "golden_filtration_conics_gaussian_alpha8.json"),
    (["hilbert"], "golden_hilbert_conics_gaussian.json")])
def test_filtration_stdout_matches_golden(command, golden):
    # a height-3 conic pair with non-real Gaussian-rational coefficients
    # over denominators: every rank comes from exact elimination, so no
    # byte may move
    gammas = os.path.join(DATA, "golden_conics_gaussian.json")
    code, out = run(command + ["--gammas", gammas])
    assert code == 0
    with open(os.path.join(DATA, golden)) as fh:
        assert out == fh.read()


# run in a fresh process by the import-footprint test: each command's exit
# code and stdout, then what the process loaded
FOOTPRINT = """
import contextlib, io, json, sys
from nevlab import cli, slicing
outputs = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    outputs.append([code, out.getvalue()])
print(json.dumps({
    "outputs": outputs,
    "solver_loads": slicing._assignment_solver.cache_info().misses,
    "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy")}))
"""


def test_determinant_commands_load_only_the_assignment_kernel(tmp_path):
    # the golden verify hypersurface run is exact algebra throughout; the
    # sampled Casoratian after it reaches the assignment solver.  Only
    # scipy's compiled kernel may be loaded for that, never the
    # scipy.optimize package, and both outputs keep their golden bytes.
    mp = write(tmp_path, "map.json", SAMPLED_MAPS["product"])
    q = write(tmp_path, "q.json", {"q": [["2", "0"], ["2", "0"]]})
    commands = [
        (["verify", "hypersurface", "--config",
          os.path.join(DATA, "golden_run_alpha1.json")],
         "golden_verify_hypersurface.stdout"),
        (["casorati", "--map", mp, "--q", q, "--alpha", "2"],
         "golden_casorati_casorati_product_alpha2.json")]
    src = os.path.dirname(os.path.dirname(cli.__file__))
    proc = subprocess.run(
        [sys.executable, "-c", FOOTPRINT,
         json.dumps([argv for argv, _ in commands])],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True,
        text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout.splitlines()[-1])
    for (code, out), (_, golden) in zip(got["outputs"], commands):
        assert code == 0
        with open(os.path.join(DATA, golden)) as fh:
            assert out == fh.read()
    assert got["solver_loads"] == 1
    assert "scipy.optimize._lsap" in got["scipy"]
    assert "scipy.optimize" not in got["scipy"]
