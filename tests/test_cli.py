"""Command-line interface: output artifacts, determinism, exit codes.

Exit contract: 0 completed, 1 usage/schema error, 2 hypothesis failure
(report-only result), 3 hard numeric failure.
"""

import contextlib
import io
import json
import os

import pytest

from nevlab import cli

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
    code, out = run(["picard", "--config", p])
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


@pytest.mark.parametrize("theorem", ["cartan", "hsmt"])
def test_verify_stdout_matches_golden(theorem):
    # this map reaches only exact algebra and rational line views, so a
    # change that keeps their arithmetic keeps every byte of the report
    code, out = run(["verify", theorem, "--config",
                     os.path.join(DATA, "golden_run.json")])
    assert code == 0
    with open(os.path.join(DATA, f"golden_verify_{theorem}.stdout")) as fh:
        assert out == fh.read()
