#!/usr/bin/env python3
"""Self-test of the benchmark (not of nevlab).

    python3 perfbench/selftest.py

1. A tiny run of every workload prints each end-to-end metric of
   BENCHMARK.json by name with its unit, plus fail_frac, and its JSON line
   carries exactly those metrics; a tiny traced run reports every per-layer
   metric or names it absent.
2. For every op kind, a real tiny report passes its check and a
   deliberately corrupted copy is counted as a failed op.
3. In a directory holding only BENCHMARK.json and perfbench/, the benchmark
   exits nonzero without printing a result.
Exits 0 when all hold; prints each failed expectation otherwise.
"""

from __future__ import annotations

import contextlib
import json
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run  # sets the thread environment before numpy loads
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
problems = []


def expect(ok: bool, what: str):
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        problems.append(what)


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"),
                           *args], cwd=cwd, capture_output=True, text=True,
                          timeout=170)


def result_line(stdout: str):
    try:
        return json.loads(stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        return None


def check_metric_output():
    e2e = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for wl in workloads.WORKLOADS:
        proc = bench("--workload", wl, "--seed", "1", "--seconds", "1",
                     "--trace", "0", "--tiny")
        res = result_line(proc.stdout)
        expect(proc.returncode == 0 and res is not None,
               f"{wl}: tiny run exits 0 with a result line")
        if res is None:
            continue
        expect(set(res) == {"correct", "attempted", "failed", "metrics"}
               and res["attempted"] >= 1,
               f"{wl}: result keys and attempted >= 1")
        got = {k: v["unit"] for k, v in res["metrics"].items()}
        expect(got == e2e, f"{wl}: JSON metrics match BENCHMARK.json")
        for name, unit in list(e2e.items()) + [("fail_frac", "ratio")]:
            expect(re.search(rf"^{re.escape(name)} \S+ {re.escape(unit)}\b",
                             proc.stdout, re.M) is not None,
                   f"{wl}: prints {name} with unit {unit}")
    proc = bench("--workload", "exact_algebra", "--seed", "1", "--seconds",
                 "1", "--trace", "1", "--tiny")
    res = result_line(proc.stdout)
    expect(proc.returncode == 0 and res is not None,
           "traced tiny run exits 0 with a result line")
    if res is not None:
        absent = re.search(r"^# absent \(no such function in nevlab\): (.*)$",
                           proc.stdout, re.M)
        absent_names = set() if absent is None or absent.group(1) == "none" \
            else set(absent.group(1).split(", "))
        got = {k: v["unit"] for k, v in res["metrics"].items()}
        expect(set(got) | absent_names == set(layer)
               and all(layer[k] == u for k, u in got.items()),
               "traced run: every per-layer metric reported or absent")


def _edit_json(fn):
    def corrupt(text):
        rep = json.loads(text)
        fn(rep)
        return json.dumps(rep)
    return corrupt


def _nev_last_row(add):
    """Add `add[k]` to column k of the CSV's last row."""
    def corrupt(text):
        lines = text.strip().splitlines()
        cells = lines[-1].split(",")
        for k, dx in add.items():
            cells[k] = repr(float(cells[k]) + dx)
        return "\n".join(lines[:-1] + [",".join(cells)])
    return corrupt


def _gundersen_drift(rep):
    rep["rows"][-1]["residual"] += 0.13
    res = [r["residual"] for r in rep["rows"]]
    rep["residual_spread"] = max(res) - min(res)


def _casorati_num(rep):
    rep["num"]["terms"].append({"exps": [7], "re": "1", "im": "0"})


# each corruption must be caught on its own
CORRUPT = {
    "hypersurface": [_edit_json(lambda r: r["extra"].__setitem__(
        "coeff_exact", r["extra"]["coeff_exact"] * 1.5))],
    "cartan": [_edit_json(lambda r: r["rows"][0].__setitem__(
        "margin", r["rows"][0]["margin"] + 1.0))],
    "hsmt": [_edit_json(lambda r: r["hypotheses"]["general_position"]
                        .__setitem__("ok", False))],
    "gundersen": [_edit_json(_gundersen_drift)],
    # T off by 0.5; then N_pole (and T with it) 5 higher at the last
    # radius, a rise above deg(den) log(r2/r1) <= 2 log(10^(3/4))
    "nev": [_nev_last_row({4: 0.5}), _nev_last_row({3: 5.0, 4: 5.0})],
    "filtration": [_edit_json(lambda r: r["levels"][0].__setitem__(
        "quotient", r["levels"][0]["quotient"] + 1))],
    "hilbert": [_edit_json(lambda r: r.__setitem__(
        "stable_value", r["stable_value"] + 1))],
    "casorati": [_edit_json(_casorati_num)],
    "nondegeneracy": [_edit_json(lambda r: r.__setitem__(
        "nondegenerate", False))],
}


def _plain_floats(text: str) -> str:
    # numpy >= 2 prints np.float64(x) in the nev CSV; unwrap it so the
    # T = m + N_pole identity itself is what this test exercises
    return re.sub(r"np\.float64\(([^)]*)\)", r"\1", text)


def check_corruption():
    cli = run.import_cli()
    work = ROOT / ".perfbench_work" / "selftest"
    try:
        for wl in workloads.WORKLOADS + workloads.UNTIMED:
            for op in workloads.one_of_each(wl, 1, str(work / wl)):
                good = run.execute(cli, op, corrupt=_plain_floats)
                expect(good.failure is None,
                       f"{op.kind}: tiny report passes its check "
                       f"({good.failure})")
                for k, corrupt in enumerate(CORRUPT[op.kind]):
                    bad = run.execute(cli, op, corrupt=lambda t: corrupt(
                        _plain_floats(t)))
                    expect(bad.failure is not None,
                           f"{op.kind}: corrupted report {k + 1} counted as "
                           f"failed ({bad.failure})")
    finally:
        shutil.rmtree(work, ignore_errors=True)


def check_bare_directory():
    (ROOT / ".perfbench_work").mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(dir=ROOT / ".perfbench_work"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench("--workload", "exact_algebra", "--seed", "1",
                     "--seconds", "1", "--trace", "0", cwd=bare)
        expect(proc.returncode != 0 and result_line(proc.stdout) is None,
               "without src/ the benchmark exits nonzero, no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        with contextlib.suppress(OSError):
            bare.parent.rmdir()  # only when no benchmark run is using it


if __name__ == "__main__":
    check_metric_output()
    check_corruption()
    check_bare_directory()
    print(f"{len(problems)} problem(s)")
    sys.exit(1 if problems else 0)
