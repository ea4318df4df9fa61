#!/usr/bin/env python3
"""nevlab benchmark: seeded CLI workloads in a closed loop.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client sends one op at a time to `nevlab.cli.main(argv)`, in this
process, with stdout captured; the next op starts when the previous one
returns.  Every op's output is checked (checks.py).  With --trace 0 the last
line of stdout is a JSON object with the end-to-end metrics; with --trace 1
it carries the per-layer metrics of a traced pass (tracing.py) and the
tracing overhead.  nevlab is imported from src/ next to this directory;
without it the run fails before printing a result.
"""

from __future__ import annotations

import os
import sys

# one process, no extra threads: OpenBLAS must see this before numpy loads
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Callable, Iterator, List, Optional, Tuple  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"

import checks  # noqa: E402
import workloads  # noqa: E402

SETUP_RUNS = 5          # fresh processes per run; setup_s is their median
TAIL_BEYOND = 10        # samples that must lie beyond the tail percentile


class SetupError(Exception):
    """The program under test cannot be imported or warmed up."""


def import_cli():
    """nevlab.cli from this checkout's src/, never from anywhere else."""
    if not (SRC / "nevlab" / "cli.py").is_file():
        raise SetupError(f"no nevlab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    try:
        from nevlab import cli
    except ImportError as exc:
        raise SetupError(f"cannot import nevlab.cli: {exc}")
    if Path(cli.__file__).resolve().parent.parent != SRC:
        raise SetupError(f"nevlab imported from {cli.__file__}, not {SRC}")
    return cli


# ---------------------------------------------------------------------------
# running ops
# ---------------------------------------------------------------------------

@dataclass
class Result:
    kind: str
    seconds: float
    failure: Optional[str]  # None when exit code and output check pass


def execute(cli, op: workloads.Op,
            corrupt: Optional[Callable[[str], str]] = None) -> Result:
    """Time one `cli.main(argv)` call and check its output.  An exception
    escaping the CLI is a failed op, not a crash of the benchmark.
    `corrupt` rewrites the captured output before the check (self-test)."""
    out = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(op.argv)
    except Exception as exc:  # boundary: record it and keep the loop going
        seconds = time.perf_counter() - t0
        where = traceback.extract_tb(exc.__traceback__)[-1]
        return Result(op.kind, seconds,
                      f"exception {type(exc).__name__}: {exc} "
                      f"({Path(where.filename).name}:{where.lineno})")
    seconds = time.perf_counter() - t0
    text = out.getvalue()
    if corrupt is not None:
        text = corrupt(text)
    return Result(op.kind, seconds, checks.check(code, text, op))


def closed_loop(ops: Iterator[workloads.Op], seconds: float, cycle: int,
                on_op: Callable[[workloads.Op, int], None],
                between: Callable[[float], None] = lambda busy: None
                ) -> List[workloads.Op]:
    """Run ops back to back in whole cycles of the workload's op mix, and
    stop at the cycle boundary nearest to `on_op` having taken `seconds`
    (at least one cycle).  `between(busy)` runs before each op, with the
    time `on_op` has taken so far; its own time is not counted.
    Returns the ops run, in order."""
    done: List[workloads.Op] = []
    busy = 0.0
    for op in ops:
        between(busy)
        t0 = time.perf_counter()
        on_op(op, len(done))
        busy += time.perf_counter() - t0
        done.append(op)
        if len(done) % cycle == 0:
            per_cycle = busy * cycle / len(done)
            if busy + per_cycle / 2 >= seconds:
                break
    return done


def warm_up(cli, workload: str, seed: int, workdir: Path):
    """One tiny op of each kind: loads lazily imported modules (scipy on
    the first assignment solve) and touches every code path once."""
    for op in workloads.one_of_each(workload, seed, str(workdir)):
        execute(cli, op)  # untimed; its outcome is not an op of the run


def measure_setup(workload: str, seed: int) -> float:
    """Wall time of a fresh process that imports nevlab.cli and warms up."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        timeout=120)
    seconds = time.perf_counter() - t0
    if proc.returncode != 0:
        last = proc.stderr.strip().splitlines()[-1:]
        raise SetupError("setup probe failed: " + "".join(last))
    return seconds


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

def tail(times: List[float]):
    """(value, percentile, samples beyond) at the highest percentile that
    still has TAIL_BEYOND samples beyond it; the max when n is too small."""
    s = sorted(times)
    n = len(s)
    k = n - TAIL_BEYOND - 1 if n > TAIL_BEYOND else n - 1
    return s[k], 100.0 * (k + 1) / n, n - k - 1


def src_lines() -> int:
    return sum(len(p.read_text().splitlines())
               for p in sorted((SRC / "nevlab").glob("*.py")))


def src_digest() -> str:
    h = hashlib.sha256()
    for p in sorted((SRC / "nevlab").glob("*.py")):
        h.update(p.name.encode() + b"\0" + p.read_bytes())
    return h.hexdigest()[:12]


def git_commit() -> str:
    """This checkout's commit; never that of a repository around it."""
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment_block(nevlab_threads: Optional[str]) -> List[str]:
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        openblas = "unknown"
    threads = "unset" if nevlab_threads is None else \
        f"was {nevlab_threads!r}, unset for this run"
    return [f"# env python={sys.version.split()[0]} numpy={numpy.__version__}"
            f" scipy={scipy.__version__} blas={openblas!r}"
            f" nproc={os.cpu_count()} OPENBLAS_NUM_THREADS=1",
            f"# env commit={git_commit()} src_sha256={src_digest()}"
            f" NEVLAB_THREADS={threads}",
            f"# info src_lines={src_lines()} (informational, not gated)"]


def kind_lines(results: List[Result]) -> List[str]:
    lines = []
    for kind in sorted({r.kind for r in results}):
        ts = [r.seconds for r in results if r.kind == kind]
        bad = [r for r in results if r.kind == kind and r.failure]
        lines.append(f"# kind {kind:<14} ops={len(ts):<4} "
                     f"p50={statistics.median(ts):.4f}s max={max(ts):.4f}s "
                     f"failed={len(bad)}"
                     + (f" first_failure={bad[0].failure!r}" if bad else ""))
    return lines


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def per_layer_spec() -> List[Tuple[str, str]]:
    """(name, unit) of the per-layer metrics listed in BENCHMARK.json."""
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        raise SetupError(f"cannot read BENCHMARK.json: {exc}")
    return [(m["name"], m["unit"]) for m in spec["per_layer"]]


# ---------------------------------------------------------------------------
# the two kinds of run
# ---------------------------------------------------------------------------

def cycle(args) -> int:
    return 1 if args.tiny else workloads.CYCLE[args.workload]


def untraced_run(cli, args, workdir: Path):
    warm_up(cli, args.workload, args.seed, workdir / "warm")
    runs = 1 if args.tiny else SETUP_RUNS
    setup: List[float] = []

    def probe(busy: float):
        # spread over the run, so that the median does not rest on one
        # phase of the host's speed
        if len(setup) < runs and busy >= len(setup) * args.seconds / runs:
            setup.append(measure_setup(args.workload, args.seed + len(setup)))

    results: List[Result] = []
    ops = workloads.stream(args.workload, args.seed, str(workdir / "ops"),
                           args.tiny)
    closed_loop(ops, args.seconds, cycle(args),
                on_op=lambda op, i: results.append(execute(cli, op)),
                between=probe)
    while len(setup) < runs:  # a run may end up to half a cycle early
        probe(args.seconds)
    times = [r.seconds for r in results]
    failed = sum(1 for r in results if r.failure)
    t_val, t_pct, beyond = tail(times)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": metric(statistics.median(setup), "s"),
        "op_p50_s": metric(statistics.median(times), "s"),
        "op_tail_s": metric(t_val, "s"),
        "ops_per_s": metric(len(times) / sum(times), "1/s"),
        "peak_rss_mb": metric(rss_mb, "MB"),
    }
    lines = kind_lines(results) + [
        f"setup_s {metrics['setup_s']['value']:.4f} s "
        f"(median of {len(setup)} fresh processes during the run: "
        + ", ".join(f"{t:.3f}" for t in setup) + ")",
        f"op_p50_s {metrics['op_p50_s']['value']:.4f} s "
        f"({len(times)} ops)",
        f"op_tail_s {t_val:.4f} s (p{t_pct:.1f} of {len(times)} ops, "
        f"{beyond} beyond)",
        f"ops_per_s {metrics['ops_per_s']['value']:.4f} 1/s "
        f"(ops / seconds inside cli.main, {sum(times):.2f} s busy)",
        f"fail_frac {failed / len(times):.4f} ratio "
        f"({failed} of {len(times)} ops failed)",
        f"peak_rss_mb {rss_mb:.1f} MB",
    ]
    return results, metrics, lines


def traced_run(cli, args, workdir: Path):
    """Each op runs twice back to back, untraced and with spans, in
    alternating order, so the overhead ratio compares the same ops under
    the same conditions; then one more pass counts GaussianRational
    arithmetic alone."""
    import tracing

    spec = per_layer_spec()
    warm_up(cli, args.workload, args.seed, workdir / "warm")
    tracer = tracing.Tracer()
    spans = tracing.Instrumentation(tracer)
    op_sid = tracer.name_id("op")
    plain: List[Result] = []
    traced: List[Result] = []

    def traced_execute(op, i):
        spans.install()
        tracer.op = i
        tracer.enter(op_sid)
        try:
            traced.append(execute(cli, op))
        finally:
            tracer.exit()
            spans.restore()

    def both(op, i):
        if i % 2:
            traced_execute(op, i)
        plain.append(execute(cli, op))
        if not i % 2:
            traced_execute(op, i)

    ops = closed_loop(
        workloads.stream(args.workload, args.seed, str(workdir / "ops"),
                         args.tiny),
        args.seconds / 3, cycle(args), on_op=both)

    counter = tracing.Tracer(span_cap=0)
    counts = tracing.Instrumentation(counter, count_only=True)
    counts.install()
    try:
        counted = [execute(cli, op) for op in ops]
    finally:
        counts.restore()
    results = plain + traced + counted

    n = len(ops)
    untraced_rate = n / sum(r.seconds for r in plain)
    traced_rate = n / sum(r.seconds for r in traced)
    extra = {"trace.ops": float(n),
             "trace.untraced_ops_per_s": untraced_rate,
             "trace.ops_per_s": traced_rate,
             "trace.overhead_ratio": untraced_rate / traced_rate}
    arith = "rationals.GaussianRational.arith"
    if arith in counter.counters:
        extra[arith + ".calls"] = counter.counters[arith] / n
    metrics, absent = tracing.per_layer_values(
        spec, tracer, spans.absent + counts.absent, n, extra)
    OUT.mkdir(exist_ok=True)
    trace_file = OUT / f"trace-{args.workload}-{args.seed}.json"
    tracer.write(str(trace_file), {"workload": args.workload,
                                   "seed": args.seed, "ops": n})
    lines = kind_lines(results) + [
        f"# trace {n} ops per pass, {tracer.span_count()} spans "
        f"({tracer.dropped} past the in-memory cap), written to "
        f"{trace_file.relative_to(ROOT)}",
        f"# trace overhead: traced ops_per_s {traced_rate:.4f} vs untraced "
        f"{untraced_rate:.4f} (x{untraced_rate / traced_rate:.3f})",
        "# absent (no such function in nevlab): "
        + (", ".join(absent) if absent else "none"),
    ] + [f"{k} {v['value']:.6g} {v['unit']}" for k, v in metrics.items()]
    return results, metrics, lines


def main(argv: Optional[List[str]] = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=workloads.WORKLOADS + workloads.UNTIMED)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="tiny inputs (self-test only)")
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    # SIGTERM unwinds like an exception: the work directory is removed and
    # subprocess.run kills a setup probe that is still running
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    nevlab_threads = os.environ.pop("NEVLAB_THREADS", None)
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        cli = import_cli()
        if args.setup_probe:
            warm_up(cli, args.workload, args.seed, workdir)
            return 0
        env = environment_block(nevlab_threads)
        run = traced_run if args.trace else untraced_run
        results, metrics, lines = run(cli, args, workdir)
    except (SetupError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()  # only when no other run is using it
    failed = sum(1 for r in results if r.failure)
    print("\n".join(env + [f"# workload={args.workload} seed={args.seed} "
                           f"seconds={args.seconds:g} trace={args.trace} "
                           "loop=closed clients=1"] + lines))
    print(json.dumps({"correct": failed == 0, "attempted": len(results),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
