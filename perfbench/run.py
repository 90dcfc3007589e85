"""Benchmark of the lorstab command-line program.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the program is taken from ``src/`` beside this
directory and all scratch files go to ``.bench_build/`` there.

Every timed invocation is a fresh ``python3 -m lorstab.cli`` process, as a
CLI user pays for it, so a cache kept across calls inside one process cannot
show a gain users never get.  The loop is closed with one client: the next
invocation starts when the previous one exits, until ``--seconds`` have
passed (at least two invocations, so output stability is always checked).
Every invocation's outputs are checked (see ``workloads.check_outputs``).
Its times are scaled by the host's speed at that moment, measured with the
fixed work in ``reference.py`` (see ``reference_s``).

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of ``tracer.py`` runs, alternating traced and untraced children.
Children run with one BLAS thread and ``LORSTAB_THREADS`` unset.  The last
stdout line is the JSON result; the line before it records the environment.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from tracer import LAYERS
from workloads import REQUIRED_SITES, SOLVER_TOL, WORKLOADS, Case, check_outputs, fd_rel_error_max, make_case, parse_report

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build"
INVOCATION_TIMEOUT_S = 60
# The fastest time measured for reference.py on the 2-vCPU Intel Xeon host the
# bounds were set on; wall_s and setup_s are reported in seconds at that speed.
REFERENCE_S = 0.83
MAX_REPORTED_PROBLEMS = 5

ENV_PROBE = """\
import json, platform, numpy, scipy, lorstab.cli
def blas(mod):
    info = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"{info.get('name')} {info.get('version')}"
print(json.dumps({"python": platform.python_version(), "numpy": numpy.__version__,
                  "scipy": scipy.__version__, "numpy_blas": blas(numpy), "scipy_blas": blas(scipy)}))
"""


class BenchError(RuntimeError):
    """The benchmark cannot produce a result for this checkout."""


@dataclass(frozen=True)
class Exit:
    wall_s: float
    exit_code: int
    peak_rss_mb: float


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("LORSTAB_THREADS", None)   # the default, serial path
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(argv: list[str], env: dict[str, str], log: Path) -> Exit:
    """Run a child to completion; time it from spawn to exit and read its
    peak RSS from the wait4 rusage."""
    with open(log, "ab") as sink:
        start = perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdout=sink, stderr=subprocess.STDOUT)
        timer = threading.Timer(INVOCATION_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Exit(wall, proc.returncode, usage.ru_maxrss / 1024.0)


def probe_environment(env: dict[str, str]) -> dict:
    """Untimed first import (it also fills the bytecode cache); returns the
    library versions it reports."""
    done = subprocess.run([sys.executable, "-c", ENV_PROBE], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=INVOCATION_TIMEOUT_S)
    if done.returncode != 0:
        raise BenchError(f"cannot import lorstab.cli from {SRC}:\n{done.stderr}")
    record = json.loads(done.stdout.strip().splitlines()[-1])
    record.update(nproc=len(os.sched_getaffinity(0)), blas_threads=1, lorstab_threads="unset")
    return record


class OutputChecker:
    """Counts attempted and failed invocations of one case; an invocation
    fails on any problem check_outputs finds or the caller passes in, or when
    an output file differs from the first invocation's."""

    def __init__(self, case: Case):
        self.case = case
        self.first: dict[str, bytes] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, out: Path, exit_code: int, extra: tuple[str, ...] = ()) -> float | None:
        try:
            problems, relerr = check_outputs(self.case, out, exit_code)
        except (ValueError, KeyError) as err:
            problems, relerr = [f"unreadable output: {err!r}"], None
        problems += extra
        for name in self.case.outputs:
            path = out / name
            if not path.is_file():
                continue
            data = path.read_bytes()
            if self.first.setdefault(name, data) != data:
                problems.append(f"{name} differs from the first invocation's")
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"invocation {self.attempted}: {p}" for p in problems)
        return relerr


def lorstab_argv(case: Case, config: Path, out: Path) -> list[str]:
    return [sys.executable, "-m", "lorstab.cli", *case.argv(config, out)]


def graph_lambda1_relerr(case: Case, config: Path, out: Path, env, work: Path) -> float | None:
    """Richardson estimate of the level-6 lambda1 error: with the O(h^2) P1
    rate, |lambda1(6) - lambda1(5)| / 3 relative to lambda1(6).  The level-5
    solve is one extra, untimed invocation of the same config."""
    coarse = work / "level5"
    run = spawn(lorstab_argv(case, config, coarse) + ["--level", "5"], env, work / "lorstab.log")
    report = coarse / "report.txt"
    if run.exit_code != case.expected_exit or not report.is_file() or not (out / "report.txt").is_file():
        return None
    try:
        fine, lam5 = (float(parse_report(path.read_text(encoding="utf-8"))["stability"]["lambda1"])
                      for path in (out / "report.txt", report))
    except (KeyError, ValueError):
        return None
    return abs(fine - lam5) / (3.0 * abs(fine))


def reference_s(env, work: Path) -> float:
    """Seconds the fixed reference work takes now.  The host's speed drifts
    by 50% or more over minutes as co-tenants come and go, and it moves the
    reference work and the program alike, so each invocation's times are
    scaled by the reference work timed just before and just after it."""
    run = spawn([sys.executable, str(HERE / "reference.py")], env, work / "reference.log")
    if run.exit_code != 0:
        raise BenchError(f"reference work exited {run.exit_code}")
    return run.wall_s


def more_time(start: float, seconds: float, durations: list[float]) -> bool:
    """Closed loop: always two invocations, then another only if one of
    typical length still ends inside the measured window."""
    if len(durations) < 2:
        return True
    return perf_counter() - start + statistics.median(durations) <= seconds


def end_to_end(case: Case, seconds: float, env, work: Path) -> tuple[OutputChecker, dict]:
    config = work / "scenario.cfg"
    config.write_text(case.config_text, encoding="utf-8")
    checker = OutputChecker(case)
    setup, walls, rss, rounds = [], [], [], []
    raw_setup, raw_walls = [], []
    first = work / "first"      # the first invocation's outputs are kept
    start = perf_counter()
    before = reference_s(env, work)
    while more_time(start, seconds, rounds):
        began = perf_counter()
        raw_setup.append(spawn([sys.executable, "-c", "import lorstab.cli"], env, work / "setup.log").wall_s)
        out = work / "out" if walls else first
        run = spawn(lorstab_argv(case, config, out), env, work / "lorstab.log")
        relerr = checker.check(out, run.exit_code)   # the same on every byte-identical run
        raw_walls.append(run.wall_s)
        after = reference_s(env, work)
        speed = REFERENCE_S / ((before + after) / 2.0)
        before = after
        setup.append(raw_setup[-1] * speed)
        walls.append(run.wall_s * speed)
        rss.append(run.peak_rss_mb)
        if out != first:
            shutil.rmtree(out, ignore_errors=True)
        rounds.append(perf_counter() - began)

    if not case.closed_form:
        relerr = graph_lambda1_relerr(case, config, first, env, work)
    if relerr is None:
        checker.problems.append("lambda1 error could not be read; reported as 1.0")
        relerr = 1.0
    print(f"perfbench: {len(walls)} invocations; unscaled medians wall {statistics.median(raw_walls):.4f} s, "
          f"set-up {statistics.median(raw_setup):.4f} s", file=sys.stderr)
    # Peak RSS is the smallest of the run: allocator placement adds up to
    # 30 MB at random (197 or 228 MB on graph-l6), and only ever adds.
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (min(rss), "MB"),
        "pass_frac": ((checker.attempted - checker.failed) / checker.attempted, "ratio"),
        "lambda1_relerr": (relerr, "ratio"),
    }
    return checker, metrics


def traced(case: Case, seconds: float, env, work: Path) -> tuple[OutputChecker, dict]:
    config = work / "scenario.cfg"
    config.write_text(case.config_text, encoding="utf-8")
    checker = OutputChecker(case)
    traces, plain_walls, pairs = [], [], []
    fd_error = 0.0
    start = perf_counter()
    while more_time(start, seconds, pairs):
        pair_start = perf_counter()
        for plain in (False, True):
            out = work / "out"
            result = work / "trace.json"
            argv = [sys.executable, str(HERE / "tracer.py"), *(["--plain"] if plain else []),
                    "--result", str(result), "--", *case.argv(config, out)]
            run = spawn(argv, env, work / "tracer.log")
            if run.exit_code != 0 or not result.is_file():
                log = (work / "tracer.log").read_text(encoding="utf-8", errors="replace")
                raise BenchError(f"traced run failed (exit {run.exit_code}):\n{log[-2000:]}")
            data = json.loads(result.read_text(encoding="utf-8"))
            result.unlink()
            # sweep.csv carries no eigen_residual; the tracer sees every solve's
            extra = ()
            if not plain and not data["eigen_residual"] < SOLVER_TOL:
                extra = (f"eigen_residual {data['eigen_residual']:g} >= solver_tol {SOLVER_TOL:g}",)
            checker.check(out, data["exit_code"], extra)
            if plain:
                plain_walls.append(data["wall_s"])
            else:
                traces.append(data)
                if case.fd_checks and (out / "checks.csv").is_file():
                    fd_error = fd_rel_error_max(out)
            shutil.rmtree(out, ignore_errors=True)
        pairs.append(perf_counter() - pair_start)

    silent = [site for site in REQUIRED_SITES[case.workload]
              if any(t["site_calls"][site] == 0 for t in traces)]
    if silent:
        raise BenchError(f"layer sites with zero calls on {case.workload}: {', '.join(silent)}")

    def mean(key) -> float:
        return statistics.fmean(key(t) for t in traces)

    # Self time as a share of the traced wall time, which is reported too: a
    # layer a workload never calls then reads 0 as a ratio, not as a constant time.
    traced_wall = mean(lambda t: t["wall_s"])
    metrics: dict[str, tuple[float, str]] = {}
    for layer in LAYERS:
        metrics[f"{layer.name}.self_share"] = (mean(lambda t: t["self_s"][layer.name]) / traced_wall, "ratio")
        metrics[f"{layer.name}.calls"] = (
            mean(lambda t: sum(t["site_calls"][s] for s in layer.sites)), "count")
    metrics.update({
        "surfaces.vertices": (mean(lambda t: t["vertices"]), "count"),
        "fem.stiffness_nnz": (mean(lambda t: t["stiffness_nnz"]), "count"),
        "fem.eigen_iterations": (mean(lambda t: t["eigen_iterations"]), "count"),
        "fem.eigen_residual": (mean(lambda t: t["eigen_residual"]), "ratio"),
        "variation.fd_rel_error_max": (fd_error, "ratio"),
        "trace.wall_s": (traced_wall, "s"),
        "trace.uncovered_s": (mean(lambda t: t["uncovered_s"]), "s"),
        "trace.overhead_s": (traced_wall - statistics.fmean(plain_walls), "s"),
    })
    return checker, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="lorstab CLI benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an exception, so spawn() kills and reaps its child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (SRC / "lorstab" / "cli.py").is_file():
        print(f"perfbench: no lorstab program under {SRC}", file=sys.stderr)
        return 2
    case = make_case(args.workload, args.seed)
    work = BUILD / "perfbench" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = child_env()
    try:
        record = probe_environment(env)
        measure = traced if args.trace else end_to_end
        checker, metrics = measure(case, args.seconds, env, work)
    except BenchError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for problem in checker.problems[:MAX_REPORTED_PROBLEMS]:
        print(f"perfbench: {problem}", file=sys.stderr)
    record.update(workload=case.workload, seed=args.seed, trace=args.trace,
                  config=case.config_text, argv=case.argv(Path("scenario.cfg"), Path("out")))
    print("env " + json.dumps(record))
    print(json.dumps({
        "correct": not checker.problems,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
