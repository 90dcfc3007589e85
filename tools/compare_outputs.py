"""Compare the outputs of two lorstab source trees on the benchmark's configs.

    python tools/compare_outputs.py PARENT_SRC CHANGE_SRC

Each argument is a directory holding the ``lorstab`` package (a checkout's
``src``).  For seeds 7 and 21 of every workload in ``perfbench/workloads.py``
both trees run the workload's ``lorstab`` invocation on the same generated
config, as fresh ``python -m lorstab.cli`` processes with one BLAS thread.
Then both run the fixed ``MATRIX`` of configs that no workload reaches:
slices on both sides of the equator and far from it, near-umbilical graphs
at r = 0 and r = 1, and a level sweep.
For every output file the script prints whether the bytes are equal and,
where they are not, the largest relative difference of each numeric field
that moved (a report key, a CSV column over its rows, or in ``checks.csv``
a column over one check's rows, such as ``volume_balance.rel_error``) with
the field's largest |value| on each side, so that a move at rounding level
in a field that is itself at rounding level shows as one,
every text field that changed, and every field found on one side only, as
``removed`` or ``added`` with its values.  After a config's files it prints
one summary line: the exit code, verdict, lambda1, gap and
tol_gap_effective of its report, or the verdicts and lambda1 values of its
sweep's rows, parent -> change.  It ends with each tree's
shift-invert applications summed over the ``report.txt`` files
(``stability.eigen_iterations``) and the ``sweep.csv`` rows
(``eigen_iterations``; "n/a" for a tree whose sweep.csv has no such
column) of the workloads, the same without the sweeps, and the change's largest
``eigen_residual`` as a fraction of its tolerance (a report's ``tol_solver``,
or the workloads' ``SOLVER_TOL`` for a ``sweep.csv`` row), so a cheaper
eigensolve is shown with its safety margin.
Exit status 1 if an exit code or a verdict differs, if a first eigenvalue
(the report's ``stability.lambda1``, the sweep's ``lambda1`` column) moved by
more than ``LAMBDA1_RTOL`` relative, or if a change-side eigen_residual, in
``report.txt`` or in a ``sweep.csv`` row, is at or above its tolerance (a
change-side ``sweep.csv`` without the ``eigen_residual`` column fails too).
The last line counts the output files whose bytes are equal, so that a
refactor's acceptance reads from one line.
"""

from __future__ import annotations

import csv
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
SEEDS = (7, 21)
# a refactor may move lambda1 by rounding only; this is the tolerance stated for it
LAMBDA1_FIELDS = ("stability.lambda1", "lambda1")
LAMBDA1_RTOL = 1e-12

sys.dont_write_bytecode = True      # leave no cache files under perfbench/
sys.path.insert(0, str(ROOT / "perfbench"))
from workloads import SOLVER_TOL, WORKLOADS, make_case  # noqa: E402


class MatrixCase(NamedTuple):
    """One ``lorstab`` invocation of the matrix: the command, the config, the
    arguments after the config path and the outputs compared."""

    name: str
    config_text: str
    command: str = "run"
    options: tuple[str, ...] = ()
    outputs: tuple[str, ...] = ("report.txt",)

    def argv(self, config: Path, out: Path) -> list[str]:
        return [self.command, str(config), *self.options, "--out", str(out)]


def _matrix() -> tuple[MatrixCase, ...]:
    cases = []
    for s0 in ("-1", "0", "0.3", "1"):         # level 3, all four checks
        for r in (0, 1):
            cases.append(MatrixCase(
                f"slice level 3 s0 {s0} r {r}",
                f"scenario = slice\nr = {r}\ns0 = {s0}\nlevel = 3\nchecks = stability,killing,conformal,variation\n",
                outputs=("report.txt", "checks.csv")))
    for s0 in ("1", "-1"):                     # a near-umbilical graph on both sides of the equator
        for r in (0, 1):
            cases.append(MatrixCase(
                f"graph level 4 s0 {s0} r {r}",
                f"scenario = graph\nr = {r}\ns0 = {s0}\nperturbations = 2,0,0.002;3,1,0.0008\nlevel = 4\n"
                "checks = stability,killing,conformal\n"))
    for s0 in ("3", "5", "20"):                # far slices
        for r in (0, 1):
            cases.append(MatrixCase(
                f"slice level 4 s0 {s0} r {r}",
                f"scenario = slice\nr = {r}\ns0 = {s0}\nlevel = 4\nchecks = stability,killing\n"))
    cases.append(MatrixCase("slice s0 1 level sweep", "scenario = slice\nr = 1\ns0 = 1\n", "sweep",
                            ("--param", "level", "--values", "3,4,5"), ("sweep.csv",)))
    return tuple(cases)


MATRIX = _matrix()


def run(src: Path, argv: list[str]) -> int:
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1")
    return subprocess.run([sys.executable, "-m", "lorstab.cli", *argv], env=env,
                          stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode


def fields(path: Path) -> dict[str, list[str]]:
    """Values of each field in file order: every row's value of one CSV
    column, keyed by the row's check in a CSV with a ``check`` column (such
    as ``volume_balance.rel_error``, over that check's rows), or every value
    of one report key under its headers (such as
    ``variation.first_variation.rhs``, once per check block)."""
    text = path.read_text(encoding="utf-8")
    out: dict[str, list[str]] = {}
    if path.suffix == ".csv":
        for row in csv.DictReader(text.splitlines()):
            prefix = f"{row.pop('check')}." if "check" in row else ""
            for key, value in row.items():
                out.setdefault(prefix + key, []).append(value)
        return out
    headers: list[str] = []
    for line in text.splitlines():
        depth = (len(line) - len(line.lstrip())) // 2
        body = line.strip()
        # looked for before the line's end is stripped, so that an emptied
        # value, "  key = ", still counts as the key's value
        if " = " in line.lstrip():
            key, _, value = line.lstrip().partition(" = ")
            out.setdefault(".".join(headers[:depth] + [key]), []).append(value.rstrip())
        elif body.endswith(":"):
            headers[depth:] = [body[:-1]]
    return out


def relative_difference(a: str, b: str) -> float | None:
    """|a - b| / max(|a|, |b|) of two numbers, 0 for equal text (two empty
    cells included), None if the texts differ and either is not a number."""
    if a == b:
        return 0.0
    try:
        x, y = float(a), float(b)
    except ValueError:
        return None
    if x == y:
        return 0.0
    if math.isnan(x) or math.isnan(y) or math.isinf(x) or math.isinf(y):
        return math.inf
    return abs(x - y) / max(abs(x), abs(y))


def largest_magnitude(values: list[str]) -> float:
    """The largest |value| among a field's numbers; nan where it has none."""
    magnitudes = []
    for value in values:
        try:
            magnitude = abs(float(value))
        except ValueError:
            continue
        if not math.isnan(magnitude):
            magnitudes.append(magnitude)
    return max(magnitudes, default=math.nan)


def same_bytes(parent: Path, change: Path) -> bool:
    return parent.is_file() and change.is_file() and parent.read_bytes() == change.read_bytes()


def compare_file(parent: Path, change: Path) -> bool:
    """Print how one output file differs; True if a verdict changed or a
    lambda1 moved beyond ``LAMBDA1_RTOL``."""
    if not parent.is_file() or not change.is_file():
        print(f"  {parent.name}: missing on the {'parent' if not parent.is_file() else 'change'} side")
        return True
    if same_bytes(parent, change):
        print(f"  {parent.name}: bytes equal")
        return False
    print(f"  {parent.name}: bytes differ")
    old, new = fields(parent), fields(change)
    failed = False
    for key in sorted(old.keys() | new.keys()):
        a, b = old.get(key, []), new.get(key, [])
        if a == b:
            continue
        diffs = [relative_difference(x, y) for x, y in zip(a, b)]
        if len(a) == len(b) and None not in diffs:
            moved = key in LAMBDA1_FIELDS and max(diffs) > LAMBDA1_RTOL
            flag = f"  ABOVE {LAMBDA1_RTOL:g}" if moved else ""
            print(f"    {key}: max relative difference {max(diffs):.3g} "
                  f"(largest |value| {largest_magnitude(a):.3g} -> {largest_magnitude(b):.3g}){flag}")
            failed |= moved
        else:
            if a and b:
                print(f"    {key}: {','.join(a)} -> {','.join(b)}")
            else:       # a field on one side only; a value that became empty keeps its field
                print(f"    {key}: {'removed' if a else 'added'} ({','.join(a or b)})")
            failed |= key.endswith("verdict") or key in LAMBDA1_FIELDS
    return failed


# the fields of a config's summary line, by its first output file
SUMMARY_FIELDS = {
    "report.txt": ("stability.verdict", "stability.lambda1", "stability.gap", "stability.tol_gap_effective"),
    "sweep.csv": ("verdict", "lambda1"),
}


def summary_line(codes: dict[str, int], parent: Path, change: Path) -> str:
    """One line for a config: its exit code and its summary fields, parent ->
    change, read from one output file per side; a sweep's rows are joined by
    commas and a field with no value on a side prints as "-"."""
    sides = [fields(path) if path.is_file() else {} for path in (parent, change)]
    parts = [f"exit {codes['parent']} -> {codes['change']}"]
    for key in SUMMARY_FIELDS[parent.name]:
        old, new = (",".join(values.get(key, [])) or "-" for values in sides)
        parts.append(f"{key.rpartition('.')[2]} {old} -> {new}")
    return "  summary: " + "; ".join(parts)


def solver_fields(out: Path) -> tuple[int | None, list[float] | None]:
    """One run's summed shift-invert applications (``stability.eigen_iterations``
    of a report, the ``eigen_iterations`` column of a sweep) and each of its
    ``eigen_residual`` / tolerance ratios (nan for a skipped solve); either is
    None for a sweep.csv without its column."""
    report, sweep = out / "report.txt", out / "sweep.csv"
    if report.is_file():
        values = fields(report)
        iterations = sum(int(v) for v in values.get("stability.eigen_iterations", []))
        return iterations, [float(res) / float(tol) for res, tol in zip(
            values.get("stability.eigen_residual", []), values.get("stability.tol_solver", []))]
    if not sweep.is_file():
        return 0, []                # no output at all, which compare_file reports
    columns = fields(sweep)
    iterations, residuals = columns.get("eigen_iterations"), columns.get("eigen_residual")
    return (None if iterations is None else sum(int(v) for v in iterations),
            None if residuals is None else [float(res) / SOLVER_TOL for res in residuals])


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    trees = {"parent": Path(argv[0]).resolve(), "change": Path(argv[1]).resolve()}
    for side, src in trees.items():
        if not (src / "lorstab" / "cli.py").is_file():
            print(f"{side} tree {src} holds no lorstab package", file=sys.stderr)
            return 2
    failed = False
    reports = dict.fromkeys(trees, 0)       # the workloads' applications summed over report.txt
    sweeps: dict[str, int | None] = dict.fromkeys(trees, 0)     # and over sweep.csv
    worst_ratio = 0.0
    equal, compared = 0, 0          # output files with equal bytes, of all compared
    # (label, case, whether its applications count in the sums)
    runs = [(f"{workload} seed {seed}", make_case(workload, seed), True) for workload in WORKLOADS for seed in SEEDS]
    runs += [(case.name, case, False) for case in MATRIX]
    with tempfile.TemporaryDirectory() as scratch:
        for index, (label, case, counted) in enumerate(runs):
            base = Path(scratch) / str(index)
            base.mkdir()
            config = base / "config.txt"
            config.write_text(case.config_text, encoding="utf-8")
            codes = {side: run(src, case.argv(config, base / side)) for side, src in trees.items()}
            same = codes["parent"] == codes["change"]
            print(f"{label}: exit {codes['parent']} -> {codes['change']}{'' if same else '  EXIT CODE DIFFERS'}")
            failed |= not same
            for name in case.outputs:
                failed |= compare_file(base / "parent" / name, base / "change" / name)
                equal += same_bytes(base / "parent" / name, base / "change" / name)
                compared += 1
            print(summary_line(codes, base / "parent" / case.outputs[0], base / "change" / case.outputs[0]))
            for side in trees:
                count, ratios = solver_fields(base / side)
                if counted and case.outputs[0] != "sweep.csv":
                    reports[side] += count
                elif counted and sweeps[side] is not None:
                    sweeps[side] = None if count is None else sweeps[side] + count
                if ratios is None:
                    if side == "change":
                        print("  sweep.csv: no eigen_residual column on the change side")
                        failed = True
                    continue
                if side == "change" and ratios:
                    worst_ratio = max(worst_ratio, *ratios)
                    if any(ratio >= 1.0 for ratio in ratios):
                        print(f"  {case.outputs[0]}: change-side eigen_residual at or above its tolerance")
                        failed = True
    total = {side: "n/a" if sweeps[side] is None else reports[side] + sweeps[side] for side in trees}
    print(f"workloads' eigen_iterations summed over report.txt and sweep.csv: {total['parent']} -> {total['change']} "
          f"(report.txt alone: {reports['parent']} -> {reports['change']})")
    print(f"largest change-side eigen_residual / tolerance (reports and sweep rows): {worst_ratio:.3g}")
    print("FAIL: an exit code or a verdict differs, a lambda1 moved above "
          f"{LAMBDA1_RTOL:g}, or an eigen_residual is missing or not below its tolerance" if failed
          else f"OK: exit codes and verdicts agree, every lambda1 within {LAMBDA1_RTOL:g}, "
          "and every eigen_residual below its tolerance")
    print(f"output files with equal bytes: {equal} of {compared}")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
