"""The three workloads: their operations, oracle checks, first operation
(for set-up time) and CLI invocation.

Operations call the engine through module attributes (``dsl.run``, not a
local alias) so that the traced run can swap timing wrappers in.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from anisocalc import dsl
from anisocalc.errors import EngineError

import corpus
import oracles

HERE = Path(__file__).resolve().parent


@dataclass(frozen=True)
class Op:
    kind: str
    label: str
    fn: Callable[[], object]


def engine_env(root: Path) -> dict:
    """Environment for subprocesses: the working tree's ``src`` first."""
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def timed_subprocess(argv: list[str], root: Path) -> tuple[float, subprocess.CompletedProcess]:
    t0 = time.perf_counter()
    proc = subprocess.run(argv, cwd=root, env=engine_env(root),
                          capture_output=True, text=True, timeout=170)
    return time.perf_counter() - t0, proc


def run_query(text: str) -> tuple[str | None, int, str | None]:
    """parse -> run -> render, as ``anisocalc batch --machine`` does per
    line: (report JSON, exit code, error name).  An engine error is exit 3
    with no report; the CLI comparison shows whether the batch agrees."""
    try:
        report = dsl.run(dsl.parse_query(text))
    except dsl.ParseError as exc:
        return None, dsl.EXIT_USAGE, type(exc).__name__
    except EngineError as exc:
        return None, dsl.EXIT_HYPOTHESIS, type(exc).__name__
    return report.to_json(), report.exit_code, None


def covered_at(text: str) -> bool:
    """Concrete verdict of a decision query; a refused hypothesis (exit 3,
    for example an unidentifiable scale at that p) is not covered."""
    report, code, error = run_query(text)
    if report is None and code != dsl.EXIT_HYPOTHESIS:
        raise ValueError(f"concrete query {text!r} does not parse: {error}")
    return report is not None and json.loads(report)["verdict"] == "COVERED"


class QueryWorkload:
    """Shared by the two decision workloads: query lines run in-process
    and once more through ``anisocalc batch --machine``."""

    # the untimed first pass fills the descriptor and signature caches and
    # lets the interpreter specialize the hot paths
    warm_up = True

    def __init__(self, root: Path, seed: int):
        self.root = root
        self.seed = seed
        self.golden = corpus.load_golden(root)
        self.lines = self.make_lines()

    def make_lines(self) -> list[corpus.Line]:
        raise NotImplementedError

    def ops(self) -> list[Op]:
        return [Op(ln.kind, ln.text, lambda t=ln.text: run_query(t))
                for ln in self.lines]

    def check(self, outputs: list) -> list[str]:
        """Every line is golden or valid by construction, so an engine
        error on any of them is a failure."""
        pinned = dict(self.golden.concrete + self.golden.solve)
        fails = []
        for ln, (report, code, error) in zip(self.lines, outputs):
            if error is not None:
                fails.append(f"{ln.text!r}: {error} (exit {code})")
                continue
            fail = None
            if ln.kind == "golden":
                fail = oracles.check_golden(ln.text, report, pinned[ln.text])
            elif ln.kind == "index":
                fail = oracles.check_index(ln, report)
            elif ln.kind == "hoelder":
                fail = oracles.check_hoelder(ln, report)
            if fail is None and ln.text.startswith("solve p:"):
                fail = oracles.check_solved(ln.text, report, covered_at)
            if fail is not None:
                fails.append(fail)
        return fails

    def run_cli(self, outputs: list, work: Path) -> tuple[float, list[str], int]:
        """One ``batch --machine`` subprocess over the query lines; its
        stdout must equal the in-process reports and its exit code the
        worst per-line code."""
        lines = self.lines
        path = work / f"{self.name}-{self.seed}.txt"
        path.write_text("".join(ln.text + "\n" for ln in lines))
        wall, proc = timed_subprocess(
            [sys.executable, "-m", "anisocalc.cli", "batch", str(path),
             "--machine"], self.root)
        outs = outputs[:len(lines)]
        want = "".join(r + "\n" for r, _, _ in outs if r is not None)
        worst = max(code for _, code, _ in outs)
        fails = []
        if proc.returncode != worst:
            fails.append(f"cli batch exit {proc.returncode}, worst line code {worst}: "
                         f"{proc.stderr.strip()[-300:]}")
        if proc.stdout != want:
            fails.append("cli batch stdout differs from the in-process reports")
        return wall, fails, len(lines)


class ConcreteBatch(QueryWorkload):
    name = "concrete-batch"

    def make_lines(self) -> list[corpus.Line]:
        golden = [corpus.Line("golden", q) for q, _ in self.golden.concrete]
        return golden + corpus.concrete_lines(self.seed)

    def first_op_argv(self, work: Path) -> list[str]:
        path = work / "first-concrete.txt"
        path.write_text(self.golden.concrete[0][0] + "\n")
        return [sys.executable, "-m", "anisocalc.cli", "batch", str(path),
                "--machine"]


SUITE_SIZES = range(2, 9)


def suite_op(problem: str, n: int):
    from anisocalc import appsuite
    run = appsuite.run_stefan if problem == "stefan" else appsuite.run_nvs
    report = run(n)
    return (report.intersection.describe_p(), report.final.describe_p(),
            tuple(t.param_set.describe_p() for t in report.terms))


class SymbolicSolve(QueryWorkload):
    name = "symbolic-solve"

    def make_lines(self) -> list[corpus.Line]:
        golden = [corpus.Line("golden", q) for q, _ in self.golden.solve]
        return golden + corpus.solve_lines(self.seed)

    def ops(self) -> list[Op]:
        suites = [Op("suite", f"app {problem} --n {n}",
                     lambda p=problem, n=n: suite_op(p, n))
                  for n in SUITE_SIZES for problem in ("stefan", "nvs")]
        return super().ops() + suites

    def check(self, outputs: list) -> list[str]:
        n_lines = len(self.lines)
        fails = super().check(outputs[:n_lines])
        suites = [(p, n) for n in SUITE_SIZES for p in ("stefan", "nvs")]
        for (problem, n), out in zip(suites, outputs[n_lines:]):
            fail = oracles.check_suite(problem, n, out[0])
            if fail is not None:
                fails.append(fail)
        return fails

    def first_op_argv(self, work: Path) -> list[str]:
        return [sys.executable, str(HERE / "firstop.py"), "solve",
                self.golden.solve[0][0]]


def fit_op(fit: corpus.Fit, space):
    from anisocalc import normlab  # only this workload loads numpy
    slope, pts = normlab.dilation_scaling_exponent(
        space, normlab.GaussianSpec(tuple(float(v) for v in fit.sigmas)),
        [float(v) for v in fit.lambdas], (float(fit.spacing),) * len(fit.dims),
        float(fit.radius))
    return slope, tuple(pts)


def fit_ops(fits, kind: str = "fit") -> list[Op]:
    """One operation per fit; the descriptors are built untimed."""
    return [Op(kind, fit.name, lambda f=fit, s=fit.space(): fit_op(f, s))
            for fit in fits]


def slope_errors(fits, outputs: list) -> list[float]:
    return [oracles.slope_error(fit, slope)
            for fit, (slope, _) in zip(fits, outputs)]


class SeminormLab:
    name = "seminorm-lab"
    # nothing to warm: each fit builds its arrays afresh, and one pass
    # takes about ten seconds, so the first pass is also timed
    warm_up = False

    def __init__(self, root: Path, seed: int):
        self.root = root
        self.seed = seed
        self.golden = corpus.load_golden(root)
        self.fits = corpus.lab_fits(seed)

    def ops(self) -> list[Op]:
        return fit_ops(self.fits)

    def check(self, outputs: list) -> list[str]:
        fails = [oracles.check_slope(fit, slope)
                 for fit, (slope, _) in zip(self.fits, outputs)]
        return [f for f in fails if f is not None]

    def run_cli(self, outputs: list, work: Path) -> tuple[float, list[str], int]:
        """``anisocalc seminorm --dilations`` for the first fit; its table
        must equal the in-process fit bit for bit."""
        fit = self.fits[0]
        sig = ",".join(corpus.render_fraction(s) for s in fit.sigmas)
        argv = [sys.executable, "-m", "anisocalc.cli", "seminorm",
                "--space", fit.space_text(), "--sigma", sig,
                "--spacing", corpus.render_fraction(fit.spacing),
                "--radius", str(fit.radius), "--machine", "--dilations",
                ",".join(corpus.render_fraction(v) for v in fit.lambdas)]
        wall, proc = timed_subprocess(argv, self.root)
        fails = []
        if proc.returncode != 0:
            return wall, [f"cli seminorm exit {proc.returncode}: "
                          f"{proc.stderr.strip()[-300:]}"], 1
        rows = [tuple(r) for r in json.loads(proc.stdout)["rows"]]
        if tuple(rows) != outputs[0][1]:
            fails.append("cli seminorm table differs from the in-process fit")
        fail = oracles.check_slope(fit, oracles.least_squares_slope(rows))
        if fail is not None:
            fails.append("cli " + fail)
        return wall, fails, 1

    def first_op_argv(self, work: Path) -> list[str]:
        return [sys.executable, str(HERE / "firstop.py"), "seminorm",
                str(self.seed)]


WORKLOADS = {w.name: w for w in (ConcreteBatch, SymbolicSolve, SeminormLab)}
