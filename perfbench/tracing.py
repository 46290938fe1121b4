"""The traced run: spans around calls into each layer, and the per-layer
metrics computed from them.

Spans are recorded from the benchmark's own files.  The benchmark calls
the public functions through module attributes, so swapping a timing
wrapper in for a module attribute catches both those calls and the calls
one engine module makes into another through an imported name
(``spaces.normalize`` from the rule modules, ``psolver.solve_param`` from
``dsl`` and ``appsuite``, the seminorms from the dilation fit).  The
wrappers are installed only for the traced run.  A wrapped name that no
longer exists stops the run with an error instead of reporting zero.
"""

from __future__ import annotations

import gzip
import math
import re
import statistics
import sys
from fractions import Fraction as F
from pathlib import Path
from time import perf_counter

import corpus
from workloads import Op, fit_ops, run_query, suite_op, timed_subprocess

# span record fields
NAME, TAG, START, END, PARENT, OP, EXTRA = range(7)
ROOT = "bench.op"

# per-layer metrics: name -> unit
PER_LAYER = {
    "cli.import_ms": "ms",
    "cli.import_numeric_ms": "ms",
    "cli.cold_query_ms": "ms",
    "dsl.parse_us": "us",
    "dsl.parse_share": "ratio",
    "dsl.render_us": "us",
    **{f"dsl.run_us.{k}": "us" for k in (
        "index", "embed", "mult", "multiplier", "algebra", "nemytskij",
        "interp", "solve-p")},
    "spaces.normalize_calls": "count/op",
    "spaces.normalize_us": "us",
    "spaces.normalize_share": "ratio",
    "embed.decide_us": "us",
    "multiply.decide_us": "us",
    "nemytskij.decide_us": "us",
    "psolver.solve_ms": "ms",
    "psolver.evals": "count",
    "psolver.breakpoints": "count",
    "psolver.eval_us": "us",
    "psolver.self_ms": "ms",
    "psolver.eval_yield": "ratio",
    "appsuite.suite_ms.stefan": "ms",
    "appsuite.suite_ms.nvs": "ms",
    "normlab.sample_ms": "ms",
    "normlab.seminorm_1d_ms": "ms",
    "normlab.seminorm_2d_ms": "ms",
    "normlab.shifts": "count",
    "normlab.shift_bytes": "bytes-computed",
    "normlab.us_per_shift_2d": "us",
    "normlab.slope_err": "1",
    "bench.trace_overhead": "ratio",
    "bench.uncovered_share": "ratio",
}


class Tracer:
    """In-memory spans: [name, tag, start, end, parent, op id, extra]."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = [-1]
        self.op = -1

    def wrap(self, fn, name: str, tag=None, post=None):
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            rec = [name, tag(args) if tag else None, 0.0, 0.0, stack[-1],
                   self.op, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[END] = perf_counter()
                stack.pop()
            if post is not None:
                rec[EXTRA] = post(args, out)
            return out
        return traced

    def run_op(self, op_id: int, op: Op):
        self.op = op_id
        return self.wrap(op.fn, ROOT, lambda _: op.kind)()

    def traced_solve(self, solve):
        """solve_param with each evaluation of the decision thunk as a
        child span; the solve span's extra holds (evaluations,
        breakpoints)."""
        tracer = self

        def traced(decide):
            evals = [0]
            points: set = set()

            def evaluate(env):
                evals[0] += 1
                try:
                    return eval_span(env)
                finally:
                    # solve_param records the breakpoints of an evaluation
                    # that raises NotIdentifiable too
                    if env.recorder is not None:
                        points.update(env.recorder.points)
            eval_span = tracer.wrap(decide, "psolver.eval")
            return tracer.wrap(solve, "psolver.solve",
                               post=lambda a, o: (evals[0], len(points)))(evaluate)
        return traced

    def write(self, path: Path, groups: dict[int, str]) -> None:
        """Spans as tab-separated rows (times in microseconds)."""
        with gzip.open(path, "wt") as out:
            out.write("id\tparent\top\tgroup\tname\ttag\tstart_us\tend_us\textra\n")
            t0 = self.spans[0][START] if self.spans else 0.0
            for i, s in enumerate(self.spans):
                out.write(f"{i}\t{s[PARENT]}\t{s[OP]}\t{groups.get(s[OP], '')}\t"
                          f"{s[NAME]}\t{s[TAG]}\t{(s[START] - t0) * 1e6:.3f}\t"
                          f"{(s[END] - t0) * 1e6:.3f}\t{s[EXTRA]}\n")


def _seminorm_work(args, result) -> tuple[int, int]:
    """(shifts, bytes) of one seminorm evaluation, computed from its meta:
    radial nodes x directions x (derivatives or difference order) shifts,
    each reading and writing one zero-padded float64 array."""
    u, space = args[0], args[1]
    besov = space.scale.value == "B"
    dims = u.slice_dims
    shifts = nbytes = 0
    for sl in result.meta["slices"]:
        k, order, nodes = sl["slice"], sl["order"], sl["radial_nodes"]
        nk = dims[k - 1]
        dirs = {1: 2, 2: 16, 3: 14}[nk]
        per_dir = order if besov else nk ** order
        pad = math.ceil(sl["r_range"][1] / u.spacings[k - 1]) + 1
        pad *= order if besov else 1
        axes = set(u.slice_axes(k))
        elems = math.prod(n + 2 * pad if ax in axes else n
                          for ax, n in enumerate(u.samples.shape))
        count = nodes * dirs * per_dir
        shifts += count
        nbytes += count * elems * 8 * 2
    return shifts, nbytes


def install(tracer: Tracer) -> list[tuple[object, str, object]]:
    """Swap the timing wrappers in; returns what ``restore`` puts back."""
    from anisocalc import appsuite, dsl, embed, multiply, nemytskij, normlab

    rules = {
        "embeds": "embed.decide", "embeds_in": "embed.decide",
        "interpolate_complex": "embed.interp",
        "interpolate_real": "embed.interp",
        "decide_multiplication": "multiply.decide",
        "decide_multiplication_in": "multiply.decide",
        "decide_multiplier": "multiply.decide",
        "decide_multiplier_in": "multiply.decide",
        "decide_algebra": "multiply.decide",
        "decide_algebra_in": "multiply.decide",
        "decide_nemytskij": "nemytskij.decide",
        "decide_nemytskij_in": "nemytskij.decide",
    }
    plan = [
        (dsl, "parse_query", "dsl.parse", None, None),
        (dsl, "run", "dsl.run", lambda a: a[0].kind, None),
        (dsl.Report, "to_json", "dsl.render", None, None),
        (dsl, "sobolev_index", "spaces.index", None, None),
        *[(dsl, n, span, None, None) for n, span in rules.items()],
        *[(appsuite, n, rules[n], None, None) for n in (
            "embeds_in", "decide_multiplication_in", "decide_multiplier_in",
            "decide_nemytskij_in")],
        (appsuite, "run_stefan", "appsuite.suite", lambda a: "stefan", None),
        (appsuite, "run_nvs", "appsuite.suite", lambda a: "nvs", None),
        *[(m, "normalize", "spaces.normalize", None, None)
          for m in (embed, multiply, nemytskij)],
        (normlab, "dilation_scaling_exponent", "normlab.fit", None, None),
        (normlab.GaussianSpec, "sample", "normlab.sample", None, None),
        *[(normlab, n, "normlab.seminorm", lambda a: sum(a[0].slice_dims),
           _seminorm_work) for n in ("seminorm_slobodeckij", "seminorm_besov")],
    ]
    solvers = [(dsl, "solve_param"), (appsuite, "solve_param")]
    missing = [f"{getattr(o, '__name__', o)}.{n}" for o, n, *_ in plan + solvers
               if not hasattr(o, n)]
    if missing:
        raise SystemExit("traced run: wrapped names no longer exist: "
                         + ", ".join(missing))
    saved = []
    for obj, attr, span, tag, post in plan:
        saved.append((obj, attr, obj.__dict__[attr]))
        setattr(obj, attr, tracer.wrap(getattr(obj, attr), span, tag, post))
    for obj, attr in solvers:
        saved.append((obj, attr, obj.__dict__[attr]))
        setattr(obj, attr, tracer.traced_solve(getattr(obj, attr)))
    return saved


def restore(saved) -> None:
    for obj, attr, orig in reversed(saved):
        setattr(obj, attr, orig)


_LAMBDAS = (F(1, 2), F(1), F(2))
PROBE_FITS = (
    corpus.Fit("probe-1d", "W", F(1, 2), F(1, 2), (1,), (1,), "R^1",
               (F(1),), _LAMBDAS, F(1, 10), 8),
    corpus.Fit("probe-2d", "W", F(1, 2), F(1, 2), (1, 1), (2, 1),
               "JxRdot", (F(1), F(1)), _LAMBDAS, F(1, 4), 4))


def probe_ops(golden) -> list[Op]:
    """One small operation per layer, traced in every traced run.  A layer
    the workload never calls takes its per-layer numbers from these, so
    that no per-layer metric reads a constant zero; those numbers describe
    the probe, not the workload.  The coarse fits of ``PROBE_FITS`` come
    last."""
    ops = [Op("probe", q, lambda t=q: run_query(t))
           for q, _ in golden.concrete + golden.solve]
    ops += [Op("probe", f"app {p} --n 2", lambda p=p: suite_op(p, 2))
            for p in ("stefan", "nvs")]
    return ops + fit_ops(PROBE_FITS, "probe")


class View:
    """The spans of one group of operations (the workload or the probe) as
    rows (span, duration, self time)."""

    def __init__(self, spans: list[list], ops: set[int], passes: int):
        child = [0.0] * len(spans)
        for s in spans:
            if s[PARENT] >= 0:
                child[s[PARENT]] += s[END] - s[START]
        self.rows = [(s, s[END] - s[START], s[END] - s[START] - child[i])
                     for i, s in enumerate(spans) if s[OP] in ops]
        self.passes = passes

    def select(self, name: str, tag=None) -> list[tuple]:
        return [r for r in self.rows
                if r[0][NAME] == name and (tag is None or r[0][TAG] == tag)]

    def extras(self, name: str, tag=None) -> list:
        return [r[0][EXTRA] for r in self.select(name, tag)]

    def total(self, name: str, tag=None, own: bool = False) -> float:
        return sum(r[2] if own else r[1] for r in self.select(name, tag))

    def mean(self, name: str, tag=None, own: bool = False) -> float | None:
        n = len(self.select(name, tag))
        return self.total(name, tag, own) / n if n else None

    def layer_self(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for s, _, own in self.rows:
            layer = s[NAME].split(".")[0]
            out[layer] = out.get(layer, 0.0) + own
        return out


def _per_layer(view: View) -> dict[str, float | None]:
    """Per-layer metrics of one view; None where the view never called the
    layer."""
    roots = view.total(ROOT)
    n_roots = len(view.select(ROOT))

    def scaled(v, k):
        return None if v is None else v * k

    def share(name):
        return view.total(name, own=True) / roots if view.select(name) else None

    solves = view.extras("psolver.solve")          # (evaluations, breakpoints)
    evals = sum(e for e, _ in solves)
    semi = view.extras("normlab.seminorm")         # (shifts, bytes)
    shifts2 = sum(n for n, _ in view.extras("normlab.seminorm", 2))
    normalize = len(view.select("spaces.normalize"))
    out = {
        "dsl.parse_us": scaled(view.mean("dsl.parse"), 1e6),
        "dsl.parse_share": share("dsl.parse"),
        "dsl.render_us": scaled(view.mean("dsl.render"), 1e6),
        "spaces.normalize_calls": normalize / n_roots if normalize else None,
        "spaces.normalize_us": scaled(view.mean("spaces.normalize"), 1e6),
        "spaces.normalize_share": share("spaces.normalize"),
        "embed.decide_us": scaled(view.mean("embed.decide", own=True), 1e6),
        "multiply.decide_us": scaled(view.mean("multiply.decide", own=True), 1e6),
        "nemytskij.decide_us": scaled(view.mean("nemytskij.decide", own=True), 1e6),
        "psolver.solve_ms": scaled(view.mean("psolver.solve"), 1e3),
        "psolver.evals": evals / len(solves) if solves else None,
        "psolver.breakpoints":
            sum(b for _, b in solves) / len(solves) if solves else None,
        "psolver.eval_us": scaled(view.mean("psolver.eval"), 1e6),
        "psolver.self_ms": scaled(view.mean("psolver.solve", own=True), 1e3),
        "psolver.eval_yield":
            sum(2 * b + 1 for _, b in solves) / evals if evals else None,
        "appsuite.suite_ms.stefan": scaled(view.mean("appsuite.suite", "stefan"), 1e3),
        "appsuite.suite_ms.nvs": scaled(view.mean("appsuite.suite", "nvs"), 1e3),
        "normlab.sample_ms": scaled(view.mean("normlab.sample"), 1e3),
        "normlab.seminorm_1d_ms": scaled(view.mean("normlab.seminorm", 1), 1e3),
        "normlab.seminorm_2d_ms": scaled(view.mean("normlab.seminorm", 2), 1e3),
        "normlab.shifts":
            sum(n for n, _ in semi) / view.passes if semi else None,
        "normlab.shift_bytes":
            sum(b for _, b in semi) / view.passes if semi else None,
        "normlab.us_per_shift_2d":
            view.total("normlab.seminorm", 2) / shifts2 * 1e6 if shifts2 else None,
    }
    for kind in ("index", "embed", "mult", "multiplier", "algebra",
                 "nemytskij", "interp", "solve-p"):
        out[f"dsl.run_us.{kind}"] = scaled(view.mean("dsl.run", kind), 1e6)
    return out


def layer_metrics(workload: View, probe: View) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics from the workload's spans, falling back to the
    probe's for layers the workload does not call; also returns the names
    that came from the probe."""
    own = _per_layer(workload)
    other = _per_layer(probe)
    out, from_probe = {}, []
    for name, value in own.items():
        if value is None:
            value = other[name]
            from_probe.append(name)
        if value is None:
            raise SystemExit(f"traced run: no spans for {name}, even in the probe")
        out[name] = value
    return out, from_probe


_IMPORT_LINE = re.compile(r"import time:\s+\d+ \|\s+(\d+) \|\s+(\S.*)$")


def cli_metrics(root: Path, golden, repeats: int = 3) -> dict[str, float]:
    """Cold start of the CLI, measured in fresh interpreters: cumulative
    import time of ``anisocalc.cli`` and of ``anisocalc.normlab`` within
    it (``-X importtime``), and the wall time of one ``index`` call."""
    imports, numeric, cold = [], [], []
    index_query = next(q for q, _ in golden.concrete if q.startswith("index"))
    for _ in range(repeats):
        _, proc = timed_subprocess(
            [sys.executable, "-X", "importtime", "-c", "import anisocalc.cli"], root)
        if proc.returncode != 0:
            raise SystemExit(f"import anisocalc.cli failed: {proc.stderr[-300:]}")
        cum = {}
        for line in proc.stderr.splitlines():
            m = _IMPORT_LINE.match(line)
            if m:
                cum[m.group(2).strip()] = int(m.group(1))
        imports.append(cum["anisocalc.cli"] / 1e3)
        numeric.append(cum.get("anisocalc.normlab", 0) / 1e3)
        wall, proc = timed_subprocess(
            [sys.executable, "-m", "anisocalc.cli", "index",
             index_query.removeprefix("index ")], root)
        if proc.returncode != 0:
            raise SystemExit(f"anisocalc index failed: {proc.stderr[-300:]}")
        cold.append(wall * 1e3)
    return {"cli.import_ms": statistics.median(imports),
            "cli.import_numeric_ms": statistics.median(numeric),
            "cli.cold_query_ms": statistics.median(cold)}
