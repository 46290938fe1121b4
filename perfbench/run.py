"""anisocalc benchmark: one seeded workload per run.

    python3 perfbench/run.py --workload concrete-batch --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  With ``--trace 0`` it measures the
end-to-end metrics with tracing off; with ``--trace 1`` it records spans
around the calls into each layer and prints the per-layer metrics.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
nonzero when any operation failed or any oracle disagreed.  See
perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from importlib import metadata
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("concrete-batch", "symbolic-solve", "seminorm-lab")
DEFAULT_SEED = 1
SETUP_REPEATS = 5
CLI_REPEATS = 5

END_TO_END = {
    "setup_s": "s",
    "cli_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p99_ms": "ms",
    "peak_rss_mb": "MB",
}


class Failures:
    """Counts operations attempted and failed; keeps the first reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def add(self, attempted: int, reasons: list[str]) -> None:
        self.attempted += attempted
        self.failed += len(reasons)
        self.reasons.extend(reasons[:20 - len(self.reasons)])


def environment() -> dict:
    def version(dist: str) -> str:
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return "absent"

    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or commit
    return {"python": platform.python_version(), "numpy": version("numpy"),
            "scipy": version("scipy"), "nproc": os.cpu_count(),
            "loadavg_1m": os.getloadavg()[0], "commit": commit}


def one_pass(ops, call=None):
    """One pass over the operations, closed loop with one caller: (outputs,
    per-operation times, wall time, errors).  An operation that raises
    yields its exception as output."""
    outs, times, errors = [], [], []
    p0 = perf_counter()
    for i, op in enumerate(ops):
        t0 = perf_counter()
        try:
            out = call(i, op) if call else op.fn()
        except Exception as exc:
            out = exc
            errors.append(f"{op.label}: {traceback.format_exc(limit=2)}")
        times.append(perf_counter() - t0)
        outs.append(out)
    return outs, times, perf_counter() - p0, errors


def reference_pass(wl, ops, fails: Failures) -> tuple[list, list]:
    """The first pass; its outputs are checked against the oracles, and
    every later output must equal them.  A workload with caches or lazy
    set-up (``warm_up``) runs it untimed; otherwise it is also the first
    timed pass.  Returns the outputs and the timed passes so far."""
    outs, times, wall, errors = one_pass(ops)
    fails.add(len(ops), errors)
    if not errors:
        fails.add(0, wl.check(outs))
    return outs, [] if wl.warm_up else [(times, wall)]


def timed_passes(ops, ref, deadline: float, fails: Failures, passes=(),
                 call=None) -> list[tuple[list, float]]:
    """Whole passes until the deadline (at least one): (per-operation
    times, wall time) of each."""
    passes = list(passes)
    while not passes or perf_counter() < deadline:
        outs, times, wall, errors = one_pass(ops, call)
        errors += [f"{op.label}: output differs from the reference pass"
                   for op, out, want in zip(ops, outs, ref)
                   if out != want and not isinstance(out, Exception)]
        fails.add(len(ops), errors)
        passes.append((times, wall))
    return passes


def untraced(wl, seconds: float, work: Path, fails: Failures) -> tuple[dict, list[str]]:
    from stats import beyond, percentile, tail_percentile
    from workloads import slope_errors, timed_subprocess

    ops = wl.ops()
    start = perf_counter()
    ref, passes = reference_pass(wl, ops, fails)
    deadline = (start if passes else perf_counter()) + seconds
    passes = timed_passes(ops, ref, deadline, fails, passes)
    times = [t for pass_times, _ in passes for t in pass_times]
    walls = [wall for _, wall in passes]

    cli_walls = []
    for _ in range(CLI_REPEATS):
        wall, reasons, lines = wl.run_cli(ref, work)
        cli_walls.append(wall)
        fails.add(lines, reasons)
    setup = []
    for _ in range(SETUP_REPEATS):
        wall, proc = timed_subprocess(wl.first_op_argv(work), ROOT)
        setup.append(wall)
        fails.add(1, [] if proc.returncode == 0 else
                  [f"first operation exit {proc.returncode}: {proc.stderr[-300:]}"])

    n = len(times)
    metrics = {
        "setup_s": statistics.median(setup),
        "cli_s": statistics.median(cli_walls),
        "ops_per_s": n / sum(walls),
        "op_p50_ms": percentile(times, 50) * 1e3,
        "op_p99_ms": percentile(times, 99) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    tail = tail_percentile(n)
    notes = [
        f"{len(ops)} operations per pass, {len(walls)} timed passes, {n} samples",
        f"op_p99_ms has {beyond(n, 99)} samples beyond it; highest percentile "
        f"with >= 10 beyond: {'none' if tail is None else f'p{tail:g}'}"
        + ("" if tail is None else f" = {percentile(times, tail) * 1e3:.4f} ms"),
        f"setup_s: median of {SETUP_REPEATS} fresh processes; cli_s: median "
        f"of {CLI_REPEATS} CLI runs",
    ]
    if hasattr(wl, "fits"):
        notes.append("slope_err (max |fitted slope - lcm(w)*ind|): "
                     f"{max(slope_errors(wl.fits, ref)):.6f}")
    return metrics, notes


def traced(wl, seconds: float, work: Path, fails: Failures) -> tuple[dict, list[str]]:
    import tracing
    from workloads import slope_errors

    ops = wl.ops()
    start = perf_counter()
    ref, plain = reference_pass(wl, ops, fails)
    deadline = (start if plain else perf_counter()) + seconds / 2
    plain = [wall for _, wall in timed_passes(ops, ref, deadline, fails, plain)]

    probe = tracing.probe_ops(wl.golden)
    tracer = tracing.Tracer()
    saved = tracing.install(tracer)
    try:
        walls = [wall for _, wall in timed_passes(
            ops, ref, perf_counter() + seconds / 2, fails,
            call=lambda i, op: tracer.run_op(i, op))]
        base = len(ops)
        probe_outs, _, _, errors = one_pass(
            probe, lambda j, op: tracer.run_op(base + j, op))
        fails.add(len(probe), errors)
    finally:
        tracing.restore(saved)

    workload = tracing.View(tracer.spans, set(range(base)), len(walls))
    probe_view = tracing.View(tracer.spans, set(range(base, base + len(probe))), 1)
    metrics, from_probe = tracing.layer_metrics(workload, probe_view)
    metrics.update(tracing.cli_metrics(ROOT, wl.golden))
    if hasattr(wl, "fits"):
        fits, fit_outs = wl.fits, ref
    else:
        fits = tracing.PROBE_FITS
        fit_outs = probe_outs[-len(fits):]
        from_probe.append("normlab.slope_err")
    metrics["normlab.slope_err"] = max(slope_errors(fits, fit_outs))

    traced_wall = sum(walls)
    layers = workload.layer_self()
    covered = sum(v for k, v in layers.items() if k != "bench")
    metrics["bench.trace_overhead"] = \
        statistics.median(walls) / statistics.median(plain) - 1
    metrics["bench.uncovered_share"] = (traced_wall - covered) / traced_wall

    groups = {i: "workload" for i in range(base)}
    groups.update({base + j: "probe" for j in range(len(probe))})
    spans_path = work / f"spans-{wl.name}-{wl.seed}.tsv.gz"
    tracer.write(spans_path, groups)

    notes = [f"{len(walls)} traced passes ({traced_wall:.3f} s), "
             f"{len(plain)} untraced passes; median pass "
             f"{statistics.median(walls):.4f} s traced vs "
             f"{statistics.median(plain):.4f} s untraced",
             "self time by layer over the traced passes (share of traced wall):"]
    for layer, t in sorted(layers.items(), key=lambda kv: -kv[1]):
        label = "bench (uncovered: benchmark code between calls)" \
            if layer == "bench" else layer
        notes.append(f"    {label:<50} {t:10.4f} s  {t / traced_wall:7.2%}")
    loop = traced_wall - sum(layers.values())
    notes.append(f"    {'bench (uncovered: loop between operations)':<50} "
                 f"{loop:10.4f} s  {loop / traced_wall:7.2%}")
    if from_probe:
        notes.append("from the probe (layers this workload does not call): "
                     + ", ".join(from_probe))
    notes.append(f"spans: {spans_path.relative_to(ROOT)} "
                 f"({len(tracer.spans)} spans)")
    return metrics, notes


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "anisocalc" / "__init__.py").is_file():
        print(f"perfbench: no src/anisocalc under {ROOT}; run the benchmark "
              "from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import tracing
    import workloads

    work = ROOT / ".perfbench"
    work.mkdir(exist_ok=True)
    env = environment()
    wl = workloads.WORKLOADS[args.workload](ROOT, args.seed)
    fails = Failures()
    run = traced if args.trace else untraced
    metrics, notes = run(wl, args.seconds, work, fails)

    units = tracing.PER_LAYER if args.trace else END_TO_END
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    for name, unit in units.items():
        print(f"  {name:<28} {metrics[name]:>16.6f} {unit}")
    print(f"  {'failed_share':<28} {fails.failed / fails.attempted:>16.6f} ratio "
          f"({fails.failed} of {fails.attempted})")
    for note in notes:
        print(note)
    for reason in fails.reasons:
        print(f"FAILED: {reason}", file=sys.stderr)
    print(json.dumps({
        "correct": fails.failed == 0,
        "attempted": fails.attempted,
        "failed": fails.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if fails.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
