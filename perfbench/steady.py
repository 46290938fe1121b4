"""Steadiness mode: repeat each workload with successive seeds and report
each metric's median, quartiles and spread.

    python3 perfbench/steady.py --runs 10 [--workload NAME ...] [--out FILE]

Seeds run from 1, with tracing off and BENCHMARK.json's run length.

The spread is the distance between the first and third quartile as a
share of the median (``statistics.quantiles(values, n=4)``).  An
end-to-end metric whose spread exceeds its bound in BENCHMARK.json is
flagged, and so is one above a third of its bound, the margin the
benchmark aims for.  The summary records the interpreter, numpy and scipy
versions, the core count, the load average at start and the git commit
next to the numbers.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import environment  # noqa: E402
from stats import spread  # noqa: E402


def one_run(workload: str, seed: int, seconds: int) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(argv[1:])} exited {proc.returncode}:\n"
                         f"{proc.stdout[-2000:]}\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def main(argv: list[str] | None = None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", action="append", choices=names)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--out", type=Path, default=None,
                    help="summary JSON (default .perfbench/steady.json)")
    args = ap.parse_args(argv)
    if args.runs < 2:
        ap.error("--runs must be at least 2 to give quartiles")

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary = {"environment": environment(), "runs": args.runs,
               "seeds": list(range(1, args.runs + 1)),
               "seconds": bench["run_seconds"], "workloads": {}}
    flagged = 0
    for workload in args.workload or names:
        values: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        failed = attempted = 0
        for seed in summary["seeds"]:
            out = one_run(workload, seed, bench["run_seconds"])
            failed += out["failed"]
            attempted += out["attempted"]
            for name, m in out["metrics"].items():
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
        print(f"{workload}: {args.runs} runs, {failed} of {attempted} operations failed")
        print(f"  {'metric':<28} {'median':>14} {'q1':>14} {'q3':>14} "
              f"{'spread':>8} {'bound':>6}")
        rows = {}
        for name, vals in values.items():
            med, q1, q3, sp = spread(vals)
            bound = bounds.get(name)
            flag = ""
            if bound is not None and sp > bound:
                flag = "  SPREAD ABOVE BOUND"
            elif bound is not None and sp > bound / 3:
                flag = "  above a third of the bound"
            flagged += flag == "  SPREAD ABOVE BOUND"
            print(f"  {name:<28} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} "
                  f"{sp:>8.2%} {'' if bound is None else f'{bound:.2f}':>6}{flag}")
            rows[name] = {"unit": units[name], "median": med, "q1": q1,
                          "q3": q3, "spread": sp, "values": vals}
        summary["workloads"][workload] = {"failed": failed,
                                          "attempted": attempted,
                                          "metrics": rows}
    out_path = args.out or ROOT / ".perfbench" / "steady.json"
    out_path.parent.mkdir(exist_ok=True)
    out_path.write_text(json.dumps(summary, indent=1) + "\n")
    print(f"summary: {out_path}")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
