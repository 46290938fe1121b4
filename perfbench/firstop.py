"""A workload's first operation in a fresh interpreter, for set-up time.

    python perfbench/firstop.py solve "<solve p: line>"
    python perfbench/firstop.py seminorm <seed>

The caller times the whole process, interpreter start and imports
included.  A failed operation exits nonzero.  The solve branch imports
no benchmark module, so that its short set-up time is the engine's.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]


def main(argv: list[str]) -> None:
    if argv[0] == "solve":
        from anisocalc import appsuite, dsl  # noqa: F401 - the entry points
        dsl.run(dsl.parse_query(argv[1])).to_json()
    elif argv[0] == "seminorm":
        import corpus
        import workloads
        fit = corpus.lab_fits(int(argv[1]))[0]
        workloads.fit_op(fit, fit.space())
    else:
        raise SystemExit(f"unknown first operation {argv[0]!r}")


if __name__ == "__main__":
    main(sys.argv[1:])
