"""Digests of the benchmark's seeded corpora and of the ``app`` checklists.

``tests/golden/corpus_digests.txt`` holds one line per input: its label and
the first 16 hex digits of the SHA-256 of its output.

- ``<seed> <corpus> <index> <digest>`` for perfbench's ``concrete_lines``
  and ``solve_lines``, seeds 1-5; the output is
  ``dsl.run(dsl.parse_query(line)).to_json()``, or ``ErrorClass: message``
  for a refusal;
- ``app <problem> <n> <mode> <form> <digest>`` for each checklist run; the
  output is the exit code, stdout and stderr of ``anisocalc app``.

``tests/test_dsl.py`` recomputes the file.  A change that alters outputs on
purpose regenerates it with::

    PYTHONPATH=src python tests/corpus_digests.py
"""

from __future__ import annotations

import hashlib
import importlib.util
import sys
from pathlib import Path

from anisocalc import dsl
from conftest import run_cli

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden" / "corpus_digests.txt"
SEEDS = range(1, 6)
APP_MODES = {"solve-p": ["--solve-p"], "p=3": ["--p", "3"],
             "p=5/2": ["--p", "5/2"]}


def _corpus():
    # loaded under its own name: other tests import perfbench's modules
    # from sys.path as ``corpus``
    spec = importlib.util.spec_from_file_location(
        "perfbench_corpus", ROOT / "perfbench" / "corpus.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def inputs() -> list[tuple[str, object]]:
    """(label, input) pairs: a query text, or an ``anisocalc`` argv."""
    corpus = _corpus()
    out: list[tuple[str, object]] = []
    for seed in SEEDS:
        for name, lines in (("concrete", corpus.concrete_lines(seed)),
                            ("solve", corpus.solve_lines(seed))):
            out += [(f"{seed} {name} {i}", line.text)
                    for i, line in enumerate(lines)]
    for problem in ("stefan", "nvs"):
        for n in range(2, 9):
            for mode, flags in APP_MODES.items():
                for form, extra in (("text", []), ("machine", ["--machine"])):
                    out.append((f"app {problem} {n} {mode} {form}",
                                ["app", problem, "--n", str(n), *flags,
                                 *extra]))
    return out


def output(item: object) -> str:
    if isinstance(item, list):
        code, out, err = run_cli(item)
        return f"{code}\n{out}{err}"
    try:
        return dsl.run(dsl.parse_query(item)).to_json()
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"


def digest_line(label: str, item: object) -> str:
    return f"{label} {hashlib.sha256(output(item).encode()).hexdigest()[:16]}"


if __name__ == "__main__":
    GOLDEN.write_text("".join(digest_line(label, item) + "\n"
                              for label, item in inputs()))
