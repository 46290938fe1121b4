"""Every anchor the engine cites is an entry of the rulebook, and some
query reaches it."""

import ast
import json
from pathlib import Path

import pytest

import anisocalc
from anisocalc.anchors import RULEBOOK
from anisocalc.appsuite import run_nvs, run_stefan
from anisocalc.dsl import parse_query, run

from conftest import run_cli

GOLDEN = Path(__file__).parent / "golden"


def _anchors(doc):
    """Every value stored under an "anchor" key of a machine document."""
    if isinstance(doc, dict):
        for key, val in doc.items():
            if key == "anchor":
                yield val
            else:
                yield from _anchors(val)
    elif isinstance(doc, list):
        for val in doc:
            yield from _anchors(val)


def _corpus_lines():
    text = (GOLDEN / "queries.txt").read_text()
    return [ln.strip() for ln in text.splitlines()
            if ln.strip() and not ln.strip().startswith("#")]


def test_golden_anchors_are_in_the_rulebook():
    cited = set()
    for line in _corpus_lines():
        cited.update(_anchors(run(parse_query(line)).to_machine()))
    assert cited and cited <= RULEBOOK.keys(), cited - RULEBOOK.keys()


def test_explain_names_every_rule():
    _, stdout, _ = run_cli(["batch", str(GOLDEN / "queries.txt"),
                                    "--explain"])
    assert stdout.count("trace:") > 0
    assert "(unknown rule)" not in stdout


_SUITES = [("stefan", run_stefan), ("nvs", run_nvs)]
_MODES = [["--p", "3"], ["--solve-p"]]


def _app_anchors(problem, suite, mode):
    """The anchors of a checklist at n = 2, with the concrete term traces:
    they are not printed, but they are derivations of the same checklist."""
    _, stdout, _ = run_cli(["app", problem, "--n", "2", *mode, "--machine"])
    cited = set(_anchors(json.loads(stdout)))
    report = suite(2, 3 if mode[0] == "--p" else None)
    for term in report.terms:
        if term.decision is not None:
            cited.update(e.anchor for e in term.decision.trace)
    return cited


@pytest.mark.parametrize("problem, suite", _SUITES)
@pytest.mark.parametrize("mode", _MODES, ids=["concrete", "solve-p"])
def test_app_anchors_are_in_the_rulebook(problem, suite, mode):
    cited = _app_anchors(problem, suite, mode)
    assert cited and cited <= RULEBOOK.keys(), cited - RULEBOOK.keys()


# one query for each anchor that neither the corpus nor a checklist reaches
_REACHING_QUERIES = [
    "H^{1,(1)}_2(R^1) -> H^{1,(1)}_2(R^1) ?",        # embed.identity
    "H^{2,(1)}_2(R^1) -> B^{1,(1)}_2(R^1) ?",        # embed.h-b
    "B^{2,(1)}_2(R^1) -> L^{(1)}_2(R^1) ?",          # embed.b-l
    "L^{(1)}_oo(R^1) -> L^{(1)}_2(R^1) ?",           # space.zero-order
    "C0(R^1) -> L^{(1)}_2(R^1) ?",                   # embed.dispatch
    "B^{1/4,(1)}_2_{5/2}(R^1) -> L^{(1)}_4(R^1) ?",  # embed.detour
]


def test_every_cited_anchor_is_reached():
    # an anchor written in the source (outside the rulebook itself) is
    # emitted by the golden corpus, a checklist or one of the queries above
    cited = set()
    for path in Path(anisocalc.__file__).parent.rglob("*.py"):
        if path.name != "anchors.py":
            cited.update(node.value for node in ast.walk(ast.parse(
                path.read_text())) if isinstance(node, ast.Constant)
                and isinstance(node.value, str) and node.value in RULEBOOK)
    reached = set()
    for line in _corpus_lines() + _REACHING_QUERIES:
        reached.update(_anchors(run(parse_query(line)).to_machine()))
    for problem, suite in _SUITES:
        for mode in _MODES:
            reached |= _app_anchors(problem, suite, mode)
    assert cited and not cited - reached, sorted(cited - reached)
