"""Every anchor the engine cites is an entry of the rulebook."""

import json
from pathlib import Path

import pytest
from click.testing import CliRunner

from anisocalc.anchors import RULEBOOK
from anisocalc.appsuite import run_nvs, run_stefan
from anisocalc.cli import main
from anisocalc.dsl import parse_query, run

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
    res = CliRunner().invoke(main, ["batch", str(GOLDEN / "queries.txt"),
                                    "--explain"])
    assert res.exception is None or isinstance(res.exception, SystemExit)
    assert res.stdout.count("trace:") > 0
    assert "(unknown rule)" not in res.stdout


@pytest.mark.parametrize("problem, suite", [("stefan", run_stefan),
                                            ("nvs", run_nvs)])
@pytest.mark.parametrize("mode", [["--p", "3"], ["--solve-p"]],
                         ids=["concrete", "solve-p"])
def test_app_anchors_are_in_the_rulebook(problem, suite, mode):
    res = CliRunner().invoke(main, ["app", problem, "--n", "2", *mode,
                                    "--machine"])
    cited = set(_anchors(json.loads(res.stdout)))
    # the concrete term traces are not printed, but they are derivations
    # of the same checklist
    report = suite(2, 3 if mode[0] == "--p" else None)
    for term in report.terms:
        if term.decision is not None:
            cited.update(e.anchor for e in term.decision.trace)
    assert cited and cited <= RULEBOOK.keys(), cited - RULEBOOK.keys()
