"""Application checklists: exact per-term ranges and intersections."""

from fractions import Fraction as F
from pathlib import Path

import pytest

from anisocalc import ParamSet, appsuite
from anisocalc.appsuite import run_nvs, run_stefan

from conftest import run_cli

GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("n", [2, 3, 4])
def test_stefan_per_term_ranges(n):
    report = run_stefan(n)
    assert report.all_match, [
        (t.check.name, t.param_set.describe_p(), t.check.expected.describe_p())
        for t in report.terms if not t.matches_expected]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_nvs_per_term_ranges(n):
    report = run_nvs(n)
    assert report.all_match, [
        (t.check.name, t.param_set.describe_p(), t.check.expected.describe_p())
        for t in report.terms if not t.matches_expected]


def test_stefan_intersection_n3():
    report = run_stefan(3)
    assert report.intersection == ParamSet.from_x(F(0), False, F(2, 5), True)
    assert report.intersection.describe_p() == "[5/2, oo)"
    # exclusions from the linear theory: only p = 3 lies inside the range
    assert [e.x for e in report.final.excluded] == [F(1, 3)]


def test_nvs_intersection_n3():
    report = run_nvs(3)
    assert report.intersection == ParamSet.from_x(F(0), False, F(2, 5), False)
    assert report.intersection.describe_p() == "(5/2, oo)"


@pytest.mark.parametrize("n,lo,closed", [(2, F(1, 2), True), (3, F(2, 5), True),
                                         (4, F(1, 3), True)])
def test_stefan_intersection_general(n, lo, closed):
    report = run_stefan(n)
    assert report.intersection == ParamSet.from_x(F(0), False, lo, closed)


def test_nvs_subconditions_n3():
    report = run_nvs(3)
    reqp2 = ParamSet.from_x(F(0), False, F(3, 5), True)  # p >= 5/3
    named = {t.check.name: t.param_set for t in report.terms}
    assert named["convective transport"] == reqp2
    assert named["divergence correction (time part)"] == reqp2
    assert named["interface convection (interface factor)"] == reqp2
    assert named["convective transport"].describe_p() == "[5/3, oo)"


def test_concrete_runs():
    ok = run_stefan(3, F(3))
    assert ok.all_covered
    boundary = run_stefan(3, F(5, 2))
    assert boundary.all_covered  # the scaling-critical endpoint is included
    low = run_stefan(3, F(2))
    failed = [t.check.name for t in low.terms
              if t.decision is not None and not t.decision.covered]
    assert "flux coupling" in failed
    flux = next(t for t in low.terms if t.check.name == "flux coupling")
    assert flux.decision.first_failure().anchor == "mult.iii"


def test_concrete_nvs_runs():
    assert run_nvs(3, F(3)).all_covered
    at_boundary = run_nvs(3, F(5, 2))
    assert not at_boundary.all_covered  # the range is open at (n+2)/2


def test_removing_terms_never_shrinks_intersection():
    report = run_stefan(3)
    full = report.intersection
    sets = [t.param_set for t in report.terms]
    for skip in range(len(sets)):
        inter = ParamSet.unit_interval()
        for j, ps in enumerate(sets):
            if j != skip:
                inter = inter.intersect(ps)
        # the partial intersection contains the full one
        for iv in full.intervals:
            assert any(o.intersect(iv) == iv for o in inter.intervals)


def test_dimension_guard():
    with pytest.raises(ValueError):
        run_stefan(1)


def test_facts_carry_anchors():
    for report in (run_stefan(2), run_nvs(2)):
        assert all(f.anchor for f in report.facts)
        assert all(t.check.anchor for t in report.terms)
        assert report.footnotes


def _app_transcript() -> str:
    """Every `app` checklist at n = 2, 3, 4: solved and at p = 3, text and
    machine, each as the command, its exit code and its stdout."""
    blocks = []
    for problem in ("stefan", "nvs"):
        for n in ("2", "3", "4"):
            for mode in (["--solve-p"], ["--p", "3"]):
                for out in ([], ["--machine"]):
                    args = ["app", problem, "--n", n, *mode, *out]
                    code, stdout, _ = run_cli(args)
                    blocks.append(f"$ anisocalc {' '.join(args)}\n"
                                  f"[exit {code}]\n{stdout}")
    return "".join(blocks)


def test_app_checklists_match_golden():
    assert _app_transcript() == (GOLDEN / "app.txt").read_text()


@pytest.mark.parametrize("suite, distinct", [(run_nvs, 10), (run_stefan, 8)])
def test_checklist_solves_each_distinct_term_once(monkeypatch, suite,
                                                   distinct):
    # nvs repeats four queries ("gradient transport" is also the velocity
    # part of the divergence correction), stefan one (phi and psi); each
    # distinct (kind, factors, target) is solved once over one descriptor
    # set, and equal queries report equal ranges
    solved = []
    solve = appsuite.solve_param
    monkeypatch.setattr(appsuite, "solve_param",
                        lambda decide: solved.append(decide) or solve(decide))
    for n in range(2, 9):
        solved.clear()
        report = suite(n)
        assert len(solved) == distinct
        by_query = {}
        for t in report.terms:
            key = (t.check.kind, t.check.factors, t.check.target)
            assert by_query.setdefault(key, t.param_set) == t.param_set
        assert len(by_query) == distinct
