"""Symbolic parameter solving: exact ranges, endpoints, soundness."""

import importlib
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction as F
from pathlib import Path

import pytest

from anisocalc import appsuite, dsl, psolver
from anisocalc import (SCALARS, AffineExpr, Anisotropy, MultInstance,
                       NotIdentifiable, ParamSet, SpaceDescr, Verdict, X,
                       lp_valued, solve_param)
from anisocalc.appsuite import run_nvs, run_stefan
from anisocalc.dsl import decision_thunk, format_query, parse_query, run
from anisocalc.multiply import (decide_algebra_in, decide_multiplication_in,
                                decide_multiplier_in)
from anisocalc.psolver import ExcludedPoint, Interval
from anisocalc.ratcore import BreakpointRecorder, ParamEnv

from reference import sample_inside, sample_outside

SIG = Anisotropy((1, 2), (2, 1))
VAL = lp_valued("Rdot")


def test_interval_membership_and_intersection():
    a = Interval(F(0), False, F(1, 2), True)
    b = Interval(F(1, 4), True, F(3, 4), False)
    c = a.intersect(b)
    assert c == Interval(F(1, 4), True, F(1, 2), True)
    assert a.intersect(Interval(F(1, 2), False, F(1), False)) is None
    assert a.describe_p() == "[2, oo)"
    assert b.describe_p() == "(4/3, 4]"


def test_param_set_algebra():
    s1 = ParamSet.from_x(F(0), False, F(2, 5), True)
    s2 = ParamSet.from_x(F(1, 5), True, F(1), False)
    inter = s1.intersect(s2)
    assert inter.intervals == (Interval(F(1, 5), True, F(2, 5), True),)
    assert inter.contains(F(1, 5)) and inter.contains(F(2, 5))
    assert not inter.contains(F(1, 10))


def test_param_set_excluded_points():
    s = ParamSet.from_x(F(0), False, F(1, 2), True)
    cut = s.without_points([(F(1, 3), "isolated failure")])
    assert not cut.contains(F(1, 3))
    assert cut.contains(F(1, 4))
    assert cut.excluded == (ExcludedPoint(F(1, 3), "isolated failure"),)


def _trace_space(s_at_p1: F, x: AffineExpr = X) -> SpaceDescr:
    return SpaceDescr.sobolev(AffineExpr(s_at_p1) - x, x, SIG, SCALARS,
                              "JxSigma")


def test_solve_algebra_threshold():
    ps = solve_param(lambda env: decide_algebra_in(_trace_space(F(1)), env))
    assert ps == ParamSet.from_x(F(0), False, F(1, 5), False)
    assert ps.describe_p() == "(5, oo)"


def test_solve_flux_coupling_closed_endpoint():
    w = _trace_space(F(1))
    h1 = SpaceDescr.bessel(1, X, SIG, VAL, "JxSigma")
    h0 = SpaceDescr.lebesgue(X, SIG, VAL, "JxSigma")
    inst = MultInstance.of((w, h1), h0)
    ps = solve_param(lambda env: decide_multiplication_in(inst, env))
    assert ps == ParamSet.from_x(F(0), False, F(2, 5), True)
    assert ps.describe_p() == "[5/2, oo)"


def test_solve_gradient_multiplier_open_endpoint():
    # positive gradient-factor index over the 3-dimensional product:
    # 5/4 - 5x/2 > 0, i.e. p > 2
    w = _trace_space(F(5, 2))
    tgt = _trace_space(F(1))
    inst = MultInstance.of((w, tgt), tgt)
    ps = solve_param(lambda env: decide_multiplier_in(inst, 2, env))
    assert ps == ParamSet.from_x(F(0), False, F(1, 2), False)
    assert ps.describe_p() == "(2, oo)"


def test_endpoint_exactness_matches_concrete_decision():
    w = _trace_space(F(1))
    h1 = SpaceDescr.bessel(1, X, SIG, VAL, "JxSigma")
    h0 = SpaceDescr.lebesgue(X, SIG, VAL, "JxSigma")
    inst = MultInstance.of((w, h1), h0)
    ps = solve_param(lambda env: decide_multiplication_in(inst, env))
    for iv in ps.intervals:
        for b, closed in ((iv.lo, iv.lo_closed), (iv.hi, iv.hi_closed)):
            if b in (F(0), F(1)):
                continue
            got = decide_multiplication_in(inst, ParamEnv(b)).verdict
            assert (got is Verdict.COVERED) == closed


def test_cell_witness_independence():
    w = _trace_space(F(1))
    h1 = SpaceDescr.bessel(1, X, SIG, VAL, "JxSigma")
    h0 = SpaceDescr.lebesgue(X, SIG, VAL, "JxSigma")
    inst = MultInstance.of((w, h1), h0)
    ps = solve_param(lambda env: decide_multiplication_in(inst, env))
    rng = random.Random(7)
    for iv in ps.intervals:
        if iv.lo == iv.hi:
            continue
        span = iv.hi - iv.lo
        for _ in range(5):
            x1 = iv.lo + span * F(rng.randint(1, 96), 97)
            x2 = iv.lo + span * F(rng.randint(1, 96), 97)
            v1 = decide_multiplication_in(inst, ParamEnv(x1)).verdict
            v2 = decide_multiplication_in(inst, ParamEnv(x2)).verdict
            assert v1 is v2 is Verdict.COVERED


def test_soundness_sampling(rng):
    w = _trace_space(F(5, 2))
    tgt = _trace_space(F(2))
    inst = MultInstance.of((w, tgt), tgt)
    ps = solve_param(lambda env: decide_multiplier_in(inst, 2, env))
    for x in sample_inside(ps, rng, 50):
        assert decide_multiplier_in(inst, 2, ParamEnv(x)).covered
    for x in sample_outside(ps, rng, 50):
        assert not decide_multiplier_in(inst, 2, ParamEnv(x)).covered


def test_divisibility_point_bridged_inside_covered_range():
    # over a 2-dimensional product the gradient factor has positive index
    # for p > 8/5, and at the isolated rewrite point p = 2 it moves to the
    # Bessel-potential scale without changing the verdict
    sig2 = Anisotropy((1, 1), (2, 1))
    w = SpaceDescr.sobolev(AffineExpr(F(5, 2)) - X, X, sig2, SCALARS, "JxSigma")
    h0 = SpaceDescr.lebesgue(X, sig2, VAL, "JxSigma")
    inst = MultInstance.of((w, h0), h0)
    ps = solve_param(lambda env: decide_multiplier_in(inst, 2, env))
    # the rewrite point x = 1/2 lies inside and stays covered
    assert ps == ParamSet.from_x(F(0), False, F(5, 8), False)
    assert ps.contains(F(1, 2))


def test_solve_embedding_threshold():
    from anisocalc.embed import embeds_in
    from anisocalc.spaces import SCALARS as SC
    src = _trace_space(F(2))
    dst = SpaceDescr.c0(SIG, SC, "JxSigma")
    ps = solve_param(lambda env: embeds_in(src, dst, env))
    assert ps == ParamSet.from_x(F(0), False, F(2, 5), False)
    assert ps.describe_p() == "(5/2, oo)"


def test_degenerate_point_interval_roundtrip():
    iv = Interval(F(1, 3), True, F(1, 3), True)
    assert iv.contains(F(1, 3))
    assert iv.describe_p() == "[3, 3]"
    with pytest.raises(ValueError):
        Interval(F(1, 3), False, F(1, 3), True)


def test_isolated_rewrite_failure_becomes_exclusion():
    # over weights (4, 1) the factor s = 3/2 + 1/p hits an integer slice
    # ratio exactly at p = 2 without being a multiple of 4: the point is
    # excluded from an otherwise covered range
    from anisocalc.multiply import decide_multiplication_in

    a = Anisotropy((1, 1), (4, 1))
    w = SpaceDescr.sobolev(AffineExpr(F(3, 2), F(1)), X, a, SCALARS, "D")
    l4 = SpaceDescr.lebesgue(AffineExpr(F(1, 4)), a, SCALARS, "D")
    tgt = SpaceDescr.lebesgue(X + AffineExpr(F(1, 4)), a, SCALARS, "D")
    inst = MultInstance.of((w, l4), tgt)
    ps = solve_param(lambda env: decide_multiplication_in(inst, env))
    assert ps.intervals == (Interval(F(0), False, F(3, 4), False),)
    assert [e.x for e in ps.excluded] == [F(1, 2)]
    assert not ps.contains(F(1, 2))
    assert ps.contains(F(127, 256))
    assert ps.describe_p() == "(4/3, oo) minus {p = 2}"


def _solved_cases():
    """(label, decision query, solved set) for every golden ``solve p:``
    line and every checklist term for n = 2..5."""
    golden = Path(__file__).parent / "golden" / "queries.txt"
    cases = []
    for line in golden.read_text().splitlines():
        if line.startswith("solve p:"):
            query = parse_query(line)
            cases.append((line, query.payload["inner"], run(query).param_set))
    for suite in (run_stefan, run_nvs):
        for n in range(2, 6):
            for term in suite(n).terms:
                cases.append((f"{suite.__name__}({n}) {term.check.name}",
                              term.check.query(term.check.spaces(X)),
                              term.param_set))
    return cases


def _covered_at(decide, x: F) -> bool:
    try:
        return decide(ParamEnv(x)).covered
    except NotIdentifiable:
        return False


def test_solved_sets_agree_with_concrete_decisions_at_endpoints():
    # inclusivity is where the theorems differ: evaluate every endpoint and
    # excluded point of each solved set, and its neighbours at 1e-6
    eps = F(1, 10**6)
    cases = _solved_cases()
    assert len(cases) == 5 + 4 * (9 + 14)
    checked, wrong = 0, []
    for label, query, ps in cases:
        decide = decision_thunk(query)
        points = {e.x for e in ps.excluded}
        points.update(b for iv in ps.intervals for b in (iv.lo, iv.hi))
        for x in sorted(points):
            for x0 in (x - eps, x, x + eps):
                if 0 < x0 < 1:
                    checked += 1
                    if _covered_at(decide, x0) != ps.contains(x0):
                        wrong.append((label, x0))
    assert wrong == []
    assert checked >= 3 * len(cases)


def test_large_slope_solved_set_agrees_at_endpoints():
    # W^{221/p} crosses an odd integer, where its slice ratio over weight 1
    # is an integer and it is no multiple of lcm(w) = 2, at x = k/221 for
    # every odd k in the covered range: one genuine excluded point each
    query = parse_query(
        "solve p: nemytskij: W^{2-1/p,(2,1)}_p(JxSigma) * "
        "W^{221/p,(2,1)}_p(JxSigma) -> W^{2-1/p,(2,1)}_p(JxSigma) ?")
    ps = run(query).param_set
    assert ps.intervals == (Interval(F(1, 111), True, F(2, 5), False),)
    assert [e.x for e in ps.excluded] == [F(k, 221) for k in range(3, 88, 2)]
    decide = decision_thunk(query.payload["inner"])
    eps = F(1, 10**6)
    for x in (F(1, 111), F(2, 5), *(e.x for e in ps.excluded)):
        for x0 in (x - eps, x, x + eps):
            assert _covered_at(decide, x0) == ps.contains(x0), x0


# queries whose later rounds find new breakpoints next to cells already
# evaluated, with their solved p-ranges
_LATE_BREAKPOINTS = [
    ("solve p: algebra W^{3/2-1/p,(2,1)}_p(R^{2x1}; A) ?", "(4, oo)"),
    ("solve p: W^{2-1/2p,(1)}_p(R^1; A) -> W^{5/2-3/2p,(1)}_p(R^1; A) ?",
     "(1, 2]"),
    ("solve p: B^{1/2,(1)}_p(R^2; E) -> W^{1-1/p,(1)}_p(R^2; E) ?", "(1, 2]"),
    ("solve p: B^{3/2,(2,1)}_p(JxRdot; A) * W^{5/2-1/2p,(2,1)}_p(JxRdot) -> "
     "W^{5/2-3/2p,(2,1)}_p(JxRdot; A) ?", "[4/3, 3/2]"),
    ("solve p: multiplier: W^{3/2-1/p,(2,1)}_p(R^{2x1}; A) * "
     "W^{3/2-1/p,(2,1)}_p(R^{2x1}; A) * W^{2-1/2p,(2,1)}_p(R^{2x1}; A) -> "
     "W^{3/2-1/p,(2,1)}_p(R^{2x1}; A) ?", "(4, oo)"),
]


def test_solve_param_evaluates_each_witness_once(monkeypatch):
    # a witness's result does not depend on the breakpoints found so far,
    # so a new breakpoint must not send the solver back to the witnesses it
    # has evaluated; the solved sets stay the golden reports' and the
    # checklists' expected ranges
    witnesses, repeats = [], []

    class Witnessed(ParamEnv):
        __slots__ = ()

        def __init__(self, witness, recorder=None):
            witnesses.append(witness)
            super().__init__(witness, recorder)

    def solve_once_each(decide):
        witnesses.clear()
        ps = solve(decide)
        repeats.extend(w for w in set(witnesses) if witnesses.count(w) > 1)
        return ps

    solve = psolver.solve_param
    monkeypatch.setattr(psolver, "ParamEnv", Witnessed)
    for module in (dsl, appsuite):
        monkeypatch.setattr(module, "solve_param", solve_once_each)
    golden = Path(__file__).parent / "golden"
    reports = [json.loads(line) for line in
               (golden / "reports.jsonl").read_text().splitlines()]
    solved = [doc for doc in reports if doc["kind"] == "solve-p"]
    assert len(solved) == 5
    for doc in solved:
        got = run(parse_query(doc["query"])).param_set.to_machine()
        assert got == doc["param_set"], doc["query"]
    for text, p_range in _LATE_BREAKPOINTS:
        query = parse_query(text)
        ps = run(query).param_set
        assert ps.describe_p() == p_range, text
        decide = decision_thunk(query.payload["inner"])
        for x in {b for iv in ps.intervals for b in (iv.lo, iv.hi)} - {0}:
            assert _covered_at(decide, x) == ps.contains(x), (text, x)
    for suite in (run_stefan, run_nvs):
        for n in range(2, 9):
            assert all(t.matches_expected for t in suite(n).terms)
    assert repeats == []


def _midpoint_solve(decide):
    """The reference solver: every round evaluates the midpoint of each
    open cell and each breakpoint, a witness at most once."""
    points, cache = set(), {}

    def evaluate(witness):
        if witness not in cache:
            rec = BreakpointRecorder()
            try:
                cache[witness] = psolver._CellResult(
                    decide(ParamEnv(witness, rec)).verdict is Verdict.COVERED)
            except NotIdentifiable as exc:
                cache[witness] = psolver._CellResult(False, str(exc))
            points.update(rec.points)
        return cache[witness]

    while True:
        before = set(points)
        bounds = [F(0), *sorted(points), F(1)]
        mids = [(lo + hi) / 2 for lo, hi in zip(bounds, bounds[1:])]
        for w in mids + bounds[1:-1]:
            evaluate(w)
        if points == before:
            return psolver._assemble(bounds[1:-1], mids, evaluate)


class _CountedPoints(set):
    """A point set that counts every element handed to it."""

    handed = 0

    def add(self, x):
        _CountedPoints.handed += 1
        super().add(x)

    def update(self, *others):
        for other in others:
            other = list(other)
            _CountedPoints.handed += len(other)
            super().update(other)

    def __ior__(self, other):
        self.update(other)
        return self


@pytest.mark.parametrize("k", [101, 401])
def test_solve_merges_each_split_set_once(monkeypatch, k):
    # a smoothness k/p has k/2 excluded points, each the zero of one
    # divisibility test; the solve's one recorder takes each test's points
    # once, so the points handed over grow with the breakpoints, not with
    # their square
    @dataclass
    class Counted(BreakpointRecorder):
        points: set = field(default_factory=_CountedPoints)

    monkeypatch.setattr(psolver, "BreakpointRecorder", Counted)
    _CountedPoints.handed = 0
    query = parse_query(f"solve p: algebra W^{{{k}/p,(2,1)}}_p(JxSigma) ?")
    decide = decision_thunk(query.payload["inner"])
    got = solve_param(decide)
    assert len(got.excluded) == k // 2
    assert _CountedPoints.handed <= 8 * len(got.excluded)
    assert got == _midpoint_solve(decide)


def test_solver_evaluates_each_cell_and_breakpoint_once(monkeypatch):
    # every open cell is labelled by one evaluated witness inside it (a
    # reused one where there is one) and every breakpoint by its own
    # evaluation: 2 * breakpoints + 1 evaluations, and the same set,
    # excluded points and reasons included, as the midpoint reference;
    # the generated lines are the benchmark's seed-1 solve p: lines
    monkeypatch.syspath_prepend(
        str(Path(__file__).resolve().parents[1] / "perfbench"))
    corpus = importlib.import_module("corpus")
    golden = Path(__file__).parent / "golden" / "queries.txt"
    texts = [line for line in golden.read_text().splitlines()
             if line.startswith("solve p:")]
    texts += [line.text for line in corpus.solve_lines(1)[:200]]
    texts += [text for text, _ in _LATE_BREAKPOINTS] + [
        "solve p: nemytskij: W^{2-1/p,(2,1)}_p(JxSigma) * "
        "W^{221/p,(2,1)}_p(JxSigma) -> W^{2-1/p,(2,1)}_p(JxSigma) ?"]
    inner = [parse_query(text).payload["inner"] for text in texts]
    for suite in (appsuite.nvs_terms, appsuite.stefan_terms):
        for n in range(2, 6):
            inner += [chk.query(chk.spaces(X)) for chk in suite(n)]
    assert len(inner) == 5 + 200 + 6 + 4 * (14 + 9)
    excluded = 0
    for query in inner:
        calls, points = [0], set()

        def counted(env, decide=decision_thunk(query)):
            calls[0] += 1
            try:
                return decide(env)
            finally:
                points.update(env.recorder.points)

        got = solve_param(counted)
        assert got == _midpoint_solve(decision_thunk(query)), \
            format_query(query)
        assert calls[0] == 2 * len(points) + 1, format_query(query)
        excluded += len(got.excluded)
    assert excluded >= 43
