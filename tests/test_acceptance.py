"""Acceptance criteria: every quantitative range and property suite, at its
stated tolerance, with one pass/fail line per criterion."""

import random
import sys
import time
from fractions import Fraction as F
from pathlib import Path

from anisocalc import (SCALARS, AffineExpr, Anisotropy, MinimizationInput,
                       MultInstance, ParamSet, RealizationInput,
                       SpaceDescr, X, embeds, isotropic, minimize_phi,
                       realize_exponents, solve_param)
from anisocalc.appsuite import run_nvs, run_stefan
from anisocalc.dsl import parse_query, run
from anisocalc.multiply import (decide_algebra_in, decide_multiplication,
                                decide_multiplication_in, decide_multiplier_in)
from anisocalc.normlab import GaussianSpec, dilation_scaling_exponent
from anisocalc.ratcore import ParamEnv

from conftest import rand_aniso, rand_fraction, rand_space
from reference import (all_match, check_product_estimate, check_realization,
                       compositions_up_to, sample_inside, sample_outside)
from test_embed import _weaken
from test_lemmas import coarse_feasible, grid_oracle_feasible

GOLDEN = Path(__file__).parent / "golden"


def _report(number: int, title: str, ok: bool, detail: str = "") -> None:
    mark = "PASS" if ok else "FAIL"
    line = f"[{mark}] criterion {number}: {title}"
    if detail:
        line += f" ({detail})"
    print(line, file=sys.stderr)
    assert ok, line


def test_criterion_01_hoelder_characterization():
    a = isotropic(2)
    xs = sorted({F(n, d) for d in range(2, 13) for n in range(1, d)})
    spaces = {x: SpaceDescr.lebesgue(x, a) for x in xs}
    t0 = time.perf_counter()
    ok = True
    for x1 in xs:
        for x2 in xs:
            factors = (spaces[x1], spaces[x2])
            for xt in xs:
                got = decide_multiplication(
                    MultInstance(factors, spaces[xt])).covered
                if got != (x1 + x2 == xt):
                    ok = False
    elapsed = time.perf_counter() - t0
    _report(1, "exhaustive Lebesgue product characterization",
            ok and elapsed < 10.0,
            f"{len(xs) ** 3} decisions in {elapsed:.1f}s")


def test_criterion_02_algebra_threshold():
    trace = SpaceDescr.sobolev(AffineExpr(F(1), F(-1)), X,
                               Anisotropy((1, 2), (2, 1)), SCALARS, "JxSigma")
    ps = solve_param(lambda env: decide_algebra_in(trace, env))
    expected = ParamSet.from_x(F(0), False, F(1, 5), False)
    _report(2, "algebra threshold solves to p in (5, oo)",
            ps == expected, f"got p in {ps.describe_p()}")


def test_criterion_03_stefan_suite():
    t0 = time.perf_counter()
    report = run_stefan(3)
    elapsed = time.perf_counter() - t0
    cond1 = ParamSet.from_x(F(0), False, F(2, 5), True)
    cond2 = ParamSet.from_x(F(0), False, F(1, 2), False)
    named = {t.check.name: t.param_set for t in report.terms}
    ok = report.intersection == cond1
    ok &= named["flux coupling"] == cond1
    ok &= named["gradient transport"] == cond2
    ok &= named["curvature coefficient phi"] == cond2
    ok &= all_match(report)
    ok &= elapsed < 5.0
    _report(3, "interface-problem checklist: p in [5/2, oo), per-term "
               "[5/2, oo) and (2, oo)", ok,
            f"intersection {report.intersection.describe_p()}, {elapsed:.1f}s")


def test_criterion_04_nvs_suite():
    t0 = time.perf_counter()
    report = run_nvs(3)
    elapsed = time.perf_counter() - t0
    full = ParamSet.from_x(F(0), False, F(2, 5), False)
    reqp2 = ParamSet.from_x(F(0), False, F(3, 5), True)
    named = {t.check.name: t.param_set for t in report.terms}
    ok = report.intersection == full
    ok &= named["convective transport"] == reqp2
    ok &= named["divergence correction (time part)"] == reqp2
    ok &= all_match(report)
    ok &= elapsed < 5.0
    _report(4, "two-phase-flow checklist: p in (5/2, oo), sub-conditions "
               "[5/3, oo)", ok,
            f"intersection {report.intersection.describe_p()}, {elapsed:.1f}s")


def test_criterion_05_minimization_oracle():
    rng = random.Random(5)
    t0 = time.perf_counter()
    checked = 0
    ok = True
    while checked < 10_000:
        m = rng.randint(2, 4)
        n = rng.randint(1, 6)
        sigma = tuple(F(rng.randint(1, 24), rng.randint(1, 6))
                      for _ in range(m))
        pi = tuple(F(rng.randint(1, 24), rng.randint(1, 6)) for _ in range(m))
        inp = MinimizationInput(sigma, pi, n)
        val, rule = minimize_phi(inp)
        # integer-scaled brute force over all compositions of order <= n
        scale = 1
        for q in sigma + pi:
            scale = scale * q.denominator // __import__("math").gcd(
                scale, q.denominator)
        d_int = [int((s - p) * scale) for s, p in zip(sigma, pi)]
        best = None
        for nu in compositions_up_to(m, n):
            v = sum(min(dj - vj * scale, 0) for dj, vj in zip(d_int, nu))
            if best is None or v < best:
                best = v
        if val != F(best, scale):
            ok = False
        checked += 1
    elapsed = time.perf_counter() - t0
    _report(5, "closed-form minimization equals brute force on 10^4 samples",
            ok and elapsed < 60.0, f"{elapsed:.1f}s")


def test_criterion_06_realization_constraints():
    rng = random.Random(6)
    t0 = time.perf_counter()
    ok = True
    checked = 0
    while checked < 10_000:
        m = rng.randint(1, 4)
        sigma = tuple(F(rng.randint(0, 8), rng.randint(1, 4))
                      for _ in range(m))
        pi = tuple(F(rng.randint(1, 11), 12) for _ in range(m))
        lo = sum(max(p - s, F(0)) for s, p in zip(sigma, pi))
        hi = sum(pi)
        rho = lo + (hi - lo) * F(rng.randint(0, 16), 16)
        if not 0 < rho < 1:
            continue
        inp = RealizationInput(sigma, pi, rho)
        if not check_realization(inp, realize_exponents(inp)):
            ok = False
        checked += 1
    confirmed = 0
    while confirmed < 200:
        inp = coarse_feasible(rng, rng.randint(2, 3))
        if inp is None:
            continue
        if not grid_oracle_feasible(inp):
            ok = False
        confirmed += 1
    elapsed = time.perf_counter() - t0
    _report(6, "realization constraints on 10^4 samples, grid oracle on 200",
            ok and elapsed < 60.0, f"{elapsed:.1f}s")


def test_criterion_07_embedding_properties():
    rng = random.Random(7)
    trans_checked = mono_checked = 0
    failures = 0
    for _ in range(10_000):
        a = rand_aniso(rng)
        sp_a = rand_space(rng, a)
        sp_b = _weaken(rng, sp_a)
        sp_c = _weaken(rng, sp_b)
        if embeds(sp_a, sp_b).covered and embeds(sp_b, sp_c).covered:
            trans_checked += 1
            if not embeds(sp_a, sp_c).covered:
                failures += 1
        if embeds(sp_a, sp_b).covered:
            mono_checked += 1
            up = sp_a.with_(s=sp_a.s + rand_fraction(rng, F(1, 24), F(2)))
            down = sp_b.with_(s=sp_b.s - rand_fraction(rng, F(1, 24), F(2)))
            if not embeds(up, sp_b).covered or not embeds(sp_a, down).covered:
                failures += 1
    _report(7, "embedding transitivity and monotonicity on 10^4 triples",
            failures == 0 and trans_checked > 300 and mono_checked > 1000,
            f"{trans_checked} transitive cases, {mono_checked} monotone "
            f"cases, {failures} failures")


def test_criterion_08_solver_soundness():
    rng = random.Random(8)
    queries = 0
    ok = True
    while queries < 20:
        aniso = rand_aniso(rng)
        m = rng.randint(1, 2)
        base = rng.choice(("mult", "multiplier", "algebra"))
        offs = [rand_fraction(rng, F(1, 4), F(3)) for _ in range(m + 1)]
        mk = lambda off: SpaceDescr.sobolev(AffineExpr(off, F(-1)), X, aniso,
                                            SCALARS, "D")
        try:
            if base == "algebra":
                target = mk(offs[0])
                thunk = lambda env: decide_algebra_in(target, env)
                concrete = lambda x, e=None: decide_algebra_in(
                    target, ParamEnv(x))
            elif base == "multiplier":
                target = mk(min(offs))
                inst = MultInstance.of(
                    tuple(mk(o) for o in offs[:m]) + (target,), target)
                thunk = lambda env: decide_multiplier_in(inst, m + 1, env)
                concrete = lambda x: decide_multiplier_in(inst, m + 1,
                                                          ParamEnv(x))
            else:
                inst = MultInstance.of(tuple(mk(o) for o in offs[:m]),
                                       mk(min(offs) / 2))
                thunk = lambda env: decide_multiplication_in(inst, env)
                concrete = lambda x: decide_multiplication_in(inst,
                                                              ParamEnv(x))
            ps = solve_param(thunk)
        except Exception:
            continue
        inside = sample_inside(ps, rng, 100)
        outside = sample_outside(ps, rng, 100)
        if len(inside) < 100 or len(outside) < 100:
            continue
        queries += 1
        for x in inside:
            if not concrete(x).covered:
                ok = False
        for x in outside:
            if concrete(x).covered:
                ok = False
    _report(8, "solver soundness: 100 inside and 100 outside samples for 20 "
               "symbolic queries", ok)


def test_criterion_09_dilation_scaling():
    t0 = time.perf_counter()
    iso = isotropic(1)
    lams = [0.25, 0.5, 1.0, 2.0, 4.0]
    w12 = SpaceDescr.sobolev(F(1, 2), F(1, 2), iso, SCALARS, "R^1")
    slope12, _ = dilation_scaling_exponent(w12, GaussianSpec((1.0,)), lams,
                                           (0.02,), 20.0)
    w34 = SpaceDescr.sobolev(F(3, 4), F(1, 2), iso, SCALARS, "R^1")
    slope34, _ = dilation_scaling_exponent(w34, GaussianSpec((1.0,)), lams,
                                           (0.02,), 20.0)
    elapsed = time.perf_counter() - t0
    ok = abs(slope12 - 0.0) <= 0.1 and abs(slope34 - 0.25) <= 0.1
    _report(9, "dilation-scaling exponents 0 and 1/4 within 0.1",
            ok and elapsed < 30.0,
            f"slopes {slope12:+.3f}, {slope34:+.3f}, {elapsed:.1f}s")


def test_criterion_10_hoelder_probe():
    rng = random.Random(10)
    a = isotropic(1)
    l4 = SpaceDescr.lebesgue(F(1, 4), a, SCALARS, "R^1")
    l2 = SpaceDescr.lebesgue(F(1, 2), a, SCALARS, "R^1")
    inst = MultInstance.of((l4, l4), l2)
    fam = []
    for _ in range(50):
        s1 = 0.5 + 2.0 * rng.random()
        s2 = 0.5 + 2.0 * rng.random()
        f1 = 4.0 * rng.random()
        f2 = 4.0 * rng.random()
        fam.append((GaussianSpec((s1,), (f1,)).sample((1,), (0.05,), 12.0),
                    GaussianSpec((s2,), (f2,), phase="sin").sample(
                        (1,), (0.05,), 12.0)))
    stats = check_product_estimate(inst, fam)
    _report(10, "product probe respects the exact product inequality",
            stats.max_ratio <= 1 + 1e-6, f"max ratio {stats.max_ratio:.9f}")


def test_criterion_11_trace_completeness():
    corpus = [ln.strip() for ln in
              (GOLDEN / "queries.txt").read_text().splitlines()
              if ln.strip() and not ln.strip().startswith("#")]
    total = failures = 0
    for line in corpus:
        rep = run(parse_query(line))
        if rep.verdict == "NOT_COVERED":
            total += 1
            fail = rep.decision.first_failure()
            if fail is None or not fail.label or not fail.anchor:
                failures += 1
    for n in (2, 3):
        for p in (F(2), F(5, 2), F(3), F(6)):
            for suite in (run_stefan(n, p), run_nvs(n, p)):
                for term in suite.terms:
                    if term.decision is not None and not term.decision.covered:
                        total += 1
                        fail = term.decision.first_failure()
                        if fail is None or not fail.label or not fail.anchor:
                            failures += 1
    golden_ok = (GOLDEN / "reports.jsonl").read_text().splitlines() == \
        [run(parse_query(ln)).to_json() for ln in corpus]
    _report(11, "every uncovered report names a failing condition with an "
                "anchor; golden reports bit-exact",
            failures == 0 and total > 10 and golden_ok,
            f"{total} uncovered reports checked")
