"""Tests of the benchmark's own parts: the seeded corpus generator, the
oracles and the percentile helpers.

    python3 -m pytest perfbench/tests
"""

import statistics
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import corpus  # noqa: E402
import oracles  # noqa: E402
import stats  # noqa: E402
from anisocalc import dsl  # noqa: E402
from anisocalc.errors import EngineError  # noqa: E402
from anisocalc.ratcore import AffineExpr, render_affine_p  # noqa: E402


def _text(lines):
    return "\n".join(ln.text for ln in lines)


# --- generator -------------------------------------------------------------

@pytest.mark.parametrize("make", [corpus.concrete_lines, corpus.solve_lines,
                                  corpus.lab_fits])
def test_same_seed_same_corpus_other_seed_other_corpus(make):
    assert repr(make(7)) == repr(make(7))
    assert repr(make(7)) != repr(make(8))


def test_quotas_fix_the_mix():
    for seed in (1, 2):
        lines = corpus.concrete_lines(seed)
        kinds = [ln.kind for ln in lines]
        for kind in ("index", "embed", "multiplier", "algebra", "nemytskij",
                     "interp", "hoelder"):
            assert kinds.count(kind) == corpus.CONCRETE_QUOTA[kind]
        assert kinds.count("mult") == sum(
            corpus.CONCRETE_QUOTA[k] for k in ("mult2", "mult3", "mult4"))
        assert len(corpus.solve_lines(seed)) == sum(corpus.SOLVE_QUOTA.values())


def test_mult_lines_cover_two_to_four_factors():
    counts = {line.text.count(" * ") + 1 for line in corpus.concrete_lines(3)
              if line.kind == "mult"}
    assert counts == {2, 3, 4}


def test_generated_lines_are_valid_by_construction():
    # every line parses and runs without an engine error or exception
    for line in corpus.concrete_lines(5) + corpus.solve_lines(5):
        try:
            dsl.run(dsl.parse_query(line.text))
        except EngineError as exc:  # pragma: no cover - reported on failure
            pytest.fail(f"{line.text!r}: {type(exc).__name__}: {exc}")


def test_identifiable_smoothness():
    w = (2, 1)
    assert corpus.identifiable(F(2), F(0), F(1, 2), w)      # multiple of lcm
    assert corpus.identifiable(F(1, 2), F(0), F(1, 2), w)   # no integer ratio
    assert not corpus.identifiable(F(1), F(0), F(1, 2), w)  # s/w_2 = 1
    assert corpus.identifiable(F(1), F(1), None, w)         # a >= b > 0
    assert not corpus.identifiable(F(1), F(0), None, w)     # constant symbolic


def test_lab_fits_keep_grids_and_closed_forms():
    for seed in (1, 2):
        fits = corpus.lab_fits(seed)
        assert [f.exponent() for f in fits] == [0, F(1, 4), 0, -1]
        assert [(f.spacing, f.radius, len(f.lambdas)) for f in fits] == \
            [(F(1, 50), 20, 5)] * 3 + [(F(1, 20), 6, 3)]


# --- oracles ---------------------------------------------------------------

@pytest.mark.parametrize("const,slope", [
    (F(1), F(-5, 2)), (F(0), F(-2)), (F(1, 2), F(0)), (F(-3), F(1)),
    (F(0), F(7, 3)), (F(5, 4), F(1, 6))])
def test_parse_affine_p_inverts_the_engine_rendering(const, slope):
    text = render_affine_p(AffineExpr(const, slope))
    assert oracles.parse_affine_p(text) == (const, slope)


def test_index_oracle_accepts_closed_form_and_rejects_other():
    sp = corpus.Desc("H", (1, 3), (2, 1), "R^{1x3}", "R", F(2), F(0), None)
    line = corpus.Line("index", f"index {sp.text()}", ("ind", *sp.index()))
    good = dsl.run(dsl.parse_query(line.text)).to_json()
    assert oracles.check_index(line, good) is None
    bad = good.replace("1 - 5/2p", "1 - 2/p")
    assert oracles.check_index(line, bad) is not None


def test_hoelder_oracle():
    line = corpus.Line("hoelder", "L^{(1)}_4(R^2) * L^{(1)}_4(R^2) -> L^{(1)}_2(R^2) ?",
                       ("COVERED",))
    report = dsl.run(dsl.parse_query(line.text)).to_json()
    assert oracles.check_hoelder(line, report) is None
    wrong = corpus.Line("hoelder", line.text, ("NOT_COVERED",))
    assert oracles.check_hoelder(wrong, report) is not None


def test_concrete_query_substitutes_every_symbolic_exponent():
    text = "solve p: multiplier: W^{5/2-1/p,(2,1)}_p(JxSigma) * " \
           "W^{1-1/p,(2,1)}_p(JxSigma) -> W^{1-1/p,(2,1)}_p(JxSigma) ?"
    out = oracles.concrete_query(text, F(2, 5))
    assert out.startswith("multiplier: W^{5/2-1/p,(2,1)}_{5/2}(JxSigma)")
    assert "_p(" not in out


def test_solved_set_points_cover_endpoints_witnesses_and_exclusions():
    ps = {"x_intervals": [{"lo": "0", "lo_closed": False, "hi": "1/3",
                           "hi_closed": True},
                          {"lo": "1/2", "lo_closed": False, "hi": "2/3",
                           "hi_closed": False}],
          "excluded": [{"x": "1/6", "reason": "r"}]}
    pts = dict(oracles.solved_set_points(ps))
    assert pts[F(1, 3)] is True and pts[F(1, 2)] is False
    assert pts[F(2, 3)] is False and pts[F(1, 6)] is False
    assert pts[F(7, 12)] is True          # interior witness of (1/2, 2/3)
    assert pts[F(1, 9)] is True           # midpoint 1/6 is excluded
    assert F(0) not in pts


def test_solved_oracle_on_a_golden_line():
    text = "solve p: algebra W^{1-1/p,(2,1)}_p(JxSigma) ?"
    report = dsl.run(dsl.parse_query(text)).to_json()

    def decide(q):
        return dsl.run(dsl.parse_query(q)).verdict == "COVERED"
    assert oracles.check_solved(text, report, decide) is None
    assert oracles.check_solved(text, report, lambda q: not decide(q)) is not None


def test_engine_error_on_any_line_is_a_failure(monkeypatch):
    import workloads
    wl = workloads.ConcreteBatch(HERE.parent, 1)
    wl.lines = wl.lines[:3] + [ln for ln in wl.lines if ln.kind == "index"][:2]
    outputs = [workloads.run_query(ln.text) for ln in wl.lines]
    assert wl.check(outputs) == []

    def refuse(query):
        raise EngineError("refused")
    monkeypatch.setattr(dsl, "run", refuse)
    refused = [workloads.run_query(ln.text) for ln in wl.lines]
    assert all(code == dsl.EXIT_HYPOTHESIS for _, code, _ in refused)
    assert len(wl.check(refused)) == len(wl.lines)


def test_suite_closed_forms():
    assert oracles.suite_closed_form("stefan", 3) == "[5/2, oo)"
    assert oracles.suite_closed_form("nvs", 2) == "(2, oo)"
    assert oracles.check_suite("nvs", 2, "[2, oo)") is not None


def test_slope_oracle_and_least_squares():
    pts = [(lam, 3.0 * lam ** 0.25) for lam in (0.25, 0.5, 1.0, 2.0, 4.0)]
    assert oracles.least_squares_slope(pts) == pytest.approx(0.25)
    fit = corpus.lab_fits(1)[1]
    assert oracles.check_slope(fit, 0.3) is None
    assert oracles.check_slope(fit, 0.4) is not None


# --- percentiles -------------------------------------------------------------

@pytest.mark.parametrize("n", [2, 5, 10, 101, 1000])
def test_percentile_matches_inclusive_quantiles(n):
    xs = [((i * 7919) % 1009) / 7 for i in range(n)]
    cuts = statistics.quantiles(xs, n=100, method="inclusive")
    for pct in (1, 50, 95, 99):
        assert stats.percentile(xs, pct) == pytest.approx(cuts[pct - 1])
    assert stats.percentile(xs, 0) == min(xs)
    assert stats.percentile(xs, 100) == max(xs)


def test_tail_percentile_needs_ten_beyond():
    assert stats.beyond(1000, 99) == 10
    assert stats.tail_percentile(1000) == 99.0
    assert stats.tail_percentile(999) == 95.0
    assert stats.tail_percentile(10000) == 99.9
    assert stats.tail_percentile(30) is None


def test_spread_is_quartile_distance_over_median():
    med, q1, q3, sp = stats.spread([1.0, 2.0, 3.0, 4.0, 5.0])
    assert (med, q1, q3) == (3.0, 1.5, 4.5)
    assert sp == pytest.approx(1.0)
