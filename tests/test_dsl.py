"""Grammar, reports, machine output and the command-line interface."""

import json
import os
import re
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import anisocalc
from anisocalc import AffineExpr, Scale, X
from anisocalc.cli import main
from anisocalc.dsl import (ParseError, format_query, parse_prelude,
                           parse_query, parse_space, run)
from anisocalc.errors import EngineError

GOLDEN = Path(__file__).parent / "golden"


def test_parse_anisotropic_bessel():
    sp = parse_space("H^{2,(2,1)}_p(R^{1x3})")
    assert sp.scale is Scale.H
    assert sp.aniso.dims == (1, 3) and sp.aniso.weights == (2, 1)
    assert sp.s == AffineExpr(F(2)) and sp.x == X


def test_parse_trace_space_with_prelude():
    sp = parse_space("W^{1-1/p,(2,1)}_p(JxSigma)")
    assert sp.scale is Scale.W
    assert sp.s == AffineExpr(F(1), F(-1))
    assert sp.aniso.dims == (1, 2)
    assert sp.domain_label == "JxSigma"


def test_parse_concrete_substitutes_reciprocal():
    sp = parse_space("W^{1-1/p,(2,1)}_4(JxSigma)")
    assert sp.s == AffineExpr(F(3, 4)) and sp.x == AffineExpr(F(1, 4))


def test_parse_besov_micro_scale_forms():
    for text in ("B^{3,(1,1)}_2_1(R^{1x1})", "B^{3,(1,1)}_{2,1}(R^{1x1})"):
        sp = parse_space(text)
        assert sp.scale is Scale.B and sp.y == F(1) and \
            sp.x == AffineExpr(F(1, 2))
    sp = parse_space("B^{2,(2,1)}_p_oo(JxSigma)")
    assert sp.y == F(0)


def test_parse_valued_target():
    sp = parse_space("H^{0,(2,1)}_3(JxSigma; Lp(Rdot))")
    assert sp.target.name == "Lp(Rdot)"
    assert not sp.target.banach_algebra


def test_parse_solve_query():
    q = parse_query("solve p: W^{2-1/p,(2,1)}_p(JxSigma) * E -> E ?"
                    .replace("E", "W^{1-1/p,(2,1)}_p(JxSigma)"))
    assert q.kind == "solve-p"
    assert q.payload["inner"].kind == "mult"


def test_parse_errors_carry_positions():
    with pytest.raises(ParseError) as err:
        parse_space("H^{2,(2,1)}_p(Unknown)")
    assert "alias" in str(err.value)
    with pytest.raises(ParseError):
        parse_space("H_p(R^2)")
    with pytest.raises(ParseError):
        parse_space("W^{2p,(2,1)}_p(JxSigma)")
    with pytest.raises(ParseError):
        parse_query("W^{1,(2,1)}_p(JxSigma) ->")


@pytest.mark.parametrize("text", ["H^{²,(1)}_2(R^2)", "H^{1,(1)}_2(R^²)",
                                  "H^{1,(1)}_²(R^2)"])
def test_parse_refuses_digits_int_cannot_read(text):
    # '²' is a str.isdigit character that int() rejects: it used to leak
    # a ValueError with no position
    with pytest.raises(ParseError, match=r"^expected an integer \(line 1, "
                       rf"column {text.index('²') + 1}\)$"):
        parse_space(text)


def test_custom_prelude():
    prelude = parse_prelude("Omega = 3\nGamma = 1x2\n")
    sp = parse_space("H^{2,(1,1,1)}_2(JxGamma)", prelude)
    assert sp.aniso.dims == (1, 1, 2)
    assert prelude["Omega"] == (3,)


ROUND_TRIP_SAMPLES = [
    "index H^{2,(2,1)}_p(R^{1x3})",
    "index L^{(2,1)}_p(JxSigma)",
    "algebra W^{1 - 1/p,(2,1)}_6(JxSigma) ?",
    "algebra H^{2,(2,1)}_4(JxSigma) ?",
    "W^{2 - 1/p,(2,1)}_4(JxSigma) -> C0^{(2,1)}(JxSigma) ?",
    "B^{3,(1,1)}_2_1(R^{1x1}) -> H^{2,(1,1)}_3(R^{1x1}) ?",
    "H^{2,(2,1)}_3(JxSigma) -> H^{1,(2,1)}_3(JxSigma) ?",
    "L^{(1)}_4(R^3) * L^{(1)}_4(R^3) -> L^{(1)}_2(R^3) ?",
    "W^{1 - 1/p,(2,1)}_3(JxSigma) * H^{1,(2,1)}_3(JxSigma; Lp(Rdot)) -> "
    "H^{0,(2,1)}_3(JxSigma; Lp(Rdot)) ?",
    "multiplier: W^{2 - 1/p,(2,1)}_3(JxSigma) * W^{1 - 1/p,(2,1)}_3(JxSigma) "
    "-> W^{1 - 1/p,(2,1)}_3(JxSigma) ?",
    "nemytskij: W^{5/2 - 1/p,(2,1)}_3(JxSigma) * W^{5/2 - 1/p,(2,1)}_3(JxSigma)"
    " -> W^{5/2 - 1/p,(2,1)}_3(JxSigma) ?",
    "solve p: algebra W^{1 - 1/p,(2,1)}_p(JxSigma) ?",
    "solve p: multiplier: W^{5/2 - 1/p,(2,1)}_p(JxSigma) * "
    "W^{1 - 1/p,(2,1)}_p(JxSigma) -> W^{1 - 1/p,(2,1)}_p(JxSigma) ?",
    "[L^{(1)}_2(R^2), L^{(1)}_6(R^2)]_{1/2}",
    "(H^{1,(2,1)}_3(JxSigma), H^{3,(2,1)}_3(JxSigma))_{1/2, 2}",
    "(H^{1,(2,1)}_3(JxSigma), H^{3,(2,1)}_3(JxSigma))_{1/2, p}",
]


def _generated_samples():
    out = []
    scales = [("H", ""), ("B", "_2"), ("W", "")]
    for s_txt in ("2", "1 - 1/p", "5/2 - 1/p", "1/2 - 1/2p", "3"):
        for sc, q in scales:
            if sc == "W" and s_txt == "3":
                continue  # not identifiable over the (2,1) weights
            for p_txt in ("p", "4", "{7/2}"):
                out.append(f"index {sc}^{{{s_txt},(2,1)}}_{p_txt}{q}(JxSigma)")
    return out


@pytest.mark.parametrize("text", ROUND_TRIP_SAMPLES + _generated_samples())
def test_query_round_trip(text):
    q = parse_query(text)
    again = parse_query(format_query(q))
    assert again == q
    assert format_query(again) == format_query(q)


def test_run_index_report():
    rep = run(parse_query("index L^{(2,1)}_p(JxSigma)"))
    assert rep.value == "w-ind = -2/p"
    rep = run(parse_query("index H^{2,(2,1)}_p(R^{1x3})"))
    assert rep.value == "ind = 1 - 5/2p"


def test_run_trace_has_anchors():
    rep = run(parse_query("L^{(1)}_4(R^3) * L^{(1)}_4(R^3) -> L^{(1)}_3(R^3) ?"))
    assert rep.verdict == "NOT_COVERED"
    assert rep.decision.first_failure() is not None
    assert all(e.anchor for e in rep.decision.trace)
    assert rep.exit_code == 1


def test_machine_report_schema():
    rep = run(parse_query("solve p: algebra W^{1-1/p,(2,1)}_p(JxSigma) ?"))
    doc = json.loads(rep.to_json())
    assert doc["schema"] == "anisocalc.report/1"
    assert doc["param_set"]["p"] == "(5, oo)"
    assert doc["param_set"]["x_intervals"] == [
        {"lo": "0", "lo_closed": False, "hi": "1/5", "hi_closed": False}]
    assert "timing" not in json.dumps(doc)


def _corpus_lines():
    text = (GOLDEN / "queries.txt").read_text()
    return [ln.strip() for ln in text.splitlines()
            if ln.strip() and not ln.strip().startswith("#")]


def test_golden_corpus_bit_exact():
    expected = (GOLDEN / "reports.jsonl").read_text().splitlines()
    got = [run(parse_query(line)).to_json() for line in _corpus_lines()]
    assert got == expected


def test_golden_corpus_failures_name_conditions():
    for line in _corpus_lines():
        rep = run(parse_query(line))
        if rep.verdict == "NOT_COVERED":
            fail = rep.decision.first_failure()
            assert fail is not None and fail.label and fail.anchor


_H = "H^{1,(1)}_2(R^2)"
_W = "W^{1/2,(1)}_2(R^1)"


@pytest.mark.parametrize("args, code", [
    pytest.param(["algebra", "W^{1-1/p,(2,1)}_6(JxSigma) ?"], 0, id="covered"),
    pytest.param(["algebra", "W^{1-1/p,(2,1)}_4(JxSigma) ?"], 1,
                 id="not-covered"),
    pytest.param(["embed", "H^{1,(2,1)}_p(Nowhere) -> C0(JxSigma) ?"], 2,
                 id="unknown-alias"),
    pytest.param(["index", "H^{1/0,(1)}_2(R^2)"], 2, id="zero-denominator"),
    pytest.param(["index", "H^{1,(1)}_2(R^{0})"], 2, id="zero-dim"),
    pytest.param(["index", "H^{1,(0)}_2(R^2)"], 2, id="zero-weight"),
    pytest.param(["index", "H^{²,(1)}_2(R^2)"], 2, id="superscript-digit"),
    pytest.param(["interp", "[L^{(1)}_2(R^2), L^{(1)}_6(R^2)]_{3/2}"], 2,
                 id="complex-theta"),
    pytest.param(["interp", "(L^{(1)}_2(R^2), L^{(1)}_6(R^2))_{3/2}"], 2,
                 id="real-theta"),
    pytest.param(["interp", "(H^{1,(2,1)}_3(JxSigma), "
                  "H^{3,(2,1)}_3(JxSigma))_{1/2, 0}"], 2, id="real-q-zero"),
    pytest.param(["interp", "(H^{1,(2,1)}_3(JxSigma), "
                  "H^{3,(2,1)}_3(JxSigma))_{1/2, 0/5}"], 2,
                 id="real-q-zero-fraction"),
    pytest.param(["seminorm", "--space", _W, "--sigma", "x"], 2,
                 id="seminorm-sigma"),
    pytest.param(["seminorm", "--space", _W, "--spacing", "0"], 2,
                 id="seminorm-spacing"),
    pytest.param(["seminorm", "--space", _W, "--dilations", "0,1"], 2,
                 id="seminorm-dilation"),
    pytest.param(["seminorm", "--space", _W, "--freq", "1,2"], 2,
                 id="seminorm-freq-count"),
    pytest.param(["seminorm", "--space", _W, "--freq", "1,7,9"], 2,
                 id="seminorm-freq-count-3"),
    pytest.param(["seminorm", "--space", _W, "--radius", "0"], 2,
                 id="seminorm-radius"),
    pytest.param(["seminorm", "--space", _W, "--radius", "nan"], 2,
                 id="seminorm-radius-nan"),
    pytest.param(["seminorm", "--space", _W, "--radius", "inf"], 2,
                 id="seminorm-radius-inf"),
    pytest.param(["seminorm", "--space", _W, "--sigma", "1e400"], 2,
                 id="seminorm-sigma-overflow"),
    pytest.param(["seminorm", "--space", _W, "--freq", "1e400"], 2,
                 id="seminorm-freq-overflow"),
    pytest.param(["seminorm", "--space", _W, "--dilations", "1,1e400"], 2,
                 id="seminorm-dilation-overflow"),
    pytest.param(["realize", "--sigma", "1/0", "--pi", "1/2", "--rho", "1/2"],
                 2, id="realize-zero-denominator"),
    pytest.param(["app", "stefan", "--n", "3", "--p", "0"], 2, id="app-p"),
    pytest.param(["algebra", "H^{2,(2,1)}_4(JxSigma; Lp(Rdot)) ?"], 3,
                 id="hypothesis"),
    pytest.param(["interp", f"[{_H}, H^{{2,(1)}}_3(R^2)]_{{1/2}}"], 3,
                 id="h-pair"),
    pytest.param(["interp", f"[L^{{(1)}}_1(R^2), {_H}]_{{1/2}}"], 3,
                 id="l1-operand"),
    pytest.param(["interp", f"[L^{{(1)}}_oo(R^2), {_H}]_{{1/2}}"], 3,
                 id="loo-operand"),
    pytest.param(["interp", "[H^{1-2/p,(1)}_p(R^1), H^{3,(1)}_p(R^1)]_{1/2}"],
                 3, id="interp-symbolic-zero-order-at-p2"),
    pytest.param(["interp", "[W^{2-2/p,(1)}_p(R^1), W^{3,(1)}_p(R^1)]_{1/2}"],
                 3, id="interp-symbolic-w-to-h-at-p2"),
    pytest.param(["interp", "[H^{1,(1)}_p(R^1), H^{3,(1)}_p(R^1)]_{1/2}"], 0,
                 id="interp-symbolic-uniform"),
    pytest.param(["seminorm", "--space", "W^{3/4,(1)}_2(R^1)", "--dilations",
                  "1,16,256,65536,1e12"], 3, id="seminorm-unresolved-width"),
    pytest.param(["seminorm", "--space", "W^{3/4,(1)}_2(R^1)", "--freq",
                  "1e6"], 3, id="seminorm-aliased-freq"),
    pytest.param(["seminorm", "--space", "W^{1/2,(1)}_2(R^{4})"], 3,
                 id="seminorm-slice-dim"),
    pytest.param(["seminorm", "--space", "W^{1/2,(1,1,1,1)}_2(R^{1x1x1x1})"],
                 3, id="seminorm-grid-size"),
])
def test_cli_exit_codes(args, code):
    # a refusal is one line on stderr, never a traceback (exit 1)
    res = CliRunner().invoke(main, args)
    assert res.exit_code == code
    assert res.exception is None or isinstance(res.exception, SystemExit)
    if code >= 2:
        assert res.stdout == "" and len(res.stderr.splitlines()) == 1


def test_cli_seminorm_names_a_nonpositive_radius():
    # a zero radius used to surface as a math domain error from the
    # step-size range
    res = CliRunner().invoke(main, ["seminorm", "--space", _W, "--radius", "0"])
    assert res.exit_code == 2
    assert "grid radius must be positive" in res.stderr


@pytest.mark.parametrize("option", ["sigma", "freq", "dilations"])
def test_cli_seminorm_names_an_option_that_overflows_a_float(option):
    res = CliRunner().invoke(main, ["seminorm", "--space", _W,
                                    f"--{option}", "1e400"])
    assert res.exit_code == 2
    assert f"--{option} values must fit a float" in res.stderr


def test_cli_malformed_prelude_is_a_usage_error(tmp_path):
    prelude = tmp_path / "prelude.txt"
    prelude.write_text("Omega 3\n")
    res = CliRunner().invoke(main, ["index", "--prelude", str(prelude), _H])
    assert res.exit_code == 2 and isinstance(res.exception, SystemExit)
    assert "prelude lines read ALIAS = dims" in res.stderr


_NUMBERS = ("0", "1", "2", "3", "oo", "1/0", "3/2")
_CHARS = "0/p{}()[],_^-+*>?x ;"


@st.composite
def _mutated_golden_lines(draw):
    """A golden line after one to three edits: a number replaced by a zero,
    small, infinite or improper value, or one character inserted, deleted
    or replaced."""
    line = draw(st.sampled_from(_corpus_lines()))
    for _ in range(draw(st.integers(1, 3))):
        numbers = [m.span() for m in re.finditer(r"\d+", line)]
        if numbers and draw(st.booleans()):
            a, b = draw(st.sampled_from(numbers))
            line = line[:a] + draw(st.sampled_from(_NUMBERS)) + line[b:]
        else:
            i = draw(st.integers(0, len(line)))
            ch = draw(st.sampled_from(_CHARS))
            line = draw(st.sampled_from((line[:i] + ch + line[i:],
                                         line[:i] + line[i + 1:],
                                         line[:i] + ch + line[i + 1:])))
    return line


@seed(20261018)
@settings(max_examples=300, deadline=None, database=None)
@given(_mutated_golden_lines())
def test_mutated_queries_report_or_refuse(text):
    try:
        run(parse_query(text))
    except EngineError:
        pass
    res = CliRunner().invoke(main, ["embed", "--", text])
    assert res.exit_code in (0, 1, 2, 3)
    assert res.exception is None or isinstance(res.exception, SystemExit)


@pytest.mark.parametrize("p", ["1", "oo"])
def test_cli_lebesgue_source_endpoint_not_covered(p):
    # L^1 and L^oo are not zero-order Bessel-potential spaces: a failed
    # condition and exit 1, not a traceback
    res = CliRunner().invoke(
        main, ["embed", f"L^{{(1)}}_{p}(R^2) -> L^{{(1)}}_2(R^2) ?", "--machine"])
    assert res.exit_code == 1 and isinstance(res.exception, SystemExit)
    doc = json.loads(res.stdout)
    assert doc["verdict"] == "NOT_COVERED"
    assert doc["first_failure"]["anchor"] == "space.zero-order"


def test_cli_batch_continues_after_lebesgue_endpoint_source(tmp_path):
    src = tmp_path / "queries.txt"
    src.write_text("L^{(1)}_1(R^2) -> L^{(1)}_2(R^2) ?\n"
                   "index H^{1,(1)}_2(R^2)\n")
    res = CliRunner().invoke(main, ["batch", str(src), "--machine"])
    assert res.exit_code == 1 and isinstance(res.exception, SystemExit)
    docs = [json.loads(ln) for ln in res.stdout.splitlines()]
    assert [d["kind"] for d in docs] == ["embed", "index"]
    assert docs[0]["verdict"] == "NOT_COVERED"


def test_cli_import_leaves_numpy_unloaded():
    # only the seminorm command needs the numeric lab
    src = Path(anisocalc.__file__).parents[1]
    code = ("import sys, anisocalc.cli\n"
            "assert 'numpy' not in sys.modules, 'numpy was imported'\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0, proc.stderr


def test_cli_batch_preserves_order(tmp_path):
    src = tmp_path / "queries.txt"
    src.write_text("\n".join(["# comment", *_corpus_lines()]) + "\n")
    runner = CliRunner()
    res = runner.invoke(main, ["batch", str(src), "--machine"])
    assert [json.loads(ln)["query"] for ln in res.output.splitlines()] == \
        [format_query(parse_query(ln)) for ln in _corpus_lines()]


def test_cli_batch_isolates_a_malformed_line(tmp_path):
    src = tmp_path / "queries.txt"
    src.write_text("index H^{1,(1)}_2(R^2)\n"
                   "index H^{1/0,(1)}_2(R^2)\n"
                   "algebra W^{1-1/p,(2,1)}_6(JxSigma) ?\n")
    res = CliRunner().invoke(main, ["batch", str(src), "--machine"])
    assert res.exit_code == 2 and isinstance(res.exception, SystemExit)
    docs = [json.loads(ln) for ln in res.stdout.splitlines()]
    assert [d["kind"] for d in docs] == ["index", "algebra"]
    assert res.stderr.startswith("ParseError: zero denominator")


def test_cli_app_machine():
    runner = CliRunner()
    res = runner.invoke(main, ["app", "stefan", "--n", "3", "--solve-p",
                               "--machine"])
    assert res.exit_code == 0
    doc = json.loads(res.output)
    assert doc["intersection"]["p"] == "[5/2, oo)"
    res2 = runner.invoke(main, ["app", "nvs", "--n", "3", "--p", "2"])
    assert res2.exit_code == 1


def test_cli_realize_and_minimize():
    runner = CliRunner()
    r = runner.invoke(main, ["realize", "--sigma", "1/2,2", "--pi", "3/4,1/2",
                             "--rho", "3/4"])
    assert r.exit_code == 0 and "1/2, 1/4" in r.output
    m = runner.invoke(main, ["minimize", "--sigma", "3,1", "--pi", "1,2",
                             "--order", "2", "--machine"])
    assert m.exit_code == 0
    assert json.loads(m.output)["phi_min"] == "-3"


def test_cli_app_usage_errors():
    runner = CliRunner()
    assert runner.invoke(main, ["app", "stefan", "--n", "1", "--solve-p"]).exit_code == 2
    assert runner.invoke(main, ["app", "stefan", "--n", "3", "--p", "x"]).exit_code == 2
