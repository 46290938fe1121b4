"""Grammar, reports, machine output and the command-line interface."""

import ast
import json
import os
import random
import re
import shlex
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import anisocalc
from anisocalc import (SCALARS, AffineExpr, Anisotropy, Scale, SpaceDescr, X,
                       dsl, lp_valued)
from anisocalc.dsl import (ParseError, Query, format_query, parse_prelude,
                           parse_query, parse_space, run)
from anisocalc.errors import EngineError

from conftest import rand_aniso, rand_fraction, rand_space, rand_x, run_cli

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


def test_one_object_per_distinct_space_in_a_query(monkeypatch):
    # a space a query names again is the descriptor already built, so the
    # rules' dedupe by object normalizes it once per evaluation; the
    # parser's tables die with the call
    from anisocalc import multiply, nemytskij
    calls, evals = [], []
    for module in (multiply, nemytskij):
        monkeypatch.setattr(module, "normalize", lambda sp, env, norm=(
            module.normalize): calls.append(sp) or norm(sp, env))
    decide = dsl.decide_multiplier_in
    monkeypatch.setattr(dsl, "decide_multiplier_in", lambda *args: (
        evals.append(args) or decide(*args)))
    w = "W^{5/2-1/p,(2,1)}_p(JxSigma)"
    q = parse_query(f"solve p: nemytskij: {w} * {w} -> {w} ?")
    inner = q.payload["inner"].payload
    assert inner["factors"][0] is inner["factors"][1] is inner["target"]
    assert not run(q).param_set.is_empty
    assert len(calls) == 3
    assert parse_query(f"index {w}").payload["space"] is not inner["target"]
    # an embedding of a space into itself: one call per evaluation
    from anisocalc import embed
    calls.clear()
    monkeypatch.setattr(embed, "normalize", lambda sp, env, norm=(
        embed.normalize): calls.append(sp) or norm(sp, env))
    assert not run(parse_query(f"solve p: {w} -> {w} ?")).param_set.is_empty
    assert len(calls) == 3
    # a multiplier pivot: one call per evaluation, concrete and solved
    for text in ("multiplier: W^{3/2,(2,1)}_4(JxSigma) * "
                 "H^{1,(2,1)}_4(JxSigma) -> W^{3/2,(2,1)}_4(JxSigma) ?",
                 "solve p: multiplier: W^{3/2-1/p,(2,1)}_p(R^{2x1}; A) * "
                 "W^{2-1/2p,(2,1)}_p(R^{2x1}; A) -> "
                 "W^{3/2-1/p,(2,1)}_p(R^{2x1}; A) ?"):
        calls.clear()
        evals.clear()
        q = parse_query(text)
        pivot = (q.payload.get("inner") or q).payload["target"]
        run(q)
        assert evals and sum(sp == pivot for sp in calls) == len(evals), text


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


@pytest.mark.parametrize("text, canonical", [
    ("indexH^{2,(2,1)}_p(R^{1x3})", "index H^{2,(2,1)}_p(R^{1x3})"),
    ("solvep:algebra W^{1-1/p,(2,1)}_p(JxSigma)",
     "solve p: algebra W^{1 - 1/p,(2,1)}_p(JxSigma) ?"),
    ("index B^{2,(2,1)}_p_oo(JxSigma)", "index B^{2,(2,1)}_p_oo(JxSigma)"),
    (" index\tH^{ 2 - 1 / 2 p , ( 2 , 1 ) } _ { 7 / 2 } ( R^{ 1 x 3 } ) ",
     "index H^{13/7,(2,1)}_{7/2}(R^{1x3})"),
    ("( L^{(1)}_2(R^2) , L^{(1)}_6(R^2) ) _ { 1 / 2 , 3 / 2 }",
     "(L^{(1)}_2(R^2), L^{(1)}_6(R^2))_{1/2, 3/2}"),
])
def test_whitespace_between_tokens_is_free(text, canonical):
    assert format_query(parse_query(text)) == canonical


def test_dsl_reads_text_through_compiled_patterns():
    # one scanning mechanism: the cursor's patterns read whitespace,
    # integers and identifiers; only the balanced Lp(...) scan of
    # _parse_target walks the text by hand, since re cannot match nesting
    tree = ast.parse(Path(dsl.__file__).read_text())
    lines = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr in
             ("isspace", "isdecimal", "isdigit", "isalnum")]
    assert lines == [], f"dsl.py tests characters at lines {lines}"

    def text_subscripts(root):
        return {node.lineno for node in ast.walk(root)
                if isinstance(node, ast.Subscript)
                and isinstance(node.value, ast.Attribute)
                and node.value.attr == "text"}

    target = next(node for node in ast.walk(tree)
                  if isinstance(node, ast.FunctionDef)
                  and node.name == "_parse_target")
    outside = text_subscripts(tree) - text_subscripts(target)
    assert outside == set(), f"dsl.py subscripts text at lines {outside}"


def _imports(module) -> tuple[set[str], set[str]]:
    """The package modules and the other top-level modules a module imports."""
    ours, others = set(), set()
    for node in ast.walk(ast.parse(Path(module.__file__).read_text())):
        if isinstance(node, ast.ImportFrom) and node.level:
            ours.add(node.module)
        elif isinstance(node, ast.ImportFrom):
            others.add(node.module.split(".")[0])
        elif isinstance(node, ast.Import):
            others.update(a.name.split(".")[0] for a in node.names)
    return ours, others


def test_library_keeps_no_test_oracles():
    # the brute-force checkers, samplers and product probes live in
    # tests/reference.py: the numeric lab reads no rule module and the
    # solver draws no random numbers
    from anisocalc import normlab, psolver

    assert _imports(normlab)[0] == {"errors", "spaces"}
    assert "random" not in _imports(psolver)[1]


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


def test_machine_documents_have_one_writer():
    # dsl.machine_json is the package's one json.dumps call, and no other
    # module names json or the schema
    src = Path(anisocalc.__file__).parent
    named = []  # (module, name) of each Name, Attribute or import node
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            named += [(path.stem, getattr(node, a))
                      for a in ("id", "attr", "name", "module")
                      if getattr(node, a, None) in ("dumps", "json", "SCHEMA")]
    assert [module for module, name in named if name == "dumps"] == ["dsl"]
    assert {module for module, _ in named} == {"dsl"}


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


def test_seeded_corpora_outputs_are_pinned():
    # perfbench's concrete and solve p: lines, seeds 1-5, and the app
    # checklists at n = 2..8; regenerate with tests/corpus_digests.py
    import corpus_digests

    expected = (GOLDEN / "corpus_digests.txt").read_text().splitlines()
    items = corpus_digests.inputs()
    assert len(items) == len(expected)
    changed = [f"{want} <- {item}" for want, (label, item)
               in zip(expected, items)
               if corpus_digests.digest_line(label, item) != want]
    assert not changed, f"{len(changed)} changed, first: " + \
        "; ".join(changed[:5])


def _rescaled(query: Query, k: int, memo: dict) -> Query:
    """The query with every space's weights and smoothness times k; one
    object per distinct space, as the parser builds them."""
    def scale(v):
        if isinstance(v, SpaceDescr):
            if id(v) not in memo:
                memo[id(v)] = v.with_(s=v.s * k, aniso=Anisotropy(
                    v.aniso.dims, tuple(k * w for w in v.aniso.weights)))
            return memo[id(v)]
        if isinstance(v, tuple):
            return tuple(map(scale, v))
        return _rescaled(v, k, memo) if isinstance(v, Query) else v
    return Query(query.kind, {key: scale(v) for key, v in query.payload.items()})


def _outcome(query: Query):
    """What a query decides, without the texts that print a space: the
    refusal's class, or the verdict, value, first failure, trace and solved
    set with its excluded points by x."""
    try:
        rep = run(query)
    except EngineError as exc:
        return type(exc).__name__
    fail = rep.decision and rep.decision.first_failure()
    trace = rep.decision.trace if rep.decision else ()
    ps = rep.param_set
    return (rep.verdict, None if rep.kind == "interp" else rep.value,
            fail and (fail.anchor, fail.label),
            [(e.anchor, e.status) for e in trace],
            ps and (ps.intervals, [e.x for e in ps.excluded]), rep.params)


def test_weight_rescaling_changes_no_decision():
    # the spaces do not change under w -> kw, s -> ks, nor do the index
    # (s - x (w.n)) / lcm(w) and "s is a multiple of lcm(w)"
    import corpus_digests

    corpus = corpus_digests._corpus()
    lines = _corpus_lines() + [line.text for line in (
        *corpus.concrete_lines(1), *corpus.solve_lines(1))]
    for line in lines:
        query = parse_query(line)
        want = _outcome(query)
        for k in (2, 3):
            assert _outcome(_rescaled(query, k, {})) == want, (line, k)


def test_algebra_is_the_square_multiplication():
    # algebra X <=> multiplier: X * X -> X <=> X * X -> X on the seed-1
    # algebra lines: the same verdict, or under solve p: the same set
    import corpus_digests

    def decided(text: str):
        rep = run(parse_query(text))
        ps = rep.param_set
        return rep.verdict if ps is None else \
            (ps.intervals, [e.x for e in ps.excluded])

    corpus = corpus_digests._corpus()
    seen = []
    for line in (*corpus.concrete_lines(1), *corpus.solve_lines(1)):
        prefix, algebra, x = line.text.removesuffix(" ?").partition(
            "algebra ")
        if algebra:
            seen.append(decided(line.text))
            assert decided(f"{prefix}multiplier: {x} * {x} -> {x} ?") == \
                decided(f"{prefix}{x} * {x} -> {x} ?") == seen[-1], line.text
    assert {"COVERED", "NOT_COVERED"} <= set(map(str, seen))


_H = "H^{1,(1)}_2(R^2)"
_W = "W^{1/2,(1)}_2(R^1)"


_EXIT_CASES = [
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
    pytest.param(["interp", "(H^{1,(2,1)}_3(JxSigma), "
                  "H^{3,(2,1)}_3(JxSigma))_{1/2, 1/2}"], 2,
                 id="real-q-below-one"),
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
    pytest.param(["app", "stefan", "--n", "3", "--p", "1"], 2, id="app-p-one"),
    pytest.param(["app", "nvs", "--n", "3", "--p", "1/2"], 2,
                 id="app-p-below-one"),
    pytest.param(["app", "stefan", "--n", "3", "--p", "1/0", "--solve-p"], 2,
                 id="app-p-with-solve-p"),
    pytest.param(["solve-p", "solve p:algebra W^{1-1/p,(2,1)}_p(JxSigma) ?"],
                 0, id="solve-prefix-unspaced"),
    pytest.param(["multiplier", "multiplier:W^{2-1/p,(2,1)}_3(JxSigma) * "
                  "W^{1-1/p,(2,1)}_3(JxSigma) -> W^{1-1/p,(2,1)}_3(JxSigma) ?"],
                 0, id="multiplier-prefix-unspaced"),
    pytest.param(["nemytskij", "nemytskij :W^{5/2-1/p,(2,1)}_3(JxSigma) * "
                  "W^{5/2-1/p,(2,1)}_3(JxSigma) -> W^{5/2-1/p,(2,1)}_3(JxSigma) ?"],
                 0, id="nemytskij-prefix-spaced"),
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
    pytest.param(["interp", "(H^{1,(1)}_2(R^1), H^{1,(1)}_4(R^1))_{1/2, 2}"],
                 3, id="real-h-pair-equal-smoothness-uncoupled"),
    pytest.param(["solve-p", "solve p: index H^{1,(1)}_p(R^1)"], 3,
                 id="solve-index"),
    pytest.param(["embed", "H^{1,(1)}_2(R^1) -> L^{(1)}_2(J) ?"], 3,
                 id="embed-domains-differ"),
    pytest.param(["embed", "H^{1,(1)}_2(R^1) -> L^{(1)}_2(R^1; E) ?"], 3,
                 id="embed-value-spaces-differ"),
    pytest.param(["mult", "H^{1,(1)}_2(R^1) * H^{1,(1)}_2(J) -> "
                  "L^{(1)}_2(R^1) ?"], 3, id="mult-factor-domains-differ"),
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
    # the word after a valued option is its value, even when it starts
    # with '-'
    pytest.param(["realize", "--sigma", "1/2,2", "--pi", "3/4,1/2", "--rho",
                  "-1/4"], 2, id="realize-negative-rho"),
    pytest.param(["seminorm", "--space", _W, "--freq", "-1/2", "--spacing",
                  "1/10", "--radius", "5"], 0, id="seminorm-negative-freq"),
    # one symbolic and one concrete operand: the integrability comes out
    # as neither a constant nor p, which no space text names
    pytest.param(["interp", "[H^{1,(1)}_p(R^1), H^{1,(1)}_4(R^1)]_{1/2}"], 3,
                 id="interp-mixed-complex-h"),
    pytest.param(["interp", "(L^{(1)}_p(R^1), L^{(1)}_4(R^1))_{1/2, p}"], 3,
                 id="interp-mixed-real-l"),
    pytest.param(["interp", "[B^{1,(1)}_p_2(R^1), B^{2,(1)}_4(R^1)]_{1/2}"], 3,
                 id="interp-mixed-complex-b"),
    # the error column counts in the words as typed, '->' first
    pytest.param(["embed", "->", "L^{(1)}_2(R^1) ?"], 2,
                 id="query-words-in-typed-order"),
    pytest.param(["interp", "[B^{1,(1)}_2(R^1), H^{3,(1)}_2(R^1)]_{1/2}"], 3,
                 id="interp-complex-b-h"),
    pytest.param(["interp", "(B^{1,(1)}_2(R^1), H^{3,(1)}_4(R^1))_{1/2,2}"], 3,
                 id="interp-real-b-h"),
    pytest.param(["interp", "[B^{1,(1)}_p_2(R^1), B^{3,(1)}_p(R^1)]_{1/2}"], 3,
                 id="interp-symbolic-micro-scale"),
    pytest.param(["index", "--prelude", "tests/golden/prelude_bad_alias.txt",
                  _H], 2, id="prelude-bad-alias"),
    pytest.param(["nemytskij", "B^{2,(1)}_4_2(R^1) -> B^{2,(1)}_4_2(R^1) ?"],
                 1, id="nemytskij-besov-micro"),
]

# each query command reads only its own kind, and a file named on the
# command line must exist
_WRONG_KIND_OR_MISSING_FILE = [
    pytest.param(["interp", "algebra W^{1-1/p,(2,1)}_6(JxSigma) ?"], 2,
                 id="interp-given-algebra"),
    pytest.param(["mult", f"index {_H}"], 2, id="mult-given-index"),
    pytest.param(["embed", f"{_H} * {_H} -> {_H} ?"], 2,
                 id="embed-given-product"),
    pytest.param(["mult", f"{_H} -> {_H} ?"], 2, id="mult-given-embedding"),
    pytest.param(["batch", str(GOLDEN / "missing.txt")], 2,
                 id="batch-missing-file"),
    pytest.param(["index", "--prelude", str(GOLDEN / "missing.txt"), _H], 2,
                 id="prelude-missing-file"),
]


@pytest.mark.parametrize("args, code",
                         _EXIT_CASES + _WRONG_KIND_OR_MISSING_FILE)
def test_cli_exit_codes(monkeypatch, args, code):
    # a refusal is one line on stderr, never a traceback (exit 1); a file
    # path is relative to the root of the checkout
    monkeypatch.chdir(GOLDEN.parents[1])
    exit_code, stdout, stderr = run_cli(args)
    assert exit_code == code
    if code >= 2:
        assert stdout == "" and len(stderr.splitlines()) == 1


# option values the app checklists refuse, each with one stderr line
_APP_REFUSALS = [["app", "stefan", "--n", "1", "--solve-p"],
                 ["app", "stefan", "--n", "3", "--p", "x"]]

# seminorm values as text, six significant digits: a 1-D W space with one
# derivative, a 1-D B space with second differences, the parabolic space
# and a p = 3 space
_SEMINORMS = [["seminorm", "--space", space, "--spacing", dx, "--radius", r]
              for space, dx, r in (("W^{3/2,(1)}_2(R^1)", "1/20", "8"),
                                   ("B^{3/2,(1)}_{2,2}(R^1)", "1/20", "8"),
                                   ("W^{1/2,(2,1)}_2(R^{1x1})", "1/10", "5"),
                                   ("W^{1/2,(1)}_3(R^1)", "1/20", "8"))]


def _pinned_argvs():
    """Each query command on the first golden line of its kind, batch,
    the text reports of the golden lines, one with the rulebook text,
    solved ranges (one with excluded points, one empty), realize,
    minimize and seminorm, query words split by an option, the refusals
    above and the Nemytskij gate's early NOT_COVERED."""
    first_of_kind = {}
    for line in _corpus_lines():
        first_of_kind.setdefault(parse_query(line).kind, line)
    lemmas = [["realize", "--sigma", "1/2,2", "--pi", "3/4,1/2",
               "--rho", "3/4"],
              ["minimize", "--sigma", "3,1", "--pi", "1,2", "--order", "2"]]
    return [
        *([command, first_of_kind[command], "--machine"] for command in
          ("index", "embed", "mult", "multiplier", "algebra", "nemytskij",
           "solve-p", "interp")),
        ["batch", "tests/golden/queries.txt", "--machine"],
        ["batch", "tests/golden/queries.txt"],
        ["embed", first_of_kind["embed"], "--explain"],
        ["solve-p", first_of_kind["solve-p"]],
        # excluded points, and an empty set
        ["solve-p", "algebra W^{5/p,(2,1)}_p(JxSigma) ?"],
        ["solve-p", "L^{(1)}_p(R^1) * L^{(1)}_p(R^1) -> L^{(1)}_p(R^1) ?"],
        *lemmas, *([*argv, "--machine"] for argv in lemmas),
        *_SEMINORMS,
        ["index", "H^{1,(1)}_2", "--machine", "(R^2)"],
        *_APP_REFUSALS,
        *(case.values[0] for case in _EXIT_CASES if case.values[1] >= 2),
        # the early NOT_COVERED return of the Nemytskij gate
        ["nemytskij", "B^{2,(1)}_4_2(R^1) -> B^{2,(1)}_4_2(R^1) ?"],
    ]


def test_cli_transcript_is_pinned(monkeypatch):
    # argv, exit code, stdout and stderr of each pinned invocation, run
    # from the root of the checkout
    monkeypatch.chdir(GOLDEN.parents[1])
    blocks = []
    for argv in _pinned_argvs():
        code, stdout, stderr = run_cli(argv)
        blocks.append(f"$ anisocalc {shlex.join(argv)}\n[exit {code}]\n"
                      f"{stdout}[stderr]\n{stderr}")
    assert "".join(blocks) == (GOLDEN / "cli.txt").read_text()


def test_cli_command_prefix_is_read_like_batch(tmp_path):
    # a dedicated command implies its keywords unless the text starts with
    # them under the grammar's whitespace rule, and reports columns in the
    # text as typed
    texts = ["solve p:algebra W^{1-1/p,(2,1)}_p(JxSigma) ?",
             "algebra W^{1-1/p,(2,1)}_p(JxSigma) ?"]
    src = tmp_path / "queries.txt"
    src.write_text(f"{texts[0]}\nsolve p: {texts[1]}\n")
    _, batch, _ = run_cli(["batch", str(src), "--machine"])
    commands = [run_cli(["solve-p", text, "--machine"]) for text in texts]
    assert "".join(stdout for _, stdout, _ in commands) == batch
    assert run_cli(["index", "H^{2,(2,1)}_p(Unknown)"]) == (
        2, "", "ParseError: unknown domain alias 'Unknown' "
        "(line 1, column 22)\n")


@pytest.mark.parametrize("command, words", [
    ("embed", ["H^{1,(1)}_2(R^1)", "->", "L^{(1)}_2(R^1) ?"]),
    ("mult", ["H^{1,(1)}_2(R^1)", "*", "H^{1,(1)}_2(R^1)", "->",
              "L^{(1)}_2(R^1)", "?"]),
])
@pytest.mark.parametrize("option", [[], ["--machine"]], ids=["text", "machine"])
def test_cli_query_split_into_words(command, words, option):
    # '->' is a query word, not an option
    whole = run_cli([command, " ".join(words), *option])
    assert whole[0] in (0, 1)
    assert run_cli([command, *words, *option]) == whole
    assert run_cli([command, *words[:2], *option, *words[2:]]) == whole


def test_cli_seminorm_names_a_nonpositive_radius():
    # a zero radius used to surface as a math domain error from the
    # step-size range
    code, _, stderr = run_cli(["seminorm", "--space", _W, "--radius", "0"])
    assert code == 2
    assert "grid radius must be positive" in stderr


@pytest.mark.parametrize("option", ["sigma", "freq", "dilations"])
def test_cli_seminorm_names_an_option_that_overflows_a_float(option):
    code, _, stderr = run_cli(["seminorm", "--space", _W,
                               f"--{option}", "1e400"])
    assert code == 2
    assert f"--{option} values must fit a float" in stderr


_BAD_PRELUDES = [
    ("Omega 3\n", "prelude lines read ALIAS = dims (line 1, column 1)"),
    ("# aliases\nOmega = 3\n\nOmega = 1xq\n",
     "bad dimension tuple '1xq' (line 4, column 1)"),
    ("Gamma = 1x2\nSigma = 0\n", "bad dimension tuple '0' (line 2, column 1)"),
    ("Gamma = 1x-2\n", "bad dimension tuple '1x-2' (line 1, column 1)"),
]


def test_cli_malformed_prelude_is_a_usage_error(tmp_path):
    # the prelude is refused at load, naming its own line
    prelude = tmp_path / "prelude.txt"
    for text, message in _BAD_PRELUDES:
        prelude.write_text(text)
        code, _, stderr = run_cli(["index", "--prelude", str(prelude), _H])
        assert code == 2 and stderr == f"ParseError: {message}\n"


_NUMBERS = ("0", "1", "2", "3", "oo", "1/0", "3/2")
_CHARS = "0/p{}()[],_^-+*>?x ;"


def _mutate(rng):
    """A golden line after one to three edits: a number replaced by a zero,
    small, infinite or improper value, or one character inserted, deleted
    or replaced, drawn from the ``random.Random`` ``rng``."""
    line = rng.choice(_corpus_lines())
    for _ in range(rng.randint(1, 3)):
        numbers = [m.span() for m in re.finditer(r"\d+", line)]
        if numbers and rng.choice((False, True)):
            a, b = rng.choice(numbers)
            line = line[:a] + rng.choice(_NUMBERS) + line[b:]
        else:
            i = rng.randint(0, len(line))
            ch = rng.choice(_CHARS)
            line = rng.choice((line[:i] + ch + line[i:],
                               line[:i] + line[i + 1:],
                               line[:i] + ch + line[i + 1:]))
    return line


_mutated_golden_lines = st.randoms(use_true_random=False).map(_mutate)


@seed(20261018)
@settings(max_examples=300, deadline=None, database=None)
@given(_mutated_golden_lines)
def test_mutated_queries_report_or_refuse(text):
    try:
        run(parse_query(text))
    except EngineError:
        pass
    assert run_cli(["embed", "--", text])[0] in (0, 1, 2, 3)


@pytest.mark.parametrize("p", ["1", "oo"])
def test_cli_lebesgue_source_endpoint_not_covered(p):
    # L^1 and L^oo are not zero-order Bessel-potential spaces: a failed
    # condition and exit 1, not a traceback
    code, stdout, _ = run_cli(
        ["embed", f"L^{{(1)}}_{p}(R^2) -> L^{{(1)}}_2(R^2) ?", "--machine"])
    assert code == 1
    doc = json.loads(stdout)
    assert doc["verdict"] == "NOT_COVERED"
    assert doc["first_failure"]["anchor"] == "space.zero-order"


def test_cli_batch_continues_after_lebesgue_endpoint_source(tmp_path):
    src = tmp_path / "queries.txt"
    src.write_text("L^{(1)}_1(R^2) -> L^{(1)}_2(R^2) ?\n"
                   "index H^{1,(1)}_2(R^2)\n")
    code, stdout, _ = run_cli(["batch", str(src), "--machine"])
    assert code == 1
    docs = [json.loads(ln) for ln in stdout.splitlines()]
    assert [d["kind"] for d in docs] == ["embed", "index"]
    assert docs[0]["verdict"] == "NOT_COVERED"


def test_cli_import_leaves_numpy_unloaded():
    # only the seminorm command needs the numeric lab (numpy), and the
    # command line is read by argparse: nothing outside the standard
    # library is imported
    src = Path(anisocalc.__file__).parents[1]
    code = ("import sys\n"
            "before = set(sys.modules)\n"
            "import anisocalc.cli\n"
            "new = {m.split('.')[0] for m in set(sys.modules) - before}\n"
            "extra = new - set(sys.stdlib_module_names) - {'anisocalc'}\n"
            "assert not extra, f'imported {sorted(extra)}'\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0, proc.stderr


def test_cli_batch_preserves_order(tmp_path):
    src = tmp_path / "queries.txt"
    src.write_text("\n".join(["# comment", *_corpus_lines()]) + "\n")
    _, stdout, _ = run_cli(["batch", str(src), "--machine"])
    assert [json.loads(ln)["query"] for ln in stdout.splitlines()] == \
        [format_query(parse_query(ln)) for ln in _corpus_lines()]


def test_cli_batch_isolates_a_malformed_line(tmp_path):
    src = tmp_path / "queries.txt"
    src.write_text("index H^{1,(1)}_2(R^2)\n"
                   "index H^{1/0,(1)}_2(R^2)\n"
                   "algebra W^{1-1/p,(2,1)}_6(JxSigma) ?\n")
    code, stdout, stderr = run_cli(["batch", str(src), "--machine"])
    assert code == 2
    docs = [json.loads(ln) for ln in stdout.splitlines()]
    assert [d["kind"] for d in docs] == ["index", "algebra"]
    assert stderr.startswith("ParseError: zero denominator")


def test_cli_app_machine():
    code, stdout, _ = run_cli(["app", "stefan", "--n", "3", "--solve-p",
                               "--machine"])
    assert code == 0
    assert json.loads(stdout)["intersection"]["p"] == "[5/2, oo)"
    assert run_cli(["app", "nvs", "--n", "3", "--p", "2"])[0] == 1


def test_cli_realize_and_minimize():
    code, stdout, _ = run_cli(["realize", "--sigma", "1/2,2", "--pi",
                               "3/4,1/2", "--rho", "3/4"])
    assert code == 0 and "1/2, 1/4" in stdout
    code, stdout, _ = run_cli(["minimize", "--sigma", "3,1", "--pi", "1,2",
                               "--order", "2", "--machine"])
    assert code == 0
    assert json.loads(stdout)["phi_min"] == "-3"


@pytest.mark.parametrize("args", [
    pytest.param([], id="no-command"),
    pytest.param(["bogus", _H], id="unknown-command"),
    pytest.param(["index", "--mach", _H], id="abbreviated-option"),
    pytest.param(["embed", _H, "->", _H, "?", "--bogus"],
                 id="split-query-unknown-option"),
    pytest.param(["app", "stefan", "--n", "x"], id="app-n-not-an-integer"),
    pytest.param(["app", "bogus", "--n", "2"], id="app-unknown-problem"),
    pytest.param(["realize", "--sigma", "1/2,2", "--pi", "3/4,1/2"],
                 id="realize-without-rho"),
    pytest.param(_APP_REFUSALS[0], id="app-n-1"),
    pytest.param(_APP_REFUSALS[1], id="app-p-not-rational"),
    # stdout carries the scaling table, so there is no --csv option
    pytest.param(["seminorm", "--space", _W, "--spacing", "1/10", "--radius",
                  "5", "--csv", os.devnull], id="seminorm-csv-no-dilations"),
    pytest.param(["seminorm", "--space", _W, "--spacing", "1/10", "--radius",
                  "5", "--dilations", "1,2", "--csv", os.devnull, "--machine"],
                 id="seminorm-csv-machine"),
])
def test_cli_usage_errors(args):
    # run_cli lets any exception but SystemExit through, so a traceback
    # fails the test
    code, stdout, _ = run_cli(args)
    assert code == 2 and stdout == ""


def _parse_outcome(text):
    """The canonical echo of an accepted query, or its refusal."""
    try:
        return format_query(parse_query(text))
    except ParseError as exc:
        return f"ParseError: {exc}"


def _outcome_inputs():
    """The golden lines, then 2,000 seeded mutations of them."""
    rng = random.Random(20261018)
    return _corpus_lines() + [_mutate(rng) for _ in range(2000)]


def test_parse_outcomes_are_pinned():
    # which text parses, to what, and every refusal's message and position
    got = "".join(_parse_outcome(text) + "\n" for text in _outcome_inputs())
    assert got == (GOLDEN / "parse_outcomes.txt").read_text()


@pytest.mark.parametrize("parse, text, message", [
    (parse_query, "solve p: solve p: algebra W^{1-1/p,(2,1)}_p(JxSigma) ?",
     "nested solve prefixes (line 1, column 55)"),
    (parse_space, "H^{0,(2,1)}_3(JxSigma; Lp(Rdot",
     "unbalanced parentheses in value-space tag (line 1, column 31)"),
    (parse_query, "index H^{2,(1)}_{2,3}(R^2)",
     "only the Besov scale takes a micro-scale (line 1, column 20)"),
    (parse_space, "B^{2,(1)}_2_{1/2}(R^2)",
     "micro-scale reciprocal must lie in [0, 1] (line 1, column 23)"),
    (parse_space, "H^{1,(1)}_2(R^2) ?",
     "trailing input after the space (line 1, column 18)"),
    (parse_query,
     "(H^{1,(2,1)}_3(JxSigma), H^{3,(2,1)}_3(JxSigma))_{1/2, 1/2}",
     "the functor parameter q must be at least 1 (line 1, column 59)"),
])
def test_parse_errors_the_corpus_misses(parse, text, message):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert str(err.value) == message


_TOKEN = re.compile(r"\^\{|R\^|C0|oo|\d+|x(?=\d)|[A-Za-z]\w*|\S")
_GAPS = ("", " ", "\t", "  ", "\n")
_ALIASES = {1: ("J", "Rdot"), 2: ("Sigma",), 3: ("Rdotn",)}
_TARGETS = (SCALARS, SCALARS, dsl._NAMED_TARGETS["E"],
            dsl._NAMED_TARGETS["A"], lp_valued("Rdot"))


def _printable_space(rng):
    """A descriptor whose text the grammar reads back: conftest's random
    spaces, symbolic ones, Lebesgue and C0 spaces, Besov spaces with a
    micro-scale, over an R^ or prelude-alias domain and any value space."""
    aniso = rand_aniso(rng)
    kind = rng.choice(("concrete", "symbolic", "L", "C0", "Bq"))
    if kind == "concrete":
        sp = rand_space(rng, aniso, scales=(Scale.B, Scale.H, Scale.W))
    elif kind == "symbolic":
        s = AffineExpr(rand_fraction(rng, F(0), F(4)),
                       -rand_fraction(rng, F(0), F(2)))
        sp = rng.choice((SpaceDescr.bessel, SpaceDescr.sobolev,
                         SpaceDescr.besov))(s, X, aniso)
    elif kind == "L":
        sp = SpaceDescr.lebesgue(rng.choice((F(0), F(1), rand_x(rng))), aniso)
    elif kind == "C0":
        sp = SpaceDescr.c0(aniso)
    else:
        y = rng.choice((F(0), F(1), rand_x(rng)))
        sp = SpaceDescr.besov(rand_fraction(rng, F(0), F(4)),
                              rng.choice((F(0), rand_x(rng))), aniso, y)
    dims = aniso.dims
    if rng.random() < 0.5:
        label = "x".join(rng.choice(_ALIASES[n]) for n in dims)
    else:
        label = "R^{" + "x".join(map(str, dims)) + "}" if len(dims) > 1 \
            else f"R^{dims[0]}"
    return sp.with_(target=rng.choice(_TARGETS), domain_label=label)


@seed(20261018)
@settings(max_examples=400, deadline=None, database=None)
@given(st.randoms(use_true_random=False))
def test_printed_spaces_parse_back_with_any_whitespace(rng):
    # the unit patterns read the printed form of every kind of descriptor,
    # with whitespace at every token boundary, to the same descriptor
    sp = _printable_space(rng)
    if sp.y is not None and sp.x.is_constant and sp.y == sp.x.constant:
        sp = sp.with_(y=None)  # q = p is the default micro-scale
    text = str(sp)
    assert parse_space(text) == sp
    spaced = "".join(rng.choice(_GAPS) + tok for tok in _TOKEN.findall(text))
    assert "".join(_TOKEN.findall(spaced)) == "".join(text.split())
    assert parse_space(spaced + rng.choice(_GAPS)) == sp


def _space_count(query):
    p = query.payload
    if query.kind == "solve-p":
        return _space_count(p["inner"])
    if query.kind in ("index", "algebra"):
        return 1
    if query.kind == "interp":
        return 2
    return len(p["factors"]) + 1


def test_parse_matches_at_most_twelve_patterns_per_space():
    # a deterministic cost guard: the grammar is read in units (a scale
    # head, each smoothness term, the weights, an exponent, the domain),
    # not a token at a time, which matched 34-42 patterns per space
    matches = []

    def count(frame, event, arg):
        if event == "c_call" and isinstance(getattr(arg, "__self__", None),
                                            re.Pattern):
            matches.append(arg.__name__)

    for line in _corpus_lines():
        spaces = _space_count(parse_query(line))
        matches.clear()
        sys.setprofile(count)
        try:
            parse_query(line)
        finally:
            sys.setprofile(None)
        assert "match" in matches
        assert len(matches) <= 12 * spaces, (line, matches)
