"""The traced benchmark run (``perfbench/run.py --trace 1``) wraps engine
functions by their module attribute names and stops when one is gone; a
refactor that deletes or renames such a name, or stops calling it, fails
here first."""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_wraps_and_restores_every_engine_name(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    from anisocalc import dsl

    run = dsl.run
    saved = tracing.install(tracing.Tracer())
    try:
        assert dsl.run is not run
    finally:
        tracing.restore(saved)
    assert all(getattr(obj, attr) is orig for obj, attr, orig in saved)
    assert dsl.run is run


_CONCRETE = [
    "H^{2,(2,1)}_3(JxSigma) -> H^{1,(2,1)}_3(JxSigma) ?",
    "L^{(1)}_4(R^3) * L^{(1)}_4(R^3) -> L^{(1)}_2(R^3) ?",
    "multiplier: W^{2-1/p,(2,1)}_3(JxSigma) * W^{1-1/p,(2,1)}_3(JxSigma) "
    "-> W^{1-1/p,(2,1)}_3(JxSigma) ?",
    "algebra W^{1-1/p,(2,1)}_6(JxSigma) ?",
    "nemytskij: W^{5/2-1/p,(2,1)}_3(JxSigma) * W^{5/2-1/p,(2,1)}_3(JxSigma) "
    "-> W^{5/2-1/p,(2,1)}_3(JxSigma) ?",
]
_SOLVE = "solve p: algebra W^{1-1/p,(2,1)}_p(JxSigma) ?"


def test_traced_spans_cover_every_decision_path(monkeypatch):
    # the per-layer metrics read these spans; a decision path that bypasses
    # the wrapped names would report them empty
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    from anisocalc import appsuite, dsl

    tracer = tracing.Tracer()

    def names(phase) -> set[str]:
        start = len(tracer.spans)
        phase()
        return {s[tracing.NAME] for s in tracer.spans[start:]}

    saved = tracing.install(tracer)
    try:
        concrete = [names(lambda q=q: dsl.run(dsl.parse_query(q)))
                    for q in _CONCRETE]
        solve = names(lambda: dsl.run(dsl.parse_query(_SOLVE)))
        suite = names(lambda: appsuite.run_stefan(2))
    finally:
        tracing.restore(saved)
    rules = ["embed.decide", "multiply.decide", "multiply.decide",
             "multiply.decide", "nemytskij.decide"]
    for spans, rule in zip(concrete, rules):
        assert {"dsl.run", rule} <= spans
    assert {"dsl.run", "psolver.solve", "psolver.eval",
            "multiply.decide"} <= solve
    assert {"appsuite.suite", "psolver.solve", "psolver.eval",
            "embed.decide", "multiply.decide", "nemytskij.decide"} <= suite
