"""The traced benchmark run (``perfbench/run.py --trace 1``) wraps engine
functions by their module attribute names and stops when one is gone; a
refactor that deletes or renames such a name fails here first."""

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
