"""Analytic superposition gate."""

from fractions import Fraction as F
from itertools import product

import pytest

from anisocalc import (SCALARS, AnalyticSpec, Anisotropy, MultInstance,
                       SpaceDescr, Verdict, decide_multiplication,
                       decide_nemytskij, lp_valued, sobolev_index)
from anisocalc.errors import HypothesisViolation

SIG = Anisotropy((1, 2), (2, 1))


def _trace_space(s_at_p1, p: F) -> SpaceDescr:
    x = F(1, 1) / p
    return SpaceDescr.sobolev(s_at_p1 - x, x, SIG, SCALARS, "JxSigma")


def test_curvature_gate_threshold():
    # gate on the gradient space: covered iff 5/4 - (n+2)/(2p) > 0,
    # n = 3: p > 2
    phi = AnalyticSpec(arity=2, radius=F(1))
    for p, want in ((F(3), Verdict.COVERED), (F(5, 2), Verdict.COVERED),
                    (F(2), Verdict.NOT_COVERED), (F(3, 2), Verdict.NOT_COVERED)):
        sp = _trace_space(F(5, 2), p)
        decision, ledger = decide_nemytskij([sp, sp], sp, phi)
        assert decision.verdict is want
        assert (ledger is not None) == (want is Verdict.COVERED)


def test_flow_gate_threshold():
    # gate on the second-order trace space: covered iff 1 - (n+2)/(2p) > 0,
    # n = 3: p > 5/2
    phi = AnalyticSpec(arity=2, radius=F(1))
    for p, want in ((F(3), Verdict.COVERED), (F(5, 2), Verdict.NOT_COVERED)):
        sp = _trace_space(F(2), p)
        decision, _ = decide_nemytskij([sp, sp], sp, phi)
        assert decision.verdict is want


def test_zero_index_refused():
    # target index exactly 0: strict positivity fails by construction
    sp = _trace_space(F(2), F(5, 2))
    assert sobolev_index(sp)(sp.x.constant) == 0
    decision, ledger = decide_nemytskij([sp], sp, AnalyticSpec(arity=1))
    assert decision.verdict is Verdict.NOT_COVERED
    assert ledger is None


def test_vanishing_value_required():
    sp = _trace_space(F(5, 2), F(3))
    phi = AnalyticSpec(arity=1, vanishes_at_zero=False)
    decision, _ = decide_nemytskij([sp], sp, phi)
    assert decision.verdict is Verdict.NOT_COVERED
    assert decision.first_failure().anchor == "nemytskij.vanishing"


def test_unital_targets_required():
    sp = _trace_space(F(5, 2), F(3)).with_(target=lp_valued("Rdot"))
    with pytest.raises(HypothesisViolation):
        decide_nemytskij([sp], sp, AnalyticSpec(arity=1))


def test_arity_must_match():
    sp = _trace_space(F(5, 2), F(3))
    with pytest.raises(ValueError):
        decide_nemytskij([sp, sp], sp, AnalyticSpec(arity=3))


def test_ledger_contents():
    sp = _trace_space(F(5, 2), F(3))
    decision, ledger = decide_nemytskij([sp], sp, AnalyticSpec(arity=1,
                                                               radius=F(2)))
    assert decision.covered
    assert "min(C_j^-1, M_j^-1)" in ledger.rho_rule and "r = 2" in ledger.rho_rule
    assert ledger.L_dependence == ("M", "a_alpha with |alpha| = 1")


def test_gate_implies_monomial_multiplications():
    # every monomial of total degree <= 3 lands in the target: the
    # multiplication of its kept factors is covered
    p = F(3)
    args = [_trace_space(F(5, 2), p), _trace_space(F(3), p)]
    target = _trace_space(F(2), p)
    decision, _ = decide_nemytskij(args, target, AnalyticSpec(arity=2))
    assert decision.covered
    for alpha in product(range(4), repeat=2):
        if not 1 <= sum(alpha) <= 3:
            continue
        factors = tuple(sp for sp, k in zip(args, alpha) for _ in range(k))
        inst = MultInstance.of(factors, target)
        assert decide_multiplication(inst).covered, alpha


def test_gate_monotone_in_argument_smoothness():
    p = F(3)
    args = [_trace_space(F(5, 2), p)]
    target = _trace_space(F(2), p)
    base, _ = decide_nemytskij(args, target, AnalyticSpec(arity=1))
    assert base.covered
    for bump in (F(1, 4), F(1, 2), F(2)):
        richer = [args[0].with_(s=args[0].s + bump)]
        got, _ = decide_nemytskij(richer, target, AnalyticSpec(arity=1))
        assert got.covered
