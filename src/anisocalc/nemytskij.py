"""Gate for analytic superposition operators on supercritical spaces.

The defining function enters only through its metadata: arity, a positive
convergence radius and the vanishing value at the origin.  Coefficients
affect nothing but the unquantified constants, which are reported as a
symbolic ledger.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .embed import ConditionLog, Decision, Verdict
from .errors import HypothesisViolation
from .multiply import (MultInstance, _hypotheses, _normalized,
                       _one_parameter_besov, _target_scale_gates)
from .ratcore import ParamEnv, Rational
from .spaces import (SpaceDescr, effective_scale, normalize, require_concrete,
                     sobolev_index)


@dataclass(frozen=True)
class AnalyticSpec:
    """Metadata of an analytic function of m variables."""

    arity: int
    radius: Rational = Fraction(1)
    vanishes_at_zero: bool = True

    def __post_init__(self):
        if self.arity < 1:
            raise ValueError("arity must be positive")
        if self.radius <= 0:
            raise ValueError("convergence radius must be positive")


@dataclass(frozen=True)
class ConstantsLedger:
    """Symbolic record of the unquantified constants of the gate."""

    rho_rule: str
    L_dependence: tuple[str, ...]

    @staticmethod
    def standard(radius: Rational) -> "ConstantsLedger":
        return ConstantsLedger(
            rho_rule=("rho < min_j min(C_j^-1, M_j^-1) * r with r = "
                      f"{radius}; C_j = sup-norm embedding constants, "
                      "M_j = factor algebra constants"),
            L_dependence=("M", "a_alpha with |alpha| = 1"),
        )


def decide_nemytskij(args: Sequence[SpaceDescr], target: SpaceDescr,
                     phi: AnalyticSpec) -> tuple[Decision, ConstantsLedger | None]:
    """Decide analyticity of the superposition operator u -> phi(u)."""
    require_concrete(*args, target)
    return decide_nemytskij_in(args, target, phi, ParamEnv.concrete())


def decide_nemytskij_in(args: Sequence[SpaceDescr], target: SpaceDescr,
                        phi: AnalyticSpec, env: ParamEnv,
                        ) -> tuple[Decision, ConstantsLedger | None]:
    if len(args) != phi.arity:
        raise ValueError(
            f"function arity {phi.arity} does not match {len(args)} arguments")
    for sp in (*args, target):
        if not sp.target.unital:
            raise HypothesisViolation(
                f"value space {sp.target.name} is not a unital Banach algebra")
    inst = MultInstance.of(tuple(args), target)
    log = ConditionLog()
    log.passed("unital Banach-algebra value spaces", "hyp.unital")
    _hypotheses(inst, log)

    log.check("defining function vanishes at the origin",
              "nemytskij.vanishing", phi.vanishes_at_zero)

    *facs, tgt = _normalized((*args, target), env, normalize)
    if not _one_parameter_besov([*facs, tgt], env, log):
        return log.decision(), None
    log.check("positive smoothness and exponents in (1, oo)",
              "nemytskij.range", env.gt(tgt.s, 0) and
              all(env.gt(sp.x, 0) and env.lt(sp.x, 1) for sp in (tgt, *facs)))
    ind = sobolev_index(tgt)
    inds = [sobolev_index(f) for f in facs]

    log.check("target index positive", "nemytskij.index-positive",
              env.gt(ind, 0))
    log.check("target index dominated by every argument index",
              "nemytskij.index-dominated",
              all(env.ge(e, ind) for e in inds))
    smooth_signs = [env.cmp(f.s, tgt.s) for f in facs]
    log.check("target smoothness dominated by every argument",
              "nemytskij.smoothness", all(sg >= 0 for sg in smooth_signs))
    log.check("no argument exponent above the target one",
              "nemytskij.integrability",
              all(env.ge(f.x, tgt.x) for f in facs))

    x_t = effective_scale(tgt)
    off = [j for j, f in enumerate(facs) if effective_scale(f) is not x_t]
    log.check_or_skip(None if off else "all arguments on the target scale",
                      "(a) off-scale arguments strictly smoother",
                      "nemytskij.a", lambda: all(smooth_signs[j] > 0 for j in off))
    _, not_h = _target_scale_gates(x_t)
    log.check_or_skip(not_h, "(b) smoothness a positive multiple of lcm(w) or "
                      "strictly below every argument",
                      "nemytskij.b", lambda: env.is_multiple(
                          tgt.s, tgt.aniso.omega_dot, allow_zero=False)
                      or all(sg > 0 for sg in smooth_signs))

    decision = log.decision()
    if decision.verdict is Verdict.COVERED:
        return decision, ConstantsLedger.standard(phi.radius)
    return decision, None
