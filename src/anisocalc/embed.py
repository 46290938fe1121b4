"""Embedding rules and interpolation identities for the anisotropic scales.

Every rule is a sufficient condition: COVERED means "derivable from the
implemented rules", NOT_COVERED never claims the embedding fails.  All
rules reduce to exact comparisons of affine forms in x = 1/p, checked
through a :class:`~anisocalc.ratcore.ParamEnv` so the same code serves
concrete verdicts and the symbolic solver.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import NamedTuple

from .errors import IncompatibleSpaces, NoInterpolationRule
from .ratcore import AffineExpr, ParamEnv, Rational
from .spaces import (Scale, SpaceDescr, normalize, require_concrete,
                     sobolev_index)


class Verdict(str, Enum):
    COVERED = "COVERED"
    NOT_COVERED = "NOT_COVERED"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class Status(str, Enum):
    PASS = "PASS"
    FAIL = "FAIL"
    NOT_APPLICABLE = "NOT_APPLICABLE"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class TraceEntry(NamedTuple):
    label: str
    anchor: str
    status: Status
    note: str = ""


@dataclass(frozen=True)
class Decision:
    """Verdict plus the ordered trace of checked conditions."""

    verdict: Verdict
    trace: tuple[TraceEntry, ...]

    def __post_init__(self):
        if not self.trace:
            raise ValueError("a decision must carry a nonempty trace")
        has_fail = any(e.status is Status.FAIL for e in self.trace)
        if (self.verdict is Verdict.COVERED) == has_fail:
            raise ValueError("verdict inconsistent with trace")

    @property
    def covered(self) -> bool:
        return self.verdict is Verdict.COVERED

    def first_failure(self) -> TraceEntry | None:
        for e in self.trace:
            if e.status is Status.FAIL:
                return e
        return None

    def failed_labels(self) -> list[str]:
        return [e.label for e in self.trace if e.status is Status.FAIL]


@dataclass
class ConditionLog:
    """Accumulates trace entries while a rule runs."""

    entries: list[TraceEntry] = field(default_factory=list)

    def check(self, label: str, anchor: str, ok: bool, note: str = "") -> bool:
        self.entries.append(TraceEntry(label, anchor,
                                       Status.PASS if ok else Status.FAIL, note))
        return ok

    def passed(self, label: str, anchor: str, note: str = "") -> None:
        self.entries.append(TraceEntry(label, anchor, Status.PASS, note))

    def skip(self, label: str, anchor: str, note: str = "") -> None:
        self.entries.append(TraceEntry(label, anchor, Status.NOT_APPLICABLE, note))

    def extend(self, other: "ConditionLog") -> None:
        self.entries.extend(other.entries)

    def superseded(self) -> list[TraceEntry]:
        """Entries downgraded to NOT_APPLICABLE (an alternative rule path
        produced the verdict)."""
        return [TraceEntry(e.label, e.anchor, Status.NOT_APPLICABLE,
                           (e.note + "; " if e.note else "") + "superseded")
                for e in self.entries]

    @property
    def ok(self) -> bool:
        return all(e.status is not Status.FAIL for e in self.entries)

    def decision(self) -> Decision:
        return Decision(Verdict.COVERED if self.ok else Verdict.NOT_COVERED,
                        tuple(self.entries))


def _index_condition(log: ConditionLog, label: str, anchor: str,
                     src_ind: AffineExpr, dst_ind: AffineExpr,
                     env: ParamEnv) -> int:
    """Check dst index <= src index; returns the sign of (src - dst)."""
    sgn = env.cmp(src_ind, dst_ind)
    note = "strict" if sgn > 0 else ("equal" if sgn == 0 else "violated")
    log.check(label, anchor, sgn >= 0, note)
    return sgn


def _side_condition(log: ConditionLog, label: str, anchor: str,
                    index_sign: int, ok_when_equal: bool, note: str) -> None:
    if index_sign > 0:
        log.skip(label, anchor, "index inequality strict")
    else:
        log.check(label, anchor, ok_when_equal, note)


# ---------------------------------------------------------------------------
# pairwise embedding rules


def _rule_b_b(src: SpaceDescr, dst: SpaceDescr, env: ParamEnv) -> ConditionLog:
    log = ConditionLog()
    a = "embed.b-b"
    log.check("integrability exponents in [1, oo]", a,
              env.ge(src.x, 0) and env.lt(src.x, 1) and
              env.ge(dst.x, 0) and env.lt(dst.x, 1))
    log.check("smoothness does not increase", a, env.le(dst.s, src.s))
    log.check("integrability exponent does not decrease", a,
              env.ge(src.x, dst.x))
    sgn = _index_condition(log, "index does not increase", a,
                           sobolev_index(src), sobolev_index(dst), env)
    _side_condition(log, "index strict or micro-scale does not decrease", a,
                    sgn, env.ge(src.micro(), dst.micro()),
                    "micro-scale comparison at equal index")
    return log


def _rule_h_h(src: SpaceDescr, dst: SpaceDescr, env: ParamEnv) -> ConditionLog:
    log = ConditionLog()
    a = "embed.h-h"
    log.check("integrability exponents in (1, oo)", a,
              env.gt(src.x, 0) and env.lt(src.x, 1) and
              env.gt(dst.x, 0) and env.lt(dst.x, 1))
    log.check("smoothness does not increase", a, env.le(dst.s, src.s))
    log.check("integrability exponent does not decrease", a,
              env.ge(src.x, dst.x))
    _index_condition(log, "index does not increase", a,
                     sobolev_index(src), sobolev_index(dst), env)
    return log


def _rule_b_h(src: SpaceDescr, dst: SpaceDescr, env: ParamEnv) -> ConditionLog:
    log = ConditionLog()
    a = "embed.b-h"
    log.check("integrability exponents admissible", a,
              env.ge(src.x, 0) and env.lt(src.x, 1) and
              env.gt(dst.x, 0) and env.lt(dst.x, 1))
    log.check("smoothness strictly drops", a, env.lt(dst.s, src.s))
    log.check("integrability exponent does not decrease", a,
              env.ge(src.x, dst.x))
    sgn = _index_condition(log, "index does not increase", a,
                           sobolev_index(src), sobolev_index(dst), env)
    _side_condition(log, "index strict or micro-scale at most target "
                    "integrability", a, sgn, env.ge(src.micro(), dst.x),
                    "micro-scale comparison at equal index")
    return log


def _rule_h_b(src: SpaceDescr, dst: SpaceDescr, env: ParamEnv) -> ConditionLog:
    log = ConditionLog()
    a = "embed.h-b"
    log.check("integrability exponents admissible", a,
              env.gt(src.x, 0) and env.lt(src.x, 1) and
              env.ge(dst.x, 0) and env.lt(dst.x, 1))
    log.check("smoothness strictly drops", a, env.lt(dst.s, src.s))
    log.check("integrability exponent does not decrease", a,
              env.ge(src.x, dst.x))
    sgn = _index_condition(log, "index does not increase", a,
                           sobolev_index(src), sobolev_index(dst), env)
    _side_condition(log, "index strict or source integrability at most "
                    "target micro-scale", a, sgn, env.le(dst.micro(), src.x),
                    "micro-scale comparison at equal index")
    return log


def _rule_h_l(src: SpaceDescr, dst: SpaceDescr, env: ParamEnv) -> ConditionLog:
    log = ConditionLog()
    a = "embed.h-l"
    log.check("source smoothness nonnegative", a, env.ge(src.s, 0))
    log.check("integrability exponents admissible", a,
              env.gt(src.x, 0) and env.lt(src.x, 1) and env.ge(dst.x, 0))
    log.check("target exponent does not drop below the source one", a,
              env.le(dst.x, src.x))
    sgn = _index_condition(log, "adapted index does not increase", a,
                           sobolev_index(src), sobolev_index(dst), env)
    _side_condition(log, "index strict or finite target exponent", a,
                    sgn, env.gt(dst.x, 0), "finite exponent at equal index")
    return log


def _rule_b_l(src: SpaceDescr, dst: SpaceDescr, env: ParamEnv) -> ConditionLog:
    log = ConditionLog()
    a = "embed.b-l"
    log.check("source smoothness positive", a, env.gt(src.s, 0))
    log.check("integrability exponents admissible", a,
              env.gt(src.x, 0) and env.le(src.x, 1) and
              env.ge(dst.x, 0) and env.lt(dst.x, 1))
    log.check("target exponent does not drop below the source one", a,
              env.le(dst.x, src.x))
    sgn = _index_condition(log, "adapted index does not increase", a,
                           sobolev_index(src), sobolev_index(dst), env)
    _side_condition(log, "index strict or (micro-scale at most source "
                    "integrability and finite target exponent)", a, sgn,
                    env.ge(src.micro(), src.x) and env.gt(dst.x, 0),
                    "micro-scale and finiteness at equal index")
    return log


def _rule_c0(src: SpaceDescr, dst: SpaceDescr, env: ParamEnv) -> ConditionLog:
    log = ConditionLog()
    a = "embed.c0"
    log.check("source smoothness positive", a, env.gt(src.s, 0))
    log.check("integrability exponent in (1, oo)", a,
              env.gt(src.x, 0) and env.lt(src.x, 1))
    if src.scale is Scale.B:
        log.check("micro-scale equals integrability", a,
                  src.y is None or env.eq(src.micro(), src.x))
    log.check("index positive", a, env.gt(sobolev_index(src), 0))
    return log


_RULES = {
    (Scale.B, Scale.B): _rule_b_b,
    (Scale.H, Scale.H): _rule_h_h,
    (Scale.B, Scale.H): _rule_b_h,
    (Scale.H, Scale.B): _rule_h_b,
    (Scale.H, Scale.L): _rule_h_l,
    (Scale.B, Scale.L): _rule_b_l,
    (Scale.B, Scale.C0): _rule_c0,
    (Scale.H, Scale.C0): _rule_c0,
}


def _compatible(src: SpaceDescr, dst: SpaceDescr) -> None:
    if src.aniso != dst.aniso:
        raise IncompatibleSpaces(
            f"anisotropies differ: {src.aniso} vs {dst.aniso}")
    if src.domain_label != dst.domain_label:
        raise IncompatibleSpaces(
            f"domains differ: {src.domain_label} vs {dst.domain_label}")
    if src.target != dst.target:
        raise IncompatibleSpaces(
            f"value spaces differ: {src.target.name} vs {dst.target.name}")


def _detour_intermediate(src: SpaceDescr, dst: SpaceDescr,
                         env: ParamEnv) -> SpaceDescr | None:
    """One deterministic intermediate space: midpoint smoothness carrying
    the target index (for a C0 target: half the source index on the Besov
    scale with micro-scale = integrability)."""
    a = src.aniso
    if dst.scale is Scale.C0:
        ind = sobolev_index(src)
        if not env.gt(ind, 0):
            return None
        s_mid = ind / 2 * a.omega_dot + src.x * a.omega_dot_n
        return SpaceDescr(Scale.B, s_mid, src.x, None, a, src.target,
                          src.domain_label)
    s_mid = (src.s + dst.s) / 2
    x_mid = (s_mid - sobolev_index(dst) * a.omega_dot) / a.omega_dot_n
    if not (env.gt(x_mid, 0) and env.lt(x_mid, 1)):
        return None
    return SpaceDescr(Scale.H, s_mid, x_mid, None, a, src.target,
                      src.domain_label)


def embeds(src: SpaceDescr, dst: SpaceDescr) -> Decision:
    """Decide whether the implemented rules give the embedding src -> dst."""
    require_concrete(src, dst)
    return embeds_in(src, dst, ParamEnv.concrete())


def embeds_in(src: SpaceDescr, dst: SpaceDescr, env: ParamEnv) -> Decision:
    _compatible(src, dst)
    src_n = normalize(src, env)
    dst_n = normalize(dst, env)
    if src_n == dst_n:
        log = ConditionLog()
        log.passed("identity embedding", "embed.identity")
        return log.decision()

    # a Lebesgue source is the zero-order Bessel-potential space (for
    # 1 < p < oo only); dedicated target rules keep the adapted index and
    # the r = oo endpoint
    if src_n.scale is Scale.L and \
            not (env.gt(src_n.x, 0) and env.lt(src_n.x, 1)):
        log = ConditionLog()
        log.check("Lebesgue source is H^0_p only for 1 < p < oo",
                  "space.zero-order", False, f"source {src_n}")
        return log.decision()
    src_eff = src_n.with_(scale=Scale.H) if src_n.scale is Scale.L else src_n
    key = (src_eff.scale, dst_n.scale)
    rule = _RULES.get(key)
    if rule is None:
        log = ConditionLog()
        log.check("rule available for the scale pair", "embed.dispatch", False,
                  f"no rule for {src_n.scale} -> {dst_n.scale}")
        return log.decision()
    src_n = src_eff

    direct = rule(src_n, dst_n, env)
    if direct.ok:
        return direct.decision()

    mid = _detour_intermediate(src_n, dst_n, env)
    if mid is not None and (mid.scale, dst_n.scale) in _RULES and \
            (src_n.scale, mid.scale) in _RULES and mid != src_n and mid != dst_n:
        leg1 = _RULES[(src_n.scale, mid.scale)](src_n, mid, env)
        leg2 = _RULES[(mid.scale, dst_n.scale)](mid, dst_n, env)
        if leg1.ok and leg2.ok:
            log = ConditionLog()
            log.entries.extend(direct.superseded())
            log.passed("intermediate space", "embed.detour", f"via {mid}")
            log.extend(leg1)
            log.extend(leg2)
            return log.decision()
    return direct.decision()


# ---------------------------------------------------------------------------
# interpolation identities


COUPLED = object()  # sentinel: real-method functor parameter equal to p


def _convex(a: AffineExpr, b: AffineExpr, theta: Fraction) -> AffineExpr:
    return a * (1 - theta) + b * theta


def _as_h0(space: SpaceDescr) -> SpaceDescr:
    if space.scale is not Scale.L:
        return space
    if space.x.is_constant and not 0 < space.x.constant < 1:
        raise NoInterpolationRule(
            f"{space} is the zero-order Bessel-potential space only for "
            f"1 < p < oo")
    return space.with_(scale=Scale.H)


def interpolate_complex(a: SpaceDescr, b: SpaceDescr,
                        theta: Rational) -> SpaceDescr:
    """Complex interpolation of a matching pair of descriptors."""
    theta = Fraction(theta)
    if not 0 < theta < 1:
        raise ValueError("interpolation parameter must lie in (0, 1)")
    if a.aniso != b.aniso or a.domain_label != b.domain_label or \
            a.target != b.target:
        raise NoInterpolationRule("operands live on different structures")
    a0, b0 = normalize(a), normalize(b)
    if a0.scale is Scale.L and b0.scale is Scale.L:
        return a0.with_(x=_convex(a0.x, b0.x, theta))
    a0, b0 = _as_h0(a0), _as_h0(b0)
    if a0.scale is Scale.B and b0.scale is Scale.B:
        y = _convex(a0.micro(), b0.micro(), theta)
        out = SpaceDescr(Scale.B, _convex(a0.s, b0.s, theta),
                         _convex(a0.x, b0.x, theta),
                         y.constant_value() if y.is_constant else None,
                         a0.aniso, a0.target, a0.domain_label)
        if not y.is_constant and y != out.x:
            raise NoInterpolationRule("symbolic micro-scale cannot be carried")
        return normalize(out)
    if a0.scale is Scale.H and b0.scale is Scale.H:
        if a0.x == b0.x:
            return a0.with_(s=_convex(a0.s, b0.s, theta))
        if a0.s == b0.s:
            return a0.with_(x=_convex(a0.x, b0.x, theta))
        raise NoInterpolationRule(
            "Bessel-potential pairs interpolate at fixed integrability or "
            "fixed smoothness only")
    raise NoInterpolationRule(
        f"no complex interpolation identity for {a0.scale}/{b0.scale}")


def interpolate_real(a: SpaceDescr, b: SpaceDescr, theta: Rational,
                     q: Rational | object = COUPLED) -> SpaceDescr:
    """Real interpolation of a matching pair of descriptors.

    ``q`` is the functor's second parameter; the sentinel :data:`COUPLED`
    means the functor parameter equals the interpolated integrability.
    """
    theta = Fraction(theta)
    if not 0 < theta < 1:
        raise ValueError("interpolation parameter must lie in (0, 1)")
    if a.aniso != b.aniso or a.domain_label != b.domain_label or \
            a.target != b.target:
        raise NoInterpolationRule("operands live on different structures")
    a0, b0 = normalize(a), normalize(b)
    if a0.scale is Scale.L and b0.scale is Scale.L:
        if q is not COUPLED:
            raise NoInterpolationRule(
                "Lebesgue pairs interpolate with coupled functor parameter")
        return a0.with_(x=_convex(a0.x, b0.x, theta))
    a0, b0 = _as_h0(a0), _as_h0(b0)
    if a0.scale is Scale.H and b0.scale is Scale.H:
        if a0.x == b0.x and a0.s != b0.s:
            if q is COUPLED:
                yq = a0.x
            else:
                yq = AffineExpr.of(Fraction(0) if Fraction(q) == 0 else 1 / Fraction(q))
            out = SpaceDescr(Scale.B, _convex(a0.s, b0.s, theta), a0.x,
                             yq.constant_value() if yq.is_constant else None,
                             a0.aniso, a0.target, a0.domain_label)
            return normalize(out)
        if a0.s == b0.s and q is COUPLED:
            return a0.with_(x=_convex(a0.x, b0.x, theta))
        raise NoInterpolationRule(
            "Bessel-potential pairs interpolate at fixed integrability with "
            "distinct smoothness, or fixed smoothness with coupled parameter")
    if a0.scale is Scale.B and b0.scale is Scale.B:
        if a0.x == b0.x and a0.s != b0.s:
            if q is COUPLED:
                y = a0.x.constant_value() if a0.x.is_constant else None
            else:
                y = Fraction(0) if Fraction(q) == 0 else 1 / Fraction(q)
            return normalize(SpaceDescr(Scale.B, _convex(a0.s, b0.s, theta),
                                        a0.x, y, a0.aniso, a0.target,
                                        a0.domain_label))
        if q is COUPLED:
            x = _convex(a0.x, b0.x, theta)
            if _convex(a0.micro(), b0.micro(), theta) != x:
                raise NoInterpolationRule(
                    "coupled functor parameter requires the micro-scales to "
                    "satisfy the same convex relation as the integrability")
            return normalize(SpaceDescr(Scale.B, _convex(a0.s, b0.s, theta),
                                        x, None, a0.aniso, a0.target,
                                        a0.domain_label))
        raise NoInterpolationRule(
            "Besov pairs interpolate at fixed integrability with distinct "
            "smoothness, or with coupled functor parameter")
    raise NoInterpolationRule(
        f"no real interpolation identity for {a0.scale}/{b0.scale}")
