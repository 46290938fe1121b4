"""Embedding rules and interpolation identities for the anisotropic scales.

Every rule is a sufficient condition: COVERED means "derivable from the
implemented rules", NOT_COVERED never claims the embedding fails.  All
rules reduce to exact comparisons of affine forms in x = 1/p, checked
through a :class:`~anisocalc.ratcore.ParamEnv` so the same code serves
concrete verdicts and the symbolic solver.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import NamedTuple

from .errors import IncompatibleSpaces, NoInterpolationRule
from .ratcore import X, AffineExpr, ParamEnv, Rational, render_affine_p
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
    """The ordered trace of checked conditions and its verdict: COVERED
    exactly when no condition failed."""

    trace: tuple[TraceEntry, ...]
    verdict: Verdict = field(init=False)

    def __post_init__(self):
        if not self.trace:
            raise ValueError("a decision must carry a nonempty trace")
        failed = any(e.status is Status.FAIL for e in self.trace)
        object.__setattr__(self, "verdict", Verdict.NOT_COVERED if failed
                           else Verdict.COVERED)

    @property
    def covered(self) -> bool:
        return self.verdict is Verdict.COVERED

    def first_failure(self) -> TraceEntry | None:
        for e in self.trace:
            if e.status is Status.FAIL:
                return e
        return None


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

    def check_or_skip(self, skip: str | None, label: str, anchor: str,
                      predicate: Callable[[], bool], note: str = "") -> bool:
        """A premise-gated condition: NOT_APPLICABLE with the reason
        ``skip`` when its premise fails, else :meth:`check` of
        ``predicate()``.  The predicate runs only when the condition
        applies, so a skipped one compares nothing and records no case
        split.  False only on failure."""
        if skip is not None:
            self.entries.append(TraceEntry(label, anchor, Status.NOT_APPLICABLE,
                                           skip))
            return True
        return self.check(label, anchor, predicate(), note)

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
        return Decision(tuple(self.entries))


def _index_condition(log: ConditionLog, label: str, anchor: str,
                     src_ind: AffineExpr, dst_ind: AffineExpr,
                     env: ParamEnv) -> str | None:
    """Check dst index <= src index; returns why the side condition of a
    strict index inequality does not apply (None unless strict)."""
    sgn = env.cmp(src_ind, dst_ind)
    note = "strict" if sgn > 0 else ("equal" if sgn == 0 else "violated")
    log.check(label, anchor, sgn >= 0, note)
    return "index inequality strict" if sgn > 0 else None


# ---------------------------------------------------------------------------
# pairwise embedding rules


#: (source, target) scale of a Besov/Bessel-potential pair -> anchor, label
#: of the exponent-range check, label of the condition at equal index (none
#: for H -> H, where the order of the exponents implies it)
_BH_PAIRS = {
    (Scale.B, Scale.B): ("embed.b-b", "integrability exponents in [1, oo]",
                         "index strict or micro-scale does not decrease"),
    (Scale.H, Scale.H): ("embed.h-h", "integrability exponents in (1, oo)",
                         None),
    (Scale.B, Scale.H): ("embed.b-h", "integrability exponents admissible",
                         "index strict or micro-scale at most target "
                         "integrability"),
    (Scale.H, Scale.B): ("embed.h-b", "integrability exponents admissible",
                         "index strict or source integrability at most "
                         "target micro-scale"),
}


def _admissible(sp: SpaceDescr, env: ParamEnv) -> bool:
    """1 < p < oo, and p = oo too on the Besov scale."""
    return (env.ge(sp.x, 0) if sp.scale is Scale.B else env.gt(sp.x, 0)) \
        and env.lt(sp.x, 1)


def _fine(sp: SpaceDescr) -> AffineExpr:
    """The fine exponent: the micro-scale on B, the integrability on H."""
    return sp.micro() if sp.scale is Scale.B else sp.x


def _rule_besov_bessel(src: SpaceDescr, dst: SpaceDescr,
                       env: ParamEnv) -> ConditionLog:
    """The embedding theorem between the Besov and the Bessel-potential
    scales, for all four pairs of them."""
    a, range_label, equal_label = _BH_PAIRS[src.scale, dst.scale]
    log = ConditionLog()
    log.check(range_label, a, _admissible(src, env) and _admissible(dst, env))
    if src.scale is dst.scale:
        log.check("smoothness does not increase", a, env.le(dst.s, src.s))
    else:
        log.check("smoothness strictly drops", a, env.lt(dst.s, src.s))
    log.check("integrability exponent does not decrease", a,
              env.ge(src.x, dst.x))
    strict = _index_condition(log, "index does not increase", a,
                              sobolev_index(src), sobolev_index(dst), env)
    if equal_label is not None:
        log.check_or_skip(strict, equal_label, a,
                          lambda: env.ge(_fine(src), _fine(dst)),
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
    strict = _index_condition(log, "adapted index does not increase", a,
                              sobolev_index(src), sobolev_index(dst), env)
    log.check_or_skip(strict, "index strict or finite target exponent", a,
                      lambda: env.gt(dst.x, 0), "finite exponent at equal index")
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
    strict = _index_condition(log, "adapted index does not increase", a,
                              sobolev_index(src), sobolev_index(dst), env)
    log.check_or_skip(strict, "index strict or (micro-scale at most source "
                      "integrability and finite target exponent)", a,
                      lambda: env.ge(src.micro(), src.x) and env.gt(dst.x, 0),
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
    **dict.fromkeys(_BH_PAIRS, _rule_besov_bessel),
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
    dst_n = src_n if dst is src else normalize(dst, env)
    if src_n == dst_n:
        log = ConditionLog()
        log.passed("identity embedding", "embed.identity")
        return log.decision()

    # a Lebesgue source is the zero-order Bessel-potential space (for
    # 1 < p < oo only); dedicated target rules keep the adapted index and
    # the r = oo endpoint
    if src_n.scale is Scale.L:
        if not (env.gt(src_n.x, 0) and env.lt(src_n.x, 1)):
            log = ConditionLog()
            log.check("Lebesgue source is H^0_p only for 1 < p < oo",
                      "space.zero-order", False, f"source {src_n}")
            return log.decision()
        src_n = src_n.with_(scale=Scale.H)
    rule = _RULES.get((src_n.scale, dst_n.scale))
    if rule is None:
        log = ConditionLog()
        log.check("rule available for the scale pair", "embed.dispatch", False,
                  f"no rule for {src_n.scale} -> {dst_n.scale}")
        return log.decision()

    direct = rule(src_n, dst_n, env)
    if direct.ok:
        return direct.decision()

    mid = _detour_intermediate(src_n, dst_n, env)
    if mid is not None and mid != src_n and mid != dst_n:
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


def _convex_x(a: SpaceDescr, b: SpaceDescr, theta: Fraction) -> AffineExpr:
    """The interpolated integrability reciprocal.  One that comes out
    symbolic but not x, as from one symbolic and one concrete operand,
    names no space the grammar can write (its only symbolic integrability
    is p), so it is refused; a micro-scale is a constant, x itself or
    refused by its rule."""
    x = _convex(a.x, b.x, theta)
    if not x.is_constant and x != X:
        raise NoInterpolationRule(
            f"interpolated integrability reciprocal {render_affine_p(x)} is "
            f"symbolic but not 1/p")
    return x


def _operands(a: SpaceDescr, b: SpaceDescr, theta: Rational
              ) -> tuple[Fraction, SpaceDescr, SpaceDescr]:
    """θ in (0, 1) and the normalized operands of an interpolation on one
    structure, a Lebesgue operand as H^0_p unless both are Lebesgue."""
    theta = Fraction(theta)
    if not 0 < theta < 1:
        raise ValueError("interpolation parameter must lie in (0, 1)")
    if a.aniso != b.aniso or a.domain_label != b.domain_label or \
            a.target != b.target:
        raise NoInterpolationRule("operands live on different structures")
    ops = normalize(a), normalize(b)
    if ops[0].scale is Scale.L and ops[1].scale is Scale.L:
        return theta, *ops
    for sp in ops:
        if sp.scale is Scale.L and sp.x.is_constant and \
                not 0 < sp.x.constant < 1:
            raise NoInterpolationRule(
                f"{sp} is the zero-order Bessel-potential space only for "
                f"1 < p < oo")
    return theta, *(sp.with_(scale=Scale.H) if sp.scale is Scale.L else sp
                    for sp in ops)


def interpolate_complex(a: SpaceDescr, b: SpaceDescr,
                        theta: Rational) -> SpaceDescr:
    """Complex interpolation of a matching pair of descriptors."""
    theta, a0, b0 = _operands(a, b, theta)
    if a0.scale is Scale.L and b0.scale is Scale.L:
        return a0.with_(x=_convex_x(a0, b0, theta))
    if a0.scale is Scale.B and b0.scale is Scale.B:
        y = _convex(a0.micro(), b0.micro(), theta)
        out = a0.with_(s=_convex(a0.s, b0.s, theta),
                       x=_convex_x(a0, b0, theta),
                       y=y.constant_value() if y.is_constant else None)
        if not y.is_constant and y != out.x:
            raise NoInterpolationRule("symbolic micro-scale cannot be carried")
        return normalize(out)
    if a0.scale is Scale.H and b0.scale is Scale.H:
        if a0.x == b0.x:
            return a0.with_(s=_convex(a0.s, b0.s, theta))
        if a0.s == b0.s:
            return a0.with_(x=_convex_x(a0, b0, theta))
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
    theta, a0, b0 = _operands(a, b, theta)
    if a0.scale is Scale.L and b0.scale is Scale.L:
        if q is not COUPLED:
            raise NoInterpolationRule(
                "Lebesgue pairs interpolate with coupled functor parameter")
        return a0.with_(x=_convex_x(a0, b0, theta))
    if a0.scale is b0.scale and a0.scale in (Scale.H, Scale.B) and \
            a0.x == b0.x and a0.s != b0.s:
        # fixed p, distinct s: B^{(1-θ)s0+θs1}_{p,q} on either scale
        if q is COUPLED:
            y = a0.x.constant_value() if a0.x.is_constant else None
        else:
            y = Fraction(0) if q == 0 else 1 / Fraction(q)  # 0 stands for oo
        return normalize(a0.with_(scale=Scale.B, y=y,
                                  s=_convex(a0.s, b0.s, theta)))
    if a0.scale is Scale.H and b0.scale is Scale.H:
        if a0.s == b0.s and q is COUPLED:
            return a0.with_(x=_convex_x(a0, b0, theta))
        raise NoInterpolationRule(
            "Bessel-potential pairs interpolate at fixed integrability with "
            "distinct smoothness, or fixed smoothness with coupled parameter")
    if a0.scale is Scale.B and b0.scale is Scale.B:
        if q is COUPLED:
            x = _convex_x(a0, b0, theta)
            if _convex(a0.micro(), b0.micro(), theta) != x:
                raise NoInterpolationRule(
                    "coupled functor parameter requires the micro-scales to "
                    "satisfy the same convex relation as the integrability")
            return normalize(a0.with_(s=_convex(a0.s, b0.s, theta), x=x,
                                      y=None))
        raise NoInterpolationRule(
            "Besov pairs interpolate at fixed integrability with distinct "
            "smoothness, or with coupled functor parameter")
    raise NoInterpolationRule(
        f"no real interpolation identity for {a0.scale}/{b0.scale}")
