"""Text grammar for spaces and queries, plus the derivation-report emitter.

The space grammar mirrors the usual notation, with integrability written
as a literal p that may only occur in reciprocals::

    SPACE  := SCALE '^{' SEXPR (',' WEIGHTS)? '}' '_' PEXPR ('_' QEXPR)? DOMAIN
    SCALE  := B | H | W | L | C0      (L and C0 carry no smoothness block)
    SEXPR  := rational affine expression in 1/p, e.g. 2-1/p, 1/2-1/2p
    DOMAIN := '(' dims (';' TARGET)? ')' with dims 'R^{1x3}' or prelude
              aliases joined by 'x', e.g. JxSigma

Queries: ``A -> B ?`` (embedding), ``A * B -> C ?`` (multiplication),
``multiplier: ...``, ``nemytskij: ...``, ``algebra A ?``, ``index A``,
``solve p: <query>``, ``[A, B]_{1/2}`` and ``(A, B)_{1/2, q}``
(interpolation).  Whitespace between tokens is free, and keywords and scale
letters need no separator: ``indexH^{2,(1)}_p(R^2)`` is an index query.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

from .anchors import anchor_text
from .embed import (COUPLED, Decision, embeds_in, interpolate_complex,
                    interpolate_real)
from .errors import EngineError, Unsupported
from .multiply import (MultInstance, decide_algebra_in,
                       decide_multiplication_in, decide_multiplier_in)
from .nemytskij import AnalyticSpec, ConstantsLedger, decide_nemytskij_in
from .psolver import ParamSet, solve_param
from .ratcore import (X, AffineExpr, ParamEnv, render_affine_p,
                      render_fraction)
from .spaces import (SCALARS, Anisotropy, Scale, SpaceDescr, TargetSpace,
                     lp_valued, require_concrete, sobolev_index)

# Unused here: the benchmark's traced run wraps these names in this module.
from .embed import embeds  # noqa: F401
from .multiply import (decide_algebra, decide_multiplication,  # noqa: F401
                       decide_multiplier)
from .nemytskij import decide_nemytskij  # noqa: F401

SCHEMA = "anisocalc.report/1"

DEFAULT_PRELUDE: dict[str, tuple[int, ...]] = {
    "J": (1,),
    "Rdot": (1,),
    "Sigma": (2,),
    "Rdotn": (3,),
}

_NAMED_TARGETS: dict[str, TargetSpace] = {
    "R": SCALARS,
    "E": TargetSpace("E", umd=True, prop_alpha=True,
                     banach_algebra=False, unital=False),
    "A": TargetSpace("A", umd=True, prop_alpha=True,
                     banach_algebra=True, unital=True),
}


class ParseError(EngineError):
    """Syntax error with position information."""

    def __init__(self, message: str, text: str, pos: int):
        line = text.count("\n", 0, pos) + 1
        col = pos - (text.rfind("\n", 0, pos) + 1) + 1
        super().__init__(f"{message} (line {line}, column {col})")
        self.pos = pos


def parse_prelude(text: str) -> dict[str, tuple[int, ...]]:
    """Alias bindings, one per line: ``Sigma = 2`` or ``Omega = 1x3``."""
    out = dict(DEFAULT_PRELUDE)
    end = 0
    for raw in text.splitlines(keepends=True):
        at, end = end, end + len(raw)  # errors name the line's first column
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError("prelude lines read ALIAS = dims", text, at)
        name, dims = (part.strip() for part in line.split("=", 1))
        if not name.isidentifier():
            raise ParseError(f"bad alias name {name!r}", text, at)
        try:
            values = tuple(int(v) for v in dims.split("x"))
        except ValueError:
            values = (0,)
        if min(values) <= 0:
            raise ParseError(f"bad dimension tuple {dims!r}", text, at)
        out[name] = values
    return out


# Whitespace is free between tokens; every read skips it first.
_SPACE = re.compile(r"\s*")
_INT = re.compile(r"\d+")
_RATIONAL = re.compile(r"(\d+)(?:\s*/\s*(\d+))?")
_IDENT = re.compile(r"\w+")
_SCALE = re.compile(r"C0|[BHWL]")
_WORD = re.compile(r"\w+|\S")


class _Cursor:
    """A position in the text.  With a command ``prefix`` (``"index "``)
    the prefix is read first and errors count positions in ``text``."""

    def __init__(self, text: str, prelude: dict[str, tuple[int, ...]],
                 prefix: str = ""):
        self.typed = text
        self.text = prefix + text
        self.pos = 0
        self.offset = len(prefix)
        self.prelude = prelude

    def error(self, message: str) -> ParseError:
        return ParseError(message, self.typed, self.pos - self.offset)

    def token_start(self) -> int:
        """Skip whitespace; the position of the next token."""
        self.pos = _SPACE.match(self.text, self.pos).end()
        return self.pos

    def peek(self, token: str) -> bool:
        return self.text.startswith(token, self.token_start())

    def take(self, token: str) -> bool:
        if self.peek(token):
            self.pos += len(token)
            return True
        return False

    def expect(self, token: str) -> None:
        if not self.take(token):
            raise self.error(f"expected {token!r}")

    def at_end(self) -> bool:
        return self.token_start() == len(self.text)

    def read(self, pattern: re.Pattern, what: str) -> re.Match:
        match = pattern.match(self.text, self.token_start())
        if match is None:
            raise self.error(f"expected {what}")
        self.pos = match.end()
        return match

    def take_int(self) -> int:
        return int(self.read(_INT, "an integer")[0])

    def take_denominator(self) -> int:
        den = self.take_int()
        if den == 0:
            raise self.error("zero denominator")
        return den

    def take_rational(self) -> Fraction:
        num, den = self.read(_RATIONAL, "an integer").groups()
        if den is not None and int(den) == 0:
            raise self.error("zero denominator")
        return Fraction(int(num), int(den or 1))

    def take_theta(self) -> Fraction:
        theta = self.take_rational()
        if not 0 < theta < 1:
            raise self.error("interpolation parameter must lie in (0, 1)")
        return theta

    def take_ident(self) -> str:
        return self.read(_IDENT, "an identifier")[0]


def _parse_sexpr(cur: _Cursor) -> AffineExpr:
    """Affine expression in 1/p: terms a, a/b, a/p, a/bp joined by +/-."""
    sums = [Fraction(0), Fraction(0)]  # the constant and the slope
    if cur.take("+"):
        raise cur.error("expression cannot start with '+'")
    sign = -1 if cur.take("-") else 1
    while True:
        num, den, slope = cur.take_int(), 1, False
        if cur.take("/"):
            den = 1 if cur.peek("p") else cur.take_denominator()
            slope = cur.take("p")
        elif cur.peek("p"):
            raise cur.error("p may only appear in reciprocals like 1/p or 1/2p")
        sums[slope] += Fraction(sign * num, den)
        if cur.take("-"):
            sign = -1
        elif cur.take("+"):
            sign = 1
        else:
            return AffineExpr(*sums)


def _parse_ints(cur: _Cursor, sep: str, close: str) -> tuple[int, ...]:
    """Integers joined by ``sep`` up to ``close``: weights and R^{...} dims."""
    out = [cur.take_int()]
    while cur.take(sep):
        out.append(cur.take_int())
    cur.expect(close)
    return tuple(out)


def _reciprocal(cur: _Cursor, value: Fraction) -> Fraction:
    """The reciprocal of a literal exponent, which must be positive."""
    if value <= 0:
        raise cur.error("exponents must be positive")
    return 1 / value


def _parse_exponent(cur: _Cursor) -> Fraction | None:
    """PEXPR / QEXPR: 'p', 'oo', an integer, or '{rational}'; the
    reciprocal, None for the literal p."""
    if cur.take("oo"):
        return Fraction(0)
    if cur.take("p"):
        return None
    if not cur.take("{"):
        return _reciprocal(cur, Fraction(cur.take_int()))
    value = cur.take_rational()
    cur.expect("}")
    return _reciprocal(cur, value)


def _parse_domain(cur: _Cursor) -> tuple[tuple[int, ...], str, TargetSpace]:
    cur.expect("(")
    if cur.take("R^"):
        dims = _parse_ints(cur, "x", "}") if cur.take("{") \
            else (cur.take_int(),)
        label = "R^{" + "x".join(str(d) for d in dims) + "}" \
            if len(dims) > 1 else f"R^{dims[0]}"
    else:
        label = cur.take_ident()
        parts = [label] if label in cur.prelude else label.split("x")
        if not all(part in cur.prelude for part in parts):
            raise cur.error(f"unknown domain alias {label!r}")
        dims = tuple(d for part in parts for d in cur.prelude[part])
    target = _parse_target(cur) if cur.take(";") else SCALARS
    cur.expect(")")
    return dims, label, target


def _parse_target(cur: _Cursor) -> TargetSpace:
    name = cur.take_ident()
    if name == "Lp":
        cur.expect("(")
        depth = 1
        start = cur.pos
        while cur.pos < len(cur.text) and depth:
            ch = cur.text[cur.pos]
            depth += (ch == "(") - (ch == ")")
            cur.pos += 1
        if depth:
            raise cur.error("unbalanced parentheses in value-space tag")
        return lp_valued(cur.text[start:cur.pos - 1].strip())
    if name in _NAMED_TARGETS:
        return _NAMED_TARGETS[name]
    raise cur.error(f"unknown value space {name!r}")


def parse_space(text: str,
                prelude: dict[str, tuple[int, ...]] | None = None) -> SpaceDescr:
    cur = _Cursor(text, prelude or DEFAULT_PRELUDE)
    space = _parse_space(cur)
    if not cur.at_end():
        raise cur.error("trailing input after the space")
    return space


def _parse_space(cur: _Cursor) -> SpaceDescr:
    scale = Scale(cur.read(_SCALE, "a scale letter (B, H, W, L, C0)")[0])
    no_smoothness = scale in (Scale.L, Scale.C0)
    s = AffineExpr()
    weights: tuple[int, ...] | None = None
    if cur.take("^{"):
        if not no_smoothness:
            s = _parse_sexpr(cur)
        if no_smoothness or cur.take(","):
            cur.expect("(")
            weights = _parse_ints(cur, ",", ")")
        cur.expect("}")
    elif not no_smoothness:
        raise cur.error(f"scale {scale} needs a smoothness block '^{{...}}'")

    x = AffineExpr()
    y: Fraction | None = None  # a symbolic micro-scale means q = p
    if scale is not Scale.C0:
        cur.expect("_")
        if cur.take("{"):
            x = AffineExpr(_reciprocal(cur, cur.take_rational()))
            if cur.take(","):
                if scale is not Scale.B:
                    raise cur.error("only the Besov scale takes a micro-scale")
                y = _parse_exponent(cur)
            cur.expect("}")
        else:
            xv = _parse_exponent(cur)
            x = X if xv is None else AffineExpr(xv)
        if scale is Scale.B and cur.take("_"):
            y = _parse_exponent(cur)
    if scale is Scale.B and y is not None and x.is_constant and y == x.constant:
        y = None
    if x.is_constant and not s.is_constant:
        s = AffineExpr(s(x.constant))  # 1/p in the exponent, p concrete

    dims, label, target = _parse_domain(cur)
    if weights is None:
        weights = (1,) * len(dims)
    if len(weights) != len(dims):
        raise cur.error(
            f"{len(weights)} weights for {len(dims)} slices; use a domain "
            f"like R^{{{'x'.join('1' for _ in weights)}}}")
    try:
        return SpaceDescr(scale, s, x, y, Anisotropy(dims, weights), target,
                          label)
    except ValueError as exc:
        raise cur.error(str(exc)) from None


# --------------------------------------------------------------------------
# queries


@dataclass(frozen=True)
class Query:
    kind: str
    payload: dict

    def __str__(self) -> str:
        return format_query(self)


def parse_query(text: str, prelude: dict[str, tuple[int, ...]] | None = None,
                prefix: str = "") -> Query:
    """A query; a command's keyword ``prefix`` (``"solve p: "``) is implied
    unless the text starts with its words."""
    prelude = prelude or DEFAULT_PRELUDE
    cur = _Cursor(text, prelude)
    typed = all(cur.take(word) for word in _WORD.findall(prefix))
    cur = _Cursor(text, prelude, "" if typed else prefix)
    query = _parse_query(cur)
    if not cur.at_end():
        raise cur.error("trailing input after the query")
    return query


def _parse_query(cur: _Cursor) -> Query:
    if cur.take("solve"):
        cur.expect("p")
        cur.expect(":")
        inner = _parse_query(cur)
        if inner.kind == "solve-p":
            raise cur.error("nested solve prefixes")
        return Query("solve-p", {"inner": inner})
    if cur.take("index"):
        space = _parse_space(cur)
        cur.take("?")
        return Query("index", {"space": space})
    if cur.take("algebra"):
        space = _parse_space(cur)
        cur.take("?")
        return Query("algebra", {"factors": (space,), "target": space})
    for kind in _PREFIXED:
        if cur.take(kind):
            cur.expect(":")
            return _parse_product(cur, kind)
    for method, opener, closer in (("complex", "[", "]"), ("real", "(", ")")):
        if cur.take(opener):
            a = _parse_space(cur)
            cur.expect(",")
            b = _parse_space(cur)
            cur.expect(closer)
            cur.expect("_")
            cur.expect("{")
            p = {"method": method, "a": a, "b": b, "theta": cur.take_theta()}
            if method == "real":
                p["q"] = _parse_functor_q(cur)
            cur.expect("}")
            return Query("interp", p)
    return _parse_product(cur, None)


def _parse_functor_q(cur: _Cursor) -> object:
    """The q of ``(A, B)_{θ, q}``: 'p' (the default), 'oo' or a rational."""
    if not cur.take(",") or cur.take("p"):
        return COUPLED
    if cur.take("oo"):
        return Fraction(0)  # 0 stands for oo internally
    q = cur.take_rational()
    if q <= 0:
        raise cur.error("the functor parameter q must be positive")
    return q


_PREFIXED = ("multiplier", "nemytskij")


def _parse_product(cur: _Cursor, kind: str | None) -> Query:
    """``A * ... -> T ?``; without a prefix one factor is an embedding and
    more are a multiplication."""
    factors = [_parse_space(cur)]
    while cur.take("*"):
        factors.append(_parse_space(cur))
    cur.expect("->")
    target = _parse_space(cur)
    cur.take("?")
    if kind == "multiplier" and target not in factors:
        raise cur.error("multiplier queries need one factor equal to the target")
    if kind is None:
        kind = "embed" if len(factors) == 1 else "mult"
    return Query(kind, {"factors": tuple(factors), "target": target})


def format_query(q: Query) -> str:
    p = q.payload
    if q.kind == "solve-p":
        return f"solve p: {format_query(p['inner'])}"
    if q.kind == "index":
        return f"index {p['space']}"
    if q.kind == "algebra":
        return f"algebra {p['target']} ?"
    if q.kind in _RULES:
        prefix = f"{q.kind}: " if q.kind in _PREFIXED else ""
        core = " * ".join(str(f) for f in p["factors"])
        return f"{prefix}{core} -> {p['target']} ?"
    if q.kind == "interp":
        theta = render_fraction(p["theta"])
        if p["method"] == "complex":
            return f"[{p['a']}, {p['b']}]_{{{theta}}}"
        qq = p["q"]
        tail = "p" if qq is COUPLED else (
            "oo" if qq == 0 else render_fraction(qq))
        return f"({p['a']}, {p['b']})_{{{theta}, {tail}}}"
    raise Unsupported(f"unknown query kind {q.kind!r}")


# --------------------------------------------------------------------------
# decisions


def _pivot(factors: tuple[SpaceDescr, ...], target: SpaceDescr) -> int:
    """The factor a multiplier estimate keeps: the first one equal to the
    target (1-based)."""
    return factors.index(target) + 1


def _mult_rule(factors, target):
    inst = MultInstance.of(factors, target)
    return lambda env: decide_multiplication_in(inst, env)


def _multiplier_rule(factors, target):
    inst = MultInstance.of(factors, target)
    ell = _pivot(factors, target)
    return lambda env: decide_multiplier_in(inst, ell, env)


def _nemytskij_rule(factors, target):
    phi = AnalyticSpec(arity=len(factors))
    return lambda env: decide_nemytskij_in(factors, target, phi, env)[0]


# Decision query kind -> rule, from the query's factors and target to its
# decision at a ParamEnv.  A rule fixes what the query determines once; it
# looks the decision function up as a dsl global at each evaluation.
_RULES = {
    "embed": lambda factors, target:
        lambda env: embeds_in(factors[0], target, env),
    "mult": _mult_rule,
    "multiplier": _multiplier_rule,
    "algebra": lambda factors, target:
        lambda env: decide_algebra_in(target, env),
    "nemytskij": _nemytskij_rule,
}


def decision_thunk(query: Query) -> Callable[[ParamEnv], Decision]:
    """The decision of an embed, mult, multiplier, algebra or nemytskij
    query at a parameter environment: concrete at ``ParamEnv.concrete()``,
    symbolic through ``solve_param``."""
    rule = _RULES.get(query.kind)
    if rule is None:
        raise Unsupported(f"'solve p:' applies to decision queries, not "
                          f"{query.kind!r}")
    return rule(query.payload["factors"], query.payload["target"])


# --------------------------------------------------------------------------
# reports


EXIT_COVERED = 0
EXIT_NOT_COVERED = 1
EXIT_USAGE = 2
EXIT_HYPOTHESIS = 3


def exit_code(exc: Exception) -> int:
    """Exit code of a refused query or command: 2 for malformed text or
    option values or a file that cannot be read or written, 3 for every
    other engine error.  Any other exception is a bug and propagates."""
    if isinstance(exc, (ParseError, ValueError, OSError)):
        return EXIT_USAGE
    if isinstance(exc, EngineError):
        return EXIT_HYPOTHESIS
    raise exc


@dataclass
class Report:
    query: str
    kind: str
    decision: Decision | None = None
    value: str | None = None
    param_set: ParamSet | None = None
    params: dict = field(default_factory=dict)
    timing_ms: float | None = None
    exit_code: int = EXIT_COVERED

    @property
    def verdict(self) -> str | None:
        return None if self.decision is None else self.decision.verdict.value

    def to_text(self, explain: bool = False) -> str:
        lines = [f"query: {self.query}"]
        if self.value is not None:
            lines.append(f"value: {self.value}")
        if self.param_set is not None:
            lines.append(f"p-range: {self.param_set.describe_p()}")
            lines.append(f"x-range: {self.param_set.describe_x()}")
            for e in self.param_set.excluded:
                lines.append(f"  excluded: x = {render_fraction(e.x)} ({e.reason})")
        if self.decision is not None:
            lines.append(f"verdict: {self.verdict}")
            fail = self.decision.first_failure()
            if fail is not None:
                lines.append(f"first failed condition: {fail.label} [{fail.anchor}]")
            lines.append("trace:")
            for e in self.decision.trace:
                note = f" ({e.note})" if e.note else ""
                lines.append(f"  [{e.status.value:>4}] {e.label} [{e.anchor}]{note}")
                if explain:
                    lines.append(f"         {anchor_text(e.anchor)}")
        for key, val in self.params.items():
            lines.append(f"{key}: {val}")
        if self.timing_ms is not None:
            lines.append(f"time: {self.timing_ms:.1f} ms")
        return "\n".join(lines)

    def to_machine(self) -> dict:
        trace = () if self.decision is None else self.decision.trace
        fail = None if self.decision is None else self.decision.first_failure()
        return {
            "schema": SCHEMA,
            "kind": self.kind,
            "query": self.query,
            "verdict": self.verdict,
            "value": self.value,
            "param_set": None if self.param_set is None else
            self.param_set.to_machine(),
            "first_failure": None if fail is None else
            {"label": fail.label, "anchor": fail.anchor},
            "trace": [
                {"label": e.label, "anchor": e.anchor,
                 "status": e.status.value, "note": e.note}
                for e in trace
            ],
            "params": self.params,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_machine(), sort_keys=True)


def run(query: Query) -> Report:
    """Evaluate a parsed query and build its report."""
    p = query.payload
    text = format_query(query)
    if query.kind == "solve-p":
        inner: Query = p["inner"]
        ps = solve_param(decision_thunk(inner))
        code = EXIT_COVERED if not ps.is_empty else EXIT_NOT_COVERED
        return Report(text, "solve-p", param_set=ps,
                      params={"inner_kind": inner.kind}, exit_code=code)
    if query.kind == "index":
        space: SpaceDescr = p["space"]
        idx = sobolev_index(space)
        name = "w-ind" if space.scale is Scale.L else "ind"
        return Report(text, "index", value=f"{name} = {render_affine_p(idx)}")
    if query.kind == "interp":
        if p["method"] == "complex":
            out = interpolate_complex(p["a"], p["b"], p["theta"])
        else:
            out = interpolate_real(p["a"], p["b"], p["theta"], p["q"])
        return Report(text, "interp", value=str(out))
    # building the thunk checks the instance, so its errors come before the
    # refusal of symbolic integrability
    decide = decision_thunk(query)
    require_concrete(*p["factors"], p["target"])
    decision = decide(ParamEnv.concrete())
    params = {}
    if query.kind == "multiplier":
        params["pivot"] = _pivot(p["factors"], p["target"])
    if query.kind == "nemytskij" and decision.covered:
        ledger = ConstantsLedger.standard(
            AnalyticSpec(arity=len(p["factors"])).radius)
        params["rho_rule"] = ledger.rho_rule
        params["L_dependence"] = ", ".join(ledger.L_dependence)
    code = EXIT_COVERED if decision.covered else EXIT_NOT_COVERED
    return Report(text, query.kind, decision=decision, params=params,
                  exit_code=code)
