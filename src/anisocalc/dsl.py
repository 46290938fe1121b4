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
from .ratcore import (X, AffineExpr, ParamEnv, from_lowered, render_affine_p,
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


# Whitespace is free between tokens.  The cursor always stands at a token
# or at the end of the text.  Each pattern below reads one unit of the
# grammar: a run of tokens, each followed by the whitespace after it.  A
# token is tried only once the one before it has matched, so a unit that
# stops short ends where its first missing token was expected, and the
# error names that token at that position: a table maps the last group
# read to the token expected after it.
_SPACE = re.compile(r"\s*")
_KEYWORD = re.compile(r"\s*(?:(solve)\s*(?:(p)\s*(?:(:)\s*)?)?"
                      r"|(multiplier|nemytskij)\s*(?:(:)\s*)?"
                      r"|(index|algebra|\[|\()\s*)?")
_KEYWORD_NEXT = {1: "'p'", 2: "':'", 4: "':'"}
# SCALE and '^{'
_HEAD = re.compile(r"\s*(?:(C0|[BHWL])\s*(?:(\^\{)\s*)?)?")
_HEAD_NEXT = {None: "a scale letter (B, H, W, L, C0)"}
# one term of SEXPR (a sign only before the first), then '-' or '+' before
# the next term, or the ',' or '}' after the expression
_TERM = re.compile(r"([-+])?\s*(\d*)\s*(?:(/)\s*(\d*)\s*)?(p)?\s*([-+,}])?\s*")
# the weights tuple and the '}' closing the smoothness block; a ',' after
# the integers is one that no integer follows
_WEIGHTS = re.compile(r"(?:(\()\s*(?:(\d+(?:\s*,\s*\d+)*)\s*"
                      r"(?:(,)\s*|(\))\s*(?:(\})\s*)?)?)?)?")
_WEIGHTS_NEXT = {None: "'('", 1: "an integer", 2: "')'", 3: "an integer",
                 4: "'}'"}
# QEXPR in '_{PEXPR, QEXPR}': 'oo', 'p', an integer, or '{' rational and
# the ',' or '}' after it; PEXPR and QEXPR after their '_'
_EXPONENT = re.compile(r"(?:(oo|p|\d+)|(\{)\s*(?:(\d+)(?:\s*/\s*(\d+))?"
                       r"\s*([,}])?)?)?\s*")
_SUBSCRIPT = re.compile(r"_\s*" + _EXPONENT.pattern)
# DOMAIN: '(' then 'R^' with '{' dims '}' or one integer, or a prelude
# label; then ')', or ';' and the name of the value space.  The last part
# is tried wherever the dims stop, so it starts where they fall short.
_DOMAIN = re.compile(r"(?:(\()\s*(?:(R\^)\s*(?:(\{)\s*(?:(\d+(?:\s*x\s*\d+)*)"
                     r"\s*(?:(x)\s*|(\})\s*)?)?|(\d+)\s*)?|(\w+)\s*)?)?"
                     r"(\)|;\s*(\w+)?)?\s*")
_RATIONAL = re.compile(r"(?:(\d+)(?:\s*/\s*(\d+))?)?\s*")
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
        # the descriptors read so far, by their parsed fields: a space the
        # text names again is the object already built
        self.spaces: dict[tuple, SpaceDescr] = {}

    def error(self, message: str, at: int | None = None) -> ParseError:
        """A parse error at ``at``, by default at the cursor."""
        at = self.pos if at is None else at
        return ParseError(message, self.typed, at - self.offset)

    def read(self, unit: re.Pattern, expects: dict | None = None) -> re.Match:
        """Match a unit at the cursor (every unit matches) and move past it;
        ``expects`` names the token missing after the last group read."""
        match = unit.match(self.text, self.pos)
        self.pos = match.end()
        if expects and match.lastindex in expects:
            raise self.error(f"expected {expects[match.lastindex]}")
        return match

    def take(self, token: str) -> bool:
        if not self.text.startswith(token, self.pos):
            return False
        self.pos = _SPACE.match(self.text, self.pos + len(token)).end()
        return True

    def expect(self, token: str) -> int:
        """Read ``token``; the position just after it."""
        end = self.pos + len(token)
        if not self.take(token):
            raise self.error(f"expected {token!r}")
        return end

    def rational(self, match: re.Match, group: int) -> tuple[int, int, int]:
        """The rational in ``group`` (numerator) and ``group + 1``
        (denominator) of a unit: numerator, denominator and its end."""
        num, den = match[group], match[group + 1]
        if num is None:
            raise self.error("expected an integer")
        if den is None:
            return int(num), 1, match.end(group)
        if int(den) == 0:
            raise self.error("zero denominator", match.end(group + 1))
        return int(num), int(den), match.end(group + 1)

    def reciprocal(self, num: int, den: int, end: int) -> tuple[int, int]:
        """(den, num): the reciprocal of the exponent num/den ending at end."""
        if num == 0:
            raise self.error("exponents must be positive", end)
        return den, num


def _parse_sexpr(cur: _Cursor) -> tuple[tuple[int, int, int], str | None]:
    """Affine expression in 1/p: terms a, a/b, a/p, a/bp joined by +/-.
    Its lowered triple (A, B, D), the form (A + B/p) / D, and the token
    read after it: ',' or '}', or None for any other."""
    a, b, d, sign = 0, 0, 1, None  # sign: the operator before the term
    while True:
        term = cur.read(_TERM)
        if sign and term[1]:
            raise cur.error("expected an integer", term.start(1))
        if term[1] == "+":
            raise cur.error("expression cannot start with '+'", term.end(1))
        if not term[2] or term[3] and not (term[4] or term[5]):
            raise cur.error("expected an integer",
                            term.start(4 if term[2] else 2))
        if term[5] and not term[3]:
            raise cur.error("p may only appear in reciprocals like 1/p or 1/2p",
                            term.start(5))
        num, den = int(term[2]), int(term[4] or 1)
        if den == 0:
            raise cur.error("zero denominator", term.end(4))
        if (sign or term[1]) == "-":
            num = -num
        if term[5]:
            a, b, d = a * den, b * den + num * d, d * den
        else:
            a, b, d = a * den + num * d, b * den, d * den
        sign = term[6]
        if sign != "-" and sign != "+":
            return (a, b, d), sign


def _parse_exponent(cur: _Cursor, unit: re.Match) -> tuple[int, int] | None:
    """PEXPR / QEXPR, read as ``unit``: 'p', 'oo', an integer, or
    '{rational}'; the reciprocal as a pair (numerator, denominator), None
    for the literal p."""
    word = unit[1]
    if word == "oo":
        return 0, 1
    if word == "p":
        return None
    if word:
        return cur.reciprocal(int(word), 1, unit.end(1))
    if not unit[2]:
        raise cur.error("expected an integer")
    num, den, _ = cur.rational(unit, 3)
    if unit[5] != "}":
        raise cur.error("expected '}'", unit.start(5) if unit[5] else None)
    return cur.reciprocal(num, den, unit.end(5))


def _parse_domain(cur: _Cursor
                  ) -> tuple[tuple[int, ...], str, TargetSpace, int]:
    """The dims, label and value space of DOMAIN, and the end of its ')'."""
    unit = cur.read(_DOMAIN)
    if unit[6] or unit[7]:  # R^{dims} or R^n
        dims = tuple(map(int, (unit[4] or unit[7]).split("x")))
        label = "R^{" + "x".join(map(str, dims)) + "}" \
            if len(dims) > 1 else f"R^{dims[0]}"
    elif unit[8]:
        label, dims = unit[8], ()
        for part in [label] if label in cur.prelude else label.split("x"):
            if part not in cur.prelude:
                raise cur.error(f"unknown domain alias {label!r}", unit.end(8))
            dims += cur.prelude[part]
    else:
        expected = ("'}'" if unit[4] and not unit[5] else "an integer") \
            if unit[2] else "an identifier" if unit[1] else "'('"
        raise cur.error(f"expected {expected}",
                        unit.start(9) if unit[9] else None)
    if unit[9] is None:
        raise cur.error("expected ')'")
    if unit[9] == ")":
        return dims, label, SCALARS, unit.end(9)
    return dims, label, _parse_target(cur, unit), cur.expect(")")


def _parse_target(cur: _Cursor, domain: re.Match) -> TargetSpace:
    """The value space named after the ';' of a DOMAIN unit."""
    name = domain[10]
    if name is None:
        raise cur.error("expected an identifier")
    if name == "Lp":
        start = cur.expect("(")
        depth = 1
        while cur.pos < len(cur.text) and depth:
            ch = cur.text[cur.pos]
            depth += (ch == "(") - (ch == ")")
            cur.pos += 1
        if depth:
            raise cur.error("unbalanced parentheses in value-space tag")
        label = cur.text[start:cur.pos - 1].strip()
        cur.pos = _SPACE.match(cur.text, cur.pos).end()
        return lp_valued(label)
    if name in _NAMED_TARGETS:
        return _NAMED_TARGETS[name]
    raise cur.error(f"unknown value space {name!r}", domain.end(10))


def parse_space(text: str,
                prelude: dict[str, tuple[int, ...]] | None = None) -> SpaceDescr:
    cur = _Cursor(text, prelude or DEFAULT_PRELUDE)
    space = _parse_space(cur)
    if cur.pos != len(cur.text):
        raise cur.error("trailing input after the space")
    return space


def _parse_space(cur: _Cursor) -> SpaceDescr:
    head = cur.read(_HEAD, _HEAD_NEXT)
    scale = Scale(head[1])
    no_smoothness = scale is Scale.L or scale is Scale.C0
    s = (0, 0, 1)  # lowered, as _parse_sexpr returns it
    weights: tuple[int, ...] | None = None
    if head[2]:
        after = ","
        if not no_smoothness:
            s, after = _parse_sexpr(cur)
        if after == ",":
            unit = cur.read(_WEIGHTS, _WEIGHTS_NEXT)
            weights = tuple(map(int, unit[2].split(",")))
        elif after != "}":
            raise cur.error("expected '}'")
    elif not no_smoothness:
        raise cur.error(f"scale {scale} needs a smoothness block '^{{...}}'")

    xr, y = (), None  # reciprocal pairs, () for C0 and None for the literal p
    if scale is not Scale.C0:
        if not cur.text.startswith("_", cur.pos):
            raise cur.error("expected '_'")
        unit = cur.read(_SUBSCRIPT)
        if unit[2]:  # '_{' rational, then '}' or ', QEXPR }'
            num, den, end = cur.rational(unit, 3)
            xr = cur.reciprocal(num, den, end)
            if unit[5] == ",":
                if scale is not Scale.B:
                    raise cur.error("only the Besov scale takes a micro-scale",
                                    unit.end(5))
                y = _parse_exponent(cur, cur.read(_EXPONENT))
                cur.expect("}")
            elif unit[5] is None:
                raise cur.error("expected '}'")
        else:
            xr = _parse_exponent(cur, unit)
        if scale is Scale.B and cur.text.startswith("_", cur.pos):
            y = _parse_exponent(cur, cur.read(_SUBSCRIPT))

    dims, label, target, end = _parse_domain(cur)
    if weights is None:
        weights = (1,) * len(dims)
    if len(weights) != len(dims):
        raise cur.error(
            f"{len(weights)} weights for {len(dims)} slices; use a domain "
            f"like R^{{{'x'.join('1' for _ in weights)}}}", end)
    key = (scale, s, xr, y, dims, weights, label, target)
    space = cur.spaces.get(key)
    if space is not None:
        return space
    if xr is None:
        x = X
    elif xr:  # 1/p in the exponent, p concrete: s at x = xa/xd
        (xa, xd), x = xr, from_lowered(xr[0], 0, xr[1])
        s = (s[0] * xd + s[1] * xa, 0, s[2] * xd)
    else:
        x = AffineExpr()
    if y is not None:
        y = Fraction(*y)
        if x.is_constant and y == x.constant:
            y = None
    try:
        space = SpaceDescr(scale, from_lowered(*s), x, y,
                           Anisotropy(dims, weights), target, label)
    except ValueError as exc:
        raise cur.error(str(exc), end) from None
    cur.spaces[key] = space
    return space


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
    typed = not prefix or re.match(
        r"\s*" + r"\s*".join(map(re.escape, _WORD.findall(prefix))), text)
    cur = _Cursor(text, prelude or DEFAULT_PRELUDE, "" if typed else prefix)
    query = _parse_query(cur)
    end = _SPACE.match(cur.text, cur.pos).end()
    if end != len(cur.text):
        raise cur.error("trailing input after the query", end)
    return query


def _parse_query(cur: _Cursor) -> Query:
    """A query up to its last token, without the whitespace after it."""
    unit = cur.read(_KEYWORD, _KEYWORD_NEXT)
    if unit[1]:  # solve
        inner = _parse_query(cur)
        if inner.kind == "solve-p":
            raise cur.error("nested solve prefixes")
        return Query("solve-p", {"inner": inner})
    if unit[4]:  # multiplier or nemytskij
        return _parse_product(cur, unit[4])
    word = unit[6]
    if word == "index" or word == "algebra":
        space = _parse_space(cur)
        cur.pos += cur.text.startswith("?", cur.pos)  # an optional '?' ends it
        if word == "index":
            return Query("index", {"space": space})
        return Query("algebra", {"factors": (space,), "target": space})
    if word:
        method, closer = ("complex", "]") if word == "[" else ("real", ")")
        a = _parse_space(cur)
        cur.expect(",")
        b = _parse_space(cur)
        for token in (closer, "_", "{"):
            cur.expect(token)
        num, den, end = cur.rational(cur.read(_RATIONAL), 1)
        if not 0 < num < den:
            raise cur.error("interpolation parameter must lie in (0, 1)", end)
        p = {"method": method, "a": a, "b": b, "theta": Fraction(num, den)}
        if method == "real":
            p["q"] = _parse_functor_q(cur)
        if not cur.text.startswith("}", cur.pos):
            raise cur.error("expected '}'")
        cur.pos += 1
        return Query("interp", p)
    return _parse_product(cur, None)


def _parse_functor_q(cur: _Cursor) -> object:
    """The q of ``(A, B)_{θ, q}``: 'p' (the default), 'oo' or a rational
    of at least 1."""
    if not cur.take(",") or cur.take("p"):
        return COUPLED
    if cur.take("oo"):
        return Fraction(0)  # 0 stands for oo internally
    num, den, end = cur.rational(cur.read(_RATIONAL), 1)
    if num == 0:
        raise cur.error("the functor parameter q must be positive", end)
    if num < den:
        raise cur.error("the functor parameter q must be at least 1", end)
    return Fraction(num, den)


def _parse_product(cur: _Cursor, kind: str | None) -> Query:
    """``A * ... -> T ?``; without a prefix one factor is an embedding and
    more are a multiplication."""
    factors = [_parse_space(cur)]
    while cur.take("*"):
        factors.append(_parse_space(cur))
    cur.expect("->")
    target = _parse_space(cur)
    cur.pos += cur.text.startswith("?", cur.pos)
    if kind == "multiplier" and target not in factors:
        raise cur.error("multiplier queries need one factor equal to the target")
    if kind is None:
        kind = "embed" if len(factors) == 1 else "mult"
    return Query(kind, {"factors": tuple(factors), "target": target})


# Query kind -> the keywords its canonical text starts with; a query
# command of the command line implies them.
KEYWORDS = {"index": "index ", "embed": "", "mult": "",
            "multiplier": "multiplier: ", "algebra": "algebra ",
            "nemytskij": "nemytskij: ", "solve-p": "solve p: ", "interp": ""}


def format_query(q: Query) -> str:
    p = q.payload
    head = KEYWORDS.get(q.kind)
    if q.kind == "solve-p":
        return head + format_query(p["inner"])
    if q.kind == "index":
        return f"{head}{p['space']}"
    if q.kind == "algebra":
        return f"{head}{p['target']} ?"
    if q.kind in _RULES:
        core = " * ".join(str(f) for f in p["factors"])
        return f"{head}{core} -> {p['target']} ?"
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
    return lambda env: decide_nemytskij_in(factors, target, phi, env)


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


def machine_json(doc: dict) -> str:
    """The one machine writer: ``doc`` under the output schema, as JSON
    with sorted keys."""
    return json.dumps({"schema": SCHEMA, **doc}, sort_keys=True)


def exit_code(exc: Exception) -> int:
    """Exit code of a refused query or command: 2 for malformed text or
    option values or a file that cannot be read, 3 for every other engine
    error.  Any other exception is a bug and propagates."""
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

    @property
    def verdict(self) -> str | None:
        return None if self.decision is None else self.decision.verdict.value

    @property
    def exit_code(self) -> int:
        """1 for a decision not covered or an empty solved range, else 0."""
        fails = (self.decision is not None and not self.decision.covered) or \
            (self.param_set is not None and self.param_set.is_empty)
        return EXIT_NOT_COVERED if fails else EXIT_COVERED

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
        return "\n".join(lines)

    def to_machine(self) -> dict:
        trace = () if self.decision is None else self.decision.trace
        fail = None if self.decision is None else self.decision.first_failure()
        return {
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
        return machine_json(self.to_machine())


def run(query: Query) -> Report:
    """Evaluate a parsed query and build its report."""
    p = query.payload
    text = format_query(query)
    if query.kind == "solve-p":
        inner: Query = p["inner"]
        return Report(text, "solve-p", param_set=solve_param(
            decision_thunk(inner)), params={"inner_kind": inner.kind})
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
    return Report(text, query.kind, decision=decision, params=params)
