"""Seeded inputs of the three workloads.

Every line comes from a family that is valid by construction: the
generator knows the grammar and the hypotheses of each rule (shared
anisotropy, domain and value space; registered multiplication signatures;
identifiable Sobolev-Slobodeckij smoothness; matching interpolation
pairs), so no line is chosen by running the engine.  The same seed gives
a byte-identical corpus.

Malformed lines are never generated: at the benchmarked commit one
malformed line aborts a whole ``anisocalc batch`` run, which would blank
every other number of the run.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction as F
from pathlib import Path

# (slice dims, weights, domain label); the labels use both the R^{..}
# form and the prelude aliases (J = 1, Rdot = 1, Sigma = 2, Rdotn = 3)
DOMAINS = (
    ((1,), (1,), "R^1"),
    ((2,), (1,), "R^2"),
    ((3,), (1,), "R^3"),
    ((1, 1), (2, 1), "JxRdot"),
    ((1, 2), (2, 1), "JxSigma"),
    ((1, 3), (2, 1), "R^{1x3}"),
    ((2, 1), (2, 1), "R^{2x1}"),
    ((1, 2), (3, 1), "R^{1x2}"),
    ((1, 3), (3, 1), "JxRdotn"),
)
TARGETS = ("R", "E", "A", "Lp(Rdot)")
# value spaces that are Banach algebras (algebra queries) and unital
# algebras (superposition gates)
ALGEBRA_TARGETS = ("R", "A")

# integrability reciprocals x = 1/p inside (0, 1); the Besov scale also
# takes x = 0 (p = oo)
X_OPEN = (F(1, 2), F(1, 3), F(1, 4), F(1, 6), F(2, 3), F(2, 5), F(3, 4))
SMOOTH = (F(1, 4), F(1, 2), F(3, 4), F(1), F(3, 2), F(2), F(5, 2), F(3))
SLOPES = (F(1), F(1, 2), F(3, 2))


def render_fraction(v: F) -> str:
    return str(v.numerator) if v.denominator == 1 else \
        f"{v.numerator}/{v.denominator}"


def exponent_text(x: F | None) -> str:
    """Subscript for integrability reciprocal x; None is the symbol p."""
    if x is None:
        return "p"
    if x == 0:
        return "oo"
    p = 1 / x
    return str(p.numerator) if p.denominator == 1 else f"{{{render_fraction(p)}}}"


def smooth_text(a: F, b: F) -> str:
    """Smoothness a - b/p in the grammar ('1/2p' reads 1/(2p))."""
    if b == 0:
        return render_fraction(a)
    tail = f"{b.numerator}/p" if b.denominator == 1 else \
        f"{b.numerator}/{b.denominator}p"
    return f"{render_fraction(a)}-{tail}"


@dataclass(frozen=True)
class Desc:
    """A generated space: smoothness a - b x at x = 1/p (x None: symbolic)."""

    scale: str
    dims: tuple[int, ...]
    weights: tuple[int, ...]
    label: str
    target: str
    a: F = F(0)
    b: F = F(0)
    x: F | None = None

    def text(self) -> str:
        w = "(" + ",".join(map(str, self.weights)) + ")"
        dom = self.label if self.target == "R" else f"{self.label}; {self.target}"
        if self.scale == "C0":
            return f"C0^{{{w}}}({dom})"
        sub = exponent_text(self.x)
        if self.scale == "L":
            return f"L^{{{w}}}_{sub}({dom})"
        return f"{self.scale}^{{{smooth_text(self.a, self.b)},{w}}}_{sub}({dom})"

    def index(self) -> tuple[F, F]:
        """Closed-form regularity index (s - x * sum w_k n_k) / lcm(w) as
        (constant, slope in x)."""
        wn = sum(w * n for w, n in zip(self.weights, self.dims))
        lcm = math.lcm(*self.weights)
        if self.x is None:
            return self.a / lcm, (-self.b - wn) / lcm
        return (self.a - self.b * self.x - wn * self.x) / lcm, F(0)


def identifiable(a: F, b: F, x: F | None, weights: tuple[int, ...]) -> bool:
    """Sobolev-Slobodeckij smoothness the normalization can place on the
    Bessel-potential or Besov scale at every admissible p."""
    if x is None:
        # a - b x stays positive on (0, 1) and is non-constant, so integer
        # slice ratios occur at isolated p only
        return b > 0 and a >= b
    s = a - b * x
    if s < 0:
        return False
    if s == 0 or (s / math.lcm(*weights)).denominator == 1:
        return True
    return all((s / w).denominator != 1 for w in weights)


POOL_SCALES = ("H", "B", "W", "L")


class SpacePool:
    """A fixed, seeded pool of descriptors per (domain, value space), the
    same number of each scale, so that spaces repeat across lines as they
    do in real checklist files."""

    def __init__(self, rng: random.Random, per_scale: int, symbolic: bool):
        self.rng = rng
        self.groups = {
            (d, t): {sc: self._draws(d, t, sc, per_scale, symbolic)
                     for sc in POOL_SCALES}
            for d in range(len(DOMAINS)) for t in TARGETS}

    def _draws(self, d: int, target: str, scale: str, count: int,
               symbolic: bool) -> list[Desc]:
        """``count`` descriptors of one scale.  The slope b of the
        smoothness a - b/p follows a fixed cycle (a symbolic
        Sobolev-Slobodeckij smoothness needs b > 0) and a runs through
        SMOOTH from a seeded offset, so every group holds a spread of both."""
        dims, weights, label = DOMAINS[d]
        rng = self.rng
        if scale == "L":
            # p = 1 and p = oo stay out: at the benchmarked commit a
            # Lebesgue embedding source at either end raises ValueError
            # (a traceback, exit 1) and aborts the whole batch
            return [Desc("L", dims, weights, label, target,
                         x=None if symbolic else rng.choice(X_OPEN))
                    for _ in range(count)]
        slopes = SLOPES if symbolic and scale == "W" else (F(0),) + SLOPES
        offset = rng.randrange(len(SMOOTH))
        out = []
        for j in range(count):
            b = slopes[j % len(slopes)]
            for k in itertools.count(offset + j):
                a = SMOOTH[k % len(SMOOTH)]
                x = None if symbolic else rng.choice(
                    X_OPEN + ((F(0),) if scale == "B" else ()))
                if not (symbolic and b > a) and \
                        (scale != "W" or identifiable(a, b, x, weights)):
                    break
            out.append(Desc(scale, dims, weights, label, target, a, b, x))
        return out

    def pick(self, d: int, target: str, scale: str | None = None) -> Desc:
        group = self.groups[(d, target)]
        return self.rng.choice(group[scale or self.rng.choice(POOL_SCALES)])


@dataclass(frozen=True)
class Line:
    """One query line; ``expect`` carries what the benchmark's own oracle
    knows in closed form (index value, Hoelder verdict), else None."""

    kind: str
    text: str
    expect: tuple | None = None


def _signature(rng: random.Random, m: int) -> tuple[list[str], str]:
    """Factor value spaces and result of a registered multiplication:
    all scalar, all one Banach algebra, or one vector-valued factor among
    scalars carried into its own value space."""
    shape = rng.choice(("scalar", "algebra", "carry"))
    if shape == "scalar":
        return ["R"] * m, "R"
    if shape == "algebra":
        return ["A"] * m, "A"
    vec = rng.choice(("E", "Lp(Rdot)", "A"))
    facs = ["R"] * m
    facs[rng.randrange(m)] = vec
    return facs, vec


def _product(pool: SpacePool, rng: random.Random, m: int, w_count: int,
             prefix: str, pivot: bool,
             targets: tuple[str, ...] | None = None) -> str:
    """An m-factor product with ``w_count`` Sobolev-Slobodeckij factors,
    the costly ones to normalize; the other factors are drawn from the
    remaining scales."""
    d = rng.randrange(len(DOMAINS))
    if targets is None:
        facs_t, res_t = _signature(rng, m)
    else:
        t = rng.choice(targets)
        facs_t, res_t = [t] * m, t
    scales = ["W"] * w_count + [rng.choice(("H", "B", "L"))
                                for _ in range(m - w_count)]
    rng.shuffle(scales)
    factors = [pool.pick(d, t, sc) for t, sc in zip(facs_t, scales)]
    if pivot:
        # the multiplier form: a factor in the result's value space equals
        # the target
        j = rng.choice([k for k, t in enumerate(facs_t) if t == res_t])
        target = factors[j]
    else:
        target = pool.pick(d, res_t)
    core = " * ".join(f.text() for f in factors)
    return f"{prefix}{core} -> {target.text()} ?"


def _interp(rng: random.Random) -> Line:
    """Interpolation pairs that have an implemented identity."""
    dims, weights, label = DOMAINS[rng.randrange(len(DOMAINS))]
    target = rng.choice(TARGETS)
    theta = rng.choice((F(1, 2), F(1, 3), F(2, 3), F(1, 4)))

    def sp(scale, a=F(0), x=None):
        return Desc(scale, dims, weights, label, target, a, F(0), x).text()

    x1, x2 = rng.sample(X_OPEN, 2)
    s1, s2 = rng.sample(SMOOTH, 2)
    th = render_fraction(theta)
    if rng.random() < 0.5:
        family = rng.choice(("L", "H-fixed-x", "H-fixed-s", "B"))
        if family == "L":
            pair = sp("L", x=x1), sp("L", x=x2)
        elif family == "H-fixed-x":
            pair = sp("H", s1, x1), sp("H", s2, x1)
        elif family == "H-fixed-s":
            pair = sp("H", s1, x1), sp("H", s1, x2)
        else:
            pair = sp("B", s1, x1), sp("B", s2, x2)
        return Line("interp", f"[{pair[0]}, {pair[1]}]_{{{th}}}")
    family = rng.choice(("L", "H", "B"))
    if family == "L":
        return Line("interp", f"({sp('L', x=x1)}, {sp('L', x=x2)})_{{{th}, p}}")
    q = rng.choice(("p", "oo", "2", "3", "3/2"))
    return Line("interp", f"({sp(family, s1, x1)}, {sp(family, s2, x1)})"
                          f"_{{{th}, {q}}}")


# criterion 1's grid of reciprocal exponents
HOELDER_XS = sorted({F(n, d) for d in range(2, 13) for n in range(1, d)})


def _hoelder(rng: random.Random) -> Line:
    """Two-factor isotropic Lebesgue products: COVERED exactly when
    1/p1 + 1/p2 = 1/pt (the Hoelder identity)."""
    n = rng.randint(1, 3)
    x1, x2 = rng.choice(HOELDER_XS), rng.choice(HOELDER_XS)
    if x1 + x2 < 1 and rng.random() < 0.5:
        xt = x1 + x2
    else:
        xt = rng.choice(HOELDER_XS)
    sp = [Desc("L", (n,), (1,), f"R^{n}", "R", x=v).text() for v in (x1, x2, xt)]
    return Line("hoelder", f"{sp[0]} * {sp[1]} -> {sp[2]} ?",
                ("COVERED" if x1 + x2 == xt else "NOT_COVERED",))


def _index(pool: SpacePool, rng: random.Random, i: int) -> Line:
    d = rng.randrange(len(DOMAINS))
    sp = pool.pick(d, rng.choice(TARGETS), POOL_SCALES[i % len(POOL_SCALES)])
    name = "w-ind" if sp.scale == "L" else "ind"
    return Line("index", f"index {sp.text()}", (name, *sp.index()))


# lines per pass of each corpus, by kind (and factor count).  The quotas,
# the factor counts and the number of Sobolev-Slobodeckij factors per line
# follow a fixed cycle, so that a seed changes the parameters of the
# lines, not the mix and so not the cost of a pass.
CONCRETE_QUOTA = {
    "index": 120, "embed": 240, "mult2": 150, "mult3": 120, "mult4": 90,
    "multiplier": 120, "algebra": 90, "nemytskij": 90, "interp": 120,
    "hoelder": 60,
}
SOLVE_QUOTA = {
    "embed": 120, "mult2": 90, "mult3": 60, "multiplier": 90, "algebra": 60,
    "nemytskij": 60,
}


def _decision_line(pool: SpacePool, rng: random.Random, kind: str, i: int,
                   prefix: str = "") -> Line:
    """The i-th line of a decision kind."""
    d = rng.randrange(len(DOMAINS))
    scale = POOL_SCALES[i % len(POOL_SCALES)]
    if kind == "embed":
        t = rng.choice(TARGETS)
        src = pool.pick(d, t, scale)
        if i % 5 == 0:
            dims, weights, label = DOMAINS[d]
            dst = Desc("C0", dims, weights, label, t)
        else:
            dst = pool.pick(d, t)
        return Line("embed", f"{prefix}{src.text()} -> {dst.text()} ?")
    if kind == "algebra":
        sp = pool.pick(d, rng.choice(ALGEBRA_TARGETS), scale)
        return Line(kind, f"{prefix}algebra {sp.text()} ?")
    if kind.startswith("mult") and kind != "multiplier":
        m = int(kind[4:])
        return Line("mult", _product(pool, rng, m, i % (m + 1), prefix,
                                     pivot=False))
    m = 1 + i % 3
    w_count = i // 3 % (m + 1)
    if kind == "multiplier":
        return Line(kind, _product(pool, rng, m, w_count,
                                   prefix + "multiplier: ", pivot=True))
    if kind == "nemytskij":
        return Line(kind, _product(pool, rng, m, w_count,
                                   prefix + "nemytskij: ", pivot=False,
                                   targets=ALGEBRA_TARGETS))
    raise ValueError(kind)


def concrete_lines(seed: int) -> list[Line]:
    """The generated part of the concrete-batch corpus."""
    rng = random.Random(f"concrete-{seed}")
    pool = SpacePool(rng, per_scale=6, symbolic=False)
    lines: list[Line] = []
    for kind, count in CONCRETE_QUOTA.items():
        for i in range(count):
            if kind == "index":
                lines.append(_index(pool, rng, i))
            elif kind == "interp":
                lines.append(_interp(rng))
            elif kind == "hoelder":
                lines.append(_hoelder(rng))
            else:
                lines.append(_decision_line(pool, rng, kind, i))
    rng.shuffle(lines)
    return lines


def solve_lines(seed: int) -> list[Line]:
    """Generated ``solve p:`` lines with smoothness a - b/p."""
    rng = random.Random(f"solve-{seed}")
    pool = SpacePool(rng, per_scale=3, symbolic=True)
    lines = [_decision_line(pool, rng, kind, i, "solve p: ")
             for kind, count in SOLVE_QUOTA.items() for i in range(count)]
    rng.shuffle(lines)
    return [Line("solve-p", ln.text) for ln in lines]


@dataclass(frozen=True)
class Fit:
    """One dilation fit of the numeric lab."""

    name: str
    scale: str
    s: F
    x: F
    dims: tuple[int, ...]
    weights: tuple[int, ...]
    label: str
    sigmas: tuple[F, ...]
    lambdas: tuple[F, ...]
    spacing: F
    radius: int

    def exponent(self) -> F:
        """lcm(w) * ind, the exact dilation exponent."""
        return self.s - self.x * sum(w * n for w, n in zip(self.weights, self.dims))

    def space(self):
        """The descriptor, built through the public constructors."""
        from anisocalc.spaces import SCALARS, Anisotropy, SpaceDescr
        aniso = Anisotropy(self.dims, self.weights)
        if self.scale == "B":
            return SpaceDescr.besov(self.s, self.x, aniso, None, SCALARS, self.label)
        return SpaceDescr.sobolev(self.s, self.x, aniso, SCALARS, self.label)

    def space_text(self) -> str:
        w = "(" + ",".join(map(str, self.weights)) + ")"
        sub = exponent_text(self.x)
        micro = f"_{sub}" if self.scale == "B" else ""
        return f"{self.scale}^{{{render_fraction(self.s)},{w}}}_{sub}{micro}({self.label})"


def lab_fits(seed: int) -> list[Fit]:
    """Criterion 9's two 1-D fits, a 1-D Besov fit and the 2-D parabolic
    fit; the seed draws the Gaussian widths (three decimals), which leaves
    the grids and so the cost of every fit unchanged."""
    rng = random.Random(f"lab-{seed}")

    def width(spread: int) -> F:
        return F(1000 + rng.randint(-spread, spread), 1000)

    five = (F(1, 4), F(1, 2), F(1), F(2), F(4))
    one_d = dict(x=F(1, 2), dims=(1,), weights=(1,), label="R^1",
                 lambdas=five, spacing=F(1, 50), radius=20)
    return [
        Fit("W1/2", "W", F(1, 2), sigmas=(width(100),), **one_d),
        Fit("W3/4", "W", F(3, 4), sigmas=(width(100),), **one_d),
        Fit("B1/2", "B", F(1, 2), sigmas=(width(100),), **one_d),
        Fit("W1/2-parabolic", "W", F(1, 2), F(1, 2), (1, 1), (2, 1),
            "JxRdot", (width(30), width(30)), (F(1, 2), F(1), F(2)),
            F(1, 20), 6),
    ]


@dataclass(frozen=True)
class Golden:
    """The pinned corpus: query lines with their byte-exact reports."""

    concrete: list[tuple[str, str]]
    solve: list[tuple[str, str]]


def load_golden(root: Path) -> Golden:
    folder = root / "tests" / "golden"
    queries = [ln.strip() for ln in (folder / "queries.txt").read_text().splitlines()]
    queries = [q for q in queries if q and not q.startswith("#")]
    reports = (folder / "reports.jsonl").read_text().splitlines()
    if len(queries) != len(reports):
        raise ValueError(f"{len(queries)} golden queries but {len(reports)} reports")
    pairs = list(zip(queries, reports))
    return Golden([p for p in pairs if not p[0].startswith("solve")],
                  [p for p in pairs if p[0].startswith("solve")])
