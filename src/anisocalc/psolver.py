"""Symbolic-parameter mode: solve a decision for the set of x = 1/p.

The solver evaluates a decision thunk at rational witnesses while
recording every affine comparison and divisibility check met along the
way.  Zeros of the recorded forms are the only points where the executed
path can change, so iterating to a fixed point yields a partition of
(0, 1) into cells of constant verdict; each open cell is labelled by one
witness and each breakpoint by its own exact evaluation.

Any two points of an open cell take the same path, so a cell's witness is
one evaluated in an earlier round where one lies inside it, and its
midpoint otherwise: a solve makes exactly 2 * breakpoints + 1 evaluations.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from .embed import Decision, Verdict
from .errors import NotIdentifiable, Unsupported
from .ratcore import BreakpointRecorder, ParamEnv, Rational, render_fraction

#: A decision thunk: evaluates the query at the environment's witness.
DecisionFn = Callable[[ParamEnv], Decision]

_MAX_ROUNDS = 64


@dataclass(frozen=True)
class Interval:
    """A subinterval of [0, 1] in x-coordinates with inclusivity flags."""

    lo: Rational
    lo_closed: bool
    hi: Rational
    hi_closed: bool

    def __post_init__(self):
        if not 0 <= self.lo <= self.hi <= 1:
            raise ValueError("interval bounds must satisfy 0 <= lo <= hi <= 1")
        if self.lo == self.hi and not (self.lo_closed and self.hi_closed):
            raise ValueError("a degenerate interval must be closed")

    def contains(self, x: Rational) -> bool:
        if x < self.lo or x > self.hi:
            return False
        if x == self.lo and not self.lo_closed:
            return False
        if x == self.hi and not self.hi_closed:
            return False
        return True

    def intersect(self, other: "Interval") -> "Interval | None":
        lo, lo_c = max((self.lo, not self.lo_closed),
                       (other.lo, not other.lo_closed))
        hi, hi_c = min((other.hi, other.hi_closed), (self.hi, self.hi_closed))
        lo_c = not lo_c
        if lo > hi or (lo == hi and not (lo_c and hi_c)):
            return None
        return Interval(lo, lo_c, hi, hi_c)

    def describe_x(self) -> str:
        lb = "[" if self.lo_closed else "("
        rb = "]" if self.hi_closed else ")"
        return f"{lb}{render_fraction(self.lo)}, {render_fraction(self.hi)}{rb}"

    def describe_p(self) -> str:
        """The same interval in p = 1/x coordinates (orientation reversed)."""
        lb = "[" if self.hi_closed else "("
        rb = "]" if self.lo_closed else ")"
        lo_p = "oo" if self.hi == 0 else render_fraction(1 / self.hi)
        hi_p = "oo" if self.lo == 0 else render_fraction(1 / self.lo)
        if self.lo == 0:
            rb = ")"
        return f"{lb}{lo_p}, {hi_p}{rb}"


@dataclass(frozen=True)
class ExcludedPoint:
    x: Rational
    reason: str


@dataclass(frozen=True)
class ParamSet:
    """A finite union of x-intervals minus finitely many excluded points."""

    intervals: tuple[Interval, ...] = ()
    excluded: tuple[ExcludedPoint, ...] = ()

    def __post_init__(self):
        for a, b in zip(self.intervals, self.intervals[1:]):
            if not a.hi <= b.lo:
                raise ValueError("intervals must be sorted and disjoint")

    @staticmethod
    def unit_interval() -> "ParamSet":
        return ParamSet((Interval(Fraction(0), False, Fraction(1), False),))

    @staticmethod
    def from_x(lo: Rational, lo_closed: bool, hi: Rational,
               hi_closed: bool) -> "ParamSet":
        return ParamSet((Interval(Fraction(lo), lo_closed, Fraction(hi),
                                  hi_closed),))

    @property
    def is_empty(self) -> bool:
        return not self.intervals

    def contains(self, x: Rational) -> bool:
        x = Fraction(x)
        if any(e.x == x for e in self.excluded):
            return False
        return any(iv.contains(x) for iv in self.intervals)

    def intersect(self, other: "ParamSet") -> "ParamSet":
        out = []
        for a in self.intervals:
            for b in other.intervals:
                c = a.intersect(b)
                if c is not None:
                    out.append(c)
        keep = tuple(sorted(out, key=lambda iv: (iv.lo, iv.hi)))
        exc = tuple(sorted(
            {e for e in (*self.excluded, *other.excluded)
             if any(iv.contains(e.x) for iv in keep)},
            key=lambda e: e.x))
        return ParamSet(keep, exc)

    def without_points(self, points: Sequence[tuple[Rational, str]]) -> "ParamSet":
        extra = tuple(ExcludedPoint(Fraction(x), reason) for x, reason in points
                      if self.contains(Fraction(x)))
        merged = tuple(sorted({*self.excluded, *extra}, key=lambda e: e.x))
        return ParamSet(self.intervals, merged)

    def same_region(self, other: "ParamSet") -> bool:
        """Equality of intervals and excluded locations (reasons ignored)."""
        return self.intervals == other.intervals and \
            tuple(e.x for e in self.excluded) == tuple(e.x for e in other.excluded)

    def describe_x(self) -> str:
        if self.is_empty:
            return "{}"
        body = " u ".join(iv.describe_x() for iv in self.intervals)
        if self.excluded:
            body += " minus {" + ", ".join(render_fraction(e.x)
                                           for e in self.excluded) + "}"
        return body

    def describe_p(self) -> str:
        if self.is_empty:
            return "{}"
        body = " u ".join(iv.describe_p() for iv in reversed(self.intervals))
        if self.excluded:
            body += " minus {p = " + ", ".join(
                render_fraction(1 / e.x) for e in reversed(self.excluded)
                if e.x != 0) + "}"
        return body

    def to_machine(self) -> dict:
        """The JSON form shared by query reports and checklists."""
        return {
            "x_intervals": [
                {"lo": render_fraction(iv.lo), "lo_closed": iv.lo_closed,
                 "hi": render_fraction(iv.hi), "hi_closed": iv.hi_closed}
                for iv in self.intervals],
            "excluded": [{"x": render_fraction(e.x), "reason": e.reason}
                         for e in self.excluded],
            "p": self.describe_p(),
        }


@dataclass
class _CellResult:
    covered: bool
    error: str | None = None


def solve_param(decide: DecisionFn) -> ParamSet:
    """Exact COVERED-set of a one-parameter decision over x in (0, 1).

    ``decide`` must evaluate the query through the environment it is
    given, so that every branch point is recorded.  Errors that do not
    depend on x propagate; rewriting failures at isolated x become
    excluded points inside a covered neighborhood.
    """
    rec = BreakpointRecorder()
    # a witness's result does not depend on the partition: each witness
    # is evaluated once
    cache: dict[Fraction, _CellResult] = {}

    def evaluate(witness: Fraction) -> _CellResult:
        if witness in cache:
            return cache[witness]
        try:
            result = _CellResult(
                decide(ParamEnv(witness, rec)).verdict is Verdict.COVERED)
        except NotIdentifiable as exc:
            result = _CellResult(False, str(exc))
        cache[witness] = result
        return result

    for _ in range(_MAX_ROUNDS):
        breaks = sorted(rec.points)
        cells = _cell_witnesses(breaks, cache)
        for w in (*cells, *breaks):
            evaluate(w)
        if len(rec.points) == len(breaks):
            break
    else:
        raise Unsupported("case-split points failed to stabilize")

    return _assemble(breaks, cells, evaluate)


def _cell_witnesses(breaks: list[Fraction], evaluated: Iterable[Fraction],
                    ) -> list[Fraction]:
    """One witness inside each open cell between the breakpoints: an
    evaluated one where there is one, else the midpoint."""
    done = sorted(evaluated)
    bounds = [Fraction(0), *breaks, Fraction(1)]
    out = []
    for lo, hi in zip(bounds, bounds[1:]):
        i = bisect_right(done, lo)
        out.append(done[i] if i < len(done) and done[i] < hi
                   else (lo + hi) / 2)
    return out


def _assemble(breaks: list[Fraction], witnesses: list[Fraction],
              evaluate: Callable[[Fraction], _CellResult]) -> ParamSet:
    bounds = [Fraction(0), *breaks, Fraction(1)]
    open_results = []
    for w in witnesses:
        res = evaluate(w)
        if res.error is not None:
            # an identification failing on a whole cell is structural
            raise NotIdentifiable(res.error)
        open_results.append(res)

    # alternate open cells and breakpoints; a rewriting failure at an
    # isolated point inside a covered neighborhood is bridged and recorded
    Piece = tuple  # (is_point, lo, hi, covered, bridge_reason)
    pieces: list[Piece] = []
    for i, res in enumerate(open_results):
        pieces.append((False, bounds[i], bounds[i + 1], res.covered, None))
        if i < len(breaks):
            b = breaks[i]
            pres = evaluate(b)
            if pres.error is not None:
                bridged = res.covered and open_results[i + 1].covered
                pieces.append((True, b, b, bridged, pres.error if bridged else None))
            else:
                pieces.append((True, b, b, pres.covered, None))

    intervals: list[Interval] = []
    excluded: list[ExcludedPoint] = []
    run: list | None = None  # [lo, lo_closed, hi, hi_closed]
    for is_point, lo, hi, covered, bridge in pieces:
        if covered:
            if bridge is not None:
                excluded.append(ExcludedPoint(lo, bridge))
            if run is None:
                run = [lo, is_point, hi, is_point]
            else:
                run[2], run[3] = hi, is_point
        elif run is not None:
            intervals.append(Interval(*run))
            run = None
    if run is not None:
        intervals.append(Interval(*run))
    return ParamSet(tuple(intervals), tuple(excluded))
