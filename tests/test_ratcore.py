"""Exact arithmetic and sign-analysis tests."""

import ast
import math
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

import anisocalc
from anisocalc.ratcore import (AffineExpr, BreakpointRecorder, ParamEnv, X,
                               from_lowered, multiples_in_unit_interval,
                               render_affine_p, render_affine_x)

from reference import affine_root

rationals = st.fractions(min_value=-100, max_value=100, max_denominator=64)


@given(rationals, rationals, rationals)
@settings(max_examples=300)
def test_rational_field_laws(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a + b == b + a
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c


@given(rationals, rationals, rationals, rationals)
@settings(max_examples=200)
def test_affine_arithmetic_matches_pointwise(c1, b1, c2, b2):
    e1, e2 = AffineExpr(c1, b1), AffineExpr(c2, b2)
    x = F(3, 7)
    assert (e1 + e2)(x) == e1(x) + e2(x)
    assert (e1 - e2)(x) == e1(x) - e2(x)
    assert (e1 * F(5, 3))(x) == e1(x) * F(5, 3)
    assert (-e1)(x) == -e1(x)


def test_affine_equality_is_structural():
    assert AffineExpr(F(1), F(-2)) == AffineExpr(F(1), F(-2))
    assert AffineExpr(F(1), F(-2)) != AffineExpr(F(1), F(2))
    assert X == AffineExpr(F(0), F(1))


def test_compare_identical_expressions():
    rec = BreakpointRecorder()
    assert ParamEnv(F(1, 3), rec).cmp(X, X) == 0
    assert rec.points == set()


def test_compare_root_at_one_fifth():
    # 1/2 - (5/2) x crosses zero at x = 1/5, i.e. p = 5
    e = AffineExpr(F(1, 2), F(-5, 2))
    rec = BreakpointRecorder()
    signs = [ParamEnv(x, rec).sign(e) for x in (F(1, 10), F(1, 5), F(1, 2))]
    assert signs == [1, 0, -1]
    assert rec.points == {F(1, 5)}


def test_compare_crossing_at_one_half():
    # 1 - 2x meets 1/2 - x at x = 1/2
    rec = BreakpointRecorder()
    env = ParamEnv(F(1, 2), rec)
    assert env.cmp(AffineExpr(F(1), F(-2)), AffineExpr(F(1, 2), F(-1))) == 0
    assert rec.points == {F(1, 2)}


def test_compare_agrees_with_pointwise_on_random_points(rng):
    # the recording and the concrete comparison paths both give the
    # pointwise sign; the recorder holds the root when it lies in (0, 1)
    for _ in range(50):
        e = AffineExpr(F(rng.randint(-8, 8), rng.randint(1, 9)),
                       F(rng.randint(-8, 8), rng.randint(1, 9)))
        root = affine_root(e)
        roots = {root} if root is not None and 0 < root < 1 else set()
        for _ in range(20):
            den = rng.randint(2, 997)
            x = F(rng.randint(1, den - 1), den)
            v = e(x)
            rec = BreakpointRecorder()
            assert ParamEnv(x, rec).cmp(e, 0) == (v > 0) - (v < 0)
            assert ParamEnv(x).cmp(e, 0) == (v > 0) - (v < 0)
            assert rec.points == roots


def test_multiples_in_unit_interval():
    # s = 5/2 - x hits the even integer 2 at x = 1/2
    assert multiples_in_unit_interval(AffineExpr(F(5, 2), F(-1)), 2) == [F(1, 2)]
    # s = 1 - x is never a positive integer inside (0, 1)
    assert multiples_in_unit_interval(AffineExpr(F(1), F(-1)), 1,
                                      allow_zero=False) == []
    # constant expressions produce no case-split points
    assert multiples_in_unit_interval(AffineExpr(F(2)), 2) == []


def test_env_records_comparison_roots():
    rec = BreakpointRecorder()
    env = ParamEnv(F(1, 10), rec)
    assert env.gt(AffineExpr(F(1, 2), F(-5, 2)), 0)
    assert rec.points == {F(1, 5)}
    assert env.is_multiple(AffineExpr(F(5, 2), F(-1)), 2) is False
    assert F(1, 2) in rec.points


def test_env_divisibility_at_witness():
    env = ParamEnv(F(1, 2))
    # s = 5/2 - x equals 2 at the witness x = 1/2
    assert env.is_multiple(AffineExpr(F(5, 2), F(-1)), 2)
    assert env.is_multiple(AffineExpr(F(5, 2), F(-1)), 2, allow_zero=False)
    assert not env.is_multiple(AffineExpr(F(1), F(-1)), 2, allow_zero=False)


_BIG = 10**6


def _rationals(min_den: int = 1):
    """Numerators and denominators up to a million in absolute value."""
    return st.builds(F, st.integers(-_BIG, _BIG), st.integers(min_den, _BIG))


@st.composite
def _witness(draw):
    den = draw(st.integers(2, _BIG))
    return F(draw(st.integers(1, den - 1)), den)


@st.composite
def _kernel_cases(draw):
    """(witness, lhs, rhs) with lhs - rhs of every shape the kernel must
    handle: random, identical, constant (zero slope) and with its root at
    0, at 1 or at the witness."""
    w = draw(_witness())
    lhs = AffineExpr(draw(_rationals()),
                     draw(st.one_of(st.just(F(0)), _rationals())))
    shape = draw(st.sampled_from(("random", "equal", "constant", "root-0",
                                  "root-1", "root-w", "scalar")))
    if shape == "random":
        rhs = AffineExpr(draw(_rationals()), draw(_rationals()))
    elif shape == "equal":
        rhs = AffineExpr(lhs.constant, lhs.slope)
    elif shape == "constant":
        rhs = lhs - draw(_rationals())
    elif shape == "scalar":
        rhs = draw(st.one_of(_rationals(), st.integers(-_BIG, _BIG)))
    else:
        root = {"root-0": F(0), "root-1": F(1), "root-w": w}[shape]
        rhs = lhs - draw(_rationals().filter(bool)) * (X - root)
    return w, lhs, rhs


@seed(20261018)
@settings(max_examples=500, deadline=None, database=None)
@given(_kernel_cases())
def test_recorded_comparisons_match_fraction_reference(case):
    w, lhs, rhs = case
    diff = lhs - rhs
    v = diff(w)
    want = (v > 0) - (v < 0)
    root = affine_root(diff)
    roots = {root} if root is not None and 0 < root < 1 else set()
    for op, expect in (("cmp", want), ("sign", want), ("lt", want < 0),
                       ("le", want <= 0), ("gt", want > 0),
                       ("ge", want >= 0), ("eq", want == 0)):
        rec = BreakpointRecorder()
        env = ParamEnv(w, rec)
        got = env.sign(diff) if op == "sign" else getattr(env, op)(lhs, rhs)
        assert got == expect, op
        assert rec.points == roots, op
        concrete = ParamEnv(w)
        assert (concrete.sign(diff) if op == "sign"
                else getattr(concrete, op)(lhs, rhs)) == expect, op
    # a sum of forms and a scalar is one form: total - rhs = lhs + x
    rec = BreakpointRecorder()
    total = sum((lhs, rhs, X), AffineExpr())
    v = lhs(w) + w
    assert ParamEnv(w, rec).cmp(total, rhs) == ParamEnv(w).cmp(total, rhs) \
        == (v > 0) - (v < 0)
    slope = lhs.slope + 1
    r = -lhs.constant / slope if slope else None
    assert rec.points == ({r} if r is not None and 0 < r < 1 else set())


@seed(20261018)
@settings(max_examples=300, deadline=None, database=None)
@given(_rationals(), _rationals(), _rationals(), _rationals(), _rationals(),
       st.integers(-_BIG, _BIG).filter(bool))
def test_forms_are_their_reduced_triple(c1, b1, c2, b2, k, g):
    # a form holds only (a, b, d) of (a + b*x) / d, reduced with d > 0,
    # however it is built; (constant, slope) pairs of Fractions are the
    # oracle for its value
    e1, e2 = AffineExpr(c1, b1), AffineExpr(c2, b2)
    assert not hasattr(e1, "__dict__")
    with pytest.raises(AttributeError):
        e1.a = 0
    built = [(e1, c1, b1), (from_lowered(e1.a * g, e1.b * g, e1.d * g), c1, b1),
             (from_lowered(-e1.a, -e1.b, -e1.d), c1, b1),
             (e1 + e2, c1 + c2, b1 + b2), (e1 - e2, c1 - c2, b1 - b2),
             (e1 + k, c1 + k, b1), (k - e1, k - c1, -b1), (-e1, -c1, -b1),
             (e1 * k, c1 * k, b1 * k), (k * e1, k * c1, k * b1)]
    if k:
        built.append((e1 / k, c1 / k, b1 / k))
    else:
        with pytest.raises(ZeroDivisionError):
            e1 / k
    for e, c, b in built:
        assert e.d > 0 and math.gcd(e.a, e.b, e.d) == 1
        assert (e.constant, e.slope) == (c, b) and e(F(1, 3)) == c + b / 3
        assert e == AffineExpr(c, b) and hash(e) == hash(AffineExpr(c, b))
        assert e.is_constant is (b == 0)
    with pytest.raises(ZeroDivisionError):
        from_lowered(1, 2, 0)


@st.composite
def _multiple_cases(draw):
    """(witness, form, modulus); the slope stays within 50 and the modulus
    in [1, 6], so a form has few multiples in (0, 1), and some forms hit a
    multiple at the witness exactly."""
    w = draw(_witness())
    mden = draw(st.integers(1, _BIG))
    m = draw(st.sampled_from((1, 2, 3, 6, F(draw(st.integers(mden, 6 * mden)),
                                             mden))))
    slope = draw(st.one_of(st.just(F(0)), _rationals(min_den=_BIG // 50)))
    if draw(st.booleans()):
        e = AffineExpr(draw(st.integers(-3, 3)) * m - slope * w, slope)
    else:
        e = AffineExpr(draw(_rationals()), slope)
    return w, e, m


@seed(20261018)
@settings(max_examples=500, deadline=None, database=None)
@given(_multiple_cases())
def test_case_splits_match_fraction_reference(case):
    w, e, m = case
    q = e(w) / m
    # both flags on one form, so the memo must keep them apart; the second
    # witness reads the memo
    for allow_zero in (True, False, True):
        want = q.denominator == 1 and q >= (0 if allow_zero else 1)
        splits = multiples_in_unit_interval(e, m, allow_zero=allow_zero)
        for x in (w, F(1, 2)):
            rec = BreakpointRecorder()
            got = ParamEnv(x, rec).is_multiple(e, m, allow_zero=allow_zero)
            assert rec.points == set(splits)
            if x == w:
                assert got == want
        assert ParamEnv(w).is_multiple(e, m, allow_zero=allow_zero) == want
        # no caller can change what a later call returns or records
        expected = list(splits)
        splits.append(F(1, 3))
        assert multiples_in_unit_interval(e, m, allow_zero=allow_zero) == \
            expected
        rec = BreakpointRecorder()
        ParamEnv(w, rec).is_multiple(e, m, allow_zero=allow_zero)
        assert rec.points == set(expected)


def _multiples_by_fraction_walk(e, modulus, *, allow_zero=True):
    """The walk ``multiples_in_unit_interval`` made in ``Fraction``
    arithmetic before it worked on the lowered triple: the oracle."""
    m = F(modulus)
    if e.slope == 0:
        return []
    lo, hi = sorted((e(0), e(1)))
    points = []
    k = max(0 if allow_zero else 1, math.ceil(lo / m))
    while k * m <= hi:
        x = (k * m - e.constant) / e.slope
        if 0 < x < 1:
            points.append(x)
        k += 1
    return sorted(points)


@st.composite
def _walk_cases(draw):
    """(form, modulus) with at most a few hundred multiples in (0, 1):
    slopes within 50, moduli integers or fractions of at least 1/4; some
    forms sit on a multiple at x = 0 or x = 1."""
    slope = draw(st.one_of(st.just(F(0)), st.builds(
        F, st.integers(-50 * 64, 50 * 64), st.integers(1, 64))))
    m = draw(st.one_of(st.integers(1, 6), st.builds(
        F, st.integers(1, 60), st.integers(1, 4))))
    if draw(st.booleans()):
        end = draw(st.sampled_from((F(0), F(1))))
        constant = draw(st.integers(-3, 3)) * m - slope * end
    else:
        constant = draw(_rationals())
    return AffineExpr(F(constant), slope), m


@seed(20261018)
@settings(max_examples=500, deadline=None, database=None)
@given(_walk_cases(), st.booleans())
def test_multiples_walk_integers_like_the_fraction_walk(case, allow_zero):
    e, m = case
    assert multiples_in_unit_interval(e, m, allow_zero=allow_zero) == \
        _multiples_by_fraction_walk(e, m, allow_zero=allow_zero)


def test_renderers():
    e = AffineExpr(F(1, 2), F(-5, 2))
    assert render_affine_x(e) == "1/2 - 5/2 x"
    assert render_affine_p(e) == "1/2 - 5/2p"
    assert render_affine_p(AffineExpr(F(2), F(-1))) == "2 - 1/p"
    assert render_affine_p(AffineExpr(F(0), F(3))) == "3/p"


def test_rule_modules_read_no_recorder():
    # one sign path: whether a comparison records its root is decided in
    # ParamEnv alone, so no rule or query module branches on the recorder
    src = Path(anisocalc.__file__).parent
    for name in ("embed", "multiply", "nemytskij", "appsuite", "dsl"):
        tree = ast.parse((src / f"{name}.py").read_text())
        lines = [node.lineno for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute) and node.attr == "recorder"]
        assert lines == [], f"{name}.py reads .recorder at lines {lines}"
