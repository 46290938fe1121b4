"""Descriptor bookkeeping: indices, identifications, value-space flags."""

import math
import re
from dataclasses import replace
from fractions import Fraction as F

import pytest

from anisocalc import (SCALARS, AffineExpr, Anisotropy, ParamEnv, Scale,
                       SpaceDescr, TargetSpace, X, isotropic, lp_valued,
                       normalize, parabolic, sobolev_index, spaces)
from anisocalc.dsl import parse_query, run
from anisocalc.errors import HypothesisViolation, NotIdentifiable, Unsupported
from anisocalc.ratcore import BreakpointRecorder, lowered

from conftest import rand_aniso, rand_fraction, rand_space, rand_x


def test_anisotropy_derived_quantities():
    a = Anisotropy((1, 3), (2, 1))
    assert a.nu == 2
    assert a.omega_dot == 2
    assert a.omega_dot_n == 5
    assert not a.is_isotropic
    assert Anisotropy((2, 1), (3, 3)).is_isotropic


def test_unital_requires_algebra():
    with pytest.raises(ValueError):
        TargetSpace("bad", unital=True, banach_algebra=False)


def test_index_parabolic_second_order():
    # second-order space over a (1, n) product carries index 1 - (n+2)/(2p)
    for n in (1, 2, 3, 5):
        sp = SpaceDescr.bessel(2, X, Anisotropy((1, n), (2, 1)))
        assert sobolev_index(sp) == AffineExpr(F(1), -F(n + 2, 2))


def test_index_lebesgue_adapted():
    sp = SpaceDescr.lebesgue(X, Anisotropy((1, 3), (2, 1)))
    assert sobolev_index(sp) == AffineExpr(F(0), -F(5, 2))


def test_index_isotropic_consistency():
    # weights w = lcm * (1,...,1): index equals s/lcm - |n| x
    for wd in (1, 2, 3):
        a = Anisotropy((2, 1), (wd, wd))
        sp = SpaceDescr.besov(F(3), X, a)
        assert sobolev_index(sp) == AffineExpr(F(3, wd), -F(3))


def test_index_refused_for_c0():
    with pytest.raises(Unsupported):
        sobolev_index(SpaceDescr.c0(isotropic(2)))


def test_normalize_w_to_h():
    sp = SpaceDescr.sobolev(2, F(1, 3), parabolic(1))
    out = normalize(sp)
    assert out.scale is Scale.H and out.s == AffineExpr(F(2))


def test_normalize_w_to_b():
    sp = SpaceDescr.sobolev(F(1, 2), F(1, 2), parabolic(1))
    out = normalize(sp)
    assert out.scale is Scale.B and out.y is None


def test_normalize_not_identifiable():
    # s = 3 is not a multiple of lcm(2,1) = 2 but 3/1 is an integer
    sp = SpaceDescr.sobolev(3, F(1, 3), parabolic(1))
    with pytest.raises(NotIdentifiable):
        normalize(sp)


def test_normalize_zero_order_collapses():
    for sp in (SpaceDescr.sobolev(0, F(1, 3), parabolic(2)),
               SpaceDescr.bessel(0, F(1, 3), parabolic(2))):
        assert normalize(sp).scale is Scale.L


def test_normalize_checks_flags():
    no_umd = TargetSpace("X", umd=False, prop_alpha=True)
    sp = SpaceDescr.bessel(1, F(1, 2), isotropic(2), no_umd)
    with pytest.raises(HypothesisViolation):
        normalize(sp)
    no_alpha = TargetSpace("Y", umd=True, prop_alpha=False)
    aniso = SpaceDescr.bessel(1, F(1, 2), parabolic(2), no_alpha)
    with pytest.raises(HypothesisViolation):
        normalize(aniso)
    # property (alpha) is not needed for isotropic weights
    iso = SpaceDescr.bessel(1, F(1, 2), isotropic(2), no_alpha)
    assert normalize(iso) == iso


def test_normalize_canonicalizes_micro_scale():
    sp = SpaceDescr.besov(1, F(1, 3), isotropic(2), F(1, 3))
    assert normalize(sp).y is None


def test_index_invariant_under_normalization(rng):
    for _ in range(300):
        aniso = rand_aniso(rng)
        sp = rand_space(rng, aniso, scales=(Scale.B, Scale.H, Scale.W, Scale.L))
        try:
            out = normalize(sp)
        except NotIdentifiable:
            continue
        assert sobolev_index(out) == sobolev_index(sp)


def test_index_monotonicity(rng):
    for _ in range(300):
        aniso = rand_aniso(rng)
        sp = rand_space(rng, aniso)
        idx = sobolev_index(sp)
        ds = rand_fraction(rng, F(1, 24), F(2))
        dx = rand_x(rng)
        up_s = sobolev_index(sp.with_(s=sp.s + ds))
        assert up_s(F(1, 3)) > idx(F(1, 3))
        richer = sp.with_(x=AffineExpr(sp.x.constant * dx))  # smaller x
        assert sobolev_index(richer)(F(1, 3)) >= idx(F(1, 3))


def test_micro_scale_only_for_besov():
    with pytest.raises(ValueError):
        SpaceDescr(Scale.H, AffineExpr(F(1)), AffineExpr(F(1, 2)), F(1, 2),
                   isotropic(1), SCALARS, "R")


def test_valued_target_tag():
    t = lp_valued("Rdot")
    assert t.umd and t.prop_alpha and not t.banach_algebra
    assert t.name == "Lp(Rdot)"


def test_index_integer_route_matches_closed_form(rng):
    # the index is built from the lowered triples of s and x; the closed
    # form (s - x (w.n)) / lcm(w) in Fraction arithmetic is the oracle for
    # its value, equality, hash and lowered triple, on concrete and
    # symbolic descriptors
    for _ in range(400):
        aniso = rand_aniso(rng)
        wd = math.lcm(*aniso.weights)
        wn = sum(w * n for w, n in zip(aniso.weights, aniso.dims))
        assert aniso.omega_dot == wd and aniso.omega_dot_n == wn
        assert aniso.is_isotropic == all(w == wd for w in aniso.weights)
        if rng.random() < 0.5:
            sp = rand_space(rng, aniso,
                            scales=(Scale.B, Scale.H, Scale.W, Scale.L))
        else:
            s = AffineExpr(rand_fraction(rng, F(-2), F(4)),
                           rand_fraction(rng, F(-3), F(3)))
            sp = SpaceDescr.bessel(s, X, aniso)
        want = (sp.s - sp.x * wn) / wd
        got = sobolev_index(sp)
        assert got == want and got.constant == want.constant
        assert hash(got) == hash(want)
        assert lowered(got) == lowered(AffineExpr(want.constant, want.slope))


def test_scale_rewrites_keep_the_source_index():
    # W -> H, W -> B and a dropped micro-scale keep s, x and the weights,
    # so the rewritten descriptor shares the source's index at every witness
    w = SpaceDescr.sobolev(AffineExpr(F(2), F(-1)), X, parabolic(1))
    besov = SpaceDescr.besov(1, F(1, 3), isotropic(2), F(1, 3))
    for sp in (w, besov):
        for x in (F(1, 3), F(1, 2), F(2, 3)):
            env = ParamEnv(x, BreakpointRecorder())
            out = normalize(sp, env)
            assert out is not sp and out.scale is not Scale.W
            assert sobolev_index(out) is sobolev_index(sp)


def test_recorded_solve_computes_one_index_per_source_space(monkeypatch):
    # the index is computed in spaces only through from_lowered; without
    # the shared index a recorded solve rebuilt it at every witness
    q = parse_query("solve p: W^{2-1/p,(2,1)}_p(JxSigma) * "
                    "W^{1-1/p,(2,1)}_p(JxSigma) -> W^{1-1/p,(2,1)}_p(JxSigma) ?")
    computed = []
    build = spaces.from_lowered
    monkeypatch.setattr(spaces, "from_lowered",
                        lambda *abd: computed.append(abd) or build(*abd))
    assert not run(q).param_set.is_empty
    assert len(computed) == 3


# the keyword sets of the scale rewrites normalize makes (W -> L, W -> H,
# W -> B, H -> L, a dropped micro-scale) and of the embedding and
# interpolation rewrites
_REWRITES = [dict(scale=Scale.L, s=AffineExpr(), y=None),
             dict(scale=Scale.H), dict(scale=Scale.B, y=None),
             dict(scale=Scale.L, s=AffineExpr()), dict(y=None),
             dict(x=AffineExpr(F(1, 3))), dict(s=AffineExpr(F(7, 4)))]


def _same_descriptor(got: SpaceDescr, want: SpaceDescr) -> None:
    assert got == want and hash(got) == hash(want)
    assert got.is_concrete is want.is_concrete and str(got) == str(want)
    if want.scale is Scale.C0:
        with pytest.raises(Unsupported):
            sobolev_index(got)
    else:
        assert sobolev_index(got) == sobolev_index(want)


def test_rewrite_copies_like_dataclass_replace(rng):
    # with_ builds its copy without dataclasses.replace but runs the same
    # checks: each rewrite equals replace's copy, or both refuse it
    sources = []
    for _ in range(150):
        aniso = rand_aniso(rng)
        sources.append(rand_space(rng, aniso, scales=(Scale.B, Scale.H,
                                                      Scale.W, Scale.L)))
        s = AffineExpr(rand_fraction(rng, F(0), F(4)),
                       -rand_fraction(rng, F(0), F(2)))
        sources.append(rng.choice((SpaceDescr.bessel, SpaceDescr.sobolev,
                                   SpaceDescr.besov))(s, X, aniso))
    sources.append(SpaceDescr.c0(isotropic(2)))
    made = refused = 0
    for sp in sources:
        if sp.scale is not Scale.C0:
            sobolev_index(sp)  # a rewrite keeping s, x and weights keeps it
        for kw in _REWRITES:
            try:
                want = replace(sp, **kw)
            except ValueError as exc:
                with pytest.raises(ValueError, match=re.escape(str(exc))):
                    sp.with_(**kw)
                refused += 1
                continue
            _same_descriptor(sp.with_(**kw), want)
            made += 1
    assert made > 1500 and refused > 50
    nonzero = SpaceDescr.bessel(F(3, 2), F(1, 2), isotropic(1))
    with pytest.raises(ValueError, match="carries no smoothness"):
        nonzero.with_(scale=Scale.L)
    with pytest.raises(TypeError):
        nonzero.with_(p=2)
