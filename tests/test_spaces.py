"""Descriptor bookkeeping: indices, identifications, value-space flags."""

from fractions import Fraction as F

import pytest

from anisocalc import (SCALARS, AffineExpr, Anisotropy, Scale, SpaceDescr,
                       TargetSpace, X, isotropic, lp_valued, normalize,
                       parabolic, sobolev_index)
from anisocalc.errors import HypothesisViolation, NotIdentifiable, Unsupported

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
