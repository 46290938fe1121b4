"""Embedding rules and interpolation identities."""

from fractions import Fraction as F

import pytest

from anisocalc import (COUPLED, AffineExpr, Anisotropy, Scale, SpaceDescr,
                       Status, Verdict, X, embeds, interpolate_complex,
                       interpolate_real, isotropic, parabolic, sobolev_index)
from anisocalc.errors import (IncompatibleSpaces, NoInterpolationRule,
                              NotIdentifiable)

from conftest import rand_aniso, rand_fraction, rand_space, rand_x


def _c0_like(sp: SpaceDescr) -> SpaceDescr:
    return SpaceDescr.c0(sp.aniso, sp.target, sp.domain_label)


def test_supercritical_trace_space_into_c0():
    # index 1 - 5/8 = 3/8 > 0 at p = 4 over a 3-dimensional product
    sp = SpaceDescr.sobolev(F(2) - F(1, 4), F(1, 4),
                            Anisotropy((1, 2), (2, 1)), domain_label="JxSigma")
    assert sobolev_index(sp) == AffineExpr(F(3, 8))
    assert embeds(sp, _c0_like(sp)).verdict is Verdict.COVERED
    # at p = 2 the index 1 - 5/4 is negative
    low = SpaceDescr.sobolev(F(2) - F(1, 2), F(1, 2),
                             Anisotropy((1, 2), (2, 1)), domain_label="JxSigma")
    assert embeds(low, _c0_like(low)).verdict is Verdict.NOT_COVERED


def test_identity_embedding():
    sp = SpaceDescr.bessel(F(3, 2), F(1, 3), parabolic(2))
    d = embeds(sp, sp)
    assert d.verdict is Verdict.COVERED
    assert d.trace[0].anchor == "embed.identity"


@pytest.mark.parametrize("x", [F(1), F(0)], ids=["p=1", "p=oo"])
def test_lebesgue_source_outside_zero_order_range(x):
    # only 1 < p < oo makes L^p the space H^0_p; the endpoints are refused
    # with a failed condition instead of an exception
    src = SpaceDescr.lebesgue(x, isotropic(2))
    dst = SpaceDescr.lebesgue(F(1, 2), isotropic(2))
    d = embeds(src, dst)
    assert d.verdict is Verdict.NOT_COVERED
    assert d.first_failure().anchor == "space.zero-order"


def test_besov_into_bessel_potential_borderline():
    src = SpaceDescr.besov(3, F(1, 2), Anisotropy((1, 1), (1, 1)), F(1))
    dst = SpaceDescr.bessel(2, F(1, 3), Anisotropy((1, 1), (1, 1)))
    # indices 3 - 1 = 2 and 2 - 2/3 = 4/3: strict drop
    assert sobolev_index(src)(F(1, 2)) == F(2)
    assert sobolev_index(dst)(F(1, 3)) == F(4, 3)
    assert embeds(src, dst).verdict is Verdict.COVERED


def test_besov_within_scale_micro_condition():
    a = isotropic(2)
    src = SpaceDescr.besov(1, F(1, 2), a, F(1, 3))   # q = 3
    dst = SpaceDescr.besov(1, F(1, 2), a, F(1, 2))   # q = 2 < 3, same index
    assert embeds(src, dst).verdict is Verdict.NOT_COVERED
    dst_ok = SpaceDescr.besov(1, F(1, 2), a, F(1, 4))  # q = 4 >= 3
    assert embeds(src, dst_ok).verdict is Verdict.COVERED


def test_lebesgue_targets():
    a = isotropic(2)
    src = SpaceDescr.bessel(1, F(1, 2), a)           # ind = 1 - 1 = 0
    same_ind = SpaceDescr.lebesgue(F(0), a)          # L_oo, adapted index 0
    # equal index and r = oo: the side condition demands strictness
    assert embeds(src, same_ind).verdict is Verdict.NOT_COVERED
    finite = SpaceDescr.lebesgue(F(1, 4), a)         # L_4, index -1/2
    assert embeds(src, finite).verdict is Verdict.COVERED


def test_incompatible_spaces_raise():
    src = SpaceDescr.bessel(1, F(1, 2), isotropic(2), domain_label="R^2")
    dst = SpaceDescr.bessel(1, F(1, 2), isotropic(3), domain_label="R^3")
    with pytest.raises(IncompatibleSpaces):
        embeds(src, dst)


def test_unnormalizable_source_raises():
    src = SpaceDescr.sobolev(3, F(1, 3), parabolic(1))
    dst = SpaceDescr.bessel(1, F(1, 3), parabolic(1))
    with pytest.raises(NotIdentifiable):
        embeds(src, dst)


def test_c0_detour_for_off_micro_besov():
    # q != p blocks the direct rule; one intermediate step bridges it
    sp = SpaceDescr.besov(2, F(1, 4), isotropic(2), F(1, 2))
    d = embeds(sp, _c0_like(sp))
    assert d.verdict is Verdict.COVERED
    assert any(e.anchor == "embed.detour" for e in d.trace)


def test_complex_interpolation_examples():
    a = parabolic(2)
    # lebesgue against third-order at theta = 1/3 lands at first order
    lp = SpaceDescr.lebesgue(F(1, 2), a)
    h3 = SpaceDescr.bessel(3, F(1, 2), a)
    out = interpolate_complex(lp, h3, F(1, 3))
    assert out.scale is Scale.H and out.s == AffineExpr(F(1))
    # Besov midpoint at identical integrability
    b1 = SpaceDescr.besov(1, F(1, 2), a)
    b3 = SpaceDescr.besov(3, F(1, 2), a)
    mid = interpolate_complex(b1, b3, F(1, 2))
    assert mid.scale is Scale.B and mid.s == AffineExpr(F(2))
    assert mid.x == AffineExpr(F(1, 2)) and mid.y is None
    # Lebesgue pair: 1/p = (1/2)(1/2) + (1/2)(1/6) = 1/3
    l2 = SpaceDescr.lebesgue(F(1, 2), a)
    l6 = SpaceDescr.lebesgue(F(1, 6), a)
    out = interpolate_complex(l2, l6, F(1, 2))
    assert out.scale is Scale.L and out.x == AffineExpr(F(1, 3))


def test_complex_interpolation_needs_matching_shape():
    a = parabolic(2)
    h1 = SpaceDescr.bessel(1, F(1, 2), a)
    h2 = SpaceDescr.bessel(2, F(1, 3), a)
    with pytest.raises(NoInterpolationRule):
        interpolate_complex(h1, h2, F(1, 2))  # s and p both move


def test_real_interpolation_examples():
    a = parabolic(2)
    h1 = SpaceDescr.bessel(1, F(1, 3), a)
    h3 = SpaceDescr.bessel(3, F(1, 3), a)
    out = interpolate_real(h1, h3, F(1, 2), F(2))
    assert out.scale is Scale.B and out.s == AffineExpr(F(2))
    assert out.y == F(1, 2)
    # distinct smoothness is required on the first Besov identity
    b = SpaceDescr.besov(1, F(1, 3), a, F(1, 2))
    with pytest.raises(NoInterpolationRule):
        interpolate_real(b, b.with_(y=F(1, 4)), F(1, 2), F(2))
    # micro-scales ride along freely when the smoothness orders differ
    b0 = SpaceDescr.besov(0, F(1, 3), a, F(1, 2))
    b2 = SpaceDescr.besov(2, F(1, 3), a, F(1, 5))
    out = interpolate_real(b0, b2, F(1, 2), F(7))
    assert out.scale is Scale.B and out.s == AffineExpr(F(1))
    assert out.y == F(1, 7)


def test_real_interpolation_coupled_parameter():
    a = isotropic(2)
    l2 = SpaceDescr.lebesgue(F(1, 2), a)
    l6 = SpaceDescr.lebesgue(F(1, 6), a)
    out = interpolate_real(l2, l6, F(1, 2), COUPLED)
    assert out.scale is Scale.L and out.x == AffineExpr(F(1, 3))
    with pytest.raises(NoInterpolationRule):
        interpolate_real(l2, l6, F(1, 2), F(2))
    # the coupled Besov identity demands the same convex relation of the
    # micro-scales
    b_a = SpaceDescr.besov(1, F(1, 2), a, F(1, 3))
    b_b = SpaceDescr.besov(3, F(1, 4), a, F(1, 2))
    with pytest.raises(NoInterpolationRule):
        interpolate_real(b_a, b_b, F(1, 2), COUPLED)
    ok_a = SpaceDescr.besov(1, F(1, 2), a, F(1, 4))
    ok_b = SpaceDescr.besov(3, F(1, 4), a, F(1, 2))
    # 1/p = 3/8 and micro combo (1/4 + 1/2)/2 = 3/8: admissible
    out = interpolate_real(ok_a, ok_b, F(1, 2), COUPLED)
    assert out.x == AffineExpr(F(3, 8)) and out.y is None


def test_interpolation_convex_combinations_exact(rng):
    for _ in range(200):
        a = rand_aniso(rng)
        s0, s1 = rand_fraction(rng, F(0), F(3)), rand_fraction(rng, F(0), F(3))
        x = rand_x(rng)
        theta = F(rng.randint(1, 7), 8)
        h0 = SpaceDescr.bessel(s0, x, a)
        h1 = SpaceDescr.bessel(s1, x, a)
        out = interpolate_complex(h0, h1, theta)
        assert out.s == AffineExpr(s0 * (1 - theta) + s1 * theta)
        if s0 != s1:
            q = rand_x(rng)
            outr = interpolate_real(h0, h1, theta, 1 / q)
            assert outr.s == AffineExpr(s0 * (1 - theta) + s1 * theta)
            assert outr.scale is Scale.B


def _weaken(rng, sp: SpaceDescr) -> SpaceDescr:
    """A deterministic candidate for a weaker space (not always covered)."""
    mode = rng.randrange(4)
    if mode == 0:
        return sp.with_(s=sp.s - rand_fraction(rng, F(0), F(1)))
    if mode == 1:
        nx = rand_x(rng)
        return sp.with_(x=AffineExpr(min(sp.x.constant, nx)))
    if mode == 2 and sp.scale is Scale.B:
        return sp.with_(y=rand_x(rng))
    drop = rand_fraction(rng, F(0), F(1))
    nx = rand_x(rng)
    out = sp.with_(s=sp.s - drop, x=AffineExpr(min(sp.x.constant, nx)))
    if rng.random() < 0.5:
        other = Scale.H if sp.scale is Scale.B else Scale.B
        out = out.with_(scale=other, y=None)
    return out


def test_transitivity_small(rng):
    checked = 0
    for _ in range(2000):
        a = rand_aniso(rng)
        sp_a = rand_space(rng, a)
        sp_b = _weaken(rng, sp_a)
        sp_c = _weaken(rng, sp_b)
        if embeds(sp_a, sp_b).covered and embeds(sp_b, sp_c).covered:
            checked += 1
            assert embeds(sp_a, sp_c).covered, (sp_a, sp_b, sp_c)
    assert checked > 100


def test_monotonicity_small(rng):
    flips = 0
    for _ in range(1000):
        a = rand_aniso(rng)
        src = rand_space(rng, a)
        dst = _weaken(rng, src)
        base = embeds(src, dst).covered
        if not base:
            continue
        flips += 1
        up = src.with_(s=src.s + rand_fraction(rng, F(1, 24), F(2)))
        assert embeds(up, dst).covered
        down = dst.with_(s=dst.s - rand_fraction(rng, F(1, 24), F(2)))
        assert embeds(src, down).covered
    assert flips > 100


def test_index_consistency_in_traces(rng):
    for _ in range(500):
        a = rand_aniso(rng)
        src = rand_space(rng, a)
        dst = _weaken(rng, src)
        d = embeds(src, dst)
        if not d.covered:
            continue
        for e in d.trace:
            if "index" in e.label and e.status is Status.PASS and \
                    e.note == "equal":
                assert sobolev_index(src)(src.x.constant) is not None
                side = [t for t in d.trace if "strict or" in t.label]
                for t in side:
                    assert t.status in (Status.PASS, Status.NOT_APPLICABLE)


def test_besov_infinite_integrability_endpoint():
    # the Besov scale admits the p = oo endpoint as an embedding target
    a = Anisotropy((1, 1), (1, 1))
    src = SpaceDescr.besov(2, F(1, 2), a, F(1, 3))
    dst = SpaceDescr.besov(0, F(0), a, F(1, 3))
    d = embeds(src, dst)
    assert d.verdict is Verdict.COVERED
    # as a source it forces the target to the same endpoint
    src_oo = SpaceDescr.besov(2, F(0), a, F(1, 3))
    finite = SpaceDescr.besov(1, F(1, 2), a, F(1, 3))
    assert embeds(src_oo, finite).verdict is Verdict.NOT_COVERED


def test_infinite_endpoint_refused_on_bessel_scale():
    a = Anisotropy((1, 1), (1, 1))
    with pytest.raises(ValueError):
        SpaceDescr.bessel(2, F(0), a)


def test_c0_embedding_matches_index_criterion(rng):
    # independent oracle: a normalizable descriptor embeds into the
    # vanishing-continuous scale exactly when its smoothness and index are
    # positive (the micro-scale is bridged by the detour)
    from anisocalc import normalize

    checked = 0
    for _ in range(1500):
        a = rand_aniso(rng)
        sp = rand_space(rng, a, scales=(Scale.B, Scale.H, Scale.W, Scale.L))
        try:
            norm = normalize(sp)
        except NotIdentifiable:
            continue
        got = embeds(sp, _c0_like(sp)).covered
        x = sp.x.constant
        expect = sobolev_index(norm)(x) > 0 and \
            (norm.s.constant > 0) and 0 < x < 1
        assert got == expect, (sp, norm)
        checked += 1
    assert checked > 1200
