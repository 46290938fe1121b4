"""Embedding rules and interpolation identities."""

import ast
from fractions import Fraction as F
from pathlib import Path

import pytest

import anisocalc
from anisocalc import (COUPLED, AffineExpr, Anisotropy, ParamEnv, Scale,
                       SpaceDescr, Status, Verdict, X, embeds,
                       interpolate_complex, interpolate_real, isotropic,
                       parabolic, sobolev_index)
from anisocalc.dsl import parse_query, parse_space, run
from anisocalc.embed import ConditionLog
from anisocalc.ratcore import BreakpointRecorder
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


def test_no_rule_from_a_c0_source():
    # C0 is a target of the embedding rules, never a source: the verdict is
    # a failed dispatch condition, not an exception
    d = embeds(parse_space("C0(R^1)"), parse_space("L^{(1)}_oo(R^1)"))
    assert d.verdict is Verdict.NOT_COVERED
    assert [(e.anchor, e.status, e.note) for e in d.trace] == [
        ("embed.dispatch", Status.FAIL, "no rule for C0 -> L")]


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
    # a Lebesgue target: the equal-index micro-scale condition of b-l fails
    # (q < p), and a b-h leg whose equal-index condition passes bridges it
    d = embeds(parse_space("B^{1/4,(1)}_2_{5/2}(R^1)"),
               parse_space("L^{(1)}_4(R^1)"))
    assert d.verdict is Verdict.COVERED
    na, ok = Status.NOT_APPLICABLE, Status.PASS
    assert [(e.anchor, e.status, e.note) for e in d.trace] == [
        ("embed.b-l", na, "superseded"),
        ("embed.b-l", na, "superseded"),
        ("embed.b-l", na, "superseded"),
        ("embed.b-l", na, "equal; superseded"),
        ("embed.b-l", na, "micro-scale and finiteness at equal index; "
                          "superseded"),
        ("embed.detour", ok, "via H^{1/8,(1)}_{8/3}(R^1)"),
        ("embed.b-h", ok, ""),
        ("embed.b-h", ok, ""),
        ("embed.b-h", ok, ""),
        ("embed.b-h", ok, "equal"),
        ("embed.b-h", ok, "micro-scale comparison at equal index"),
        ("embed.h-l", ok, ""),
        ("embed.h-l", ok, ""),
        ("embed.h-l", ok, ""),
        ("embed.h-l", ok, "equal"),
        ("embed.h-l", ok, "finite exponent at equal index")]
    ps = run(parse_query(
        "solve p: B^{1/4,(1)}_p_{5/2}(R^1) -> L^{(1)}_4(R^1) ?")).param_set
    assert ps.describe_p() == "[2, 4]"


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
    # Bessel pairs of equal smoothness interpolate the integrability, and
    # only with the coupled parameter
    h2 = parse_space("H^{1,(1)}_2(R^1)")
    h4 = parse_space("H^{1,(1)}_4(R^1)")
    out = interpolate_real(h2, h4, F(1, 2), COUPLED)
    assert str(out) == "H^{1,(1)}_{8/3}(R^1)"
    with pytest.raises(NoInterpolationRule):
        interpolate_real(h2, h4, F(1, 2), F(2))


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


def test_check_or_skip_calls_the_predicate_only_when_it_applies():
    def boom() -> bool:
        raise AssertionError("a skipped condition evaluated its predicate")

    rec = BreakpointRecorder()
    env = ParamEnv(F(1, 2), rec)
    log = ConditionLog()
    assert log.check_or_skip("premise fails", "label", "anchor", boom)
    assert log.check_or_skip("premise fails", "side", "anchor",
                             lambda: env.lt(X, F(1, 3)))
    assert rec.points == set()
    assert log.entries == [
        ("label", "anchor", Status.NOT_APPLICABLE, "premise fails"),
        ("side", "anchor", Status.NOT_APPLICABLE, "premise fails")]
    # an applying condition is a check: its comparison records its root
    assert not log.check_or_skip(None, "side", "anchor",
                                 lambda: env.lt(X, F(1, 3)), "note")
    assert rec.points == {F(1, 3)}
    assert log.entries[-1] == ("side", "anchor", Status.FAIL, "note")
    assert not log.ok


def test_premise_gated_conditions_have_one_mechanism():
    # every NOT_APPLICABLE entry of a rule comes from
    # ConditionLog.check_or_skip; superseded() downgrades a whole log
    src = Path(anisocalc.__file__).parent
    allowed = {("embed", "ConditionLog.check_or_skip"),
               ("embed", "ConditionLog.superseded")}
    for name in ("embed", "multiply", "nemytskij"):
        found = []

        def walk(node, scope):
            for child in ast.iter_child_nodes(node):
                inner = scope
                if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
                    inner = f"{scope}.{child.name}" if scope else child.name
                if isinstance(child, ast.Call) and \
                        isinstance(child.func, ast.Attribute) and \
                        child.func.attr == "skip":
                    found.append((".skip(", scope, child.lineno))
                if isinstance(child, ast.Attribute) and \
                        child.attr == "NOT_APPLICABLE" and \
                        (name, scope) not in allowed:
                    found.append(("NOT_APPLICABLE", scope, child.lineno))
                walk(child, inner)

        walk(ast.parse((src / f"{name}.py").read_text()), "")
        assert found == [], f"{name}.py forks a condition by hand: {found}"


def test_besov_bessel_pairs_have_one_rule():
    # the four pairs of the B and H scales share one statement of the
    # embedding theorem; a table holds what differs between the pairs
    from anisocalc import embed
    pairs = [(a, b) for a in (Scale.B, Scale.H) for b in (Scale.B, Scale.H)]
    assert len({embed._RULES[pair] for pair in pairs}) == 1
    tree = ast.parse((Path(anisocalc.__file__).parent / "embed.py").read_text())
    rules = sorted(node.name for node in tree.body
                   if isinstance(node, ast.FunctionDef) and
                   node.name.startswith("_rule_"))
    assert rules == ["_rule_b_l", "_rule_besov_bessel", "_rule_c0",
                     "_rule_h_l"]


@pytest.mark.parametrize("text", [
    # collapses to L at p = 2 only
    "H^{1-2/p,(1)}_p(R^1)",
    # rewrites onto H at p = 2 only, onto B elsewhere
    "W^{2-2/p,(1)}_p(R^1)",
])
def test_symbolic_operand_identified_at_one_p_is_refused(text):
    # both used to be identified at a hidden p = 2
    op = parse_space(text)
    h3 = parse_space("H^{3,(1)}_p(R^1)")
    with pytest.raises(NotIdentifiable, match="changes at p = 2"):
        interpolate_complex(op, h3, F(1, 2))
    with pytest.raises(NotIdentifiable, match="changes at p = 2"):
        interpolate_real(op, h3, F(1, 2), F(2))


def test_symbolic_operand_with_uniform_identification_is_kept():
    h1 = parse_space("H^{1,(1)}_p(R^1)")
    h3 = parse_space("H^{3,(1)}_p(R^1)")
    assert str(interpolate_complex(h1, h3, F(1, 2))) == "H^{2,(1)}_p(R^1)"
    # s in (1, 5/4) is never an integer: W -> B for every p
    w = parse_space("W^{5/4-1/4p,(1)}_p(R^1)")
    w2 = parse_space("W^{1/2,(1)}_p(R^1)")
    assert str(interpolate_complex(w, w2, F(1, 2))) == \
        "B^{7/8 - 1/8p,(1)}_p(R^1)"
