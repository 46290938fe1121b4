"""m-linear multiplication, multiplier and algebra decisions."""

from fractions import Fraction as F
from itertools import combinations

import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from anisocalc import (SCALARS, AffineExpr, Anisotropy, MultInstance, Scale,
                       SpaceDescr, Verdict, decide_algebra,
                       decide_multiplication, decide_multiplier, isotropic,
                       lp_valued, sobolev_index)
from anisocalc import ratcore
from anisocalc.errors import HypothesisViolation, NotIdentifiable
from anisocalc.multiply import _least_subset_sign
from anisocalc.ratcore import BreakpointRecorder, ParamEnv, X

from conftest import rand_aniso, rand_mult_instance, rand_x
from reference import failed_labels

SIG = Anisotropy((1, 2), (2, 1))  # time-space product of total dimension 3
VAL = lp_valued("Rdot")


def _stefan_flux_instance(p: F) -> MultInstance:
    x = F(1, 1) / p
    w = SpaceDescr.sobolev(1 - x, x, SIG, SCALARS, "JxSigma")
    h1 = SpaceDescr.bessel(1, x, SIG, VAL, "JxSigma")
    h0 = SpaceDescr.lebesgue(x, SIG, VAL, "JxSigma")
    return MultInstance.of((w, h1), h0)


def test_flux_coupling_threshold():
    # indices at p = 3: -1/3 and -1/6 sum to -1/2 >= -2/3
    inst = _stefan_flux_instance(F(3))
    assert sobolev_index(inst.factors[0]) == AffineExpr(F(-1, 3))
    assert sobolev_index(inst.factors[1]) == AffineExpr(F(-1, 6))
    assert sobolev_index(inst.target) == AffineExpr(F(-2, 3))
    assert decide_multiplication(inst).verdict is Verdict.COVERED
    # at p = 2 the sum -5/4 lies below the target index -1
    low = _stefan_flux_instance(F(2))
    d = decide_multiplication(low)
    assert d.verdict is Verdict.NOT_COVERED
    assert d.first_failure().anchor == "mult.iii"


def test_multiplier_gradient_threshold():
    def inst(p: F) -> MultInstance:
        x = F(1, 1) / p
        w = SpaceDescr.sobolev(2 - x, x, SIG, SCALARS, "JxSigma")
        h0 = SpaceDescr.lebesgue(x, SIG, VAL, "JxSigma")
        return MultInstance.of((w, w, h0), h0)

    assert decide_multiplier(inst(F(3)), 3).verdict is Verdict.COVERED
    d = decide_multiplier(inst(F(2)), 3)
    assert d.verdict is Verdict.NOT_COVERED
    assert d.first_failure().anchor == "multiplier.index-positive"


def test_multiplier_requires_pivot_match():
    inst = _stefan_flux_instance(F(3))
    with pytest.raises(HypothesisViolation):
        decide_multiplier(inst, 1)


def test_algebra_thresholds():
    def trace_space(p: F) -> SpaceDescr:
        x = F(1, 1) / p
        return SpaceDescr.sobolev(1 - x, x, SIG, SCALARS, "JxSigma")

    assert decide_algebra(trace_space(F(6))).verdict is Verdict.COVERED
    assert decide_algebra(trace_space(F(4))).verdict is Verdict.NOT_COVERED
    # second-order parabolic space: smoothness 2 = lcm(2,1) * 1
    h2 = SpaceDescr.bessel(2, F(1, 4), SIG, SCALARS, "JxSigma")
    assert decide_algebra(h2).verdict is Verdict.COVERED


def test_algebra_needs_algebra_flag():
    sp = SpaceDescr.bessel(2, F(1, 4), SIG, VAL, "JxSigma")
    with pytest.raises(HypothesisViolation):
        decide_algebra(sp)


def test_hoelder_cases():
    a = isotropic(3)

    def holder(xs, xt):
        facs = tuple(SpaceDescr.lebesgue(v, a) for v in xs)
        return MultInstance.of(facs, SpaceDescr.lebesgue(xt, a))

    assert decide_multiplication(holder((F(1, 4), F(1, 4)), F(1, 2))).covered
    assert not decide_multiplication(holder((F(1, 4), F(1, 4)), F(1, 3))).covered
    assert not decide_multiplication(holder((F(1, 4), F(1, 4)), F(2, 3))).covered


def test_hoelder_characterization_small():
    # covered iff the reciprocals add up exactly (denominators <= 6)
    a = isotropic(2)
    xs = [F(n, d) for d in range(2, 7) for n in range(1, d)]
    xs = sorted(set(xs))
    for x1 in xs:
        for x2 in xs:
            for xt in xs:
                facs = (SpaceDescr.lebesgue(x1, a), SpaceDescr.lebesgue(x2, a))
                inst = MultInstance.of(facs, SpaceDescr.lebesgue(xt, a))
                got = decide_multiplication(inst).covered
                assert got == (x1 + x2 == xt)


def _two_branch(ind: F, inds: list[F]) -> bool:
    if all(v >= 0 for v in inds):
        return ind <= min(inds)
    return ind <= sum(v for v in inds if v < 0)


def _sign(v: F) -> int:
    return (v > 0) - (v < 0)


def test_subset_form_equals_two_branch_form(rng):
    env = ParamEnv.concrete()
    for _ in range(10_000):
        m = rng.randint(1, 4)
        inds = [F(rng.randint(-12, 12), rng.randint(1, 8)) for _ in range(m)]
        ind = F(rng.randint(-12, 12), rng.randint(1, 8))
        sign = _least_subset_sign(AffineExpr(ind),
                                  [AffineExpr(v) for v in inds], env)
        assert sign == min(_sign(sum(c) - ind) for k in range(1, m + 1)
                           for c in combinations(inds, k))
        assert (sign >= 0) == _two_branch(ind, inds)


_RATS = st.builds(F, st.integers(-1000, 1000), st.integers(1, 1000))


@st.composite
def _subset_cases(draw):
    """(witness, ind, inds) with 1 to 4 factor indices; ind may tie with
    one subset sum everywhere or cross it exactly at the witness."""
    den = draw(st.integers(2, 1000))
    w = F(draw(st.integers(1, den - 1)), den)
    inds = [AffineExpr(draw(_RATS), draw(_RATS))
            for _ in range(draw(st.integers(1, 4)))]
    subset = [e for e in inds if draw(st.booleans())] or inds[:1]
    tie = sum(subset, AffineExpr())
    ind = draw(st.sampled_from((
        AffineExpr(draw(_RATS), draw(_RATS)), tie,
        tie + draw(_RATS.filter(bool)) * (X - w))))
    return w, ind, inds


@seed(20261018)
@settings(max_examples=300, deadline=None, database=None)
@given(_subset_cases())
# x - (-4 + 7x)/2 vanishes at 4/5, met only from the cell above 4/7
@example((F(1, 2), AffineExpr(F(-2), F(7, 2)), [AffineExpr(F(-2), F(7, 2)), X]))
def test_subset_index_signs_match_fraction_subset_sums(case):
    w, ind, inds = case
    # the oracle: every subset sum minus ind as a (constant, slope) pair
    diffs = [(sum(e.constant for e in c) - ind.constant,
              sum(e.slope for e in c) - ind.slope)
             for k in range(1, len(inds) + 1) for c in combinations(inds, k)]

    def least(x: F) -> int:
        return min(_sign(a + b * x) for a, b in diffs)

    assert _least_subset_sign(ind, inds, ParamEnv(w)) == least(w)
    rec = BreakpointRecorder()
    assert _least_subset_sign(ind, inds, ParamEnv(w, rec)) == least(w)
    # as the solver does: evaluate at the middle of every recorded cell
    # until no point is added; then the oracle is constant on each cell
    while True:
        cuts = [F(0), *sorted(rec.points), F(1)]
        for lo, hi in zip(cuts, cuts[1:]):
            mid = (lo + hi) / 2
            assert _least_subset_sign(ind, inds, ParamEnv(mid, rec)) == \
                least(mid)
        if len(rec.points) == len(cuts) - 2:
            break
    roots = sorted({-a / b for a, b in diffs if b and 0 < -a / b < 1})
    for lo, hi in zip(cuts, cuts[1:]):
        inner = [r for r in roots if lo < r < hi]
        probes = [*inner, *((u + v) / 2 for u, v in
                            zip([lo, *inner], [*inner, hi]))]
        assert len({least(x) for x in probes}) == 1


@pytest.mark.parametrize("m", [4, 8, 12])
def test_concrete_multiplication_makes_linear_comparisons(monkeypatch, m):
    # (iii) reads the least subset sum, not all 2^m - 1 of them; the
    # instance passes every condition, with positive factor indices, so
    # the only form the arithmetic builds is (ii)'s sum: m - 1 additions
    a = isotropic(3)
    facs = tuple(SpaceDescr.bessel(2, F(1, 2 * m), a) for _ in range(m))
    inst = MultInstance.of(facs, SpaceDescr.bessel(1, F(1, 2), a))
    cmp, calls, build, forms = ParamEnv.cmp, [], ratcore.from_lowered, []
    monkeypatch.setattr(ParamEnv, "cmp", lambda env, lhs, rhs:
                        calls.append(1) or cmp(env, lhs, rhs))
    monkeypatch.setattr(ratcore, "from_lowered", lambda *abd:
                        forms.append(1) or build(*abd))
    assert decide_multiplication(inst).covered
    assert len(calls) <= 10 * m
    assert len(forms) <= m - 1


def test_negative_subset_sum_builds_no_spare_form(monkeypatch):
    # the least subset sum of (iii) is the one negative factor index
    # itself, and (ii) adds the three reciprocals in two additions
    x = F(1, 3)
    facs = (SpaceDescr.sobolev(2 - x, x, SIG, SCALARS, "JxSigma"),
            SpaceDescr.sobolev(F(5, 2) - x, x, SIG, SCALARS, "JxSigma"),
            SpaceDescr.lebesgue(F(1, 4), SIG, SCALARS, "JxSigma"))
    inst = MultInstance.of(
        facs, SpaceDescr.lebesgue(F(1, 2), SIG, SCALARS, "JxSigma"))
    forms, build = [], ratcore.from_lowered
    monkeypatch.setattr(ratcore, "from_lowered", lambda *abd:
                        forms.append(1) or build(*abd))
    assert decide_multiplication(inst).covered
    assert len(forms) <= 2


def test_permutation_invariance(rng):
    import itertools
    for _ in range(300):
        inst = rand_mult_instance(rng, max_m=3)
        try:
            base = decide_multiplication(inst).verdict
        except (HypothesisViolation, NotIdentifiable):
            continue
        for perm in itertools.permutations(range(inst.m)):
            facs = tuple(inst.factors[i] for i in perm)
            permuted = MultInstance.of(facs, inst.target)
            assert decide_multiplication(permuted).verdict is base


def test_algebra_implies_square_multiplication(rng):
    hits = 0
    for _ in range(500):
        inst = rand_mult_instance(rng, max_m=1)
        sp = inst.target
        if not sp.target.banach_algebra:
            continue
        try:
            if not decide_algebra(sp).covered:
                continue
        except (HypothesisViolation, NotIdentifiable):
            continue
        hits += 1
        square = MultInstance.of((sp, sp), sp)
        assert decide_multiplication(square).covered
    assert hits > 20


def test_hidden_constraint_on_covered_instances(rng):
    # equality in the subset index inequality forces the corresponding
    # reciprocal sum to dominate; bias generation toward exact equality
    from conftest import rand_aniso, rand_space

    hits = 0
    for _ in range(3000):
        aniso = rand_aniso(rng)
        m = rng.randint(1, 3)
        factors = tuple(rand_space(rng, aniso) for _ in range(m))
        subset = tuple(j for j in range(m) if rng.random() < 0.6) or (0,)
        x_t = rand_x(rng)
        ind_sum = sum(sobolev_index(factors[j])(F(1, 2)) for j in subset)
        s_t = aniso.omega_dot * ind_sum + aniso.omega_dot_n * x_t
        if s_t < 0:
            continue
        scale = rng.choice((Scale.B, Scale.H))
        target = (SpaceDescr.besov(s_t, x_t, aniso) if scale is Scale.B
                  else SpaceDescr.bessel(s_t, x_t, aniso))
        inst = MultInstance.of(factors, target)
        try:
            if not decide_multiplication(inst).covered:
                continue
        except (HypothesisViolation, NotIdentifiable):
            continue
        ind = sobolev_index(inst.target)(F(1, 2))
        inds = [sobolev_index(f)(F(1, 2)) for f in inst.factors]
        xs = [f.x.constant for f in inst.factors]
        for r in range(1, inst.m + 1):
            for M in combinations(range(inst.m), r):
                if sum(inds[j] for j in M) == ind:
                    hits += 1
                    assert inst.target.x.constant <= sum(xs[j] for j in M)
    assert hits > 50


def test_planar_borderline_fails_only_through_d():
    # the planar pair at integrability two fails only through the
    # divisibility branch of constraint (d), which is flagged
    a = Anisotropy((1, 1), (1, 1))
    facs = (SpaceDescr.bessel(F(5, 2), F(1, 2), a),
            SpaceDescr.bessel(F(3, 2), F(1, 2), a))
    d = decide_multiplication(
        MultInstance.of(facs, SpaceDescr.bessel(F(3, 2), F(1, 2), a)))
    assert d.verdict is Verdict.NOT_COVERED
    assert failed_labels(d) == ["(d) smoothness multiple of lcm(w), or (i) "
                                 "strict, or equality in (ii)"]
    assert "(d)-only" in [e.note for e in d.trace if e.anchor == "mult.d"][0]


def test_unregistered_signature_raises():
    a = isotropic(2)
    v1 = lp_valued("A")
    v2 = lp_valued("B")
    f1 = SpaceDescr.bessel(2, F(1, 4), a, v1)
    f2 = SpaceDescr.bessel(2, F(1, 4), a, v2)
    tgt = SpaceDescr.bessel(1, F(1, 4), a, v1)
    with pytest.raises(HypothesisViolation,
                       match=r"^inadmissible value-space product "
                             r"\(Lp\(A\), Lp\(B\)\) -> Lp\(A\)$"):
        decide_multiplication(MultInstance.of((f1, f2), tgt))


def test_independent_micro_scale_not_covered():
    # the results cover the one-parameter Besov scale only
    a = isotropic(2)
    b_off = SpaceDescr.besov(2, F(1, 2), a, F(1, 3))   # q = 3 != p = 2
    tgt = SpaceDescr.besov(1, F(1, 2), a)
    d = decide_multiplication(MultInstance.of((b_off, tgt), tgt))
    assert d.verdict is Verdict.NOT_COVERED
    assert d.first_failure().anchor == "mult.besov-micro"
    d2 = decide_multiplier(MultInstance.of((b_off, tgt), tgt), 2)
    assert d2.first_failure().anchor == "mult.besov-micro"


def test_zero_order_besov_target_refused():
    # products never land in a zero-smoothness Besov target
    a = isotropic(2)
    b0 = SpaceDescr.besov(0, F(1, 2), a)
    facs = (SpaceDescr.besov(0, F(1, 4), a), SpaceDescr.besov(0, F(1, 4), a))
    d = decide_multiplication(MultInstance.of(facs, b0))
    assert d.verdict is Verdict.NOT_COVERED
    assert "mult.b" in failed_labels(d) or \
        any(e.anchor == "mult.b" for e in d.trace if e.status.value == "FAIL")


def test_higher_order_equal_smoothness_products(rng):
    # equal positive smoothness with exactly matching reciprocals: covered
    # on the Bessel-potential scale (equality in (ii) discharges (d)); on
    # the Besov scale constraint (b) demands equal integrability verbatim,
    # so distinct exponents stay NOT_COVERED
    for _ in range(300):
        aniso = rand_aniso(rng)
        m = rng.randint(2, 3)
        xs = [F(1, rng.randint(3, 8) * m) for _ in range(m)]
        xt = sum(xs)
        if not xt < 1:
            continue
        s = F(rng.randint(1, 12), rng.randint(1, 4))
        h_inst = MultInstance.of(
            tuple(SpaceDescr.bessel(s, x, aniso) for x in xs),
            SpaceDescr.bessel(s, xt, aniso))
        assert decide_multiplication(h_inst).covered, h_inst
        b_inst = MultInstance.of(
            tuple(SpaceDescr.besov(s, x, aniso) for x in xs),
            SpaceDescr.besov(s, xt, aniso))
        d = decide_multiplication(b_inst)
        assert not d.covered
        assert d.first_failure().anchor == "mult.b"


def test_algebra_matches_direct_criterion(rng):
    # independent oracle: covered iff the index is positive and, on the
    # Bessel-potential scale, the smoothness is a positive multiple of
    # lcm(w); off one-parameter Besov descriptors are never covered
    from conftest import rand_space
    from anisocalc import normalize, Scale as Sc
    from anisocalc.spaces import effective_scale

    checked = 0
    for _ in range(2000):
        aniso = rand_aniso(rng)
        sp = rand_space(rng, aniso, scales=(Sc.B, Sc.H, Sc.W, Sc.L))
        try:
            norm = normalize(sp)
        except Exception:
            continue
        got = decide_algebra(sp).covered
        x = sp.x.constant
        ind = sobolev_index(norm)(x)
        expect = ind > 0
        if norm.scale is Sc.B and norm.y is not None and norm.y != x:
            expect = False
        if effective_scale(norm) is Sc.H:
            s = norm.s.constant
            wd = aniso.omega_dot
            expect = expect and s > 0 and (s / wd).denominator == 1
        assert got == expect, (sp, norm, ind)
        checked += 1
    assert checked > 1500
