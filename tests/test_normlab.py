"""Numerical seminorm probes: quadrature sanity and scaling laws."""

import importlib
import itertools
import json
import math
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest

import anisocalc
from anisocalc import (SCALARS, MultInstance, SpaceDescr, isotropic,
                       normlab, parabolic)
from anisocalc.dsl import parse_space
from anisocalc.errors import ResolutionError, Unsupported, WrongScale
from anisocalc.normlab import (GaussianSpec, GridFunction,
                               _difference_power_sum, _difference_square_sums,
                               _fft_length, _square_form, dilated_seminorms,
                               dilation_scaling_exponent, seminorm_besov,
                               seminorm_slobodeckij)

from conftest import run_cli
from reference import UncoveredInstance, check_product_estimate, full_norm
from test_dsl import _SEMINORMS

ISO1 = isotropic(1)
W12 = SpaceDescr.sobolev(F(1, 2), F(1, 2), ISO1, SCALARS, "R^1")
W34 = SpaceDescr.sobolev(F(3, 4), F(1, 2), ISO1, SCALARS, "R^1")
B12 = SpaceDescr.besov(F(1, 2), F(1, 2), ISO1, None, SCALARS, "R^1")


def _gauss(dx=0.02, radius=12.0, sigma=1.0):
    return GaussianSpec((sigma,)).sample((1,), (dx,), radius)


def test_zero_function_has_zero_seminorm():
    u = _gauss()
    zero = GridFunction(u.slice_dims, u.spacings,
                        np.zeros_like(u.samples), u.decay_radius)
    assert seminorm_slobodeckij(zero, W12).value == 0.0
    assert seminorm_besov(zero, B12).value == 0.0


def test_homogeneity():
    u = _gauss()
    base = seminorm_slobodeckij(u, W12).value
    for c in (3.0, -0.25):
        scaled = GridFunction(u.slice_dims, u.spacings, c * u.samples,
                              u.decay_radius)
        got = seminorm_slobodeckij(scaled, W12).value
        assert abs(got - abs(c) * base) <= 1e-9 * abs(c) * base


def test_translation_invariance():
    u = _gauss()
    base = seminorm_slobodeckij(u, W12).value
    shifted = GridFunction(u.slice_dims, u.spacings,
                           np.roll(u.samples, 37), u.decay_radius)
    got = seminorm_slobodeckij(shifted, W12).value
    assert abs(got - base) <= 1e-6 * base


def test_known_gaussian_value():
    # closed form for the unit Gaussian: the squared seminorm integrates to
    # 2 pi, up to the reported truncation
    res = seminorm_slobodeckij(_gauss(), W12)
    exact = math.sqrt(2 * math.pi)
    assert abs(res.value - exact) <= 0.05 * exact
    assert res.truncation_error_estimate > 0


def _spectral_seminorm(u: GridFunction, sigma: float, pad: int = 8) -> float:
    """The W^sigma_2 seminorm of one isotropic slice R^n in Fourier form
    (Di Nezza, Palatucci and Valdinoci 2012, Prop. 3.4):
    sqrt(c(n, sigma) / (2 pi)^n * int |xi|^{2 sigma} |u^(xi)|^2 dxi) with
    c(n, s) = 2 pi^{n/2} Gamma(1 - s) / (s 4^s Gamma(n/2 + s)), which at
    n = 1 is 4 Gamma(1 - 2s) cos(pi s) / (2s) by the duplication and
    reflection formulas and stays finite at s = 1/2 (c = 2 pi).  The
    transform is the FFT of the samples zero-padded to at least ``pad``
    times their length along each axis."""
    dx = u.spacings[0]
    n = u.samples.ndim
    shape = [1 << (pad * m - 1).bit_length() for m in u.samples.shape]
    uhat = np.fft.fftn(u.samples, shape, axes=range(n)) * dx ** n
    xi2 = sum(np.meshgrid(*((2 * np.pi * np.fft.fftfreq(m, d=dx)) ** 2
                            for m in shape), indexing="ij", sparse=True))
    integral = np.sum(xi2 ** sigma * np.abs(uhat) ** 2) * \
        math.prod(2 * np.pi / (m * dx) for m in shape)
    c = 2 * math.pi ** (n / 2) * math.gamma(1 - sigma) / (
        sigma * 4 ** sigma * math.gamma(n / 2 + sigma))
    return math.sqrt(c / (2 * math.pi) ** n * integral)


@pytest.mark.parametrize("spec", [GaussianSpec((1.0,)),
                                  GaussianSpec((1.0,), (3.0,))],
                         ids=["plain", "modulated"])
@pytest.mark.parametrize("s", [F(1, 4), F(1, 2), F(3, 4)])
def test_spectral_oracle_at_p2(spec, s):
    # the quadrature drops the core and the tail of the step-size integral,
    # so it stays below the Fourier value by at most the reported truncation
    u = spec.sample((1,), (0.02,), 12.0)
    space = SpaceDescr.sobolev(s, F(1, 2), ISO1, SCALARS, "R^1")
    res = seminorm_slobodeckij(u, space)
    exact = _spectral_seminorm(u, float(s))
    assert res.value <= exact
    assert exact - res.value <= res.truncation_error_estimate + 1e-3 * exact


@pytest.mark.parametrize("sigmas, spacing, radius",
                         [((1.0, 1.5), 0.1, 6.0),
                          ((1.0, 1.25, 1.5), 0.3, 4.5)], ids=["R2", "R3"])
@pytest.mark.parametrize("s", [F(1, 4), F(1, 2), F(3, 4)])
def test_spectral_oracle_on_multidimensional_slices(sigmas, spacing, radius,
                                                    s):
    # the direction rules of R^2 and R^3 slices, on a Gaussian with unequal
    # widths so that the difference norms depend on the direction; on these
    # coarse grids the quadrature meets the Fourier value within its
    # truncation plus 1 %
    n = len(sigmas)
    u = GaussianSpec(sigmas).sample((n,), (spacing,), radius)
    space = SpaceDescr.sobolev(s, F(1, 2), isotropic(n), SCALARS, f"R^{n}")
    res = seminorm_slobodeckij(u, space)
    exact = _spectral_seminorm(u, float(s), pad=4)
    assert res.value <= exact
    assert exact - res.value <= res.truncation_error_estimate + 1e-2 * exact


def _padded_difference_power_sum(v, axes, shift, coeffs, p):
    """Reference for ``_difference_power_sum``: zero-pad the slice axes past
    the largest shift, then blend integer-shifted slices of the padded
    array over the corners of each cell."""
    shift = np.asarray(shift, dtype=float)
    pad = int(np.ceil(np.max(np.abs(shift)) * (len(coeffs) - 1))) + 2
    vp = np.pad(v, [(pad, pad) if ax in axes else (0, 0)
                    for ax in range(v.ndim)])
    acc = np.zeros_like(vp)
    for i, c in enumerate(coeffs):
        t = i * shift
        cells = np.floor(t).astype(int)
        frac = t - cells
        for corner in itertools.product((0, 1), repeat=len(axes)):
            w = c * math.prod(f if e else 1 - f for f, e in zip(frac, corner))
            # shifted[n] = vp[n + off] along each slice axis, zero beyond
            shifted = np.zeros_like(vp)
            dst = [slice(None)] * v.ndim
            src = [slice(None)] * v.ndim
            for ax, off in zip(axes, cells + np.array(corner)):
                n = vp.shape[ax]
                dst[ax] = slice(max(0, -off), min(n, n - off))
                src[ax] = slice(max(0, off), min(n, n + off))
            shifted[tuple(dst)] = vp[tuple(src)]
            acc += w * shifted
    return float(np.sum(np.abs(acc) ** p))


@pytest.mark.parametrize("shape, axes", [((17,), [0]), ((9, 11), [0, 1]),
                                         ((5, 6, 7), [0, 1, 2]),
                                         ((8, 9), [1])],
                         ids=["1d", "2d", "3d", "1d-of-2d"])
@pytest.mark.parametrize("coeffs", [(-1, 1), (1, -2, 1)],
                         ids=["order1", "order2"])
@pytest.mark.parametrize("p", [2.0, 1.5])
def test_difference_power_sum_matches_padded_reference(shape, axes, coeffs, p):
    rng = np.random.default_rng(7)
    v = rng.standard_normal(shape)
    extent = max(shape[ax] for ax in axes)
    shifts = [
        [0.3, -0.45, 0.7][:len(axes)],                       # sub-cell
        [3.7, -2.25, 4.0][:len(axes)],                       # multi-cell
        [-(extent + 2.5), 0.5, extent + 1.0][:len(axes)],    # off the grid
        [0.0, 2.0, -1.0][:len(axes)],                        # whole cells
    ]
    wants = [_padded_difference_power_sum(v, axes, shift, coeffs, p)
             for shift in shifts]
    for shift, want in zip(shifts, wants):
        got = _difference_power_sum(v, axes, np.array(shift), coeffs, p)
        assert abs(got - want) <= 1e-12 * want
    if p == 2:
        # the autocorrelation's Gram form, all shifts in one call; off the
        # grid every lag between distinct copies is out of range.  A second
        # difference within one cell of a line vanishes exactly (the copies
        # interpolate linearly), and there the form leaves rounding of its
        # size sum(c^2) sum(v^2), where the grid sum leaves its square
        got = _difference_square_sums(
            v, _square_form(v.shape, axes, np.array(shifts), coeffs))
        assert got.shape == (len(shifts),)
        size = sum(c * c for c in coeffs) * float(np.sum(v ** 2))
        for g, want in zip(got, wants):
            assert abs(g - want) <= 1e-11 * want + 1e-14 * size


def test_square_sums_are_never_negative():
    # the Gram form of a vanishing second difference can round below 0,
    # and a Besov micro-scale q != 2 would raise that to a nan
    rng = np.random.default_rng(0)
    v = rng.standard_normal(200)
    shifts = np.array([[0.5], [-0.5], [0.25], [0.1], [0.0]])
    form = _square_form(v.shape, [0], shifts, (1, -2, 1))
    assert np.all(_difference_square_sums(v, form) >= 0)
    u = GridFunction((1,), (0.05,), v, 5.0)
    b = SpaceDescr.besov(F(3, 2), F(1, 2), ISO1, F(1, 3), SCALARS, "R^1")
    assert math.isfinite(seminorm_besov(u, b).value)


def test_dilation_fit_leaves_scipy_unloaded():
    code = ("import sys\n"
            "from fractions import Fraction as F\n"
            "from anisocalc import SCALARS, SpaceDescr, isotropic\n"
            "from anisocalc.normlab import GaussianSpec, "
            "dilation_scaling_exponent\n"
            "sp = SpaceDescr.sobolev(F(1, 2), F(1, 2), isotropic(1), SCALARS, "
            "'R^1')\n"
            "dilation_scaling_exponent(sp, GaussianSpec((1.0,)), [0.5, 1.0, 2.0], "
            "(0.1,), 8.0)\n"
            "assert 'scipy' not in sys.modules, 'scipy was imported'\n")
    src = Path(anisocalc.__file__).parents[1]
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("spec", [GaussianSpec((1.0, 2.0)),
                                  GaussianSpec((1.0,), (1.0, 2.0))],
                         ids=["sigmas", "freqs"])
def test_gaussian_refuses_a_wrong_axis_count(spec):
    # the dilation used to drop the values past the last axis silently
    with pytest.raises(ValueError, match="per axis"):
        dilation_scaling_exponent(W12, spec, [1.0, 2.0], (0.02,), 12.0)


@pytest.mark.parametrize("lambdas", [[2.0, 2.0], [1.0], []])
def test_scaling_exponent_refuses_fewer_than_two_lambdas(monkeypatch, lambdas):
    # [2.0, 2.0] used to fit a slope of 0.645 and [1.0] a nan, with only a
    # RankWarning
    def no_sampling(*args):
        raise AssertionError("sampled before refusing")

    monkeypatch.setattr(GaussianSpec, "sample", no_sampling)
    with pytest.raises(ValueError, match="two distinct dilations"):
        dilation_scaling_exponent(W12, GaussianSpec((1.0,)), lambdas,
                                  (0.02,), 12.0)


def test_grid_size_bound_names_the_count():
    # four axes of 501 points used to ask numpy for 469 GiB
    with pytest.raises(Unsupported, match="63001502001 points"):
        GaussianSpec((1.0,) * 4).sample((1, 1, 1, 1), (0.04,) * 4, 10.0)
    # a radius of 1e308 used to raise OverflowError from round(inf)
    with pytest.raises(Unsupported, match="overflows"):
        GaussianSpec((1.0,)).sample((1,), (0.04,), 1e308)


@pytest.mark.parametrize("text, error", [
    ("W^{1,(1)}_2(R^3)", WrongScale),        # integer ratio s/w_1
    ("B^{0,(1)}_2(R^1)", WrongScale),        # s <= 0 on B
    ("B^{1/2,(1)}_oo(R^1)", WrongScale),     # infinite p
    ("B^{1/2,(1)}_2_oo(R^1)", WrongScale),   # infinite q
    ("W^{1/2,(1)}_p(R^1)", Unsupported),     # symbolic parameters
])
def test_dilated_seminorms_refuse_before_sampling(monkeypatch, text, error):
    # W^{1,(1)}_2(R^3) used to fill a 959 MiB grid before its refusal
    def no_sampling(*args):
        raise AssertionError("sampled before refusing")

    monkeypatch.setattr(GaussianSpec, "sample", no_sampling)
    space = parse_space(text)
    spec = GaussianSpec((1.0,) * sum(space.aniso.dims))
    with pytest.raises(error):
        dilated_seminorms(space, spec, [1.0], (0.04,), 10.0)


@pytest.mark.parametrize("text, freqs, lambdas, match", [
    # the dilation by 256 is 1/256 wide on a 1/25 grid
    ("W^{3/4,(1)}_2(R^1)", None, [1.0, 16.0, 256.0, 65536.0, 1e12],
     "lambda = 256 .* axis 1"),
    # a frequency of 1e6 aliases on a 1/25 grid (pi/spacing is 78.5)
    ("W^{3/4,(1)}_2(R^1)", (1e6,), [1.0], "lambda = 1 .* axis 1"),
    # the slow axis of a parabolic dilation is the one unresolved
    ("W^{1/2,(2,1)}_2(R^{1x1})", None, [8.0], "lambda = 8 .* axis 1"),
    ("W^{1/2,(2,1)}_2(R^{1x1})", (0.0, 50.0), [2.0], "lambda = 2 .* axis 2"),
    # lambda^w overflows a float, or underflows to zero
    ("W^{1/2,(2,1)}_2(R^{1x1})", None, [1e200], "overflows"),
    ("W^{1/2,(2,1)}_2(R^{1x1})", None, [1e-200], "overflows"),
])
def test_unresolved_dilations_refused_before_sampling(monkeypatch, text, freqs,
                                                      lambdas, match):
    # they used to print saturated or aliased values with exit 0
    def no_sampling(*args):
        raise AssertionError("sampled before refusing")

    monkeypatch.setattr(GaussianSpec, "sample", no_sampling)
    space = parse_space(text)
    n = sum(space.aniso.dims)
    with pytest.raises(ResolutionError, match=match):
        dilated_seminorms(space, GaussianSpec((1.0,) * n, freqs), lambdas,
                          (0.04,) * len(space.aniso.dims), 10.0)


def test_resolution_bound_is_strict():
    # width exactly one spacing, and frequency exactly pi/spacing, are kept
    # (perfbench's probe-2d sits at one spacing); one step further is not
    parabolic2 = parse_space("W^{1/2,(2,1)}_2(R^{1x1})")
    rows = dilated_seminorms(parabolic2, GaussianSpec((1.0, 1.0)),
                             [1.0, 2.0], (0.25, 0.25), 4.0)
    assert [lam for lam, _ in rows] == [1.0, 2.0]
    edge = GaussianSpec((1.0,), (math.pi / 0.25,))
    assert dilated_seminorms(W12, edge, [1.0], (0.25,), 4.0)[0][1] > 0
    with pytest.raises(ResolutionError, match=r"lambda = 2\.001 .* axis 1"):
        dilated_seminorms(parabolic2, GaussianSpec((1.0, 1.0)),
                          [2.001], (0.25, 0.25), 4.0)
    with pytest.raises(ResolutionError, match="axis 1"):
        dilated_seminorms(W12, GaussianSpec((1.0,), (math.pi / 0.25 * 1.001,)),
                          [1.0], (0.25,), 4.0)


def test_quadrature_convergence_under_halving():
    coarse = seminorm_slobodeckij(_gauss(dx=0.04), W12).value
    fine = seminorm_slobodeckij(_gauss(dx=0.02), W12).value
    assert abs(fine - coarse) <= 0.02 * coarse


def test_resolution_guard():
    u = GaussianSpec((1.0,)).sample((1,), (1.0,), 2.0)
    with pytest.raises(ResolutionError):
        seminorm_slobodeckij(u, W12)


def test_integer_slice_ratio_refused():
    w1 = SpaceDescr.sobolev(F(1), F(1, 2), ISO1, SCALARS, "R^1")
    with pytest.raises(WrongScale):
        seminorm_slobodeckij(_gauss(), w1)


def test_wrong_scale_refused():
    with pytest.raises(WrongScale):
        seminorm_slobodeckij(_gauss(), B12)
    with pytest.raises(WrongScale):
        seminorm_besov(_gauss(), W12)


def test_dilation_scaling_isotropic():
    lams = [0.25, 0.5, 1.0, 2.0, 4.0]
    slope, _ = dilation_scaling_exponent(W12, GaussianSpec((1.0,)), lams,
                                         (0.02,), 20.0)
    assert abs(slope - 0.0) <= 0.1
    slope34, _ = dilation_scaling_exponent(W34, GaussianSpec((1.0,)), lams,
                                           (0.02,), 20.0)
    assert abs(slope34 - 0.25) <= 0.1


def test_dilation_scaling_parabolic():
    # weights (2, 1) over a 2-dimensional product: exponent is
    # lcm(w) * ind = s - 3/p
    aniso = parabolic(1)
    sp = SpaceDescr.sobolev(F(1, 2), F(1, 2), aniso, SCALARS, "JxSigma")
    expect = float(F(1, 2) - F(3, 2))
    slope, _ = dilation_scaling_exponent(sp, GaussianSpec((1.0, 1.0)),
                                         [0.5, 1.0, 2.0], (0.05, 0.05), 6.0)
    assert abs(slope - expect) <= 0.1 * abs(expect)


def test_besov_slobodeckij_equivalence_ratio():
    # at micro-scale = integrability the two quadratures define equivalent
    # norms; the ratio stays within one order of magnitude across
    # resolutions
    for dx in (0.08, 0.056, 0.04, 0.028, 0.02):
        u = _gauss(dx=dx)
        w = seminorm_slobodeckij(u, W12).value
        b = seminorm_besov(u, B12).value
        assert 0.1 <= b / w <= 10.0


@pytest.mark.parametrize("s, aniso, label, u", [
    (F(1, 2), ISO1, "R^1", _gauss(dx=0.04, radius=8.0)),
    (F(3, 4), ISO1, "R^1", _gauss(dx=0.04, radius=8.0)),
    (F(1, 2), parabolic(1), "JxSigma",
     GaussianSpec((1.0, 1.0)).sample((1, 1), (0.1, 0.1), 5.0)),
], ids=["R1-1/2", "R1-3/4", "parabolic-1/2"])
def test_besov_at_q_equal_p_is_slobodeckij_below_one(s, aniso, label, u):
    # with 0 < s/w_k < 1 on every slice both scales take first differences
    # of u itself at q = p: the identity behind the W -> B rewrite
    w = SpaceDescr.sobolev(s, F(1, 2), aniso, SCALARS, label)
    b = SpaceDescr.besov(s, F(1, 2), aniso, None, SCALARS, label)
    rw, rb = seminorm_slobodeckij(u, w), seminorm_besov(u, b)
    assert rb.value == rw.value
    assert rb.truncation_error_estimate == rw.truncation_error_estimate


def test_seminorm_meta_slices():
    # ``order`` counts derivatives on W and differences on B; the traced
    # benchmark prices each evaluation from these keys
    u = _gauss(dx=0.04, radius=8.0)
    w = SpaceDescr.sobolev(F(3, 2), F(1, 3), ISO1, SCALARS, "R^1")
    assert seminorm_slobodeckij(u, w).meta == {"slices": [
        {"slice": 1, "order": 1, "sigma": 0.5, "radial_nodes": 53,
         "r_range": (0.02, 32.0)}]}
    u2 = GaussianSpec((1.0, 1.0)).sample((1, 1), (0.1, 0.1), 5.0)
    b = SpaceDescr.besov(F(3, 2), F(1, 2), parabolic(1), F(1, 4), SCALARS,
                         "JxSigma")
    assert seminorm_besov(u2, b).meta == {"slices": [
        {"slice": k, "order": order, "sigma": sigma, "radial_nodes": 43,
         "r_range": (0.05, 20.0)}
        for k, order, sigma in ((1, 1, 0.75), (2, 2, 1.5))]}


@pytest.fixture
def fresh_plans():
    """An empty plan cache, and none left behind for the next test."""
    normlab._grid_plan.cache_clear()
    yield
    normlab._grid_plan.cache_clear()


@pytest.mark.parametrize("text, spec, spacing, radius", [
    ("W^{3/2,(1)}_2(R^1)", GaussianSpec((1.0,)), 0.05, 8.0),
    ("B^{3/2,(1)}_{2,2}(R^1)", GaussianSpec((1.0,)), 0.05, 8.0),
    ("W^{1/2,(2,1)}_2(R^{1x1})", GaussianSpec((1.0, 1.2)), 0.1, 5.0),
    ("W^{1/2,(1)}_2(R^2)", GaussianSpec((1.0, 1.5)), 0.2, 3.0),
    ("W^{1/2,(1)}_2(R^3)", GaussianSpec((1.0, 1.25, 1.5)), 0.3, 4.5),
    ("W^{1/2,(1)}_2(R^1)", GaussianSpec((1.0,), (3.0,)), 0.02, 12.0),
], ids=["W-derivative", "B-second-difference", "parabolic", "R2", "R3",
        "modulated"])
def test_square_sums_match_the_grid_sums(monkeypatch, fresh_plans, text, spec,
                                         spacing, radius):
    # the whole seminorm through the autocorrelation against the same
    # quadrature with every p = 2 sum added up on the grid, one shift at a
    # time as at any other p: a plan without a square form
    space = parse_space(text)
    dims = tuple(space.aniso.dims)
    u = spec.sample(dims, (spacing,) * len(dims), radius)
    semi = seminorm_slobodeckij if text[0] == "W" else seminorm_besov
    fast = semi(u, space)
    normlab._grid_plan.cache_clear()
    monkeypatch.setattr(normlab, "_square_form", lambda *args: None)
    slow = semi(u, space)
    assert fast.meta == slow.meta
    assert abs(fast.value - slow.value) <= 1e-10 * slow.value
    assert abs(fast.truncation_error_estimate -
               slow.truncation_error_estimate) <= \
        1e-10 * slow.truncation_error_estimate


def _five_smooth_length(m):
    """The padding rule before radix-2 lengths: the smallest 2^a 3^b 5^c
    >= m (n divides a power of 30 exactly when it has no other prime)."""
    return next(n for n in itertools.count(m) if 30 ** n.bit_length() % n == 0)


def _radix_two(n):
    """Whether n is 2^a, 3 2^a or 5 2^a."""
    return n >> ((n & -n).bit_length() - 1) in (1, 3, 5)


def test_fft_length_is_the_least_radix_two_length():
    for m in range(1, 5000):
        n = _fft_length(m)
        assert _radix_two(n) and m <= n < 4 * m / 3, m
        assert not any(_radix_two(k) for k in range(m, n)), m


@pytest.fixture
def lab_fits(monkeypatch):
    """perfbench's seminorm-lab fits by seed, and a fit's table."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] /
                                    "perfbench"))
    corpus = importlib.import_module("corpus")

    def table(fit):
        return dilated_seminorms(
            fit.space(), GaussianSpec(tuple(float(v) for v in fit.sigmas)),
            [float(v) for v in fit.lambdas],
            (float(fit.spacing),) * len(fit.dims), float(fit.radius))
    return corpus.lab_fits, table


def test_a_fit_builds_each_slice_plan_once(monkeypatch, fresh_plans,
                                           lab_fits):
    # the five dilations of a 1-D fit and the three of the 2-D fit share
    # their grid's plan: one set of copies per slice, not per dilation
    fits, table = lab_fits
    calls = []
    copies = normlab._copies
    monkeypatch.setattr(normlab, "_copies",
                        lambda *args: calls.append(args) or copies(*args))
    one_d, two_d = fits(1)[0], fits(1)[3]
    assert (len(one_d.lambdas), len(two_d.lambdas), len(two_d.dims)) == \
        (5, 3, 2)
    table(one_d)
    assert len(calls) == 1
    table(two_d)
    assert len(calls) == 1 + 2


def test_cached_plans_are_read_only(fresh_plans):
    u = _gauss()
    first = seminorm_slobodeckij(u, W12)
    first.meta["slices"][0]["order"] = 99
    plan = normlab._grid_plan(normlab._slobodeckij_plans, W12, u.slice_dims,
                              u.spacings, u.samples.shape, u.decay_radius)
    assert normlab._grid_plan.cache_info().hits == 1
    (sl,) = plan.slices
    for a in (sl.shifts, sl.kernel, sl.node_weights, sl.square.index,
              sl.square.pairs):
        with pytest.raises(ValueError, match="read-only"):
            a[(0,) * a.ndim] = 1
    assert seminorm_slobodeckij(u, W12).meta["slices"][0]["order"] == 0


def test_radix_two_lengths_match_the_five_smooth_ones(monkeypatch,
                                                      fresh_plans, lab_fits):
    # the lab's fits at seeds 1-3 and the pinned CLI values, each at the
    # old padding and at the new; the two differ on both lab grids.  The
    # pinned Besov second differences cancel in the Gram form down to a
    # few 1e-12 of its value (it misses the grid sums by 1e-12 to 4e-12
    # at either length), so the CLI values get 1e-11
    fits, table = lab_fits
    assert [_five_smooth_length(2 * n - 1) for n in (241, 2001)] == [486, 4050]
    assert [_fft_length(2 * n - 1) for n in (241, 2001)] == [512, 4096]

    def values():
        normlab._grid_plan.cache_clear()
        rows = [v for seed in (1, 2, 3) for fit in fits(seed)
                for _, v in table(fit)]
        pinned = []
        for argv in _SEMINORMS:
            code, stdout, stderr = run_cli([*argv, "--machine"])
            assert code == 0, stderr
            pinned.append(json.loads(stdout)["value"])
        return rows, pinned

    new = values()
    monkeypatch.setattr(normlab, "_fft_length", _five_smooth_length)
    old = values()
    assert (len(new[0]), len(new[1])) == (3 * (5 + 5 + 5 + 3), 4)
    for (news, olds), tol in zip(zip(new, old), (1e-12, 1e-11)):
        for a, b in zip(news, olds):
            assert abs(a - b) <= tol * b


def test_cli_table_equals_library_fit():
    # the scaling table as JSON rows and as CSV text, and the single value
    # without dilations
    space = "W^{1/2,(2,1)}_2(R^{1x1})"
    opts = ["seminorm", "--space", space, "--sigma", "1", "--spacing", "1/10",
            "--radius", "5"]
    table = [*opts, "--dilations", "1/2,1,2"]
    code, stdout, stderr = run_cli([*table, "--machine"])
    assert code == 0, stderr
    rows = [tuple(r) for r in json.loads(stdout)["rows"]]
    sp = SpaceDescr.sobolev(F(1, 2), F(1, 2), parabolic(1), SCALARS, "JxSigma")
    _, pts = dilation_scaling_exponent(sp, GaussianSpec((1.0, 1.0)),
                                       [0.5, 1.0, 2.0], (0.1, 0.1), 5.0)
    assert rows == pts
    text = "lambda,seminorm\n" + "".join(f"{lam},{val:.12g}\n"
                                          for lam, val in pts)
    assert run_cli(table) == (0, text, "")
    code, stdout, stderr = run_cli([*opts, "--machine"])
    assert code == 0, stderr
    assert json.loads(stdout)["value"] == pts[1][1]


def test_hoelder_probe():
    a = isotropic(1)
    l4 = SpaceDescr.lebesgue(F(1, 4), a, SCALARS, "R^1")
    l2 = SpaceDescr.lebesgue(F(1, 2), a, SCALARS, "R^1")
    inst = MultInstance.of((l4, l4), l2)
    fam = []
    for k in range(10):
        u = GaussianSpec((1.0 + 0.1 * k,), (0.3 * k,)).sample((1,), (0.05,), 10.0)
        v = GaussianSpec((1.5,), (0.2 * k,), phase="sin").sample((1,), (0.05,), 10.0)
        fam.append((u, v))
    stats = check_product_estimate(inst, fam)
    assert stats.max_ratio <= 1 + 1e-6


def test_product_probe_refuses_uncovered():
    a = isotropic(1)
    l4 = SpaceDescr.lebesgue(F(1, 4), a, SCALARS, "R^1")
    l3 = SpaceDescr.lebesgue(F(1, 3), a, SCALARS, "R^1")
    inst = MultInstance.of((l4, l4), l3)
    with pytest.raises(UncoveredInstance):
        check_product_estimate(inst, [])


def test_product_probe_modulated_family_bounded():
    # a covered within-scale product: ratios stay bounded as the modulation
    # frequency grows
    a = isotropic(1)
    w = SpaceDescr.sobolev(F(3, 4), F(1, 4), a, SCALARS, "R^1")   # ind = 1/2
    tgt = SpaceDescr.sobolev(F(1, 2), F(1, 2), a, SCALARS, "R^1")  # ind = 0
    inst = MultInstance.of((w, w), tgt)
    fam = []
    for freq in (1.0, 2.0, 4.0, 8.0, 16.0):
        u = GaussianSpec((1.0,), (freq,)).sample((1,), (0.02,), 10.0)
        v = GaussianSpec((1.0,), (freq,), phase="sin").sample((1,), (0.02,), 10.0)
        fam.append((u, v))
    stats = check_product_estimate(inst, fam)
    assert stats.growth <= 20.0


def test_unit_factor_product_is_exact():
    # multiplying by the constant unit leaves the norm unchanged, which is
    # what the reduced multiplication asserts
    u = _gauss(dx=0.05, radius=8.0)
    ones = GridFunction(u.slice_dims, u.spacings, np.ones_like(u.samples),
                        u.decay_radius)
    prod = GridFunction(u.slice_dims, u.spacings, u.samples * ones.samples,
                        u.decay_radius)
    l2 = SpaceDescr.lebesgue(F(1, 2), ISO1, SCALARS, "R^1")
    assert full_norm(prod, l2) == full_norm(u, l2)


def test_full_norm_dispatch():
    u = _gauss(dx=0.05, radius=8.0)
    l2 = SpaceDescr.lebesgue(F(1, 2), ISO1, SCALARS, "R^1")
    assert full_norm(u, l2) == pytest.approx(math.pi ** 0.25, rel=1e-3)
    assert full_norm(u, W12) > full_norm(u, l2)
    h1 = SpaceDescr.bessel(F(1), F(1, 2), ISO1, SCALARS, "R^1")
    with pytest.raises(WrongScale):
        full_norm(u, h1)
