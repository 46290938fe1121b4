"""Numerical seminorm probes: quadrature sanity and scaling laws."""

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
from click.testing import CliRunner

import anisocalc
from anisocalc import (SCALARS, MultInstance, SpaceDescr, isotropic,
                       parabolic)
from anisocalc.cli import main
from anisocalc.dsl import parse_space
from anisocalc.errors import (ResolutionError, UncoveredInstance, Unsupported,
                              WrongScale)
from anisocalc.normlab import (GaussianSpec, GridFunction,
                               _difference_power_sum, check_product_estimate,
                               dilated_seminorms, dilation_scaling_exponent,
                               full_norm, seminorm_besov,
                               seminorm_slobodeckij)

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


def _spectral_seminorm(u: GridFunction, sigma: float) -> float:
    """The W^sigma_2 seminorm on the line in Fourier form (Di Nezza,
    Palatucci and Valdinoci 2012, Prop. 3.4):
    sqrt(c(sigma) / (2 pi) * int |xi|^{2 sigma} |u^(xi)|^2 dxi) with
    c(sigma) = 4 Gamma(1 - 2 sigma) cos(pi sigma) / (2 sigma), here written
    as pi / (sigma sin(pi sigma) Gamma(2 sigma)) by the reflection formula,
    which stays finite at sigma = 1/2 (c = 2 pi).  The transform is the FFT
    of the samples zero-padded to at least 8 times their length."""
    dx = u.spacings[0]
    n = 1 << (8 * len(u.samples) - 1).bit_length()
    uhat = np.fft.rfft(u.samples, n) * dx
    xi = 2 * np.pi * np.fft.rfftfreq(n, d=dx)
    both_signs = np.full(len(xi), 2.0)
    both_signs[0] = both_signs[-1] = 1.0  # xi = 0 and the Nyquist frequency
    integral = np.sum(both_signs * xi ** (2 * sigma) * np.abs(uhat) ** 2) * \
        2 * np.pi / (n * dx)
    c = math.pi / (sigma * math.sin(math.pi * sigma) * math.gamma(2 * sigma))
    return math.sqrt(c / (2 * math.pi) * integral)


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
    for shift in shifts:
        got = _difference_power_sum(v, axes, np.array(shift), coeffs, p)
        want = _padded_difference_power_sum(v, axes, shift, coeffs, p)
        assert abs(got - want) <= 1e-12 * want


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
        dilation_scaling_exponent(W12, spec, [1.0], (0.02,), 12.0)


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


def test_cli_table_equals_library_fit():
    space = "W^{1/2,(2,1)}_2(R^{1x1})"
    opts = ["seminorm", "--space", space, "--sigma", "1", "--spacing", "1/10",
            "--radius", "5", "--machine"]
    res = CliRunner().invoke(main, [*opts, "--dilations", "1/2,1,2"])
    assert res.exit_code == 0, res.stderr
    rows = [tuple(r) for r in json.loads(res.stdout)["rows"]]
    sp = SpaceDescr.sobolev(F(1, 2), F(1, 2), parabolic(1), SCALARS, "JxSigma")
    _, pts = dilation_scaling_exponent(sp, GaussianSpec((1.0, 1.0)),
                                       [0.5, 1.0, 2.0], (0.1, 0.1), 5.0)
    assert rows == pts
    res = CliRunner().invoke(main, opts)
    assert res.exit_code == 0, res.stderr
    assert json.loads(res.stdout)["value"] == pts[1][1]


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
