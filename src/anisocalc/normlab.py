"""Numerical evaluation of the intrinsic anisotropic seminorms.

Difference-quotient quadrature on tensor-product grids: log-spaced radial
nodes for the improper step-size integral, direction sampling on each
slice, Riemann sums for the space integrals.  Everything here is a
double-precision sanity probe for the exact decisions, never part of
them.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Callable
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import (ResolutionError, UncoveredInstance, Unsupported,
                     WrongScale)
from .multiply import MultInstance, decide_multiplication
from .spaces import Scale, SpaceDescr

_NODES_PER_DECADE = 16
_MIN_DECADES = 2
#: Largest tensor grid a Gaussian is sampled on (134 MB per float64 array).
_MAX_GRID_POINTS = 1 << 24


@dataclass
class GridFunction:
    """Samples of a decaying function on a tensor-product grid.

    ``slice_dims`` lists the number of axes per anisotropy slice; each
    slice has one spacing shared by its axes.  Samples are centered: axis
    i runs over ``(arange(N_i) - (N_i - 1)/2) * spacing``.
    """

    slice_dims: tuple[int, ...]
    spacings: tuple[float, ...]
    samples: np.ndarray
    decay_radius: float

    def __post_init__(self):
        if len(self.slice_dims) != len(self.spacings):
            raise ValueError("one spacing per slice required")
        if self.samples.ndim != sum(self.slice_dims):
            raise ValueError("sample array rank must match the total dimension")
        if not np.all(np.isfinite(self.samples)):
            raise ValueError("samples must be finite")

    def slice_axes(self, k: int) -> list[int]:
        """Array axes belonging to slice k (1-based)."""
        start = sum(self.slice_dims[:k - 1])
        return list(range(start, start + self.slice_dims[k - 1]))

    def cell_volume(self) -> float:
        return float(np.prod([dx for nk, dx in zip(self.slice_dims, self.spacings)
                              for _ in range(nk)]))


@dataclass(frozen=True)
class GaussianSpec:
    """Anisotropic, optionally frequency-modulated Gaussian test function.

    One width and frequency per axis; ``phase`` selects the real or
    imaginary part of the modulation.
    """

    sigmas: tuple[float, ...]
    freqs: tuple[float, ...] | None = None
    phase: str = "cos"
    amplitude: float = 1.0

    def _require_axes(self, n: int) -> None:
        if len(self.sigmas) != n:
            raise ValueError("one sigma per axis required")
        if self.freqs is not None and len(self.freqs) != n:
            raise ValueError("one frequency per axis required")

    def dilated(self, lam: float, weights: tuple[int, ...],
                slice_dims: tuple[int, ...]) -> "GaussianSpec":
        """The anisotropic dilation u(lam^{w_k} x_k) in closed form."""
        self._require_axes(sum(slice_dims))
        per_axis = []
        for w, nk in zip(weights, slice_dims):
            per_axis.extend([lam ** w] * nk)
        sig = tuple(s / c for s, c in zip(self.sigmas, per_axis))
        frq = None if self.freqs is None else tuple(
            f * c for f, c in zip(self.freqs, per_axis))
        return GaussianSpec(sig, frq, self.phase, self.amplitude)

    def sample(self, slice_dims: tuple[int, ...], spacings: tuple[float, ...],
               decay_radius: float) -> GridFunction:
        self._require_axes(sum(slice_dims))
        steps = [decay_radius / dx for dx in spacings]
        if not all(map(math.isfinite, steps)):
            raise Unsupported("grid radius over spacing overflows a float")
        counts = [2 * int(round(t)) + 1 for t in steps]
        points = math.prod(n ** nk for n, nk in zip(counts, slice_dims))
        if points > _MAX_GRID_POINTS:
            raise Unsupported(f"a grid of {points} points exceeds the limit "
                              f"of {_MAX_GRID_POINTS}")
        axes = []
        for nk, dx, n in zip(slice_dims, spacings, counts):
            coord = (np.arange(n) - (n - 1) / 2) * dx
            axes.extend([coord] * nk)
        grids = np.meshgrid(*axes, indexing="ij", sparse=True)
        quad = sum((g / s) ** 2 for g, s in zip(grids, self.sigmas))
        vals = self.amplitude * np.exp(-quad / 2)
        if self.freqs is not None and any(self.freqs):
            arg = sum(f * g for f, g in zip(self.freqs, grids))
            vals = vals * (np.cos(arg) if self.phase == "cos" else np.sin(arg))
        return GridFunction(slice_dims, spacings, np.asarray(vals),
                            decay_radius)


@dataclass
class SeminormResult:
    value: float
    truncation_error_estimate: float
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.value < 0:
            raise ValueError("a seminorm is nonnegative")


def _directions(nk: int) -> tuple[np.ndarray, np.ndarray]:
    """Unit directions and weights summing to the sphere measure."""
    if nk == 1:
        return np.array([[1.0], [-1.0]]), np.array([1.0, 1.0])
    if nk == 2:
        m = 16
        ang = 2 * np.pi * (np.arange(m) + 0.5) / m
        dirs = np.stack([np.cos(ang), np.sin(ang)], axis=1)
        return dirs, np.full(m, 2 * np.pi / m)
    if nk == 3:
        axis = np.concatenate([np.eye(3), -np.eye(3)])
        diag = np.array([[sx, sy, sz] for sx in (1, -1) for sy in (1, -1)
                         for sz in (1, -1)]) / math.sqrt(3)
        dirs = np.concatenate([axis, diag])
        return dirs, np.full(len(dirs), 4 * np.pi / len(dirs))
    raise Unsupported("direction sampling implemented for slices up to R^3")


def _radial_nodes(spacing: float, decay_radius: float) -> tuple[np.ndarray, np.ndarray]:
    r_lo, r_hi = spacing / 2, 4 * decay_radius
    decades = math.log10(r_hi / r_lo)
    if decades < _MIN_DECADES:
        raise ResolutionError(
            f"step-size range spans {decades:.2f} decades; need >= {_MIN_DECADES}")
    n = max(2, int(math.ceil(decades * _NODES_PER_DECADE)) + 1)
    r = np.geomspace(r_lo, r_hi, n)
    w = np.full(n, math.log(r[1] / r[0]))
    w[0] *= 0.5
    w[-1] *= 0.5
    return r, w


def _difference_power_sum(v: np.ndarray, axes: list[int], shift: np.ndarray,
                          coeffs, p: float) -> float:
    """Sum over all grid points x of |sum_i c_i v(x + i*shift)|^p.

    ``shift`` is in cells along the slice ``axes``; v is zero off its grid
    and multilinear between grid points.  Each shifted copy is an integer
    slice of v blended over the corners of its cell, and the copies are
    added in a box that just covers the union of their supports, so every
    difference is exact for the truncated samples without any padding.
    """
    copies = []  # (grid index at which v[0, ..., 0] lands, weight)
    for i, c in enumerate(coeffs):
        t = i * shift
        cells = np.floor(t)
        frac = t - cells
        for corner in itertools.product((0, 1), repeat=len(axes)):
            w = c * math.prod(f if e else 1 - f for f, e in zip(frac, corner))
            if w != 0:  # whole-cell shifts keep the box tight
                copies.append(((-cells - corner).astype(int), w))
    lo = np.min([start for start, _ in copies], axis=0)
    hi = np.max([start for start, _ in copies], axis=0)
    shape = list(v.shape)
    for j, ax in enumerate(axes):
        shape[ax] += int(hi[j] - lo[j])
    acc = np.zeros(shape)
    for start, w in copies:
        region = [slice(None)] * v.ndim
        for j, ax in enumerate(axes):
            off = int(start[j] - lo[j])
            region[ax] = slice(off, off + v.shape[ax])
        acc[tuple(region)] += w * v
    return float(np.sum(np.abs(acc) ** p))


def _derivatives(u: GridFunction, k: int, order: int) -> list[np.ndarray]:
    """All partial derivatives of the given total order along slice k,
    by repeated central differences."""
    axes = u.slice_axes(k)
    dx = u.spacings[k - 1]
    outs = [u.samples]
    for _ in range(order):
        outs = [np.gradient(v, dx, axis=ax) for v in outs for ax in axes]
    return outs


def _space_params(space: SpaceDescr) -> tuple[Fraction, Fraction]:
    if not space.is_concrete:
        raise Unsupported("numerical seminorms need concrete parameters")
    s = space.s.constant
    x = space.x.constant
    if x <= 0:
        raise WrongScale("numerical seminorms need a finite integrability")
    return s, 1 / x


def _require_grid(u: GridFunction, space: SpaceDescr) -> None:
    if tuple(space.aniso.dims) != u.slice_dims:
        raise ValueError("grid slices do not match the descriptor")


def _quadrature(u: GridFunction, plans: list[tuple[int, int, int, float]],
                p: Fraction, q: Fraction) -> SeminormResult:
    """The q-th root of the sum over the slices k of

        int_0^oo r^{-sigma q} sum_alpha int_S ||Delta^n_{r e} D^alpha u||_p^q de dr/r

    with alpha running over the partial derivatives of total order m along
    slice k.  Each plan is (order, m, n, sigma) for its slice; ``order``
    only labels the slice in ``meta``.
    """
    pf, qf = float(p), float(q)
    total = 0.0
    trunc = 0.0
    meta: dict = {"slices": []}
    cell = u.cell_volume()
    for k, (order, mord, nord, sigma) in enumerate(plans, start=1):
        coeffs = [(-1) ** (nord - i) * math.comb(nord, i)
                  for i in range(nord + 1)]
        dx = u.spacings[k - 1]
        axes = u.slice_axes(k)
        r, wq = _radial_nodes(dx, u.decay_radius)
        dirs, dweights = _directions(u.slice_dims[k - 1])
        weight = r ** (-sigma * qf)
        g = np.zeros_like(r)
        tail_mass = 0.0
        for v in _derivatives(u, k, mord):
            for d, dw in zip(dirs, dweights):
                sums = np.array([
                    _difference_power_sum(v, axes, ri * d / dx, coeffs, pf)
                    for ri in r])
                g += dw * weight * (sums * cell) ** (qf / pf)
            tail_mass += (sum(abs(c) ** pf for c in coeffs) *
                          float(np.sum(np.abs(v) ** pf)) * cell) ** (qf / pf)
        total += float(np.sum(wq * g))
        # the dropped core behaves like r^{(n - sigma) q}; beyond the last
        # node the shifted supports separate and the integrand decays like
        # r^{-sigma q}
        trunc += g[0] / ((nord - sigma) * qf) + float(np.sum(dweights)) * \
            tail_mass * float(r[-1]) ** (-sigma * qf) / (sigma * qf)
        meta["slices"].append({"slice": k, "order": order, "sigma": sigma,
                               "radial_nodes": len(r),
                               "r_range": (float(r[0]), float(r[-1]))})
    value = total ** (1 / qf)
    err = 0.0 if total == 0 else value * trunc / (qf * total)
    return SeminormResult(value, err, meta)


def _slobodeckij_plans(space: SpaceDescr) -> tuple[list, Fraction, Fraction]:
    """Plans and exponents (p, q) of the Sobolev-Slobodeckij seminorm;
    they depend on the descriptor alone."""
    if space.scale is not Scale.W:
        raise WrongScale(f"expected the Sobolev-Slobodeckij scale, got {space.scale}")
    s, p = _space_params(space)
    plans = []
    for k, wk in enumerate(space.aniso.weights, start=1):
        ratio = s / wk
        if ratio.denominator == 1:
            raise WrongScale(f"slice ratio s/w_{k} = {ratio} is an integer")
        mord = int(ratio)  # floor for positive ratios
        plans.append((mord, mord, 1, float(ratio) - mord))
    return plans, p, p


def seminorm_slobodeckij(u: GridFunction, space: SpaceDescr) -> SeminormResult:
    """Difference-quotient seminorm of the Sobolev-Slobodeckij scale.

    Slice k contributes the fractional part s/w_k - [s/w_k] through first
    differences of the order-[s/w_k] derivatives, at q = p; integer slice
    ratios are outside this formula.
    """
    plans, p, q = _slobodeckij_plans(space)
    _require_grid(u, space)
    return _quadrature(u, plans, p, q)


def _besov_plans(space: SpaceDescr) -> tuple[list, Fraction, Fraction]:
    """Plans and exponents (p, q) of the Besov seminorm; they depend on
    the descriptor alone."""
    if space.scale is not Scale.B:
        raise WrongScale(f"expected the Besov scale, got {space.scale}")
    s, p = _space_params(space)
    if s <= 0:
        raise WrongScale("the iterated-difference formula needs s > 0")
    y = space.micro().constant_value()
    if y <= 0:
        raise WrongScale("numerical seminorms need a finite micro-scale")
    plans = [(int(s / wk) + 1, 0, int(s / wk) + 1, float(s / wk))
             for wk in space.aniso.weights]
    return plans, p, 1 / y


def seminorm_besov(u: GridFunction, space: SpaceDescr) -> SeminormResult:
    """Iterated-difference seminorm of the Besov scale with micro-scale q:
    differences of order [s/w_k] + 1 on slice k."""
    plans, p, q = _besov_plans(space)
    _require_grid(u, space)
    return _quadrature(u, plans, p, q)


def _seminorm_for(space: SpaceDescr
                  ) -> Callable[[GridFunction, SpaceDescr], SeminormResult]:
    """The seminorm of the space's scale, W or B, once the space has
    passed the refusals of its plans, so a caller refuses before it
    samples.  The function is read from the module globals at each call,
    so a wrapper installed on either name (as perfbench's tracer does)
    sees every evaluation."""
    if space.scale is Scale.W:
        _slobodeckij_plans(space)
        return seminorm_slobodeckij
    if space.scale is Scale.B:
        _besov_plans(space)
        return seminorm_besov
    raise WrongScale(f"no difference-quotient seminorm on the {space.scale} scale")


def full_norm(u: GridFunction, space: SpaceDescr) -> float:
    """Lebesgue part plus seminorm, the norm used by the product probes."""
    _, p = _space_params(space)
    _require_grid(u, space)
    pf = float(p)
    lp = float((np.sum(np.abs(u.samples) ** pf) * u.cell_volume()) ** (1 / pf))
    if space.scale is Scale.L or (space.s.is_constant and space.s.constant == 0):
        return lp
    return (lp ** pf + _seminorm_for(space)(u, space).value ** pf) ** (1 / pf)


@dataclass
class ProductProbeStats:
    ratios: list[float]
    max_ratio: float
    min_ratio: float

    @property
    def growth(self) -> float:
        return self.max_ratio / self.min_ratio if self.min_ratio > 0 else math.inf


def check_product_estimate(inst: MultInstance,
                           family: list[tuple[GridFunction, ...]],
                           ) -> ProductProbeStats:
    """Ratio statistics of the product estimate over a family of tuples.

    Refuses instances the decision engine does not cover; boundedness of
    the returned ratios is exactly what the estimate claims.
    """
    verdict = decide_multiplication(inst)
    if not verdict.covered:
        fail = verdict.first_failure()
        raise UncoveredInstance(
            "no estimate to test: instance not covered"
            + (f" (first failed condition: {fail.label})" if fail else ""))
    ratios = []
    for tup in family:
        if len(tup) != inst.m:
            raise ValueError("family tuples must match the instance arity")
        prod = tup[0].samples.copy()
        for g in tup[1:]:
            if g.samples.shape != prod.shape:
                raise ValueError("family members must share one grid")
            prod = prod * g.samples
        num = full_norm(GridFunction(tup[0].slice_dims, tup[0].spacings,
                                     prod, tup[0].decay_radius), inst.target)
        den = 1.0
        for g, f in zip(tup, inst.factors):
            den *= full_norm(g, f)
        ratios.append(num / den if den > 0 else math.inf)
    return ProductProbeStats(ratios, max(ratios), min(ratios))


def dilated_seminorms(space: SpaceDescr, gauss: GaussianSpec,
                      lambdas: list[float], spacings: tuple[float, ...],
                      decay_radius: float) -> list[tuple[float, float]]:
    """(lambda, seminorm) for each anisotropic dilation of the Gaussian,
    sampled on one grid."""
    dims = tuple(space.aniso.dims)
    weights = tuple(space.aniso.weights)
    semi = _seminorm_for(space)
    _directions(max(dims))  # refuses slices above R^3 before any grid
    pts = []
    for lam in lambdas:
        # keeping u bound until the next grid exists spares malloc about
        # 30 % of the lab's page faults (some 6 % of its time)
        u = gauss.dilated(lam, weights, dims).sample(dims, spacings, decay_radius)
        pts.append((lam, semi(u, space).value))
    return pts


def dilation_scaling_exponent(space: SpaceDescr, gauss: GaussianSpec,
                              lambdas: list[float], spacings: tuple[float, ...],
                              decay_radius: float) -> tuple[float, list[tuple[float, float]]]:
    """Least-squares slope of log(seminorm) against log(lambda) under the
    anisotropic dilation; the exact change of variables predicts
    lcm(w) * index."""
    pts = dilated_seminorms(space, gauss, lambdas, spacings, decay_radius)
    xs = np.log([p[0] for p in pts])
    ys = np.log([p[1] for p in pts])
    slope = float(np.polyfit(xs, ys, 1)[0])
    return slope, pts
