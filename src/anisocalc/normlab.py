"""Numerical evaluation of the intrinsic anisotropic seminorms.

Difference-quotient quadrature on tensor-product grids: log-spaced radial
nodes for the improper step-size integral, direction sampling on each
slice, Riemann sums for the space integrals (at p = 2 a quadratic form
read off one FFT autocorrelation per derivative).  Everything here is a
double-precision sanity probe for the exact decisions, never part of
them.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Callable
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import ResolutionError, Unsupported, WrongScale
from .spaces import Scale, SpaceDescr

_NODES_PER_DECADE = 16
_MIN_DECADES = 2
#: Largest tensor grid a Gaussian is sampled on (134 MB per float64 array).
#: At p = 2 the FFT pads each slice axis of n points to about 2n, so an R^d
#: slice's half spectrum takes about 2^(d+3) bytes per grid point.
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
        return GaussianSpec(sig, frq, self.phase)

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
        vals = np.exp(-quad / 2)
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


def _copies(shifts: np.ndarray, coeffs) -> tuple[np.ndarray, np.ndarray]:
    """The copies of v in sum_i c_i v(x + i*shift), shifts (..., d) in cells:
    v moved by whole cells, blended over the 2^d corners of its cell.  Each
    copy's start (the grid index where v[0, ..., 0] lands; (..., K, d)) and
    weight (c_i times its corner weight; (..., K)), K = len(coeffs) 2^d."""
    d = shifts.shape[-1]
    corners = np.array(list(itertools.product((0, 1), repeat=d)))
    t = np.arange(len(coeffs))[:, None] * shifts[..., None, :]
    cells = np.floor(t)
    frac = (t - cells)[..., None, :]
    starts = (-cells[..., None, :] - corners).astype(int)
    weights = np.asarray(coeffs, dtype=float)[:, None] * np.prod(
        np.where(corners == 1, frac, 1 - frac), axis=-1)
    return (starts.reshape(*shifts.shape[:-1], -1, d),
            weights.reshape(*shifts.shape[:-1], -1))


def _difference_power_sum(v: np.ndarray, axes: list[int], shift: np.ndarray,
                          coeffs, p: float) -> float:
    """Sum over all grid points x of |sum_i c_i v(x + i*shift)|^p.

    ``shift`` is in cells along the slice ``axes``; v is zero off its grid
    and multilinear between grid points.  The copies of ``_copies`` are
    added in a box that just covers the union of their supports, so every
    difference is exact for the truncated samples without any padding.
    """
    starts, weights = _copies(np.asarray(shift, dtype=float), coeffs)
    keep = weights != 0  # whole-cell shifts keep the box tight
    starts, weights = starts[keep], weights[keep]
    lo, hi = starts.min(axis=0), starts.max(axis=0)
    shape = list(v.shape)
    for j, ax in enumerate(axes):
        shape[ax] += int(hi[j] - lo[j])
    acc = np.zeros(shape)
    for start, w in zip(starts, weights):
        region = [slice(None)] * v.ndim
        for j, ax in enumerate(axes):
            off = int(start[j] - lo[j])
            region[ax] = slice(off, off + v.shape[ax])
        acc[tuple(region)] += w * v
    return float(np.sum(np.abs(acc) ** p))


def _fft_length(m: int) -> int:
    """The smallest of 2^a, 3 2^a and 5 2^a that is >= m.  Radix 2 is
    pocketfft's fastest path, and the two odd factors keep the length
    below 4m/3 (the next power of two alone can reach 2m)."""
    return min(c << (-(-m // c) - 1).bit_length() for c in (1, 3, 5))


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class _SquareForm:
    """What ``_difference_square_sums`` needs besides the samples, for
    shifts (..., d) in cells along the slice ``axes`` of a grid with n
    points on each: the FFT length of each slice axis
    (``_fft_length(2n - 1)``, so no lag wraps), and for each pair of
    copies k, l of ``_copies`` the flat index of its lag s_k - s_l in the
    autocorrelation and its weight w_k w_l (0 when |m_j| >= n_j on some
    axis, where the autocorrelation is 0)."""

    axes: tuple[int, ...]
    lengths: tuple[int, ...]
    index: np.ndarray
    pairs: np.ndarray


def _square_form(shape: tuple[int, ...], axes, shifts: np.ndarray,
                 coeffs) -> _SquareForm:
    n = [shape[ax] for ax in axes]
    lengths = tuple(_fft_length(2 * m - 1) for m in n)
    starts, weights = _copies(shifts, coeffs)
    lags = starts[..., :, None, :] - starts[..., None, :, :]
    inside = np.all(np.abs(lags) < n, axis=-1)
    index = np.ravel_multi_index(tuple(np.moveaxis(lags % lengths, -1, 0)),
                                 lengths)
    pairs = np.where(inside, weights[..., :, None] * weights[..., None, :], 0.0)
    return _SquareForm(tuple(axes), lengths, _read_only(index),
                       _read_only(pairs))


def _difference_square_sums(v: np.ndarray, form: _SquareForm) -> np.ndarray:
    """``_difference_power_sum`` at p = 2 for all the form's shifts at once:
    sum_kl w_k w_l A[s_k - s_l] over the copies' weights w and starts s, with
    A[m] = sum_x v(x) v(x + m) over the slice axes (summed over the others)
    from one zero-padded FFT."""
    others = tuple(ax for ax in range(v.ndim) if ax not in form.axes)
    spec = np.fft.rfftn(v, form.lengths, axes=form.axes)
    # |F|^2 with no second array of the spectrum's size: the real and
    # imaginary parts lie side by side on the last axis, squared in place
    parts = spec.view(float)
    power = np.square(parts, out=parts).sum(axis=others)
    if v.ndim - 1 in form.axes:  # each frequency's two parts are still apart
        power = power[..., ::2] + power[..., 1::2]
    acf = np.fft.irfftn(power, form.lengths, axes=range(len(form.axes)))
    sums = np.einsum("...kl,...kl->...", form.pairs, acf.take(form.index))
    return np.maximum(sums, 0)  # a vanishing difference rounds either way


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


def _require_grid(slice_dims: tuple[int, ...], space: SpaceDescr) -> None:
    if tuple(space.aniso.dims) != slice_dims:
        raise ValueError("grid slices do not match the descriptor")


@dataclass(frozen=True)
class _SlicePlan:
    """One slice's quadrature on one grid, all but the samples: the order
    of its derivatives, its difference coefficients, its shifts (direction,
    node, axis) in cells, the kernel (direction weight times r^{-sigma q};
    direction, node), the radial weights, the factors of the dropped core
    and tail, its ``meta`` entry, and at p = 2 the square form."""

    axes: tuple[int, ...]
    derivative_order: int
    coeffs: tuple[int, ...]
    shifts: np.ndarray
    kernel: np.ndarray
    node_weights: np.ndarray
    coeff_mass: float
    core: float
    tail: float
    meta: dict
    square: _SquareForm | None


@dataclass(frozen=True)
class _GridPlan:
    p: float
    q: float
    slices: tuple[_SlicePlan, ...]


# a fit needs one plan, and the lab's four fits four; a plan's arrays are
# a few kB on a line and at most some 10 MB on an R^3 slice
@functools.lru_cache(maxsize=4)
def _grid_plan(plans_of: Callable, space: SpaceDescr,
               slice_dims: tuple[int, ...], spacings: tuple[float, ...],
               shape: tuple[int, ...], decay_radius: float) -> _GridPlan:
    """The part of the space's quadrature on a grid that the samples do
    not change, so the dilations of a fit share it.  ``plans_of`` gives
    the plan (order, m, n, sigma) of each slice and the exponents (p, q);
    ``order`` only labels the slice in ``meta``.  Its refusals come first,
    then a grid whose slices do not match the space."""
    plans, p, q = plans_of(space)
    _require_grid(slice_dims, space)
    pf, qf = float(p), float(q)
    slices = []
    start = 0
    for k, (order, mord, nord, sigma) in enumerate(plans, start=1):
        axes = tuple(range(start, start + slice_dims[k - 1]))
        start += len(axes)
        dx = spacings[k - 1]
        coeffs = tuple((-1) ** (nord - i) * math.comb(nord, i)
                       for i in range(nord + 1))
        r, wq = _radial_nodes(dx, decay_radius)
        dirs, dweights = _directions(len(axes))
        shifts = r[:, None] * dirs[:, None, :] / dx
        square = None if p != 2 else _square_form(shape, axes, shifts, coeffs)
        slices.append(_SlicePlan(
            axes, mord, coeffs, _read_only(shifts),
            _read_only(dweights[:, None] * r ** (-sigma * qf)),
            _read_only(wq), sum(abs(c) ** pf for c in coeffs),
            (nord - sigma) * qf,
            float(np.sum(dweights)) * float(r[-1]) ** (-sigma * qf) /
            (sigma * qf),
            {"slice": k, "order": order, "sigma": sigma,
             "radial_nodes": len(r), "r_range": (float(r[0]), float(r[-1]))},
            square))
    return _GridPlan(pf, qf, tuple(slices))


def _quadrature(u: GridFunction, plans_of: Callable,
                space: SpaceDescr) -> SeminormResult:
    """The q-th root of the sum over the slices k of

        int_0^oo r^{-sigma q} sum_alpha int_S ||Delta^n_{r e} D^alpha u||_p^q de dr/r

    with alpha running over the partial derivatives of total order m along
    slice k, on the grid's plan from ``_grid_plan``.  At p = 2 all steps
    come from one autocorrelation per derivative; at any other p each is
    summed apart.
    """
    plan = _grid_plan(plans_of, space, tuple(u.slice_dims), tuple(u.spacings),
                      u.samples.shape, float(u.decay_radius))
    pf, qf = plan.p, plan.q
    cell = u.cell_volume()
    total = 0.0
    trunc = 0.0
    for k, sl in enumerate(plan.slices, start=1):
        g = np.zeros(sl.kernel.shape[1])
        tail_mass = 0.0
        for v in _derivatives(u, k, sl.derivative_order):
            if sl.square is not None:
                sums = _difference_square_sums(v, sl.square)
            else:
                sums = np.array([[_difference_power_sum(v, sl.axes, h,
                                                        sl.coeffs, pf)
                                  for h in row] for row in sl.shifts])
            g += np.sum(sl.kernel * (sums * cell) ** (qf / pf), axis=0)
            tail_mass += (sl.coeff_mass * float(np.sum(np.abs(v) ** pf)) *
                          cell) ** (qf / pf)
        total += float(np.sum(sl.node_weights * g))
        # the dropped core behaves like r^{(n - sigma) q}; beyond the last
        # node the shifted supports separate and the integrand decays like
        # r^{-sigma q}
        trunc += g[0] / sl.core + sl.tail * tail_mass
    value = total ** (1 / qf)
    err = 0.0 if total == 0 else value * trunc / (qf * total)
    return SeminormResult(value, err,
                          {"slices": [dict(sl.meta) for sl in plan.slices]})


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
    return _quadrature(u, _slobodeckij_plans, space)


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
    return _quadrature(u, _besov_plans, space)


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


def dilated_seminorms(space: SpaceDescr, gauss: GaussianSpec,
                      lambdas: list[float], spacings: tuple[float, ...],
                      decay_radius: float) -> list[tuple[float, float]]:
    """(lambda, seminorm) for each anisotropic dilation of the Gaussian,
    sampled on one grid.

    A dilation the grid cannot resolve is refused before any grid is
    sampled: on some axis its width is strictly below the spacing of the
    axis's slice, or its frequency is above pi over that spacing.
    """
    dims = tuple(space.aniso.dims)
    weights = tuple(space.aniso.weights)
    semi = _seminorm_for(space)
    _directions(max(dims))  # refuses slices above R^3 before any grid
    steps = [dx for nk, dx in zip(dims, spacings) for _ in range(nk)]
    specs = []
    for lam in lambdas:
        try:
            spec = gauss.dilated(lam, weights, dims)
        except (OverflowError, ZeroDivisionError):
            raise ResolutionError(f"the Gaussian dilated by lambda = {lam:g} "
                                  f"overflows a float") from None
        specs.append(spec)
        for i, (sig, dx) in enumerate(zip(spec.sigmas, steps), start=1):
            freq = 0.0 if spec.freqs is None else abs(spec.freqs[i - 1])
            if sig < dx or freq > math.pi / dx:
                raise ResolutionError(
                    f"the Gaussian dilated by lambda = {lam:g} is not resolved "
                    f"on axis {i}: width {sig:.4g} and frequency {freq:.4g} "
                    f"against spacing {dx:.4g} (need width >= spacing and "
                    f"frequency <= pi/spacing)")
    pts = []
    for lam, spec in zip(lambdas, specs):
        # keeping u bound until the next grid exists spares malloc about
        # 30 % of the lab's page faults (some 6 % of its time)
        u = spec.sample(dims, spacings, decay_radius)
        pts.append((lam, semi(u, space).value))
    return pts


def dilation_scaling_exponent(space: SpaceDescr, gauss: GaussianSpec,
                              lambdas: list[float], spacings: tuple[float, ...],
                              decay_radius: float) -> tuple[float, list[tuple[float, float]]]:
    """Least-squares slope of log(seminorm) against log(lambda) under the
    anisotropic dilation; the exact change of variables predicts
    lcm(w) * index.  A line needs two distinct lambdas; fewer are refused
    before any grid is sampled."""
    if len(set(lambdas)) < 2:
        raise ValueError(f"a scaling exponent needs at least two distinct "
                         f"dilations, got {list(lambdas)}")
    pts = dilated_seminorms(space, gauss, lambdas, spacings, decay_radius)
    xs = np.log([p[0] for p in pts])
    ys = np.log([p[1] for p in pts])
    slope = float(np.polyfit(xs, ys, 1)[0])
    return slope, pts
