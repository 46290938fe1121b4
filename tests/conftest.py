"""Shared random generators for descriptor-level property tests, and the
in-process command-line runner."""

from __future__ import annotations

import contextlib
import io
import random
from fractions import Fraction

import pytest

from anisocalc import (Anisotropy, MultInstance, Scale, SpaceDescr,
                       normalize)
from anisocalc.cli import main
from anisocalc.errors import NotIdentifiable


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    """``anisocalc *argv`` in this process: its exit code, stdout and
    stderr.  Only ``SystemExit`` is caught, so any other exception fails
    the calling test."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = 0 if exc.code is None else exc.code
    return code, out.getvalue(), err.getvalue()


def rand_fraction(rng: random.Random, lo: Fraction, hi: Fraction,
                  max_den: int = 24) -> Fraction:
    den = rng.randint(2, max_den)
    num = rng.randint(0, den * 4)
    return lo + (hi - lo) * Fraction(num, den * 4)


def rand_x(rng: random.Random) -> Fraction:
    den = rng.randint(2, 24)
    num = rng.randint(1, den - 1)
    return Fraction(num, den)


def rand_aniso(rng: random.Random) -> Anisotropy:
    nu = rng.randint(1, 3)
    dims = tuple(rng.randint(1, 3) for _ in range(nu))
    weights = tuple(rng.choice((1, 1, 2, 3)) for _ in range(nu))
    return Anisotropy(dims, weights)


def rand_space(rng: random.Random, aniso: Anisotropy,
               scales=(Scale.B, Scale.H),
               s_range=(Fraction(0), Fraction(4))) -> SpaceDescr:
    scale = rng.choice(scales)
    s = rand_fraction(rng, *s_range)
    x = rand_x(rng)
    if scale is Scale.B:
        y = rng.choice((None, rand_x(rng)))
        return SpaceDescr.besov(s, x, aniso, y)
    if scale is Scale.H:
        return SpaceDescr.bessel(s, x, aniso)
    if scale is Scale.W:
        sp = SpaceDescr.sobolev(s, x, aniso)
        try:
            normalize(sp)
        except NotIdentifiable:
            return rand_space(rng, aniso, scales, s_range)
        return sp
    if scale is Scale.L:
        return SpaceDescr.lebesgue(x, aniso)
    raise AssertionError(scale)


def rand_mult_instance(rng: random.Random, max_m: int = 4,
                       scales=(Scale.B, Scale.H, Scale.L)) -> MultInstance:
    aniso = rand_aniso(rng)
    m = rng.randint(1, max_m)
    factors = [rand_space(rng, aniso, scales) for _ in range(m)]
    target = rand_space(rng, aniso, scales)
    return MultInstance.of(tuple(factors), target)


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20260810)
