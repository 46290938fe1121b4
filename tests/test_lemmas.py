"""Closed-form exponent lemmas against brute-force oracles."""

from fractions import Fraction as F

import pytest

from anisocalc import (InfeasibleRange, MinimizationInput, RealizationInput,
                       minimize_phi, realize_exponents)

from reference import (check_realization, compositions_up_to, is_minimizer,
                       phi_value)


def test_realize_all_caps_zero():
    inp = RealizationInput((F(0), F(0)), (F(1, 3), F(1, 4)), F(7, 12))
    assert realize_exponents(inp) == [F(1, 3), F(1, 4)]


def test_realize_affine_interpolant():
    inp = RealizationInput((F(1, 2), F(2)), (F(3, 4), F(1, 2)), F(3, 4))
    out = realize_exponents(inp)
    assert out == [F(1, 2), F(1, 4)]
    assert check_realization(inp, out)


def test_realize_lower_endpoint():
    # the target at the sum of the reciprocals forces rho_j = pi_j
    inp = RealizationInput((F(1), F(1)), (F(1, 3), F(1, 4)), F(7, 12))
    out = realize_exponents(inp)
    assert out == [F(1, 3), F(1, 4)]


def test_realize_infeasible():
    # zero caps force the target to equal the reciprocal sum exactly
    with pytest.raises(InfeasibleRange):
        realize_exponents(RealizationInput((F(0), F(0)), (F(1, 3), F(1, 4)),
                                           F(1, 2)))
    # target above the reciprocal sum
    with pytest.raises(InfeasibleRange):
        realize_exponents(RealizationInput((F(1), F(1)), (F(1, 3), F(1, 4)),
                                           F(2, 3)))


def test_realize_validates_ranges():
    with pytest.raises(ValueError):
        RealizationInput((F(-1),), (F(1, 2),), F(1, 2))
    with pytest.raises(ValueError):
        RealizationInput((F(1),), (F(3, 2),), F(1, 2))


def _random_feasible(rng, m):
    sigma = tuple(F(rng.randint(0, 8), rng.randint(1, 4)) for _ in range(m))
    pi = tuple(F(rng.randint(1, 11), 12) for _ in range(m))
    lo = sum(max(p - s, F(0)) for s, p in zip(sigma, pi))
    hi = sum(pi)
    t = F(rng.randint(0, 16), 16)
    rho = lo + (hi - lo) * t
    if not 0 < rho < 1:
        return None
    return RealizationInput(sigma, pi, rho)


def test_realize_constraints_random(rng):
    checked = 0
    for _ in range(2000):
        inp = _random_feasible(rng, rng.randint(1, 4))
        if inp is None:
            continue
        out = realize_exponents(inp)
        assert check_realization(inp, out), (inp, out)
        checked += 1
    assert checked > 500


def coarse_feasible(rng, m):
    """Feasible instance with all data on the 1/12 grid, so the 1/24 grid
    oracle is complete."""
    sigma = tuple(F(rng.randint(0, 12), 6) for _ in range(m))
    pi = tuple(F(rng.randint(1, 11), 12) for _ in range(m))
    lo = sum(max(p - s, F(0)) for s, p in zip(sigma, pi))
    hi = sum(pi)
    grid = [F(k, 12) for k in range(1, 12)
            if lo <= F(k, 12) <= hi]
    if not grid:
        return None
    return RealizationInput(sigma, pi, rng.choice(grid))


def grid_oracle_feasible(inp: RealizationInput) -> bool:
    """Independent feasibility search: box and sum constraints over
    exponents on the 1/24 grid (last component forced by the sum)."""
    grid = [F(k, 24) for k in range(0, 24)]

    def box_ok(r, s, p):
        return max(F(0), p - s) <= r <= p

    def rec(prefix, remaining, idx):
        if idx == inp.m - 1:
            return box_ok(remaining, inp.sigma[-1], inp.pi[-1]) and \
                0 <= remaining < 1
        for r in grid:
            if r <= remaining and box_ok(r, inp.sigma[idx], inp.pi[idx]):
                if rec(prefix + (r,), remaining - r, idx + 1):
                    return True
        return False

    return rec((), inp.rho, 0)


def test_realize_grid_oracle_agrees(rng):
    confirmed = 0
    while confirmed < 50:
        inp = coarse_feasible(rng, rng.randint(2, 3))
        if inp is None:
            continue
        assert grid_oracle_feasible(inp), inp
        out = realize_exponents(inp)
        assert check_realization(inp, out)
        confirmed += 1


def test_minimize_all_case():
    inp = MinimizationInput((F(5), F(6)), (F(1), F(2)), 2)
    val, rule = minimize_phi(inp)
    assert val == 0 and rule.case == "all"
    assert is_minimizer(rule, (0, 0)) and is_minimizer(rule, (1, 1))


def test_minimize_negative_case():
    inp = MinimizationInput((F(3), F(1)), (F(1), F(2)), 2)
    val, rule = minimize_phi(inp)
    assert val == F(-3)
    assert rule.case == "off-positive"
    assert is_minimizer(rule, (0, 2))
    assert not is_minimizer(rule, (1, 1))
    assert not is_minimizer(rule, (0, 1))  # total order below 2


def test_minimize_everywhere_flat_case():
    # the gap minimum 1 meets the order bound 1: every composition is flat
    inp = MinimizationInput((F(2), F(2)), (F(1), F(1)), 1)
    val, rule = minimize_phi(inp)
    assert val == 0
    assert rule.case == "all"
    assert all(is_minimizer(rule, nu) for nu in ((0, 0), (1, 0), (0, 1)))


def test_minimize_concentration_case():
    # gaps (1, 2), order 3: all mass on the argmin slot
    inp = MinimizationInput((F(2), F(3)), (F(1), F(1)), 3)
    val, rule = minimize_phi(inp)
    assert val == F(-2)
    assert rule.case == "one-concentration"
    assert is_minimizer(rule, (3, 0))
    assert not is_minimizer(rule, (0, 3))
    assert not is_minimizer(rule, (2, 1))
    assert not is_minimizer(rule, (0, 0))


def _brute(inp: MinimizationInput):
    d = [s - p for s, p in zip(inp.sigma, inp.pi)]
    best = None
    argmins = []
    for nu in compositions_up_to(inp.m, inp.n):
        v = phi_value(d, nu)
        if best is None or v < best:
            best, argmins = v, [nu]
        elif v == best:
            argmins.append(nu)
    return best, argmins


def test_minimize_matches_brute_force_small(rng):
    for _ in range(500):
        m = rng.randint(2, 4)
        n = rng.randint(1, 5)
        sigma = tuple(F(rng.randint(1, 18), rng.randint(1, 6))
                      for _ in range(m))
        pi = tuple(F(rng.randint(1, 18), rng.randint(1, 6)) for _ in range(m))
        inp = MinimizationInput(sigma, pi, n)
        val, rule = minimize_phi(inp)
        brute_val, argmins = _brute(inp)
        assert val == brute_val, inp
        argset = set(argmins)
        for nu in compositions_up_to(m, n):
            assert is_minimizer(rule, nu) == (nu in argset), (inp, nu)
