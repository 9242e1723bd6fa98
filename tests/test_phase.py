from fractions import Fraction as Fr

import numpy as np
import pytest

from jkepler.algebra import make_algebra
from jkepler import cli, phase
from jkepler.cli import SuiteConfig
from jkepler.phase import (PhaseRational, classical_angular,
                           classical_hamiltonian, classical_lenz, moment_x,
                           moment_s, moment_y, poisson, poisson_poly,
                           poisson_relation_residual, r_poly, verify_poisson_tkk)
from jkepler.poly import Poly, field


@pytest.fixture(scope="module")
def g2():
    return make_algebra("gamma:2")


def test_canonical_bracket(g2):
    # variables 0..n-1 are x^a, n..2n-1 are p_a
    n = g2.dim
    assert poisson_poly(Poly.var(2 * n, 0), Poly.var(2 * n, n)) == Poly.constant(2 * n, 1)
    assert poisson_poly(Poly.var(2 * n, 0), Poly.var(2 * n, n + 1)).is_zero()
    assert poisson_poly(Poly.var(2 * n, 0), Poly.var(2 * n, 1)).is_zero()


def test_leibniz(g2):
    n = g2.dim
    f = Poly.var(2 * n, 0) * Poly.var(2 * n, 1)
    assert poisson_poly(f, Poly.var(2 * n, n)) == Poly.var(2 * n, 1)


def _random_poly(n, rng, terms=5, deg=2):
    out = Poly(2 * n)
    for _ in range(terms):
        xe = tuple(int(v) for v in rng.integers(0, deg + 1, n))
        pe = tuple(int(v) for v in rng.integers(0, deg + 1, n))
        out = out + Poly(2 * n, {xe + pe: Fr(int(rng.integers(-5, 6)))})
    return out


def test_antisymmetry_and_jacobi_for_polys(g2):
    n = g2.dim
    rng = np.random.default_rng(0)
    for _ in range(15):
        f, g, h = (_random_poly(n, rng) for _ in range(3))
        assert poisson_poly(f, f).is_zero()
        assert (poisson_poly(f, g) + poisson_poly(g, f)).is_zero()
        jac = (poisson_poly(f, poisson_poly(g, h)) + poisson_poly(g, poisson_poly(h, f))
               + poisson_poly(h, poisson_poly(f, g)))
        assert jac.is_zero()


def test_moment_y_of_identity_is_r(g2):
    assert moment_y(g2, g2.identity()).poly() == r_poly(g2)


def test_xy_bracket_gives_s(g2):
    rng = np.random.default_rng(1)
    for _ in range(100):
        u, v = g2.random_element(rng), g2.random_element(rng)
        # on the Poly forms, through the sparse bracket
        s, x, y = (moment_s(g2, u, v).poly(), moment_x(g2, u).poly(), moment_y(g2, v).poly())
        assert (poisson_poly(x, y) + 2 * s).is_zero()
        assert poisson_poly(x, moment_x(g2, v).poly()).is_zero()


@pytest.mark.parametrize("spec,trials", [("gamma:2", 25), ("h:3:R", 8)])
def test_all_six_families(algebra, spec, trials):
    checks = verify_poisson_tkk(algebra(spec), trials=trials, seed=3)
    assert len(checks) == 6
    assert all(c["status"] == "pass" and c["metric"] == "exact" for c in checks)


def test_mutated_moment_is_caught(g2):
    checks = verify_poisson_tkk(g2, trials=3, seed=1, mutated_moment=True)
    bad = [c for c in checks if c["status"] == "fail"]
    assert len(bad) == 1 and bad[0]["name"] == "poisson:XY"
    # the check dicts of the sparse poisson_poly route, witness included
    assert bad[0]["witness"] == {"relation": "XY", "u": ["0", "0", "2"], "v": ["4", "-4", "-3"],
                                 "z": ["3", "4", "-2"], "w": ["-2", "3", "-1"]}
    assert [c["name"] for c in checks] == [f"poisson:{n}" for n in
                                           ("XX", "YY", "XY", "SX", "SY", "SS")]
    assert all(c["witness"] is None for c in checks if c is not bad[0])


def test_poisson_poly_serves_only_the_conservation_checks(g2, monkeypatch):
    # the relations bracket x-linear symbols in closed form; the r-power
    # Kepler data still go through phase.poisson_poly, looked up at call time
    calls = []
    real = phase.poisson_poly
    monkeypatch.setattr(phase, "poisson_poly", lambda f, g: calls.append(1) or real(f, g))
    checks = verify_poisson_tkk(g2, trials=2, seed=1)
    assert all(c["status"] == "pass" for c in checks)
    assert calls == []
    checks = cli._poisson_checks(g2, SuiteConfig("gamma:2", trials=2, seed=1))
    assert all(c["status"] == "pass" for c in checks)
    assert len(calls) > 0


def test_residual_rejects_unknown_relation(g2):
    rng = np.random.default_rng(2)
    u = g2.random_element(rng)
    with pytest.raises(ValueError):
        poisson_relation_residual(g2, "ZZ", u, u, u, u)


# --- rational layer -----------------------------------------------------------------

def test_rational_bracket_quotient_rule(g2):
    # {N/r, M} r^2 = r {N,M} - N {r,M}
    rng = np.random.default_rng(4)
    n = g2.dim
    num = _random_poly(n, rng, terms=4)
    other = _random_poly(n, rng, terms=4)
    r = r_poly(g2)
    lhs = poisson(PhaseRational(g2, num, 1), PhaseRational(g2, other, 0))
    direct = PhaseRational(g2, r * poisson_poly(num, other) - num * poisson_poly(r, other), 2)
    assert (lhs - direct).is_zero()


def test_rational_arithmetic(g2):
    r = r_poly(g2)
    one_over_r = PhaseRational(g2, Poly.constant(2 * g2.dim, 1), 1)
    assert (one_over_r * PhaseRational(g2, r, 0)
            - PhaseRational(g2, Poly.constant(2 * g2.dim, 1), 0)).is_zero()
    assert (one_over_r + (-one_over_r)).is_zero()
    # quotients are compared, not reduced: (N r) / r^(m+1) == N / r^m
    x = moment_x(g2, g2.identity()).poly()
    for m in range(3):
        assert PhaseRational(g2, x * r, m + 1) == PhaseRational(g2, x, m)
    # X_e is not divisible by r, so X_e / r^2 and X_e / r differ
    assert not (PhaseRational(g2, x, 2) - PhaseRational(g2, x, 1)).is_zero()


# --- classical Kepler data -----------------------------------------------------------

def test_hamiltonian_form(g2):
    h = classical_hamiltonian(g2)
    assert h.rpow == 1
    want = Fr(1, 2) * moment_x(g2, g2.identity()).poly() - Poly.constant(2 * g2.dim, 1)
    assert h.num == want


@pytest.mark.parametrize("spec", ["gamma:2", "gamma:3"])
def test_conservation_identities(algebra, spec):
    alg = algebra(spec)
    h = classical_hamiltonian(alg)
    rng = np.random.default_rng(5)
    u = alg.random_element(rng, span=3)
    v = alg.random_element(rng, span=3)
    luv = classical_angular(alg, u, v)
    au = classical_lenz(alg, u)
    av = classical_lenz(alg, v)
    assert poisson(PhaseRational(alg, luv, 0), h).is_zero()
    assert poisson(au, h).is_zero()
    assert (poisson(au, av) + 2 * (h * luv)).is_zero()


def test_equivariance(algebra):
    alg = algebra("gamma:2")
    rng = np.random.default_rng(6)
    u, v, z = (alg.random_element(rng, span=3) for _ in range(3))
    luv = classical_angular(alg, u, v)
    (lu, du), (lv, dv) = alg.lmul_matrix(u), alg.lmul_matrix(v)
    mz = alg.apply_matrix((lv @ lu - lu @ lv, du * dv), z)
    lhs = poisson(PhaseRational(alg, luv, 0), classical_lenz(alg, z))
    assert (lhs - classical_lenz(alg, mz)).is_zero()


def _momentum_observable(alg, matrix):
    """<M x | pi> = sum_ab M[a, b] x^b p_a for an endomorphism M given as (nums, den)."""
    nums, den = matrix
    n = alg.dim
    return Poly._make(2 * n, {field(b) + field(n + a): int(nums[a, b])
                              for a in range(n) for b in range(n)}, den)


def test_angular_is_momentum_observable_of_commutator(algebra):
    # classical_angular reads (S_vu - S_uv)/2; the reference is <[L_v, L_u] x | pi>
    rng = np.random.default_rng(7)
    for spec in ("gamma:2", "h:3:R", "h:3:C"):
        alg = algebra(spec)
        u, v = alg.random_element(rng), alg.random_element(rng)
        (lu, du), (lv, dv) = alg.lmul_matrix(u), alg.lmul_matrix(v)
        want = _momentum_observable(alg, (lv @ lu - lu @ lv, du * dv))
        assert classical_angular(alg, u, v) == want and not want.is_zero()
