import math
import time
from fractions import Fraction as Fr

import numpy as np
import pytest

import kepler_tstar as tstar
from jkepler.algebra import Element, make_algebra
from jkepler import algebra as jk_algebra, cli, phase
from jkepler.cli import SuiteConfig
from jkepler.phase import (co_star, equivariance_witness, kepler_angular, kepler_hamiltonian,
                           kepler_lenz, moment_x, moment_s, moment_y, over, poisson,
                           poisson_poly, poisson_relation_residual, verify_poisson_tkk)
from jkepler.poly import Poly, monomial_key


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
    # r = <e|x> = sum_a gram_a e_a x^a
    n, e = g2.dim, g2.identity()
    want = Poly(2 * n, {monomial_key(2 * n, a): g * c
                        for a, (g, c) in enumerate(zip(g2.gram, e.coords)) if c})
    assert moment_y(g2, e).poly() == want == tstar.r_poly(g2)


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


def test_no_poisson_check_calls_poisson_poly(g2, monkeypatch):
    # the relations bracket x-linear symbols in closed form and the Kepler
    # data live on co(V)*; poisson_poly stays the tests' reference only
    calls = []
    real = phase.poisson_poly
    monkeypatch.setattr(phase, "poisson_poly", lambda f, g: calls.append(1) or real(f, g))
    for spec in ("gamma:2", "h:3:R"):
        checks = cli._poisson_checks(make_algebra(spec), SuiteConfig(spec, trials=2, seed=1))
        assert [c["status"] for c in checks] == ["pass"] * 10
    assert calls == []


def test_residual_rejects_unknown_relation(g2):
    rng = np.random.default_rng(2)
    u = g2.random_element(rng)
    with pytest.raises(ValueError):
        poisson_relation_residual(g2, "ZZ", u, u, u, u)


# --- Kepler data on co(V)* -----------------------------------------------------------

def _random_co_poly(cs, rng, terms=4, deg=2):
    """A random Poly of degree <= deg in the coordinates of co(V)*."""
    out = Poly(cs.nvars)
    for _ in range(terms):
        idx = rng.integers(0, cs.nvars, int(rng.integers(0, deg + 1))).tolist()
        out = out + Poly(cs.nvars, {monomial_key(cs.nvars, *idx): Fr(int(rng.integers(-5, 6)))})
    return out


def test_common_factor_matches_gcd():
    # gcd(g, entries) against math.gcd, for g a power of two (the OR path on
    # int64) and not, with one entry of fewer factors anywhere, negative
    # entries, an all-zero array, and int64 and Python ints
    rng = np.random.default_rng(5)
    cases = 0
    for g in (2, 4, 16, 2**40, 12, 9, 6):
        for spoiler in (None, 1, 2, 3, -6, -2**41):
            for at in (0, 57, -1):
                a = rng.integers(-50, 50, (3, 5, 7)) * (g if g < 2**40 else 2**41)
                if spoiler is not None:
                    a.reshape(-1)[at] = spoiler
                want = math.gcd(g, *a.reshape(-1).tolist())
                for arr in (a, a.astype(object), a.transpose(2, 0, 1)):
                    assert phase._common_factor(g, arr) == want, (g, spoiler, at)
                assert phase._common_factor(g, 0 * a) == g
                cases += want < g
    assert cases > 0


def test_rational_bracket_quotient_rule(g2):
    # {N / Y_e, M} pulled back to T*V is the quotient rule of the pullbacks
    # under the canonical bracket, with Y_e -> r
    rng = np.random.default_rng(4)
    cs = co_star(g2)
    nonzero = 0
    for _ in range(6):
        num, other = _random_co_poly(cs, rng), _random_co_poly(cs, rng)
        got, m = poisson(g2, (num, 1), (other, 0))
        want, mt = tstar.poisson(g2, (tstar.pullback(g2, num), 1), (tstar.pullback(g2, other), 0))
        assert m == mt == 2 and tstar.pullback(g2, got) == want
        nonzero += not want.is_zero()
    assert nonzero >= 4


def test_rational_arithmetic(g2):
    # quotients are compared over a common power of Y_e, not reduced:
    # (N Y_e) / Y_e^(m+1) and N / Y_e^m have the same numerator over Y_e^(m+1)
    cs = co_star(g2)
    ye, xe = cs.y(g2.identity()), cs.x(g2.identity())
    assert over(g2, (ye, 1), 1) == over(g2, (Poly.constant(cs.nvars, 1), 0), 1)
    for m in range(3):
        assert over(g2, (xe * ye, m + 1), 3) == over(g2, (xe, m), 3)
    # X_e is not divisible by Y_e, so X_e / Y_e^2 and X_e / Y_e differ
    assert not (over(g2, (xe, 2), 2) - over(g2, (xe, 1), 2)).is_zero()


def test_hamiltonian_form(g2):
    num, m = kepler_hamiltonian(g2)
    cs = co_star(g2)
    assert m == 1
    assert num == Fr(1, 2) * cs.x(g2.identity()) - Poly.constant(cs.nvars, 1)
    assert tstar.pullback(g2, num) == tstar.hamiltonian(g2)[0]


@pytest.mark.parametrize("spec", ["gamma:2", "gamma:3", "h:3:R"])
def test_kepler_data_pull_back_to_the_tstar_definitions(algebra, spec):
    # N_H, L_uv and Y_e A_u through the moment functions are the T*V
    # definitions, on every basis element and pair
    alg = algebra(spec)
    basis = [alg.basis_element(a) for a in range(alg.dim)]
    h, want_h = kepler_hamiltonian(alg), tstar.hamiltonian(alg)
    assert h[1] == want_h[1] and tstar.pullback(alg, h[0]) == want_h[0]
    for i, u in enumerate(basis):
        got, want = kepler_lenz(alg, u), tstar.lenz(alg, u)
        assert got[1] == want[1] and tstar.pullback(alg, got[0]) == want[0]
        for v in basis[:i]:
            assert tstar.pullback(alg, kepler_angular(alg, u, v)) == tstar.angular(alg, u, v)


@pytest.mark.parametrize("spec", ["gamma:2", "gamma:3"])
def test_conservation_identities(algebra, spec):
    alg = algebra(spec)
    h = kepler_hamiltonian(alg)
    rng = np.random.default_rng(7)  # seed 5 drew v = 2e on gamma:2, where L_uv = 0
    u = alg.random_element(rng, span=3)
    v = alg.random_element(rng, span=3)
    luv = kepler_angular(alg, u, v)
    au = kepler_lenz(alg, u)
    av = kepler_lenz(alg, v)
    assert not luv.is_zero()
    assert poisson(alg, (luv, 0), h)[0].is_zero()
    assert poisson(alg, au, h)[0].is_zero()
    num, m = poisson(alg, au, av)
    assert (num + over(alg, (2 * h[0] * luv, 1), m)).is_zero()


def test_equivariance(algebra):
    # {L_uv, A_z} = A_{[L_v, L_u] z} through the bracket itself, on random
    # elements; the check reads it off the table's X and Y columns
    alg = algebra("gamma:2")
    rng = np.random.default_rng(7)  # seed 6 drew u = 0
    u, v, z = (alg.random_element(rng, span=3) for _ in range(3))
    luv = kepler_angular(alg, u, v)
    (lu, du), (lv, dv) = alg.lmul_matrix(u), alg.lmul_matrix(v)
    mz = Element(alg, (lv @ lu - lu @ lv) @ np.array(z.coords, dtype=object) / (du * dv))
    assert not mz.is_zero()
    num, m = poisson(alg, (luv, 0), kepler_lenz(alg, z))
    assert (num - over(alg, kepler_lenz(alg, mz), m)).is_zero()
    basis = [alg.basis_element(a) for a in range(alg.dim)]
    pairs = [(i, j) for i in range(alg.dim) for j in range(i)]
    angular = [kepler_angular(alg, basis[i], basis[j]) for i, j in pairs]
    assert equivariance_witness(alg, pairs, angular) is None
    # the other orientation fails on the first pair with D != 0
    assert equivariance_witness(alg, pairs, [-a for a in angular]) == {"u": 2, "v": 1, "z": 1}


def test_equivariance_witness_object_fallback(algebra, monkeypatch):
    # past the float64 guard the same witnesses come from Python ints
    alg = algebra("h:3:R")
    basis = [alg.basis_element(a) for a in range(alg.dim)]
    pairs = [(i, j) for i in range(alg.dim) for j in range(i)]
    angular = [kepler_angular(alg, basis[i], basis[j]) for i, j in pairs]
    flipped = [-a for a in angular]
    want = equivariance_witness(alg, pairs, flipped)
    monkeypatch.setattr(jk_algebra, "_exact_dtype", lambda bound, blas=False: object)
    assert equivariance_witness(alg, pairs, angular) is None
    assert equivariance_witness(alg, pairs, flipped) == want == {"u": 3, "v": 0, "z": 0}


def test_equivariance_witness_in_blocks(algebra, monkeypatch):
    # a few pairs at a time, the same first witness as from one block, with
    # one form negated in the first, a middle or the last block
    alg = algebra("h:3:R")
    basis = [alg.basis_element(a) for a in range(alg.dim)]
    pairs = [(i, j) for i in range(alg.dim) for j in range(i)]
    angular = [kepler_angular(alg, basis[i], basis[j]) for i, j in pairs]
    cases = [angular] + [angular[:p] + [-angular[p]] + angular[p + 1:] for p in range(len(pairs))]
    assert len(pairs) <= phase._PAIRS
    want = [equivariance_witness(alg, pairs, forms) for forms in cases]
    monkeypatch.setattr(phase, "_PAIRS", 4)
    assert [equivariance_witness(alg, pairs, forms) for forms in cases] == want
    assert want[0] is None and sum(w is not None for w in want) == 9
    assert {pairs.index((w["u"], w["v"])) // 4 for w in want if w} == {0, 1, 2, 3}


def test_angular_is_momentum_observable_of_commutator(algebra):
    # kepler_angular reads (S_vu - S_uv)/2; pulled back to T*V it is <[L_v, L_u] x | pi>
    rng = np.random.default_rng(7)
    for spec in ("gamma:2", "h:3:R", "h:3:C"):
        alg = algebra(spec)
        u, v = alg.random_element(rng), alg.random_element(rng)
        (lu, du), (lv, dv) = alg.lmul_matrix(u), alg.lmul_matrix(v)
        want = tstar.momentum_observable(alg, (lv @ lu - lu @ lv, du * dv))
        got = tstar.pullback(alg, kepler_angular(alg, u, v))
        assert got == want == tstar.angular(alg, u, v) and not want.is_zero()


def test_h3O_poisson_within_budget(algebra):
    # the poisson suite on e7(-25) at one trial: the six relation families and
    # the four Kepler identities on every basis element, pair and triple;
    # through the T*V quotients on the first four basis elements this took 5 s
    alg = algebra("h:3:O")
    start = time.perf_counter()
    checks = cli._poisson_checks(alg, SuiteConfig("h:3:O", suite="poisson", trials=1))
    assert time.perf_counter() - start < 20
    assert [c["status"] for c in checks] == ["pass"] * 10
