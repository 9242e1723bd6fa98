import math
from fractions import Fraction as Fr

import numpy as np
import pytest

from jkepler.algebra import DomainError, make_algebra
from jkepler.poly import Poly
from jkepler.scalars import CQ
from jkepler import weyl
from jkepler.weyl import (WallachParam, WeylOp, acute_ops, acute_s, acute_x,
                          acute_y, apply_op, apply_to_state, bound_spectrum, commutator,
                          compose, gaussian_conjugate, he_grading_check, he_op,
                          lowest_weight_check, restriction_degeneracy, restriction_rank,
                          tkk_op_residual, verify_tkk_ops, x_tilde, y_tilde)


@pytest.fixture(scope="module")
def g3():
    return make_algebra("gamma:3")


def _random_op(n, rng, terms=4, deg=2):
    out = {}
    for _ in range(terms):
        a = tuple(int(v) for v in rng.integers(0, deg + 1, n))
        b = tuple(int(v) for v in rng.integers(0, deg + 1, n))
        out[a + b] = Fr(int(rng.integers(-4, 5)))
    return WeylOp(2 * n, out)


def test_canonical_pair(g3):
    n = 2 * g3.dim
    d1, x1 = WeylOp.d_op(n, 0), WeylOp.x_mul(n, 0)
    assert commutator(d1, x1) == WeylOp.constant(n, Fr(1))
    assert commutator(d1, WeylOp.x_mul(n, 1)).is_zero()


def test_euler_operator_on_monomial(g3):
    n = g3.dim
    p = Poly(n, {(2, 0, 0, 0): Fr(1)})
    euler = compose(WeylOp.x_mul(2 * n, 0), WeylOp.d_op(2 * n, 0))
    assert apply_op(euler, p) == p.scaled(Fr(2))


def test_compose_associativity_100_triples(g3):
    n = g3.dim
    rng = np.random.default_rng(0)
    for _ in range(100):
        a, b, c = (_random_op(n, rng) for _ in range(3))
        assert compose(compose(a, b), c) == compose(a, compose(b, c))


def test_apply_is_module_action(g3):
    n = g3.dim
    rng = np.random.default_rng(1)
    for _ in range(40):
        a, b = _random_op(n, rng), _random_op(n, rng)
        p = Poly(n, {tuple(int(v) for v in rng.integers(0, 3, n)): Fr(2, 3)})
        assert apply_op(compose(a, b), p) == apply_op(a, apply_op(b, p))


# --- acute realization ---------------------------------------------------------------

def test_acute_y_is_multiplication(g3):
    n = g3.dim
    ye = acute_y(g3, Fr(1), g3.identity())
    z = (0,) * n
    expected = {}
    for a in range(n):
        c = g3.gram[a] * g3.identity().coords[a]
        if c:
            expected[z[:a] + (1,) + z[a + 1:] + z] = CQ(0, -1) * c
    assert ye == WeylOp(2 * n, expected)
    # nu-independent
    assert ye == acute_y(g3, Fr(7, 3), g3.identity())


def test_acute_s_ee(g3):
    # S_ee(nu) = -<x|D> - nu rho / 2
    n = g3.dim
    nu = Fr(2)
    see = acute_s(g3, nu, g3.identity(), g3.identity())
    euler = WeylOp(2 * n)
    for a in range(n):
        euler = euler + compose(WeylOp.x_mul(2 * n, a), WeylOp.d_op(2 * n, a))
    assert see == euler.scaled(Fr(-1)) - WeylOp.constant(2 * n, nu * g3.rho / 2)


def test_nu_zero_reduces_to_hats(g3):
    rng = np.random.default_rng(2)
    u, v = g3.random_element(rng), g3.random_element(rng)
    s0, x0, y0 = acute_ops(g3, Fr(0), u, v)
    s1, x1, y1 = acute_ops(g3, Fr(1), u, v)
    # the nu=0 operators carry no constant or first-order nu terms
    assert (s1 - s0) == WeylOp.constant(2 * g3.dim, -Fr(1, 2) * g3.rho * g3.inner(u, v))
    diff = x1 - x0
    assert all(sum(k[:g3.dim]) == 0 and sum(k[g3.dim:]) == 1 for k in diff.terms)
    assert y0 == y1


def test_gaussian_conjugation_shift(g3):
    n = g3.dim
    e = g3.identity()
    for a in range(n):
        co = gaussian_conjugate(g3, WeylOp.d_op(2 * n, a))
        shift = g3.gram[a] * e.coords[a]
        assert co == WeylOp.d_op(2 * n, a) - WeylOp.constant(2 * n, shift)


def test_gaussian_conjugation_involutive(g3):
    rng = np.random.default_rng(3)
    op = _random_op(g3.dim, rng)
    assert gaussian_conjugate(g3, gaussian_conjugate(g3, op, 1), -1) == op


def test_identification_formula(g3):
    # e^r (-i/2)(X_u + Y_u) e^{-r} = (<x|{DuD}> + nu tr(u D))/2 + Lhat_u - (nu/2) tr u
    n = g3.dim
    nu = Fr(3, 7)
    rng = np.random.default_rng(4)
    u = g3.random_element(rng, span=4)
    lhs = gaussian_conjugate(
        g3, (acute_x(g3, nu, u) + acute_y(g3, nu, u)).scaled(CQ(0, Fr(-1, 2))))
    half_xdd = acute_x(g3, 0, u).scaled(CQ(0, Fr(-1, 2)))
    tr_term = WeylOp(2 * n)
    for a in range(n):
        if u.coords[a]:
            tr_term = tr_term + WeylOp.d_op(2 * n, a).scaled(nu * g3.rho * u.coords[a] / 2)
    l_hat = acute_s(g3, 0, u, g3.identity())
    tr_u = g3.rho * g3.inner(u, g3.identity())
    rhs = half_xdd + tr_term + l_hat - WeylOp.constant(2 * n, nu * tr_u / 2)
    assert lhs == rhs


@pytest.mark.parametrize("spec", ["gamma:3", "h:3:R"])
@pytest.mark.parametrize("nu", [Fr(0), Fr(1, 2), Fr(1), Fr(7, 3)])
def test_tkk_relations_exact(algebra, spec, nu):
    checks = verify_tkk_ops(algebra(spec), nu, trials=5, seed=11)
    assert all(c["status"] == "pass" for c in checks)


# The reference: the six relations written out over the public complex
# operators.  Entry (A, B, rest) stands for the residual [A, B] + rest.
def _relation_table(alg, s, x, y, u, v, z, w):
    zero = WeylOp(2 * alg.dim)
    return {"XX": (x(u), x(v), zero),
            "YY": (y(u), y(v), zero),
            "XY": (x(u), y(v), 2 * s(u, v)),
            "SX": (s(u, v), x(z), -x(alg.triple(u, v, z))),
            "SY": (s(u, v), y(z), y(alg.triple(v, u, z))),
            "SS": (s(u, v), s(z, w), s(z, alg.triple(v, u, w)) - s(alg.triple(u, v, z), w))}


# [iA, iB] = -[A, B] and [iA, -iB] = [A, B], with X = i X~ and Y = -i Y~
_UNITS = {"XX": CQ(-1), "YY": CQ(-1), "XY": CQ(1), "SX": CQ(0, 1), "SY": CQ(0, -1),
          "SS": CQ(1)}


@pytest.mark.parametrize("spec,nus", [("gamma:3", (Fr(1), Fr(7, 3))),
                                      ("h:3:R", (Fr(1, 2), Fr(7, 3))),
                                      ("h:3:C", (Fr(1), Fr(7, 3)))])
def test_complex_operators_are_units_times_rational(algebra, spec, nus):
    alg = algebra(spec)
    rng = np.random.default_rng(17)
    u, v, z, w = (alg.random_element(rng, span=4) for _ in range(4))
    for nu in nus:
        assert acute_x(alg, nu, u) == x_tilde(alg, nu, u).scaled(CQ(0, 1))
        assert acute_y(alg, nu, v) == y_tilde(alg, v).scaled(CQ(0, -1))
        ref = _relation_table(alg, lambda a, b: acute_s(alg, nu, a, b),
                              lambda a: acute_x(alg, nu, a), lambda b: acute_y(alg, nu, b),
                              u, v, z, w)
        rat = _relation_table(alg, lambda a, b: acute_s(alg, nu, a, b),
                              lambda a: x_tilde(alg, nu, a), lambda b: y_tilde(alg, b),
                              u, v, z, w)
        for name, unit in _UNITS.items():
            (a, b, rest), (ra, rb, _) = ref[name], rat[name]
            bracket = commutator(a, b)
            assert bracket == commutator(ra, rb).scaled(unit)
            assert bracket + rest == tkk_op_residual(alg, name, nu, u, v, z, w).scaled(unit)
            # the brackets are not all zero, so the unit is pinned
            assert bracket.is_zero() == (name in ("XX", "YY"))


def test_rational_he_and_lowest_weight_operators(g3):
    nu = Fr(5, 2)
    c, e = g3.jordan_frame()[0], g3.identity()
    assert he_op(g3, nu) == (acute_x(g3, nu, e) + acute_y(g3, nu, e)).scaled(CQ(0, 1))
    e_minus = (acute_x(g3, nu, c) - acute_y(g3, nu, c)).scaled(CQ(0, Fr(1, 2))) \
        + acute_s(g3, nu, c, e)
    assert e_minus == acute_s(g3, nu, c, e) - (x_tilde(g3, nu, c) + y_tilde(g3, c)).scaled(Fr(1, 2))
    rng = np.random.default_rng(8)
    w = g3.random_element(rng)
    assert acute_x(g3, nu, w) + acute_y(g3, nu, w) == \
        (x_tilde(g3, nu, w) - y_tilde(g3, w)).scaled(CQ(0, 1))


def test_mutated_s_builder_is_caught(g3, monkeypatch):
    real = weyl.acute_s
    monkeypatch.setattr(weyl, "acute_s", lambda *args: -real(*args))
    checks = {c["name"]: c for c in verify_tkk_ops(g3, Fr(7, 3), trials=3, seed=1)}
    xy = checks["operators:XY"]
    assert xy["status"] == "fail"
    assert list(xy["witness"]) == ["relation", "nu", "u", "v", "z", "w"]
    assert xy["witness"]["nu"] == "7/3"
    assert checks["operators:XX"]["status"] == "pass"
    assert checks["operators:YY"]["status"] == "pass"


def test_tkk_residual_names(g3):
    rng = np.random.default_rng(5)
    u = g3.random_element(rng)
    with pytest.raises(ValueError):
        tkk_op_residual(g3, "QQ", Fr(1), u, u, u, u)


# --- Wallach parameter and spectrum ---------------------------------------------------

def test_wallach_param_discrete_and_continuous(algebra):
    g3 = algebra("gamma:3")
    p = WallachParam.make(g3, Fr(1))
    assert p.kind == "discrete" and p.k == 1 and p.rho_of_nu == 1
    p = WallachParam.make(g3, Fr(3, 2))
    assert p.kind == "continuous" and p.rho_of_nu == 2
    hr = algebra("h:3:R")
    assert WallachParam.make(hr, Fr(1, 2)).rho_of_nu == 1
    assert WallachParam.make(hr, Fr(1)).rho_of_nu == 2
    assert WallachParam.make(hr, Fr(5, 2)).kind == "continuous"
    for bad in (Fr(0), Fr(-1), Fr(9, 10), Fr(1, 3)):
        with pytest.raises(DomainError):
            WallachParam.make(hr, bad)


def test_spectrum_values(algebra):
    g3 = algebra("gamma:3")
    assert bound_spectrum(g3, Fr(1), 0) == Fr(-1, 2)
    assert bound_spectrum(g3, Fr(1), 3) == Fr(-1, 32)
    hr = algebra("h:3:R")
    assert bound_spectrum(hr, Fr(1, 2), 0) == Fr(-8, 9)
    with pytest.raises(DomainError):
        bound_spectrum(g3, Fr(1, 3), 0)
    with pytest.raises(DomainError):
        bound_spectrum(g3, Fr(1), -1)


def test_spectrum_monotone_increasing_to_zero(algebra):
    hr = algebra("h:3:R")
    es = [bound_spectrum(hr, Fr(3, 2), i) for i in range(30)]
    assert all(es[i] < es[i + 1] < 0 for i in range(29))
    assert float(es[-1]) > -0.002


# --- grading and lowest weight ----------------------------------------------------------

@pytest.mark.parametrize("nu", [Fr(1), Fr(2)])
def test_he_grading(g3, nu):
    for i in range(4):
        rep = he_grading_check(g3, nu, i)
        assert rep["status"] == "pass"
        assert rep["eigenvalue"] == str(2 * i + nu * g3.rho)


def test_he_grading_known_eigenvalue(g3):
    rep = he_grading_check(g3, Fr(1), 2)
    assert rep["eigenvalue"] == "6"  # 2*2 + nu*rho = 6 at nu=1


@pytest.mark.parametrize("spec,nu", [("gamma:3", Fr(1)), ("gamma:3", Fr(5, 2)),
                                     ("h:3:R", Fr(1, 2))])
def test_lowest_weight(algebra, spec, nu):
    rep = lowest_weight_check(algebra(spec), nu, seed=2)
    assert rep["status"] == "pass", rep
    assert rep["weight"] == f"{nu}*lambda0"


def test_vacuum_annihilated_by_alpha0_lowering(g3):
    # conj(E_{-alpha0}) (1) = 0 spelled out through the conjugated operator
    nu = Fr(1)
    c = g3.jordan_frame()[0]
    op = (acute_x(g3, nu, c) - acute_y(g3, nu, c)).scaled(CQ(0, Fr(1, 2))) \
        + acute_s(g3, nu, c, g3.identity())
    assert apply_to_state(g3, op, Poly.constant(g3.dim, Fr(1))).is_zero()


def test_grading_respects_degree_filtration(g3):
    # compact generators conjugated by e^{-r} keep degree <= I
    nu = Fr(1)
    rng = np.random.default_rng(6)
    w = g3.random_element(rng)
    u, v = g3.random_element(rng), g3.random_element(rng)
    ops = [acute_x(g3, nu, w) + acute_y(g3, nu, w),
           (acute_s(g3, nu, u, v) - acute_s(g3, nu, v, u)).scaled(Fr(1, 2))]
    for op in ops:
        conj = gaussian_conjugate(g3, op)
        for exps in [(2, 0, 0, 0), (1, 1, 0, 0), (0, 0, 2, 1)]:
            p = Poly(g3.dim, {exps: Fr(1)})
            q = apply_op(conj, p)
            assert q.degree() <= sum(exps)


# --- degeneracies ----------------------------------------------------------------------

def test_degeneracy_constants(g3):
    assert restriction_degeneracy(g3, Fr(1), 0, seed=1) == 1


@pytest.mark.parametrize("level", [1, 2, 3])
def test_hydrogen_degeneracies(g3, level):
    assert restriction_degeneracy(g3, Fr(1), level, seed=7) == (level + 1) ** 2


def test_continuous_nu_full_dimension(g3):
    for level in (1, 2):
        want = math.comb(g3.dim + level - 1, level)
        assert restriction_degeneracy(g3, Fr(3, 2), level, seed=5) == want


def test_degeneracy_deterministic_and_validated(g3):
    a = restriction_degeneracy(g3, Fr(1), 2, seed=9)
    b = restriction_degeneracy(g3, Fr(1), 2, seed=9)
    assert a == b == 9
    with pytest.raises(DomainError):
        restriction_degeneracy(g3, Fr(1), 2, samples=4, seed=3)


def test_rank1_cone_degeneracy_additivity(g3):
    # cumulative rank equals the sum of per-level degeneracies, two computations
    for top in (2, 3):
        total = sum(restriction_degeneracy(g3, Fr(1), i, seed=13) for i in range(top + 1))
        assert total == restriction_rank(g3, Fr(1), top, seed=41)
    oracle = sum((i + 1) ** 2 for i in range(4))
    assert sum(restriction_degeneracy(g3, Fr(1), i, seed=13) for i in range(4)) == oracle
