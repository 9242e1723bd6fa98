from fractions import Fraction as Fr

import numpy as np
import pytest

from jkepler.conformal import (CoElement, ConsistencyError, StrElement, cartan_involution,
                               co_bracket, dim_co, dim_str, random_co_element, root_data)

# dimensions from the real-Lie-algebra table:
#   gamma:k   -> so(k,1)+R, so(k+1,2)
#   h:k:R     -> sl(k,R)+R, sp(k,R)
#   h:k:C     -> sl(k,C)+R, su(k,k)
#   h:k:H     -> su*(2k)+R, so*(4k)
#   h:3:O     -> e6(-26)+R, e7(-25)
DIMS = {
    "gamma:2": (4, 10),
    "gamma:3": (7, 15),
    "gamma:5": (16, 28),
    "h:3:R": (9, 21),
    "h:3:C": (17, 35),
    "h:3:H": (36, 66),
    "h:3:O": (79, 133),
}


@pytest.mark.parametrize("spec,expected", sorted(DIMS.items()))
def test_dimension_oracle(algebra, spec, expected):
    alg = algebra(spec)
    ds, dc = dim_str(alg), dim_co(alg)
    assert (ds, dc) == expected
    assert dc == 2 * alg.dim + ds


def test_xe_ye_bracket_is_minus_two_identity(algebra):
    alg = algebra("gamma:3")
    e = alg.identity()
    b = co_bracket(CoElement.x(e), CoElement.y(e))
    assert b.x_part.is_zero() and b.y_part.is_zero()
    m = b.str_part.matrix
    for i in range(alg.dim):
        for j in range(alg.dim):
            assert m[i, j] == (-2 if i == j else 0)


def test_generator_relations(algebra):
    alg = algebra("h:3:R")
    rng = np.random.default_rng(0)
    for _ in range(20):
        u, v, z = (alg.random_element(rng, span=4) for _ in range(3))
        b = co_bracket(CoElement.s(u, v), CoElement.x(z))
        assert b.x_part == alg.triple(u, v, z)
        assert b.y_part.is_zero() and b.str_part.is_zero()
        b = co_bracket(CoElement.s(u, v), CoElement.y(z))
        assert b.y_part == -alg.triple(v, u, z)
        assert b.x_part.is_zero() and b.str_part.is_zero()
        assert co_bracket(CoElement.x(u), CoElement.x(v)).is_zero()
        assert co_bracket(CoElement.y(u), CoElement.y(v)).is_zero()


@pytest.mark.parametrize("spec,trials", [("gamma:2", 200), ("gamma:3", 200), ("h:3:R", 200)])
def test_antisymmetry_and_jacobi_exact(algebra, spec, trials):
    alg = algebra(spec)
    rng = np.random.default_rng(1)
    for _ in range(trials):
        a = random_co_element(alg, rng)
        b = random_co_element(alg, rng)
        c = random_co_element(alg, rng)
        assert (co_bracket(a, b) + co_bracket(b, a)).is_zero()
        jac = (co_bracket(a, co_bracket(b, c)) + co_bracket(b, co_bracket(c, a))
               + co_bracket(c, co_bracket(a, b)))
        assert jac.is_zero()


def test_involution_properties(algebra):
    alg = algebra("gamma:3")
    rng = np.random.default_rng(2)
    for _ in range(40):
        a = random_co_element(alg, rng)
        b = random_co_element(alg, rng)
        assert cartan_involution(cartan_involution(a)) == a
        assert cartan_involution(co_bracket(a, b)) == co_bracket(cartan_involution(a),
                                                                 cartan_involution(b))


def test_involution_swaps_x_and_y(algebra):
    alg = algebra("h:3:C")
    rng = np.random.default_rng(3)
    u, v = alg.random_element(rng), alg.random_element(rng)
    th = cartan_involution(CoElement.x(u))
    assert th.y_part == u and th.x_part.is_zero()
    # theta[X_u, Y_v] = [Y_u, X_v]
    lhs = cartan_involution(co_bracket(CoElement.x(u), CoElement.y(v)))
    rhs = co_bracket(CoElement.y(u), CoElement.x(v))
    assert lhs == rhs


def test_theta_eigenspaces(algebra):
    alg = algebra("h:3:R")
    rng = np.random.default_rng(4)
    u, v, w = (alg.random_element(rng) for _ in range(3))
    # fixed space u: [L_u, L_v] and X_w + Y_w
    lu, lv = alg.lmul_matrix(u), alg.lmul_matrix(v)
    ku = CoElement.from_matrix(alg, lu @ lv - lv @ lu)
    assert cartan_involution(ku) == ku
    kw = CoElement.x(w) + CoElement.y(w)
    assert cartan_involution(kw) == kw
    # p-part: L_u and X_v - Y_v have eigenvalue -1
    pl = CoElement.s(u, alg.identity())
    assert cartan_involution(pl) == -pl
    pv = CoElement.x(w) - CoElement.y(w)
    assert cartan_involution(pv) == -pv


def _triples(rd):
    return [(rd.h_e, rd.a_e, rd.s_e), (rd.h_alpha0, rd.a_alpha0, rd.s_alpha0)]


@pytest.mark.parametrize("spec", ["gamma:3", "h:3:R", "h:3:C"])
def test_root_sl2_triples(algebra, spec):
    alg = algebra(spec)
    rd = root_data(alg)
    for (h, a, s) in _triples(rd):
        assert co_bracket(h, a) == s.scaled(2)
        assert co_bracket(h, s) == a.scaled(-2)
        assert co_bracket(a, s) == h.scaled(Fr(-1, 2))
    # compactness of the center direction
    assert cartan_involution(rd.h_e) == rd.h_e


# A complex CoElement as a pair (re, im) of rational ones; the bracket is
# extended complex-bilinearly: [a + ib, c + id] = ([a,c] - [b,d]) + i([a,d] + [b,c]).

def _c_bracket(p, q):
    (a, b), (c, d) = p, q
    return co_bracket(a, c) - co_bracket(b, d), co_bracket(a, d) + co_bracket(b, c)


def _c_scaled(p, k):
    return p[0].scaled(k), p[1].scaled(k)


@pytest.mark.parametrize("spec", ["gamma:2", "gamma:3", "h:3:R", "h:3:C"])
def test_root_data_is_rational(algebra, spec):
    alg = algebra(spec)
    rd = root_data(alg)
    for t in _triples(rd):
        for el in t:
            entries = list(el.x_part.coords) + list(el.y_part.coords) + list(el.str_part.matrix.flat)
            assert all(type(c) is Fr for c in entries)
    # the paper's complex triple H = i h~, E+- = i a -+ s satisfies
    # [H, E+-] = +-2 E+-, [E+, E-] = -H, and theta H_e = H_e
    for (h, a, s) in _triples(rd):
        zero = h.scaled(0)
        big_h, e_plus, e_minus = (zero, h), (-s, a), (s, a)
        for lhs, rhs in [(_c_bracket(big_h, e_plus), _c_scaled(e_plus, 2)),
                         (_c_bracket(big_h, e_minus), _c_scaled(e_minus, -2)),
                         (_c_bracket(e_plus, e_minus), _c_scaled(big_h, -1))]:
            assert lhs[0] == rhs[0] and lhs[1] == rhs[1]
        # each relation is nontrivial: no side is zero
        assert not (e_plus[0].is_zero() or e_plus[1].is_zero() or h.is_zero())
    assert cartan_involution(rd.h_e) == rd.h_e


def test_str_membership_certification(algebra):
    alg = algebra("gamma:3")
    n = alg.dim
    bad = np.full((n, n), Fr(0), dtype=object)
    bad[0, 0] = Fr(1)  # a rank-one projector is not in span{S_uv} for gamma:3
    with pytest.raises(ConsistencyError):
        StrElement(alg, bad)
    # exact certification accepts genuine members
    rng = np.random.default_rng(5)
    u = alg.random_element(rng)
    v = alg.random_element(rng)
    StrElement(alg, alg.smul_matrix(u, v))
