import ast
import math
import re
from fractions import Fraction as Fr
from pathlib import Path

import numpy as np
import pytest

from jkepler import algebra as jk_algebra, cone as C
from jkepler.algebra import (AlgebraSpec, Element, ExactArray, MismatchError, _build_hermitian,
                             _lnum, DomainError, SpecificationError, exact_ints, make_algebra)
from jkepler.symfun import tau_poly

ALL_SPECS = ["gamma:2", "gamma:3", "gamma:5", "h:1:R", "h:3:R", "h:3:C", "h:3:H", "h:3:O"]

TABLE = {
    "gamma:2": (2, 1, 3),
    "gamma:3": (2, 2, 4),
    "gamma:5": (2, 4, 6),
    "h:1:R": (1, 1, 1),
    "h:3:R": (3, 1, 6),
    "h:3:C": (3, 2, 9),
    "h:3:H": (3, 4, 15),
    "h:3:O": (3, 8, 27),
}


# --- spec parsing and the classification table ----------------------------------

@pytest.mark.parametrize("spec,expected", sorted(TABLE.items()))
def test_rank_degree_dimension(algebra, spec, expected):
    alg = algebra(spec)
    assert (alg.rho, alg.delta, alg.dim) == expected
    # Peirce dimension count
    assert alg.dim == alg.rho + alg.rho * (alg.rho - 1) * alg.delta // 2


@pytest.mark.parametrize("bad", ["gamma:1", "h:2:R", "h:2:C", "h:1:H", "h:4:O", "h:2:O"])
def test_invalid_specs_rejected(bad):
    with pytest.raises(SpecificationError):
        make_algebra(bad)


def test_parse_grammar():
    assert str(AlgebraSpec.parse("gamma:7")) == "gamma:7"
    assert str(AlgebraSpec.parse("h:3:H")) == "h:3:H"
    assert str(AlgebraSpec.parse("H:3:o")) == "h:3:O"
    with pytest.raises(SpecificationError):
        AlgebraSpec.parse("spin:3")
    with pytest.raises(SpecificationError):
        AlgebraSpec.parse("h:3")


def test_sym_real_1_is_the_reals(algebra):
    alg = algebra("h:1:R")
    assert alg.dim == 1
    e = alg.identity()
    assert e.coords == (Fr(1),)
    assert alg.det(e) == 1


# --- element algebra --------------------------------------------------------------

@pytest.mark.parametrize("spec", ALL_SPECS)
def test_identity_and_axioms_random(algebra, spec):
    alg = algebra(spec)
    e = alg.identity()
    assert alg.inner(e, e) == 1
    rng = np.random.default_rng(11)
    for _ in range(50):
        u = alg.random_element(rng)
        v = alg.random_element(rng)
        w = alg.random_element(rng, denominator=3)
        assert alg.product(e, u) == u
        assert u * v == v * u
        u2 = u * u
        assert u * (u2 * w) == u2 * (u * w)
        assert alg.inner(v * u, w) == alg.inner(v, u * w)


def test_l_e_is_identity_matrix(algebra):
    alg = algebra("h:3:C")
    le = as_fractions(alg.lmul_matrix(alg.identity()))
    n = alg.dim
    for i in range(n):
        for j in range(n):
            assert le[i, j] == (1 if i == j else 0)


def test_mode_and_algebra_mismatch(algebra):
    a3 = algebra("gamma:3")
    a2 = algebra("gamma:2")
    rng = np.random.default_rng(0)
    u = a3.random_element(rng)
    with pytest.raises(MismatchError):
        u * a2.random_element(rng)
    with pytest.raises(MismatchError):
        u.scaled(0.5)
    # an inexact coordinate is refused at construction, not at the next product
    for bad in (0.5, 1j, np.float64(2.0)):
        with pytest.raises(MismatchError):
            Element(a3, [0, 0, bad, 0])


def test_spin_product_closed_form(algebra):
    # (lam, u)(mu, v) = (lam mu + u.v, lam v + mu u)
    alg = algebra("gamma:5")
    rng = np.random.default_rng(1)
    for _ in range(20):
        a = alg.random_element(rng)
        b = alg.random_element(rng)
        lam, mu = a.coords[0], b.coords[0]
        uvec, vvec = a.coords[1:], b.coords[1:]
        got = (a * b).coords
        assert got[0] == lam * mu + sum(x * y for x, y in zip(uvec, vvec))
        assert got[1:] == tuple(lam * y + mu * x for x, y in zip(uvec, vvec))


def _clifford_gammas(k):
    """Hermitian anticommuting gamma_i for R^k (complex, for the oracle only)."""
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sy = np.array([[0, -1j], [1j, 0]], dtype=complex)
    sz = np.array([[1, 0], [0, -1]], dtype=complex)
    gammas = [sx, sy, sz]
    while len(gammas) < k:
        old = gammas
        m = old[0].shape[0]
        gammas = [np.kron(g, sz) for g in old[:-1]]
        gammas += [np.kron(old[-1], sz)]
        gammas += [np.kron(np.eye(m, dtype=complex), sx), np.kron(np.eye(m, dtype=complex), sy)]
    return gammas[:k]


@pytest.mark.parametrize("spec", ["gamma:3", "gamma:5"])
def test_spin_product_against_clifford_oracle(algebra, spec):
    alg = algebra(spec)
    k = alg.spec.k
    gam = _clifford_gammas(k)
    m = gam[0].shape[0]
    for i in range(k):
        for j in range(k):
            want = 2 * np.eye(m) if i == j else np.zeros((m, m))
            assert np.allclose(gam[i] @ gam[j] + gam[j] @ gam[i], want)

    def embed(el):
        c = [float(x) for x in el.coords]
        return c[0] * np.eye(m, dtype=complex) + sum(ci * g for ci, g in zip(c[1:], gam))

    rng = np.random.default_rng(4)
    for _ in range(10):
        a = alg.random_element(rng)
        b = alg.random_element(rng)
        mprod = 0.5 * (embed(a) @ embed(b) + embed(b) @ embed(a))
        got = embed(a * b)
        assert np.allclose(mprod, got, atol=1e-9)


def test_symreal3_product_matches_matrix_oracle(algebra):
    alg = algebra("h:3:R")
    rng = np.random.default_rng(5)

    def to_matrix(el):
        c = el.coords
        return np.array([[c[0], c[3], c[4]],
                         [c[3], c[1], c[5]],
                         [c[4], c[5], c[2]]], dtype=object)

    def from_matrix(m):
        return Element(alg, [m[0, 0], m[1, 1], m[2, 2], m[0, 1], m[0, 2], m[1, 2]])

    for _ in range(15):
        a = alg.random_element(rng)
        b = alg.random_element(rng)
        am, bm = to_matrix(a), to_matrix(b)
        sym = (am @ bm + bm @ am)
        sym = np.array([[x / 2 for x in row] for row in sym], dtype=object)
        assert from_matrix(sym) == a * b


# --- triple product and S-operators ----------------------------------------------

@pytest.mark.parametrize("spec", ["gamma:3", "h:3:R", "h:3:C"])
def test_triple_product_identities(algebra, spec):
    alg = algebra(spec)
    rng = np.random.default_rng(6)
    e = alg.identity()
    for _ in range(15):
        u, v, z, w = (alg.random_element(rng, span=4) for _ in range(4))
        # {u e w} = uw
        assert alg.triple(u, e, w) == u * w
        # S_ue = L_u
        assert np.array_equal(as_fractions(alg.smul_matrix(u, e)), as_fractions(alg.lmul_matrix(u)))
        # adjoint: <S_uv x | y> = <x | S_vu y>
        suv, svu = alg.smul_matrix(u, v), alg.smul_matrix(v, u)
        suv_z, svu_w = (Element(alg, as_fractions(m) @ np.array(x.coords, dtype=object))
                        for m, x in ((suv, z), (svu, w)))
        assert alg.inner(suv_z, w) == alg.inner(z, svu_w)
        # [S_uv, S_zw] = S_{uvz},w - S_z,{vuw}
        suv, szw = as_fractions(suv), as_fractions(alg.smul_matrix(z, w))
        lhs = suv @ szw - szw @ suv
        rhs = (as_fractions(alg.smul_matrix(alg.triple(u, v, z), w))
               - as_fractions(alg.smul_matrix(z, alg.triple(v, u, w))))
        assert all(x == y for x, y in zip(lhs.flat, rhs.flat))


def test_smul_adjoint_transpose_relation_for_100_pairs(algebra):
    alg = algebra("gamma:3")
    rng = np.random.default_rng(7)
    g = alg.gram
    n = alg.dim
    for _ in range(100):
        u, v = alg.random_element(rng), alg.random_element(rng)
        suv, svu = as_fractions(alg.smul_matrix(u, v)), as_fractions(alg.smul_matrix(v, u))
        for i in range(n):
            for j in range(n):
                assert g[i] * suv[i, j] == g[j] * svu[j, i]


# --- trace, inner product, quadratic representation --------------------------------

def test_spin_trace_formula(algebra):
    alg = algebra("gamma:4")
    u = Element(alg, [Fr(5, 2), 1, 2, 3, 4])
    assert alg.trace(u) == 5


def test_quad_rep_of_identity(algebra):
    alg = algebra("h:3:H")
    p = as_fractions(alg.quad_rep(alg.identity()))
    n = alg.dim
    for i in range(n):
        for j in range(n):
            assert p[i, j] == (1 if i == j else 0)


def test_quad_rep_fundamental_identity_float(algebra):
    # Str-characterizing identity P(P(x)y) = P(x)P(y)P(x) in the cone's float frame
    alg = algebra("h:3:R")
    rng = np.random.default_rng(8)

    def quad_rep(z):
        lz = C.lmul(alg, z)
        return 2 * (lz @ lz) - C.lmul(alg, C.product(alg, z, z))

    x = rng.standard_normal(alg.dim)
    y = rng.standard_normal(alg.dim)
    px = quad_rep(x)
    pxy = quad_rep(px @ y)
    rhs = px @ quad_rep(y) @ px
    assert np.allclose(pxy, rhs, atol=1e-9)


# --- spectral invariants -------------------------------------------------------------

def test_c2_and_tau1(algebra):
    alg = algebra("h:3:C")
    rng = np.random.default_rng(9)
    x = alg.random_element(rng)
    p1, p2 = alg.power_traces(x, 2)
    assert alg.sym_c(x, 2) == (p1 * p1 - p2) / 2
    assert tau_poly(1).value([p1]) == 1


def test_det_identity_element(algebra):
    for spec in ALL_SPECS:
        alg = algebra(spec)
        assert alg.det(alg.identity()) == 1


def test_spin_det_and_minimal_polynomial(algebra):
    alg = algebra("gamma:3")
    rng = np.random.default_rng(10)
    for _ in range(20):
        x = alg.random_element(rng)
        lam = x.coords[0]
        norm2 = sum(c * c for c in x.coords[1:])
        d = alg.det(x)
        assert d == lam * lam - norm2
        # minimal polynomial oracle: x^2 - (tr x) x + det(x) e = 0
        e = alg.identity()
        resid = x * x - x.scaled(alg.trace(x)) + e.scaled(d)
        assert resid.is_zero()


def test_sym_c_range_errors(algebra):
    alg = algebra("gamma:3")
    x = alg.identity()
    with pytest.raises(DomainError):
        alg.sym_c(x, 0)


# --- frames, Jordan bases, Peirce data -----------------------------------------------

@pytest.mark.parametrize("spec", ALL_SPECS)
def test_frame_invariants(algebra, spec):
    alg = algebra(spec)
    fr = alg.jordan_frame()
    assert len(fr) == alg.rho
    total = alg.zero()
    for i, ei in enumerate(fr):
        assert (ei * ei - ei).is_zero()
        assert alg.trace(ei) == 1
        for j in range(i):
            assert (ei * fr[j]).is_zero()
        total = total + ei
    assert total == alg.identity()


def test_symreal3_frame_is_diagonal_units(algebra):
    alg = algebra("h:3:R")
    fr = alg.jordan_frame()
    for i in range(3):
        expected = [Fr(0)] * 6
        expected[i] = Fr(1)
        assert list(fr[i].coords) == expected


def test_jordan_basis_lengths_and_peirce_dims(algebra):
    # the cone's float Jordan basis: the frame rows and the off-diagonal Peirce vectors
    for spec in ["gamma:3", "gamma:4", "h:3:R", "h:3:O"]:
        alg = algebra(spec)
        diag = C.float_frame(alg).jordan
        off = C.peirce_vectors(alg)
        assert len(diag) == alg.rho
        assert len(off) == alg.rho * (alg.rho - 1) * alg.delta // 2
        for b in list(diag) + [v for _, _, v in off]:
            assert abs(b @ b - 1.0 / alg.rho) < 1e-12
        for i, j, v in off:
            assert 0 <= i < j < alg.rho
            # v lies in V_ij: c_i v = c_j v = v/2
            for c in (diag[i], diag[j]):
                assert np.allclose(C.product(alg, c, v), v / 2, atol=1e-12)
    # V_12 of gamma:4 has dimension delta = 3
    alg = algebra("gamma:4")
    assert sum(1 for i, j, _ in C.peirce_vectors(alg) if (i, j) == (0, 1)) == 3


# --- automorphisms ------------------------------------------------------------------------

@pytest.mark.parametrize("spec", ["gamma:3", "h:3:R", "h:3:O"])
def test_automorphism_sample(algebra, spec):
    alg = algebra(spec)
    g = C.automorphism_sample(alg, 21)
    n = alg.dim
    assert np.allclose(g @ g.T, np.eye(n), atol=1e-10)
    ef = C.float_frame(alg).identity
    assert np.allclose(g @ ef, ef, atol=1e-10)
    rng = np.random.default_rng(3)
    u = rng.standard_normal(n)
    v = rng.standard_normal(n)
    gu, gv = g @ u, g @ v
    lhs = g @ C.product(alg, u, v)
    rhs = C.product(alg, gu, gv)
    assert np.max(np.abs(lhs - rhs)) <= 1e-10 * max(1.0, np.max(np.abs(lhs)))
    # preserves inner products and determinants
    assert abs(gu @ gv - u @ v) < 1e-10
    det_u = C.sym_c(alg, u, alg.rho)
    assert abs(C.sym_c(alg, gu, alg.rho) - det_u) <= 1e-8 * (1 + abs(det_u))


# --- the exact frame against the cone's float frame ------------------------------------------

def _to_float(alg, x):
    """Reference conversion of an exact element to the orthonormal float
    frame: each rational coordinate times the square root of its Gram entry."""
    return np.array([float(c) for c in x.coords]) * np.sqrt(np.array([float(g) for g in alg.gram]))


def test_float_frame_consistency(algebra):
    for spec in ["gamma:3", "h:3:H"]:
        alg = algebra(spec)
        rng = np.random.default_rng(2)
        u = alg.random_element(rng)
        v = alg.random_element(rng)
        uf, vf = _to_float(alg, u), _to_float(alg, v)
        exact_then_convert = _to_float(alg, u * v)
        convert_then_multiply = C.product(alg, uf, vf)
        assert np.allclose(exact_then_convert, convert_then_multiply, atol=1e-12)
        assert abs(float(alg.inner(u, v)) - uf @ vf) < 1e-12
        assert abs(float(alg.trace(u)) - C.trace(alg, uf)) < 1e-12
        det_f = C.sym_c(alg, uf, alg.rho)
        assert abs(float(alg.det(u)) - det_f) < 1e-9 * (1 + abs(float(alg.det(u))))


def test_newton_route_matches_eigenvalue_route_on_frame_diagonal(algebra):
    # cone float frame, frame-diagonal elements: c_k two ways within 1e-9 relative
    from itertools import combinations
    for spec in ["gamma:3", "h:3:C", "h:3:O"]:
        alg = algebra(spec)
        fr = alg.jordan_frame()
        rng = np.random.default_rng(17)
        for _ in range(25):
            lam = rng.uniform(-2.0, 2.0, alg.rho)
            x = np.zeros(alg.dim)
            for li, ei in zip(lam, fr):
                x = x + float(li) * _to_float(alg, ei)
            for k in range(1, alg.rho + 1):
                eig_route = sum(float(np.prod(lam[list(s)]))
                                for s in combinations(range(alg.rho), k))
                newton_route = C.sym_c(alg, x, k)
                assert abs(newton_route - eig_route) <= 1e-9 * max(1.0, abs(eig_route))


def test_octonion_fano_convention():
    # oriented triples (1,2,3),(1,4,5),(1,7,6),(2,4,6),(2,5,7),(3,4,7),(3,6,5)
    from jkepler import divalg
    def mul_units(i, j):
        return divalg.mul(divalg.unit(8, i), divalg.unit(8, j), 8)
    for (a, b, c) in divalg.FANO_TRIPLES:
        assert mul_units(a, b) == divalg.unit(8, c)
        assert mul_units(b, c) == divalg.unit(8, a)
        assert mul_units(c, a) == divalg.unit(8, b)
        assert mul_units(b, a) == divalg.scale(-1, divalg.unit(8, c))
    for i in range(1, 8):
        assert mul_units(i, i) == divalg.scale(-1, divalg.unit(8, 0))
    # norm composition over random integer octonions
    rng = np.random.default_rng(19)
    for _ in range(30):
        a = tuple(Fr(int(x)) for x in rng.integers(-5, 6, 8))
        b = tuple(Fr(int(x)) for x in rng.integers(-5, 6, 8))
        ab = divalg.mul(a, b, 8)
        assert sum(c * c for c in ab) == sum(c * c for c in a) * sum(c * c for c in b)


# --- the integer kernel against entrywise reference formulas -----------------------

from jkepler import divalg  # noqa: E402


def _reference_c2(k, ddim):
    """Structure table built entry by entry: 2(a o b) = ab + ba with divalg.mul,
    read back in the rational frame (real diagonal, upper off-diagonal entries)."""
    zrow = [divalg.zero(ddim)] * k
    basis = []
    for i in range(k):
        m = [list(zrow) for _ in range(k)]
        m[i][i] = divalg.unit(ddim)
        basis.append(m)
    for i in range(k):
        for j in range(i + 1, k):
            for mu in range(ddim):
                q = divalg.unit(ddim, mu)
                m = [list(zrow) for _ in range(k)]
                m[i][j], m[j][i] = q, divalg.conj(q)
                basis.append(m)

    def sym_prod(a, b):
        out = [[None] * k for _ in range(k)]
        for i in range(k):
            for j in range(k):
                acc = divalg.zero(ddim)
                for l in range(k):
                    acc = divalg.add(acc, divalg.mul(a[i][l], b[l][j], ddim))
                    acc = divalg.add(acc, divalg.mul(b[i][l], a[l][j], ddim))
                out[i][j] = divalg.scale(Fr(1, 2), acc)
        return out

    def decompose(m):
        coords = []
        for i in range(k):
            assert not any(m[i][i][1:]), "hermitian product has non-real diagonal"
            coords.append(m[i][i][0])
        for i in range(k):
            for j in range(i + 1, k):
                coords.extend(m[i][j])
        return coords

    n = len(basis)
    c2 = np.zeros((n, n, n), dtype=np.int64)
    for a in range(n):
        for b in range(a, n):
            for g, c in enumerate(decompose(sym_prod(basis[a], basis[b]))):
                assert (2 * c).denominator == 1
                c2[a, b, g] = c2[b, a, g] = int(2 * c)
    return c2


@pytest.mark.parametrize("spec", ["h:3:R", "h:4:R", "h:3:C", "h:4:C", "h:3:H", "h:4:H", "h:3:O"])
def test_structure_table_matches_entrywise_build(algebra, spec):
    alg = algebra(spec)
    ref = _reference_c2(alg.spec.k, alg.delta)
    assert alg._c2.dtype == ref.dtype
    assert np.array_equal(alg._c2, ref)


@pytest.mark.parametrize("spec", ["h:1:R", "h:3:R", "h:4:R", "h:3:C", "h:4:C", "h:3:H", "h:4:H",
                                  "h:3:O"])
def test_hermitian_table_matches_int64_einsum(spec, monkeypatch):
    # the float64 einsum gives the bits, dtype and C layout of the int64 one
    alg = make_algebra(spec)
    einsum = np.einsum
    monkeypatch.setattr(np, "einsum", lambda subscripts, *operands, **kw: einsum(
        subscripts, *(x.astype(np.int64) for x in operands), **kw))
    want = _build_hermitian(alg.spec.k, alg.delta)[0]
    assert _same_bits(alg._c2, want)
    assert alg._c2.flags.c_contiguous and alg._c2.strides == want.strides


def as_fractions(m):
    """A kernel's (nums, den) as the object array of Fractions nums / den."""
    nums, den = m
    return np.array([Fr(v, den) for v in nums.flat], dtype=object).reshape(nums.shape)


def _c_object(alg):
    n = alg.dim
    out = np.empty((n, n, n), dtype=object)
    for idx, v in np.ndenumerate(alg._c2):
        out[idx] = Fr(int(v), 2)
    return out


def _ref_lmul(alg, u):
    return np.tensordot(_c_object(alg), np.array(u.coords, dtype=object), axes=([0], [0])).T


def _ref_product(alg, u, v):
    return _ref_lmul(alg, u) @ np.array(v.coords, dtype=object)


def _ref_smul(alg, u, v):
    lu, lv = _ref_lmul(alg, u), _ref_lmul(alg, v)
    luv = _ref_lmul(alg, Element(alg, _ref_product(alg, u, v)))
    return lu @ lv - lv @ lu + luv


def _assert_same_entries(got, want):
    got, want = np.asarray(got, dtype=object), np.asarray(want, dtype=object)
    assert got.shape == want.shape
    for a, b in zip(got.flat, want.flat):
        assert type(a) is type(b) and a == b, (a, b)


def _exact_element(alg, rng, kind):
    """kind F: Fractions over small denominators (the int64 path); Q: Fractions
    over distinct large primes, whose common denominator passes the int64
    guard (the object fallback); M: int and Fraction coords mixed."""
    out = []
    for i in range(alg.dim):
        num = int(rng.integers(-9, 10))
        if kind == "Q":
            out.append(Fr(num, _LARGE_PRIMES[i]))
        elif kind == "M" and i % 3 == 0:
            out.append(num)
        else:
            out.append(Fr(num, int(rng.integers(1, 5))))
    return Element(alg, out)


_LARGE_PRIMES = [p for p in range(10**6, 10**6 + 10**3)
                 if all(p % q for q in range(2, 1001))][:27]


FIVE_FAMILIES = ["gamma:3", "h:3:R", "h:3:C", "h:3:H", "h:3:O"]


@pytest.mark.parametrize("spec", FIVE_FAMILIES)
@pytest.mark.parametrize("kinds", ["FF", "QQ", "MF", "FQ"])
def test_exact_kernel_matches_object_formulas(algebra, spec, kinds):
    alg = algebra(spec)
    rng = np.random.default_rng(sum(map(ord, spec + kinds)))
    u, v = _exact_element(alg, rng, kinds[0]), _exact_element(alg, rng, kinds[1])
    _assert_same_entries(alg.product(u, v).coords, _ref_product(alg, u, v))
    _assert_same_entries(as_fractions(alg.lmul_matrix(u)), _ref_lmul(alg, u))
    _assert_same_entries(as_fractions(alg.smul_matrix(u, v)), _ref_smul(alg, u, v))


@pytest.mark.parametrize("spec", ["gamma:3", "h:3:C"])
def test_element_stored_form_matches_fraction_reference(algebra, spec):
    # every result is stored as nums / den with den the lcm of the reduced
    # Fraction denominators, and coords gives back exactly those Fractions
    alg = algebra(spec)
    rng = np.random.default_rng(12)
    for kinds in ["FM", "QF"]:
        u, v = _exact_element(alg, rng, kinds[0]), _exact_element(alg, rng, kinds[1])
        cu, cv = u.coords, v.coords
        for got, want in [(u, cu), (u + v, [a + b for a, b in zip(cu, cv)]),
                          (u - v, [a - b for a, b in zip(cu, cv)]), (-v, [-b for b in cv]),
                          (u.scaled(Fr(-3, 4)), [Fr(-3, 4) * a for a in cu]),
                          (u.scaled(0), [Fr(0)] * alg.dim), (u * v, _ref_product(alg, u, v))]:
            _assert_same_entries(got.coords, [Fr(c) for c in want])
            assert got.den == math.lcm(*(Fr(c).denominator for c in want))
            assert all(type(c) is int for c in got.nums) and math.gcd(got.den, *got.nums) == 1


def test_equal_values_have_one_stored_form(algebra):
    alg = algebra("gamma:3")
    e = alg.identity()
    half = Element(alg, [Fr(2, 4), 0, 0, 0])
    assert (half.nums, half.den) == ((1, 0, 0, 0), 2)
    # a product over den 12, a sum over den 6 and two scalings that all cancel to e/2
    for x in [Element(alg, [Fr(1, 3), 0, 0, 0]) * Element(alg, [Fr(3, 2), 0, 0, 0]),
              Element(alg, [Fr(1, 6), 0, 0, 0]) + Element(alg, [Fr(1, 3), 0, 0, 0]),
              e.scaled(Fr(1, 2)), (e + e).scaled(Fr(1, 4))]:
        assert x == half and (x.nums, x.den) == (half.nums, half.den)
    assert half != e and (e - e) == alg.zero() and ((e - e).nums, (e - e).den) == ((0,) * 4, 1)


@pytest.mark.parametrize("spec", FIVE_FAMILIES)
@pytest.mark.parametrize("kind", ["F", "Q", "M"])
def test_dual_triple_tensor_matches_definition(algebra, spec, kind):
    alg = algebra(spec)
    u = _exact_element(alg, np.random.default_rng(len(spec)), kind)
    t = as_fractions(alg.dual_triple_tensor(u))
    n, g = alg.dim, alg.gram
    for a in range(n):
        s = as_fractions(alg.smul_matrix(alg.basis_element(a), u))
        want = [[s[c, b] * g[c] * (1 / g[a]) * (1 / g[b]) for c in range(n)] for b in range(n)]
        _assert_same_entries(t[a], want)


@pytest.mark.parametrize("spec", ["gamma:3", "h:3:C", "h:3:O"])
def test_int64_guard_and_object_fallback(algebra, spec):
    # numpy int64 matmul wraps silently: at the guard the int64 path must stay
    # exact, and just past it the object fallback must give the same values.
    alg = algebra(spec)
    # the int64 limit of the former per-kernel guard: |4 S_xy| <= 3 n^3 C^2 XY,
    # C = max|c2|, with a factor 2 in hand
    n, cmax = alg.dim, int(np.abs(alg._c2).max())
    limit = (2**63 - 1) // (6 * n**3 * cmax**2)
    rng = np.random.default_rng(5)
    signs = [int(s) for s in rng.choice([-1, 1], n)]
    v = Element(alg, signs[::-1])
    c = limit // 7
    u0 = Element(alg, [7 * s for s in signs])
    s0 = _ref_smul(alg, u0, v)
    for big in (limit, limit + 1):
        u = Element(alg, [big * s for s in signs])
        _assert_same_entries(as_fractions(alg.smul_matrix(u, v)), _ref_smul(alg, u, v))
        _assert_same_entries(alg.product(u, v).coords, _ref_product(alg, u, v))
        _assert_same_entries(as_fractions(alg.lmul_matrix(u)), _ref_lmul(alg, u))
    # S_{cu,v} = c S_{u,v} for c on both sides of the guard and far past it,
    # so a guard looser than the true int64 range would show here
    for scale in [c, c + 1, -c, Fr(c + 1, 3)] + [3**j for j in range(0, 48, 4)]:
        u = Element(alg, [scale * x for x in u0.coords])
        _assert_same_entries(as_fractions(alg.smul_matrix(u, v)), scale * s0)
    big_u = Element(alg, [(limit + 1) * s for s in signs])
    t = as_fractions(alg.dual_triple_tensor(big_u))
    for a in (0, n - 1):
        s = as_fractions(alg.smul_matrix(alg.basis_element(a), big_u))
        assert all(t[a, b, g] == s[g, b] * alg.gram[g] / (alg.gram[a] * alg.gram[b])
                   for b in range(n) for g in range(n))


@pytest.mark.parametrize("spec", FIVE_FAMILIES)
def test_structure_tables_are_c_contiguous(algebra, spec):
    # the float tensordot summation order follows the memory layout of the
    # cone frame's con, so a strided table changes the bits of every float L matrix
    alg = algebra(spec)
    assert alg._c2.flags.c_contiguous
    assert C.float_frame(alg).con.flags.c_contiguous


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("spec", FIVE_FAMILIES)
def test_float_caches_change_no_bits(algebra, spec):
    # the cone's float frame is built once per algebra; its identity, Jordan
    # frame and Peirce vectors must equal the reference conversion of their
    # exact elements, bit for bit
    alg = algebra(spec)
    frame = C.float_frame(alg)
    want = np.stack([_to_float(alg, f) for f in alg.jordan_frame()])
    assert np.array_equal(frame.jordan, want) and _same_bits(frame.jordan, want)
    assert _same_bits(frame.identity, _to_float(alg, alg.identity()))
    # the off-diagonal basis positions are rho .. n-1 in every family
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    got = [v for _, _, v in C.peirce_vectors(alg)]
    want = [inv_sqrt2 * _to_float(alg, alg.basis_element(a)) for a in range(alg.rho, alg.dim)]
    assert len(got) == len(want) and all(_same_bits(g, w) for g, w in zip(got, want))
    # cached arrays are shared across calls, so they must refuse writes
    assert C.float_frame(alg) is frame
    for cached in (frame.scale, frame.con, frame.jordan, frame.jordan[0], frame.identity):
        with pytest.raises(ValueError):
            cached[0] = 1.0
    # a Peirce vector is a fresh array
    got[0][alg.rho] = 7.0
    assert C.peirce_vectors(alg)[0][2][alg.rho] != 7.0


@pytest.mark.parametrize("spec", ["gamma:3", "h:3:C", "h:3:O"])
@pytest.mark.parametrize("dtype", [np.int64, object, np.float64])
def test_lnum_matches_tensordot(algebra, spec, dtype):
    # the reshape-matmul of _lnum against the tensordot it replaced, for x a
    # vector, a matrix and a stack of matrices; float64 on small integers.
    # The stored result is int64 for every input that fits, Python ints past int64.
    alg = algebra(spec)
    c2, n = alg._c2.astype(dtype), alg.dim
    rng = np.random.default_rng(5)
    for shape in [(n,), (4, n), (2, 3, n)]:
        x = rng.integers(-9, 10, shape).astype(dtype)
        if dtype is object:
            x = x * 2**70  # past int64
        want = np.swapaxes(np.tensordot(x, c2, axes=([-1], [0])), -1, -2)
        got = _lnum(ExactArray(c2.reshape(n, -1)), ExactArray(x)).ints()
        assert got.shape == want.shape == shape[:-1] + (n, n)
        assert got.dtype == (object if dtype is object else np.int64)
        assert np.array_equal(got, want)


# --- the one exact arithmetic ------------------------------------------------------

def _chosen(monkeypatch):
    """The dtypes ExactArray picks, in order, recorded from its one decision point."""
    chosen, pick = [], jk_algebra._exact_dtype

    def spy(bound, blas=False):
        chosen.append(pick(bound, blas))
        return chosen[-1]

    monkeypatch.setattr(jk_algebra, "_exact_dtype", spy)
    return chosen


def _full(shape, value):
    return ExactArray(np.full(shape, value, dtype=np.int64))


def test_exact_float64_boundary(monkeypatch):
    # every entry is k A B, the bound itself: 2^53 - 1 is exact in float64 (BLAS),
    # and the odd 2^53 + 1 must not come from float64, where it rounds to 2^53
    chosen = _chosen(monkeypatch)
    below = _full((1, 6361), 69431) @ _full((6361, 1), 20394401)
    past = _full((40, 3), 107) @ _full((3, 40), 28059810762433)
    assert chosen == [np.float64, np.int64]
    assert below.ints().dtype == past.ints().dtype == np.int64 and past.bound == 2**53 + 1
    assert below.ints().tolist() == [[2**53 - 1]] and (past.ints() == 2**53 + 1).all()
    neg = _full((40, 3), -107) @ _full((3, 40), 28059810762433)
    assert (neg.ints() == -(2**53 + 1)).all()
    # a sum of float64 products stays in float64 below 2^53, and leaves it past
    assert ((below + below).ints() == 2**54 - 2).all() and chosen[-1] == np.int64


def test_exact_int64_boundary(monkeypatch):
    chosen = _chosen(monkeypatch)
    a = 7 * 73 * 127 * 337
    fits = _full((2, 7), a) @ _full((7, 2), 92737 * 649657)
    past = _full((2, 3), 9 * 19 * 43) @ _full((3, 2), 5419 * 77158673929)
    assert chosen == [np.int64, object]
    assert fits.ints().dtype == np.int64 and (fits.ints() == 2**63 - 1).all()
    assert past.ints().dtype == object and past.ints().tolist() == [[2**63 + 1] * 2] * 2
    # the same on a scaled sum, and -2^63, whose np.abs wraps, is read as 2^63
    one = _full(2, 1)
    assert (2**62 * one + (2**62 - 1) * one).ints().dtype == np.int64
    assert (2**62 * one + 2**62 * one).ints().tolist() == [2**63] * 2
    assert (-1 * _full(1, -2**63)).ints().tolist() == [2**63]
    # the storage cast
    assert exact_ints([2**63 - 1, 1 - 2**63]).dtype == np.int64
    assert exact_ints(np.array([2**63, 1], dtype=object)).dtype == object
    assert ExactArray.of([2**63, 1]).array.dtype == object


def test_exact_counts_the_contracted_length(monkeypatch):
    # max|a| max|b| = 2^62 + 2^31 fits int64, but the two terms of the sum do not
    chosen = _chosen(monkeypatch)
    out = _full((1, 2), 2**31) @ _full((2, 1), 2**31 + 1)
    assert chosen == [object] and out.bound == 2**63 + 2**32
    assert out.ints().tolist() == [[2**63 + 2**32]]
    out = _full((1, 2), 2**31) @ _full((2, 1), 2**31 - 1)
    assert chosen[-1] == np.int64 and out.ints().tolist() == [[2**63 - 2**32]]


@pytest.mark.parametrize("top,dtype", [(10**6, np.float64), (10**8, np.int64), (10**10, object)])
def test_exact_matches_python_ints(monkeypatch, top, dtype):
    # random matrices in the three regimes against Python ints: a product, a
    # signed sum of products and a scaled sum; the bound holds every entry
    chosen = _chosen(monkeypatch)
    rng = np.random.default_rng(top)
    a, c = rng.integers(-top, top + 1, (2, 30, 40))
    b, d = rng.integers(-top, top + 1, (2, 40, 50))
    ref = [x.astype(object) for x in (a, b, c, d)]
    a, b, c, d = map(ExactArray, (a, b, c, d))
    for got, want in [(a @ b, ref[0] @ ref[1]), (a @ b - c @ d, ref[0] @ ref[1] - ref[2] @ ref[3])]:
        assert chosen[-1] == dtype and np.array_equal(got.ints(), want)
        assert got.ints().dtype == (object if dtype is object else np.int64)
        assert got.bound >= max(abs(v) for v in want.ravel())
    got = 3 * a - 5 * c
    assert np.array_equal(got.ints(), 3 * ref[0] - 5 * ref[2])
    assert got.bound == 3 * a.bound + 5 * c.bound


def test_exact_dtype_is_decided_in_algebra_only():
    # outside algebra.py no module names the dtype decision or the limits it
    # reads; co_bracket keeps the one guard of its own, as a segment sum over
    # the sparse table is no ExactArray step
    allowed = {("conformal.py", "co_bracket"), ("conformal.py", None)}  # None: its import
    found = []
    for path in sorted(Path(jk_algebra.__file__).parent.glob("*.py")):
        if path.name == "algebra.py":
            continue
        source = path.read_text()
        found += [(path.name, m) for m in re.findall(r"2\s*\*\*\s*(?:53|63)|1\s*<<\s*(?:53|63)|"
                                                    r"9007199254740992|9223372036854775808", source)]
        tree = ast.parse(source)
        scopes = {id(node): fn.name for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
                  for node in ast.walk(fn)}
        for node in ast.walk(tree):
            names = ([node.id] if isinstance(node, ast.Name) else [node.attr] if
                     isinstance(node, ast.Attribute) else [a.name for a in node.names] if
                     isinstance(node, ast.ImportFrom) else [])
            for name in set(names) & {"_exact_dtype", "_EXACT_MAX"}:
                if (path.name, scopes.get(id(node))) not in allowed:
                    found.append((path.name, scopes.get(id(node)), name))
    assert found == []
