import ast
import inspect
import math
from fractions import Fraction as Fr

import numpy as np
import pytest
import scipy.sparse

from jkepler import algebra as jk_algebra, conformal, modp
from jkepler.algebra import Element, ExactArray, MismatchError, _lnum, _snum, make_algebra
from jkepler.conformal import (CoElement, ConsistencyError, cartan_involution, co_bracket,
                               dim_co, dim_str, random_co_element, root_data,
                               structure_constants)
from jkepler.poly import numerators

import modp_reference

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


def as_fractions(m):
    """A kernel's (nums, den) as the object array of Fractions nums / den."""
    nums, den = m
    return np.array([Fr(v, den) for v in nums.flat], dtype=object).reshape(nums.shape)


def x_part(e):
    """The X_{e_a} coordinates of a CoElement, as an Element."""
    return Element._make(e.algebra, e.nums[:e.algebra.dim], e.den)


def y_part(e):
    """The Y_{e_a} coordinates of a CoElement, as an Element."""
    return Element._make(e.algebra, e.nums[-e.algebra.dim:], e.den)


def _str_nums(e):
    """(nums, den): the str(V) part of a CoElement as an n x n matrix, its B
    coordinates times the span rows."""
    n = e.algebra.dim
    basis = conformal._str_span_exact(e.algebra).basis.astype(object)
    return (np.array(e.nums[n:-n], dtype=object) @ basis).reshape(n, n), e.den


def str_matrix(e):
    """The str(V) part of a CoElement as an n x n Fraction matrix."""
    return as_fractions(_str_nums(e))


def from_str_matrix(alg, m):
    """The CoElement with x = y = 0 and the str(V) part m, a Fraction matrix of
    the span: coordinates from the pivot columns, checked by rebuilding m."""
    span, n = conformal._str_span_exact(alg), alg.dim
    coords = m.reshape(-1)[span.cols] @ span.adj.astype(object) / span.den
    assert (coords @ span.basis.astype(object) == m.reshape(-1)).all()
    return CoElement._make(alg, *numerators([0] * n + list(coords) + [0] * n))


def _certified(alg, m) -> bool:
    """Whether the Fraction matrix m passes conformal._certify."""
    nums, _ = numerators(m.flat)
    try:
        conformal._certify(alg, np.array(nums, dtype=object).reshape(1, *m.shape), "m")
    except ConsistencyError:
        return False
    return True


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
    assert x_part(b).is_zero() and y_part(b).is_zero()
    m = str_matrix(b)
    for i in range(alg.dim):
        for j in range(alg.dim):
            assert m[i, j] == (-2 if i == j else 0)


def test_generator_relations(algebra):
    alg = algebra("h:3:R")
    rng = np.random.default_rng(0)
    for _ in range(20):
        u, v, z = (alg.random_element(rng, span=4) for _ in range(3))
        assert co_bracket(CoElement.s(u, v), CoElement.x(z)) == CoElement.x(alg.triple(u, v, z))
        assert co_bracket(CoElement.s(u, v), CoElement.y(z)) == CoElement.y(-alg.triple(v, u, z))
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
    assert y_part(th) == u and x_part(th).is_zero()
    # theta[X_u, Y_v] = [Y_u, X_v]
    lhs = cartan_involution(co_bracket(CoElement.x(u), CoElement.y(v)))
    rhs = co_bracket(CoElement.y(u), CoElement.x(v))
    assert lhs == rhs


def test_theta_eigenspaces(algebra):
    alg = algebra("h:3:R")
    rng = np.random.default_rng(4)
    u, v, w = (alg.random_element(rng) for _ in range(3))
    # fixed space u: [L_u, L_v] and X_w + Y_w
    lu, lv = as_fractions(alg.lmul_matrix(u)), as_fractions(alg.lmul_matrix(v))
    ku = from_str_matrix(alg, lu @ lv - lv @ lu)
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
            entries = list(x_part(el).coords) + list(y_part(el).coords) + list(str_matrix(el).flat)
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
    assert not _certified(alg, bad)
    # exact certification accepts genuine members
    rng = np.random.default_rng(5)
    u = alg.random_element(rng)
    v = alg.random_element(rng)
    assert _certified(alg, as_fractions(alg.smul_matrix(u, v)))


@pytest.mark.parametrize("spec", ["gamma:3", "h:3:R"])
def test_co_element_stored_form(algebra, spec):
    # nums / den is reduced, equal values compare equal whatever denominator
    # they were built over, the str(V) coordinates give back exactly the
    # Fractions of S_uv, and an inexact scalar is refused
    alg = algebra(spec)
    rng = np.random.default_rng(10)
    u, v, w = (alg.random_element(rng, denominator=int(rng.integers(2, 7))) for _ in range(3))
    s1, s2 = CoElement.s(u, v), from_str_matrix(alg, as_fractions(alg.smul_matrix(v, w)))
    r1, r2 = as_fractions(alg.smul_matrix(u, v)), as_fractions(alg.smul_matrix(v, w))
    assert s2 == CoElement.s(v, w)
    for got, want in [(s1, r1), (s2, r2), (s1 + s2, r1 + r2), (s1 - s2, r1 - r2),
                      (s1.scaled(Fr(5, 6)), Fr(5, 6) * r1), (-s2, -r2)]:
        _assert_same(str_matrix(got), want)
        assert x_part(got).is_zero() and y_part(got).is_zero()
        assert math.gcd(got.den, *got.nums) == 1
    doubled = CoElement._make(alg, [2 * c for c in s1.nums], 2 * s1.den)
    assert doubled == s1 and (doubled.nums, doubled.den) == (s1.nums, s1.den)
    assert s1 - s1 == CoElement.x(alg.zero()) and (s1 - s1).den == 1
    for scalar in (0.5, 0.5j, np.float64(2.0)):
        with pytest.raises(MismatchError):
            s1.scaled(scalar)


# --- the str(V) span against an exact Fraction row reduction ---------------------

class _FractionSpan:
    """Row-reduced spanning set over Q: Fraction elimination, one row at a time."""

    def __init__(self, vectors):
        self.rows = {}  # pivot index -> reduced row (object ndarray)
        for v in vectors:
            v = self._reduce(v)
            piv = next((i for i, c in enumerate(v) if c), None)
            if piv is not None:
                self.rows[piv] = v * (1 / Fr(v[piv]))

    def _reduce(self, v):
        v = np.array(v, dtype=object)
        for piv, row in self.rows.items():
            if v[piv]:
                v = v - v[piv] * row
        return v

    def contains(self, v) -> bool:
        return all(not c for c in self._reduce(v))


_REFERENCE_SPANS = {}


def _reference_span(alg):
    key = str(alg.spec)
    if key not in _REFERENCE_SPANS:
        basis = [alg.basis_element(a) for a in range(alg.dim)]
        _REFERENCE_SPANS[key] = _FractionSpan(as_fractions(alg.smul_matrix(u, v)).reshape(-1)
                                              for u in basis for v in basis)
    return _REFERENCE_SPANS[key]


REFERENCE_SPECS = ["gamma:2", "gamma:3", "gamma:5", "h:1:R", "h:3:R", "h:4:R",
                   "h:3:C", "h:4:C", "h:3:H"]


@pytest.mark.parametrize("spec", REFERENCE_SPECS)
def test_str_span_matches_fraction_reduction(algebra, spec):
    alg = algebra(spec)
    ref = _reference_span(alg)
    assert dim_str(alg) == len(ref.rows)
    n = alg.dim
    rng = np.random.default_rng(sum(map(ord, spec)))
    members = []
    for _ in range(3):
        m = sum(as_fractions(alg.smul_matrix(alg.random_element(rng, denominator=int(rng.integers(1, 7))),
                                             alg.random_element(rng))) for _ in range(4))
        members.append(m)
    projector = np.full((n, n), Fr(0), dtype=object)
    projector[0, 0] = Fr(1)
    random_int = np.array(rng.integers(-9, 10, (n, n)).tolist(), dtype=object)
    # on h:1:R, str(V) = gl(1) holds every matrix
    outside = n == 1
    for m, member in [(x, True) for x in members] + [(projector, outside), (random_int, outside)]:
        assert ref.contains(m.reshape(-1)) is member
        assert _certified(alg, m) is member


# --- the certificates have teeth ------------------------------------------------

def dense_generators(alg):
    """The distinct generators of conformal._generators as a dense matrix."""
    row, col, val = conformal._generators(alg)
    gens = np.zeros((row[-1] + 1, alg.dim ** 2), dtype=val.dtype)
    gens[row, col] = val
    return gens


def dense_snums(alg):
    """4 S_{e_a e_b} for every basis pair, scattered from the sparse entries of
    conformal._snum_entries: [b, a] is its n x n numerator matrix, row-major."""
    n = alg.dim
    row, col, val = conformal._snum_entries(alg)
    out = np.zeros((n * n, n * n), dtype=val.dtype)
    out[row, col] = val
    return out.reshape(n, n, -1)


def echelon_span(blocks):
    """(basis, cols, adj, den) by the block-wise Echelon route the sparse
    build replaced: pivots mod p by row_basis, the pivot minor inverted mod p
    and lifted to Q."""
    rows, cols = modp_reference.row_basis(blocks)
    basis = np.vstack(blocks)[rows]
    adj, den = modp_reference.lift(modp.rank_inverse(basis[:, cols])[1])
    return basis, cols, adj, den


@pytest.mark.parametrize("spec", ["gamma:3", "gamma:9", "h:1:R", "h:3:R", "h:3:C", "h:3:H",
                                  "h:3:O", "h:4:H", "h:6:C"])
def test_span_matches_echelon_route(algebra, spec):
    # the distinct generators of the dense stack of 4 S_{e_a e_b}, found as
    # before: the first nonzero row of each class up to sign, in blocks of n rows
    alg = algebra(spec)
    n = alg.dim
    g = dense_snums(alg).reshape(n * n, -1)
    sign = np.sign(g[np.arange(len(g)), (g != 0).argmax(axis=1)])
    first = {}
    for i, (s, row) in enumerate(zip(sign.tolist(), g * sign[:, None])):
        if s:
            first.setdefault(row.tobytes(), i)
    gens = g[list(first.values())]
    assert np.array_equal(dense_generators(alg), gens)
    basis, cols, adj, den = echelon_span([gens[i:i + n] for i in range(0, len(gens), n)])
    span = conformal._str_span_exact(alg)
    assert np.array_equal(span.basis, basis) and span.basis.dtype == basis.dtype
    assert span.cols == cols
    assert np.array_equal(span.adj, adj) and span.adj.dtype == adj.dtype and span.den == den


@pytest.mark.parametrize("spec", ["gamma:3", "h:3:R", "h:3:C", "h:3:H", "h:3:O", "h:4:R"])
def test_span_from_distinct_generators_matches_all_rows(algebra, spec):
    # reference: pivots of all n^2 generators 4 S_{e_k e_a}, zero and repeated
    # rows included, one block of n rows per a
    alg = algebra(spec)
    n = alg.dim
    blocks = [np.array([alg.smul_matrix(alg.basis_element(k), alg.basis_element(a))[0].ravel()
                        for k in range(n)], dtype=np.int64) for a in range(n)]
    basis, cols, adj, den = echelon_span(blocks)
    span = conformal._str_span_exact(alg)
    assert np.array_equal(span.basis, basis) and span.cols == cols
    assert np.array_equal(span.adj, adj) and span.den == den
    # no two kept generators agree up to sign, and none is zero
    gens = dense_generators(alg)
    assert len({g.tobytes() for g in np.vstack([gens, -gens])}) == 2 * len(gens) < 2 * n * n


@pytest.mark.parametrize("spec", ["gamma:3", "h:3:R", "h:3:C", "h:3:H", "h:3:O"])
def test_snums_read_the_transposed_table(algebra, spec):
    # the sparse generator entries scattered into the stack, against one _snum
    # per b on 2 L_{e_a} from _lnum; small integers, int8 in every family
    alg = algebra(spec)
    n = alg.dim
    c2, eye = ExactArray(alg._c2.reshape(n, -1).astype(np.float64)), ExactArray(np.eye(n))
    want = np.stack([_snum(c2, _lnum(c2, eye), eye[b]).ints().reshape(n, -1) for b in range(n)])
    got = dense_snums(alg)
    assert got.dtype == np.int8 and np.array_equal(got, want)


def _rebuilt(alg, f=conformal._str_span_exact):
    """f(alg) on a fresh build of the span, its cached span dropped before
    and after."""
    alg._cache.pop("str_span_exact", None)
    try:
        return f(alg)
    finally:
        alg._cache.pop("str_span_exact", None)


def test_span_build_fails_when_a_pivot_row_is_dropped(algebra, monkeypatch):
    alg = algebra("h:3:C")
    row_pivots = modp.row_pivots

    def drop_last(*entries):
        rows, cols = row_pivots(*entries)
        return rows[:-1], cols[:-1]

    monkeypatch.setattr(modp, "row_pivots", drop_last)
    with pytest.raises(ConsistencyError, match="not in the span of the pivot rows"):
        _rebuilt(alg)
    with pytest.raises(ConsistencyError):
        _rebuilt(alg, dim_str)


def test_span_build_fails_on_a_wrong_pivot_inverse(algebra, monkeypatch):
    alg = algebra("gamma:3")
    inverse = conformal._inverse
    monkeypatch.setattr(conformal, "_inverse",
                        lambda a: (lambda adj, den: (adj, den + 1))(*inverse(a)))
    with pytest.raises(ConsistencyError, match="pivot minor inverse"):
        _rebuilt(alg)


def test_span_build_fails_on_a_singular_pivot_minor(algebra, monkeypatch):
    # the last pivot column replaced by the first: two equal columns
    alg = algebra("h:3:R")
    row_pivots = modp.row_pivots
    monkeypatch.setattr(modp, "row_pivots",
                        lambda *entries: (lambda rows, cols: (rows, cols[:-1] + cols[:1]))(
                            *row_pivots(*entries)))
    with pytest.raises(ConsistencyError, match="pivot minor is singular"):
        _rebuilt(alg)
    with pytest.raises(ConsistencyError, match="pivot minor is singular"):
        conformal._inverse(np.array([[1, 2, 0], [2, 4, 0], [0, 0, 1]]))


@pytest.mark.parametrize("kind", ["dense", "near-monomial"])
def test_inverse_is_exact_and_in_lowest_terms(kind):
    # a adj = den 1 with gcd(den, adj) = 1, so den is the least common
    # denominator of a^-1; and equal to the mod-p inverse read back by lift
    # where the denominators are small enough to lift
    rng = np.random.default_rng(["dense", "near-monomial"].index(kind))
    for size in (1, 2, 5, 9, 30):
        if kind == "dense":
            a = rng.integers(-3, 4, (size, size))
        else:  # a signed permutation with a few extra entries per row
            a = rng.choice([-2, -1, 1, 2], size) * np.eye(size, dtype=np.int64)
            a = a[rng.permutation(size)]
            a[rng.integers(0, size, size), rng.integers(0, size, size)] += rng.integers(-1, 2, size)
        if modp.rank_inverse(a)[1] is None:
            with pytest.raises(ConsistencyError, match="singular"):
                conformal._inverse(a)
            continue
        adj, den = conformal._inverse(a)
        assert den > 0 and math.gcd(den, *adj.ravel().tolist()) == 1
        assert (a.astype(object) @ adj.astype(object) == den * np.eye(size, dtype=object)).all()
        lifted, lden = modp_reference.lift(modp.rank_inverse(a)[1])
        if (a.astype(object) @ lifted.astype(object) == lden * np.eye(size, dtype=object)).all():
            assert np.array_equal(adj, lifted) and den == lden


def _ref_adjoint(alg, m):
    g = alg.gram
    return np.array([[m[j, i] * g[j] / g[i] for j in range(alg.dim)] for i in range(alg.dim)],
                    dtype=object)


def _ref_bracket(alg, a, b):
    """The bracket on Fraction object matrices, straight from its definition;
    a term with a zero factor is left out, and a str(V) part over 1 (a basis
    element's) stays in Python ints."""
    (n1, d1), (n2, d2) = _str_nums(a), _str_nums(b)
    m1 = n1 if d1 == 1 else as_fractions((n1, d1))
    m2 = n2 if d2 == 1 else as_fractions((n2, d2))
    zero = np.array([Fr(0)] * alg.dim, dtype=object)

    def apply(m, u, adjoint=False):
        if u.is_zero() or not m.any():
            return zero
        return (_ref_adjoint(alg, m) if adjoint else m) @ np.array(u.coords, dtype=object)

    def s2(u, v):  # 2 S_uv
        return 0 if u.is_zero() or v.is_zero() else 2 * as_fractions(alg.smul_matrix(u, v))

    x = apply(m1, x_part(b)) - apply(m2, x_part(a))
    y = apply(m2, y_part(a), adjoint=True) - apply(m1, y_part(b), adjoint=True)
    m = m1 @ m2 - m2 @ m1 - s2(x_part(a), y_part(b)) + s2(x_part(b), y_part(a))
    return x, m, y


_LARGE_PRIMES = [p for p in range(10**6, 10**6 + 10**3)
                 if all(p % q for q in range(2, 1001))]


def _large_prime_element(alg, rng):
    primes = rng.choice(_LARGE_PRIMES, alg.dim, replace=False)
    return Element(alg, [Fr(int(rng.integers(-9, 10)), int(p)) for p in primes])


def _assert_same(got, want):
    got, want = list(np.asarray(got, dtype=object).flat), list(np.asarray(want, dtype=object).flat)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert type(g) is Fr and g == w, (g, w)


@pytest.mark.parametrize("spec", ["gamma:3", "h:3:C"])
@pytest.mark.parametrize("kind", ["small", "large-primes"])
def test_co_bracket_matches_fraction_reference(algebra, spec, kind):
    alg = algebra(spec)
    rng = np.random.default_rng(7)
    if kind == "small":
        elements = [random_co_element(alg, rng) for _ in range(4)]
    else:
        def make():
            el = [_large_prime_element(alg, rng) for _ in range(4)]
            return CoElement.x(el[0]) + CoElement.y(el[1]) + CoElement.s(el[2], el[3])
        elements = [make() for _ in range(4)]
        # the common denominator of two operands is far past int64: the object path
        den = math.lcm(*(c.denominator for e in elements[:2]
                         for c in [*x_part(e).coords, *y_part(e).coords, *str_matrix(e).flat]))
        assert den > 2**63
    for a, b in [(elements[0], elements[1]), (elements[2], elements[3]),
                 (elements[1], elements[2])]:
        got = co_bracket(a, b)
        x, m, y = _ref_bracket(alg, a, b)
        _assert_same(x_part(got).coords, x)
        _assert_same(str_matrix(got), m)
        _assert_same(y_part(got).coords, y)
        # theta negates the adjoint, and swaps the x and y parts
        th = cartan_involution(a)
        _assert_same(str_matrix(th), -_ref_adjoint(alg, str_matrix(a)))
        assert x_part(th) == y_part(a) and y_part(th) == x_part(a)


def _co_basis(alg):
    """The basis (X_{e_a}, B_k, Y_{e_a}) of structure_constants as CoElements."""
    d = dim_co(alg)
    return [CoElement._make(alg, [int(i == k) for i in range(d)], 1) for k in range(d)]


@pytest.mark.parametrize("spec", ["gamma:3", "h:3:R", "h:3:C"])
def test_structure_constants_reproduce_co_bracket(algebra, spec):
    # co_bracket(z_i, z_j) is the row c[i, j] / den, and it is the bracket's
    # definition on Fraction matrices (_ref_bracket) on every basis pair
    alg = algebra(spec)
    c, den = structure_constants(alg)
    z = _co_basis(alg)
    assert c.shape == (dim_co(alg),) * 3
    for i, zi in enumerate(z):
        for j, zj in enumerate(z):
            got = co_bracket(zi, zj)
            assert got == CoElement._make(alg, c[i, j].tolist(), den), (i, j)
            x, m, y = _ref_bracket(alg, zi, zj)
            assert list(x_part(got).coords) == list(x) and list(y_part(got).coords) == list(y)
            assert (str_matrix(got) == m).all(), (i, j)


def jacobi_witness(c):
    """The first basis triple (i, j, m) on which the table c fails the Jacobi
    identity, or None.  T[(i, j), (m, p)] = sum_k c_ij^k c_km^p, the z_p part
    of [[z_i, z_j], z_m], is one sparse product of the table with itself, and
    Jacobi says that T plus its two cyclic rotations of (i, j, m) vanishes."""
    d, c = len(c), np.asarray(c, dtype=np.int64)
    assert 3 * d * int(np.abs(c).max()) ** 2 < 2**63  # every sum is exact in int64
    t = (scipy.sparse.csr_array(c.reshape(d * d, d))
         @ scipy.sparse.csr_array(c.reshape(d, d * d))).tocoo()
    (i, j), (m, p) = divmod(t.row, d), divmod(t.col, d)
    rows = np.concatenate([i * d + j, m * d + i, j * d + m])
    cols = np.concatenate([m * d + p, j * d + p, i * d + p])
    res = scipy.sparse.coo_array((np.tile(t.data, 3), (rows, cols)), shape=(d * d, d * d)).tocsr()
    res.eliminate_zeros()
    if not res.nnz:
        return None
    res = res.tocoo()
    first = np.lexsort((res.col, res.row))[0]
    return (*divmod(int(res.row[first]), d), int(res.col[first]) // d)


@pytest.mark.parametrize("spec", ["gamma:3", "h:3:R", "h:3:C", "h:3:H", "h:3:O"])
def test_structure_constants_antisymmetric_and_jacobi(algebra, spec):
    # every basis triple: co_bracket is the contraction with this table, so
    # this proves that it is a Lie bracket, and a constant that no Kepler
    # identity reads (the B-B block, some X-Y entries) is held to the axioms
    alg = algebra(spec)
    c, _ = structure_constants(alg)
    assert np.array_equal(c, -np.swapaxes(c, 0, 1))
    assert jacobi_witness(c) is None
    # negating one antisymmetric pair of the B-B block breaks Jacobi
    n = alg.dim
    i, j, k = np.argwhere(c[n:-n, n:-n, n:-n])[0] + n
    flipped = c.copy()
    flipped[i, j, k], flipped[j, i, k] = -c[i, j, k], -c[j, i, k]
    assert np.array_equal(flipped, -np.swapaxes(flipped, 0, 1))
    witness = jacobi_witness(flipped)
    assert witness is not None and max(witness) < dim_co(alg)


def test_structure_constants_object_fallback(monkeypatch):
    # past the float64 guard the same table is built on Python ints
    want, den = structure_constants(make_algebra("h:3:R"))
    monkeypatch.setattr(jk_algebra, "_exact_dtype", lambda bound, blas=False: object)
    got, got_den = structure_constants(make_algebra("h:3:R"))
    assert got.dtype == object and got_den == den and np.array_equal(got, want)


def test_table_build_certifies_commutators_and_adjoints():
    # one entry of a pivot row changed off the pivot columns: the span build's
    # pivot inverse still holds, but [B_k, B_l] leave the span of the rows
    alg = make_algebra("h:3:C")
    span = conformal._str_span_exact(alg)
    basis = span.basis.astype(np.int64)
    basis[-1, next(c for c in range(basis.shape[1]) if c not in span.cols)] += 1
    alg._cache["str_span_exact"] = conformal._StrSpan(basis, span.cols, span.adj, span.den)
    with pytest.raises(ConsistencyError, match=r"commutator \[B_k, B_l\]"):
        structure_constants(alg)
    # a wrong Gram matrix makes B_k' a matrix outside str(V)
    alg = make_algebra("h:3:C")
    gnum, gden = alg._gram
    alg._gram = ([3] + list(gnum[1:]), gden)
    with pytest.raises(ConsistencyError, match="adjoint"):
        structure_constants(alg)
    # the table is built from the true span on a fresh algebra
    assert structure_constants(make_algebra("h:3:C"))[0].shape == (35,) * 3


def test_conformal_uses_no_float_linear_algebra():
    # dim_str is a certified exact rank: no float frame and no float solver
    tree = ast.parse(inspect.getsource(conformal))
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    names |= {a.asname or a.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
              for a in node.names}
    attrs = {(node.value.id, node.attr) for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)}
    assert "FLOAT" not in names
    assert ("np", "linalg") not in attrs and ("numpy", "linalg") not in attrs
    assert "linalg" not in names


def test_modp_inverse_and_lift():
    rng = np.random.default_rng(8)
    a = rng.integers(-3, 4, (6, 6))
    while round(abs(np.linalg.det(a))) == 0:
        a = rng.integers(-3, 4, (6, 6))
    rank, inverse = modp.rank_inverse(a)
    adj, den = modp_reference.lift(inverse)
    assert rank == 6
    assert (a.astype(object) @ adj.astype(object) == den * np.eye(6, dtype=object)).all()
    assert den <= round(abs(np.linalg.det(a)))
    singular = np.vstack([a[:4], a[:1] + a[1:2], 3 * a[2:3] - a[3:4]])
    assert modp.rank_inverse(singular) == (4, None)


def sparse_entries(m):
    """(row, col, val) of the nonzero entries of m, sorted by row and col."""
    row, col = np.nonzero(m)
    return row, col, m[row, col]


@pytest.mark.parametrize("scale", [1, 2**40])  # 2^40: entries past p
def test_modp_row_basis_finds_the_rank(scale):
    # row_pivots, which replaced row_basis, finds the same rows and columns
    rng = np.random.default_rng(9)
    m = scale * rng.integers(-2, 3, (40, 7)) @ rng.integers(-2, 3, (7, 30))  # rank 7
    before = m.copy()
    rows, cols = modp.row_pivots(*sparse_entries(m))
    assert np.array_equal(m, before)
    assert len(rows) == len(cols) == np.linalg.matrix_rank(m) == 7
    assert modp.rank_inverse(m[rows][:, cols])[0] == 7  # the pivot minor is invertible mod p
    assert (rows, cols) == modp_reference.row_basis([m[i:i + 8] for i in range(0, 40, 8)])


def rref_rows(block):
    """The row-at-a-time reduced echelon form that modp.rref replaced: the
    reference its halving must reproduce, pivots and array."""
    p, pivots = modp._PRIME, []
    for i, row in enumerate(block):
        nonzero = np.flatnonzero(row)
        if len(nonzero):
            c = int(nonzero[0])
            pivot = row * pow(int(row[c]), -1, p) % p
            np.remainder(block - block[:, [c]] * pivot, p, out=block)
            row[:] = pivot
            pivots.append((i, c))
    return pivots


def residue_block(kind, rows, rng):
    """A block of residues mod p: full rank, low rank, about 2% dense, all
    zero, or tall (more rows than columns)."""
    p = modp._PRIME
    width = rows + 3 if kind != "tall" else max(1, rows // 3)
    if kind in ("full", "tall"):
        return rng.integers(0, p, (rows, width))
    if kind == "low":
        rank = int(rng.integers(0, min(rows, width) + 1))
        return rng.integers(0, p, (rows, rank)) @ rng.integers(0, 4, (rank, width)) % p
    if kind == "sparse":
        return np.where(rng.random((rows, width)) < 0.02, rng.integers(0, p, (rows, width)), 0)
    return np.zeros((rows, width), dtype=np.int64)


@pytest.mark.parametrize("kind", ["full", "low", "sparse", "zero", "tall"])
def test_rref_matches_row_at_a_time(kind):
    rng = np.random.default_rng(["full", "low", "sparse", "zero", "tall"].index(kind))
    for rows in list(range(1, 20)) + [31, 32, 33, 47, 64, 70]:
        block = residue_block(kind, rows, rng).astype(np.int64)
        want = block.copy()
        assert modp.rref(block) == rref_rows(want), rows
        assert np.array_equal(block, want), rows


@pytest.mark.parametrize("spec", ["h:3:R", "h:3:O"])
def test_row_basis_matches_one_rref(spec):
    # the sparse forward elimination keeps the rows and pivot columns that
    # one row-at-a-time reduced echelon pass over the generators finds
    gens = dense_generators(make_algebra(spec))
    rows, cols = modp.row_pivots(*sparse_entries(gens))
    pivots = rref_rows(gens.astype(np.int64) % modp._PRIME)
    assert (rows, cols) == ([i for i, _ in pivots], [c for _, c in pivots])


def test_matmul_mod_at_its_bound():
    p = modp._PRIME
    a, b = np.full((3, 2**12), p - 1), np.full((2**12, 4), p - 1)
    want = [[sum((p - 1) * (p - 1) for _ in range(2**12)) % p] * 4] * 3
    assert modp._matmul_mod(a, modp._limbs(b)).tolist() == want
    # inner dimension 2^20 - 1, the low limb at its largest: the limb sums
    # reach 1.5 * 2^52, below the float64 bound 2^53
    k, big = 2**20 - 1, (0x7FFE << 16) + 0xFFFF
    a, b = np.full((1, k), big), np.full((k, 2), big)
    assert modp._matmul_mod(a, modp._limbs(b)).tolist() == [[k * big * big % p] * 2]


def test_sub_stays_in_range():
    p = modp._PRIME
    a = np.array([0, 0, 5, p - 1, p - 1, 3])
    b = np.array([0, p - 1, 5, 0, p - 1, 7])
    assert modp._sub(a, b).tolist() == [(x - y) % p for x, y in zip(a.tolist(), b.tolist())]
