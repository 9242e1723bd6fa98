import itertools
import json
import math
import time
from fractions import Fraction as Fr

import numpy as np
import pytest

from jkepler import algebra as jk_algebra
from jkepler.algebra import DomainError, Element, Stack, make_algebra
from jkepler.phase import (XLinearOp, conjugate, moment_s, moment_x, moment_y, poisson_poly,
                           verify_poisson_tkk)
from jkepler.poly import Poly, monomial_key
from jkepler import cli, modp, phase, weyl
from jkepler.weyl import (WallachParam, WeylOp, acute_s, acute_x,
                          acute_y, apply_op, bound_spectrum,
                          commutator, compose, gaussian_conjugate, he_grading_checks,
                          lowest_weight_check, restriction_degeneracy,
                          tkk_op_residual, verify_tkk_ops, x_tilde, xlinear_s, xlinear_x,
                          y_tilde)

from modp_reference import Echelon


def summed(cls, nvars, pairs):
    """cls(nvars, terms) with the coefficients of repeated exponents added."""
    out = {}
    for k, c in pairs:
        out[k] = out[k] + c if k in out else c
    return cls(nvars, out)


class Cx(tuple):
    """The complex operator re + i im as the pair (re, im) of rational WeylOps,
    the form acute_x and acute_y return."""

    def __new__(cls, re, im=None):
        return super().__new__(cls, (re, WeylOp(re.nvars) if im is None else im))

    def __add__(self, other):
        return Cx(self[0] + other[0], self[1] + other[1])

    def __sub__(self, other):
        return Cx(self[0] - other[0], self[1] - other[1])

    def __neg__(self):
        return Cx(-self[0], -self[1])

    def __rmul__(self, c):
        return self.times(c, 0)

    def times(self, a, b):
        """(a + i b) times self, for rational a and b."""
        re, im = self
        return Cx(re.scaled(a) - im.scaled(b), im.scaled(a) + re.scaled(b))

    def is_zero(self):
        return self[0].is_zero() and self[1].is_zero()


# --- reference realization, from the definitions ------------------------------
# The moment functions written out with Jordan triple products on basis
# elements and the Gram matrix, so that the kernels the builders read
# (smul_matrix, dual_triple_tensor) are not their own oracle; then quantized
# (p -> D) with the nu-terms added.

def ref_moment_s(alg, u, v):
    """S_uv = <S_uv(x)|pi> = sum_ab {u v e_b}^a x^b p_a."""
    n = alg.dim
    columns = [alg.triple(u, v, alg.basis_element(b)).coords for b in range(n)]
    return summed(Poly, 2 * n, [(monomial_key(2 * n, b, n + a), c)
                                for b, col in enumerate(columns) for a, c in enumerate(col)])


def ref_moment_x(alg, u):
    """X_u = <x|{pi u pi}> with pi_a = p_a / gram_a and <x|y> = sum_g gram_g x^g y^g."""
    n, g = alg.dim, alg.gram
    pairs = []
    for a, b in itertools.product(range(n), repeat=2):
        t = alg.triple(alg.basis_element(a), u, alg.basis_element(b)).coords
        pairs += [(monomial_key(2 * n, k, n + a, n + b), g[k] * c / (g[a] * g[b]))
                  for k, c in enumerate(t) if c]
    return summed(Poly, 2 * n, pairs)


def ref_moment_y(alg, v):
    """Y_v = <x|v>."""
    n = alg.dim
    return Poly(2 * n, {monomial_key(2 * n, k): alg.gram[k] * c for k, c in enumerate(v.coords)})


def _quantized(p):
    """A phase Poly read as an operator: the p block becomes the D block."""
    return WeylOp._make(p.nvars, p.nums, p.den)


def ref_s(alg, nu, u, v):
    """S_uv(nu) = -<S_uv(x)|D> - (nu/2) tr(uv)."""
    return (-_quantized(ref_moment_s(alg, u, v))
            - WeylOp.constant(2 * alg.dim, Fr(nu) * alg.rho * alg.inner(u, v) / 2))


def ref_x(alg, nu, u):
    """X~_u(nu) = <x|{D u D}> + nu tr(u D)."""
    n, nur = alg.dim, Fr(nu) * alg.rho
    return _quantized(ref_moment_x(alg, u)) + WeylOp(
        2 * n, {monomial_key(2 * n, n + a): nur * c for a, c in enumerate(u.coords)})


def ref_y(alg, v):
    """Y~_v = <x|v>."""
    return _quantized(ref_moment_y(alg, v))


def c_commutator(p, q):
    (a, b), (c, d) = p, q
    return Cx(commutator(a, c) - commutator(b, d), commutator(a, d) + commutator(b, c))


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
    d1, x1 = WeylOp.var(n, g3.dim), WeylOp.var(n, 0)
    assert commutator(d1, x1) == WeylOp.constant(n, Fr(1))
    assert commutator(d1, WeylOp.var(n, 1)).is_zero()


def test_euler_operator_on_monomial(g3):
    n = g3.dim
    p = Poly(n, {(2, 0, 0, 0): Fr(1)})
    euler = compose(WeylOp.var(2 * n, 0), WeylOp.var(2 * n, n))
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
            expected[z[:a] + (1,) + z[a + 1:] + z] = -c
    assert ye == (WeylOp(2 * n), WeylOp(2 * n, expected))  # -i <x|e>
    # nu-independent
    assert ye == acute_y(g3, Fr(7, 3), g3.identity())


def test_acute_s_ee(g3):
    # S_ee(nu) = -<x|D> - nu rho / 2
    n = g3.dim
    nu = Fr(2)
    see = acute_s(g3, nu, g3.identity(), g3.identity())
    euler = WeylOp(2 * n)
    for a in range(n):
        euler = euler + compose(WeylOp.var(2 * n, a), WeylOp.var(2 * n, n + a))
    assert see == euler.scaled(Fr(-1)) - WeylOp.constant(2 * n, nu * g3.rho / 2)


def test_nu_zero_reduces_to_hats(g3):
    rng = np.random.default_rng(2)
    u, v = g3.random_element(rng), g3.random_element(rng)
    s0, x0, y0 = (Cx(acute_s(g3, Fr(0), u, v)), Cx(*acute_x(g3, Fr(0), u)),
                  Cx(*acute_y(g3, Fr(0), v)))
    s1, x1, y1 = (Cx(acute_s(g3, Fr(1), u, v)), Cx(*acute_x(g3, Fr(1), u)),
                  Cx(*acute_y(g3, Fr(1), v)))
    # the nu=0 operators carry no constant or first-order nu terms
    assert (s1 - s0) == Cx(WeylOp.constant(2 * g3.dim, -Fr(1, 2) * g3.rho * g3.inner(u, v)))
    assert (x1 - x0)[0].is_zero()
    diff = (x1 - x0)[1]
    assert all(sum(k[:g3.dim]) == 0 and sum(k[g3.dim:]) == 1 for k in diff.terms)
    assert y0 == y1


def test_gaussian_conjugation_shift(g3):
    n = g3.dim
    e = g3.identity()
    for a in range(n):
        co = gaussian_conjugate(g3, WeylOp.var(2 * n, n + a))
        shift = g3.gram[a] * e.coords[a]
        assert co == WeylOp.var(2 * n, n + a) - WeylOp.constant(2 * n, shift)


def test_gaussian_conjugation_involutive(g3):
    rng = np.random.default_rng(3)
    op = _random_op(g3.dim, rng)
    assert gaussian_conjugate(g3, gaussian_conjugate(g3, op, 1), -1) == op


def _ref_gaussian_conjugate(alg, op, outer_sign):
    # the substitution d_a -> d_a - s (Ge)_a as a plain scalar loop over every slot
    sh = [g * c for g, c in zip(alg.gram, alg.identity().coords)]
    n = op.nvars // 2
    pairs = []
    for k, c in op.terms.items():
        A, B = k[:n], k[n:]
        for s in itertools.product(*[range(bi + 1) for bi in B]):
            coef = c
            for a, (bi, si) in enumerate(zip(B, s)):
                if bi - si:
                    coef = coef * math.comb(bi, si) * (-outer_sign * sh[a]) ** (bi - si)
            pairs.append((A + s, coef))
    return summed(WeylOp, op.nvars, pairs)


@pytest.mark.parametrize("spec", ["gamma:3", "h:3:R"])
def test_gaussian_conjugate_matches_fraction_loop(algebra, spec):
    alg = algebra(spec)
    n = alg.dim
    rng = np.random.default_rng(11)
    for _ in range(6):
        op = _random_op(n, rng)
        op = WeylOp(2 * n, {k: Fr(int(rng.integers(-9, 10)), int(rng.choice([1, 2, 3, 5, 7])))
                            for k in op.terms})
        for sign in (1, -1):
            got, want = gaussian_conjugate(alg, op, sign), _ref_gaussian_conjugate(alg, op, sign)
            assert got.terms == want.terms
            assert {type(c) for c in got.terms.values()} == {Fr}


def test_identification_formula(g3):
    # e^r (-i/2)(X_u + Y_u) e^{-r} = (<x|{DuD}> + nu tr(u D))/2 + Lhat_u - (nu/2) tr u
    n = g3.dim
    nu = Fr(3, 7)
    rng = np.random.default_rng(4)
    u = g3.random_element(rng, span=4)
    lhs = Cx(*(gaussian_conjugate(g3, part) for part in
               (Cx(*acute_x(g3, nu, u)) + Cx(*acute_y(g3, nu, u))).times(0, Fr(-1, 2))))
    half_xdd = Cx(*acute_x(g3, 0, u)).times(0, Fr(-1, 2))
    tr_term = WeylOp(2 * n)
    for a in range(n):
        if u.coords[a]:
            tr_term = tr_term + WeylOp.var(2 * n, n + a).scaled(nu * g3.rho * u.coords[a] / 2)
    l_hat = acute_s(g3, 0, u, g3.identity())
    tr_u = g3.rho * g3.inner(u, g3.identity())
    rhs = half_xdd + Cx(tr_term + l_hat - WeylOp.constant(2 * n, nu * tr_u / 2))
    assert lhs == rhs
    assert not lhs[0].is_zero() and lhs[1].is_zero()


@pytest.mark.parametrize("spec", ["gamma:3", "h:3:R"])
@pytest.mark.parametrize("nu", [Fr(0), Fr(1, 2), Fr(1), Fr(7, 3)])
def test_tkk_relations_exact(algebra, spec, nu):
    checks = verify_tkk_ops(algebra(spec), nu, trials=5, seed=11)
    assert all(c["status"] == "pass" for c in checks)


# The reference: the six relations written out over the public complex
# operators.  Entry (A, B, rest) stands for the residual [A, B] + rest.
def _relation_table(alg, s, x, y, u, v, z, w):
    zero = y(u) - y(u)  # of the operators' type, rational or Cx
    return {"XX": (x(u), x(v), zero),
            "YY": (y(u), y(v), zero),
            "XY": (x(u), y(v), 2 * s(u, v)),
            "SX": (s(u, v), x(z), -x(alg.triple(u, v, z))),
            "SY": (s(u, v), y(z), y(alg.triple(v, u, z))),
            "SS": (s(u, v), s(z, w), s(z, alg.triple(v, u, w)) - s(alg.triple(u, v, z), w))}


# [iA, iB] = -[A, B] and [iA, -iB] = [A, B], with X = i X~ and Y = -i Y~;
# each unit is (re, im)
_UNITS = {"XX": (-1, 0), "YY": (-1, 0), "XY": (1, 0), "SX": (0, 1), "SY": (0, -1),
          "SS": (1, 0)}


@pytest.mark.parametrize("spec,nus", [("gamma:3", (Fr(1), Fr(7, 3))),
                                      ("h:3:R", (Fr(1, 2), Fr(7, 3))),
                                      ("h:3:C", (Fr(1), Fr(7, 3)))])
def test_complex_operators_are_units_times_rational(algebra, spec, nus):
    alg = algebra(spec)
    rng = np.random.default_rng(17)
    u, v, z, w = (alg.random_element(rng, span=4) for _ in range(4))
    for nu in nus:
        assert acute_x(alg, nu, u) == Cx(x_tilde(alg, nu, u)).times(0, 1)
        assert acute_y(alg, nu, v) == Cx(y_tilde(alg, v)).times(0, -1)
        ref = _relation_table(alg, lambda a, b: Cx(acute_s(alg, nu, a, b)),
                              lambda a: Cx(*acute_x(alg, nu, a)),
                              lambda b: Cx(*acute_y(alg, nu, b)), u, v, z, w)
        rat = _relation_table(alg, lambda a, b: acute_s(alg, nu, a, b),
                              lambda a: x_tilde(alg, nu, a), lambda b: y_tilde(alg, b),
                              u, v, z, w)
        for name, unit in _UNITS.items():
            (a, b, rest), (ra, rb, _) = ref[name], rat[name]
            bracket = c_commutator(a, b)
            assert bracket == Cx(commutator(ra, rb)).times(*unit)
            residual = tkk_op_residual(alg, name, nu, u, v, z, w).poly(WeylOp)
            assert bracket + rest == Cx(residual).times(*unit)
            # the brackets are not all zero, so the unit is pinned
            assert bracket.is_zero() == (name in ("XX", "YY"))


def test_rational_he_and_lowest_weight_operators(g3):
    nu = Fr(5, 2)
    c, e = g3.jordan_frame()[0], g3.identity()
    he = y_tilde(g3, e) - x_tilde(g3, nu, e)
    assert Cx(he) == (Cx(*acute_x(g3, nu, e)) + Cx(*acute_y(g3, nu, e))).times(0, 1)
    e_minus = (Cx(*acute_x(g3, nu, c)) - Cx(*acute_y(g3, nu, c))).times(0, Fr(1, 2)) \
        + Cx(acute_s(g3, nu, c, e))
    assert e_minus == Cx(acute_s(g3, nu, c, e)
                         - (x_tilde(g3, nu, c) + y_tilde(g3, c)).scaled(Fr(1, 2)))
    rng = np.random.default_rng(8)
    w = g3.random_element(rng)
    assert Cx(*acute_x(g3, nu, w)) + Cx(*acute_y(g3, nu, w)) == \
        Cx(x_tilde(g3, nu, w) - y_tilde(g3, w)).times(0, 1)


def test_mutated_s_builder_is_caught(g3, monkeypatch):
    real = weyl.xlinear_s
    monkeypatch.setattr(weyl, "xlinear_s", lambda *args: -1 * real(*args))
    checks = {c["name"]: c for c in verify_tkk_ops(g3, Fr(7, 3), trials=3, seed=1)}
    xy = checks["operators:XY"]
    assert xy["status"] == "fail"
    assert list(xy["witness"]) == ["relation", "nu", "u", "v", "z", "w"]
    assert xy["witness"]["nu"] == "7/3"
    assert checks["operators:XX"]["status"] == "pass"
    assert checks["operators:YY"]["status"] == "pass"
    # acute_s is the same builder, so the lowest-weight check sees it too
    witness = lowest_weight_check(g3, Fr(7, 3))["witness"]
    assert witness is not None and {"check": "E_-alpha0"} in witness


def test_nu_shift_in_x_alone_is_caught(g3, monkeypatch):
    # nu + 1 in X~ only (S keeps nu): [X~_u, Y~_v] + 2 S_uv is then a nonzero constant
    real = weyl.xlinear_x
    monkeypatch.setattr(weyl, "xlinear_x", lambda alg, nu, u: real(alg, nu + 1, u))
    checks = {c["name"]: c for c in verify_tkk_ops(g3, Fr(7, 3), trials=3, seed=1)}
    assert checks["operators:XY"]["status"] == "fail"
    assert checks["operators:XY"]["witness"]["relation"] == "XY"


def test_negated_moment_s_fails_both_suites(g3, monkeypatch):
    # S has one builder, phase.moment_s: negated at every binding (as a tracer
    # patches it), it breaks the Poisson and the operator XY relations alike
    real = phase.moment_s
    for module in (phase, weyl):
        monkeypatch.setattr(module, "moment_s", lambda *args: -1 * real(*args))
    classical = {c["name"]: c["status"] for c in verify_poisson_tkk(g3, trials=2, seed=1)}
    quantum = {c["name"]: c["status"] for c in verify_tkk_ops(g3, Fr(7, 3), trials=2, seed=1)}
    assert classical["poisson:XY"] == quantum["operators:XY"] == "fail"
    assert classical["poisson:XX"] == quantum["operators:XX"] == "pass"
    assert classical["poisson:YY"] == quantum["operators:YY"] == "pass"


# --- the x-linear kernel -------------------------------------------------------------

@pytest.mark.parametrize("spec", ["gamma:3", "h:3:R", "h:3:C", "h:3:H"])
def test_builders_match_definitions(algebra, spec):
    alg = algebra(spec)
    rng = np.random.default_rng(29)
    u, v = (alg.random_element(rng, span=4, denominator=3) for _ in range(2))
    assert moment_s(alg, u, v).poly() == ref_moment_s(alg, u, v)
    assert moment_x(alg, u).poly() == ref_moment_x(alg, u)
    assert moment_y(alg, v).poly() == ref_moment_y(alg, v)
    for nu in (Fr(0), Fr(1, 2), Fr(7, 3)):
        s = ref_s(alg, nu, u, v)
        assert xlinear_s(alg, nu, u, v).poly(WeylOp) == s == acute_s(alg, nu, u, v)
        assert xlinear_x(alg, nu, u).poly(WeylOp) == ref_x(alg, nu, u) == x_tilde(alg, nu, u)
    assert moment_y(alg, v).poly(WeylOp) == ref_y(alg, v) == y_tilde(alg, v)


@pytest.mark.parametrize("spec", ["gamma:3", "h:3:R", "h:3:C"])
def test_xlinear_bracket_is_minus_poisson_poly(algebra, spec):
    # the kernel of the poisson:* and operators:* relations against the sparse
    # bracket, on builder symbols at nu = 0 and 3/2 and on sums of them
    alg = algebra(spec)
    rng = np.random.default_rng(31)
    u, v, z, w = (alg.random_element(rng, span=4, denominator=3) for _ in range(4))
    nu = Fr(3, 2)
    syms = [moment_s(alg, u, v), moment_x(alg, z), moment_y(alg, w),
            xlinear_s(alg, nu, z, w), xlinear_x(alg, nu, u)]
    syms += [syms[0] + syms[1], syms[2] - syms[3] + syms[4]]
    nonzero = 0
    for a, b in itertools.combinations_with_replacement(syms, 2):
        got, want = phase.bracket(a, b), poisson_poly(a.poly(), b.poly())
        assert got.poly() == -want
        assert got.is_zero() == want.is_zero()
        nonzero += not want.is_zero()
    assert nonzero >= 15

def _sparse_element(alg, rng, k):
    """k random nonzero coordinates in [-4, 4] over a denominator in 1..3."""
    nums = [0] * alg.dim
    for a in rng.choice(alg.dim, k, replace=False):
        nums[a] = int(rng.integers(1, 5)) * int(rng.choice([-1, 1]))
    return Element._make(alg, nums, int(rng.integers(1, 4)))


# dense random elements, and sparse ones on h:3:H, where the commutator of two
# dense X~ builds about 10^5 words that cancel
@pytest.mark.parametrize("spec,nus", [("gamma:3", (Fr(1), Fr(7, 3))),
                                      ("h:3:R", (Fr(1, 2), Fr(7, 3))),
                                      ("h:3:C", (Fr(1), Fr(7, 3))),
                                      ("h:3:H", (Fr(2), Fr(7, 3)))])
def test_xlinear_brackets_are_the_commutator(algebra, spec, nus):
    alg = algebra(spec)
    rng = np.random.default_rng(23)
    for nu in nus:
        if spec == "h:3:H":
            u, v, z, w = (_sparse_element(alg, rng, 3) for _ in range(4))
        else:
            u, v, z, w = (alg.random_element(rng, span=4, denominator=3) for _ in range(4))
        ops = [(xlinear_s(alg, nu, u, v), ref_s(alg, nu, u, v)),
               (xlinear_s(alg, nu, z, w), ref_s(alg, nu, z, w)),
               (xlinear_x(alg, nu, u), ref_x(alg, nu, u)),
               (xlinear_x(alg, nu, z), ref_x(alg, nu, z)),
               (moment_y(alg, v), ref_y(alg, v)),
               (moment_y(alg, w), ref_y(alg, w))]
        for op, ref in ops:
            assert op.poly(WeylOp) == ref
        nonzero = 0
        for (a, ra), (b, rb) in itertools.combinations_with_replacement(ops, 2):
            ref = commutator(ra, rb)
            got = phase.bracket(a, b)
            assert got.poly(WeylOp) == ref
            assert got.is_zero() == ref.is_zero()
            nonzero += not ref.is_zero()
        # of the 21 brackets, [A, A], [X, X'] and [Y, Y'] vanish; sparse
        # elements may zero a few more
        assert 10 <= nonzero <= 21 - 6 - 2


def test_xlinear_zero_is_the_symmetrized_tensor(g3):
    n = g3.dim
    t = np.zeros((n + 1, n, n), dtype=np.int64)
    t[2, 0, 1], t[2, 1, 0] = 5, -5  # x_1 (5 D_0 D_1 - 5 D_1 D_0) = 0
    zero = XLinearOp(n, {2: t}, 3)
    assert zero.is_zero() and zero.poly(WeylOp).is_zero()
    t[2, 1, 0] = -4
    assert not XLinearOp(n, {2: t}, 3).is_zero()


def test_xlinear_kernel_falls_back_to_python_ints(g3):
    nu = Fr(7, 3)
    rng = np.random.default_rng(4)
    big = Element._make(g3, [10**12 + int(c) for c in rng.integers(-9, 10, g3.dim)], 1)
    huge = Element._make(g3, [10**20 + int(c) for c in rng.integers(-9, 10, g3.dim)], 7)
    small = g3.random_element(rng, span=4)
    x_big, x_huge, s_small = xlinear_x(g3, nu, big), xlinear_x(g3, nu, huge), \
        xlinear_s(g3, nu, small, big)
    assert x_big.parts[2].dtype == np.int64  # each fits, their bracket does not
    assert x_huge.parts[2].dtype == object
    for a, b, ra, rb in [(x_big, s_small, ref_x(g3, nu, big), ref_s(g3, nu, small, big)),
                         (x_huge, x_big, ref_x(g3, nu, huge), ref_x(g3, nu, big))]:
        got = phase.bracket(a, b)
        assert all(t.dtype == object for t in got.parts.values())
        assert got.poly(WeylOp) == commutator(ra, rb)
    k = 3 * 10**7  # k max|numerator| passes 2^63
    assert (x_big + k * x_big).poly(WeylOp) == ref_x(g3, nu, big).scaled(k + 1)
    assert (k * x_big).parts[2].dtype == object


def test_h3O_relations_within_budget(algebra):
    # the six families on e7(-25) at the default nu = delta/2; through the
    # commutator of WeylOps this took about 85 s and 2 GB
    alg = algebra("h:3:O")
    start = time.perf_counter()
    checks = verify_tkk_ops(alg, Fr(alg.delta, 2), trials=1, seed=6)
    assert time.perf_counter() - start < 20
    assert [c["status"] for c in checks] == ["pass"] * 6


def test_h3O_operators_within_budget(algebra):
    # the operators suite on e7(-25) at the default nu and one trial: relations,
    # grading at levels 0-4, lowest weight and the spectrum; with the grading
    # applying the conjugated WeylOp to each monomial this took about 5 s
    alg = algebra("h:3:O")
    start = time.perf_counter()
    checks = cli._operator_checks(alg, cli.SuiteConfig("h:3:O", suite="operators", trials=1))
    assert time.perf_counter() - start < 20
    assert [c["status"] for c in checks] == ["pass"] * 13


def test_commutator_composes_through_the_module_global(g3, monkeypatch):
    # a tracer that replaces weyl.compose must see both products of a commutator
    calls = []
    real = weyl.compose

    def counting(a, b):
        calls.append((a, b))
        return real(a, b)

    monkeypatch.setattr(weyl, "compose", counting)
    n = 2 * g3.dim
    x, d = WeylOp.var(n, 0), WeylOp.var(n, g3.dim)
    assert commutator(d, x) == WeylOp.constant(n, Fr(1))
    assert calls == [(d, x), (x, d)]


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
    for bad in (Fr(0), Fr(-1), Fr(9, 10), Fr(1, 3), 1.5, float("inf"), float("nan")):
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

# The references: the WeylOp route, each generator's normal form conjugated
# word by word (gaussian_conjugate) and applied to every monomial or to the
# vacuum (apply_op).  They read xlinear_x and xlinear_s through the weyl
# module, so a monkeypatched builder reaches them as it reaches the checks.

def _act(alg, op, p):
    """op on the state psi = e^{-r} p: the q with op psi = e^{-r} q."""
    return apply_op(gaussian_conjugate(alg, op), p)


def ref_grading(alg, nu, degree):
    n, e = alg.dim, alg.identity()
    conj = gaussian_conjugate(alg, y_tilde(alg, e) - x_tilde(alg, nu, e))
    eig = 2 * degree + Fr(nu) * alg.rho
    checked, witness = 0, None
    for idx in itertools.combinations_with_replacement(range(n), degree):
        exps = tuple(idx.count(a) for a in range(n))
        p = Poly(n, {exps: Fr(1)})
        q = apply_op(conj, p)
        # no term above degree I, and the degree-I part is eig p
        if Poly(n, {k: c for k, c in q.terms.items() if sum(k) >= degree}) != p.scaled(eig):
            witness = {"monomial": list(exps)}
            break
        checked += 1
    return {"name": f"grading:I={degree}", "status": "pass" if witness is None else "fail",
            "metric": "exact", "eigenvalue": str(eig), "checked": checked, "witness": witness}


def ref_lowest_weight(alg, nu):
    n = alg.dim
    vac = Poly.constant(n, Fr(1))
    failures = []
    pairs = list(itertools.combinations(range(n), 2))
    checked = len(pairs)
    for p, (a, b) in enumerate(pairs):
        u, v = alg.basis_element(a), alg.basis_element(b)
        op = (acute_s(alg, nu, u, v) - acute_s(alg, nu, v, u)).scaled(Fr(1, 2))
        if not _act(alg, op, vac).is_zero():
            failures.append({"check": "derivation", "u": [str(c) for c in u.coords],
                             "v": [str(c) for c in v.coords]})
            checked = p
            break
    perp = alg.e_perp_basis()
    for w in perp:
        if not _act(alg, x_tilde(alg, nu, w) - y_tilde(alg, w), vac).is_zero():
            failures.append({"check": "compact-translation", "w": [str(c) for c in w.coords]})
    c = alg.jordan_frame()[0]
    xc, yc = x_tilde(alg, nu, c), y_tilde(alg, c)
    e_minus = acute_s(alg, nu, c, alg.identity()) - (xc + yc).scaled(Fr(1, 2))
    if not _act(alg, e_minus, vac).is_zero():
        failures.append({"check": "E_-alpha0"})
    got = _act(alg, yc - xc, vac)
    if not (got - vac.scaled(Fr(nu))).is_zero():
        failures.append({"check": "H_alpha0", "got": {str(k): str(v) for k, v in got.terms.items()}})
    return {"name": "lowest-weight", "status": "pass" if not failures else "fail",
            "metric": "exact", "weight": f"{nu}*lambda0",
            "checked": {"derivation-pairs": checked, "compact-translations": len(perp)},
            "witness": failures or None}


def _perturbed(op, d, index):
    """op with 1 added to the numerator at `index` of its D-degree-d part, in
    every symbol of a stack: `index` names the trailing axes."""
    parts = {k: t.astype(object) for k, t in op.parts.items()}
    parts[d][(...,) + index] += 1
    return XLinearOp(op.n, parts, op.den)


def _mutations(alg):
    """(name, builder attribute, replacement factory) for each mutated builder.
    With h = grad r nonzero at i and zero at j, one added X~ entry changes one
    term of the conjugated H_e: x_j D_i D_j adds -h_i x_j D_j (an eigenvalue
    from degree 1 on), x_i D_i D_j adds -h_i x_i D_j (x_j leaves the
    monomial), and x_i D_i D_i adds h_i^2 x_i (degree I + 1 at every I)."""
    h = moment_y(alg, alg.identity()).parts[0][1:]
    i, j = int(np.flatnonzero(h)[0]), int(np.flatnonzero(h == 0)[0])

    def x_entry(index):
        return lambda real: lambda a, nu, u: _perturbed(real(a, nu, u), 2, index)

    return [("nu+1 in X~", "xlinear_x", lambda real: lambda a, nu, u: real(a, nu + 1, u)),
            ("X~ doubled", "xlinear_x", lambda real: lambda a, nu, u: 2 * real(a, nu, u)),
            ("X~ eigenvalue entry", "xlinear_x", x_entry((j + 1, i, j))),
            ("X~ mixing entry", "xlinear_x", x_entry((i + 1, i, j))),
            ("X~ raising entry", "xlinear_x", x_entry((i + 1, i, i))),
            ("S entry", "xlinear_s",
             lambda real: lambda a, nu, u, v: _perturbed(real(a, nu, u, v), 1, (j + 1, i)))]


@pytest.mark.parametrize("spec,nu", [("gamma:3", Fr(1)), ("h:3:R", Fr(1, 2)),
                                     ("h:3:C", Fr(1))])
def test_checks_match_the_weylop_route(algebra, spec, nu, monkeypatch):
    alg = algebra(spec)
    levels = range(4 if alg.dim < 9 else 3)
    cases = [("builders", None, None)] + _mutations(alg)
    fails_above_zero = 0
    for name, attr, factory in cases:
        with monkeypatch.context() as m:
            if attr:
                m.setattr(weyl, attr, factory(getattr(weyl, attr)))
            grading = he_grading_checks(alg, nu, levels)
            assert grading == [ref_grading(alg, nu, i) for i in levels], name
            got, want = lowest_weight_check(alg, nu), ref_lowest_weight(alg, nu)
            assert json.dumps(got) == json.dumps(want), name
        statuses = [g["status"] for g in grading]
        if attr is None:
            assert statuses == ["pass"] * len(levels) and got["status"] == "pass"
        else:
            assert "fail" in statuses or got["status"] == "fail", name
        fails_above_zero += statuses[0] == "pass" and "fail" in statuses
    assert fails_above_zero >= 2


@pytest.mark.parametrize("spec,nu", [("gamma:3", Fr(1)), ("h:3:R", Fr(1, 2))])
def test_grading_in_blocks(algebra, spec, nu, monkeypatch):
    # one or two monomials at a time, the dicts of one block: passes across
    # every boundary, and first failures in a later block
    alg = algebra(spec)
    cases = [("builders", None, None)] + _mutations(alg)

    def reports():
        out = []
        for _, attr, factory in cases:
            with monkeypatch.context() as m:
                if attr:
                    m.setattr(weyl, attr, factory(getattr(weyl, attr)))
                out.append(he_grading_checks(alg, nu, range(5)))
        return out

    assert math.comb(alg.dim + 3, 4) <= weyl._MONOMIALS
    want = reports()
    for size in (1, 2):
        monkeypatch.setattr(weyl, "_MONOMIALS", size)
        assert reports() == want, size
    assert [g["checked"] for g in want[0]] == [math.comb(alg.dim + i - 1, i) for i in range(5)]
    assert any(g["status"] == "fail" and g["checked"] >= 1 for rows in want for g in rows)


def _series_cases(alg):
    """(a, k, fits) for conjugate(a, k r), fits whether every part stays
    int64 (None: not asserted), and the two symbols whose conjugate by
    10^6 r passes 2^63.  The series' 1/2 and 1/6 terms need a D-degree-3
    operator: [X~_u, X~_v] has a degree-3 tensor whose symmetrization is zero
    (the XX relation) and [S_uv, X~_z] stops at degree 2, so a random symbol
    with a part of every D-degree <= 3 is one."""
    n, nu = alg.dim, Fr(7, 3)
    rng = np.random.default_rng(4)
    big = Element._make(alg, [10**12 + int(c) for c in rng.integers(-9, 10, n)], 1)
    huge = Element._make(alg, [10**20 + int(c) for c in rng.integers(-9, 10, n)], 7)
    small = alg.random_element(rng, span=4)
    u, v, z = (alg.random_element(rng, span=4) for _ in range(3))
    x_big, x_huge = xlinear_x(alg, nu, big), xlinear_x(alg, nu, huge)
    s_big = xlinear_s(alg, nu, small, big)
    cubic = XLinearOp(n, {d: rng.integers(-9, 10, (n + 1,) + (n,) * d) for d in range(4)}, 5)
    cubic_big = XLinearOp(n, {d: t.astype(object) * 10**12 for d, t in cubic.parts.items()}, 5)
    xx = phase.bracket(xlinear_x(alg, nu, u), xlinear_x(alg, nu, v))
    sx = phase.bracket(xlinear_s(alg, nu, u, v), xlinear_x(alg, nu, z))
    assert max(xx.parts) == max(cubic.parts) == 3
    cases = [(x_big, 1, True), (x_big, 10**6, False), (x_huge, 1, False),
             (s_big + x_big, 10**4, False), (cubic_big, 10**3, False)]
    cases += [(a, k, None) for a in (xx, sx, cubic) for k in (1, -1, 10**3)]
    return cases, (x_big, cubic_big)


@pytest.mark.parametrize("spec", ["gamma:3", "h:3:R"])
def test_conjugate_falls_back_to_python_ints(algebra, spec):
    # e^{kr} A e^{-kr} is gaussian_conjugate with outer_sign k
    alg = algebra(spec)
    r = moment_y(alg, alg.identity())
    cases, past_guard = _series_cases(alg)
    for a, k, fits in cases:
        got = conjugate(a, k * r)
        assert fits is None or all((t.dtype == np.int64) == fits for t in got.parts.values())
        assert got.poly(WeylOp) == gaussian_conjugate(alg, a.poly(WeylOp), k)
    # past the guard the int64 kernel would have wrapped
    for a in past_guard:
        assert max(abs(int(c)) for c in conjugate(a, 10**6 * r).parts[0].ravel()) > 2**63


@pytest.mark.parametrize("spec", ["gamma:3", "h:3:R"])
def test_vacuum_is_the_degree_zero_part_of_conjugate(algebra, spec):
    # the one contraction against the series: q / den equals the D-degree-0
    # part of conjugate(a, k r) over its den, on random symbols with parts of
    # D-degree 0-3 and on the conjugate test's cases, int64 and Python ints
    alg = algebra(spec)
    n = alg.dim
    r = moment_y(alg, alg.identity())
    rng = np.random.default_rng(9)
    randoms = [XLinearOp(n, {d: rng.integers(-9, 10, (n + 1,) + (n,) * d)
                             for d in degrees}, int(rng.integers(1, 7)))
               for degrees in [(0,), (1,), (2,), (3,), (0, 2), (1, 3), (0, 1, 2, 3)]]
    cases, past_guard = _series_cases(alg)
    cases = [(a, k) for a in randoms for k in (1, -1, 10**3)] + [(a, k) for a, k, _ in cases]
    cases += [(a, 10**6) for a in past_guard]
    dtypes = set()
    for a, k in cases:
        q, den = phase.vacuum(a, k * r)
        conj = conjugate(a, k * r)
        assert q.shape == (n + 1,) and den > 0
        assert np.array_equal(q.astype(object) * conj.den, conj.parts[0].astype(object) * den)
        dtypes.add(q.dtype)
    assert dtypes == {np.dtype(np.int64), np.dtype(object)}
    for a in past_guard:
        assert max(abs(int(c)) for c in phase.vacuum(a, 10**6 * r)[0]) > 2**63


@pytest.mark.parametrize("spec", ["gamma:3", "h:3:R"])
def test_operators_suite_conjugates_once(spec, monkeypatch):
    # H_e is conjugated once for every level, and the lowest-weight check
    # reads the vacuum by contraction, with no conjugation
    calls = []
    real = weyl.conjugate
    monkeypatch.setattr(weyl, "conjugate", lambda a, r: calls.append(a) or real(a, r))
    report = cli.run(cli.SuiteConfig(spec, suite="operators", trials=1, levels=4))
    names = [c["name"] for c in report.checks]
    assert [f"grading:I={i}" for i in range(5)] + ["lowest-weight"] == \
        [name for name in names if name.startswith(("grading", "lowest"))]
    assert all(c["status"] == "pass" for c in report.checks)
    assert len(calls) == 1


@pytest.mark.parametrize("spec", ["h:3:R", "h:3:O"])
def test_conjugate_divides_out_the_common_factor(algebra, spec):
    # the series carries k! and r.den: unreduced, the conjugated H_e is over
    # 864 with every numerator divisible by 216; stored, it is over 4, with
    # the values of the word-by-word reference
    alg = algebra(spec)
    e = alg.identity()
    r = moment_y(alg, e)
    a = r - xlinear_x(alg, Fr(alg.delta, 2), e)
    conj = conjugate(a, r)
    assert conj.den == 4
    assert math.gcd(conj.den, *(int(c) for t in conj.parts.values() for c in t.ravel())) == 1
    assert conj.poly(WeylOp) == gaussian_conjugate(alg, a.poly(WeylOp))
    # a common factor of the numerators given to the constructor is divided out
    doubled = XLinearOp(alg.dim, {d: 6 * t for d, t in conj.parts.items()}, 6 * conj.den)
    assert doubled.den == conj.den
    assert all(np.array_equal(doubled.parts[d], t) for d, t in conj.parts.items())


@pytest.mark.parametrize("nu", [Fr(1), Fr(2)])
def test_he_grading(g3, nu):
    reps = he_grading_checks(g3, nu, range(4))
    assert [rep["name"] for rep in reps] == [f"grading:I={i}" for i in range(4)]
    for i, rep in enumerate(reps):
        assert rep["status"] == "pass"
        assert rep["eigenvalue"] == str(2 * i + nu * g3.rho)


def test_he_grading_known_eigenvalue(g3):
    [rep] = he_grading_checks(g3, Fr(1), [2])
    assert rep["eigenvalue"] == "6"  # 2*2 + nu*rho = 6 at nu=1


@pytest.mark.parametrize("spec,nu", [("gamma:3", Fr(1)), ("gamma:3", Fr(5, 2)),
                                     ("h:3:R", Fr(1, 2))])
def test_lowest_weight(algebra, spec, nu):
    rep = lowest_weight_check(algebra(spec), nu)
    assert rep["status"] == "pass", rep
    assert rep["weight"] == f"{nu}*lambda0"


def test_lowest_weight_counts_what_it_checked(algebra, monkeypatch):
    # every basis pair and every translation on a pass, in one block or one
    # row a block; the report keeps only name, status, metric and witness
    for spec in ("gamma:3", "h:3:R"):
        alg = algebra(spec)
        for entries in (phase._ENTRIES, 1):
            monkeypatch.setattr(phase, "_ENTRIES", entries)
            rep = lowest_weight_check(alg, Fr(alg.delta, 2))
            assert rep["checked"] == {"derivation-pairs": math.comb(alg.dim, 2),
                                      "compact-translations": len(alg.e_perp_basis())}
        report = cli.run(cli.SuiteConfig(spec, suite="operators", trials=1))
        [row] = [c for c in report.checks if c["name"] == "lowest-weight"]
        assert list(row) == ["name", "status", "metric", "witness"]


@pytest.mark.parametrize("spec", ["gamma:3", "h:3:R", "h:3:C"])
def test_corrupted_s_builder_fails_on_a_basis_pair(algebra, spec, monkeypatch):
    # S_uv plus x_{n-1} times the last coordinate of u: [L_u, L_v] then moves
    # psi_0 exactly on the pairs with one index n - 1, the first of which is
    # (0, n - 1); the same witness at one pair a block, and from the WeylOp route
    alg = algebra(spec)
    n, nu = alg.dim, Fr(alg.delta, 2)
    real = weyl.xlinear_s

    def corrupted(a, nu, u, v):
        op = real(a, nu, u, v)
        parts = {d: t.astype(object) for d, t in op.parts.items()}
        parts[0][..., n] += u.exact().ints()[..., n - 1]
        return XLinearOp(op.n, parts, op.den)

    monkeypatch.setattr(weyl, "xlinear_s", corrupted)
    want = {"check": "derivation", "u": [str(c) for c in alg.basis_element(0).coords],
            "v": [str(c) for c in alg.basis_element(n - 1).coords]}
    reports = []
    for entries in (phase._ENTRIES, 1):
        monkeypatch.setattr(phase, "_ENTRIES", entries)
        reports.append(lowest_weight_check(alg, nu))
        assert reports[-1]["witness"] == [want]
        assert reports[-1]["checked"]["derivation-pairs"] == n - 2
    want = json.dumps(ref_lowest_weight(alg, nu))
    assert json.dumps(reports[0]) == json.dumps(reports[1]) == want


def _rows_match(stacked, singles):
    """Each symbol of a stacked XLinearOp equals the one built from its row."""
    for i, one in enumerate(singles):
        assert set(stacked.parts) == set(one.parts)
        for d, t in stacked.parts.items():
            assert np.array_equal(t[i].astype(object) * one.den,
                                  one.parts[d].astype(object) * stacked.den)


@pytest.mark.parametrize("spec", ["gamma:3", "h:3:R", "h:3:C", "h:3:H", "h:3:O"])
def test_stacked_kernels_match_their_rows(algebra, spec, monkeypatch):
    # Algebra.product, the five builders and vacuum on Stacks against the same
    # calls row by row: nine small rows (float64 and int64 steps) and two rows
    # with numerators past 2^32 (Python ints once multiplied)
    alg = algebra(spec)
    n, nu = alg.dim, Fr(7, 3)
    rng = np.random.default_rng(43)
    small = [alg.random_element(rng, span=4, denominator=int(rng.integers(1, 4))) for _ in range(9)]
    big = [Element._make(alg, [2**33 + int(c) for c in rng.integers(-9, 10, n)], 5)
           for _ in range(2)]
    chosen, pick = set(), jk_algebra._exact_dtype

    def spy(bound, blas=False):
        chosen.add(pick(bound, blas))
        return pick(bound, blas)

    monkeypatch.setattr(jk_algebra, "_exact_dtype", spy)
    r = moment_y(alg, alg.identity())
    for us, vs in [(small, small[::-1]), (big, big[::-1])]:
        u, v = Stack.of(us), Stack.of(vs)
        prod = alg.product(u, v)
        assert [Element._make(alg, row, prod.den) for row in prod.nums.ints().tolist()] == \
            [alg.product(a, b) for a, b in zip(us, vs)]
        builders = [(lambda a, b: moment_s(alg, a, b)), (lambda a, b: moment_x(alg, a)),
                    (lambda a, b: moment_y(alg, b)), (lambda a, b: xlinear_s(alg, nu, a, b)),
                    (lambda a, b: xlinear_x(alg, nu, a))]
        for build in builders:
            stacked = build(u, v)
            singles = [build(a, b) for a, b in zip(us, vs)]
            _rows_match(stacked, singles)
            q, den = phase.vacuum(stacked, r)
            for row, one in zip(q, singles):
                q1, den1 = phase.vacuum(one, r)
                assert np.array_equal(row.astype(object) * den1, q1.astype(object) * den)
    assert {np.dtype(np.float64), np.dtype(np.int64), np.dtype(object)} <= chosen


@pytest.mark.parametrize("spec", ["gamma:3", "h:3:R", "h:3:C", "h:3:H"])
def test_bracket_and_is_zero_in_blocks(algebra, spec, monkeypatch):
    # one slot a block gives the same commutators, and the same verdicts of
    # is_zero, as the whole part at once: on brackets of S, X~ and Y~ (zero
    # only for a symbol with itself), with X~ of int64 numerators past 2^56
    # so that its brackets step in Python ints, and on the six relation
    # residuals (zero)
    alg = algebra(spec)
    nu, rng = Fr(7, 3), np.random.default_rng(17)
    u, v, z, w = (alg.random_element(rng, span=4) for _ in range(4))
    big = Element._make(alg, [2**56 + int(c) for c in rng.integers(-9, 10, alg.dim)], 3)
    ops = [xlinear_s(alg, nu, u, v), xlinear_x(alg, nu, big), moment_y(alg, w)]

    def run():
        brackets = [phase.bracket(a, b) for a in ops for b in ops]
        residuals = [tkk_op_residual(alg, name, nu, u, v, z, w) for name in _UNITS]
        return ([(x.den, {d: t.tolist() for d, t in x.parts.items()}) for x in brackets],
                [x.is_zero() for x in brackets + residuals])

    want = run()
    monkeypatch.setattr(phase, "_ENTRIES", 1)
    assert run() == want
    assert want[1] == [i % 4 == 0 for i in range(9)] + [True] * 6
    assert {t.dtype for t in ops[1].parts.values()} == {np.dtype(np.int64)}
    assert {t.dtype for t in phase.bracket(ops[1], ops[0]).parts.values()} == {np.dtype(object)}


def test_vacuum_annihilated_by_alpha0_lowering(g3):
    # conj(E_{-alpha0}) (1) = 0 spelled out through the conjugated operator
    nu = Fr(1)
    c = g3.jordan_frame()[0]
    op = (Cx(*acute_x(g3, nu, c)) - Cx(*acute_y(g3, nu, c))).times(0, Fr(1, 2)) \
        + Cx(acute_s(g3, nu, c, g3.identity()))
    assert not op[0].is_zero()
    for part in op:
        assert _act(g3, part, Poly.constant(g3.dim, Fr(1))).is_zero()


def test_grading_respects_degree_filtration(g3):
    # compact generators conjugated by e^{-r} keep degree <= I
    nu = Fr(1)
    rng = np.random.default_rng(6)
    w = g3.random_element(rng)
    u, v = g3.random_element(rng), g3.random_element(rng)
    ops = [*(Cx(*acute_x(g3, nu, w)) + Cx(*acute_y(g3, nu, w))),
           (acute_s(g3, nu, u, v) - acute_s(g3, nu, v, u)).scaled(Fr(1, 2))]
    for op in ops:
        conj = gaussian_conjugate(g3, op)
        for exps in [(2, 0, 0, 0), (1, 1, 0, 0), (0, 0, 2, 1)]:
            p = Poly(g3.dim, {exps: Fr(1)})
            q = apply_op(conj, p)
            assert all(sum(k) <= sum(exps) for k in q.terms)


# --- degeneracies ----------------------------------------------------------------------

def test_degeneracy_constants(g3):
    assert restriction_degeneracy(g3, Fr(1), 0, seed=1) == 1


@pytest.mark.parametrize("level", range(1, 13))
def test_hydrogen_degeneracies(g3, level):
    assert restriction_degeneracy(g3, Fr(1), level, seed=7) == (level + 1) ** 2


def test_continuous_nu_full_dimension(g3):
    for alg, nu, top in ((g3, Fr(3, 2), 4), (make_algebra("h:3:R"), Fr(3, 2), 3),
                         (make_algebra("h:3:H"), Fr(7), 2)):
        for level in range(1, top + 1):
            want = math.comb(alg.dim + level - 1, level)
            assert restriction_degeneracy(alg, nu, level, seed=5) == want


def test_degeneracy_deterministic_and_validated(g3):
    a = restriction_degeneracy(g3, Fr(1), 2, seed=9)
    b = restriction_degeneracy(g3, Fr(1), 2, seed=9)
    assert a == b == 9
    with pytest.raises(DomainError):
        restriction_degeneracy(g3, Fr(1), -1, seed=3)
    with pytest.raises(DomainError):
        restriction_degeneracy(g3, Fr(1, 3), 2, seed=3)


def test_rank1_cone_degeneracy_additivity(g3):
    # the cumulative dimension of the restricted polynomials of degree <= top
    for top in (2, 3, 6):
        total = sum(restriction_degeneracy(g3, Fr(1), i, seed=13) for i in range(top + 1))
        assert total == sum((i + 1) ** 2 for i in range(top + 1))


@pytest.mark.parametrize("spec,nu,level,want", [
    ("gamma:3", Fr(1), 8, 81),
    ("gamma:3", Fr(1), 9, 100),
    ("h:3:R", Fr(1, 2), 7, 120),
])
def test_former_float_defects(spec, nu, level, want):
    # the float SVD rank printed 79, 80-83 and 114-115 here
    alg = make_algebra(spec)
    assert restriction_degeneracy(alg, nu, level, seed=1) == want
    assert restriction_degeneracy(alg, nu, level, seed=2) == want


def _dim_p(n, level):
    return math.comb(n + level - 1, level) if level >= 0 else 0


# Faraut-Koranyi K-type counts: rank k = rho - 1 has ideal (det), of degree
# rho; h:3:C at k = 1 is C(I+2, 2)^2; h:3:R at k = 1 is C(2I+2, 2).
@pytest.mark.parametrize("spec,nu,top,closed_form", [
    ("h:3:R", Fr(1, 2), 10, lambda n, i: math.comb(2 * i + 2, 2)),
    ("h:3:R", Fr(1), 7, lambda n, i: _dim_p(n, i) - _dim_p(n, i - 3)),
    ("h:3:C", Fr(1), 5, lambda n, i: math.comb(i + 2, 2) ** 2),
    ("gamma:5", Fr(2), 8, lambda n, i: _dim_p(n, i) - _dim_p(n, i - 2)),
])
def test_degeneracy_closed_forms(spec, nu, top, closed_form):
    alg = make_algebra(spec)
    for level in range(top + 1):
        assert restriction_degeneracy(alg, nu, level, seed=level) == closed_form(alg.dim, level)


@pytest.mark.parametrize("spec,nu,level,closed_form", [
    ("h:3:R", Fr(1, 2), 3, 28), ("gamma:3", Fr(1), 4, 25), ("h:3:C", Fr(1), 2, 36)])
def test_degeneracy_sees_higher_rank_points(spec, nu, level, closed_form):
    # rank-(k+1) points fed in place of rank-k points span more than the level
    alg = make_algebra(spec)
    param = WallachParam.make(alg, nu)
    assert restriction_degeneracy(alg, param, level, seed=4) == closed_form
    wrong = WallachParam(param.value, param.kind, param.k, param.rho_of_nu + 1)
    assert restriction_degeneracy(alg, wrong, level, seed=4) > closed_form


def _monomial_rank(alg, nu, degree, seed):
    """The rank of the degree-I monomial table E at the cone points, mod p:
    the Echelon computation that the Gram matrix replaced, on the same
    points in the same blocks."""
    param = WallachParam.make(alg, nu)
    factors = np.array(list(itertools.combinations_with_replacement(range(alg.dim), degree)))
    rng = np.random.default_rng(seed)
    echelon = Echelon(len(factors))
    while len(echelon.cols) < len(factors):
        x = weyl._cone_points(alg, param.rho_of_nu,
                              min(weyl._BLOCK, len(factors) - len(echelon.cols)), rng)
        block = np.ones((len(x), len(factors)), dtype=np.int64)
        for column in factors.T:
            block = block * x[:, column] % modp._PRIME
        if len(echelon.add(block)) < len(block):
            break
    return len(echelon.cols)


@pytest.mark.parametrize("spec,nu,level,want", [
    ("gamma:3", Fr(1), 2, 9),       # dim P_I = 10 < _BLOCK: one block
    ("h:3:R", Fr(1, 2), 3, 28),     # dim P_I = 56, two blocks
    ("gamma:3", Fr(1), 7, 64),      # the rank is 2 _BLOCK: a block adds 0
    ("h:3:H", Fr(7), 2, 120),       # the rank is dim P_I: no deficient block
    ("h:3:R", Fr(1), 3, 55),        # rank-2 points: dim P_3 - dim P_0
])
def test_gram_rank_matches_monomial_rank(spec, nu, level, want):
    alg = make_algebra(spec)
    for seed in (0, 1, 2):
        assert restriction_degeneracy(alg, nu, level, seed=seed) == want
        assert _monomial_rank(alg, nu, level, seed) == want


def test_matmul_mod_is_exact():
    rng = np.random.default_rng(0)
    p = modp._PRIME
    a = rng.integers(p - 2**20, p, (5, 300))
    b = rng.integers(p - 2**20, p, (300, 7))
    want = [[sum(int(x) * int(y) for x, y in zip(row, col)) % p for col in b.T] for row in a]
    assert modp._matmul_mod(a, modp._limbs(b)).tolist() == want
