"""Property tests for the sparse polynomial core and its normal-ordered subclass."""
import itertools
import math
from fractions import Fraction as Fr
from operator import add

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jkepler.phase import poisson_poly
from jkepler.poly import MismatchError, Poly
from jkepler.scalars import CQ
from jkepler.symfun import c_poly, tau_poly
from jkepler.weyl import WeylOp, _ff, apply_op, compose

N = 3
exact_settings = settings(derandomize=True, deadline=None, max_examples=60)

fractions = st.builds(Fr, st.integers(-6, 6), st.integers(1, 4))
scalars = st.one_of(st.integers(-6, 6), fractions)
exponents = st.tuples(*[st.integers(0, 2)] * N)


def polys(nvars=N, coeffs=scalars):
    keys = st.tuples(*[st.integers(0, 2)] * nvars)
    return st.dictionaries(keys, coeffs, max_size=4).map(lambda t: Poly(nvars, t))


@exact_settings
@given(polys(), polys(), polys())
def test_product_is_associative_commutative_and_distributive(f, g, h):
    assert (f * g) * h == f * (g * h)
    assert f * g == g * f
    assert f * (g + h) == f * g + f * h


@exact_settings
@given(polys(), polys(), st.integers(0, N - 1))
def test_partial_is_a_derivation(f, g, i):
    assert (f * g).partial(i) == f.partial(i) * g + f * g.partial(i)


@exact_settings
@given(st.dictionaries(exponents, scalars, max_size=4),
       st.dictionaries(exponents, scalars, max_size=4))
def test_compose_of_multiplication_operators_is_the_product(a, b):
    # x-only words x^A d^0 commute, so composing them multiplies them
    z = (0,) * N
    op_a = WeylOp(2 * N, {k + z: c for k, c in a.items()})
    op_b = WeylOp(2 * N, {k + z: c for k, c in b.items()})
    product = Poly(2 * N, op_a.terms) * Poly(2 * N, op_b.terms)
    assert compose(op_a, op_b).terms == product.terms
    assert apply_op(op_a, Poly(N, b)) == Poly(N, a) * Poly(N, b)


@pytest.mark.parametrize("bad", [0.5, 0.1, 1j, 0.0, CQ(0, 1), CQ(Fr(1, 2))],
                         ids=["0.5", "0.1", "1j", "0.0", "CQ(0,1)", "CQ(1/2)"])
def test_inexact_coefficient_raises(bad):
    # coefficients are int or Fraction: a float once stayed as a numerator, and a
    # complex CQ, even one with a zero imaginary part, is no longer a coefficient
    with pytest.raises(MismatchError):
        Poly(2, {(1, 0): bad})
    with pytest.raises(MismatchError):
        Poly(2, {(1, 0): 1}).scaled(bad)
    with pytest.raises(MismatchError):
        Poly(2, {(1, 0): 1}) * bad
    with pytest.raises(MismatchError):
        bad * Poly(2, {(1, 0): 1})
    with pytest.raises(MismatchError):
        WeylOp(4, {(1, 0, 0, 0): 1, (0, 1, 0, 0): bad})


@exact_settings
@given(polys(), polys(nvars=N + 1))
def test_nvars_mismatch_raises(f, g):
    for op in (lambda: f + g, lambda: f - g, lambda: f * g,
               lambda: f.value([Fr(1)] * (N + 1))):
        with pytest.raises(MismatchError):
            op()
    with pytest.raises(MismatchError):
        compose(WeylOp(2 * N), WeylOp(2 * N + 2))
    with pytest.raises(MismatchError):
        apply_op(WeylOp(2 * N), g)


# --- the integer-numerator kernel against plain Fraction loops -----------------
#
# The references below are the coefficient loops the kernel replaced: one
# scalar multiply and one scalar add per word, over every slot, with no
# common denominator.

def summed(cls, nvars, pairs):
    """cls(nvars, terms) with the coefficients of repeated exponents added."""
    out = {}
    for k, c in pairs:
        out[k] = out[k] + c if k in out else c
    return cls(nvars, out)


def ref_product(f, g):
    return summed(Poly, f.nvars, ((tuple(map(add, e1, e2)), c1 * c2)
                                  for e1, c1 in f.terms.items()
                                  for e2, c2 in g.terms.items()))


def ref_compose(a, b):
    n = a.nvars // 2

    def words():
        for k, ca in a.terms.items():
            A, B = k[:n], k[n:]
            for kb, cb in b.terms.items():
                C, D = kb[:n], kb[n:]
                for s in itertools.product(*[range(min(bi, ci) + 1) for bi, ci in zip(B, C)]):
                    coef = ca * cb
                    for bi, ci, si in zip(B, C, s):
                        if si:
                            coef = coef * (math.comb(bi, si) * _ff(ci, si))
                    yield (tuple(ai + ci - si for ai, ci, si in zip(A, C, s))
                           + tuple(bi + di - si for bi, di, si in zip(B, D, s))), coef

    return summed(WeylOp, a.nvars, words())


def ref_apply(op, p):
    n = p.nvars

    def terms():
        for k, c in op.terms.items():
            A, B = k[:n], k[n:]
            for C, pc in p.terms.items():
                if any(ci < bi for ci, bi in zip(C, B)):
                    continue
                coef = c * pc
                for ci, bi in zip(C, B):
                    if bi:
                        coef = coef * _ff(ci, bi)
                yield tuple(ai + ci - bi for ai, ci, bi in zip(A, C, B)), coef

    return summed(Poly, n, terms())


def ref_poisson(f, g):
    n = f.nvars // 2
    out = Poly(f.nvars)
    for a in range(n):
        out = out + ref_product(f.partial(a), g.partial(n + a)) \
            - ref_product(f.partial(n + a), g.partial(a))
    return out


# denominators over different primes, so a common denominator is a true lcm
prime_fractions = st.builds(Fr, st.integers(-9, 9), st.sampled_from([1, 2, 3, 4, 5, 7, 9, 25]))
COEFFS = {
    "int": st.integers(-9, 9),
    "Fraction": prime_fractions,
    "mixed": st.one_of(st.integers(-9, 9), prime_fractions),
}


# --- the stored form (numerators over one denominator) against a Fraction dict ---

ref_dicts = st.dictionaries(exponents, st.one_of(st.integers(-6, 6), prime_fractions), max_size=5)


def _ref(d):
    return {k: Fr(c) for k, c in d.items() if c}


def _assert_reduced(f):
    # the stored denominator is the lcm of the coefficient denominators
    assert f.den == math.lcm(*[c.denominator for c in f.terms.values()])
    assert math.gcd(f.den, *f.nums.values()) == 1
    assert all(type(v) is int and v for v in f.nums.values())


@exact_settings
@given(ref_dicts, st.integers(0, N - 1))
def test_stored_form_reads_back_as_the_fraction_dict(d, i):
    f, ref = Poly(N, d), _ref(d)
    _assert_reduced(f)
    assert f.terms == ref and list(f.terms) == list(ref)
    assert all(type(c) is Fr for c in f.terms.values())
    assert f.partial(i).terms == {k[:i] + (k[i] - 1,) + k[i + 1:]: c * k[i]
                                  for k, c in ref.items() if k[i]}
    pt = [Fr(2, 3), Fr(-5, 7), Fr(3)]
    assert f.value(pt) == sum((c * math.prod(v ** e for v, e in zip(pt, k))
                               for k, c in ref.items()), Fr(0))
    assert f.is_zero() == (not ref)


@exact_settings
@given(ref_dicts, ref_dicts, st.one_of(st.integers(-3, 3), prime_fractions))
def test_equality_and_arithmetic_agree_with_the_fraction_dict(d1, d2, c):
    f, g = Poly(N, d1), Poly(N, d2)
    r1, r2 = _ref(d1), _ref(d2)
    assert (f == g) == (r1 == r2)
    assert f == Poly(N, f.terms) and (f - f).is_zero()
    keys = list(r1) + [k for k in r2 if k not in r1]
    for got, want in ((f + g, {k: r1.get(k, 0) + r2.get(k, 0) for k in keys}),
                      (f - g, {k: r1.get(k, 0) - r2.get(k, 0) for k in keys}),
                      (-f, {k: -v for k, v in r1.items()}),
                      (f.scaled(c), {k: c * v for k, v in r1.items()}),
                      (f * g, ref_product(f, g).terms)):
        _assert_reduced(got)
        assert got.terms == _ref(want) and list(got.terms) == list(_ref(want))


def test_same_polynomial_through_different_denominators():
    direct = Poly(2, {(2, 0): Fr(2, 4), (0, 2): Fr(-1, 2)})  # (x^2 - y^2) / 2
    # (x + y)/4 times 2(x - y): the cross terms cancel, and the den 4 reduces to 2
    via_product = Poly(2, {(1, 0): Fr(1, 4), (0, 1): Fr(1, 4)}) * Poly(2, {(1, 0): 2, (0, 1): -2})
    # over 12 before reduction: (7x^2/12 + xy/3) - (x^2/12 + xy/3 + y^2/2)
    via_sum = (Poly(2, {(2, 0): Fr(7, 12), (1, 1): Fr(1, 3)})
               - Poly(2, {(2, 0): Fr(1, 12), (1, 1): Fr(1, 3), (0, 2): Fr(1, 2)}))
    via_scale = Poly(2, {(2, 0): 3, (0, 2): -3}).scaled(Fr(1, 6))
    for f in (via_product, via_sum, via_scale):
        assert f == direct and direct == f
        assert f.terms == direct.terms == {(2, 0): Fr(1, 2), (0, 2): Fr(-1, 2)}
        assert f.den == direct.den == 2 and f.nums == direct.nums
    assert via_product != direct.scaled(2) and via_product != Poly(2, {(2, 0): Fr(1, 2)})


def ref_float_value(f, vals):
    # float(Fraction) coefficients, powers in variable order, terms summed in order
    acc = 0.0
    for e, c in f.terms.items():
        t = float(c)
        for v, ei in zip(vals, e):
            if ei:
                t = t * v ** ei
        acc = acc + t
    return acc


@exact_settings
@given(st.dictionaries(exponents, st.builds(Fr, st.integers(-10 ** 20, 10 ** 20),
                                            st.integers(1, 10 ** 20)), max_size=5))
def test_float_value_rounds_each_coefficient_once(d):
    f = Poly(N, d)
    for vals in ([0.3, -1.7, 2.5], [1e-3, 7.0, -1 / 3]):
        assert f.value(vals).hex() == ref_float_value(f, vals).hex()


@pytest.mark.parametrize("k", [1, 2, 3])
def test_tau_and_c_float_values_are_bit_identical_to_fraction_sums(k):
    # the float path of cone's phi_k and grad ln phi_k
    for vals in ([1.7, -0.3, 2.9], [0.1, 1e3, 1 / 3], [-2.5, 0.7, 5e-4]):
        vals = vals[:k]
        for poly in (tau_poly(k), c_poly(k)):
            for f in [poly] + [poly.partial(j) for j in range(k)]:
                assert f.value(vals).hex() == ref_float_value(f, vals).hex()


def _check(got, want):
    assert type(got) is type(want)
    assert got.terms == want.terms
    assert all(type(c) is Fr for c in got.terms.values())


def test_packed_exponents_are_exact_up_to_the_field_limit():
    top = 2 ** 15 - 1
    f = Poly(2, {(top, 1): Fr(1, 2), (0, top): 3})
    assert (f * f).terms == ref_product(f, f).terms
    assert (f * f).terms[(2 * top, 2)] == Fr(1, 4)
    too_big = Poly(2, {(top + 1, 0): 1})
    for op in (lambda: too_big * f, lambda: f * too_big,
               lambda: compose(WeylOp(2, too_big.terms), WeylOp(2, f.terms)),
               lambda: poisson_poly(too_big, f)):
        with pytest.raises(OverflowError):
            op()


def _ops(kind, n=2):
    # exponents 0..2 in both blocks: D-x overlaps of 1 and 2 in a slot
    keys = st.tuples(*[st.integers(0, 2)] * (2 * n))
    return st.dictionaries(keys, COEFFS[kind], max_size=5)


@pytest.mark.parametrize("kind", list(COEFFS))
@exact_settings
@given(data=st.data())
def test_product_matches_fraction_loop(kind, data):
    f, g = (Poly(2 * N, data.draw(_ops(kind, N))) for _ in range(2))
    _check(f * g, ref_product(f, g))


@pytest.mark.parametrize("kind", list(COEFFS))
@exact_settings
@given(data=st.data())
def test_compose_matches_fraction_loop(kind, data):
    a, b = (WeylOp(4, data.draw(_ops(kind))) for _ in range(2))
    _check(compose(a, b), ref_compose(a, b))
    _check(b * a, ref_compose(b, a))


@pytest.mark.parametrize("kind", list(COEFFS))
@exact_settings
@given(data=st.data())
def test_apply_op_matches_fraction_loop(kind, data):
    op = WeylOp(4, data.draw(_ops(kind)))
    state = Poly(2, data.draw(st.dictionaries(st.tuples(*[st.integers(0, 3)] * 2),
                                              COEFFS[kind], max_size=5)))
    _check(apply_op(op, state), ref_apply(op, state))


@pytest.mark.parametrize("kind", list(COEFFS))
@exact_settings
@given(data=st.data())
def test_poisson_poly_matches_partial_loop(kind, data):
    f, g = (Poly(4, data.draw(_ops(kind))) for _ in range(2))
    _check(poisson_poly(f, g), ref_poisson(f, g))
