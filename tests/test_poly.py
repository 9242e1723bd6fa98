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
from jkepler.weyl import WeylOp, _ff, apply_op, compose

N = 3
exact_settings = settings(derandomize=True, deadline=None, max_examples=60)

fractions = st.builds(Fr, st.integers(-6, 6), st.integers(1, 4))
scalars = st.one_of(st.integers(-6, 6), fractions,
                    st.builds(CQ, fractions, fractions))
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


@exact_settings
@given(polys(coeffs=fractions))
def test_mixed_fraction_and_cq_sums_cancel(f):
    as_cq = Poly(N, {k: CQ(c) for k, c in f.terms.items()})
    assert (f - as_cq).is_zero()
    assert (as_cq + (-f)).is_zero()
    assert (f.scaled(CQ(0, 1)) + as_cq.scaled(CQ(0, -1))).is_zero()


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

def ref_product(f, g):
    return Poly.from_pairs(f.nvars, ((tuple(map(add, e1, e2)), c1 * c2)
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

    return WeylOp.from_pairs(a.nvars, words())


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

    return Poly.from_pairs(n, terms())


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
    "CQ": st.builds(CQ, prime_fractions, prime_fractions),
    "mixed": st.one_of(st.integers(-9, 9), prime_fractions,
                       st.builds(CQ, prime_fractions, prime_fractions)),
}
OUT_TYPE = {"Fraction": Fr, "CQ": CQ}  # pure inputs keep their scalar type


def _check(kind, got, want):
    assert type(got) is type(want)
    assert got.terms == want.terms
    if kind in OUT_TYPE:
        assert all(type(c) is OUT_TYPE[kind] for c in got.terms.values())


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
    _check(kind, f * g, ref_product(f, g))


@pytest.mark.parametrize("kind", list(COEFFS))
@exact_settings
@given(data=st.data())
def test_compose_matches_fraction_loop(kind, data):
    a, b = (WeylOp(4, data.draw(_ops(kind))) for _ in range(2))
    _check(kind, compose(a, b), ref_compose(a, b))
    _check(kind, b * a, ref_compose(b, a))


@pytest.mark.parametrize("kind", list(COEFFS))
@exact_settings
@given(data=st.data())
def test_apply_op_matches_fraction_loop(kind, data):
    op = WeylOp(4, data.draw(_ops(kind)))
    state = Poly(2, data.draw(st.dictionaries(st.tuples(*[st.integers(0, 3)] * 2),
                                              COEFFS[kind], max_size=5)))
    _check(kind, apply_op(op, state), ref_apply(op, state))


@pytest.mark.parametrize("kind", list(COEFFS))
@exact_settings
@given(data=st.data())
def test_poisson_poly_matches_partial_loop(kind, data):
    f, g = (Poly(4, data.draw(_ops(kind))) for _ in range(2))
    _check(kind, poisson_poly(f, g), ref_poisson(f, g))
