"""Property tests for the sparse polynomial core and its normal-ordered subclass."""
from fractions import Fraction as Fr

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jkepler.poly import MismatchError, Poly
from jkepler.scalars import CQ
from jkepler.weyl import WeylOp, apply_op, compose

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
