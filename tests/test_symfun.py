from fractions import Fraction as Fr
from itertools import combinations

import numpy as np
import pytest

from jkepler.poly import Poly
from jkepler.symfun import (c_poly, e_poly, elementary_from_power,
                            symmetric_to_elementary, tau_poly)


def _power_sums(lam, m):
    return [sum(l ** j for l in lam) for j in range(1, m + 1)]


def test_newton_small_cases():
    # e_1 = p_1, e_2 = (p_1^2 - p_2)/2
    lam = [Fr(2), Fr(-3), Fr(5)]
    p = _power_sums(lam, 3)
    e1, e2, e3 = elementary_from_power(p, 3)
    assert e1 == sum(lam)
    assert e2 == sum(a * b for a, b in combinations(lam, 2))
    assert e3 == lam[0] * lam[1] * lam[2]
    assert e2 == (p[0] ** 2 - p[1]) / 2


def test_newton_matches_brute_force_random():
    rng = np.random.default_rng(0)
    for _ in range(25):
        k = int(rng.integers(1, 7))
        lam = [Fr(int(a), int(b)) for a, b in zip(rng.integers(-9, 10, k), rng.integers(1, 5, k))]
        es = elementary_from_power(_power_sums(lam, k), k)
        for j in range(1, k + 1):
            brute = sum((np.prod([lam[i] for i in s]) for s in combinations(range(k), j)),
                        Fr(0))
            assert es[j - 1] == brute


def test_e_poly_evaluates_like_newton():
    lam = [Fr(1), Fr(4), Fr(-2), Fr(3)]
    p = _power_sums(lam, 4)
    for j in range(1, 5):
        assert e_poly(j, 4).value(p) == elementary_from_power(p, j)[-1]


def test_tau_poly_vs_direct_product():
    rng = np.random.default_rng(3)
    for k in range(1, 6):
        tp = tau_poly(k)
        for _ in range(15):
            lam = [Fr(int(a), int(b)) for a, b in
                   zip(rng.integers(-6, 7, k), rng.integers(1, 4, k))]
            direct = Fr(1)
            for i, j in combinations(range(k), 2):
                direct *= lam[i] + lam[j]
            assert tp.value(_power_sums(lam, k)) == direct


def test_tau_known_closed_forms():
    # tau_1 = 1, tau_2 = p_1, tau_3 = e_1 e_2 - e_3
    assert tau_poly(1).terms == {(0,): Fr(1)}
    assert tau_poly(2).terms == {(1, 0): Fr(1)}
    lam = [Fr(2), Fr(3), Fr(7)]
    p = _power_sums(lam, 3)
    e = elementary_from_power(p, 3)
    assert tau_poly(3).value(p) == e[0] * e[1] - e[2]


def test_c_poly_is_full_product():
    lam = [Fr(2), Fr(-1), Fr(3)]
    assert c_poly(3).value(_power_sums(lam, 3)) == -6


def test_partial_derivative():
    # d/dp_1 of (p_1^2 p_2) = 2 p_1 p_2; variables are 0-based
    f = Poly(2, {(2, 1): Fr(1)})
    assert f.partial(0).terms == {(1, 1): Fr(2)}
    assert f.partial(1).terms == {(2, 0): Fr(1)}


def test_float_evaluation():
    p = [2.0, 6.0]
    assert abs(e_poly(2, 2).value(p) - (-1.0)) < 1e-12


def test_symmetric_to_elementary_rejects_nonsymmetric():
    with pytest.raises(ValueError):
        symmetric_to_elementary(Poly(2, {(0, 1): Fr(1)}))
