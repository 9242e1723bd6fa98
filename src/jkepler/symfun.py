"""Symmetric-function utilities: Newton's identities and power-sum polynomials.

The spectral invariants used elsewhere (elementary symmetric functions c_k of
the Jordan eigenvalues, the pair-sum products tau_k) are represented as exact
polynomials in the power sums p_1, ..., p_k, so they can be evaluated -- and
differentiated -- through power traces alone.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations

from .poly import Poly, monomial_key


def elementary_from_power(pvals, m: int) -> list:
    """First m elementary symmetric functions from power sums p_1..p_m.

    Newton's identities: j*e_j = sum_{i=1}^{j} (-1)^(i-1) e_{j-i} p_i.
    Works for exact (Fraction) and float inputs alike.
    """
    if len(pvals) < m:
        raise ValueError(f"need {m} power sums, got {len(pvals)}")
    exact = bool(pvals) and isinstance(pvals[0], (int, Fraction))
    e = [Fraction(1) if exact else 1.0]
    for j in range(1, m + 1):
        acc = Fraction(0) if exact else 0.0
        for i in range(1, j + 1):
            term = e[j - i] * pvals[i - 1]
            acc = acc + term if i % 2 == 1 else acc - term
        e.append(acc / j)
    return e[1:]


@lru_cache(maxsize=None)
def e_poly(j: int, k: int) -> Poly:
    """Elementary symmetric e_j as a Poly in p_1..p_k (Newton recursion)."""
    if j == 0:
        return Poly.constant(k, Fraction(1))
    if j > k:
        raise ValueError("e_poly needs j <= k")
    acc = Poly(k)
    for i in range(1, j + 1):
        term = e_poly(j - i, k) * Poly.var(k, i - 1)
        acc = acc + term if i % 2 == 1 else acc - term
    return acc * Fraction(1, j)


# --- symmetric reduction in lambda-variables ---------------------------------

def _lam_elementary(j: int, k: int) -> Poly:
    return Poly(k, {monomial_key(k, *subset): Fraction(1)
                    for subset in combinations(range(k), j)})


def symmetric_to_elementary(poly: Poly) -> Poly:
    """Express a symmetric polynomial in lambda_1..lambda_k via e_1..e_k.

    The result maps elementary exponent tuples (a_1..a_k) to coefficients,
    meaning prod e_j^{a_j}.  Gauss reduction on the lex-leading monomial.
    """
    k = poly.nvars
    work = poly
    result = {}
    elem = [None] + [_lam_elementary(j, k) for j in range(1, k + 1)]
    while not work.is_zero():
        lead, c = max(work.terms.items())
        mu = list(lead)
        if any(mu[i] < mu[i + 1] for i in range(k - 1)):
            raise ValueError("input polynomial is not symmetric")
        mu.append(0)
        epows = tuple(mu[i] - mu[i + 1] for i in range(k))
        prod = Poly.constant(k, Fraction(1))
        for j, a in enumerate(epows, start=1):
            for _ in range(a):
                prod = prod * elem[j]
        work = work - prod.scaled(c)
        result[epows] = c
    return Poly(k, result)


@lru_cache(maxsize=None)
def tau_poly(k: int) -> Poly:
    """prod_{1<=i<j<=k} (lambda_i + lambda_j) as a Poly in p_1..p_k."""
    if k == 1:
        return Poly.constant(1, Fraction(1))
    prod = Poly.constant(k, Fraction(1))
    for i, j in combinations(range(k), 2):
        prod = prod * (Poly.var(k, i) + Poly.var(k, j))
    acc = Poly(k)
    for epows, c in symmetric_to_elementary(prod).terms.items():
        term = Poly.constant(k, c)
        for j, a in enumerate(epows, start=1):
            for _ in range(a):
                term = term * e_poly(j, k)
        acc = acc + term
    return acc


@lru_cache(maxsize=None)
def c_poly(k: int) -> Poly:
    """lambda_1 * ... * lambda_k as a Poly in p_1..p_k."""
    return e_poly(k, k)
