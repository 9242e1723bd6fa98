"""The Kepler data on T*V: the oracle for the co(V)* builders of jkepler.phase.

Observables are phase Polys (x block, then p block) over powers of
r = <e|x>: a pair (N, m) is N / r^m, kept as built.  Brackets go through the
canonical bracket phase.poisson_poly, and `pullback` carries a polynomial on
co(V)* to T*V through the moment functions, so the co(V)* computations can
be held to these definitions.
"""
from fractions import Fraction

from jkepler.conformal import _str_span_exact
from jkepler.phase import moment_s, moment_x, moment_y, poisson_poly
from jkepler.poly import Poly, field, unpack

# {A_u, A_v} is quadratic in A, so the sign of the Lenz observable is free;
# with this one A_u pulls back from ((Y_u X_e - X_u Y_e)/2 - Y_u) / Y_e.
LENZ_SIGN = -1


def r_poly(alg) -> Poly:
    """r = <e|x> as a phase Poly."""
    return moment_y(alg, alg.identity()).poly()


def hamiltonian(alg) -> tuple:
    """H = (1/2) <x|pi^2> / r - 1/r."""
    num = Fraction(1, 2) * moment_x(alg, alg.identity()).poly() - Poly.constant(2 * alg.dim, 1)
    return num, 1


def angular(alg, u, v) -> Poly:
    """<[L_v, L_u] x | pi> = (S_vu - S_uv)/2, as S_uv = L_uv + [L_u, L_v]."""
    return Fraction(1, 2) * (moment_s(alg, v, u) - moment_s(alg, u, v)).poly()


def lenz(alg, u) -> tuple:
    """A_u = LENZ_SIGN (1/r) {L_u, r^2 H} with L_u = S_ue."""
    l_u = moment_s(alg, u, alg.identity()).poly()
    return LENZ_SIGN * poisson_poly(l_u, r_poly(alg) * hamiltonian(alg)[0]), 1


def poisson(alg, f: tuple, g: tuple) -> tuple:
    """{N1 / r^a, N2 / r^b} = (r {N1, N2} - a N1 {r, N2} + b N2 {r, N1}) / r^(a+b+1)."""
    (n1, a), (n2, b) = f, g
    r = r_poly(alg)
    num = r * poisson_poly(n1, n2)
    if a:
        num = num - a * (n1 * poisson_poly(r, n2))
    if b:
        num = num + b * (n2 * poisson_poly(r, n1))
    return num, a + b + 1


def over(alg, f: tuple, m: int) -> Poly:
    """N r^(m - a), the numerator of f = (N, a) over r^m."""
    num, a = f
    for _ in range(m - a):
        num = num * r_poly(alg)
    return num


def momentum_observable(alg, matrix) -> Poly:
    """<M x | pi> = sum_ab M[a, b] x^b p_a for an endomorphism M given as (nums, den)."""
    nums, den = matrix
    n = alg.dim
    return Poly._make(2 * n, {field(b) + field(n + a): int(nums[a, b])
                              for a in range(n) for b in range(n)}, den)


def pullback(alg, f: Poly) -> Poly:
    """f o mu for a Poly f in the coordinates (X_a, B_k, Y_a) of co(V)*: X_a,
    B_k and Y_a become moment_x(e_a), <B_k x | pi> and moment_y(e_a)."""
    n, span = alg.dim, _str_span_exact(alg)
    basis = [alg.basis_element(a) for a in range(n)]
    coords = ([moment_x(alg, e).poly() for e in basis]
              + [momentum_observable(alg, (b.reshape(n, n), 1)) for b in span.basis]
              + [moment_y(alg, e).poly() for e in basis])
    out = Poly(2 * n)
    for key, c in f.nums.items():
        term = Poly.constant(2 * n, Fraction(c, f.den))
        for z, e in zip(coords, unpack(key, f.nvars)):
            for _ in range(e):
                term = term * z
        out = out + term
    return out
