"""Exact symbolic symplectic calculus on T*V.

Observables are sparse polynomials (poly.Poly in 2n variables: the position
coordinates x^a, then the conjugate momenta p_a) with Fraction coefficients,
extended by denominators that are powers of r = <e|x>.  The canonical
bracket is {x^a, p_b} = delta_ab; the momentum covector p is identified with
the tangent vector pi through the inner product, so every inner-product
contraction below carries the Gram matrix explicitly (trivial for spin
factors, diagonal rational otherwise).

The moment functions

    S_uv = <S_uv(x)|pi>,   X_u = <x|{pi u pi}>,   Y_v = <x|v>

realize the TKK bracket relations under the Poisson bracket, and the
classical Kepler data (universal hamiltonian, angular observables, Lenz
observables) is built from them.
"""
from __future__ import annotations

from fractions import Fraction

import numpy as np

from .algebra import Algebra, Element
from .poly import Poly, monomial_key, same_nvars

def poisson_poly(f: Poly, g: Poly) -> Poly:
    """Canonical bracket sum_a (df/dx^a dg/dp_a - df/dp_a dg/dx^a)."""
    same_nvars(f, g)
    n = f.nvars // 2
    out = Poly(f.nvars)
    for a in range(n):
        fx, fp = f.partial(a), f.partial(n + a)
        if not (fx.is_zero() and fp.is_zero()):
            out = out + fx * g.partial(n + a) - fp * g.partial(a)
    return out


def _divmod_linear(poly: Poly, lin: list, pivot: int):
    """Divide by the linear form sum_a lin[a] x^a; returns (quotient, remainder).

    Processes terms bucketed by descending pivot exponent: eliminating a term
    of pivot degree d only creates terms of degree d-1, so one sweep suffices.
    """
    cpiv = lin[pivot]
    others = [(a, la) for a, la in enumerate(lin) if la and a != pivot]
    buckets: dict[int, list] = {}
    for k, c in poly.terms.items():
        buckets.setdefault(k[pivot], []).append((k, c))
    quot = []
    while True:
        live = [d for d in buckets if d > 0 and buckets[d]]
        if not live:
            break
        d = max(live)
        level = Poly.from_pairs(poly.nvars, buckets.pop(d))
        lower = buckets.setdefault(d - 1, [])
        for k, c in level.terms.items():
            qk = k[:pivot] + (d - 1,) + k[pivot + 1:]
            qc = c / cpiv
            quot.append((qk, qc))
            for a, la in others:
                lower.append((qk[:a] + (qk[a] + 1,) + qk[a + 1:], -qc * la))
    return (Poly.from_pairs(poly.nvars, quot),
            Poly.from_pairs(poly.nvars, buckets.get(0, [])))


class PhaseRational:
    """Quotient N / r^m with N a phase Poly and r = <e|x>; kept reduced."""

    __slots__ = ("algebra", "num", "rpow")

    def __init__(self, algebra: Algebra, num: Poly, rpow: int = 0):
        self.algebra = algebra
        if num.is_zero():
            rpow = 0
        else:
            lin = _r_coeffs(algebra)
            pivot = next(a for a, c in enumerate(lin) if c)
            while rpow > 0:
                q, s = _divmod_linear(num, lin, pivot)
                if not s.is_zero():
                    break
                num = q
                rpow -= 1
        self.num = num
        self.rpow = rpow

    def __add__(self, other):
        other = _as_rational(self.algebra, other)
        m = max(self.rpow, other.rpow)
        r = r_poly(self.algebra)
        n1 = self.num
        for _ in range(m - self.rpow):
            n1 = n1 * r
        n2 = other.num
        for _ in range(m - other.rpow):
            n2 = n2 * r
        return PhaseRational(self.algebra, n1 + n2, m)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-_as_rational(self.algebra, other))

    def __neg__(self):
        return PhaseRational(self.algebra, -self.num, self.rpow)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return PhaseRational(self.algebra, self.num * other, self.rpow)
        other = _as_rational(self.algebra, other)
        return PhaseRational(self.algebra, self.num * other.num, self.rpow + other.rpow)

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __eq__(self, other):
        if isinstance(other, (PhaseRational, Poly, int, Fraction)):
            return (self - other).is_zero()
        return NotImplemented

    def __repr__(self):
        return f"PhaseRational({self.algebra.spec}, {len(self.num.terms)} terms / r^{self.rpow})"


def _as_rational(alg: Algebra, f) -> PhaseRational:
    if isinstance(f, PhaseRational):
        return f
    if isinstance(f, (int, Fraction)):
        f = Poly.constant(2 * alg.dim, f)
    return PhaseRational(alg, f, 0)


def _r_coeffs(alg: Algebra) -> list:
    key = "phase_r_coeffs"
    if key not in alg._cache:
        e = alg.identity()
        alg._cache[key] = [g * c for g, c in zip(alg.gram, e.coords)]
    return alg._cache[key]


def r_poly(alg: Algebra) -> Poly:
    """r = <e|x> as a phase Poly."""
    nvars = 2 * alg.dim
    return Poly(nvars, {monomial_key(nvars, a): c for a, c in enumerate(_r_coeffs(alg))})


def poisson(f, g) -> PhaseRational:
    """Poisson bracket of phase observables (polynomials or r-power quotients).

    For f = N1/r^a, g = N2/r^b:
    {f, g} = (r {N1,N2} - a N1 {r,N2} + b N2 {r,N1}) / r^{a+b+1}.
    """
    if isinstance(f, Poly) and isinstance(g, Poly):
        raise TypeError("use poisson_poly for two plain polynomials")
    alg = f.algebra if isinstance(f, PhaseRational) else g.algebra
    f = _as_rational(alg, f)
    g = _as_rational(alg, g)
    r = r_poly(alg)
    num = r * poisson_poly(f.num, g.num)
    if f.rpow:
        num = num - f.rpow * (f.num * poisson_poly(r, g.num))
    if g.rpow:
        num = num + g.rpow * (g.num * poisson_poly(r, f.num))
    return PhaseRational(alg, num, f.rpow + g.rpow + 1)


# --- moment functions ---------------------------------------------------------

def momentum_observable(alg: Algebra, matrix) -> Poly:
    """<M x | pi> = sum_a (Mx)^a p_a for an endomorphism M (exact matrix)."""
    n = alg.dim
    return Poly(2 * n, {monomial_key(2 * n, b, n + a): Fraction(matrix[a, b])
                        for a in range(n) for b in range(n) if matrix[a, b]})


def moment_s(alg: Algebra, u: Element, v: Element) -> Poly:
    """S_uv = <S_uv(x)|pi>."""
    return momentum_observable(alg, alg.smul_matrix(u, v))


def moment_x(alg: Algebra, u: Element) -> Poly:
    """X_u = <x|{pi u pi}>."""
    n = alg.dim
    t = alg.dual_triple_tensor(u)
    return Poly.from_pairs(2 * n, (
        (monomial_key(2 * n, g, n + a, n + b), t[a, b, g])
        for a in range(n) for b in range(n) for g in range(n) if t[a, b, g]))


def moment_y(alg: Algebra, v: Element) -> Poly:
    """Y_v = <x|v>."""
    n = alg.dim
    return Poly(2 * n, {monomial_key(2 * n, a): alg.gram[a] * v.coords[a] for a in range(n)})


def moments(alg: Algebra, u: Element, v: Element):
    """(S_uv, X_u, Y_v) as exact phase polynomials."""
    return moment_s(alg, u, v), moment_x(alg, u), moment_y(alg, v)


# --- TKK relation verification -------------------------------------------------

_RELATIONS = ("XX", "YY", "XY", "SX", "SY", "SS")


def relation_residual(alg: Algebra, name: str, bracket, s, x, y, u, v, z, w):
    """Residual of one TKK relation family for a bracket and the builders
    s(u, v), x(u), y(v) of the generators; zero iff the relation holds.  It
    serves the Poisson bracket here and the commutator in weyl."""
    if name == "XX":
        return bracket(x(u), x(v))
    if name == "YY":
        return bracket(y(u), y(v))
    if name == "XY":
        return bracket(x(u), y(v)) + 2 * s(u, v)
    if name == "SX":
        return bracket(s(u, v), x(z)) - x(alg.triple(u, v, z))
    if name == "SY":
        return bracket(s(u, v), y(z)) + y(alg.triple(v, u, z))
    if name == "SS":
        return bracket(s(u, v), s(z, w)) - s(alg.triple(u, v, z), w) + s(z, alg.triple(v, u, w))
    raise ValueError(f"unknown relation family {name!r}")


def check_relations(alg: Algebra, prefix: str, residual, trials: int, seed: int,
                    **head) -> list:
    """Check the six relation families on `trials` random rational 4-tuples;
    residual(name, u, v, z, w) must vanish.  One check dict per family; the
    witness of a failure is the relation, the `head` entries, then the tuple."""
    rng = np.random.default_rng(seed)
    tuples = [tuple(alg.random_element(rng, span=4) for _ in range(4)) for _ in range(trials)]
    checks = []
    for name in _RELATIONS:
        witness = None
        for t in tuples:
            if not residual(name, *t).is_zero():
                witness = {"relation": name, **head,
                           **{k: [str(c) for c in e.coords] for k, e in zip("uvzw", t)}}
                break
        checks.append({"name": f"{prefix}:{name}", "status": "pass" if witness is None else "fail",
                       "metric": "exact", "witness": witness})
    return checks


def poisson_relation_residual(alg: Algebra, name: str, u, v, z, w,
                              mutated_moment: bool = False) -> Poly:
    """Residual polynomial of one bracket-relation family; zero iff it holds.

    mutated_moment flips the sign of S_uv inside the XY relation; it is a
    harness self-check hook and must make the residual nonzero.
    """
    def s(a, b):
        m = moment_s(alg, a, b)
        return -m if mutated_moment and name == "XY" else m

    return relation_residual(alg, name, poisson_poly, s, lambda a: moment_x(alg, a),
                             lambda b: moment_y(alg, b), u, v, z, w)


def verify_poisson_tkk(alg: Algebra, trials: int = 50, seed: int = 0,
                       mutated_moment: bool = False) -> list:
    """Check all six Poisson bracket relation families on random rational
    4-tuples.  Returns one check dict per family with a witness on failure."""
    return check_relations(alg, "poisson", lambda name, *t: poisson_relation_residual(
        alg, name, *t, mutated_moment=mutated_moment), trials, seed)


# --- classical Kepler data ------------------------------------------------------
#
# Sign conventions.  With the canonical bracket {x^a, p_b} = +delta and the
# moment functions above, the bracket {A_u, A_v} of the Lenz observables is
# independent of any overall sign put on A (it is quadratic in A).  The free
# sign of the system therefore lives in the orientation of the rotation
# sector: classical_angular uses [L_v, L_u], which is the unique orientation
# for which the closed system
#
#     {H, L_{u,v}} = 0,  {H, A_u} = 0,  {A_u, A_v} = -2 H L_{u,v},
#     {L_{u,v}, A_z} = A_{[L_v, L_u] z}
#
# holds identically.  LENZ_SIGN matches the i-bookkeeping of the operator
# Lenz definition; all four identities hold for either value.

LENZ_SIGN = -1


def classical_hamiltonian(alg: Algebra) -> PhaseRational:
    """H = (1/2) <x|pi^2> / r - 1/r."""
    num = Fraction(1, 2) * moment_x(alg, alg.identity()) - Poly.constant(2 * alg.dim, 1)
    return PhaseRational(alg, num, 1)


def classical_angular(alg: Algebra, u: Element, v: Element) -> Poly:
    """Angular observable of the pair (u, v): <[L_v, L_u] x | pi>."""
    lu, lv = alg.lmul_matrix(u), alg.lmul_matrix(v)
    return momentum_observable(alg, lv @ lu - lu @ lv)


def classical_lenz(alg: Algebra, u: Element) -> PhaseRational:
    """Lenz observable A_u = sign * (1/r) {L_u, r^2 H} with L_u = S_ue."""
    l_u = moment_s(alg, u, alg.identity())
    r = r_poly(alg)
    r2h = r * (Fraction(1, 2) * moment_x(alg, alg.identity()) - Poly.constant(2 * alg.dim, 1))
    return PhaseRational(alg, LENZ_SIGN * poisson_poly(l_u, r2h), 1)
