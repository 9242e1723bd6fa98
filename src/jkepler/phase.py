"""Exact symbolic symplectic calculus on T*V.

Observables are sparse polynomials (poly.Poly in 2n variables: the position
coordinates x^a, then the conjugate momenta p_a) with rational coefficients,
extended by denominators that are powers of r = <e|x>.  The canonical
bracket is {x^a, p_b} = delta_ab; the momentum covector p is identified with
the tangent vector pi through the inner product, so every inner-product
contraction below carries the Gram matrix explicitly (trivial for spin
factors, diagonal rational otherwise).  The bracket of two polynomials is
one loop over pairs of stored terms, integer numerators under packed
exponent keys, with no partial derivatives built.  A quotient N / r^m is kept as given, with no
normal form: every check only asks whether an observable vanishes, and
N / r^m does iff N does.

The moment functions

    S_uv = <S_uv(x)|pi>,   X_u = <x|{pi u pi}>,   Y_v = <x|v>

realize the TKK bracket relations under the Poisson bracket; each is built
from the integer numerators and denominator of an algebra kernel, which
become the Poly's stored form as they are.  The classical Kepler data
(universal hamiltonian, angular observables, Lenz observables) is built
from them.
"""
from __future__ import annotations

from fractions import Fraction

import numpy as np

from .algebra import Algebra, Element
from .poly import Poly, check_fields, field, same_nvars, unpack


def poisson_poly(f: Poly, g: Poly) -> Poly:
    """Canonical bracket sum_a (df/dx^a dg/dp_a - df/dp_a dg/dx^a), on the
    stored numerators.  Only pairs of terms that both have slot a (a positive
    x^a or p_a exponent) contribute to it: both halves land on the monomial
    kf + kg - e_a - e_{n+a}, with coefficient cf cg (kf[a] kg[n+a] - kf[n+a] kg[a])."""
    same_nvars(f, g)
    check_fields(f, g)
    n = f.nvars // 2

    def by_slot(h):  # per slot a, the terms (key, numerator, x^a and p_a exponents) with it
        terms = [(key, c, unpack(key, h.nvars)) for key, c in h.nums.items()]
        return [[(key, c, k[a], k[n + a]) for key, c, k in terms if k[a] or k[n + a]]
                for a in range(n)]

    out = {}
    get = out.get
    for a, f_terms, g_terms in zip(range(n), by_slot(f), by_slot(g)):
        step = field(a) + field(n + a)
        for pf, cf, fx, fp in f_terms:
            for pg, cg, gx, gp in g_terms:
                w = fx * gp - fp * gx
                if w:
                    key = pf + pg - step
                    out[key] = get(key, 0) + cf * cg * w
    return Poly._make(f.nvars, out, f.den * g.den)


class PhaseRational:
    """Quotient N / r^m with N a phase Poly and r = <e|x>, not reduced:
    (N r) / r^(m+1) and N / r^m are different objects that compare equal."""

    __slots__ = ("algebra", "num", "rpow")

    def __init__(self, algebra: Algebra, num: Poly, rpow: int = 0):
        self.algebra = algebra
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
        return f"PhaseRational({self.algebra.spec}, {len(self.num.nums)} terms / r^{self.rpow})"


def _as_rational(alg: Algebra, f) -> PhaseRational:
    if isinstance(f, PhaseRational):
        return f
    if isinstance(f, (int, Fraction)):
        f = Poly.constant(2 * alg.dim, f)
    return PhaseRational(alg, f, 0)


def r_poly(alg: Algebra) -> Poly:
    """r = <e|x> as a phase Poly."""
    return moment_y(alg, alg.identity())


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
    """<M x | pi> = sum_a (Mx)^a p_a for an endomorphism M given as (nums, den)."""
    nums, den = matrix
    n = alg.dim
    return Poly._make(2 * n, {field(b) + field(n + a): c for (a, b), c in
                              zip(np.argwhere(nums).tolist(), nums[nums != 0].tolist())}, den)


def moment_s(alg: Algebra, u: Element, v: Element) -> Poly:
    """S_uv = <S_uv(x)|pi>."""
    return momentum_observable(alg, alg.smul_matrix(u, v))


def moment_x(alg: Algebra, u: Element) -> Poly:
    """X_u = <x|{pi u pi}>."""
    n = alg.dim
    t, den = alg.dual_triple_tensor(u)
    out = {}
    for (a, b, g), c in zip(np.argwhere(t).tolist(), t[t != 0].tolist()):
        key = field(g) + field(n + a) + field(n + b)
        out[key] = out.get(key, 0) + c
    return Poly._make(2 * n, out, den)


def moment_y(alg: Algebra, v: Element) -> Poly:
    """Y_v = <x|v>."""
    gnum, gden = alg._gram
    return Poly._make(2 * alg.dim, {field(a): g * c for a, (g, c) in enumerate(zip(gnum, v.nums))},
                      gden * v.den)


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
    (lu, du), (lv, dv) = alg.lmul_matrix(u), alg.lmul_matrix(v)
    return momentum_observable(alg, (lv @ lu - lu @ lv, du * dv))


def classical_lenz(alg: Algebra, u: Element) -> PhaseRational:
    """Lenz observable A_u = sign * (1/r) {L_u, r^2 H} with L_u = S_ue."""
    l_u = moment_s(alg, u, alg.identity())
    r = r_poly(alg)
    r2h = r * (Fraction(1, 2) * moment_x(alg, alg.identity()) - Poly.constant(2 * alg.dim, 1))
    return PhaseRational(alg, LENZ_SIGN * poisson_poly(l_u, r2h), 1)
