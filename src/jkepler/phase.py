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

are x-linear symbols, a_0(p) + sum_g x_g a_g(p), and each has one builder
here, an XLinearOp read from the integer numerators of the kernels
smul_matrix and dual_triple_tensor and of the Gram matrix.  The same symbols,
read with p -> D, are the nu = 0 operators of the quantum realization
(weyl adds the nu-terms).  For x-linear symbols the normal-ordered
commutator stops at first order, so {a, b} = -[a, b] = [b, a] exactly: one
closed-form tensor bracket serves the Poisson relations here and the
operator relations in weyl.  poisson_poly serves the r-power Kepler data,
which are not x-linear; the classical hamiltonian, angular and Lenz
observables read the Poly form of the symbols.
"""
from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

from .algebra import Algebra, Element, _exact_dtype, _max_abs
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
    return moment_y(alg, alg.identity()).poly()


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


# --- x-linear symbols as integer tensors ---------------------------------------

def _ints(t: np.ndarray) -> np.ndarray:
    """Integer numerators as int64 where every entry fits, else as Python ints."""
    return t.astype(_exact_dtype(_max_abs(t)))


def _fit(bound: int, tensors: dict) -> dict:
    """The tensors as int64 when bound holds every entry and partial sum of
    the kernel about to run on them, else as object arrays of Python ints."""
    dtype = _exact_dtype(bound)
    return {d: t.astype(dtype, copy=False) for d, t in tensors.items()}


def _slots(n: int, d: int) -> np.ndarray:
    """An empty (n+1, n, ..., n) numerator tensor of degree d in D."""
    return np.zeros((n + 1,) + (n,) * d, dtype=object)


class XLinearOp:
    """A symbol of x-degree <= 1, a_0(D) + sum_g x_g a_g(D), as integer
    tensors over one positive denominator `den`; D is the momentum p of a
    phase observable or the derivative of an operator.  parts[d] is the
    D-degree d part, an array of shape (n+1, n, ..., n) with d axes of length
    n: entry [s, i_1, ..., i_d] is the numerator of x_s D_i1 ... D_id, where
    slot s = 0 has no x and slot g+1 is x_g.  The D_i commute, so a
    polynomial in D is the sum of its tensor's entries and has many tensors:
    the symbol is zero exactly when each part, symmetrized over its D axes,
    is zero."""

    __slots__ = ("n", "parts", "den")

    def __init__(self, n: int, parts: dict, den: int):
        self.n, self.parts, self.den = n, parts, den

    def _max(self) -> int:
        """max(1, largest |numerator|), a factor of every kernel bound."""
        return max([1] + [_max_abs(t) for t in self.parts.values()])

    def _sum(self, other, sign: int):
        den = math.lcm(self.den, other.den)
        m1, m2 = den // self.den, sign * (den // other.den)
        bound = self._max() * m1 + other._max() * abs(m2)
        parts = {d: m1 * t for d, t in _fit(bound, self.parts).items()}
        for d, t in _fit(bound, other.parts).items():
            parts[d] = parts[d] + m2 * t if d in parts else m2 * t
        return XLinearOp(self.n, parts, den)

    def __add__(self, other):
        return self._sum(other, 1)

    def __sub__(self, other):
        return self._sum(other, -1)

    def __rmul__(self, c: int):
        if not isinstance(c, int):
            return NotImplemented
        return XLinearOp(self.n, {d: c * t for d, t in _fit(abs(c) * self._max(),
                                                               self.parts).items()}, self.den)

    def is_zero(self) -> bool:
        for d, t in _fit(math.factorial(max(self.parts, default=0)) * self._max(),
                         self.parts).items():
            sym = sum(t.transpose((0,) + p) for p in itertools.permutations(range(1, d + 1)))
            if np.count_nonzero(sym):
                return False
        return True

    def poly(self, cls=Poly) -> Poly:
        """The same symbol as a cls in 2n variables, the x block then the D
        block: a phase Poly, or the normal form of the operator for
        cls = weyl.WeylOp."""
        n, out = self.n, {}
        for t in self.parts.values():
            for (s, *idx), c in zip(np.argwhere(t).tolist(), t[t != 0].tolist()):
                key = (field(s - 1) if s else 0) + sum(field(n + i) for i in idx)
                out[key] = out.get(key, 0) + c
        return cls._make(2 * n, out, self.den)


def bracket(a: XLinearOp, b: XLinearOp) -> XLinearOp:
    """The commutator [A, B] of the normal-ordered operators, slot by slot
    [A, B]_s = sum_h (d_h a_s b_h - d_h b_s a_h), d_h the derivative in D_h.
    Of the words of AB and BA only those where a D of one factor meets the x
    of the other differ, so no cancelling word is built; the Poisson bracket
    of the symbols is {a, b} = -[A, B].  Each output entry and partial sum is
    at most n X Y (sum_a d |b| + sum_b d |a|) for numerators at most X and Y,
    degrees d and part counts |a|, |b|: the int64 guard."""
    n = a.n
    bound = n * a._max() * b._max() * (sum(a.parts) * len(b.parts) + sum(b.parts) * len(a.parts))
    out = {}
    for sign, left, right in ((1, a, b), (-1, b, a)):
        left, right = _fit(bound, left.parts), _fit(bound, right.parts)
        for dl, tl in left.items():
            if not dl:
                continue
            # d_h of the degree-dl part, with h moved to the last axis
            dt = sum(tl.transpose([i for i in range(dl + 1) if i != k] + [k])
                     for k in range(1, dl + 1))
            for dr, tr in right.items():
                d = dl - 1 + dr
                term = (dt @ tr[1:].reshape(n, -1)).reshape((n + 1,) + (n,) * d)
                out[d] = out[d] + sign * term if d in out else sign * term
    return XLinearOp(n, out, a.den * b.den)


def conjugate(a: XLinearOp, r: XLinearOp) -> XLinearOp:
    """e^{r} A e^{-r} for a linear form r = sum_g h_g x_g (D-degree 0, no
    constant): the substitution D_i -> D_i - h_i.  Part d of A feeds part
    d - k through the C(d, k) contractions of k of its D axes with -h, lifted
    to the denominator A.den hd^top, hd that of r and top the highest D-degree
    of A.  The D-degree-0 part of the result is A applied to the vacuum: the
    coefficients of A e^{-r} = e^{-r} (c_0 + sum_g c_g x_g).  Each output
    entry and partial sum is at most |parts| X (n H + hd)^top for numerators
    at most X and H: the int64 guard."""
    n, hd = a.n, r.den
    top = max(a.parts, default=0)
    bound = len(a.parts) * a._max() * (n * r._max() + hd) ** top
    minus_h = -_fit(bound, {0: r.parts[0][1:]})[0]
    out = {}
    for d, t in _fit(bound, a.parts).items():
        for k in range(d + 1):
            for axes in itertools.combinations(range(1, d + 1), k):
                term = t
                for axis in reversed(axes):
                    term = np.tensordot(term, minus_h, axes=([axis], [0]))
                term = term * hd ** (top - k)
                out[d - k] = out[d - k] + term if d - k in out else term
    return XLinearOp(n, out, a.den * hd ** top)


# --- moment functions: the one builder of each generator's symbol ----------------

def moment_s(alg: Algebra, u: Element, v: Element) -> XLinearOp:
    """S_uv = <S_uv(x)|pi>, from the numerators of smul_matrix: the numerator
    of x_b p_a is S_uv[a, b]."""
    m, den = alg.smul_matrix(u, v)
    t1 = _slots(alg.dim, 1)
    t1[1:] = m.T
    return XLinearOp(alg.dim, {1: _ints(t1)}, den)


def moment_x(alg: Algebra, u: Element) -> XLinearOp:
    """X_u = <x|{pi u pi}>, from the numerators of dual_triple_tensor: the
    numerator of x_g p_a p_b is T[a, b, g]."""
    t, den = alg.dual_triple_tensor(u)
    t2 = _slots(alg.dim, 2)
    t2[1:] = np.moveaxis(t, 2, 0)
    return XLinearOp(alg.dim, {2: _ints(t2)}, den)


def moment_y(alg: Algebra, v: Element) -> XLinearOp:
    """Y_v = <x|v>, from the Gram numerators."""
    gnum, gden = alg._gram
    t0 = _slots(alg.dim, 0)
    t0[1:] = [g * c for g, c in zip(gnum, v.nums)]
    return XLinearOp(alg.dim, {0: _ints(t0)}, gden * v.den)


# --- TKK relation verification -------------------------------------------------

_RELATIONS = ("XX", "YY", "XY", "SX", "SY", "SS")


def relation_residual(alg: Algebra, name: str, bracket, s, x, y, u, v, z, w):
    """Residual of one TKK relation family for a bracket and the builders
    s(u, v), x(u), y(v) of the generators; zero iff the relation holds.  It
    serves the Poisson bracket here and the commutator in weyl, both on
    XLinearOps."""
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
                              mutated_moment: bool = False) -> XLinearOp:
    """Residual symbol of one bracket-relation family under {a, b} = [b, a];
    zero iff it holds.

    mutated_moment flips the sign of S_uv inside the XY relation; it is a
    harness self-check hook and must make the residual nonzero.
    """
    def s(a, b):
        m = moment_s(alg, a, b)
        return -1 * m if mutated_moment and name == "XY" else m

    return relation_residual(alg, name, lambda f, g: bracket(g, f), s, lambda a: moment_x(alg, a),
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
    num = Fraction(1, 2) * moment_x(alg, alg.identity()).poly() - Poly.constant(2 * alg.dim, 1)
    return PhaseRational(alg, num, 1)


def classical_angular(alg: Algebra, u: Element, v: Element) -> Poly:
    """Angular observable of the pair (u, v): <[L_v, L_u] x | pi> = (S_vu - S_uv)/2,
    as S_uv = L_uv + [L_u, L_v]."""
    return Fraction(1, 2) * (moment_s(alg, v, u) - moment_s(alg, u, v)).poly()


def classical_lenz(alg: Algebra, u: Element) -> PhaseRational:
    """Lenz observable A_u = sign * (1/r) {L_u, r^2 H} with L_u = S_ue."""
    l_u = moment_s(alg, u, alg.identity()).poly()
    r2h = r_poly(alg) * classical_hamiltonian(alg).num
    return PhaseRational(alg, LENZ_SIGN * poisson_poly(l_u, r2h), 1)
