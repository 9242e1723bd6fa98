"""Exact symbolic symplectic calculus on T*V, and the Kepler data on co(V)*.

Observables on T*V are sparse polynomials (poly.Poly in 2n variables: the
position coordinates x^a, then the conjugate momenta p_a) with rational
coefficients.  The canonical bracket is {x^a, p_b} = delta_ab; the momentum
covector p is identified with the tangent vector pi through the inner
product, so every inner-product contraction below carries the Gram matrix
explicitly (trivial for spin factors, diagonal rational otherwise).
poisson_poly, the bracket of two such polynomials, is one loop over pairs of
stored terms, integer numerators under packed exponent keys.  No check calls
it: it is the reference that the tests hold `bracket` and the Kepler data to.

The moment functions

    S_uv = <S_uv(x)|pi>,   X_u = <x|{pi u pi}>,   Y_v = <x|v>

are x-linear symbols, a_0(p) + sum_g x_g a_g(p), and each has one builder
here, an XLinearOp read from the integer numerators of the kernels
smul_matrix and dual_triple_tensor and of the Gram matrix.  The same symbols,
read with p -> D, are the nu = 0 operators of the quantum realization
(weyl adds the nu-terms).  For x-linear symbols the normal-ordered
commutator stops at first order, so {a, b} = -[a, b] = [b, a] exactly: one
closed-form tensor bracket serves the Poisson relations here, the operator
relations in weyl, and conjugate, e^{r} A e^{-r} = exp(ad r) A.

The relations say that z -> its moment function takes co_bracket to the
Poisson bracket, so the moment map mu = (S, X, Y) is a Poisson map from T*V
to co(V)* with its Lie-Poisson bracket {z_i, z_j} = sum_k c_ij^k z_k
(conformal.structure_constants, the table that co_bracket contracts).  The
Kepler hamiltonian, angular and Lenz observables are polynomials in the
coordinates z of co(V)* over powers of Y_e = r (CoStar, where an element of
co(V) is the linear form of its CoElement coordinates), so each of their
identities is one of the free polynomial ring, with no relation of a
coadjoint orbit, and pulls back to T*V.
"""
from __future__ import annotations

import functools
import itertools
import math
import operator
from fractions import Fraction

import numpy as np

from .algebra import Algebra, Element, ExactArray, exact_ints
from .conformal import CoElement, _co_table
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


# --- x-linear symbols as integer tensors ---------------------------------------

def _slot_part(t: np.ndarray, d: int, n: int, slots: slice) -> np.ndarray:
    """A D-degree-d part that is t at the given slots and zero at the others:
    the slot axis, n + 1 long, is the one before the d D axes."""
    out = np.zeros(t.shape[:t.ndim - d - 1] + (n + 1,) + t.shape[t.ndim - d:], dtype=t.dtype)
    out[(..., slots) + (slice(None),) * d] = t
    return out


_X, _NO_X = slice(1, None), slice(0, 1)  # the x slots 1 .. n; slot 0, the terms with no x


# Entries of the largest array one step of a blocked kernel makes, about: a
# stack much larger leaves the cache and costs more per row, and a whole
# large part held twice over raises the peak memory (ROADMAP item 12).
_ENTRIES = 1 << 14


def _blocks(count: int, row: int) -> list:
    """Slices of count rows of `row` entries each, _ENTRIES entries a slice
    (at least one row): a block that stays in cache."""
    step = max(1, _ENTRIES // row)
    return [slice(start, start + step) for start in range(0, count, step)]


def _common_factor(g: int, a: np.ndarray) -> int:
    """gcd(g, every entry of a).  For a power of two g and int64 entries it is
    gcd(g, their OR), which has the fewest trailing zero bits of any entry
    (in two's complement too): on the large stacked parts of h:3:O one
    OR-reduce takes a fifth of the time of a gcd-reduce."""
    if g & (g - 1) == 0 and a.dtype == np.int64:
        return math.gcd(g, int(np.bitwise_or.reduce(a, axis=None)))
    return math.gcd(g, int(np.gcd.reduce(a, axis=None)))


class XLinearOp:
    """A symbol of x-degree <= 1, a_0(D) + sum_g x_g a_g(D), as integer
    tensors over one positive denominator `den`; D is the momentum p of a
    phase observable or the derivative of an operator.  parts[d] is the
    D-degree d part, an array of shape (n+1, n, ..., n) with d axes of length
    n: entry [s, i_1, ..., i_d] is the numerator of x_s D_i1 ... D_id, where
    slot s = 0 has no x and slot g+1 is x_g.  The D_i commute, so a
    polynomial in D is the sum of its tensor's entries and has many tensors:
    the symbol is zero exactly when each part, symmetrized over its D axes,
    is zero.  gcd(den, every numerator) is divided out on construction, so
    the exact products see the smallest numerators, and the parts share one
    dtype: int64, or Python ints once any part needs them.  Each part is kept
    as an ExactArray: a part made by a kernel keeps the bound of the step
    that made it, and any other is read once, on construction.

    The builders given a Stack return one XLinearOp of that many symbols:
    each part carries the stack axis first, and `den` is shared.  Sums and
    vacuum take such a stack as they take one symbol; is_zero, poly, bracket
    and conjugate take one symbol."""

    __slots__ = ("n", "den", "_parts")

    def __init__(self, n: int, parts: dict, den: int):
        """parts[d]: an integer array, or an ExactArray."""
        parts = {d: t if isinstance(t, ExactArray) else ExactArray(t) for d, t in parts.items()}
        g, wide = den, False
        for t in parts.values():
            g = _common_factor(g, t.ints()) if g > 1 else 1
            wide = wide or t.array.dtype == object
        self.n, self.den = n, den // g
        self._parts = {d: t.stored(g, wide) for d, t in parts.items()}

    @property
    def parts(self) -> dict:
        """parts[d], the numerators of the D-degree d part."""
        return {d: t.array for d, t in self._parts.items()}

    def _sum(self, other, sign: int):
        den, terms = math.lcm(self.den, other.den), {}
        for m, op in ((den // self.den, self), (sign * (den // other.den), other)):
            for d, t in op._parts.items():
                terms.setdefault(d, []).append(t if m == 1 else m * t)
        return XLinearOp(self.n, {d: ts[0] + ts[1] if len(ts) > 1 else ts[0]
                                  for d, ts in terms.items()}, den)

    def __add__(self, other):
        return self._sum(other, 1)

    def __sub__(self, other):
        return self._sum(other, -1)

    def __rmul__(self, c: int):
        if not isinstance(c, int):
            return NotImplemented
        return XLinearOp(self.n, {d: c * t for d, t in self._parts.items()}, self.den)

    def is_zero(self) -> bool:
        for d, t in self._parts.items():
            for rows in _blocks(self.n + 1, self.n ** d):
                # symmetrized over the D axes, a block of slots at a time
                block = t[rows]
                sym = functools.reduce(operator.add, (block.transpose((0,) + p) for p in
                                                      itertools.permutations(range(1, d + 1))))
                if np.count_nonzero(sym.array):
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
    of the symbols is {a, b} = -[A, B].  Each derivative, product and sum
    is an ExactArray step, taken on _blocks of slots, so a large part is
    held whole only once, as the result."""
    n, terms = a.n, {}
    for sign, left, right in ((1, a._parts, b._parts), (-1, b._parts, a._parts)):
        for dl, tl in left.items():
            if not dl:
                continue
            # d_h of the degree-dl part, with h moved to the last axis
            dt = functools.reduce(operator.add, (tl.transpose([i for i in range(dl + 1) if i != k]
                                                              + [k]) for k in range(1, dl + 1)))
            for dr, tr in right.items():
                terms.setdefault(dl - 1 + dr, []).append((sign, dt, tr[1:].reshape(n, -1)))
    out = {}
    for d, products in terms.items():
        blocks, bound = [], 1
        for rows in _blocks(n + 1, n ** d):
            acc = None
            for sign, dt, tr in products:
                term = (dt[rows] @ tr).reshape(-1, n ** d)
                acc = (acc + term if sign > 0 else acc - term) if acc is not None else sign * term
            blocks.append(acc.ints())
            bound = max(bound, acc.bound)
        whole = blocks[0] if len(blocks) == 1 else np.concatenate(blocks)
        out[d] = ExactArray(whole.reshape((n + 1,) + (n,) * d), bound)
    return XLinearOp(n, out, a.den * b.den)


def conjugate(a: XLinearOp, r: XLinearOp) -> XLinearOp:
    """e^{-r} a e^{r} = sum_k ad_r^k a / k! for an operator r of D-degree 0,
    where ad_r = [r, .]: the series ends once the D-degree of a runs out."""
    out = term = a
    for k in range(1, max(a._parts, default=0) + 1):
        term = bracket(r, term)
        out = out + XLinearOp(a.n, term._parts, term.den * math.factorial(k))
    return out


def vacuum(a: XLinearOp, r: XLinearOp) -> tuple:
    """(q, den): e^{-r} a e^{r} applied to the function 1 is the polynomial
    q(x) / den, for r of D-degree 0 and linear in x (r = -<x|h>).  The
    substitution D -> D - grad r puts D = -grad r = h / r.den there, so q is
    each D-degree-d part contracted d times with h, over a.den r.den^top:
    no series and no bracket.  Returns (q numerators, the constant then x_0
    .. x_{n-1}, and that den, not reduced).  Each contraction and the sum
    are ExactArray steps.  For a stack of symbols, q has a row per symbol."""
    top, h, q = max(a._parts, default=0), -1 * r._parts[0][1:], None
    for d, t in a._parts.items():
        for _ in range(d):
            t = t @ h
        t = r.den ** (top - d) * t
        q = t if q is None else q + t
    return (np.zeros(a.n + 1, dtype=np.int64) if q is None else q.ints()), a.den * r.den ** top


# --- moment functions: the one builder of each generator's symbol ----------------
# Each takes Elements, or Stacks of them (row by row) for a stack of symbols.

def moment_s(alg: Algebra, u, v) -> XLinearOp:
    """S_uv = <S_uv(x)|pi>, from the numerators of smul_matrix: the numerator
    of x_b p_a is S_uv[a, b]."""
    m, den = alg.smul_matrix(u, v)
    return XLinearOp(alg.dim, {1: _slot_part(np.swapaxes(m, -1, -2), 1, alg.dim, _X)}, den)


def moment_x(alg: Algebra, u) -> XLinearOp:
    """X_u = <x|{pi u pi}>, from the numerators of dual_triple_tensor: the
    numerator of x_g p_a p_b is T[a, b, g]."""
    t, den = alg.dual_triple_tensor(u)
    return XLinearOp(alg.dim, {2: _slot_part(np.moveaxis(t, -1, -3), 2, alg.dim, _X)}, den)


def moment_y(alg: Algebra, v) -> XLinearOp:
    """Y_v = <x|v>, from the Gram numerators."""
    return XLinearOp(alg.dim, {0: _slot_part((v.exact() * alg._gram_nums).ints(), 0, alg.dim, _X)},
                     alg._gram[1] * v.den)


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


# --- Kepler data on co(V)* -------------------------------------------------------

class CoStar:
    """Polynomials on co(V)*: Polys in the coordinates z = (X_a, B_k, Y_a) of
    a CoElement, under the Lie-Poisson bracket {z_i, z_j} = sum_k c_ij^k z_k
    of conformal.structure_constants, read from the table's nonzero entries
    (conformal._co_table) without a dense copy."""

    def __init__(self, alg: Algebra):
        t, self.alg = _co_table(alg), alg
        self.nvars, self.den = t.dim, t.den
        self.entries = t.i, t.j, t.k, t.vals  # the nonzero c_ij^k, grouped by k
        self.forms = {}  # (i, j) -> [(packed key of z_k, numerator of c_ij^k)], k ascending
        for i, j, k, c in zip(*(a.tolist() for a in self.entries)):
            self.forms.setdefault((i, j), []).append((field(k), c))

    def linear(self, z: CoElement) -> Poly:
        """z as a linear function on co(V)*: the form of its coordinates."""
        return Poly._make(self.nvars, {field(i): c for i, c in enumerate(z.nums) if c}, z.den)

    def x(self, u: Element) -> Poly:
        return self.linear(CoElement.x(u))

    def y(self, v: Element) -> Poly:
        return self.linear(CoElement.y(v))

    def s(self, u: Element, v: Element) -> Poly:
        """S_uv, read from smul_matrix (CoElement.s), not from the table,
        whose X-Y block the Lenz brackets then test."""
        return self.linear(CoElement.s(u, v))

    def bracket(self, f: Poly, g: Poly) -> Poly:
        """{f, g} = sum_ij df/dz_i dg/dz_j {z_i, z_j} on the stored numerators:
        a term cf of f with z_i to the power ei and a term cg of g with z_j to
        the power ej put cf cg ei ej c_ij^k on kf + kg - z_i - z_j + z_k."""
        same_nvars(f, g)
        check_fields(f, g)

        def by_var(h):  # (key / z_i, numerator times the exponent of z_i, i)
            out = []
            for key, c in h.nums.items():
                k = key
                while k:  # the variables of the term, lowest first
                    i = ((k & -k).bit_length() - 1) >> 4
                    e = k >> 16 * i & 0xFFFF
                    out.append((key - field(i), c * e, i))
                    k -= e << 16 * i
            return out

        out, g_terms = {}, by_var(g)
        get = out.get
        for kf, cf, i in by_var(f):
            for kg, cg, j in g_terms:
                for kk, ck in self.forms.get((i, j), ()):
                    key = kf + kg + kk
                    out[key] = get(key, 0) + cf * cg * ck
        return Poly._make(f.nvars, out, f.den * g.den * self.den)


def co_star(alg: Algebra) -> CoStar:
    """The algebra's CoStar, built once."""
    if "co_star" not in alg._cache:
        alg._cache["co_star"] = CoStar(alg)
    return alg._cache["co_star"]


def poisson(alg: Algebra, f: tuple, g: tuple) -> tuple:
    """{N1 / Y_e^a, N2 / Y_e^b} = (Y_e {N1, N2} - a N1 {Y_e, N2} + b N2 {Y_e, N1})
    / Y_e^(a+b+1) for quotients (N, a) on co(V)*, kept as built: each check
    only asks whether one vanishes, and N / Y_e^a does iff N does."""
    cs, (n1, a), (n2, b) = co_star(alg), f, g
    ye = cs.y(alg.identity())
    num = ye * cs.bracket(n1, n2)
    if a:
        num = num - a * (n1 * cs.bracket(ye, n2))
    if b:
        num = num + b * (n2 * cs.bracket(ye, n1))
    return num, a + b + 1


def over(alg: Algebra, f: tuple, m: int) -> Poly:
    """N Y_e^(m - a): the numerator of the quotient f = (N, a) over Y_e^m."""
    num, a = f
    for _ in range(m - a):
        num = num * co_star(alg).y(alg.identity())
    return num


def kepler_hamiltonian(alg: Algebra) -> tuple:
    """H = (X_e/2 - 1) / Y_e, the pullback of (1/2) <x|pi^2> / r - 1/r."""
    cs = co_star(alg)
    return Fraction(1, 2) * cs.x(alg.identity()) - Poly.constant(cs.nvars, 1), 1


def kepler_angular(alg: Algebra, u: Element, v: Element) -> Poly:
    """L_uv = (S_vu - S_uv)/2, the momentum observable of [L_v, L_u] (as
    S_uv = L_uv + [L_u, L_v]): the orientation for which {H, L_uv} = 0,
    {H, A_u} = 0, {A_u, A_v} = -2 H L_uv and {L_uv, A_z} = A_{[L_v, L_u] z}
    all hold.  The sign of A is free, as {A_u, A_v} is quadratic in A."""
    cs = co_star(alg)
    return Fraction(1, 2) * (cs.s(v, u) - cs.s(u, v))


def kepler_lenz(alg: Algebra, u: Element) -> tuple:
    """A_u = ((Y_u X_e - X_u Y_e)/2 - Y_u) / Y_e, the pullback of
    -(1/r) {L_u, r^2 H} with L_u = S_ue."""
    cs, e = co_star(alg), alg.identity()
    return Fraction(1, 2) * (cs.y(u) * cs.x(e) - cs.x(u) * cs.y(e)) - cs.y(u), 1


_PAIRS = 32  # basis pairs of the equivariance product taken together


def equivariance_witness(alg: Algebra, pairs: list, angular: list):
    """The first basis triple {"u": i, "v": j, "z": a} on which
    {L_uv, A_z} = A_{[L_v, L_u] z} fails, for the linear forms L_uv of the
    basis pairs (i, j); None if there is none.  A_z is built from X_z, Y_z and
    X_e, Y_e, so the identity holds for every z once {L_uv, X_a} = X_{D e_a}
    and {L_uv, Y_a} = Y_{D e_a} for every a, D = [L_v, L_u] (D e = 0 then
    gives {L_uv, X_e} = {L_uv, Y_e} = 0): products, _PAIRS pairs at a time, of
    the forms with the X and Y columns of the table, against D from lmul_matrix."""
    cs, n = co_star(alg), alg.dim
    nvars = cs.nvars
    keys, lden = [field(k) for k in range(nvars)], math.lcm(*(f.den for f in angular))
    if any(set(f.nums) - set(keys) for f in angular):
        raise ValueError("an angular observable is not a linear form")
    lmat = exact_ints(np.array([[4 * f.nums.get(key, 0) * (lden // f.den) for key in keys]
                                for f in angular], dtype=object).reshape(len(pairs), nvars))
    ti, tj, tk, vals = cs.entries
    xy = (tj < n) | (tj >= nvars - n)  # c_ij^k with z_j = X_a or Y_a, at column a or n + a
    cols = np.zeros((nvars, 2 * n, nvars), dtype=vals.dtype)
    cols[ti[xy], np.where(tj < n, tj, tj - nvars + 2 * n)[xy], tk[xy]] = vals[xy]
    cols = cols.reshape(nvars, -1)
    l2 = np.stack([alg.lmul_matrix(alg.basis_element(a))[0] for a in range(n)])  # 2 L_{e_a}
    cols, l2 = ExactArray(cols), ExactArray(l2)  # read once for every block
    for start in range(0, len(pairs), _PAIRS):
        i, j = map(list, zip(*pairs[start:start + _PAIRS]))
        act = (ExactArray(lmat[start:start + _PAIRS]) @ cols).ints()
        # [p, a, b]: 4 D_ba, over lden den
        d4 = (lden * cs.den * (l2[j] @ l2[i] - l2[i] @ l2[j]).swapaxes(1, 2)).ints()
        act = act.reshape(len(i), 2 * n, nvars)
        # row a of act, 4 {L_uv, X_a} then 4 {L_uv, Y_a}, is d4 on the X, then the Y columns
        want = np.zeros(act.shape, dtype=np.result_type(act, d4))
        want[:, :n, :n] = want[:, n:, -n:] = d4
        bad = np.argwhere((act != want).any(axis=2)).tolist()
        if bad:
            return {"u": i[bad[0][0]], "v": j[bad[0][0]], "z": bad[0][1] % n}
    return None
