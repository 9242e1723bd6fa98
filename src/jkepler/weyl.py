"""Normal-ordered differential operators on polynomials over V.

A WeylOp is a sparse sum of normal-ordered words x^A d^B (all multiplication
factors left of all derivatives) with exact coefficients.  Composition uses
the Leibniz exchange rule

    d^B x^C = sum_s  C(B,s) C!/(C-s)!  x^{C-s} d^{B-s}    (componentwise),

so equality of operators is coefficient equality of normal forms and every
commutation relation becomes a decidable exact check.  A WeylOp is stored
as a Poly is, integer numerators over one denominator under packed exponent
keys; composition, application to states and Gaussian conjugation read and
write that form directly.

The nu-parametrized realization quantizes the phase-space moments (p -> D):

    S_uv(nu) = -<S_uv(x)|D> - (nu/2) tr(uv),
    X_u(nu) = i X~_u(nu),  X~_u(nu) = <x|{D u D}> + nu tr(u D),
    Y_v(nu) = -i Y~_v,     Y~_v = <x|v>.

Every check runs on the rational S, X~ and Y~ (each complex residual is a
unit times the rational one, so no operator carries a complex coefficient),
with the relation table of the Poisson realization (phase.relation_residual).
Each generator has x-degree <= 1: S is xD plus a constant, X~ (the Bessel
operator of Hilgert-Kobayashi-Moellers, J. Math. Soc. Japan 66, 2014) is xDD
plus D, and Y~ is x.  So each is the x-linear symbol phase.moment_s/x/y,
the one builder of that generator, read with p -> D: xlinear_s negates S
and adds the constant, xlinear_x adds nu tr(u D), and Y~ is moment_y as it
is.  acute_s, x_tilde and y_tilde are the WeylOp normal forms of the same
symbols.  The relation checks take phase.bracket, the closed-form
commutator of x-linear symbols (the Poisson bracket up to sign): only a D of
one factor meeting the x of the other survives, so the words that cancel
are never built.  compose and commutator remain the general WeylOp product,
the reference the tests hold that bracket to.

The realization acts on states psi = e^{-r} p with p polynomial; operators
act on p through conjugation by e^{r}, which is the constant shift
d_a -> d_a - (Ge)_a.  On an x-linear symbol that is phase.conjugate, the
series exp(ad r) of phase.bracket.  The grading check conjugates H_e once
for all its levels and reads it on the degree-I monomials, a block at a
time, from its D-degree 0 and 1 parts.  The lowest-weight check needs only
the D-degree-0 part of each conjugated generator, A on the vacuum e^{-r}:
phase.vacuum reads it by contracting each D-degree-d part d times with
-grad r, with no series, for a whole stack of generators at once (the
builders take an algebra.Stack of elements).  So no check builds a WeylOp.
gaussian_conjugate and apply_op, the same conjugation and action word by
word on WeylOps, are the references the tests hold them to.

As in the phase-space module, derivative slots are paired with the
metric-dual basis, so the Gram matrix of the rational frame appears
explicitly and all identities stay exact for every family.

Only the realization by differential operators on V is implemented; the dual
realization on V* is its Fourier transform and adds nothing checkable here.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .algebra import DomainError, Algebra, Element, ExactArray, Stack
from .modp import _PRIME, _limbs, _matmul_mod, _sub, rank_inverse
from .phase import (_NO_X, XLinearOp, _blocks, _slot_part, bracket, check_relations, conjugate,
                    moment_s, moment_x, moment_y, relation_residual, vacuum)
from .poly import MismatchError, Poly, check_fields, field, same_nvars, unpack


_ff = math.perm  # _ff(c, s) is the falling factorial c (c-1) ... (c-s+1)


def _slot_mask(exps) -> int:
    """Bit i set where exps[i] > 0."""
    return sum(1 << i for i, e in enumerate(exps) if e)


class WeylOp(Poly):
    """Sparse normal-ordered operator: a Poly in 2n variables, the x exponents
    then the d exponents of each word x^A d^B.  Its product is composition,
    so a * b never silently multiplies commutatively."""

    __slots__ = ()

    def _product(self, other):
        return compose(self, other)


def compose(a: WeylOp, b: WeylOp) -> WeylOp:
    """Normal-ordered product ab, on the stored numerators.  A pair of words
    x^A d^B, x^C d^D gives the Leibniz sum over the slots where both B and C
    are positive; a pair with no such slot gives the single word
    x^{A+C} d^{B+D}."""
    same_nvars(a, b)
    check_fields(a, b)
    n = a.nvars // 2
    step = [field(i) + field(n + i) for i in range(n)]
    right = [(kb, x_exps, cb, _slot_mask(x_exps)) for kb, cb in b.nums.items()
             for x_exps in [unpack(kb, a.nvars)[:n]]]
    out = {}
    get = out.get
    for ka, ca in a.nums.items():
        d_exps = unpack(ka, a.nvars)[n:]
        d_slots = [(i, bi) for i, bi in enumerate(d_exps) if bi]
        d_mask = _slot_mask(d_exps)
        for kb, x_exps, cb, x_mask in right:
            key = ka + kb
            if not d_mask & x_mask:
                out[key] = get(key, 0) + ca * cb
                continue
            base = ca * cb
            shared = [(i, bi, x_exps[i]) for i, bi in d_slots if x_exps[i]]
            for s in itertools.product(*[range(min(bi, ci) + 1) for _, bi, ci in shared]):
                coef = base
                word = key
                for (i, bi, ci), si in zip(shared, s):
                    if si:
                        coef = coef * (math.comb(bi, si) * _ff(ci, si))
                        word -= si * step[i]
                out[word] = get(word, 0) + coef
    return WeylOp._make(a.nvars, out, a.den * b.den)


def commutator(a: WeylOp, b: WeylOp) -> WeylOp:
    return compose(a, b) - compose(b, a)


def apply_op(op: WeylOp, p: Poly) -> Poly:
    """Apply a normal-ordered operator to a plain polynomial p, the state
    psi = e^{-r} p."""
    if op.nvars != 2 * p.nvars:
        raise MismatchError("operator and state over different variable counts")
    check_fields(op, p)
    n = p.nvars
    words = [((k & (field(n) - 1)) - (k >> 16 * n),
              [(i, bi) for i, bi in enumerate(unpack(k, op.nvars)[n:]) if bi], c)
             for k, c in op.nums.items()]  # the shift A - B, the slots of d^B, c
    state = [(k, unpack(k, n), pc) for k, pc in p.nums.items()]
    out = {}
    get = out.get
    for shift, d_slots, c in words:
        for pc_key, C, pc in state:
            coef = c * pc
            for i, bi in d_slots:
                if C[i] < bi:
                    break
                coef = coef * _ff(C[i], bi)
            else:
                key = shift + pc_key
                out[key] = get(key, 0) + coef
    return Poly._make(n, out, op.den * p.den)


# --- the nu-parametrized (acute) realization -----------------------------------

def gaussian_conjugate(alg: Algebra, op: WeylOp, outer_sign: int = 1) -> WeylOp:
    """e^{sr} op e^{-sr} with s = outer_sign: the substitution d_a -> d_a - s (Ge)_a,
    where (Ge)_a = d_a r.  On the stored numerators: with r = sum_a h_a x_a / dh
    (so the shifts are -s h_a / dh) and top the highest d order of op, the
    word of x^A d^B that keeps d^s has numerator
    c prod_a C(B_a, s_a) (-s h_a)^(B_a - s_a) times dh^(top - |B - s|), over
    den dh^top."""
    n = op.nvars // 2
    r = moment_y(alg, alg.identity()).poly()
    dh = r.den
    shift = [-outer_sign * r.nums.get(field(a), 0) for a in range(n)]
    words = [(k & (field(n) - 1), unpack(k, op.nvars)[n:], c) for k, c in op.nums.items()]
    top = max((sum(B) for _, B, _ in words), default=0)
    out = {}
    get = out.get
    for x_key, B, c in words:
        d_slots = [(i, bi) for i, bi in enumerate(B) if bi]
        lift = top - sum(B)
        for kept in itertools.product(*[range(bi + 1) for _, bi in d_slots]):
            coef = c
            key = x_key
            for (i, bi), si in zip(d_slots, kept):
                key += si * field(n + i)
                if bi - si:
                    coef = coef * math.comb(bi, si) * shift[i] ** (bi - si)
            out[key] = get(key, 0) + coef * dh ** (lift + sum(kept))
    return WeylOp._make(op.nvars, out, op.den * dh ** top)


def acute_s(alg: Algebra, nu, u: Element, v: Element) -> WeylOp:
    """S_uv(nu) = -<S_uv(x)|D> - (nu/2) tr(uv)."""
    return xlinear_s(alg, nu, u, v).poly(WeylOp)


def x_tilde(alg: Algebra, nu, u: Element) -> WeylOp:
    """X~_u(nu) = <x|{D u D}> + nu tr(u D), so that X_u(nu) = i X~_u(nu)."""
    return xlinear_x(alg, nu, u).poly(WeylOp)


def y_tilde(alg: Algebra, v: Element) -> WeylOp:
    """Y~_v = <x|v>, so that Y_v(nu) = -i Y~_v."""
    return moment_y(alg, v).poly(WeylOp)


def acute_x(alg: Algebra, nu, u: Element) -> tuple:
    """X_u(nu) = i X~_u(nu) as its (real, imaginary) pair of rational operators."""
    return WeylOp(2 * alg.dim), x_tilde(alg, nu, u)


def acute_y(alg: Algebra, nu, v: Element) -> tuple:
    """Y_v(nu) = -i Y~_v as its (real, imaginary) pair (nu-independent)."""
    return WeylOp(2 * alg.dim), -y_tilde(alg, v)


# --- the nu-terms on the x-linear symbols ---------------------------------------

# Like the moment builders, these take Elements, or Stacks for a stack of symbols.

def xlinear_s(alg: Algebra, nu, u, v) -> XLinearOp:
    """S_uv(nu) = -<S_uv(x)|D> - (nu/2) tr(uv): the symbol moment_s, negated,
    plus a constant."""
    nu = Fraction(nu)
    c = -nu.numerator * alg.rho * alg.inner_nums(u, v)  # tr(uv) = rho <u|v>
    return XLinearOp(alg.dim, {0: _slot_part(c.ints(), 0, alg.dim, _NO_X)},
                     2 * nu.denominator * alg._gram[1] * u.den * v.den) - moment_s(alg, u, v)


def xlinear_x(alg: Algebra, nu, u) -> XLinearOp:
    """X~_u(nu) = <x|{D u D}> + nu tr(u D): the symbol moment_x plus nu tr(u D)."""
    nur = Fraction(nu) * alg.rho
    t1 = _slot_part((nur.numerator * u.exact()).ints()[..., None, :], 1, alg.dim, _NO_X)
    return moment_x(alg, u) + XLinearOp(alg.dim, {1: t1}, nur.denominator * u.den)


def tkk_op_residual(alg: Algebra, name: str, nu, u, v, z, w) -> XLinearOp:
    """Residual of one relation family for S, X~ and Y~ under the commutator;
    that of S, X, Y is -1, -1, 1, i, -i, 1 times it for XX, YY, XY, SX, SY, SS
    ([iA, iB] = -[A, B], [iA, -iB] = [A, B]), so it is zero iff that holds."""
    return relation_residual(alg, name, bracket, lambda a, b: xlinear_s(alg, nu, a, b),
                             lambda a: xlinear_x(alg, nu, a), lambda b: moment_y(alg, b),
                             u, v, z, w)


def verify_tkk_ops(alg: Algebra, nu, trials: int = 30, seed: int = 0) -> list:
    """Exact normal-form check of all six families on random rational 4-tuples."""
    return check_relations(alg, "operators",
                           lambda name, *t: tkk_op_residual(alg, name, nu, *t),
                           trials, seed, nu=str(nu))


# --- Wallach parameter -----------------------------------------------------------

def wallach_set(alg: Algebra) -> tuple[list[Fraction], Fraction]:
    """The nonzero Wallach set W(V): its discrete points k*delta/2 (1 <= k < rho)
    and the threshold (rho-1)*delta/2 above which every nu belongs to it."""
    half = Fraction(alg.delta, 2)
    return [k * half for k in range(1, alg.rho)], (alg.rho - 1) * half


@dataclass(frozen=True)
class WallachParam:
    """Nonzero Wallach parameter nu with its kind and associated cone rank."""

    value: Fraction
    kind: str      # "discrete" or "continuous"
    k: int | None
    rho_of_nu: int

    @classmethod
    def make(cls, alg: Algebra, nu) -> "WallachParam":
        if isinstance(nu, WallachParam):
            return nu
        if not isinstance(nu, (int, Fraction)):
            raise DomainError(f"nu = {nu!r} is not an int or a Fraction")
        nu_f = Fraction(nu)
        if nu_f <= 0:
            raise DomainError(
                f"nu = {nu} is not in the nonzero Wallach set of {alg.spec}: need "
                f"nu = k*delta/2 (1 <= k < rho) or nu > (rho-1)*delta/2")
        discrete, top = wallach_set(alg)
        if nu_f > top:
            return cls(nu_f, "continuous", None, alg.rho)
        if nu_f in discrete:
            k = discrete.index(nu_f) + 1
            return cls(nu_f, "discrete", k, k)
        raise DomainError(
            f"nu = {nu} is not in the nonzero Wallach set of {alg.spec}: need "
            f"nu = k*delta/2 (1 <= k < rho) or nu > (rho-1)*delta/2 = {top}")


def bound_spectrum(alg: Algebra, nu, level: int):
    """Bound-state energy E_I = -(1/2) / (I + nu rho/2)^2."""
    if level < 0:
        raise DomainError("level index must be >= 0")
    param = WallachParam.make(alg, nu)
    return -Fraction(1, 2) / (level + param.value * alg.rho / 2) ** 2


# --- grading and lowest weight ----------------------------------------------------

_MONOMIALS = 1 << 14  # degree-I monomials the grading check decides together


def he_grading_checks(alg: Algebra, nu, levels) -> list:
    """Exact leading-term check, one per degree I in levels: on homogeneous
    degree-I monomials, the conjugated H_e acts as 2I + nu rho plus
    lower-degree terms.

    H_e = i (X_e(nu) + Y_e(nu)) = Y~_e - X~_e conjugated, once for every
    level, is c_0 + sum_g l_g x_g + sum_gi M_gi x_g D_i plus terms that lower
    the degree.  On x^alpha the l_g x_g give degree I + 1, so with l != 0
    every monomial fails.  Otherwise the degree-I part is (c_0 + sum_i
    alpha_i M_ii) x^alpha plus the words alpha_i M_gi x^(alpha - e_i + e_g),
    g != i, distinct monomials that cannot cancel; so x^alpha passes iff that
    coefficient is 2I + nu rho and alpha_i = 0 on each column i of M with an
    off-diagonal entry.  The monomials are checked _MONOMIALS at a time, in
    combinations_with_replacement order; `checked` counts those before the
    first failure."""
    levels = list(levels)
    if any(i < 0 for i in levels):
        raise DomainError("degree must be >= 0")
    n = alg.dim
    e = alg.identity()
    r = moment_y(alg, e)
    conj = conjugate(r - xlinear_x(alg, nu, e), r)
    p0, m = conj.parts[0], conj.parts[1][1:]  # m[g, i]: x_g D_i
    diag = np.diagonal(m)
    weights = ExactArray(diag)
    raising = np.count_nonzero(p0[1:]) > 0
    mixing = np.count_nonzero(m - np.diag(diag), axis=0) > 0
    checks = []
    for degree in levels:
        eig = 2 * degree + Fraction(nu) * alg.rho
        target = eig * conj.den
        monomials = itertools.combinations_with_replacement(range(n), degree)
        checked, witness = 0, None
        while witness is None and (block := list(itertools.islice(monomials, _MONOMIALS))):
            idx = np.fromiter(itertools.chain.from_iterable(block), np.int64, len(block) * degree)
            exps = np.bincount(idx + n * np.repeat(np.arange(len(block)), degree),  # index + n * row
                               minlength=len(block) * n).reshape(len(block), n)
            eigen = (ExactArray(exps) @ weights).ints()
            failed = np.flatnonzero(raising | (eigen != target - int(p0[0]))
                                    | (exps[:, mixing] > 0).any(axis=1))
            checked += int(failed[0]) if len(failed) else len(exps)
            witness = {"monomial": exps[failed[0]].tolist()} if len(failed) else None
        checks.append({"name": f"grading:I={degree}",
                       "status": "pass" if witness is None else "fail", "metric": "exact",
                       "eigenvalue": str(eig), "checked": checked, "witness": witness})
    return checks


def lowest_weight_check(alg: Algebra, nu) -> dict:
    """psi_0 = e^{-r} is annihilated by the realized compact generators (the
    derivations [L_{e_a}, L_{e_b}] on every basis pair a < b, which span that
    sector, and a basis of compact translations) and by E_{-alpha_0}, and is
    an H_{alpha_0} eigenvector with eigenvalue nu.  A generator sends psi_0 to
    e^{-r} q, q a constant and a linear form that phase.vacuum reads from its
    symbol by one contraction.  Each sector takes one builder call per block
    of _blocks: S on the basis pairs in both orders, [L_u, L_v] = (S_uv -
    S_vu)/2, and X~ on the translations, against Y~.  Each generator is
    checked up to a nonzero factor, which does not change whether q
    vanishes.  The witness names the first failing basis pair and every
    failing translation; `checked` counts the basis pairs before the first
    failing one and the translations."""
    n = alg.dim
    e = alg.identity()
    r = moment_y(alg, e)

    def differ(a: XLinearOp, b: XLinearOp) -> np.ndarray:
        """The rows of two stacks where a psi_0 != b psi_0; [0] or [] for two symbols."""
        (qa, da), (qb, db) = vacuum(a, r), vacuum(b, r)
        return np.flatnonzero(((db * ExactArray(qa) - da * ExactArray(qb)).array != 0).any(axis=-1))

    def coords(w: Element) -> list:
        return [str(c) for c in w.coords]

    failures = []
    # derivation sector: S_uv psi_0 = S_vu psi_0 on every basis pair, the rows
    # of one stack (u, v) then (v, u), so both are over one den
    pairs, unit = list(itertools.combinations(range(n), 2)), np.eye(n, dtype=np.int64)
    checked = {"derivation-pairs": 0, "compact-translations": 0}
    for block in _blocks(len(pairs), 2 * n * n):
        a, b = map(list, zip(*pairs[block]))
        q = vacuum(xlinear_s(alg, nu, Stack(alg, ExactArray(unit[a + b], 1)),
                             Stack(alg, ExactArray(unit[b + a], 1))), r)[0]
        bad = np.flatnonzero((q[:len(a)] != q[len(a):]).any(axis=-1))
        checked["derivation-pairs"] += int(bad[0]) if len(bad) else len(a)
        if len(bad):
            first = pairs[checked["derivation-pairs"]]
            failures.append({"check": "derivation",
                             **{k: coords(alg.basis_element(i)) for k, i in zip("uv", first)}})
            break
    # compact translations X_w + Y_w = i (X~_w - Y~_w) with w orthogonal to e
    perp = alg.e_perp_basis()
    for block in _blocks(len(perp), n ** 3):
        w = Stack.of(perp[block])
        failures += [{"check": "compact-translation", "w": coords(perp[block][k])}
                     for k in differ(xlinear_x(alg, nu, w), moment_y(alg, w))]
        checked["compact-translations"] += len(perp[block])
    # alpha_0 sl2 data: E_-alpha0 = (i/2)(X_c - Y_c) + S_ce = S_ce - (X~_c + Y~_c)/2,
    # H_alpha0 = i (X_c + Y_c) = Y~_c - X~_c
    c = alg.jordan_frame()[0]
    xc, yc = xlinear_x(alg, nu, c), moment_y(alg, c)
    if len(differ(2 * xlinear_s(alg, nu, c, e), xc + yc)):
        failures.append({"check": "E_-alpha0"})
    q, den = vacuum(yc - xc, r)  # the constant, then x_0 .. x_{n-1}, over den
    if int(q[0]) != Fraction(nu) * den or np.count_nonzero(q[1:]):
        # terms in the order of the word-by-word action: by the first word of
        # Y~_c - X~_c with each x part
        slot = {0: 0, **{field(g): g + 1 for g in range(n)}}
        words = (yc.poly() - xc.poly()).nums
        got = Poly._make(n, {k: int(q[slot[k]]) for k in
                             dict.fromkeys(k & (field(n) - 1) for k in words)}, den)
        failures.append({"check": "H_alpha0", "got": {str(k): str(v) for k, v in got.terms.items()}})
    return {"name": "lowest-weight", "status": "pass" if not failures else "fail",
            "metric": "exact", "weight": f"{nu}*lambda0",
            "checked": checked, "witness": failures or None}


# --- degeneracies by exact restriction rank ------------------------------------------

_BLOCK = 32  # points evaluated and reduced together


def _cone_points(alg: Algebra, k: int, count: int, rng) -> np.ndarray:
    """count points 4 sum_{i<k} P(y_i) c_1 mod _PRIME of the rank-<=k cone, each
    y_i uniform in F_p^n; 4 P(y) c = 2 twice(y, twice(y, c)) - twice(twice(y, y), c)."""
    c2 = alg._c2.reshape(alg.dim, -1)  # small integers

    def twice(u, v):  # rows of 2uv = sum_ab c2[a, b, :] u_a v_b
        t = ((u @ c2) % _PRIME).reshape(v.shape + (-1,))
        return ((t * v[:, :, None]) % _PRIME).sum(axis=1) % _PRIME

    c1 = alg.jordan_frame()[0]
    c = np.tile([v * pow(c1.den, -1, _PRIME) % _PRIME for v in c1.nums], (count, 1))
    return sum(2 * twice(y, twice(y, c)) - twice(twice(y, y), c)
               for y in rng.integers(0, _PRIME, (k,) + c.shape)) % _PRIME


def restriction_degeneracy(alg: Algebra, nu, degree: int, seed: int = 0) -> int:
    """Dimension of the degree-I piece of polynomials restricted to the cone of
    rank k = rho(nu) (its ideal is homogeneous): the rank of the table E of
    the degree-I monomials at points x = sum_{i<=k} P(y_i) c_1 of that cone.

    E is never built: G_ij = (x_i . x_j)^I is E D E^T with D = diag(I!/alpha!)
    > 0 (multinomial theorem), so rank_Q G = rank_Q E.  Each block X of
    points adds the rank of its Schur complement G(X,X) - G(X,S) G(S,S)^-1
    G(S,X) to the points S kept; a deficient block or rank dim P_I ends the
    count, else X joins S and G(S,S)^-1 grows by the block-inverse formula.
    All of it runs mod p = 2^31 - 1 at integer cone points, where rank can
    only drop: a certified lower bound on the true rank r.  It is exact unless
    the leading principal minor of size m = min(|S| + |X|, r) vanishes mod p
    after a block, a polynomial of degree at most 4Im in the uniform y_i,
    nonzero over Q: by Schwartz-Zippel (if nonzero mod p) a chance of at most
    4Im/p per block, about 2 10^-6 at I = 9, m = 120."""
    param = WallachParam.make(alg, nu)
    if degree < 0:
        raise DomainError("degree must be >= 0")
    width = math.comb(alg.dim + degree - 1, degree)
    rng = np.random.default_rng(seed)
    points = np.zeros((0, alg.dim), dtype=np.int64)  # S
    ginv = np.zeros((0, 0), dtype=np.int64)          # G(S,S)^-1, symmetric
    while len(points) < width:
        x = _cone_points(alg, param.rho_of_nu, min(_BLOCK, width - len(points)), rng)
        dots = _matmul_mod(x, _limbs(np.vstack([points, x]).T))
        g = np.ones_like(dots)
        for _ in range(degree):
            g = g * dots % _PRIME
        b, c = g[:, :len(points)], g[:, len(points):]      # G(X,S), G(X,X)
        w = _matmul_mod(b, _limbs(ginv))                   # G(X,S) G(S,S)^-1
        schur = _sub(c, _matmul_mod(w, _limbs(b.T)))       # Sigma
        rank, schur_inv = rank_inverse(schur)
        if schur_inv is None:
            return len(points) + rank
        # G(S+X, S+X)^-1 = [[G(S,S)^-1 - v w, v], [v^T, Sigma^-1]], v = -w^T Sigma^-1
        v = _sub(0, _matmul_mod(w.T, _limbs(schur_inv)))
        ginv = np.block([[_sub(ginv, _matmul_mod(v, _limbs(w))), v], [v.T, schur_inv]])
        points = np.vstack([points, x])
    return len(points)
