"""Normal-ordered differential operators on polynomials over V.

A WeylOp is a sparse sum of normal-ordered words x^A d^B (all multiplication
factors left of all derivatives) with exact coefficients.  Composition uses
the Leibniz exchange rule

    d^B x^C = sum_s  C(B,s) C!/(C-s)!  x^{C-s} d^{B-s}    (componentwise),

so equality of operators is coefficient equality of normal forms and every
commutation relation becomes a decidable exact check.

The nu-parametrized realization quantizes the phase-space moments (p -> D):

    S_uv(nu) = -<S_uv(x)|D> - (nu/2) tr(uv),
    X_u(nu) = i X~_u(nu),  X~_u(nu) = <x|{D u D}> + nu tr(u D),
    Y_v(nu) = -i Y~_v,     Y~_v = <x|v>.

Every check runs on the rational S, X~ and Y~ (each complex residual is a
unit times the rational one), with the relation table of the Poisson
realization (phase.relation_residual) and the commutator as bracket.
It acts on states psi = e^{-r} p with p polynomial; operators act on p
through conjugation by e^{r}, which is the constant shift d_a -> d_a - (Ge)_a.

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

from .algebra import DomainError, Algebra, Element
from .phase import (_r_coeffs, check_relations, moment_s, moment_x, moment_y,
                    relation_residual)
from .poly import MismatchError, Poly, monomial_key, same_nvars
from .scalars import CQ


def _ff(c: int, s: int) -> int:
    """Falling factorial c (c-1) ... (c-s+1)."""
    out = 1
    for t in range(s):
        out *= c - t
    return out


class WeylOp(Poly):
    """Sparse normal-ordered operator: a Poly in 2n variables, the x exponents
    then the d exponents of each word x^A d^B.  Its product is composition,
    so a * b never silently multiplies commutatively."""

    __slots__ = ()

    @classmethod
    def x_mul(cls, nvars, a) -> "WeylOp":
        return cls.var(nvars, a)

    @classmethod
    def d_op(cls, nvars, a) -> "WeylOp":
        return cls.var(nvars, nvars // 2 + a)

    def _product(self, other):
        return compose(self, other)


def compose(a: WeylOp, b: WeylOp) -> WeylOp:
    """Normal-ordered product ab."""
    same_nvars(a, b)
    n = a.nvars // 2
    right = [(k[:n], k[n:], c) for k, c in b.terms.items()]

    def words():
        for k, ca in a.terms.items():
            A, B = k[:n], k[n:]
            for C, D, cb in right:
                base = ca * cb
                ranges = [range(min(bi, ci) + 1) for bi, ci in zip(B, C)]
                for s in itertools.product(*ranges):
                    coef = base
                    for bi, ci, si in zip(B, C, s):
                        if si:
                            coef = coef * (math.comb(bi, si) * _ff(ci, si))
                    yield (tuple(ai + ci - si for ai, ci, si in zip(A, C, s))
                           + tuple(bi + di - si for bi, di, si in zip(B, D, s))), coef

    return WeylOp.from_pairs(a.nvars, words())


def commutator(a: WeylOp, b: WeylOp) -> WeylOp:
    return compose(a, b) - compose(b, a)


def apply_op(op: WeylOp, p: Poly) -> Poly:
    """Apply a normal-ordered operator to a plain polynomial p, the state
    psi = e^{-r} p."""
    if op.nvars != 2 * p.nvars:
        raise MismatchError("operator and state over different variable counts")
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


# --- the nu-parametrized (acute) realization -----------------------------------

def gaussian_conjugate(alg: Algebra, op: WeylOp, outer_sign: int = 1) -> WeylOp:
    """e^{sr} op e^{-sr} with s = outer_sign: the substitution d_a -> d_a - s (Ge)_a,
    where (Ge)_a = d_a r."""
    sh = _r_coeffs(alg)
    n = op.nvars // 2

    def words():
        for k, c in op.terms.items():
            A, B = k[:n], k[n:]
            for s in itertools.product(*[range(bi + 1) for bi in B]):
                coef = c
                for a, (bi, si) in enumerate(zip(B, s)):
                    if bi - si:
                        coef = coef * math.comb(bi, si) * (-outer_sign * sh[a]) ** (bi - si)
                yield A + s, coef

    return WeylOp.from_pairs(op.nvars, words())


def apply_to_state(alg: Algebra, op: WeylOp, p: Poly) -> Poly:
    """Action on psi = e^{-r} p: returns q with op psi = e^{-r} q."""
    return apply_op(gaussian_conjugate(alg, op), p)


def _quantized(p: Poly) -> WeylOp:
    """A moment Poly read as an operator: the p block becomes the D block."""
    return WeylOp(p.nvars, p.terms)


def acute_s(alg: Algebra, nu, u: Element, v: Element) -> WeylOp:
    """S_uv(nu) = -<S_uv(x)|D> - (nu/2) tr(uv)."""
    tr_uv = alg.rho * alg.inner(u, v)
    return (-_quantized(moment_s(alg, u, v))
            - WeylOp.constant(2 * alg.dim, Fraction(nu) * tr_uv / 2))


def x_tilde(alg: Algebra, nu, u: Element) -> WeylOp:
    """X~_u(nu) = <x|{D u D}> + nu tr(u D), so that X_u(nu) = i X~_u(nu)."""
    n = alg.dim
    nur = Fraction(nu) * alg.rho
    return _quantized(moment_x(alg, u)) + WeylOp(
        2 * n, {monomial_key(2 * n, n + a): nur * u.coords[a] for a in range(n)})


def y_tilde(alg: Algebra, v: Element) -> WeylOp:
    """Y~_v = <x|v>, so that Y_v(nu) = -i Y~_v."""
    return _quantized(moment_y(alg, v))


def acute_x(alg: Algebra, nu, u: Element) -> WeylOp:
    """X_u(nu) = i <x|{D u D}> + i nu tr(u D)."""
    return x_tilde(alg, nu, u).scaled(CQ(0, 1))


def acute_y(alg: Algebra, nu, v: Element) -> WeylOp:
    """Y_v(nu) = -i <x|v> (multiplication operator; nu-independent)."""
    return y_tilde(alg, v).scaled(CQ(0, -1))


def acute_ops(alg: Algebra, nu, u: Element, v: Element):
    """(S_uv(nu), X_u(nu), Y_v(nu)) as normal-form operators; nu rational."""
    return acute_s(alg, nu, u, v), acute_x(alg, nu, u), acute_y(alg, nu, v)


def tkk_op_residual(alg: Algebra, name: str, nu, u, v, z, w) -> WeylOp:
    """Residual of one relation family for S, X~ and Y~ under the commutator;
    that of S, X, Y is -1, -1, 1, i, -i, 1 times it for XX, YY, XY, SX, SY, SS
    ([iA, iB] = -[A, B], [iA, -iB] = [A, B]), so it is zero iff that holds."""
    return relation_residual(alg, name, commutator, lambda a, b: acute_s(alg, nu, a, b),
                             lambda a: x_tilde(alg, nu, a), lambda b: y_tilde(alg, b),
                             u, v, z, w)


def verify_tkk_ops(alg: Algebra, nu, trials: int = 30, seed: int = 0) -> list:
    """Exact normal-form check of all six families on random rational 4-tuples."""
    return check_relations(alg, "operators",
                           lambda name, *t: tkk_op_residual(alg, name, nu, *t),
                           trials, seed, nu=str(nu))


# --- Wallach parameter -----------------------------------------------------------

@dataclass(frozen=True)
class WallachParam:
    """Nonzero Wallach parameter nu with its kind and associated cone rank."""

    value: object  # Fraction or float
    kind: str      # "discrete" or "continuous"
    k: int | None
    rho_of_nu: int

    @classmethod
    def make(cls, alg: Algebra, nu) -> "WallachParam":
        if isinstance(nu, WallachParam):
            return nu
        exact = isinstance(nu, (int, Fraction))
        nu_f = Fraction(nu) if exact else float(nu)
        if not exact and not math.isfinite(nu_f):
            raise DomainError(f"nu = {nu} is not a finite number")
        if nu_f <= 0:
            raise DomainError(
                f"nu = {nu} is not in the nonzero Wallach set of {alg.spec}: need "
                f"nu = k*delta/2 (1 <= k < rho) or nu > (rho-1)*delta/2")
        top = Fraction(alg.rho - 1) * alg.delta / 2
        if nu_f > top:
            return cls(nu_f, "continuous", None, alg.rho)
        if exact:
            ratio = 2 * nu_f / alg.delta
            if ratio.denominator == 1 and 1 <= ratio <= alg.rho - 1:
                return cls(nu_f, "discrete", int(ratio), int(ratio))
        raise DomainError(
            f"nu = {nu} is not in the nonzero Wallach set of {alg.spec}: need "
            f"nu = k*delta/2 (1 <= k < rho) or nu > (rho-1)*delta/2 = {top}")


def bound_spectrum(alg: Algebra, nu, level: int):
    """Bound-state energy E_I = -(1/2) / (I + nu rho/2)^2."""
    if level < 0:
        raise DomainError("level index must be >= 0")
    param = WallachParam.make(alg, nu)
    shift = param.value * alg.rho / 2
    if isinstance(param.value, Fraction):
        return -Fraction(1, 2) / (level + shift) ** 2
    return -0.5 / float(level + shift) ** 2


# --- grading and lowest weight ----------------------------------------------------

def he_op(alg: Algebra, nu) -> WeylOp:
    """H_e realized: i (X_e(nu) + Y_e(nu)) = Y~_e - X~_e."""
    e = alg.identity()
    return y_tilde(alg, e) - x_tilde(alg, nu, e)


def he_grading_check(alg: Algebra, nu, degree: int) -> dict:
    """Exact leading-term check: on homogeneous degree-I monomials, the
    conjugated H_e acts as 2I + nu rho plus lower-degree terms."""
    if degree < 0:
        raise DomainError("degree must be >= 0")
    n = alg.dim
    conj = gaussian_conjugate(alg, he_op(alg, nu))
    eig = 2 * degree + Fraction(nu) * alg.rho
    checked = 0
    witness = None
    for exps in _monomials_of_degree(n, degree):
        p = Poly(n, {exps: Fraction(1)})
        q = apply_op(conj, p)
        if q.degree() > degree or not (q.graded_part(degree) - p.scaled(eig)).is_zero():
            witness = {"monomial": list(exps)}
            break
        checked += 1
    return {"name": f"grading:I={degree}", "status": "pass" if witness is None else "fail",
            "metric": "exact", "eigenvalue": str(eig), "checked": checked, "witness": witness}


def lowest_weight_check(alg: Algebra, nu, seed: int = 0, trials: int = 8) -> dict:
    """psi_0 = e^{-r} is annihilated by the realized compact generators and by
    E_{-alpha_0}, and is an H_{alpha_0} eigenvector with eigenvalue nu."""
    n = alg.dim
    vac = Poly.constant(n, Fraction(1))
    rng = np.random.default_rng(seed)
    failures = []
    # derivation sector [L_u, L_v] = (S_uv - S_vu)/2
    for _ in range(trials):
        u = alg.random_element(rng, span=4)
        v = alg.random_element(rng, span=4)
        op = (acute_s(alg, nu, u, v) - acute_s(alg, nu, v, u)).scaled(Fraction(1, 2))
        if not apply_to_state(alg, op, vac).is_zero():
            failures.append({"check": "derivation", "u": [str(c) for c in u.coords]})
    # compact translations X_w + Y_w = i (X~_w - Y~_w) with w orthogonal to e
    for w in alg.e_perp_basis():
        op = x_tilde(alg, nu, w) - y_tilde(alg, w)
        if not apply_to_state(alg, op, vac).is_zero():
            failures.append({"check": "compact-translation", "w": [str(c) for c in w.coords]})
    # alpha_0 sl2 data: E_-alpha0 = (i/2)(X_c - Y_c) + S_ce, H_alpha0 = i (X_c + Y_c)
    c = alg.jordan_frame()[0]
    xc, yc = x_tilde(alg, nu, c), y_tilde(alg, c)
    e_minus = acute_s(alg, nu, c, alg.identity()) - (xc + yc).scaled(Fraction(1, 2))
    if not apply_to_state(alg, e_minus, vac).is_zero():
        failures.append({"check": "E_-alpha0"})
    got = apply_to_state(alg, yc - xc, vac)  # H_alpha0
    if not (got - vac.scaled(Fraction(nu))).is_zero():
        failures.append({"check": "H_alpha0", "got": {str(k): str(v) for k, v in got.terms.items()}})
    return {"name": "lowest-weight", "status": "pass" if not failures else "fail",
            "metric": "exact", "weight": f"{nu}*lambda0", "witness": failures or None}


def _monomials_of_degree(n: int, d: int):
    if n == 1:
        yield (d,)
        return
    for first in range(d, -1, -1):
        for rest in _monomials_of_degree(n - 1, d - first):
            yield (first,) + rest


# --- degeneracies by restriction rank ----------------------------------------------

def _restriction_ranks(alg: Algebra, param: WallachParam, degree: int,
                       samples: int | None, seed: int) -> tuple[int, int]:
    """(rank of degree <= I evaluations, rank of degree <= I-1 evaluations),
    cross-validated on two disjoint sample sets; instability raises."""
    from .cone import sample_cone_point

    n = alg.dim
    monos = [m for deg in range(degree + 1) for m in _monomials_of_degree(n, deg)]
    ambient = len(monos)
    if samples is None:
        samples = 3 * ambient
    if samples < 3 * ambient:
        raise DomainError(f"need samples >= 3 x ambient dimension = {3 * ambient}")
    n_low = sum(1 for m in monos if sum(m) <= degree - 1)

    def ranks(point_seed_base):
        # r-normalize for conditioning, then re-dilate randomly: points on a
        # fixed r-slice would make r - const vanish identically and collapse
        # the degree filtration.
        pts = np.empty((samples, n))
        for i in range(samples):
            p = sample_cone_point(alg, param.rho_of_nu, point_seed_base + i)
            scale = np.random.default_rng(point_seed_base + 7 * i + 3).uniform(0.6, 1.6)
            pts[i] = p.x.coords * (scale / p.r)
        cols = np.empty((samples, ambient))
        for j, m in enumerate(monos):
            col = np.ones(samples)
            for a, e in enumerate(m):
                if e:
                    col = col * pts[:, a] ** e
            cols[:, j] = col
        sv_full = np.linalg.svd(cols, compute_uv=False)
        r_full = int(np.sum(sv_full > 1e-8 * sv_full[0]))
        if n_low:
            sv_low = np.linalg.svd(cols[:, :n_low], compute_uv=False)
            r_low = int(np.sum(sv_low > 1e-8 * sv_low[0]))
        else:
            r_low = 0
        return r_full, r_low

    base = np.random.SeedSequence(seed).generate_state(2)
    r1 = ranks(int(base[0]))
    r2 = ranks(int(base[1]))
    if r1 != r2:
        raise DomainError(f"restriction rank unstable across disjoint sample sets "
                          f"({r1} vs {r2}); increase samples")
    return r1


def restriction_rank(alg: Algebra, nu, degree: int, samples: int | None = None,
                     seed: int = 0) -> int:
    """SVD rank of the evaluation matrix of all degree <= I monomials at
    sampled points of the rank-rho(nu) cone."""
    param = WallachParam.make(alg, nu)
    if degree < 0:
        raise DomainError("degree must be >= 0")
    return _restriction_ranks(alg, param, degree, samples, seed)[0]


def restriction_degeneracy(alg: Algebra, nu, degree: int, samples: int | None = None,
                           seed: int = 0) -> int:
    """Dimension of the degree-I graded piece of polynomials restricted to the
    canonical cone of rank rho(nu), as a difference of SVD evaluation ranks."""
    param = WallachParam.make(alg, nu)
    if degree < 0:
        raise DomainError("degree must be >= 0")
    if degree == 0:
        return 1
    r_full, r_low = _restriction_ranks(alg, param, degree, samples, seed)
    return r_full - r_low
