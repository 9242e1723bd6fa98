"""Normal-ordered differential operators on polynomials over V.

A WeylOp is a sparse sum of normal-ordered words x^A d^B (all multiplication
factors left of all derivatives) with exact complex-rational coefficients.
Composition uses the Leibniz exchange rule

    d^B x^C = sum_s  C(B,s) C!/(C-s)!  x^{C-s} d^{B-s}    (componentwise),

so equality of operators is coefficient equality of normal forms and every
commutation relation becomes a decidable exact check.

The nu-parametrized realization of the conformal algebra acts on states
psi = e^{-r} p with p polynomial; operators act on p through conjugation by
e^{r}, which is the constant shift d_a -> d_a - (Ge)_a.

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
from .poly import MismatchError, Poly, monomial_key, same_nvars
from .scalars import CQ

_I = CQ(0, 1)


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

def _shift_coeffs(alg: Algebra) -> list:
    """d_a r = (Ge)_a: the constant shift produced by conjugating with e^r."""
    e = alg.identity()
    return [g * c for g, c in zip(alg.gram, e.coords)]


def gaussian_conjugate(alg: Algebra, op: WeylOp, outer_sign: int = 1) -> WeylOp:
    """e^{sr} op e^{-sr} with s = outer_sign: the substitution d_a -> d_a - s (Ge)_a."""
    sh = _shift_coeffs(alg)
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


def acute_s(alg: Algebra, nu, u: Element, v: Element) -> WeylOp:
    """S_uv(nu) = -<S_uv(x)|D> - (nu/2) tr(uv)."""
    n = alg.dim
    s = alg.smul_matrix(u, v)
    terms = {monomial_key(2 * n, b, n + a): -Fraction(s[a, b])
             for a in range(n) for b in range(n) if s[a, b]}
    tr_uv = alg.rho * alg.inner(u, v)
    terms[(0,) * (2 * n)] = -Fraction(nu) * tr_uv / 2
    return WeylOp(2 * n, terms)


def acute_x(alg: Algebra, nu, u: Element) -> WeylOp:
    """X_u(nu) = i <x|{D u D}> + i nu tr(u D)."""
    n = alg.dim
    t = alg.dual_triple_tensor(u)
    words = [(monomial_key(2 * n, g, n + a, n + b), _I * t[a, b, g])
             for a in range(n) for b in range(n) for g in range(n) if t[a, b, g]]
    nur = Fraction(nu) * alg.rho
    words += [(monomial_key(2 * n, n + a), _I * (nur * u.coords[a])) for a in range(n)]
    return WeylOp.from_pairs(2 * n, words)


def acute_y(alg: Algebra, nu, v: Element) -> WeylOp:
    """Y_v(nu) = -i <x|v> (multiplication operator; nu-independent)."""
    n = alg.dim
    return WeylOp(2 * n, {monomial_key(2 * n, a): -_I * (alg.gram[a] * v.coords[a])
                          for a in range(n)})


def acute_ops(alg: Algebra, nu, u: Element, v: Element):
    """(S_uv(nu), X_u(nu), Y_v(nu)) as normal-form operators; nu rational."""
    return acute_s(alg, nu, u, v), acute_x(alg, nu, u), acute_y(alg, nu, v)


_RELATIONS = ("XX", "YY", "XY", "SX", "SY", "SS")


def tkk_op_residual(alg: Algebra, name: str, nu, u, v, z, w) -> WeylOp:
    """Residual of one operator commutation-relation family (zero iff it holds)."""
    if name == "XX":
        return commutator(acute_x(alg, nu, u), acute_x(alg, nu, v))
    if name == "YY":
        return commutator(acute_y(alg, nu, u), acute_y(alg, nu, v))
    if name == "XY":
        return commutator(acute_x(alg, nu, u), acute_y(alg, nu, v)) + 2 * acute_s(alg, nu, u, v)
    if name == "SX":
        return commutator(acute_s(alg, nu, u, v), acute_x(alg, nu, z)) - acute_x(alg, nu, alg.triple(u, v, z))
    if name == "SY":
        return commutator(acute_s(alg, nu, u, v), acute_y(alg, nu, z)) + acute_y(alg, nu, alg.triple(v, u, z))
    if name == "SS":
        lhs = commutator(acute_s(alg, nu, u, v), acute_s(alg, nu, z, w))
        return lhs - acute_s(alg, nu, alg.triple(u, v, z), w) + acute_s(alg, nu, z, alg.triple(v, u, w))
    raise ValueError(f"unknown relation family {name!r}")


def verify_tkk_ops(alg: Algebra, nu, trials: int = 30, seed: int = 0) -> list:
    """Exact normal-form check of all six families on random rational 4-tuples."""
    rng = np.random.default_rng(seed)
    tuples = [tuple(alg.random_element(rng, span=4) for _ in range(4)) for _ in range(trials)]
    checks = []
    for name in _RELATIONS:
        witness = None
        for (u, v, z, w) in tuples:
            if not tkk_op_residual(alg, name, nu, u, v, z, w).is_zero():
                witness = {"relation": name, "nu": str(nu),
                           "u": [str(c) for c in u.coords], "v": [str(c) for c in v.coords],
                           "z": [str(c) for c in z.coords], "w": [str(c) for c in w.coords]}
                break
        checks.append({"name": f"operators:{name}", "status": "pass" if witness is None else "fail",
                       "metric": "exact", "witness": witness})
    return checks


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
    """H_e realized: i (X_e(nu) + Y_e(nu))."""
    e = alg.identity()
    return _I * (acute_x(alg, nu, e) + acute_y(alg, nu, e))


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
    # compact translations X_w + Y_w with w orthogonal to e
    for w in alg.e_perp_basis():
        op = acute_x(alg, nu, w) + acute_y(alg, nu, w)
        if not apply_to_state(alg, op, vac).is_zero():
            failures.append({"check": "compact-translation", "w": [str(c) for c in w.coords]})
    # alpha_0 sl2 data over the first frame idempotent
    c = alg.jordan_frame()[0]
    half_i = CQ(0, Fraction(1, 2))
    e_minus = (half_i * (acute_x(alg, nu, c) - acute_y(alg, nu, c))
               + acute_s(alg, nu, c, alg.identity()))
    if not apply_to_state(alg, e_minus, vac).is_zero():
        failures.append({"check": "E_-alpha0"})
    h_a0 = _I * (acute_x(alg, nu, c) + acute_y(alg, nu, c))
    got = apply_to_state(alg, h_a0, vac)
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


def _monomials_up_to(n: int, d: int) -> list:
    out = []
    for deg in range(d + 1):
        out.extend(_monomials_of_degree(n, deg))
    return out


# --- degeneracies by restriction rank ----------------------------------------------

def _restriction_ranks(alg: Algebra, param: WallachParam, degree: int,
                       samples: int | None, seed: int) -> tuple[int, int]:
    """(rank of degree <= I evaluations, rank of degree <= I-1 evaluations),
    cross-validated on two disjoint sample sets; instability raises."""
    from .cone import sample_cone_point

    n = alg.dim
    monos = _monomials_up_to(n, degree)
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
