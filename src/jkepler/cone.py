"""Canonical cones C_k as Riemannian manifolds.

Points of rank k are built as automorphism-transported positive frame
combinations, so frames, eigenvalues, projectors and pseudo-inverses are
known by construction and no general spectral theorem is needed.  All cone
numerics run in the orthonormal float frame, where the metric pairing is the
plain dot product.

The density function lambda_u is computed by two independent routes:

  route A (trace formula):
      2 lambda_u = -Tr((1/L_x) L_{ux})/2 + Tr(P_x L_u)
                   + (<u|x>/<e|x>) (Tr P_x / 2 - 1)

  route B (phi-function):
      4 lambda_u = Lhat_u(ln phi_k) + delta k tr(u),
      Lhat_u f = -<ux | grad f>,

with the gradient of ln phi_k assembled from closed-form derivatives of the
power-sum polynomials tau_k, c_k and of r; their agreement is a standing
cross-check.  The lifted operator r*Laplace acts on scalar fields carrying
exact gradient/Hessian data:

      (r Delta f)(x) = Tr(L_x Hess f(x)) + 2 lambda_{grad f(x)}(x).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .algebra import DomainError, FLOAT, Algebra, Element
from .symfun import c_poly, tau_poly
from .weyl import WallachParam


def cone_dim(alg: Algebra, k: int) -> int:
    """D_k = k [1 + (rho - (k+1)/2) delta], the dimension of C_k."""
    if not 1 <= k <= alg.rho:
        raise DomainError(f"cone rank must satisfy 1 <= k <= rho = {alg.rho}")
    return k + alg.delta * k * alg.rho - alg.delta * (k * (k + 1)) // 2


@dataclass
class ConePoint:
    """Rank-k semipositive element with cached frame and operator data."""

    algebra: Algebra
    k: int
    x: Element
    eigenvalues: np.ndarray        # descending, length k, all > 0
    frame_vectors: np.ndarray      # (rho, n): transported primitive idempotents
    lx: np.ndarray
    projector: np.ndarray
    pinv: np.ndarray
    r: float

    def tangent_project(self, u: np.ndarray) -> np.ndarray:
        return self.projector @ u


def _assemble_point(alg: Algebra, k: int, avals: np.ndarray, frame_vecs: np.ndarray) -> ConePoint:
    xc = avals @ frame_vecs[:k]
    x = Element(alg, xc, FLOAT)
    ck = frame_vecs[:k].sum(axis=0)
    lck = alg.lmul_matrix(Element(alg, ck, FLOAT))
    proj = 3.0 * lck - 2.0 * (lck @ lck)
    lx = alg.lmul_matrix(x)
    n = alg.dim
    pinv = np.linalg.solve(lx + (np.eye(n) - proj), proj)
    r = float(alg.inner(x, alg.identity(FLOAT)))
    return ConePoint(alg, k, x, np.asarray(avals, dtype=float), frame_vecs, lx, proj, pinv, r)


def sample_cone_point(alg: Algebra, k: int, seed: int, eigenvalues=None,
                      rotate: bool = True) -> ConePoint:
    """Deterministic rank-k cone point: exp(derivation) applied to a positive
    frame combination with distinct eigenvalues."""
    if not 1 <= k <= alg.rho:
        raise DomainError(f"cone rank must satisfy 1 <= k <= rho = {alg.rho}")
    rng = np.random.default_rng(seed)
    if eigenvalues is None:
        avals = np.sort(rng.uniform(0.5, 1.5, size=k))[::-1]
        avals += 0.08 * np.arange(k)[::-1]  # keep eigenvalues separated
    else:
        avals = np.asarray(eigenvalues, dtype=float)
        if len(avals) != k or np.any(avals <= 0) or np.any(np.diff(avals) > 0):
            raise DomainError("eigenvalues must be positive and non-increasing")
    frame = alg.jordan_frame()
    vecs = np.stack([f.to_float().coords for f in frame.idempotents])
    if rotate:
        g = alg.automorphism_sample(int(rng.integers(2**31)))
        vecs = vecs @ g.T
    return _assemble_point(alg, k, avals, vecs)


def radial_cone_point(alg: Algebra, avals) -> ConePoint:
    """Cone point sum a_i e_ii over the canonical (untransported) frame."""
    avals = np.asarray(avals, dtype=float)
    k = len(avals)
    frame = alg.jordan_frame()
    vecs = np.stack([f.to_float().coords for f in frame.idempotents])
    return _assemble_point(alg, k, avals, vecs)


# --- metric -------------------------------------------------------------------

def canonical_metric(p: ConePoint, u, v) -> float:
    """ds_K^2(u, v) = r <u | (1/L_x) | v>; inputs are projected to Im L_x."""
    uc = u.coords if isinstance(u, Element) else np.asarray(u, dtype=float)
    vc = v.coords if isinstance(v, Element) else np.asarray(v, dtype=float)
    if p.k == 0:
        raise DomainError("zero-rank point has no tangent space")
    uc = p.tangent_project(uc)
    vc = p.tangent_project(vc)
    return float(p.r * (uc @ p.pinv @ vc))


def co_metric(p: ConePoint, a, b) -> float:
    """Inverse metric on covectors: <a | L_x | b> / r."""
    ac = a.coords if isinstance(a, Element) else np.asarray(a, dtype=float)
    bc = b.coords if isinstance(b, Element) else np.asarray(b, dtype=float)
    return float((ac @ p.lx @ bc) / p.r)


def kepler_metric_crosscheck(alg: Algebra, samples: int = 50, seed: int = 0) -> dict:
    """On C_1, the canonical metric equals (2/rho)<u|v> - <e|u><e|v>."""
    rng = np.random.default_rng(seed)
    ef = alg.identity(FLOAT).coords
    worst = 0.0
    for i in range(samples):
        p = sample_cone_point(alg, 1, seed * 100003 + i)
        u = p.tangent_project(rng.standard_normal(alg.dim))
        v = p.tangent_project(rng.standard_normal(alg.dim))
        m1 = canonical_metric(p, u, v)
        m2 = (2.0 / alg.rho) * (u @ v) - (ef @ u) * (ef @ v)
        worst = max(worst, abs(m1 - m2) / max(1.0, abs(m1)))
    status = "pass" if worst < 1e-9 else "fail"
    return {"name": "kepler-metric-crosscheck", "status": status,
            "metric": worst, "witness": None if status == "pass" else {"max_rel": worst}}


# --- scalar fields with exact derivative data -----------------------------------

class ScalarField:
    """Interface: value(x), grad(x), hess(x) for coords in the float frame."""

    def value(self, x):
        raise NotImplementedError

    def grad(self, x):
        raise NotImplementedError

    def hess(self, x):
        raise NotImplementedError


class ConstField(ScalarField):
    def __init__(self, alg: Algebra, c: float):
        self.alg = alg
        self.c = float(c)

    def value(self, x):
        return self.c

    def grad(self, x):
        return np.zeros(self.alg.dim)

    def hess(self, x):
        return np.zeros((self.alg.dim, self.alg.dim))


class LinearField(ScalarField):
    """f(x) = <u|x>."""

    def __init__(self, alg: Algebra, u):
        self.alg = alg
        self.u = u.coords if isinstance(u, Element) else np.asarray(u, dtype=float)

    def value(self, x):
        return float(self.u @ x)

    def grad(self, x):
        return self.u.copy()

    def hess(self, x):
        return np.zeros((self.alg.dim, self.alg.dim))


class ProductField(ScalarField):
    def __init__(self, f: ScalarField, g: ScalarField):
        self.f, self.g = f, g

    def value(self, x):
        return self.f.value(x) * self.g.value(x)

    def grad(self, x):
        return self.f.value(x) * self.g.grad(x) + self.g.value(x) * self.f.grad(x)

    def hess(self, x):
        gf, gg = self.f.grad(x), self.g.grad(x)
        return (self.f.value(x) * self.g.hess(x) + self.g.value(x) * self.f.hess(x)
                + np.outer(gf, gg) + np.outer(gg, gf))


class SumField(ScalarField):
    def __init__(self, parts):
        self.parts = [(float(c), f) for c, f in parts]

    def value(self, x):
        return sum(c * f.value(x) for c, f in self.parts)

    def grad(self, x):
        return sum(c * f.grad(x) for c, f in self.parts)

    def hess(self, x):
        return sum(c * f.hess(x) for c, f in self.parts)


class SpectralField(ScalarField):
    """F(tr x, tr x^2, ..., tr x^m) for a power-sum polynomial F.

    Gradients and Hessians come from the closed forms
        grad tr x^m = m rho x^{m-1},
        Hess tr x^m = m rho sum_{i+l=m-2} L_x^i L_{x^l}.
    """

    def __init__(self, alg: Algebra, poly):
        self.alg = alg
        self.poly = poly
        self.m = poly.nvars

    def value(self, x):
        p = self._traces(x)
        return float(self.poly.value(p))

    def _traces(self, x):
        alg = self.alg
        xe = Element(alg, x, FLOAT)
        return [float(t) for t in alg.power_traces(xe, self.m)]

    def _pow_coords(self, x):
        """Coordinates of x^0 .. x^{m-1}."""
        alg = self.alg
        xe = Element(alg, x, FLOAT)
        out = [alg.identity(FLOAT).coords]
        cur = alg.identity(FLOAT)
        for _ in range(self.m - 1):
            cur = alg.product(cur, xe)
            out.append(cur.coords)
        return out

    def grad(self, x):
        p = self._traces(x)
        pows = self._pow_coords(x)
        g = np.zeros(self.alg.dim)
        for m in range(1, self.m + 1):
            fm = float(self.poly.partial(m - 1).value(p))
            if fm:
                g += fm * m * self.alg.rho * pows[m - 1]
        return g

    def hess(self, x):
        alg = self.alg
        p = self._traces(x)
        pows = self._pow_coords(x)
        lmats = [alg.lmul_matrix(Element(alg, c, FLOAT)) for c in pows]
        lx_pows = [np.eye(alg.dim)]
        for _ in range(self.m - 2):
            lx_pows.append(lx_pows[-1] @ lmats[1])
        h = np.zeros((alg.dim, alg.dim))
        for m in range(1, self.m + 1):
            fm = float(self.poly.partial(m - 1).value(p))
            if fm and m >= 2:
                acc = np.zeros_like(h)
                for i in range(m - 1):
                    acc += lx_pows[i] @ lmats[m - 2 - i]
                h += fm * m * alg.rho * acc
            for mp in range(1, self.m + 1):
                fmm = float(self.poly.partial(m - 1).partial(mp - 1).value(p))
                if fmm:
                    gm = m * alg.rho * pows[m - 1]
                    gmp = mp * alg.rho * pows[mp - 1]
                    h += fmm * np.outer(gm, gmp)
        return h


class LogField(ScalarField):
    """ln f for a positive field f."""

    def __init__(self, f: ScalarField):
        self.f = f

    def value(self, x):
        v = self.f.value(x)
        if v <= 0:
            raise DomainError("log of a non-positive field value")
        return math.log(v)

    def grad(self, x):
        return self.f.grad(x) / self.f.value(x)

    def hess(self, x):
        v = self.f.value(x)
        g = self.f.grad(x)
        return self.f.hess(x) / v - np.outer(g, g) / (v * v)


def linear_field(alg: Algebra, u) -> LinearField:
    return LinearField(alg, u)


def r_field(alg: Algebra) -> LinearField:
    return LinearField(alg, alg.identity(FLOAT))


def log_phi_field(alg: Algebra, k: int) -> SumField:
    """ln phi_k = delta ln tau_k + (delta-1) ln c_k + (2 - D_k) ln r."""
    parts = []
    if alg.delta and k >= 2:
        parts.append((alg.delta, LogField(SpectralField(alg, tau_poly(k)))))
    if alg.delta - 1:
        parts.append((alg.delta - 1, LogField(SpectralField(alg, c_poly(k)))))
    parts.append((2 - cone_dim(alg, k), LogField(r_field(alg))))
    return SumField(parts)


# --- lambda_u by two routes -------------------------------------------------------

def lambda_route_a(p: ConePoint, u) -> float:
    """Trace formula for lambda_u."""
    alg = p.algebra
    ue = u if isinstance(u, Element) else Element(alg, u, FLOAT)
    lux = alg.lmul_matrix(alg.product(ue, p.x))
    lu = alg.lmul_matrix(ue)
    trp = float(np.trace(p.projector))
    val = (-0.5 * float(np.trace(p.pinv @ lux))
           + float(np.trace(p.projector @ lu))
           + float(alg.inner(ue, p.x)) / p.r * (trp / 2.0 - 1.0))
    return val / 2.0


def lambda_route_b(p: ConePoint, u) -> float:
    """phi-function formula: 4 lambda_u = Lhat_u(ln phi_k) + delta k tr u."""
    alg = p.algebra
    ue = u if isinstance(u, Element) else Element(alg, u, FLOAT)
    g = log_phi_field(alg, p.k).grad(p.x.coords)
    ux = alg.product(ue, p.x).coords
    lhat = -float(ux @ g)
    return (lhat + alg.delta * p.k * float(alg.trace(ue))) / 4.0


def lambda_u(p: ConePoint, u, route: str = "a") -> float:
    """Density function lambda_u at a cone point; route 'a' (trace) or 'b' (phi)."""
    if route == "a":
        return lambda_route_a(p, u)
    if route == "b":
        return lambda_route_b(p, u)
    raise ValueError("route must be 'a' or 'b'")


def lambda_symmetry_check(alg: Algebra, k: int, seed: int = 0, step: float = 1e-5) -> dict:
    """Finite-difference symmetry Lhat_u(lambda_v) = Lhat_v(lambda_u).

    The flows x(t) = expm(-t L_u) x stay on the cone (structure group), so
    central differences with one Richardson step are well defined.
    """
    from scipy.linalg import expm

    rng = np.random.default_rng(seed)
    p = sample_cone_point(alg, k, seed + 17)
    u = alg.random_element(rng, FLOAT)
    v = alg.random_element(rng, FLOAT)

    def lam_at(xc, w):
        q = _point_from_coords(alg, xc, k)
        return lambda_route_a(q, w)

    def flow_derivative(w_gen, w_eval):
        lgen = alg.lmul_matrix(w_gen)

        def central(h):
            xp = expm(-h * lgen) @ p.x.coords
            xm = expm(h * lgen) @ p.x.coords
            return (lam_at(xp, w_eval) - lam_at(xm, w_eval)) / (2 * h)

        d1 = central(step)
        d2 = central(step / 2)
        return (4 * d2 - d1) / 3

    luv = flow_derivative(u, v)
    lvu = flow_derivative(v, u)
    diff = abs(luv - lvu) / max(1.0, abs(luv))
    status = "pass" if diff < 1e-6 else "fail"
    return {"name": f"lambda-symmetry:k={k}", "status": status, "metric": diff,
            "witness": None if status == "pass" else {"luv": luv, "lvu": lvu}}


def _point_from_coords(alg: Algebra, xc: np.ndarray, k: int) -> ConePoint:
    """Cone data for an arbitrary rank-k cone element via eigendecomposition
    of L_x (rank is known, frames are not needed)."""
    x = Element(alg, xc, FLOAT)
    lx = alg.lmul_matrix(x)
    w, vmat = np.linalg.eigh(lx)
    dk = cone_dim(alg, k)
    order = np.argsort(-np.abs(w))
    keep = order[:dk]
    wmax = np.abs(w[keep]).max()
    if np.abs(w[order[dk:]]).max(initial=0.0) > 1e-8 * wmax:
        raise DomainError("element does not have the expected cone rank")
    proj = vmat[:, keep] @ vmat[:, keep].T
    pinv = vmat[:, keep] @ np.diag(1.0 / w[keep]) @ vmat[:, keep].T
    r = float(alg.inner(x, alg.identity(FLOAT)))
    evs = alg.eigenvalues(x)[:k]
    return ConePoint(alg, k, x, evs, np.zeros((alg.rho, alg.dim)), lx, proj, pinv, r)


# --- phi-function and quantum potential -------------------------------------------

def phi_value(alg: Algebra, nu, p: ConePoint, normalized: bool = True) -> float:
    """phi(nu) at a cone point, via eigenvalues.

    Discrete nu = k delta/2: phi_k = tau_k^delta c_k^{delta-1} r^{2-D_k};
    continuous nu: phi_rho det(x)^{2 nu - rho delta}.  With normalized=True
    the value is divided by the value at the base point e[k] (all eigenvalues
    one), pinning the otherwise-free multiplicative constant.
    """
    param = WallachParam.make(alg, nu)
    k = param.rho_of_nu
    if p.k != k:
        raise DomainError(f"cone point has rank {p.k}, but rho(nu) = {k}")

    def phi_at(avals):
        val, ck = _phi_k(alg, k, avals)
        if param.kind == "continuous":
            val *= ck ** (2 * float(param.value) - alg.rho * alg.delta)
        return val

    out = phi_at(p.eigenvalues)
    if normalized:
        out /= phi_at(np.ones(k))
    return out


def r_laplace_apply(alg: Algebra, k: int, field: ScalarField, p: ConePoint) -> float:
    """(r Delta f)(x) = Tr(L_x Hess f) + 2 lambda_{grad f}(x)."""
    if p.k != k:
        raise DomainError("cone point rank does not match k")
    h = field.hess(p.x.coords)
    g = field.grad(p.x.coords)
    return float(np.trace(p.lx @ h)) + 2.0 * lambda_route_a(p, Element(alg, g, FLOAT))


def quantum_potential(alg: Algebra, nu, p: ConePoint) -> tuple[float, float]:
    """(U(nu), V(nu)) at a cone point of rank rho(nu).

    U = (r/4)(Delta ln phi + |d ln phi|^2 / 4) plus, for continuous nu,
    (rho/4)((nu - n/rho)^2 - (delta/2 - 1)^2) tr x^{-1}; V is evaluated
    independently from its own formula and satisfies V = U / (2r).
    """
    param = WallachParam.make(alg, nu)
    k = param.rho_of_nu
    if p.k != k:
        raise DomainError(f"cone point has rank {p.k}, but rho(nu) = {k}")
    if np.any(p.eigenvalues <= 1e-12):
        raise DomainError("point is on the cone boundary")
    lnphi = log_phi_field(alg, k)
    lap = r_laplace_apply(alg, k, lnphi, p) / p.r
    g = p.tangent_project(lnphi.grad(p.x.coords))
    dsq = co_metric(p, g, g)
    u_val = (p.r / 4.0) * (lap + dsq / 4.0)
    v_val = (lap + dsq / 4.0) / 8.0
    if param.kind == "continuous":
        trinv = float(np.sum(1.0 / p.eigenvalues))
        nuf = float(param.value)
        coef = ((nuf - alg.dim / alg.rho) ** 2 - (alg.delta / 2.0 - 1.0) ** 2)
        u_val += (alg.rho / 4.0) * coef * trinv
        v_val += (alg.rho / 8.0) * coef * trinv / p.r
    return u_val, v_val


# --- polar chart and the measure ----------------------------------------------------

@dataclass
class PolarChart:
    """Chart data at a radial point a_1 > ... > a_k > 0 of C_k."""

    algebra: Algebra
    k: int
    avals: np.ndarray
    generators: list          # [L_{e_ii}, L_{e_ij^mu}] commutators, i <= k
    point: ConePoint

    @property
    def generator_count(self) -> int:
        return len(self.generators)


def polar_chart(alg: Algebra, k: int, avals) -> PolarChart:
    avals = np.asarray(avals, dtype=float)
    if len(avals) != k or np.any(avals <= 0) or np.any(np.diff(avals) >= 0):
        raise DomainError("radial point needs strictly decreasing positive entries")
    frame = alg.jordan_frame()
    basis = alg.jordan_basis(frame)
    lframe = [alg.lmul_matrix(f.to_float()) for f in frame.idempotents]
    gens = []
    for label, vec in basis:
        if ":" not in label:
            continue
        ij = label[1:].split(":")[0]
        i = int(ij[0])
        if i > k:
            continue
        lv = alg.lmul_matrix(vec)
        gens.append(lframe[i - 1] @ lv - lv @ lframe[i - 1])
    point = radial_cone_point(alg, avals)
    return PolarChart(alg, k, avals, gens, point)


def radial_density(alg: Algebra, k: int, avals) -> float:
    """Radial factor of the measure: prod_{i<j<=k}(a_i-a_j)^delta *
    prod_i a_i^{(delta/2)(rho-k+1)-1}."""
    avals = np.asarray(avals, dtype=float)
    if len(avals) != k or np.any(avals <= 0) or np.any(np.diff(avals) >= 0):
        raise DomainError("radial point needs strictly decreasing positive entries")
    out = 1.0
    for i in range(k):
        for j in range(i + 1, k):
            out *= (avals[i] - avals[j]) ** alg.delta
    expo = (alg.delta / 2.0) * (alg.rho - k + 1) - 1.0
    out *= float(np.prod(avals ** expo))
    return out


def chart_measure_density(chart: PolarChart) -> float:
    """sqrt(phi_k)/r times the chart volume density sqrt(det h) at the radial
    point, with h the canonical-metric Gram matrix of the chart tangents."""
    alg = chart.algebra
    p = chart.point
    tangents = [f.to_float().coords for f in alg.jordan_frame().idempotents[:chart.k]]
    tangents += [gen @ p.x.coords for gen in chart.generators]
    m = len(tangents)
    h = np.empty((m, m))
    for i in range(m):
        for j in range(i, m):
            h[i, j] = h[j, i] = canonical_metric(p, tangents[i], tangents[j])
    det = np.linalg.det(h)
    if det <= 0:
        raise DomainError("chart metric is degenerate at this radial point")
    phi = _phi_k(alg, chart.k, p.eigenvalues)[0]
    return math.sqrt(phi) / p.r * math.sqrt(det)


def _phi_k(alg: Algebra, k: int, avals) -> tuple[float, float]:
    """(phi_k, c_k) at the eigenvalues avals: phi_k = tau_k^delta c_k^{delta-1} r^{2-D_k}."""
    ptr = [float(np.sum(avals ** m)) for m in range(1, k + 1)]
    tau = float(tau_poly(k).value(ptr))
    ck = float(c_poly(k).value(ptr))
    r = float(np.sum(avals)) / alg.rho
    return tau ** alg.delta * ck ** (alg.delta - 1) * r ** (2 - cone_dim(alg, k)), ck


def measure_crosscheck(alg: Algebra, k: int, samples: int = 10, seed: int = 0) -> dict:
    """Chart-computed measure density vs the radial density formula: their
    ratio must be constant across radial points (1% relative)."""
    rng = np.random.default_rng(seed)
    ratios = []
    for _ in range(samples):
        a = np.sort(rng.uniform(0.3, 2.0, size=k))[::-1]
        a = a + 0.15 * np.arange(k)[::-1] + 0.05
        chart = polar_chart(alg, k, a)
        ratios.append(chart_measure_density(chart) / radial_density(alg, k, a))
    ratios = np.array(ratios)
    spread = float(np.max(np.abs(ratios / np.median(ratios) - 1.0)))
    status = "pass" if spread < 0.01 else "fail"
    return {"name": f"measure-shape:k={k}", "status": status, "metric": spread,
            "witness": None if status == "pass" else {"ratios": ratios.tolist()}}


def radial_exponent(alg: Algebra, nu) -> float:
    """Small-eigenvalue exponent s of the radial measure density of d mu_nu;
    the integral of e^{-2a} a^s is finite iff s > -1."""
    param = WallachParam.make(alg, nu)
    k = param.rho_of_nu
    s = (alg.delta / 2.0) * (alg.rho - k + 1) - 1.0
    if param.kind == "continuous":
        s += float(param.value) - alg.rho * alg.delta / 2.0
    return s


def integral_finite(alg: Algebra, nu) -> bool:
    return radial_exponent(alg, nu) > -1.0


def radial_exponent_continuous(alg: Algebra, nu) -> float:
    """Small-eigenvalue exponent of e^{-2r} det(x)^{nu - rho delta/2} times the
    full-cone measure, defined for every real nu (no Wallach membership
    needed): the integral over Omega is finite iff this exceeds -1, i.e. iff
    nu > (rho-1) delta/2."""
    return float(nu) - (alg.rho - 1) * alg.delta / 2.0 - 1.0


def _truncated_power_integral(s: float, eps: float) -> float:
    if abs(s + 1.0) < 1e-12:
        return -math.log(eps)
    return (1.0 - eps ** (s + 1.0)) / (s + 1.0)


def truncated_radial_integral(alg: Algebra, nu, eps: float) -> float:
    """Closed form of int_eps^1 a^s da for the radial exponent s; diverges as
    eps -> 0 exactly when the nu-measure is not integrable."""
    return _truncated_power_integral(radial_exponent(alg, nu), eps)


def truncated_integral_continuous(alg: Algebra, nu, eps: float) -> float:
    """Truncated radial integral for the full-cone family at any real nu."""
    return _truncated_power_integral(radial_exponent_continuous(alg, nu), eps)
