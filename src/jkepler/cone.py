"""Canonical cones C_k as Riemannian manifolds.

Points of rank k are built as automorphism-transported positive frame
combinations, so frames, eigenvalues, projectors and pseudo-inverses are
known by construction and no general spectral theorem is needed.  All cone
numerics run on float64 arrays in the orthonormal frame, the unit-normalized
rescaling of the algebra's rational frame, where the Gram matrix is the
identity and the metric pairing is the plain dot product.  This module owns
that frame: FloatFrame holds what depends only on the algebra (the scale,
the structure tensor, the identity, the Jordan frame), built once per
algebra in its cache and read-only, and product, lmul, trace, power_traces
and sym_c are the Jordan operations on it.

The only scipy use is _expm, the matrix exponential of the automorphism
samples and of the lambda-symmetry flows.  scipy is imported on its first
call, which also runs numpy's and scipy's OpenBLAS on one thread from then
on: every float array here is at most 27 x 27, and two multi-threaded pools
that take turns on such calls stall each other.

The density function lambda_u is computed by two independent routes:

  route A (trace formula):
      2 lambda_u = -Tr((1/L_x) L_{ux})/2 + Tr(P_x L_u)
                   + (<u|x>/<e|x>) (Tr P_x / 2 - 1)

  route B (phi-function):
      4 lambda_u = Lhat_u(ln phi_k) + delta k tr(u),
      Lhat_u f = -<ux | grad f>,

with the gradient of ln phi_k assembled from closed-form derivatives of the
power-sum polynomials tau_k, c_k and of r; their agreement is a standing
cross-check.  The lifted operator r*Laplace takes a function's gradient and
Hessian at the point:

      (r Delta f)(x) = Tr(L_x Hess f(x)) + 2 lambda_{grad f(x)}(x).
"""
from __future__ import annotations

import ctypes
import functools
import math
import os
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from .algebra import DomainError, Algebra
from .symfun import c_poly, elementary_from_power, tau_poly
from .weyl import WallachParam, wallach_set


def cone_dim(alg: Algebra, k: int) -> int:
    """D_k = k [1 + (rho - (k+1)/2) delta], the dimension of C_k."""
    if not 1 <= k <= alg.rho:
        raise DomainError(f"cone rank must satisfy 1 <= k <= rho = {alg.rho}")
    return k + alg.delta * k * alg.rho - alg.delta * (k * (k + 1)) // 2


# --- the orthonormal float frame ----------------------------------------------------

@dataclass(frozen=True)
class FloatFrame:
    """Read-only float data of one algebra in the orthonormal frame."""

    scale: np.ndarray      # sqrt(gram): rational-frame coords -> orthonormal coords
    con: np.ndarray        # (uv)_g = sum_ab con[a, b, g] u_a v_b
    lcon: np.ndarray       # (n^2, n): lcon[b n + g, a] = con[a, b, g], the matrix lmul multiplies
    identity: np.ndarray
    jordan: np.ndarray     # (rho, n): the canonical Jordan frame, one row per idempotent


def float_frame(alg: Algebra) -> FloatFrame:
    """The algebra's FloatFrame, built on first use and kept in its cache."""
    frame = alg._cache.get("float_frame")
    if frame is None:
        scale = np.sqrt(np.array([float(g) for g in alg.gram]))
        half = alg._c2.astype(np.float64) / 2.0
        con = half * scale[None, None, :] / (scale[:, None, None] * scale[None, :, None])

        def orthonormal(coords):
            return np.array([float(c) for c in coords]) * scale

        # lcon is the C-order copy np.tensordot(con, u, axes=([0], [0])) dots with u:
        # lmul keeps tensordot's summation order, and the cone reports its bits
        frame = FloatFrame(scale, con, con.transpose(1, 2, 0).reshape(-1, len(scale)),
                           orthonormal(alg.identity_coords),
                           np.stack([orthonormal(f.coords) for f in alg.jordan_frame()]))
        for arr in (frame.scale, frame.con, frame.lcon, frame.identity, frame.jordan):
            arr.flags.writeable = False
        alg._cache["float_frame"] = frame
    return frame


def product(alg: Algebra, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Jordan product uv."""
    return np.einsum("abg,a,b->g", float_frame(alg).con, u, v)


def lmul(alg: Algebra, u: np.ndarray) -> np.ndarray:
    """Matrix of L_u: v -> uv."""
    return np.dot(float_frame(alg).lcon, u.reshape(-1, 1)).reshape(len(u), len(u)).T


def trace(alg: Algebra, u: np.ndarray) -> float:
    """tr u = rho <u|e>."""
    return alg.rho * float(u @ float_frame(alg).identity)


def power_traces(alg: Algebra, x: np.ndarray, m: int) -> list:
    """[tr x, tr x^2, ..., tr x^m]."""
    out = []
    p = x
    for j in range(m):
        out.append(trace(alg, p))
        if j < m - 1:
            p = product(alg, p, x)
    return out


def sym_c(alg: Algebra, x: np.ndarray, k: int) -> float:
    """c_k(x), the Newton polynomial in tr x .. tr x^k."""
    return elementary_from_power(power_traces(alg, x, k), k)[-1]


def peirce_vectors(alg: Algebra) -> list:
    """(i, j, v) for the off-diagonal Jordan basis over the canonical frame:
    v spans part of the Peirce space V_ij (0-based i < j) and <v|v> = 1/rho."""
    scale = float_frame(alg).scale
    inv_sqrt2 = 1.0 / math.sqrt(2.0)

    def vec(pos):
        v = np.zeros(alg.dim)
        v[pos] = scale[pos]
        return inv_sqrt2 * v

    if alg.spec.family == "gamma":
        return [(0, 1, vec(pos)) for pos in range(2, alg.dim)]
    k = alg.spec.k
    pairs = [(i, j) for i in range(k) for j in range(i + 1, k) for _ in range(alg.delta)]
    return [(i, j, vec(pos)) for pos, (i, j) in enumerate(pairs, start=k)]


# --- the scipy matrix exponential ---------------------------------------------------

# Each OpenBLAS exports its thread setter under one of these names, after the
# symbol prefix and suffix its wheel was built with (numpy's ILP64 build ends
# in 64_).
_SET_THREADS = ("scipy_openblas_set_num_threads64_", "scipy_openblas_set_num_threads",
                "openblas_set_num_threads")


def _one_blas_thread(dirs) -> None:
    """Set every OpenBLAS under dirs that this process has loaded to one thread
    (why: the module docstring).  Only libraries already loaded are touched
    (RTLD_NOLOAD), nothing is raised, and without RTLD_NOLOAD or a bundled
    OpenBLAS (conda or MKL builds) this does nothing."""
    noload = getattr(os, "RTLD_NOLOAD", None)
    if noload is None:
        return
    for d in dirs:
        for path in sorted(Path(d).glob("*openblas*")):
            try:
                lib = ctypes.CDLL(str(path), mode=noload)
            except OSError:  # not loaded here
                continue
            for name in _SET_THREADS:
                setter = getattr(lib, name, None)
                if setter is not None:
                    setter.argtypes = [ctypes.c_int]
                    setter.restype = None
                    setter(1)
                    break


@functools.cache
def _scipy_expm():
    import scipy
    from scipy.linalg import expm

    # the directories numpy's and scipy's wheels bundle their OpenBLAS in
    _one_blas_thread([Path(m.__file__).resolve().parent.parent / f"{m.__name__}.libs"
                      for m in (np, scipy)])
    return expm


def _expm(a: np.ndarray) -> np.ndarray:
    """scipy.linalg.expm; the first call imports scipy and runs _one_blas_thread."""
    return _scipy_expm()(a)


def automorphism_sample(alg: Algebra, seed: int) -> np.ndarray:
    """exp of a random derivation sum c_i [L_{u_i}, L_{v_i}].

    Derivations are antisymmetric, so the result is orthogonal, fixes the
    identity and preserves Jordan products.
    """
    rng = np.random.default_rng(seed)
    d = np.zeros((alg.dim, alg.dim))
    for _ in range(3):
        lu = lmul(alg, rng.standard_normal(alg.dim))
        lv = lmul(alg, rng.standard_normal(alg.dim))
        d += rng.uniform(-1.0, 1.0) * (lu @ lv - lv @ lu)
    # a multiply by the reciprocal, not a divide: the cone reports
    # depend on these bits
    d *= 1.0 / max(1.0, np.linalg.norm(d) / 2.0)
    return _expm(d)


# --- cone points --------------------------------------------------------------------

@dataclass
class ConePoint:
    """Rank-k semipositive element with cached frame and operator data."""

    algebra: Algebra
    k: int
    x: np.ndarray
    eigenvalues: np.ndarray | None    # descending, length k, all > 0
    frame_vectors: np.ndarray | None  # (rho, n): transported primitive idempotents
    lx: np.ndarray
    projector: np.ndarray
    pinv: np.ndarray
    r: float

    def tangent_project(self, u: np.ndarray) -> np.ndarray:
        return self.projector @ u


def _projectors(alg: Algebra, k: int, frame_vecs: np.ndarray) -> tuple:
    """(P, 1 - P) for P = 3 L_c - 2 L_c^2, the projector onto Im L_x of every
    point over the first k frame vectors, whose sum is c."""
    lck = lmul(alg, frame_vecs[:k].sum(axis=0))
    proj = 3.0 * lck - 2.0 * (lck @ lck)
    return proj, np.eye(alg.dim) - proj


def _assemble_point(alg: Algebra, k: int, avals: np.ndarray, frame_vecs: np.ndarray,
                    projectors: tuple) -> ConePoint:
    """The point sum_{i<k} avals_i frame_vecs_i, with projectors = _projectors
    of that frame."""
    proj, complement = projectors
    x = avals @ frame_vecs[:k]
    lx = lmul(alg, x)
    pinv = np.linalg.solve(lx + complement, proj)
    r = float(x @ float_frame(alg).identity)
    return ConePoint(alg, k, x, np.asarray(avals, dtype=float), frame_vecs, lx, proj, pinv, r)


def sample_cone_point(alg: Algebra, k: int, seed: int) -> ConePoint:
    """Deterministic rank-k cone point: exp(derivation) applied to a positive
    frame combination with distinct eigenvalues."""
    if not 1 <= k <= alg.rho:
        raise DomainError(f"cone rank must satisfy 1 <= k <= rho = {alg.rho}")
    rng = np.random.default_rng(seed)
    avals = np.sort(rng.uniform(0.5, 1.5, size=k))[::-1]
    avals += 0.08 * np.arange(k)[::-1]  # keep eigenvalues separated
    g = automorphism_sample(alg, int(rng.integers(2**31)))
    frame = float_frame(alg).jordan @ g.T
    return _assemble_point(alg, k, avals, frame, _projectors(alg, k, frame))


def radial_cone_point(alg: Algebra, avals) -> ConePoint:
    """Cone point sum a_i e_ii over the canonical (untransported) frame.  Its
    projectors depend on k = len(avals) alone: read-only, built once per
    (algebra, k)."""
    avals = np.asarray(avals, dtype=float)
    k, frame = len(avals), float_frame(alg).jordan
    key = ("radial_projectors", k)
    if key not in alg._cache:
        projectors = _projectors(alg, k, frame)
        for arr in projectors:
            arr.flags.writeable = False
        alg._cache[key] = projectors
    return _assemble_point(alg, k, avals, frame, alg._cache[key])


# --- metric -------------------------------------------------------------------

def canonical_metric(p: ConePoint, u, v) -> float:
    """ds_K^2(u, v) = r <u | (1/L_x) | v>; inputs are projected to Im L_x."""
    if p.k == 0:
        raise DomainError("zero-rank point has no tangent space")
    uc = p.tangent_project(np.asarray(u, dtype=float))
    vc = p.tangent_project(np.asarray(v, dtype=float))
    return float(p.r * (uc @ p.pinv @ vc))


def kepler_metric_crosscheck(alg: Algebra, samples: int = 50, seed: int = 0) -> dict:
    """On C_1, the canonical metric equals (2/rho)<u|v> - <e|u><e|v>."""
    rng = np.random.default_rng(seed)
    ef = float_frame(alg).identity
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


# --- the gradient of ln phi_k ---------------------------------------------------------

def _grad_log_spectral(alg: Algebra, poly, x: np.ndarray) -> np.ndarray:
    """grad ln F(tr x, ..., tr x^m) for a power-sum polynomial F, from the
    closed form grad tr x^m = m rho x^{m-1}."""
    m = poly.nvars
    p = power_traces(alg, x, m)
    pows = [float_frame(alg).identity]  # x^0 .. x^{m-1}
    for _ in range(m - 1):
        pows.append(product(alg, pows[-1], x))
    g = np.zeros(alg.dim)
    for j in range(1, m + 1):
        fj = float(poly.partial(j - 1).value(p))
        if fj:
            g += fj * j * alg.rho * pows[j - 1]
    return g / float(poly.value(p))


def grad_log_phi(alg: Algebra, k: int, x: np.ndarray) -> np.ndarray:
    """grad ln phi_k, with ln phi_k = delta ln tau_k + (delta-1) ln c_k + (2 - D_k) ln r."""
    parts = []
    if alg.delta and k >= 2:
        parts.append((alg.delta, _grad_log_spectral(alg, tau_poly(k), x)))
    if alg.delta - 1:
        parts.append((alg.delta - 1, _grad_log_spectral(alg, c_poly(k), x)))
    e = float_frame(alg).identity
    parts.append((2 - cone_dim(alg, k), e / float(e @ x)))
    return sum(float(c) * g for c, g in parts)


# --- lambda_u by two routes -------------------------------------------------------

def lambda_route_a(p: ConePoint, u) -> float:
    """Trace formula for lambda_u."""
    alg = p.algebra
    lux = lmul(alg, product(alg, u, p.x))
    lu = lmul(alg, u)
    trp = float(np.trace(p.projector))
    val = (-0.5 * float(np.trace(p.pinv @ lux))
           + float(np.trace(p.projector @ lu))
           + float(u @ p.x) / p.r * (trp / 2.0 - 1.0))
    return val / 2.0


def lambda_route_b(p: ConePoint, u) -> float:
    """phi-function formula: 4 lambda_u = Lhat_u(ln phi_k) + delta k tr u."""
    alg = p.algebra
    g = grad_log_phi(alg, p.k, p.x)
    lhat = -float(product(alg, u, p.x) @ g)
    return (lhat + alg.delta * p.k * trace(alg, u)) / 4.0


def lambda_symmetry_check(alg: Algebra, k: int, seed: int = 0) -> dict:
    """Finite-difference symmetry Lhat_u(lambda_v) = Lhat_v(lambda_u).

    The flows x(t) = expm(-t L_u) x stay on the cone (structure group), so
    central differences at steps 1e-5 and 5e-6 with one Richardson step are
    well defined.
    """
    rng = np.random.default_rng(seed)
    p = sample_cone_point(alg, k, seed + 17)
    u = rng.standard_normal(alg.dim)
    v = rng.standard_normal(alg.dim)

    def lam_at(xc, w):
        q = _point_from_coords(alg, xc, k)
        return lambda_route_a(q, w)

    def flow_derivative(w_gen, w_eval):
        lgen = lmul(alg, w_gen)

        def central(h):
            xp = _expm(-h * lgen) @ p.x
            xm = _expm(h * lgen) @ p.x
            return (lam_at(xp, w_eval) - lam_at(xm, w_eval)) / (2 * h)

        d1 = central(1e-5)
        d2 = central(1e-5 / 2)
        return (4 * d2 - d1) / 3

    luv = flow_derivative(u, v)
    lvu = flow_derivative(v, u)
    diff = abs(luv - lvu) / max(1.0, abs(luv))
    status = "pass" if diff < 1e-6 else "fail"
    return {"name": f"lambda-symmetry:k={k}", "status": status, "metric": diff,
            "witness": None if status == "pass" else {"luv": luv, "lvu": lvu}}


def _point_from_coords(alg: Algebra, xc: np.ndarray, k: int) -> ConePoint:
    """Cone data for an arbitrary rank-k cone element via eigendecomposition
    of L_x (rank is known; frames and eigenvalues are not needed)."""
    lx = lmul(alg, xc)
    w, vmat = np.linalg.eigh(lx)
    dk = cone_dim(alg, k)
    order = np.argsort(-np.abs(w))
    keep = order[:dk]
    wmax = np.abs(w[keep]).max()
    if np.abs(w[order[dk:]]).max(initial=0.0) > 1e-8 * wmax:
        raise DomainError("element does not have the expected cone rank")
    proj = vmat[:, keep] @ vmat[:, keep].T
    pinv = vmat[:, keep] @ np.diag(1.0 / w[keep]) @ vmat[:, keep].T
    r = float(xc @ float_frame(alg).identity)
    return ConePoint(alg, k, xc, None, None, lx, proj, pinv, r)


def r_laplace_apply(p: ConePoint, grad: np.ndarray, hess: np.ndarray) -> float:
    """(r Delta f)(x) = Tr(L_x Hess f) + 2 lambda_{grad f}(x), from the
    gradient and Hessian of f at p.x."""
    return float(np.trace(p.lx @ hess)) + 2.0 * lambda_route_a(p, grad)


# --- polar chart and the measure ----------------------------------------------------

@dataclass
class PolarChart:
    """Chart data at a radial point a_1 > ... > a_k > 0 of C_k."""

    algebra: Algebra
    k: int
    avals: np.ndarray
    generators: list          # [L_{e_ii}, L_{e_ij^mu}] commutators, i <= k
    point: ConePoint


def polar_chart(alg: Algebra, k: int, avals) -> PolarChart:
    avals = np.asarray(avals, dtype=float)
    if len(avals) != k or np.any(avals <= 0) or np.any(np.diff(avals) >= 0):
        raise DomainError("radial point needs strictly decreasing positive entries")
    return PolarChart(alg, k, avals, list(_chart_generators(alg, k)), radial_cone_point(alg, avals))


def _chart_generators(alg: Algebra, k: int) -> tuple:
    """[L_{e_ii}, L_v] for the off-diagonal Jordan basis vectors v of V_ij,
    i <= k: read-only, built once per (algebra, k)."""
    key = ("polar_generators", k)
    if key not in alg._cache:
        lframe = [lmul(alg, f) for f in float_frame(alg).jordan]
        gens = []
        for i, _, vec in peirce_vectors(alg):
            if i >= k:
                continue
            lv = lmul(alg, vec)
            gen = lframe[i] @ lv - lv @ lframe[i]
            gen.flags.writeable = False
            gens.append(gen)
        alg._cache[key] = tuple(gens)
    return alg._cache[key]


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


def chart_metric(chart: PolarChart) -> np.ndarray:
    """h, the canonical-metric Gram matrix of the chart tangents at the radial
    point: row i from one product with t_i @ pinv."""
    p = chart.point
    tangents = list(float_frame(chart.algebra).jordan[:chart.k])
    tangents += [gen @ p.x for gen in chart.generators]
    proj = np.array([p.tangent_project(t) for t in tangents])
    h = np.empty((len(proj), len(proj)))
    for i in range(len(proj)):
        h[i, i:] = h[i:, i] = p.r * (proj[i:] @ (proj[i] @ p.pinv))
    return h


def chart_measure_density(chart: PolarChart) -> float:
    """sqrt(phi_k)/r times the chart volume density sqrt(det h) at the radial
    point, with h the chart_metric."""
    det = np.linalg.det(chart_metric(chart))
    if det <= 0:
        raise DomainError("chart metric is degenerate at this radial point")
    p = chart.point
    phi = _phi_k(chart.algebra, chart.k, p.eigenvalues)[0]
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


def radial_exponent(alg: Algebra, nu) -> Fraction:
    """Small-eigenvalue exponent s of the radial measure density of d mu_nu;
    the integral of e^{-2a} a^s is finite iff s > -1."""
    param = WallachParam.make(alg, nu)
    s = Fraction(alg.delta, 2) * (alg.rho - param.rho_of_nu + 1) - 1
    if param.kind == "continuous":
        s += param.value - Fraction(alg.rho * alg.delta, 2)
    return s


def integral_finite(alg: Algebra, nu) -> bool:
    return radial_exponent(alg, nu) > -1


def radial_exponent_continuous(alg: Algebra, nu) -> Fraction:
    """Small-eigenvalue exponent of e^{-2r} det(x)^{nu - rho delta/2} times the
    full-cone measure, defined for every real nu (no Wallach membership
    needed; a float nu is read as its exact binary value): the integral over
    Omega is finite iff this exceeds -1, i.e. iff nu > (rho-1) delta/2."""
    return Fraction(nu) - wallach_set(alg)[1] - 1
