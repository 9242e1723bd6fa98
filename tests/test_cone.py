import ctypes
import importlib.util
import math
import os
import subprocess
import sys
from fractions import Fraction as Fr
from pathlib import Path

import numpy as np
import pytest

from jkepler.algebra import DomainError
from jkepler import cone as C
from jkepler.symfun import c_poly, tau_poly
from jkepler.weyl import WallachParam

# the cone test set: (algebra, ranks)
CONE_SET = [("gamma:3", (1, 2)), ("h:3:R", (1, 2, 3)), ("gamma:5", (1, 2))]


def _pairs():
    return [(spec, k) for spec, ks in CONE_SET for k in ks]


@pytest.mark.parametrize("spec,k", _pairs())
def test_cone_point_invariants(algebra, spec, k):
    alg = algebra(spec)
    dk = C.cone_dim(alg, k)
    for seed in range(6):
        p = C.sample_cone_point(alg, k, seed)
        sv = np.linalg.svd(p.lx, compute_uv=False)
        assert int(np.sum(sv > 1e-8 * sv[0])) == dk
        assert np.max(np.abs(p.projector @ p.projector - p.projector)) < 1e-10
        assert np.max(np.abs(p.pinv @ p.lx - p.projector)) < 1e-10
        xc = p.eigenvalues @ p.frame_vectors[:k]
        assert np.max(np.abs(xc - p.x)) < 1e-10
        assert np.all(p.eigenvalues > 0)
        assert np.all(np.diff(p.eigenvalues) <= 0)


def test_d1_for_gamma3(algebra):
    assert C.cone_dim(algebra("gamma:3"), 1) == 3


def test_full_rank_det_is_eigenvalue_product(algebra):
    alg = algebra("h:3:R")
    for seed in range(5):
        p = C.sample_cone_point(alg, alg.rho, seed)
        want = float(np.prod(p.eigenvalues))
        got = C.sym_c(alg, p.x, alg.rho)
        assert abs(got - want) < 1e-8 * max(1.0, abs(want))


def test_unit_eigenvalues_give_identity_point(algebra):
    alg = algebra("h:3:R")
    p = C.radial_cone_point(alg, np.ones(alg.rho))
    assert np.max(np.abs(p.x - C.float_frame(alg).identity)) < 1e-14
    assert abs(p.r - 1.0) < 1e-14


def test_identity_point_metric_is_euclidean(algebra):
    alg = algebra("h:3:C")
    p = C.radial_cone_point(alg, np.ones(alg.rho))
    rng = np.random.default_rng(0)
    u, v = rng.standard_normal(alg.dim), rng.standard_normal(alg.dim)
    assert abs(C.canonical_metric(p, u, v) - u @ v) < 1e-12


@pytest.mark.parametrize("spec,k", _pairs())
def test_metric_cometric_duality(algebra, spec, k):
    alg = algebra(spec)
    for seed in range(5):
        p = C.sample_cone_point(alg, k, 100 + seed)
        mop = p.r * p.pinv
        cop = p.lx / p.r
        assert np.max(np.abs(mop @ cop - p.projector)) <= 1e-10


def test_cometric_is_kinetic_form_on_rank_one(algebra):
    # the co-metric L_x / r of the metric-duality check: <pi | L_x | pi> / r = <x|pi^2>/r
    alg = algebra("gamma:3")
    rng = np.random.default_rng(1)
    p = C.sample_cone_point(alg, 1, 3)
    pi = rng.standard_normal(alg.dim)
    lhs = float(pi @ (p.lx / p.r) @ pi)
    rhs = float(p.x @ C.product(alg, pi, pi)) / p.r
    assert abs(lhs - rhs) < 1e-12


def test_kepler_metric_crosscheck(algebra):
    rep = C.kepler_metric_crosscheck(algebra("gamma:3"), samples=50, seed=0)
    assert rep["status"] == "pass"
    assert rep["metric"] < 1e-9


def test_kepler_radial_and_angular_values(algebra):
    alg = algebra("gamma:3")
    p = C.sample_cone_point(alg, 1, 11)
    xhat = p.x / np.linalg.norm(p.x)
    assert abs(C.canonical_metric(p, xhat, xhat) - 1.0 / alg.rho) < 1e-10
    # angular tangent u (in Im L_x, orthogonal to x): metric(u,u) = (2/rho)|u|^2
    rng = np.random.default_rng(2)
    w = p.tangent_project(rng.standard_normal(alg.dim))
    u = w - (w @ p.x) / (p.x @ p.x) * p.x
    assert abs(C.canonical_metric(p, u, u) - (2.0 / alg.rho) * (u @ u)) < 1e-10


# --- lambda_u ---------------------------------------------------------------------

@pytest.mark.parametrize("spec,k", _pairs())
def test_lambda_two_routes_agree(algebra, spec, k):
    alg = algebra(spec)
    rng = np.random.default_rng(3)
    worst = 0.0
    for seed in range(10):
        p = C.sample_cone_point(alg, k, 200 + seed)
        u = rng.standard_normal(alg.dim)
        la = C.lambda_route_a(p, u)
        lb = C.lambda_route_b(p, u)
        worst = max(worst, abs(la - lb) / max(1.0, abs(la)))
    assert worst <= 1e-8


def test_lambda_at_identity(algebra):
    alg = algebra("h:3:R")
    p = C.radial_cone_point(alg, np.ones(alg.rho))
    got = C.lambda_route_a(p, C.float_frame(alg).identity)
    assert abs(got - (alg.dim - 1) / 2.0) < 1e-10


def test_lambda_linearity(algebra):
    alg = algebra("gamma:5")
    p = C.sample_cone_point(alg, 2, 7)
    rng = np.random.default_rng(4)
    u = rng.standard_normal(alg.dim)
    v = rng.standard_normal(alg.dim)
    s = u + v
    assert abs(C.lambda_route_a(p, s) - C.lambda_route_a(p, u) - C.lambda_route_a(p, v)) < 1e-10


@pytest.mark.parametrize("spec,k", [("gamma:3", 1), ("h:3:R", 2)])
def test_lambda_symmetry_finite_differences(algebra, spec, k):
    rep = C.lambda_symmetry_check(algebra(spec), k, seed=5)
    assert rep["status"] == "pass"
    assert rep["metric"] < 1e-6


# --- phi_k, the factor of the measure density -------------------------------------------

def test_phi1_constant_on_spin_rank_one(algebra):
    alg = algebra("gamma:3")
    vals = [C._phi_k(alg, 1, C.sample_cone_point(alg, 1, s).eigenvalues)[0] for s in range(6)]
    assert max(abs(v - vals[0]) for v in vals) < 1e-10


@pytest.mark.parametrize("spec,nu", [("gamma:3", Fr(1)), ("h:3:R", Fr(1, 2)),
                                     ("h:3:R", Fr(1)), ("h:3:R", Fr(3))])
def test_phi_homogeneity_degree(algebra, spec, nu):
    # phi_k at k = rho(nu) has degree delta k(k-1)/2 + (delta-1) k + 2 - D_k
    alg = algebra(spec)
    k = WallachParam.make(alg, nu).rho_of_nu
    h = alg.delta * k * (k - 1) / 2 + (alg.delta - 1) * k + 2 - C.cone_dim(alg, k)
    a = C.sample_cone_point(alg, k, 3).eigenvalues
    t = 1.7
    ratio = C._phi_k(alg, k, a * t)[0] / C._phi_k(alg, k, a)[0]
    assert abs(math.log(ratio) / math.log(t) - h) < 1e-8


# --- r Delta ---------------------------------------------------------------------------

@pytest.mark.parametrize("spec,k", _pairs())
def test_r_laplace_identities(algebra, spec, k):
    alg = algebra(spec)
    rng = np.random.default_rng(6)
    for seed in range(6):
        p = C.sample_cone_point(alg, k, 300 + seed)
        u = rng.standard_normal(alg.dim)
        v = rng.standard_normal(alg.dim)
        zero = np.zeros((alg.dim, alg.dim))  # the Hessian of a linear function
        # r Delta <u|x> = 2 lambda_u
        got_u = C.r_laplace_apply(p, u, zero)
        lam_u = C.lambda_route_a(p, u)
        assert abs(got_u - 2 * lam_u) <= 1e-8 * max(1.0, abs(lam_u))
        # [[r Delta, <u|x>], <v|x>](1) = 2 <uv|x>, with <u|x><v|x> having
        # gradient <u|x> v + <v|x> u and Hessian u v' + v u'
        ux, vx = float(u @ p.x), float(v @ p.x)
        dc = (C.r_laplace_apply(p, ux * v + vx * u, np.outer(u, v) + np.outer(v, u))
              - ux * C.r_laplace_apply(p, v, zero)
              - vx * got_u)
        want = 2 * float(C.product(alg, u, v) @ p.x)
        assert abs(dc - want) <= 1e-8 * max(1.0, abs(want))


def test_r_laplace_of_constant_is_zero(algebra):
    alg = algebra("gamma:3")
    p = C.sample_cone_point(alg, 1, 9)
    assert C.r_laplace_apply(p, np.zeros(alg.dim), np.zeros((alg.dim, alg.dim))) == 0.0


def test_log_field_derivatives_match_finite_differences(algebra):
    alg = algebra("h:3:R")
    k = 2
    e = C.float_frame(alg).identity

    def log_phi(x):  # delta ln tau_k + (delta-1) ln c_k + (2 - D_k) ln r
        ptr = C.power_traces(alg, x, k)
        return (alg.delta * math.log(float(tau_poly(k).value(ptr)))
                + (alg.delta - 1) * math.log(float(c_poly(k).value(ptr)))
                + (2 - C.cone_dim(alg, k)) * math.log(float(e @ x)))

    p = C.sample_cone_point(alg, k, 5)
    x = p.x
    g = C.grad_log_phi(alg, k, x)
    rng = np.random.default_rng(7)
    d = rng.standard_normal(alg.dim)
    d /= np.linalg.norm(d)
    eps = 1e-6
    num_grad = (log_phi(x + eps * d) - log_phi(x - eps * d)) / (2 * eps)
    assert abs(num_grad - g @ d) < 1e-7


# --- polar chart and measure -----------------------------------------------------------------

@pytest.mark.parametrize("spec,k", _pairs())
def test_polar_chart_generator_count(algebra, spec, k):
    alg = algebra(spec)
    a = np.linspace(2.0, 1.0, k)
    chart = C.polar_chart(alg, k, a)
    assert len(chart.generators) == C.cone_dim(alg, k) - k


def test_radial_density_formulas(algebra):
    # k=1: a^{delta rho / 2 - 1}; gamma:3 gives exponent one
    alg = algebra("gamma:3")
    assert abs(C.radial_density(alg, 1, [0.7]) - 0.7) < 1e-14
    alg5 = algebra("gamma:5")
    a = 1.3
    assert abs(C.radial_density(alg5, 1, [a]) - a ** (alg5.delta * alg5.rho / 2 - 1)) < 1e-12
    with pytest.raises(DomainError):
        C.radial_density(alg, 2, [1.0, 1.5])


def test_density_vanishes_at_collisions(algebra):
    alg = algebra("h:3:R")
    base = C.radial_density(alg, 2, [1.5, 1.0])
    near = C.radial_density(alg, 2, [1.0 + 1e-9, 1.0])
    assert base > 0 and near < 1e-8 * base


@pytest.mark.parametrize("spec,k", [("gamma:3", 1), ("h:3:R", 1), ("h:3:R", 2),
                                    ("h:3:R", 3), ("gamma:5", 1)])
def test_measure_shape(algebra, spec, k):
    rep = C.measure_crosscheck(algebra(spec), k, samples=10, seed=1)
    assert rep["status"] == "pass"
    assert rep["metric"] < 0.01


def test_integrability_threshold(algebra):
    alg = algebra("h:3:R")  # threshold nu = (rho-1) delta / 2 = 1
    assert C.integral_finite(alg, Fr(3, 2))
    assert C.integral_finite(alg, Fr(101, 100))
    assert C.integral_finite(alg, Fr(1, 2)) and C.integral_finite(alg, Fr(1))  # discrete
    # below and at the threshold the continuous-family integral diverges
    assert C.radial_exponent_continuous(alg, 1.0) == -1.0
    assert C.radial_exponent_continuous(alg, 0.5) < -1.0
    assert C.radial_exponent_continuous(alg, 1.25) > -1.0

    def truncated(nu, eps):  # int_eps^1 a^s da, s != -1
        s = C.radial_exponent_continuous(alg, nu)
        return (1.0 - eps ** float(s + 1)) / float(s + 1)

    g_fine = truncated(1.5, 1e-9)
    g_coarse = truncated(1.5, 1e-6)
    assert abs(g_fine - g_coarse) / g_fine < 2e-3
    d1 = truncated(0.5, 1e-6)
    d2 = truncated(0.5, 1e-9)
    assert d2 / d1 > 30  # eps^{-1/2} growth


def test_sample_validation(algebra):
    alg = algebra("gamma:3")
    with pytest.raises(DomainError):
        C.sample_cone_point(alg, 0, 1)
    with pytest.raises(DomainError):
        C.sample_cone_point(alg, 3, 1)


def _reference_chart(alg, k, avals):
    """Polar chart generators and measure density built without the
    per-algebra float frame: the scale, structure tensor and frame converted
    from the exact algebra on each call, the Peirce vectors read off the
    basis labels, and canonical_metric on each pair of tangents."""
    scale = np.sqrt(np.array([float(g) for g in alg.gram]))
    con = alg._c2.astype(np.float64) / 2.0 * scale[None, None, :] / (
        scale[:, None, None] * scale[None, :, None])

    def to_float(x):
        return np.array([float(c) for c in x.coords]) * scale

    def lmul(u):
        return np.tensordot(con, u, axes=([0], [0])).T

    frame = [to_float(f) for f in alg.jordan_frame()]
    lframe = [lmul(f) for f in frame]
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    gens = []
    # off-diagonal units: F{i}{j}:mu of the matrix algebras, v2 .. of spin factors (in V_12)
    for a, label in enumerate(alg.basis):
        if label.startswith("F"):
            i = int(label[1]) - 1
        elif label.startswith("v") and a >= 2:
            i = 0
        else:
            continue
        if i >= k:
            continue
        lv = lmul(inv_sqrt2 * to_float(alg.basis_element(a)))
        gens.append(lframe[i] @ lv - lv @ lframe[i])
    vecs = np.stack(frame)
    p = C._assemble_point(alg, k, avals, vecs, C._projectors(alg, k, vecs))
    tangents = frame[:k] + [g @ p.x for g in gens]
    m = len(tangents)
    h = np.empty((m, m))
    for i in range(m):
        for j in range(i, m):
            h[i, j] = h[j, i] = C.canonical_metric(p, tangents[i], tangents[j])
    phi = C._phi_k(alg, k, p.eigenvalues)[0]
    return gens, math.sqrt(phi) / p.r * math.sqrt(np.linalg.det(h))


@pytest.mark.parametrize("spec,k", [("gamma:3", 1), ("gamma:3", 2), ("h:3:R", 1), ("h:3:R", 2),
                                    ("h:3:R", 3), ("h:3:O", 1), ("h:3:O", 2), ("h:3:O", 3)])
def test_cached_chart_matches_uncached_reference(algebra, spec, k):
    alg = algebra(spec)
    for shift in (0.0, 0.37):
        avals = 1.0 + shift + 0.4 * np.arange(k)[::-1]
        chart = C.polar_chart(alg, k, avals)
        ref_gens, ref_density = _reference_chart(alg, k, avals)
        assert len(chart.generators) == len(ref_gens)
        for g, r in zip(chart.generators, ref_gens):
            assert g.tobytes() == r.tobytes()
        assert C.chart_measure_density(chart) == ref_density
    with pytest.raises(ValueError):
        chart.generators[0][0, 0] = 1.0


# --- the float bits the benchmark pins ----------------------------------------------------

FAMILIES = ("gamma:3", "h:3:R", "h:3:C", "h:3:H", "h:3:O")


@pytest.mark.parametrize("spec", FAMILIES)
def test_lmul_matches_tensordot(algebra, spec):
    # lmul's np.dot on the frame's lcon is the product np.tensordot makes, bit for bit
    alg = algebra(spec)
    con = C.float_frame(alg).con
    rng = np.random.default_rng(3)
    vectors = list(C.float_frame(alg).jordan) + list(rng.standard_normal((20, alg.dim)))
    vectors.append(C.sample_cone_point(alg, 1, 5).x)
    for u in vectors:
        assert C.lmul(alg, u).tobytes() == np.tensordot(con, u, axes=([0], [0])).T.tobytes()


@pytest.mark.parametrize("spec", FAMILIES)
def test_chart_metric_matches_pairwise_products(algebra, spec):
    # at the measure suite's radial points (default seed and trials), each row
    # of h from one product equals the per-pair dot products, bit for bit
    alg = algebra(spec)
    for k in range(1, alg.rho + 1):
        rng = np.random.default_rng(10 + k)  # measure_crosscheck's, at seed cfg.seed + 10 + k
        for _ in range(30):
            a = np.sort(rng.uniform(0.3, 2.0, size=k))[::-1]
            chart = C.polar_chart(alg, k, a + 0.15 * np.arange(k)[::-1] + 0.05)
            p = chart.point
            tangents = list(C.float_frame(alg).jordan[:k]) + [g @ p.x for g in chart.generators]
            proj = [p.tangent_project(t) for t in tangents]
            want = np.empty((len(proj), len(proj)))
            for i, u in enumerate(proj):
                row = u @ p.pinv
                for j in range(i, len(proj)):
                    want[i, j] = want[j, i] = float(p.r * (row @ proj[j]))
            assert C.chart_metric(chart).tobytes() == want.tobytes()


def test_float_reports_match_the_benchmark_pins(monkeypatch):
    # the cone, measure and jordan reports depend on the last bit of every float
    # sum; the benchmark pins their seed-0 digests in bench/expected.json
    path = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # dataclasses look it up
    spec.loader.exec_module(workloads)
    expected = workloads.load_expected()
    ops = [op for name in workloads.WORKLOADS for op in workloads.build_ops(name, 0)
           if op.kind == "verify" and op.suite in ("cone", "measure", "jordan")
           and op.key in expected["reports"]]
    assert len(ops) == 15
    failed = [(op.key, out.reason) for op in ops for out in [workloads.execute(op, expected)]
              if not out.ok]
    assert failed == []


# --- the BLAS thread policy -----------------------------------------------------------

_GET_THREADS = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                "openblas_get_num_threads")


def test_cone_layer_puts_every_bundled_openblas_on_one_thread(algebra):
    C.automorphism_sample(algebra("gamma:3"), 0)
    import scipy

    libs = [path for m in (np, scipy)
            for path in sorted((Path(m.__file__).resolve().parent.parent
                                / f"{m.__name__}.libs").glob("*openblas*"))]
    if not libs or not hasattr(os, "RTLD_NOLOAD"):
        pytest.skip("no wheel-bundled OpenBLAS")
    for path in libs:
        lib = ctypes.CDLL(str(path), mode=os.RTLD_NOLOAD)
        getter = next(getattr(lib, n) for n in _GET_THREADS if hasattr(lib, n))
        getter.argtypes = []
        getter.restype = ctypes.c_int
        assert getter() == 1, path.name


def test_blas_thread_policy_without_a_loaded_openblas(tmp_path):
    # a directory without OpenBLAS, one that does not exist, and a file with
    # an OpenBLAS name that this process never loaded: nothing to set
    (tmp_path / "libscipy_openblas-0000.so").write_bytes(b"not a library")
    assert C._one_blas_thread([tmp_path / "absent", tmp_path]) is None
    assert C._one_blas_thread([]) is None


def test_importing_jkepler_leaves_scipy_unloaded():
    src = str(Path(C.__file__).resolve().parent.parent)
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c",
                           "import jkepler, sys; assert 'scipy' not in sys.modules"],
                          capture_output=True, env=env)
    assert proc.returncode == 0, proc.stderr
