"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion lines.
Tolerances and runtime budgets are pinned here and nowhere else.
"""
import json
import math
import os
import subprocess
import sys
import time
from fractions import Fraction as Fr

import numpy as np

import jkepler
from jkepler import cone as C
from jkepler.algebra import FLOAT, make_algebra
from jkepler.cli import SuiteConfig, emit, run
from jkepler.phase import (PhaseRational, classical_angular, classical_hamiltonian,
                           classical_lenz, poisson, verify_poisson_tkk)
from jkepler.conformal import dim_co, dim_str
from jkepler.weyl import (bound_spectrum, he_grading_check, lowest_weight_check,
                          restriction_degeneracy, verify_tkk_ops)

_ALGS = {}


def _alg(spec):
    if spec not in _ALGS:
        _ALGS[spec] = make_algebra(spec)
    return _ALGS[spec]


def _report(num, desc, ok, elapsed=None):
    status = "PASS" if ok else "FAIL"
    timing = f" [{elapsed:.1f}s]" if elapsed is not None else ""
    print(f"[{status}] criterion {num}: {desc}{timing}")
    assert ok, f"criterion {num} failed: {desc}"


def test_criterion_1_jordan_axioms():
    """Seven algebras, 200 random exact elements: axioms exactly, < 60 s."""
    t0 = time.monotonic()
    ok = True
    for spec in ["gamma:2", "gamma:3", "gamma:5", "h:3:R", "h:3:C", "h:3:H", "h:3:O"]:
        alg = _alg(spec)
        e = alg.identity()
        ok &= alg.inner(e, e) == 1
        rng = np.random.default_rng(2024)
        for trial in range(200):
            den = (1, 2, 3)[trial % 3]
            u = alg.random_element(rng, denominator=den)
            v = alg.random_element(rng, denominator=den)
            w = alg.random_element(rng)
            ok &= (u * v - v * u).is_zero()
            u2 = u * u
            ok &= (u * (u2 * w) - u2 * (u * w)).is_zero()
            ok &= alg.inner(v * u, w) == alg.inner(v, u * w)
            if not ok:
                break
    elapsed = time.monotonic() - t0
    _report(1, "Jordan axiom suite exact on 7 algebras x 200 elements", ok and elapsed < 60,
            elapsed)


def test_criterion_2_poisson_realization():
    """Six Poisson families exact, 50 random 4-tuples, gamma:2 and h:3:R, < 2 min."""
    t0 = time.monotonic()
    ok = True
    for spec in ["gamma:2", "h:3:R"]:
        checks = verify_poisson_tkk(_alg(spec), trials=50, seed=11)
        ok &= len(checks) == 6 and all(c["status"] == "pass" for c in checks)
    elapsed = time.monotonic() - t0
    _report(2, "Poisson bracket realization exact (6 families x 50 tuples x 2 algebras)",
            ok and elapsed < 120, elapsed)


def test_criterion_3_operator_tkk():
    """Operator relations exact for nu in {0, 1/2, 1, 7/3}, 30 tuples, < 3 min."""
    t0 = time.monotonic()
    ok = True
    for spec in ["gamma:3", "h:3:R"]:
        alg = _alg(spec)
        for nu in (Fr(0), Fr(1, 2), Fr(1), Fr(7, 3)):
            checks = verify_tkk_ops(alg, nu, trials=30, seed=5)
            ok &= all(c["status"] == "pass" for c in checks)
    elapsed = time.monotonic() - t0
    _report(3, "operator TKK relations exact for nu in {0,1/2,1,7/3}", ok and elapsed < 180,
            elapsed)


def test_criterion_4_grading_and_lowest_weight():
    """Eigenvalue 2I + nu rho for I <= 4 and the alpha_0 lowest-weight data, exact."""
    alg = _alg("gamma:3")
    ok = True
    for nu in (Fr(1), Fr(alg.delta, 2)):
        for i in range(5):
            rep = he_grading_check(alg, nu, i)
            ok &= rep["status"] == "pass"
            ok &= rep["eigenvalue"] == str(2 * i + nu * alg.rho)
        lw = lowest_weight_check(alg, nu, seed=8)
        ok &= lw["status"] == "pass"
    _report(4, "H_e grading eigenvalue 2I+nu*rho (I<=4) and lowest-weight data exact", ok)


def test_criterion_5_lie_dimension_oracle():
    """dim str / dim co equal the table values, < 2 min."""
    t0 = time.monotonic()
    expected = {"gamma:3": (7, 15), "h:3:R": (9, 21), "h:3:C": (17, 35),
                "h:3:H": (36, 66), "h:3:O": (79, 133)}
    ok = True
    for spec, dims in expected.items():
        alg = _alg(spec)
        ok &= (dim_str(alg), dim_co(alg)) == dims
    elapsed = time.monotonic() - t0
    _report(5, "Lie dimension oracle (7,15),(9,21),(17,35),(36,66),(79,133)",
            ok and elapsed < 120, elapsed)


def test_criterion_6_hydrogen_reproduction():
    """gamma:3, nu=1: E_I = -1/(2(I+1)^2) and degeneracies (I+1)^2 for I <= 5."""
    alg = _alg("gamma:3")
    ok = True
    for i in range(6):
        ok &= bound_spectrum(alg, Fr(1), i) == Fr(-1, 2 * (i + 1) ** 2)
    for i in range(6):
        # restriction_degeneracy already cross-validates two disjoint sample
        # sets internally; run two independent seeds on top of that
        d1 = restriction_degeneracy(alg, Fr(1), i, seed=31)
        d2 = restriction_degeneracy(alg, Fr(1), i, seed=77)
        quadric_oracle = (math.comb(i + 3, 3) - math.comb(i + 1, 3)) if i else 1
        ok &= d1 == d2 == (i + 1) ** 2 == quadric_oracle
    _report(6, "hydrogen spectrum -1/(2(I+1)^2) and (I+1)^2 degeneracies, I <= 5", ok)


_CONE_SET = [("gamma:3", (1, 2)), ("h:3:R", (1, 2, 3)), ("gamma:5", (1, 2))]


def test_criterion_7_lambda_and_rdelta():
    """lambda dual-formula <= 1e-8 relative and r-Delta identities <= 1e-8 at 50
    points per (algebra, k) over the cone test set."""
    ok = True
    worst_lambda = worst_rd = 0.0
    for spec, ks in _CONE_SET:
        alg = _alg(spec)
        rng = np.random.default_rng(99)
        for k in ks:
            for i in range(50):
                p = C.sample_cone_point(alg, k, 1000 * k + i)
                u = alg.random_element(rng, FLOAT)
                v = alg.random_element(rng, FLOAT)
                la = C.lambda_u(p, u, route="a")
                lb = C.lambda_u(p, u, route="b")
                worst_lambda = max(worst_lambda, abs(la - lb) / max(1.0, abs(la)))
                fu = C.linear_field(alg, u)
                fv = C.linear_field(alg, v)
                got = C.r_laplace_apply(alg, k, fu, p)
                worst_rd = max(worst_rd, abs(got - 2 * la) / max(1.0, abs(la)))
                dc = (C.r_laplace_apply(alg, k, C.ProductField(fu, fv), p)
                      - fu.value(p.x.coords) * C.r_laplace_apply(alg, k, fv, p)
                      - fv.value(p.x.coords) * got)
                want = 2 * float(alg.inner(alg.product(u, v), p.x))
                worst_rd = max(worst_rd, abs(dc - want) / max(1.0, abs(want)))
    ok = worst_lambda <= 1e-8 and worst_rd <= 1e-8
    _report(7, f"lambda A/B <= 1e-8 (got {worst_lambda:.2e}) and r-Delta identities "
               f"<= 1e-8 (got {worst_rd:.2e})", ok)


def test_criterion_8_metric_duality():
    """metric o co-metric = P_x <= 1e-10; rank(L_x) = D_k exact; Kepler
    crosscheck on C_1 of gamma:3 <= 1e-9."""
    ok = True
    worst_dual = 0.0
    for spec, ks in _CONE_SET:
        alg = _alg(spec)
        for k in ks:
            dk = C.cone_dim(alg, k)
            for i in range(10):
                p = C.sample_cone_point(alg, k, 500 * k + i)
                sv = np.linalg.svd(p.lx, compute_uv=False)
                ok &= int(np.sum(sv > 1e-8 * sv[0])) == dk
                mop = p.r * p.pinv
                cop = p.lx / p.r
                worst_dual = max(worst_dual, float(np.max(np.abs(mop @ cop - p.projector))))
    ok &= worst_dual <= 1e-10
    kep = C.kepler_metric_crosscheck(_alg("gamma:3"), samples=50, seed=3)
    ok &= kep["status"] == "pass" and kep["metric"] <= 1e-9
    _report(8, f"metric duality <= 1e-10 (got {worst_dual:.2e}), ranks exact, "
               f"Kepler crosscheck <= 1e-9 (got {kep['metric']:.2e})", ok)


def test_criterion_9_measure_shape():
    """gamma:3 rank-1 polar crosscheck within 1% over 10 radial points;
    integrability threshold at nu = 1 on h:3:R."""
    rep = C.measure_crosscheck(_alg("gamma:3"), 1, samples=10, seed=4)
    ok = rep["status"] == "pass" and rep["metric"] < 0.01
    alg = _alg("h:3:R")
    # finite exactly above the threshold nu = (rho-1) delta/2 = 1
    ok &= C.integral_finite(alg, Fr(3, 2)) and C.integral_finite(alg, Fr(101, 100))
    ok &= C.radial_exponent_continuous(alg, 1.0) == -1.0          # divergent at threshold
    ok &= C.radial_exponent_continuous(alg, 0.9) < -1.0           # divergent below
    # divergence growth below the threshold vs convergence above
    below1 = C.truncated_integral_continuous(alg, 0.5, 1e-6)
    below2 = C.truncated_integral_continuous(alg, 0.5, 1e-9)
    above1 = C.truncated_integral_continuous(alg, 1.5, 1e-6)
    above2 = C.truncated_integral_continuous(alg, 1.5, 1e-9)
    ok &= below2 / below1 > 30.0
    ok &= abs(above2 - above1) / above2 < 1e-2
    _report(9, f"measure shape within 1% (got {rep['metric']:.2e}) and nu > 1 "
               f"integrability threshold on h:3:R", ok)


def test_criterion_10_classical_conservation():
    """{H, A_u}, {H, L_uv}, {A_u, A_v} + 2 H L_uv identically zero on gamma:2
    and gamma:3 for basis u, v; < 3 min."""
    t0 = time.monotonic()
    ok = True
    for spec in ["gamma:2", "gamma:3"]:
        alg = _alg(spec)
        h = classical_hamiltonian(alg)
        basis = [alg.basis_element(a) for a in range(alg.dim)]
        lenz = [classical_lenz(alg, u) for u in basis]
        for i, u in enumerate(basis):
            ok &= poisson(lenz[i], h).is_zero()
            for j in range(i):
                luv = classical_angular(alg, u, basis[j])
                ok &= poisson(h, PhaseRational(alg, luv, 0)).is_zero()
                ok &= (poisson(lenz[i], lenz[j]) + 2 * (h * luv)).is_zero()
    elapsed = time.monotonic() - t0
    _report(10, "classical conservation and Lenz closure exact on all basis pairs",
            ok and elapsed < 180, elapsed)


def test_criterion_11_cli_determinism(tmp_path):
    """Identical seeds give byte-identical JSON reports modulo wall_time."""
    args = ["verify", "--suite", "poisson", "--algebra", "gamma:2", "--trials", "10",
            "--seed", "42", "--format", "json"]
    # the child imports the same jkepler, also when pytest alone put it on sys.path
    src = os.path.dirname(os.path.dirname(jkepler.__file__))
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    outs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        proc = subprocess.run([sys.executable, "-m", "jkepler.cli", *args,
                               "--out", str(out)], capture_output=True, env=env)
        assert proc.returncode == 0, proc.stderr
        d = json.loads(out.read_bytes().decode())
        d.pop("wall_time_ms")
        outs.append(json.dumps(d, sort_keys=False).encode())
    ok = outs[0] == outs[1]
    # in-process runs agree too
    cfg = SuiteConfig(algebra="gamma:2", suite="poisson", trials=10, seed=42)
    r1 = json.loads(emit(run(cfg), "json").decode())
    r2 = json.loads(emit(run(cfg), "json").decode())
    r1.pop("wall_time_ms")
    r2.pop("wall_time_ms")
    ok &= json.dumps(r1) == json.dumps(r2)
    _report(11, "CLI determinism: byte-identical JSON modulo wall_time", ok)
