"""Command-line workbench: verification suites, spectra, info tables.

    jk verify --suite poisson --algebra gamma:2 --trials 50 --seed 7
    jk spectrum --algebra gamma:3 --nu 1 --levels 4 --degeneracies
    jk info --algebra h:3:O

Suites: jordan, tkk, poisson, operators, cone, measure, all.  Exact suites
report the metric "exact"; float suites compare against --tol (default 1e-8)
except where a tighter bound is pinned (metric duality 1e-10, Kepler
crosscheck 1e-9, measure shape 1%); SVD rank thresholds are fixed at
1e-8 * sigma_max independently of --tol.  A JSON config file can mirror the
flags (flags win); JK_SEED is the seed fallback.  Exit status 0 iff every
check passes.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import cone as cone_mod
from .algebra import DomainError, FLOAT, Algebra, SpecificationError, make_algebra
from .conformal import (cartan_involution, co_bracket, dim_co, dim_str,
                        random_co_element, root_data)
from .phase import (classical_angular, classical_hamiltonian, classical_lenz, poisson,
                    PhaseRational, verify_poisson_tkk)
from .symfun import elementary_from_power
from .weyl import (WallachParam, bound_spectrum, he_grading_check, lowest_weight_check,
                   restriction_degeneracy, verify_tkk_ops)

SUITES = ("jordan", "tkk", "poisson", "operators", "cone", "measure")


@dataclass
class SuiteConfig:
    algebra: str
    suite: str = "all"
    trials: int = 50
    seed: int = 0
    tol: float = 1e-8
    nu: object = None          # Fraction, float or None
    levels: int = 4

    def __post_init__(self):
        if any(type(getattr(self, k)) is not int for k in ("trials", "seed", "levels")):
            raise DomainError("trials, seed and levels must be integers")
        if type(self.tol) not in (int, float) or not 0 < self.tol < math.inf:
            raise DomainError(f"tol must be a finite number > 0, got {self.tol!r}")
        if self.trials < 1:
            raise DomainError("trials must be >= 1")
        if self.levels < 0:
            raise DomainError("levels must be >= 0")
        if self.suite not in SUITES + ("all",):
            raise DomainError(f"unknown suite {self.suite!r}; choose from {SUITES + ('all',)}")


@dataclass
class Report:
    suite: str
    algebra: str
    params: dict
    checks: list
    wall_time_ms: int = 0

    def all_pass(self) -> bool:
        return all(c["status"] in ("pass", "skipped") for c in self.checks)

    def to_dict(self) -> dict:
        return {"suite": self.suite, "algebra": self.algebra, "params": self.params,
                "checks": self.checks, "wall_time_ms": self.wall_time_ms}

    @classmethod
    def from_json(cls, data: bytes) -> "Report":
        d = json.loads(data.decode("utf-8"))
        return cls(d["suite"], d["algebra"], d["params"], d["checks"], d["wall_time_ms"])


def parse_nu(text: str, alg: Algebra):
    """nu from a string: a rational like '7/3', a float, or 'd:k' for k delta/2."""
    text = text.strip()
    try:
        if text.startswith("d:"):
            return Fraction(int(text[2:])) * alg.delta / 2
        try:
            return Fraction(text)
        except ValueError:
            return float(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise DomainError(f"cannot read nu {text!r}: expected a rational like 1/2, a decimal, "
                          f"or d:k") from exc


def _check(name, ok, metric="exact", witness=None):
    return {"name": name, "status": "pass" if ok else "fail",
            "metric": metric, "witness": None if ok else witness}


def _skip(name, reason):
    return {"name": name, "status": "skipped", "metric": "exact", "witness": {"reason": reason}}


# --- suite check builders --------------------------------------------------------

def _jordan_checks(alg: Algebra, cfg: SuiteConfig) -> list:
    def axioms():
        rng = np.random.default_rng(cfg.seed)
        out = []
        bad_comm = bad_jord = bad_adj = None
        for _ in range(cfg.trials):
            u = alg.random_element(rng)
            v = alg.random_element(rng)
            w = alg.random_element(rng)
            if bad_comm is None and not (u * v - v * u).is_zero():
                bad_comm = [str(c) for c in u.coords]
            u2 = u * u
            if bad_jord is None and not (u * (u2 * w) - u2 * (u * w)).is_zero():
                bad_jord = [str(c) for c in u.coords]
            if bad_adj is None and alg.inner(v * u, w) != alg.inner(v, u * w):
                bad_adj = [str(c) for c in u.coords]
        out.append(_check("jordan:commutativity", bad_comm is None, witness={"u": bad_comm}))
        out.append(_check("jordan:identity", bad_jord is None, witness={"u": bad_jord}))
        out.append(_check("jordan:self-adjoint", bad_adj is None, witness={"u": bad_adj}))
        e = alg.identity()
        out.append(_check("jordan:unit-norm", alg.inner(e, e) == 1))
        return out

    def frame():
        fr = alg.jordan_frame()
        e = alg.identity()
        ok = True
        tot = alg.zero()
        for i, ei in enumerate(fr.idempotents):
            ok &= (ei * ei - ei).is_zero() and alg.trace(ei) == 1
            for j in range(i):
                ok &= (ei * fr[j]).is_zero()
            tot = tot + ei
        ok &= (tot - e).is_zero()
        peirce = alg.dim == alg.rho + alg.rho * (alg.rho - 1) * alg.delta // 2
        return [_check("jordan:frame", bool(ok)),
                _check("jordan:peirce-count", peirce,
                       witness={"n": alg.dim, "rho": alg.rho, "delta": alg.delta})]

    def newton_vs_eigen():
        rng = np.random.default_rng(cfg.seed + 1)
        fr = alg.jordan_frame()
        worst = 0.0
        for _ in range(min(cfg.trials, 50)):
            lam = rng.uniform(-2.0, 2.0, alg.rho)
            x = alg.zero(FLOAT)
            for li, ei in zip(lam, fr.idempotents):
                x = x + ei.to_float().scaled(float(li))
            for k in range(1, alg.rho + 1):
                direct = float(elementary_from_power([float(np.sum(lam ** m))
                                                      for m in range(1, k + 1)], k)[-1])
                got = alg.sym_c(x, k)
                worst = max(worst, abs(got - direct) / max(1.0, abs(direct)))
        return [_check("jordan:newton-vs-eigen", worst <= 1e-9, metric=worst)]

    return [axioms, frame, newton_vs_eigen]


def _tkk_checks(alg: Algebra, cfg: SuiteConfig) -> list:
    def bracket_laws():
        rng = np.random.default_rng(cfg.seed + 2)
        bad_anti = bad_jac = None
        for _ in range(cfg.trials):
            a = random_co_element(alg, rng)
            b = random_co_element(alg, rng)
            c = random_co_element(alg, rng)
            if bad_anti is None and not (co_bracket(a, b) + co_bracket(b, a)).is_zero():
                bad_anti = repr(a)
            jac = (co_bracket(a, co_bracket(b, c)) + co_bracket(b, co_bracket(c, a))
                   + co_bracket(c, co_bracket(a, b)))
            if bad_jac is None and not jac.is_zero():
                bad_jac = repr(a)
        return [_check("tkk:antisymmetry", bad_anti is None, witness={"a": bad_anti}),
                _check("tkk:jacobi", bad_jac is None, witness={"a": bad_jac})]

    def involution():
        rng = np.random.default_rng(cfg.seed + 3)
        ok = True
        for _ in range(min(cfg.trials, 50)):
            a = random_co_element(alg, rng)
            b = random_co_element(alg, rng)
            ok &= cartan_involution(cartan_involution(a)) == a
            ok &= cartan_involution(co_bracket(a, b)) == co_bracket(cartan_involution(a),
                                                                    cartan_involution(b))
        return [_check("tkk:involution", bool(ok))]

    def sl2():
        rd = root_data(alg)
        ok = True
        for (h, ep, em) in [(rd.h_e, rd.e_plus, rd.e_minus),
                            (rd.h_alpha0, rd.e_plus_alpha0, rd.e_minus_alpha0)]:
            ok &= co_bracket(h, ep) == ep.scaled(2)
            ok &= co_bracket(h, em) == em.scaled(-2)
            ok &= co_bracket(ep, em) == -h
        ok &= cartan_involution(rd.h_e) == rd.h_e
        return [_check("tkk:sl2-roots", bool(ok))]

    def dims():
        ds, dc = dim_str(alg), dim_co(alg)
        return [_check("tkk:dims", dc == 2 * alg.dim + ds,
                       witness={"dim_str": ds, "dim_co": dc})]

    return [bracket_laws, involution, sl2, dims]


def _poisson_checks(alg: Algebra, cfg: SuiteConfig) -> list:
    def relations():
        return verify_poisson_tkk(alg, trials=cfg.trials, seed=cfg.seed + 4)

    def conservation():
        h = classical_hamiltonian(alg)
        basis = [alg.basis_element(a) for a in range(min(alg.dim, 4))]
        ok_hl = ok_ha = ok_closure = ok_equiv = True
        for i, u in enumerate(basis):
            au = classical_lenz(alg, u)
            ok_ha &= poisson(au, h).is_zero()
            for v in basis[:i]:
                luv = classical_angular(alg, u, v)
                ok_hl &= poisson(h, PhaseRational(alg, luv, 0)).is_zero()
                av = classical_lenz(alg, v)
                ok_closure &= (poisson(au, av) + 2 * (h * luv)).is_zero()
        # equivariance {L_{u,v}, A_z} = A_{[L_v,L_u] z} on one triple
        rng = np.random.default_rng(cfg.seed + 5)
        u, v, z = (alg.random_element(rng, span=3) for _ in range(3))
        luv = classical_angular(alg, u, v)
        lu, lv = alg.lmul_matrix(u), alg.lmul_matrix(v)
        mz = alg.apply_matrix(lv @ lu - lu @ lv, z)
        ok_equiv = (poisson(PhaseRational(alg, luv, 0), classical_lenz(alg, z))
                    - classical_lenz(alg, mz)).is_zero()
        return [_check("poisson:conserve-angular", bool(ok_hl)),
                _check("poisson:conserve-lenz", bool(ok_ha)),
                _check("poisson:lenz-closure", bool(ok_closure)),
                _check("poisson:equivariance", bool(ok_equiv))]

    return [relations, conservation]


def _operator_checks(alg: Algebra, cfg: SuiteConfig) -> list:
    nu = cfg.nu if cfg.nu is not None else Fraction(1)

    def relations():
        return verify_tkk_ops(alg, nu, trials=cfg.trials, seed=cfg.seed + 6)

    def grading():
        out = []
        for i in range(cfg.levels + 1):
            out.append(he_grading_check(alg, nu, i))
        return out

    def lowest():
        return [lowest_weight_check(alg, nu, seed=cfg.seed + 7)]

    def spectrum_monotone():
        try:
            es = [bound_spectrum(alg, nu, i) for i in range(cfg.levels + 2)]
        except DomainError as exc:
            return [_skip("operators:spectrum-monotone", str(exc))]
        ok = all(es[i] < es[i + 1] < 0 for i in range(len(es) - 1))
        return [_check("operators:spectrum-monotone", ok,
                       witness={"spectrum": [str(e) for e in es]})]

    return [relations, grading, lowest, spectrum_monotone]


def _cone_checks(alg: Algebra, cfg: SuiteConfig) -> list:
    points = max(3, min(cfg.trials, 50))

    def per_rank(k):
        def thunk():
            out = []
            dk = cone_mod.cone_dim(alg, k)
            worst_lam = worst_dual = worst_rd = 0.0
            rank_ok = True
            rng = np.random.default_rng(cfg.seed + 8000 + k)
            for i in range(points):
                p = cone_mod.sample_cone_point(alg, k, cfg.seed * 1009 + 57 * k + i)
                sv = np.linalg.svd(p.lx, compute_uv=False)
                rank_ok &= int(np.sum(sv > 1e-8 * sv[0])) == dk
                u = alg.random_element(rng, FLOAT)
                la = cone_mod.lambda_route_a(p, u)
                lb = cone_mod.lambda_route_b(p, u)
                worst_lam = max(worst_lam, abs(la - lb) / max(1.0, abs(la)))
                mop = p.r * p.pinv
                cop = p.lx / p.r
                worst_dual = max(worst_dual, float(np.max(np.abs(mop @ cop - p.projector))))
                f = cone_mod.linear_field(alg, u)
                got = cone_mod.r_laplace_apply(alg, k, f, p)
                worst_rd = max(worst_rd, abs(got - 2 * la) / max(1.0, abs(la)))
                v = alg.random_element(rng, FLOAT)
                fg = cone_mod.ProductField(cone_mod.linear_field(alg, u),
                                           cone_mod.linear_field(alg, v))
                dc = (cone_mod.r_laplace_apply(alg, k, fg, p)
                      - f.value(p.x.coords) * cone_mod.r_laplace_apply(
                          alg, k, cone_mod.linear_field(alg, v), p)
                      - cone_mod.LinearField(alg, v).value(p.x.coords) * got)
                want = 2 * float(alg.inner(alg.product(u, v), p.x))
                worst_rd = max(worst_rd, abs(dc - want) / max(1.0, abs(want)))
            out.append(_check(f"cone:rank:k={k}", rank_ok, witness={"expected": dk}))
            out.append(_check(f"cone:lambda-routes:k={k}", worst_lam <= cfg.tol, metric=worst_lam))
            out.append(_check(f"cone:metric-duality:k={k}", worst_dual <= 1e-10, metric=worst_dual))
            out.append(_check(f"cone:rdelta:k={k}", worst_rd <= cfg.tol, metric=worst_rd))
            out.append(cone_mod.lambda_symmetry_check(alg, k, seed=cfg.seed + 11 * k))
            return out
        return thunk

    def kepler():
        rep = cone_mod.kepler_metric_crosscheck(alg, samples=points, seed=cfg.seed + 9)
        return [rep]

    return [per_rank(k) for k in range(1, alg.rho + 1)] + [kepler]


def _measure_checks(alg: Algebra, cfg: SuiteConfig) -> list:
    def shape():
        out = []
        for k in range(1, alg.rho + 1):
            out.append(cone_mod.measure_crosscheck(alg, k, samples=max(10, min(cfg.trials, 30)),
                                                   seed=cfg.seed + 10 + k))
        return out

    def integrability():
        top = Fraction(alg.rho - 1) * alg.delta / 2
        above = top + Fraction(1, 2)
        ok = cone_mod.integral_finite(alg, above)
        ok &= cone_mod.radial_exponent(alg, above) > -1
        # at the threshold the exponent hits -1 exactly
        s_at = ((alg.delta / 2.0) * 1 - 1.0) + float(top) - alg.rho * alg.delta / 2.0
        ok &= abs(s_at - (-1.0)) < 1e-12
        # discrete values are always integrable
        for k in range(1, alg.rho):
            ok &= cone_mod.integral_finite(alg, Fraction(k) * alg.delta / 2)
        g1 = cone_mod.truncated_radial_integral(alg, above, 1e-6)
        g2 = cone_mod.truncated_radial_integral(alg, above, 1e-9)
        ok &= abs(g1 - g2) / max(1.0, g1) < 1e-2
        return [_check("measure:integrability", bool(ok),
                       witness={"threshold": str(top)})]

    return [shape, integrability]


_SUITE_BUILDERS = {
    "jordan": _jordan_checks,
    "tkk": _tkk_checks,
    "poisson": _poisson_checks,
    "operators": _operator_checks,
    "cone": _cone_checks,
    "measure": _measure_checks,
}


def run(config: SuiteConfig) -> Report:
    """Run a verification suite; deterministic for a fixed config and seed."""
    t0 = time.monotonic()
    alg = make_algebra(config.algebra)
    if config.nu is not None:
        WallachParam.make(alg, config.nu)  # validate the pairing early
    names = SUITES if config.suite == "all" else (config.suite,)
    thunks = []
    for name in names:
        thunks.extend(_SUITE_BUILDERS[name](alg, config))
    groups = [f() for f in thunks]
    # normalize to the report schema: exactly name/status/metric/witness
    checks = sorted(({"name": c["name"], "status": c["status"], "metric": c["metric"],
                      "witness": c.get("witness")} for g in groups for c in g),
                    key=lambda c: c["name"])
    params = {"trials": config.trials, "seed": config.seed, "tol": config.tol,
              "nu": None if config.nu is None else str(config.nu), "levels": config.levels}
    wall = int((time.monotonic() - t0) * 1000)
    return Report(config.suite, str(alg.spec), params, checks, wall)


def emit(report: Report, fmt: str = "text") -> bytes:
    """Serialize a report: aligned text table or the JSON schema."""
    if fmt == "json":
        return (json.dumps(report.to_dict()) + "\n").encode("utf-8")
    lines = [f"suite={report.suite} algebra={report.algebra} params={report.params}"]
    width = max((len(c["name"]) for c in report.checks), default=4)
    for c in report.checks:
        metric = c["metric"]
        metric_s = metric if isinstance(metric, str) else f"{metric:.3e}"
        line = f"  {c['name']:<{width}}  {c['status']:<7} {metric_s}"
        if c["status"] == "fail" and c["witness"] is not None:
            line += f"  witness: {json.dumps(c['witness'])}"
        lines.append(line)
    npass = sum(1 for c in report.checks if c["status"] == "pass")
    nfail = sum(1 for c in report.checks if c["status"] == "fail")
    nskip = len(report.checks) - npass - nfail
    lines.append(f"  [{npass} pass, {nfail} fail, {nskip} skipped] in {report.wall_time_ms} ms")
    return ("\n".join(lines) + "\n").encode("utf-8")


# --- spectrum / info -----------------------------------------------------------

def spectrum_table(alg: Algebra, nu, levels: int, degeneracies: bool, seed: int) -> dict:
    if levels < 0:
        raise DomainError("levels must be >= 0")
    param = WallachParam.make(alg, nu)
    rows = []
    for i in range(levels):
        row = {"I": i, "energy": str(bound_spectrum(alg, nu, i))}
        if degeneracies:
            row["degeneracy"] = restriction_degeneracy(alg, param, i, seed=seed)
        rows.append(row)
    return {"algebra": str(alg.spec), "nu": str(nu), "levels": rows}


def info_table(alg: Algebra) -> dict:
    top = Fraction(alg.rho - 1) * alg.delta / 2
    discrete = [str(Fraction(k) * alg.delta / 2) for k in range(1, alg.rho)]
    return {"algebra": str(alg.spec), "rho": alg.rho, "delta": alg.delta, "dim": alg.dim,
            "dim_str": dim_str(alg), "dim_co": dim_co(alg),
            "wallach_discrete": discrete, "wallach_continuous_above": str(top)}


# --- argument handling ------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="jk",
                                 description="verification workbench for euclidean Jordan "
                                             "algebras and generalized Kepler spectra")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--algebra", required=True,
                       help="gamma:k | h:k:R | h:k:C | h:k:H | h:3:O")
        p.add_argument("--seed", type=int, default=None,
                       help="random seed (fallback: JK_SEED, then 0)")
        p.add_argument("--nu", default=None,
                       help="Wallach parameter: rational like 1/2, or d:k for k*delta/2")
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--out", default=None, help="write output to this file")

    pv = sub.add_parser("verify", help="run a verification suite")
    common(pv)
    # None marks a flag that was not given; SuiteConfig holds the defaults
    pv.add_argument("--suite", choices=SUITES + ("all",))
    pv.add_argument("--trials", type=int)
    pv.add_argument("--tol", type=float)
    pv.add_argument("--levels", type=int)
    pv.add_argument("--config", default=None, help="JSON file mirroring flags (flags win)")

    ps = sub.add_parser("spectrum", help="bound-state spectrum table")
    common(ps)
    ps.add_argument("--levels", type=int, default=4)
    ps.add_argument("--degeneracies", action="store_true")

    pi = sub.add_parser("info", help="algebra invariants and Lie dimensions")
    common(pi)
    return ap


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("JK_SEED")
    try:
        return int(env) if env else 0
    except ValueError:
        raise SpecificationError(f"JK_SEED must be an integer, got {env!r}") from None


def _read_config(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except ValueError as exc:
            raise SpecificationError(f"config {path!r} is not JSON: {exc}") from None
    if not isinstance(data, dict):
        raise SpecificationError(f"config {path!r} is not a JSON object")
    return data


def _write(payload: bytes, out: str | None):
    if out:
        with open(out, "wb") as fh:
            fh.write(payload)
    else:
        sys.stdout.buffer.write(payload)


def _bind_nu(argv):
    """Rewrite `--nu VALUE` as `--nu=VALUE`: argparse takes a value such as
    -1/2 or -inf for an option and would refuse it before any domain check."""
    out = []
    for arg in argv:
        if out and out[-1] == "--nu" and not arg.startswith("--"):
            out[-1] = f"--nu={arg}"
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    args = _build_parser().parse_args(_bind_nu(sys.argv[1:] if argv is None else argv))
    try:
        if args.command == "verify":
            # given flags win over the config file, then JK_SEED, then SuiteConfig
            file_cfg = _read_config(args.config) if args.config else {}
            keys = ("suite", "trials", "seed", "tol", "levels")
            fields = {k: file_cfg[k] for k in keys if k in file_cfg}
            fields.update((k, getattr(args, k)) for k in keys if getattr(args, k) is not None)
            if "seed" not in fields:
                fields["seed"] = _resolve_seed(args)
            alg = make_algebra(args.algebra)
            nu = args.nu if args.nu else (str(file_cfg["nu"]) if "nu" in file_cfg else None)
            cfg = SuiteConfig(algebra=args.algebra, nu=None if nu is None else parse_nu(nu, alg),
                              **fields)
            report = run(cfg)
            _write(emit(report, args.format), args.out)
            return 0 if report.all_pass() else 1
        if args.command == "spectrum":
            alg = make_algebra(args.algebra)
            if not args.nu:
                print("spectrum requires --nu", file=sys.stderr)
                return 2
            nu = parse_nu(args.nu, alg)
            table = spectrum_table(alg, nu, args.levels, args.degeneracies, _resolve_seed(args))
            if args.format == "json":
                _write((json.dumps(table) + "\n").encode(), args.out)
            else:
                lines = [f"algebra={table['algebra']} nu={table['nu']}"]
                for row in table["levels"]:
                    line = f"  I={row['I']:<3} E={row['energy']}"
                    if "degeneracy" in row:
                        line += f"  degeneracy={row['degeneracy']}"
                    lines.append(line)
                _write(("\n".join(lines) + "\n").encode(), args.out)
            return 0
        if args.command == "info":
            alg = make_algebra(args.algebra)
            table = info_table(alg)
            if args.format == "json":
                _write((json.dumps(table) + "\n").encode(), args.out)
            else:
                lines = [f"algebra={table['algebra']}",
                         f"  rho={table['rho']} delta={table['delta']} dim={table['dim']}",
                         f"  dim_str={table['dim_str']} dim_co={table['dim_co']}",
                         f"  wallach: discrete {table['wallach_discrete']}, "
                         f"continuous above {table['wallach_continuous_above']}"]
                _write(("\n".join(lines) + "\n").encode(), args.out)
            return 0
    except (SpecificationError, OSError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 2
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
