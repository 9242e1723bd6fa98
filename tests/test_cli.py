import copy
import json
from fractions import Fraction as Fr

import numpy as np
import pytest

from jkepler import cli, phase
from jkepler.algebra import Algebra, DomainError, ExactArray, make_algebra
from jkepler.cli import (Report, SuiteConfig, emit, info_table, main, parse_nu, run,
                         spectrum_table)


def _strip_wall(data: bytes) -> dict:
    d = json.loads(data.decode())
    d.pop("wall_time_ms")
    return d


@pytest.mark.parametrize("suite", ["jordan", "tkk", "poisson", "measure"])
def test_suites_pass_on_small_algebra(suite):
    cfg = SuiteConfig(algebra="gamma:2", suite=suite, trials=8, seed=3, levels=2)
    rep = run(cfg)
    assert rep.all_pass(), [c for c in rep.checks if c["status"] == "fail"]
    assert rep.suite == suite and rep.algebra == "gamma:2"


def test_operators_suite_with_nu():
    cfg = SuiteConfig(algebra="gamma:3", suite="operators", trials=3, seed=2,
                      nu=Fr(1), levels=2)
    rep = run(cfg)
    assert rep.all_pass()
    names = {c["name"] for c in rep.checks}
    assert "operators:SS" in names and "grading:I=2" in names and "lowest-weight" in names


def test_operators_default_nu_is_in_the_wallach_set(capsys):
    # 1 is not in W(gamma:5); the default delta/2 = 2 is, so every check runs
    assert main(["verify", "--suite", "operators", "--algebra", "gamma:5", "--trials", "1",
                 "--format", "json"]) == 0
    d = json.loads(capsys.readouterr().out)
    assert d["params"]["nu"] is None
    assert len(d["checks"]) == 13
    assert all(c["status"] == "pass" for c in d["checks"])


def _classical_failures(spec, checks=False):
    rep = run(SuiteConfig(algebra=spec, suite="poisson", trials=1))
    failed = [c for c in rep.checks if c["status"] == "fail"]
    return failed if checks else {c["name"] for c in failed}


@pytest.mark.parametrize("spec", ["gamma:3", "h:3:R"])
def test_classical_checks_catch_a_perturbed_hamiltonian(spec, monkeypatch):
    def hamiltonian(alg):  # H + Y_{e_1}/Y_e is not conserved by L or A
        num, m = phase.kepler_hamiltonian(alg)
        return num + phase.co_star(alg).y(alg.basis_element(1)), m

    assert _classical_failures(spec) == set()
    monkeypatch.setattr(cli, "kepler_hamiltonian", hamiltonian)
    assert _classical_failures(spec) == {"poisson:conserve-angular", "poisson:conserve-lenz",
                                         "poisson:lenz-closure"}


@pytest.mark.parametrize("spec", ["gamma:3", "h:3:R"])
def test_classical_checks_catch_the_other_orientation(spec, monkeypatch):
    monkeypatch.setattr(cli, "kepler_angular",
                        lambda alg, u, v: phase.kepler_angular(alg, v, u))  # [L_u, L_v]
    assert _classical_failures(spec) == {"poisson:equivariance", "poisson:lenz-closure"}


@pytest.mark.parametrize("spec", ["gamma:3", "h:3:R", "h:3:C"])
def test_lenz_coefficient_one_on_yu_xe_fails_with_a_basis_witness(spec, monkeypatch):
    def lenz(alg, u):  # (Y_u X_e - X_u Y_e / 2 - Y_u) / Y_e
        cs, e = phase.co_star(alg), alg.identity()
        num, m = phase.kepler_lenz(alg, u)
        return num + Fr(1, 2) * (cs.y(u) * cs.x(e)), m

    monkeypatch.setattr(cli, "kepler_lenz", lenz)
    failed = _classical_failures(spec, checks=True)
    assert [c["name"] for c in failed] == ["poisson:conserve-lenz", "poisson:lenz-closure"]
    n = make_algebra(spec).dim
    lenz_w, closure_w = (c["witness"] for c in failed)
    assert set(lenz_w) == {"u"} and 0 <= lenz_w["u"] < n
    assert set(closure_w) == {"u", "v"} and 0 <= closure_w["v"] < closure_w["u"] < n


@pytest.mark.parametrize("spec", ["gamma:3", "h:3:R"])
def test_a_sign_flipped_structure_constant_fails(spec, monkeypatch):
    # the Lenz brackets read the [X_a, Y_b] block of the table, and S_uv comes
    # from smul_matrix, so a flipped entry there shows; the B-B block is not
    # read by any Kepler identity
    real = phase._co_table

    def flipped(alg):  # the first nonzero c_ij^k with z_i = X_a, z_j = Y_b, a != b
        t = copy.copy(real(alg))
        y0 = t.dim - alg.dim
        i, j, k = min(e for e in zip(t.i.tolist(), t.j.tolist(), t.k.tolist())
                      if e[0] < alg.dim and e[1] >= y0 and e[1] - y0 != e[0])
        hit = (((t.i == i) & (t.j == j)) | ((t.i == j) & (t.j == i))) & (t.k == k)
        t.vals = np.where(hit, -t.vals, t.vals)
        return t

    assert _classical_failures(spec) == set()
    monkeypatch.setattr(phase, "_co_table", flipped)
    failed = _classical_failures(spec, checks=True)
    assert [c["name"] for c in failed] == ["poisson:conserve-lenz", "poisson:lenz-closure"]
    lenz_w, closure_w = (c["witness"] for c in failed)
    assert set(lenz_w) == {"u"} and set(closure_w) == {"u", "v"}


def test_a_lenz_perturbation_on_the_last_basis_element_fails(monkeypatch):
    # every basis element is checked, not only the first four
    alg = make_algebra("h:3:R")
    last = alg.dim - 1

    def lenz(alg, u):  # A_u + Y_u for u = e_{n-1} alone
        num, m = phase.kepler_lenz(alg, u)
        if u == alg.basis_element(alg.dim - 1):
            num = num + phase.co_star(alg).y(u) * phase.co_star(alg).y(alg.identity())
        return num, m

    monkeypatch.setattr(cli, "kepler_lenz", lenz)
    failed = _classical_failures("h:3:R", checks=True)
    assert "poisson:conserve-lenz" in [c["name"] for c in failed]
    assert next(c["witness"] for c in failed if c["name"] == "poisson:conserve-lenz") == {"u": last}


def _ref_axioms(alg, trials, seed):
    """The per-trial loop that the stacked Jordan axioms replace: per axiom,
    the u of the first failing trial."""
    rng = np.random.default_rng(seed)
    bad = dict.fromkeys(("commutativity", "identity", "self-adjoint"))
    for _ in range(trials):
        u, v, w = (alg.random_element(rng) for _ in range(3))
        u2 = u * u
        fails = {"commutativity": not (u * v - v * u).is_zero(),
                 "identity": not (u * (u2 * w) - u2 * (u * w)).is_zero(),
                 "self-adjoint": alg.inner(v * u, w) != alg.inner(v, u * w)}
        for name in bad:
            if fails[name] and bad[name] is None:
                bad[name] = [str(c) for c in u.coords]
    return [cli._check(f"jordan:{name}", u is None, witness={"u": u}) for name, u in bad.items()]


@pytest.mark.parametrize("spec", ["gamma:3", "h:3:R"])
def test_stacked_jordan_axioms_match_the_per_trial_loop(spec):
    # on the true table and on tables with one structure constant c2[a, b, g]
    # raised by 2, which breaks some trials and not others: the same checks and
    # witnesses as one product per trial, first failures after trial 0 included
    later, failed = 0, set()
    for entry in (None, (1, 2, 0), (1, 1, 2), (2, 2, 0)):
        alg = make_algebra(spec)
        if entry:
            c2 = alg._c2.copy()
            c2[entry] += 2
            alg._table = ExactArray(c2.reshape(alg.dim, -1))
        for seed in range(8):
            got = cli._jordan_checks(alg, SuiteConfig(spec, suite="jordan", trials=12, seed=seed))
            assert got[:3] == _ref_axioms(alg, 12, seed), (entry, seed)
            first = [str(c) for c in alg.random_element(np.random.default_rng(seed)).coords]
            later += sum(c["witness"] not in (None, {"u": first}) for c in got[:3])
            failed |= {c["name"] for c in got[:3] if c["status"] == "fail"}
    assert later > 0
    assert failed == {"jordan:commutativity", "jordan:identity", "jordan:self-adjoint"}


def test_cone_suite():
    cfg = SuiteConfig(algebra="gamma:3", suite="cone", trials=5, seed=1)
    rep = run(cfg)
    assert rep.all_pass(), [c for c in rep.checks if c["status"] == "fail"]


def test_main_cone_suite_on_rank_four(capsys):
    # lambda-symmetry builds cone points from coordinates alone; at rank 4
    # float roots of the characteristic polynomial are not real enough to
    # serve as Jordan eigenvalues, so those points must not need them
    assert main(["verify", "--suite", "cone", "--algebra", "h:4:R", "--trials", "3"]) == 0


def test_checks_sorted_and_deterministic():
    cfg = SuiteConfig(algebra="gamma:2", suite="poisson", trials=5, seed=9)
    r1, r2 = run(cfg), run(cfg)
    names = [c["name"] for c in r1.checks]
    assert names == sorted(names)
    assert _strip_wall(emit(r1, "json")) == _strip_wall(emit(r2, "json"))


def test_emit_json_schema_and_roundtrip():
    rep = run(SuiteConfig(algebra="gamma:2", suite="measure", trials=5, seed=0))
    payload = emit(rep, "json")
    d = json.loads(payload.decode())
    assert set(d) == {"suite", "algebra", "params", "checks", "wall_time_ms"}
    for c in d["checks"]:
        assert set(c) == {"name", "status", "metric", "witness"}
        assert c["status"] in ("pass", "fail")
        assert c["metric"] == "exact" or isinstance(c["metric"], float)
    back = Report(**json.loads(payload))
    assert emit(back, "json") == payload


def test_empty_and_failing_reports_serialize():
    empty = Report("poisson", "gamma:2", {}, [])
    d = json.loads(emit(empty, "json").decode())
    assert d["checks"] == []
    witness = {"u": ["1", "0", "2"], "v": ["0", "1", "0"], "z": ["1"], "w": ["2"]}
    failing = Report("poisson", "gamma:2", {}, [
        {"name": "poisson:XY", "status": "fail", "metric": "exact", "witness": witness}])
    assert not failing.all_pass()
    d = json.loads(emit(failing, "json").decode())
    assert d["checks"][0]["witness"] == witness
    text = emit(failing, "text").decode()
    assert "witness" in text and "fail" in text
    assert text.endswith("  [0 pass, 1 fail] in 0 ms\n")
    assert emit(empty, "text").decode().endswith("  [0 pass, 0 fail] in 0 ms\n")


def test_parse_nu_sugar():
    alg = make_algebra("h:3:H")  # delta = 4
    assert parse_nu("d:1", alg) == Fr(2)
    assert parse_nu("7/3", alg) == Fr(7, 3)
    assert parse_nu("1.5", alg) == Fr(3, 2)


def test_config_validation():
    with pytest.raises(Exception):
        SuiteConfig(algebra="gamma:2", trials=0)
    with pytest.raises(Exception):
        SuiteConfig(algebra="gamma:2", tol=0.0)
    with pytest.raises(Exception):
        SuiteConfig(algebra="gamma:2", suite="nope")
    with pytest.raises(DomainError):
        SuiteConfig(algebra="gamma:2", levels=-1)
    with pytest.raises(DomainError):
        spectrum_table(make_algebra("gamma:3"), Fr(1), -3, False, 0)


# --- the command-line entry point -------------------------------------------------

def test_main_verify_json(tmp_path, capsys):
    out = tmp_path / "rep.json"
    code = main(["verify", "--suite", "poisson", "--algebra", "gamma:2", "--trials", "5",
                 "--seed", "7", "--format", "json", "--out", str(out)])
    assert code == 0
    d = json.loads(out.read_bytes().decode())
    assert all(c["status"] == "pass" for c in d["checks"])


def test_main_bad_algebra_is_usage_error(capsys):
    code = main(["info", "--algebra", "nope:3"])
    assert code == 2
    assert "grammar" in capsys.readouterr().err


def test_main_bad_nu_pairing_is_domain_error(capsys):
    code = main(["verify", "--suite", "operators", "--algebra", "gamma:3",
                 "--nu", "1/3", "--trials", "2"])
    assert code == 2
    assert "Wallach" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["spectrum", "--algebra", "gamma:3", "--nu", "inf"],
    ["spectrum", "--algebra", "gamma:3", "--nu=-inf"],
    ["verify", "--suite", "operators", "--algebra", "gamma:3", "--nu", "inf", "--trials", "2"],
    ["verify", "--suite", "operators", "--algebra", "gamma:3", "--nu=-inf", "--trials", "2"],
])
def test_main_non_finite_nu_is_domain_error(capsys, argv):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("domain error:") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["spectrum", "--algebra", "gamma:3", "--nu", "1", "--levels", "-3"],
    ["verify", "--suite", "operators", "--algebra", "gamma:3", "--nu", "1", "--levels", "-3"],
])
def test_main_negative_levels_is_domain_error(capsys, argv):
    assert main(argv) == 2
    assert "levels must be >= 0" in capsys.readouterr().err


def test_main_spectrum_table(capsys):
    code = main(["spectrum", "--algebra", "gamma:3", "--nu", "1", "--levels", "4"])
    assert code == 0
    out = capsys.readouterr().out
    for val in ("-1/2", "-1/8", "-1/18", "-1/32"):
        assert val in out


def test_main_spectrum_degeneracies_exact(tmp_path):
    # the float restriction rank exited 2 here ("restriction rank unstable")
    argv = ["spectrum", "--algebra", "gamma:3", "--nu", "1", "--levels", "10",
            "--degeneracies", "--format", "json", "--seed", "5", "--out"]
    assert main(argv + [str(tmp_path / "a.json")]) == 0
    assert main(argv + [str(tmp_path / "b.json")]) == 0
    data = (tmp_path / "a.json").read_bytes()
    assert data == (tmp_path / "b.json").read_bytes()
    assert [row["degeneracy"] for row in json.loads(data)["levels"]] == [
        (i + 1) ** 2 for i in range(10)]


def test_main_info(capsys):
    code = main(["info", "--algebra", "h:3:O"])
    assert code == 0
    out = capsys.readouterr().out
    assert "rho=3 delta=8 dim=27" in out
    assert "dim_str=79 dim_co=133" in out


def test_main_config_file(tmp_path):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"suite": "poisson", "trials": 4, "seed": 5}))
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert main(["verify", "--algebra", "gamma:2", "--config", str(cfgfile),
                 "--format", "json", "--out", str(out1)]) == 0
    # flags win over the config file
    assert main(["verify", "--algebra", "gamma:2", "--config", str(cfgfile),
                 "--suite", "measure", "--format", "json", "--out", str(out2)]) == 0
    assert json.loads(out1.read_bytes())["suite"] == "poisson"
    assert json.loads(out2.read_bytes())["suite"] == "measure"


def test_env_seed_fallback(tmp_path, monkeypatch):
    monkeypatch.setenv("JK_SEED", "123")
    out = tmp_path / "r.json"
    assert main(["verify", "--suite", "measure", "--algebra", "gamma:2", "--trials", "4",
                 "--format", "json", "--out", str(out)]) == 0
    assert json.loads(out.read_bytes())["params"]["seed"] == 123


def test_spectrum_and_info_tables():
    alg = make_algebra("gamma:3")
    table = spectrum_table(alg, Fr(1), 3, True, seed=0)
    assert [row["energy"] for row in table["levels"]] == ["-1/2", "-1/8", "-1/18"]
    assert [row["degeneracy"] for row in table["levels"]] == [1, 4, 9]
    info = info_table(alg)
    assert info["dim_str"] == 7 and info["dim_co"] == 15


def test_main_exit_code_on_failure(tmp_path, monkeypatch):
    import jkepler.cli as cli
    failing = Report("poisson", "gamma:2", {}, [
        {"name": "poisson:XY", "status": "fail", "metric": "exact",
         "witness": {"u": ["1"]}}])
    monkeypatch.setattr(cli, "run", lambda cfg: failing)
    code = main(["verify", "--suite", "poisson", "--algebra", "gamma:2",
                 "--format", "json", "--out", str(tmp_path / "f.json")])
    assert code == 1


@pytest.mark.parametrize("command", [
    ["spectrum", "--algebra", "gamma:3"],
    ["verify", "--suite", "operators", "--algebra", "gamma:3", "--trials", "2"],
])
@pytest.mark.parametrize("nu,message", [
    ("-1/2", "not in the nonzero Wallach set"),
    ("-inf", "cannot read nu"),
    ("-0.5", "not in the nonzero Wallach set"),
    ("abc", "cannot read nu"),
    ("1/0", "cannot read nu"),
])
def test_main_spaced_signed_nu_reaches_domain_check(capsys, command, nu, message):
    assert main(command + ["--nu", nu]) == 2
    err = capsys.readouterr().err
    assert err.startswith("domain error:") and message in err and err.count("\n") == 1


@pytest.mark.parametrize("flag,value", [("--nu", "banana"), ("--seed", "7")])
def test_main_info_refuses_flags_it_does_not_read(capsys, flag, value):
    with pytest.raises(SystemExit) as exc:
        main(["info", "--algebra", "gamma:3", flag, value])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "unrecognized arguments" in captured.err


def test_main_nu_without_value_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["spectrum", "--algebra", "gamma:3", "--nu", "--levels", "2"])
    assert exc.value.code == 2
    assert "expected one argument" in capsys.readouterr().err


def test_main_explicit_flags_equal_to_defaults_beat_config(tmp_path):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"suite": "measure", "trials": 3, "tol": 1e-3, "levels": 1}))
    out = tmp_path / "r.json"
    assert main(["verify", "--suite", "jordan", "--algebra", "gamma:2", "--trials", "50",
                 "--tol", "1e-8", "--levels", "4", "--config", str(cfgfile),
                 "--format", "json", "--out", str(out)]) == 0
    d = json.loads(out.read_bytes())
    assert d["suite"] == "jordan"
    assert (d["params"]["trials"], d["params"]["tol"], d["params"]["levels"]) == (50, 1e-8, 4)


_BASE_ARGV = {
    "verify": ["verify", "--suite", "jordan", "--algebra", "gamma:2"],
    "spectrum": ["spectrum", "--algebra", "gamma:3", "--nu", "1", "--levels", "3",
                 "--degeneracies"],
}


@pytest.mark.parametrize("command,flags,config,env,prefix", [
    ("verify", ["--trials", "2", "--tol", "inf"], None, None, "domain error:"),
    ("verify", ["--trials", "2", "--tol", "nan"], None, None, "domain error:"),
    ("verify", ["--trials", "2"], None, "abc", "usage error:"),
    ("verify", ["--trials", "2", "--config", "{tmp}/absent.json"], None, None, "usage error:"),
    ("verify", ["--trials", "2"], "{trials: 3", None, "usage error:"),
    ("verify", ["--trials", "2"], "[1, 2]", None, "usage error:"),
    ("verify", [], '{"trials": "x"}', None, "domain error:"),
    ("verify", ["--trials", "2", "--out", "{tmp}/absent/r.json"], None, None, "usage error:"),
    ("verify", [], '{"trials": 2, "trails": 3}', None,
     "usage error: unknown config key 'trails'"),
    ("verify", [], '{"algebra": "h:3:O"}', None, "usage error: unknown config key 'algebra'"),
    ("verify", ["--trials", "2", "--seed", "-1"], None, None, "domain error: seed must be >= 0"),
    ("verify", ["--trials", "2"], None, "-5", "domain error: seed must be >= 0"),
    ("verify", [], '{"trials": 2, "seed": -1}', None, "domain error: seed must be >= 0"),
    ("spectrum", ["--seed", "-1"], None, None, "domain error: seed must be >= 0"),
    ("spectrum", [], None, "-5", "domain error: seed must be >= 0"),
], ids=["tol-inf", "tol-nan", "env-seed", "config-missing", "config-not-json",
        "config-not-object", "config-wrong-type", "out-dir-missing", "config-unknown-key",
        "config-algebra-key", "seed-negative", "env-seed-negative", "config-seed-negative",
        "spectrum-seed-negative", "spectrum-env-seed-negative"])
def test_main_bad_input_exits_2(tmp_path, monkeypatch, capsys, command, flags, config, env,
                                prefix):
    argv = _BASE_ARGV[command] + [f.format(tmp=tmp_path) for f in flags]
    if config is not None:
        path = tmp_path / "cfg.json"
        path.write_text(config)
        argv += ["--config", str(path)]
    if env is not None:
        monkeypatch.setenv("JK_SEED", env)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(prefix) and err.count("\n") == 1


def _tkk_check(name):
    rep = run(SuiteConfig(algebra="gamma:3", suite="tkk", trials=1))
    return next(c for c in rep.checks if c["name"] == name)


@pytest.mark.parametrize("field", ["s_e", "s_alpha0"])
def test_sl2_check_catches_negated_s(monkeypatch, field):
    import dataclasses

    import jkepler.cli as cli
    from jkepler.conformal import root_data

    def negated(alg):
        rd = root_data(alg)
        return dataclasses.replace(rd, **{field: -getattr(rd, field)})

    assert _tkk_check("tkk:sl2-roots")["status"] == "pass"
    monkeypatch.setattr(cli, "root_data", negated)
    assert _tkk_check("tkk:sl2-roots")["status"] == "fail"


def test_dims_check_uses_the_classification(monkeypatch):
    # a wrong dim_str, seen alike by dim_co and the check, must fail tkk:dims
    import jkepler.cli as cli
    import jkepler.conformal as conformal

    true_dim_str = conformal.dim_str
    monkeypatch.setattr(conformal, "dim_str", lambda alg: true_dim_str(alg) + 1)
    monkeypatch.setattr(cli, "dim_str", conformal.dim_str)
    check = _tkk_check("tkk:dims")
    assert check["status"] == "fail"
    assert check["witness"] == {"dim_str": 8, "dim_co": 16, "expected": 15}


def test_peirce_count_reads_the_jordan_frame(monkeypatch):
    # with c_1 in both slots of the gamma:3 frame, tr(4 L_c1 L_c1) = 6, not delta = 2
    def peirce():
        rep = run(SuiteConfig(algebra="gamma:3", suite="jordan", trials=1))
        return next(c for c in rep.checks if c["name"] == "jordan:peirce-count")

    assert peirce()["status"] == "pass"
    true_frame = Algebra.jordan_frame
    monkeypatch.setattr(Algebra, "jordan_frame", lambda alg: true_frame(alg)[:1] * 2)
    check = peirce()
    assert check["status"] == "fail"
    assert check["witness"] == {"n": 4, "rho": 2, "delta": 2}


def test_integrability_check_uses_the_threshold_exponent(tmp_path, monkeypatch):
    # an exponent off by 1/2 at nu = (rho-1) delta/2 must fail measure:integrability
    import jkepler.cone as cone

    true_exponent = cone.radial_exponent_continuous
    monkeypatch.setattr(cone, "radial_exponent_continuous",
                        lambda alg, nu: true_exponent(alg, nu) + 0.5)
    out = tmp_path / "rep.json"
    code = main(["verify", "--suite", "measure", "--algebra", "h:3:R", "--format", "json",
                 "--out", str(out)])
    checks = {c["name"]: c for c in json.loads(out.read_bytes().decode())["checks"]}
    assert code == 1
    assert checks["measure:integrability"]["status"] == "fail"
