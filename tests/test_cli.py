import json
from fractions import Fraction as Fr

import pytest

from jkepler.algebra import DomainError, make_algebra
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


def test_cone_suite():
    cfg = SuiteConfig(algebra="gamma:3", suite="cone", trials=5, seed=1)
    rep = run(cfg)
    assert rep.all_pass(), [c for c in rep.checks if c["status"] == "fail"]


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
        assert c["status"] in ("pass", "fail", "skipped")
        assert c["metric"] == "exact" or isinstance(c["metric"], float)
    back = Report.from_json(payload)
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
    ("-inf", "is not a finite number"),
    ("-0.5", "not in the nonzero Wallach set"),
    ("abc", "cannot read nu"),
    ("1/0", "cannot read nu"),
])
def test_main_spaced_signed_nu_reaches_domain_check(capsys, command, nu, message):
    assert main(command + ["--nu", nu]) == 2
    err = capsys.readouterr().err
    assert err.startswith("domain error:") and message in err and err.count("\n") == 1


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


@pytest.mark.parametrize("flags,config,env,prefix", [
    (["--trials", "2", "--tol", "inf"], None, None, "domain error:"),
    (["--trials", "2", "--tol", "nan"], None, None, "domain error:"),
    (["--trials", "2"], None, "abc", "usage error:"),
    (["--trials", "2", "--config", "{tmp}/absent.json"], None, None, "usage error:"),
    (["--trials", "2"], "{trials: 3", None, "usage error:"),
    (["--trials", "2"], "[1, 2]", None, "usage error:"),
    ([], '{"trials": "x"}', None, "domain error:"),
    (["--trials", "2", "--out", "{tmp}/absent/r.json"], None, None, "usage error:"),
], ids=["tol-inf", "tol-nan", "env-seed", "config-missing", "config-not-json",
        "config-not-object", "config-wrong-type", "out-dir-missing"])
def test_main_bad_input_exits_2(tmp_path, monkeypatch, capsys, flags, config, env, prefix):
    argv = ["verify", "--suite", "jordan", "--algebra", "gamma:2"]
    argv += [f.format(tmp=tmp_path) for f in flags]
    if config is not None:
        path = tmp_path / "cfg.json"
        path.write_text(config)
        argv += ["--config", str(path)]
    if env is not None:
        monkeypatch.setenv("JK_SEED", env)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(prefix) and err.count("\n") == 1
