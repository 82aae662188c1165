"""Command-line surface: JSON-lines output, exit codes, flag handling."""

import json
import warnings

import pytest

from conecheck.checkers import CheckConfig, check, refute
from conecheck.cli import main


def _run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_catalog_list_json_lines(capsys):
    code, out, _ = _run(capsys, "catalog", "list")
    assert code == 0
    lines = [ln for ln in out.splitlines() if ln.strip()]
    assert len(lines) >= 30
    objs = [json.loads(ln) for ln in lines]
    ids = {o["id"] for o in objs}
    assert {"det", "lse"} <= ids
    for o in objs:
        assert set(o) == {"id", "domain", "labels", "status", "source"}


def test_catalog_list_pretty(capsys):
    code, out, _ = _run(capsys, "catalog", "list", "--pretty")
    assert code == 0
    assert "det" in out


def test_check_violation_exit_code(capsys):
    code, out, _ = _run(capsys, "check", "geomean2", "--property", "strong-subadd",
                        "--trials", "300", "--seed", "1")
    assert code == 1
    report = json.loads(out.strip())
    assert report["verdict"] == "VIOLATION_FOUND"
    assert report["witness"] is not None


def test_check_pass_exit_code(capsys):
    code, out, _ = _run(capsys, "check", "log1p", "--property", "strong-subadd",
                        "--trials", "300", "--seed", "1")
    assert code == 0
    assert json.loads(out.strip())["verdict"] == "NO_VIOLATION_FOUND"


def test_unknown_property_is_usage_error(capsys):
    code, _, _ = _run(capsys, "check", "log1p", "--property", "banana")
    assert code == 2


def test_unknown_entry_is_usage_error(capsys):
    code, _, err = _run(capsys, "check", "nope", "--property", "subadd", "--trials", "10")
    assert code == 2
    assert "unknown catalog id" in err


def test_bad_param_is_usage_error(capsys):
    for entry, prop, param in (
        ("trace-pow", "strong-subadd", "p=3.0"),
        ("trace-pow", "strong-subadd", "zzz=1"),
        ("trace-pow", "strong-subadd", "p=abc"),
        ("concave-of-linear", "strong-subadd", "a=1,x"),
        ("logdet-pencil", "second-diff-nonpos", "order=2.5"),
    ):
        code, out, err = _run(capsys, "check", entry, "--property", prop,
                              "--trials", "10", "--param", param)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {entry}: ") and "Traceback" not in err


@pytest.mark.parametrize("entry, prop, param", [
    ("det-shift-recip", "strong-superadd", "beta=inf"),
    ("det-recip-pow", "completely-monotone", "beta=nan"),
])
def test_a_non_finite_param_is_usage_error(capsys, entry, prop, param):
    """A non-finite parameter lies outside every declared interval, so it is
    refused before any trial, neither a verdict nor a numeric failure."""
    code, out, err = _run(capsys, "check", entry, "--property", prop, "--param", param)
    name, value = param.split("=")
    assert (code, out) == (2, "")
    assert err == f"error: {entry}: {name} must lie in [0, inf), got {value}\n"


def test_param_and_dim_flags(capsys):
    for argv, dim in (
        (("trace-pow", "--param", "p=0.3"), 2),
        (("concave-of-linear", "--param", "a=1,0.5", "--param", "inner=sigmoid"), 2),
    ):
        code, out, _ = _run(capsys, "check", *argv, "--property", "strong-subadd",
                            "--trials", "200", "--dim", str(dim), "--seed", "2",
                            "--scale", "0.5")
        assert code == 0
        assert json.loads(out)["config"]["scale"] == 0.5


def test_json_output_file(tmp_path, capsys):
    path = tmp_path / "report.json"
    code, out, _ = _run(capsys, "check", "log1p", "--property", "subadd",
                        "--trials", "100", "--json", str(path))
    assert code == 0
    assert out.strip() == ""
    assert json.loads(path.read_text())["property"] == "subadd"


def test_unwritable_json_path(capsys):
    code, _, err = _run(capsys, "check", "log1p", "--property", "subadd",
                        "--trials", "100", "--json", "/nonexistent-dir/x.json")
    assert code == 2


def test_refute_command(capsys):
    code, out, _ = _run(capsys, "refute", "half-sq-plus-cos", "--property", "superadd",
                        "--trials", "300", "--seed", "3")
    assert code == 1
    assert json.loads(out.strip())["mode"] == "refute"


def test_certify_commands(capsys):
    code, out, _ = _run(capsys, "certify", "shannon-entropy", "--method", "hessian-sign",
                        "--sign", "nonpos", "--trials", "50")
    assert code == 0
    assert json.loads(out.strip())["verdict"] == "CERTIFIED_NUMERIC"
    code, out, _ = _run(capsys, "certify", "lse", "--method", "hessian-sign",
                        "--sign", "nonpos", "--trials", "50")
    assert code == 1
    code, _, _ = _run(capsys, "certify", "lse", "--method", "hessian-sign")
    assert code == 2  # missing --sign
    code, out, _ = _run(capsys, "certify", "lse", "--method", "topkis",
                        "--mode", "submodular", "--trials", "50")
    assert code == 0


def test_certify_counts_its_points_with_trials(tmp_path, capsys):
    """``--trials`` (or a config file's ``trials``) is the certificate's
    point count, 200 when unset; there is no ``--points``."""
    args = ("certify", "sq-norm", "--method", "hessian-sign", "--sign", "nonneg")
    for extra, points in ((("--trials", "5"), 5), ((), 200)):
        code, out, _ = _run(capsys, *args, *extra)
        assert (code, json.loads(out)["config"]["trials"]) == (0, points)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"trials": 7}))
    code, out, _ = _run(capsys, "--config", str(cfg), *args)
    assert (code, json.loads(out)["config"]["trials"]) == (0, 7)
    code, out, _ = _run(capsys, *args, "--points", "5")
    assert (code, out) == (2, "")
    # a certificate on no sampled points would certify on no evidence
    for trials in ("0", "-5"):
        code, out, err = _run(capsys, *args, "--trials", trials)
        assert (code, out) == (2, "") and "trials must be >= 1" in err


@pytest.mark.parametrize("method,needs", [
    ("hessian-sign", "--sign nonpos|nonneg"),
    ("topkis", "--mode submodular|supermodular"),
    ("diff-monotone", "--direction nonincreasing|nondecreasing"),
])
def test_certify_names_the_missing_flag(capsys, method, needs):
    code, out, err = _run(capsys, "certify", "lse", "--method", method)
    assert (code, out) == (2, "")
    assert err == f"error: --method {method} needs {needs}\n"


def test_config_file_defaults(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"trials": 150, "seed": 9}))
    code, out, _ = _run(capsys, "--config", str(cfg), "check", "log1p",
                        "--property", "subadd")
    assert code == 0
    report = json.loads(out.strip())
    assert report["config"]["trials"] == 150
    assert report["config"]["seed"] == 9
    # explicit flags win over the config file
    code, out, _ = _run(capsys, "--config", str(cfg), "check", "log1p",
                        "--property", "subadd", "--trials", "77")
    assert json.loads(out.strip())["config"]["trials"] == 77


def test_config_file_and_flags_write_identical_reports(tmp_path, capsys):
    """A config value takes its flag's type: ``{"scale": 2}`` writes the
    same bytes as ``--scale 2``."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 3, "scale": 2, "trials": 200}))
    common = ("check", "log1p", "--property", "strong-subadd")
    assert _run(capsys, "--config", str(cfg), *common, "--json", str(tmp_path / "a.json"))[0] == 0
    assert _run(capsys, *common, "--seed", "3", "--scale", "2", "--trials", "200",
                "--json", str(tmp_path / "b.json"))[0] == 0
    written = (tmp_path / "a.json").read_bytes()
    assert written == (tmp_path / "b.json").read_bytes()
    assert b'"scale": 2.0' in written


@pytest.mark.parametrize(
    "content", ['[1, 2]', '{"trials": "abc"}', '{"seed": 1.5}', '{"dim": "abc"}'])
def test_malformed_config_is_usage_error(tmp_path, capsys, content):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(content)
    code, out, err = _run(capsys, "--config", str(cfg), "check", "log1p",
                          "--property", "subadd")
    assert (code, out) == (2, "")
    assert err.startswith(f"error: config file {str(cfg)!r}") and "Traceback" not in err


def test_a_config_key_no_subcommand_takes_is_usage_error(tmp_path, capsys):
    """``boundary_prob``, which no subcommand sets, and a misspelt
    ``trials`` were dropped and the check ran at its defaults; a key of
    another subcommand's flag is still taken and ignored."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"boundary_prob": 0.5, "trails": 5}))
    code, out, err = _run(capsys, "--config", str(cfg), "check", "log1p",
                          "--property", "strong-subadd")
    assert (code, out) == (2, "")
    assert "boundary_prob, trails" in err and "Traceback" not in err
    cfg.write_text(json.dumps({"method": "topkis", "trials": 50}))
    code, out, _ = _run(capsys, "--config", str(cfg), "check", "log1p", "--property", "subadd")
    assert code == 0 and json.loads(out)["config"]["trials"] == 50


def test_config_sets_the_order_cap_of_check_and_refute(tmp_path, capsys):
    """``order_cap`` has no flag; a config file sets it for ``check`` and
    ``refute``, with the report ``CheckConfig(order_cap=...)`` writes, and
    ``certify``, which has no order, takes the key and ignores it."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"order_cap": 7, "trials": 300}))
    for command, run in (("check", check), ("refute", refute)):
        code, out, _ = _run(capsys, "--config", str(cfg), command, "exp-neg-linear",
                            "--property", "completely-monotone")
        want = run("exp-neg-linear", "completely-monotone", CheckConfig(trials=300, order_cap=7))
        assert (code, out) == (0, want.json_line() + "\n")
    code, _, _ = _run(capsys, "--config", str(cfg), "certify", "sq-norm",
                      "--method", "hessian-sign", "--sign", "nonneg")
    assert code == 0
    for bad in (13, 0, True, 2.0):
        cfg.write_text(json.dumps({"order_cap": bad}))
        code, out, err = _run(capsys, "--config", str(cfg), "refute", "exp-neg-linear",
                              "--property", "completely-monotone")
        assert (code, out) == (2, "") and "order_cap" in err, bad


def test_property_takes_a_form_table_expression(capsys):
    """``--property`` takes what ``check`` and ``refute`` take: a label or
    an expression, whose report names the expression."""
    args = ("logistic-pow", "--param", "beta=0.5", "--trials", "3000")
    for k, want in ((3, 0), (5, 1)):
        prop = f"completely-monotone[k={k}]"
        code, out, _ = _run(capsys, "refute", *args, "--property", prop)
        report = refute("logistic-pow", prop, CheckConfig(trials=3000), params={"beta": 0.5})
        assert (code, out) == (want, report.json_line() + "\n")
        assert report.to_json()["property"] == prop
    assert json.loads(out)["witness"]["expression"] == "completely-monotone[k=5]"


@pytest.mark.parametrize("prop,message", [
    ("completely-monotone[k=13]", "it must lie in 0..12"),
    ("alpha-strong[alpha=-1]", "it must be finite and positive"),
    ("banana[k=3]", "unknown property 'banana[k=3]'"),
    ("origin-nonneg", "is an origin condition, not a claim"),
])
def test_a_bad_expression_is_usage_error(capsys, prop, message):
    code, out, err = _run(capsys, "refute", "log1p", "--property", prop, "--trials", "30")
    assert (code, out) == (2, "")
    assert message in err and "Traceback" not in err


@pytest.mark.parametrize("scale", ["inf", "nan", "-1"])
def test_a_scale_that_is_not_finite_and_positive_is_usage_error(capsys, scale):
    """``--scale inf`` used to warn of ``0 * inf`` in sampling and exit 3
    with 99 of 100 trials skipped."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = _run(capsys, "check", "log1p", "--property", "strong-subadd",
                              "--trials", "100", "--scale", scale)
    assert (code, out) == (2, "")
    assert err.startswith("error: scale must be finite and positive")


@pytest.mark.parametrize("scale,rung", [("1e308", "10.0x"), ("1e-323", "0.1x")])
def test_refute_checks_every_rung_scale_before_any_trial(capsys, monkeypatch, scale, rung):
    """``refute --scale 1e308`` ran two rungs, warned of overflows and
    exited 2 on a scale of inf, which the user never gave: its last rung is
    10 times the scale."""
    from conecheck import cones

    drawn = []
    monkeypatch.setattr(cones, "sample_batch", lambda *a, **kw: drawn.append(a) or 1 / 0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = _run(capsys, "refute", "log1p", "--property", "strong-subadd",
                              "--trials", "30", "--scale", scale)
    assert (code, out, drawn) == (2, "", [])
    assert err.startswith(f"error: scale {float(scale)!r} ") and f"{rung} rung" in err


def test_pretty_check_output(capsys):
    code, out, _ = _run(capsys, "check", "log1p", "--property", "subadd",
                        "--trials", "50", "--pretty")
    assert code == 0
    assert "verdict" in out


def test_suite_without_json_prints_one_line_per_criterion(capsys):
    code, out, err = _run(capsys, "suite", "--seed", "0")
    assert code == 1  # the logdet second-difference clause fails as stated
    lines = [json.loads(ln) for ln in out.splitlines()]
    assert [c["criterion"] for c in lines] == list(range(1, 12))
    assert [c["criterion"] for c in lines if not c["passed"]] == [5]
    assert "criterion  5 [FAIL]" in err


def test_suite_unwritable_json_fails_fast(capsys):
    code, _, err = _run(capsys, "suite", "--json", "/nonexistent-dir/manifest.json")
    assert code == 2


def test_console_script_entry_point():
    import subprocess
    import sys

    out = subprocess.run(
        [sys.executable, "-m", "conecheck.cli", "--version"],
        capture_output=True, text=True,
    )
    assert out.returncode == 0
    assert "conecheck" in out.stdout


def test_numeric_failure_exit_code(monkeypatch, capsys):
    from conecheck import cli
    from conecheck.errors import NumericFailure

    def boom(*args, **kwargs):
        raise NumericFailure("synthetic")

    monkeypatch.setattr(cli, "check_claims", boom)
    code = cli.main(["check", "log1p", "--property", "subadd", "--trials", "10"])
    assert code == 3
