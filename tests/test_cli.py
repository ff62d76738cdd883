"""Command line front end: dispatch, exit codes, output formats."""

import dataclasses
import json

import pytest

from delta_ineq import cli
from delta_ineq.reporting import CSV_VERSION_LINE


def run(args):
    return cli.main(args)


WORKED_EVAL = {
    "spec": {"scale": {"kind": "integer", "lo": 0, "hi": 4},
             "a": 0, "b": 4, "x": 2, "alpha": 1.0, "beta": 1.0,
             "h": {"repr": "poly", "coeffs": [0.0, 1.0]}},
    "f": {"repr": "poly", "coeffs": [0.0, 0.0, 1.0]},
}


# ----------------------------------------------------------------- plumbing

def test_help_exits_zero(capsys):
    assert run(["--help"]) == 0
    assert "verify-identity" in capsys.readouterr().out


def test_no_command_is_usage_error(capsys):
    assert run([]) == 1


def test_unknown_flag_is_usage_error(capsys):
    assert run(["verify-bounds", "--frob"]) == 1
    assert run(["frobnicate"]) == 1


def test_unreadable_config_is_usage_error(tmp_path, capsys):
    assert run(["verify-bounds", "--config", str(tmp_path / "absent.json")]) == 1
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    assert run(["verify-bounds", "--config", str(bad)]) == 1


def test_unwritable_out_is_io_error(capsys):
    code = run(["verify-identity", "--trials", "2",
                "--out", "/nonexistent-dir/x.json"])
    assert code == 1


# ------------------------------------------------------------------- suites

def test_verify_identity_json(tmp_path):
    out = tmp_path / "id.json"
    code = run(["verify-identity", "--trials", "40", "--seed", "7",
                "--out", str(out)])
    assert code == 0
    d = json.loads(out.read_text())
    assert d["suite"] == "identity"
    assert d["trials"] == 40
    assert d["passed"] is True
    assert d["checks"]["montgomery-identity"]["violations"] == 0


def test_verify_bounds_literal_reports_findings(tmp_path):
    out = tmp_path / "lit.json"
    code = run(["verify-bounds", "--variant", "literal", "--seed", "7",
                "--trials", "40", "--out", str(out)])
    assert code == 0                       # findings are not failures
    d = json.loads(out.read_text())
    assert d["findings"] and not d["failures"]


def test_verify_bounds_csv_contract(tmp_path):
    out = tmp_path / "b.csv"
    code = run(["verify-bounds", "--seed", "7", "--trials", "3",
                "--format", "csv", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == CSV_VERSION_LINE
    header = lines[1].split(",")
    assert header == ["trial_id", "theorem", "variant", "scale_kind",
                      "a", "b", "x", "alpha", "beta", "lhs", "rhs",
                      "slack", "pass"]
    body = lines[2:]
    assert len(body) == 3 * 6 * 2
    for line in body:
        cells = line.split(",")
        assert cells[12] in ("true", "false")
        float(cells[9]); float(cells[10]); float(cells[11])


def test_csv_rejected_without_bound_rows(capsys):
    assert run(["verify-identity", "--trials", "2", "--format", "csv"]) == 1
    assert run(["sharpness", "--trials", "2", "--format", "csv"]) == 1


def test_crosscheck_runs(tmp_path):
    out = tmp_path / "cc.json"
    assert run(["crosscheck", "--trials", "30", "--seed", "5",
                "--out", str(out)]) == 0
    d = json.loads(out.read_text())
    assert set(d["checks"]) == {"Z", "Q", "R"}


def test_corrected_violation_exits_two(monkeypatch, tmp_path):
    real = cli.run_bound_suite

    def sabotaged(config):
        rep = real(config)
        broken = dataclasses.replace(rep, failures=[{"kind": "bound"}])
        return broken

    monkeypatch.setattr(cli, "run_bound_suite", sabotaged)
    code = run(["verify-bounds", "--trials", "3",
                "--out", str(tmp_path / "x.json")])
    assert code == 2


# ---------------------------------------------------------------- sharpness

def test_sharpness_default_probe(tmp_path):
    out = tmp_path / "sh.json"
    code = run(["sharpness", "--trials", "1500", "--seed", "0",
                "--out", str(out)])
    assert code == 0
    d = json.loads(out.read_text())
    assert d["theorem"] == "T5"
    assert 0.0 < d["best_ratio"] <= 1.0 + 1e-10
    assert d["iterations"] <= 1500


def test_sharpness_config_file(tmp_path):
    cfgf = tmp_path / "sh.json"
    cfgf.write_text(json.dumps({
        "theorem": "T8",
        "spec": {"scale": {"kind": "integer", "lo": 0, "hi": 6},
                 "a": 0, "b": 6, "x": 3, "alpha": 1.0, "beta": 1.0,
                 "h": {"repr": "poly", "coeffs": [0.0, 1.0]}},
        "config": {"seed": 1, "trials": 300},
    }))
    out = tmp_path / "out.json"
    assert run(["sharpness", "--config", str(cfgf), "--out", str(out)]) == 0
    d = json.loads(out.read_text())
    assert d["theorem"] == "T8"
    assert d["iterations"] <= 300


def test_sharpness_rejects_unknown_file_keys(tmp_path):
    cfgf = tmp_path / "sh.json"
    cfgf.write_text(json.dumps({"theorem": "T5", "budget": 5}))
    assert run(["sharpness", "--config", str(cfgf)]) == 1


# --------------------------------------------------------------------- eval

def test_eval_worked_example(tmp_path):
    cfgf = tmp_path / "ev.json"
    cfgf.write_text(json.dumps(WORKED_EVAL))
    out = tmp_path / "ev_out.json"
    assert run(["eval", "--config", str(cfgf), "--out", str(out)]) == 0
    d = json.loads(out.read_text())
    assert d["montgomery"]["lhs"] == pytest.approx(-3.5, abs=1e-14)
    assert d["moments"]["int_p"] == pytest.approx(-0.5, abs=1e-14)
    assert d["moments"]["int_abs_p"] == pytest.approx(1.0, abs=1e-14)
    assert d["moments"]["int_p2"] == pytest.approx(0.375, abs=1e-14)
    assert d["gamma"] == 1.0 and d["big_gamma"] == 7.0
    t5 = next(r for r in d["bounds"]
              if r["theorem"] == "T5" and r["variant"] == "corrected")
    assert t5["slack"] == pytest.approx(3.5, abs=1e-14)
    # f = g = t^2 breaks the literal product printing; reported as a finding
    assert any(r["theorem"] == "T6b" for r in d["findings"])
    assert not d["failures"]


def test_eval_literal_only_row_count(tmp_path):
    cfgf = tmp_path / "ev.json"
    cfgf.write_text(json.dumps(WORKED_EVAL))
    out = tmp_path / "ev.csv"
    assert run(["eval", "--config", str(cfgf), "--variant", "literal",
                "--format", "csv", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 2 + 6             # version + header + one variant


def test_eval_requires_spec_and_f(tmp_path):
    cfgf = tmp_path / "ev.json"
    cfgf.write_text(json.dumps({"spec": WORKED_EVAL["spec"]}))
    assert run(["eval", "--config", str(cfgf)]) == 1


def test_eval_rejects_bad_bracket(tmp_path):
    bad = dict(WORKED_EVAL)
    bad["gamma"] = 2.0
    bad["big_gamma"] = 7.0
    cfgf = tmp_path / "ev.json"
    cfgf.write_text(json.dumps(bad))
    assert run(["eval", "--config", str(cfgf)]) == 1


def test_eval_scale_override(tmp_path):
    cfgf = tmp_path / "ev.json"
    cfgf.write_text(json.dumps(WORKED_EVAL))
    out = tmp_path / "o.json"
    scale = '{"kind": "grid", "points": [0.0, 1.0, 2.0, 3.0, 4.0]}'
    assert run(["eval", "--config", str(cfgf), "--scale", scale,
                "--out", str(out)]) == 0
    d = json.loads(out.read_text())
    assert d["bounds"][0]["scale_kind"] == "grid"
    assert d["montgomery"]["lhs"] == pytest.approx(-3.5, abs=1e-14)
    assert run(["eval", "--config", str(cfgf), "--scale", "{not json"]) == 1


def test_overflowing_qlattice_is_config_error(tmp_path, capsys):
    cfgf = tmp_path / "q.json"
    cfgf.write_text(json.dumps({"scale": {"kind": "qlattice", "q": 3.0,
                                          "kmin": 0, "kmax": 700}}))
    assert run(["verify-bounds", "--trials", "1", "--config", str(cfgf)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


def test_stdout_when_no_out_flag(capsys):
    code = run(["verify-identity", "--trials", "3", "--seed", "1"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["suite"] == "identity"
