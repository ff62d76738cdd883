"""Command line front end: dispatch, exit codes, output formats."""

import dataclasses
import io
import json
import math
import re
import sys
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delta_ineq import cli
from delta_ineq.harness import config_from_json, run_bound_suite
from delta_ineq.reporting import CSV_VERSION_LINE, json_dumps, json_pieces, write_json
from test_golden import WALL_TIME


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


def test_verify_bounds_builds_rows_only_for_csv(monkeypatch, tmp_path):
    real = cli.run_bound_suite
    kept = []

    def spy(config, **kwargs):
        rep = real(config, **kwargs)
        kept.append(len(rep.rows))
        return rep

    monkeypatch.setattr(cli, "run_bound_suite", spy)
    assert run(["verify-bounds", "--trials", "4", "--out", str(tmp_path / "b.json")]) == 0
    assert run(["verify-bounds", "--trials", "4", "--format", "csv",
                "--out", str(tmp_path / "b.csv")]) == 0
    assert kept == [0, 4 * 6 * 2]


def test_json_dumps_round_trips_every_float():
    obj = {"ratio": float("inf"), "floor": float("-inf"), "nan": float("nan"),
           "finite": [0.1, -2.5e-300, 1e308, 7.0, -0.0]}
    text = json_dumps(obj)
    assert '"ratio": Infinity' in text and "-Infinity" in text and "NaN" in text
    back = json.loads(text)
    assert back["ratio"] == float("inf") and back["floor"] == float("-inf")
    assert back["nan"] != back["nan"]
    assert all(type(x) is float for x in back["finite"])
    assert [x.hex() for x in back["finite"]] == [x.hex() for x in obj["finite"]]
    assert "0.1," in text and "7.0," in text and "-0.0\n" in text


JSON_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(), st.text(max_size=4),
                         st.floats(allow_nan=True, allow_infinity=True),
                         st.sampled_from([-0.0, float("inf"), float("-inf"), float("nan")]))
JSON_KEYS = st.one_of(st.text(max_size=4), st.integers(), st.floats(), st.booleans(), st.none())
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.lists(inner, max_size=4).map(tuple),
                            st.dictionaries(JSON_KEYS, inner, max_size=4)),
    max_leaves=24)


@settings(max_examples=300, deadline=None)
@given(JSON_VALUES)
def test_json_dumps_parses_as_the_indented_text(obj):
    # json.dumps of the parsed object shows float repr, -0.0, NaN, int
    # against float, key order and string keys
    want = json.dumps(json.loads(json.dumps(obj, indent=2)))
    assert json.dumps(json.loads(json_dumps(obj))) == want


@settings(max_examples=300, deadline=None)
@given(JSON_VALUES)
def test_write_json_writes_the_text_of_json_dumps(obj):
    buf = io.StringIO()
    write_json(obj, buf)
    # the same text, so it parses to what json_dumps's text parses to
    assert buf.getvalue() == json_dumps(obj)


def test_json_dumps_lays_out_two_levels():
    obj = {"empty": [], "none": {}, "trace": (0.5, -0.0), "nest": {"k": {"deep": [1, (2,)]}},
           "rows": [{"x": float("inf")}, [float("nan"), []]], "n": 3}
    assert json_dumps(obj).splitlines() == [
        "{",
        '  "empty": [],',
        '  "none": {},',
        '  "trace": [',
        "    0.5,",
        "    -0.0",
        "  ],",
        '  "nest": {',
        '    "k": {"deep": [1, [2]]}',
        "  },",
        '  "rows": [',
        '    {"x": Infinity},',
        "    [NaN, []]",
        "  ],",
        '  "n": 3',
        "}",
    ]


def test_suite_reports_write_one_witness_per_line(tmp_path):
    cfg = tmp_path / "real.json"
    cfg.write_text(json.dumps({"scales": ["real"], "func": {"kind": "poly"},
                               "weight": {"kind": "poly"}}))
    runs = {"identity": (["verify-identity", "--trials", "5"], 0),
            "bounds": (["verify-bounds", "--trials", "40", "--seed", "3",
                        "--config", str(cfg)], 2),
            "crosscheck": (["crosscheck", "--trials", "5"], 0)}
    for name, (argv, code) in runs.items():
        out = tmp_path / f"{name}.json"
        assert run(argv + ["--out", str(out)]) == code
        text = out.read_text(encoding="utf-8")
        report = json.loads(text)
        if name == "bounds":     # literal findings and t7-chain failures
            assert report["findings"] and report["failures"]
        lines = text.splitlines()
        # each top-level key starts its own line
        assert [ln.split('"')[1] for ln in lines if ln.startswith('  "')] == list(report)
        assert len(WALL_TIME.findall(text)) == 1
        for part in ("findings", "failures"):
            witnesses = report[part]
            if not witnesses:
                assert f'  "{part}": [],' in lines
                continue
            first = lines.index(f'  "{part}": [') + 1
            body = lines[first:first + len(witnesses)]
            assert lines[first + len(witnesses)] in ("  ],", "  ]")
            assert [json.loads(ln.strip().rstrip(",")) for ln in body] == witnesses


def test_csv_rejected_without_bound_rows(capsys):
    for command in ("verify-identity", "crosscheck", "sharpness"):
        assert run([command, "--trials", "2", "--format", "csv"]) == 1
        err = capsys.readouterr().err
        assert "unrecognized arguments: --format csv" in err
        assert "Traceback" not in err


def test_cli_surface_is_pinned():
    """Every subcommand's option strings; a new flag is a deliberate edit here."""
    common = {"-h", "--help", "--config", "--tol", "--out"}
    seeded = {"--seed", "--trials"}
    rows = {"--format", "--variant"}
    want = {
        "verify-identity": common | seeded | {"--scale"},
        "verify-bounds": common | seeded | {"--scale"} | rows,
        "crosscheck": common | seeded,
        "sharpness": common | seeded | {"--scale", "--theorem"},
        "eval": common | {"--scale"} | rows,
    }
    subs = next(action for action in cli.build_parser()._actions
                if action.dest == "command")
    got = {name: {opt for action in sub._actions for opt in action.option_strings}
           for name, sub in subs.choices.items()}
    assert got == want


@pytest.mark.parametrize("argv", [["eval", "--seed", "1"], ["eval", "--trials", "5"],
                                  ["crosscheck", "--scale", '{"kind": "integer", "lo": 0, "hi": 9}']])
def test_unread_flags_are_usage_errors(argv, capsys):
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert f"unrecognized arguments: {argv[1]}" in err
    assert "Traceback" not in err


SCALE_0_8 = {"kind": "integer", "lo": 0, "hi": 8}


@pytest.mark.parametrize("command,body,field", [
    ("verify-identity", {"variants": ["corrected"]}, "variants"),
    ("crosscheck", {"scales": ["integer"]}, "scales"),
    ("crosscheck", {"variants": ["corrected"]}, "variants"),
    ("crosscheck", {"scale": SCALE_0_8}, "scale"),
    ("sharpness", {"config": {"scales": ["integer"]}}, "scales"),
    ("sharpness", {"config": {"size_range": [3, 8]}}, "size_range"),
    ("sharpness", {"config": {"weight": {"kind": "sampled"}}}, "weight"),
    ("sharpness", {"config": {"variants": ["corrected"]}}, "variants"),
    ("sharpness", {"config": {"scale": SCALE_0_8}}, "scale"),
    ("sharpness", {"config": {"func": {"kind": "sampled"}}}, "kind"),
    ("sharpness", {"config": {"func": {"max_degree": 2}}}, "max_degree"),
    ("sharpness", {"config": {"func": {"coeff_range": 1.0}}}, "coeff_range"),
])
def test_unread_config_keys_are_rejected(command, body, field, tmp_path, capsys):
    cfgf = tmp_path / "c.json"
    cfgf.write_text(json.dumps(body))
    assert run([command, "--trials", "2", "--config", str(cfgf)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: unknown") and repr(field) in err
    assert "Traceback" not in err


def test_file_variants_hold_without_the_flag(tmp_path):
    cfgf = tmp_path / "c.json"
    cfgf.write_text(json.dumps({"variants": ["corrected"]}))
    argv = ["verify-bounds", "--trials", "2", "--seed", "1", "--config", str(cfgf)]
    out = tmp_path / "b.json"
    assert run(argv + ["--out", str(out)]) == 0
    theorems = ("T5", "T6a", "T6b", "T7-L2", "T7-Gruss", "T8")
    corrected = {f"{t}/corrected" for t in theorems}
    assert set(json.loads(out.read_text())["checks"]) == corrected | {"t7-chain"}
    assert run(argv + ["--variant", "both", "--out", str(out)]) == 0
    assert set(json.loads(out.read_text())["checks"]) == (
        corrected | {f"{t}/literal" for t in theorems} | {"t7-chain"})


def test_scale_flag_writes_the_config_scale(tmp_path):
    scale = {"kind": "qlattice", "q": 1.5, "kmin": -2, "kmax": 6}
    cfgf = tmp_path / "c.json"
    cfgf.write_text(json.dumps({"scale": scale}))
    argv = ["verify-identity", "--trials", "5", "--seed", "3"]
    by_flag, by_file = tmp_path / "flag.json", tmp_path / "file.json"
    assert run(argv + ["--scale", json.dumps(scale), "--out", str(by_flag)]) == 0
    assert run(argv + ["--config", str(cfgf), "--out", str(by_file)]) == 0
    wall = re.compile(r'"wall_time_s":\s*[^,\n}]*')
    assert wall.sub("", by_flag.read_text()) == wall.sub("", by_file.read_text())


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


def test_sharpness_rejects_a_config_that_is_not_an_object(tmp_path, capsys):
    cfgf = tmp_path / "sh.json"
    cfgf.write_text(json.dumps({"config": []}))
    assert run(["sharpness", "--config", str(cfgf)]) == 1
    assert capsys.readouterr().err == "error: config must be a JSON object\n"


def test_sharpness_scale_override_acts_on_the_spec_only(capsys):
    # a real interval reaches the search, which rejects it, rather than the
    # trial config, which would ask for polynomial families
    scale = '{"kind": "real", "lo": 0, "hi": 9}'
    assert run(["sharpness", "--trials", "5", "--scale", scale]) == 1
    assert capsys.readouterr().err == "error: sharpness search runs on discrete scales only\n"


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


@pytest.mark.parametrize("bracket", [{"gamma": "abc"}, {"big_gamma": "abc"},
                                     {"gamma": float("nan")}, {"big_gamma": float("nan")}],
                         ids=["gamma-text", "big-gamma-text", "gamma-nan", "big-gamma-nan"])
def test_eval_rejects_a_bracket_end_that_is_not_a_finite_number(bracket, tmp_path, capsys):
    cfgf = tmp_path / "ev.json"
    cfgf.write_text(json.dumps(WORKED_EVAL | bracket))        # json writes NaN as NaN
    out = tmp_path / "o.json"
    assert run(["eval", "--config", str(cfgf), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "finite" in err and "Traceback" not in err
    assert not out.exists()                                   # no report, so no NaN in one


def test_eval_rejects_a_bool_bracket_end_and_keeps_an_int_one(tmp_path, capsys):
    # f = t^2 has f^Delta in [1, 7], so true, read as 1, bracketed it and
    # the report printed "gamma": true
    cfgf = tmp_path / "ev.json"
    out = tmp_path / "o.json"
    cfgf.write_text(json.dumps(WORKED_EVAL | {"gamma": True}))
    assert run(["eval", "--config", str(cfgf), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1 and "Traceback" not in err
    assert not out.exists()
    cfgf.write_text(json.dumps(WORKED_EVAL | {"big_gamma": 7}))
    assert run(["eval", "--config", str(cfgf), "--out", str(out)]) == 0
    assert '"big_gamma": 7,' in out.read_text()


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


@pytest.mark.parametrize("scale", [{"kind": "grid", "points": [0, 1]},
                                   {"kind": "integer", "lo": 0, "hi": 1},
                                   {"kind": "qlattice", "q": 2, "kmin": 0, "kmax": 1}],
                         ids=["grid", "integer", "qlattice"])
def test_fixed_scale_without_an_interior_point_is_config_error(scale, tmp_path, capsys):
    # x is drawn from the points strictly inside the scale; two points have none
    out = tmp_path / "o.json"
    for command in ("verify-identity", "verify-bounds"):
        argv = [command, "--trials", "2", "--scale", json.dumps(scale), "--out", str(out)]
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "three points" in err and "Traceback" not in err
        assert not out.exists()
    three = {**scale, "points": [0, 1, 2]} if "points" in scale else {
        **scale, ("hi" if "hi" in scale else "kmax"): 2}
    assert run(["verify-identity", "--trials", "2", "--scale", json.dumps(three),
                "--out", str(out)]) == 0


def test_infinite_tolerance_is_config_error(tmp_path, capsys):
    cfgf = tmp_path / "c.json"
    cfgf.write_text(json.dumps({"tolerance": float("inf")}))       # json writes Infinity
    evalf = tmp_path / "ev.json"
    evalf.write_text(json.dumps(WORKED_EVAL))
    out = tmp_path / "o.json"
    for argv in (["verify-identity", "--trials", "2", "--tol", "1e400"],
                 ["verify-identity", "--trials", "2", "--config", str(cfgf)],
                 ["eval", "--config", str(evalf), "--tol", "1e400"]):
        assert run(argv + ["--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "tolerance" in err and "Traceback" not in err
        assert not out.exists()


COERCED_SCALES = {
    "integer-float-ends": ({"kind": "integer", "lo": 0.5, "hi": 4.9}, "JSON integer"),
    "integer-string-end": ({"kind": "integer", "lo": "0", "hi": 4}, "JSON integer"),
    "integer-bool-end": ({"kind": "integer", "lo": True, "hi": 4}, "JSON integer"),
    "qlattice-float-exponent": ({"kind": "qlattice", "q": 2, "kmin": 0, "kmax": 3.7},
                                "JSON integer"),
    "grid-string-point": ({"kind": "grid", "points": [0, 1, "2"]}, "JSON number"),
    "integer-past-2-53": ({"kind": "integer", "lo": 2 ** 60, "hi": 2 ** 60 + 5}, "2**53"),
}
COERCED_CONFIGS = {
    "string-tolerance": ({"tolerance": "1e-3"}, "tolerance"),
    "bool-value-range": ({"func": {"value_range": True}}, "value_range"),
    "bool-coeff-range": ({"func": {"kind": "poly", "coeff_range": True}}, "coeff_range"),
}


@pytest.mark.parametrize("case", sorted(COERCED_SCALES) + sorted(COERCED_CONFIGS))
def test_coerced_scale_and_config_numbers_are_config_errors(case, tmp_path, capsys):
    # each of these ran before, rounded or parsed into a number
    if case in COERCED_SCALES:
        scale, word = COERCED_SCALES[case]
        extra = ["--scale", json.dumps(scale)]
    else:
        body, word = COERCED_CONFIGS[case]
        cfgf = tmp_path / "c.json"
        cfgf.write_text(json.dumps(body))
        extra = ["--config", str(cfgf)]
    out = tmp_path / "o.json"
    assert run(["verify-identity", "--trials", "2", "--out", str(out)] + extra) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and word in err and "Traceback" not in err
    assert not out.exists()


COERCED_SPECS = {
    "string-x": {"x": "0.5"},
    "string-a": {"a": "0"},
    "bool-alpha": {"alpha": True},
}


@pytest.mark.parametrize("case", sorted(COERCED_SPECS))
def test_coerced_kernel_spec_numbers_are_config_errors(case, tmp_path, capsys):
    # each of these ran before, parsed into a number by float()
    cfgf = tmp_path / "ev.json"
    cfgf.write_text(json.dumps(WORKED_EVAL | {"spec": WORKED_EVAL["spec"] | COERCED_SPECS[case]}))
    out = tmp_path / "o.json"
    assert run(["eval", "--config", str(cfgf), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "JSON number" in err and "Traceback" not in err
    assert not out.exists()


def test_eval_rejects_a_function_coefficient_that_is_not_finite(tmp_path, capsys):
    # json.dumps writes NaN and json.loads reads it back; the error must name
    # the coefficient, not the gamma and Gamma that a NaN f^Delta spoils
    cfgf = tmp_path / "ev.json"
    nan_f = {"repr": "poly", "coeffs": [0.0, math.nan, 1.0]}
    cfgf.write_text(json.dumps(WORKED_EVAL | {"f": nan_f}))
    out = tmp_path / "o.json"
    assert run(["eval", "--config", str(cfgf), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "coeffs[1] must be finite" in err
    assert "gamma" not in err and "Traceback" not in err
    assert not out.exists()


def test_eval_rejects_a_kernel_whose_branch_coefficient_underflows(tmp_path, capsys):
    # (alpha + beta)(x - a) = 0.5 * 5e-324 rounds to 0, so alpha over it
    # divided by zero
    cfgf = tmp_path / "ev.json"
    cfgf.write_text(json.dumps({
        "spec": {"scale": {"kind": "real", "lo": 0, "hi": 0.75},
                 "a": 0, "b": 0.75, "x": 5e-324, "alpha": 0.5, "beta": 0,
                 "h": {"repr": "poly", "coeffs": [0.0, 1.0]}},
        "f": {"repr": "poly", "coeffs": [0.0, 0.0, 1.0]}}))
    out = tmp_path / "o.json"
    assert run(["eval", "--config", str(cfgf), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "branch coefficients" in err and "Traceback" not in err
    assert not out.exists()


def test_tol_flag_still_sets_the_tolerance(tmp_path):
    out = tmp_path / "o.json"
    assert run(["verify-identity", "--trials", "2", "--tol", "1e-3", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["tolerance"] == 1e-3


def test_stdout_when_no_out_flag(capsys):
    code = run(["verify-identity", "--trials", "3", "--seed", "1"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["suite"] == "identity"


WRITER_RUNS = {
    "verify-identity": ["verify-identity", "--trials", "5"],
    "verify-bounds": ["verify-bounds", "--trials", "5", "--variant", "both"],
    "verify-bounds-csv": ["verify-bounds", "--trials", "5", "--format", "csv"],
    "crosscheck": ["crosscheck", "--trials", "5"],
    "sharpness": ["sharpness", "--trials", "50"],
    "eval": ["eval"],
    "eval-csv": ["eval", "--format", "csv"],
}


@pytest.mark.parametrize("name", sorted(WRITER_RUNS))
def test_stdout_and_out_get_the_same_bytes(name, tmp_path, capsysbinary):
    argv = list(WRITER_RUNS[name])
    if argv[0] == "eval":
        cfgf = tmp_path / "ev.json"
        cfgf.write_text(json.dumps(WORKED_EVAL))
        argv += ["--config", str(cfgf)]
    out = tmp_path / "report"
    assert run(argv + ["--out", str(out)]) == 0
    assert run(argv) == 0
    # the wall time is the one field two runs of a suite do not share
    written, printed = (WALL_TIME.sub("", data.decode("utf-8"))
                        for data in (out.read_bytes(), capsysbinary.readouterr().out))
    assert printed == written and len(written) > 100


class _RecordingSink:
    """Standard out that keeps the length of each write."""

    def __init__(self) -> None:
        self.buf = io.StringIO()
        self.sizes = []

    def write(self, piece: str) -> int:
        self.sizes.append(len(piece))
        return self.buf.write(piece)

    def writelines(self, pieces) -> None:
        for piece in pieces:
            self.write(piece)


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_no_write_is_longer_than_a_line_of_the_report(fmt, monkeypatch):
    sink = _RecordingSink()
    monkeypatch.setattr(sys, "stdout", sink)
    assert run(["verify-bounds", "--trials", "40", "--seed", "7", "--variant", "both",
                "--format", fmt]) == 0
    text = sink.buf.getvalue()
    report_lines = text.splitlines(keepends=True)
    assert len(sink.sizes) >= len(report_lines) > 50
    assert max(sink.sizes) <= max(map(len, report_lines))


def test_the_writer_never_holds_the_report_text(tmp_path):
    # the suite runs before the trace starts; under it, the CLI's writer
    # turns the report into JSON and writes it to a file.  Joining the text
    # first would hold at least the report's size, and encoding it for the
    # file as much again.  (That main() writes line-sized pieces only is
    # test_no_write_is_longer_than_a_line_of_the_report.)
    report = run_bound_suite(config_from_json(
        {"seed": 1, "trials": 300, "variants": ["literal", "corrected"]}, "bounds"))
    out = tmp_path / "b.json"
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        cli._write(json_pieces(report.to_json()), str(out))
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    size = out.stat().st_size
    assert size > 300_000 and json.loads(out.read_text())["findings"]
    assert peak < size / 5, (peak, size)
