"""Output gate: each command's report, wall time removed, hashes to a
committed sha256.

The runs are small and seeded, and go through ``cli.main`` in-process.  A
change that is meant to leave the output alone must leave every digest
here alone; a change that alters output on purpose updates the digest it
moves and says why.  To print the digests of the current tree, run
``PYTHONPATH=src python tests/test_golden.py``.
"""

import hashlib
import json
import re
import tempfile
from pathlib import Path

import pytest

from delta_ineq import cli

WALL_TIME = re.compile(r'"wall_time_s":\s*[^,\n}]*')

POLY_ALL_SCALES = {"scales": ["grid", "integer", "qlattice", "real"],
                   "func": {"kind": "poly"}, "weight": {"kind": "poly"}}
# the scale sizes of the identity-large bench workload
IDENTITY_LARGE = {"size_range": [200, 256]}
REAL_POLY = {"scales": ["real"], "func": {"kind": "poly"}, "weight": {"kind": "poly"}}
EVAL_QLATTICE = {
    "spec": {"scale": {"kind": "qlattice", "q": 1.5, "kmin": -2, "kmax": 6},
             "a": 0.4444444444444444, "b": 11.390625, "x": 1.5,
             "alpha": 1.25, "beta": 0.5,
             "h": {"repr": "poly", "coeffs": [0.25, -1.0, 0.5]}},
    "f": {"repr": "poly", "coeffs": [1.0, 0.5, -0.25, 0.125]},
    "g": {"repr": "poly", "coeffs": [-2.0, 0.75]},
}
# x = a with alpha = 0: P(a) = -beta/w (h(b) - h(a))/(b - a) is not 0, so
# M, M1 and M2 take f^Delta(a) in; f's only step is at a
EVAL_ANCHOR = {
    "spec": {"scale": {"kind": "integer", "lo": 0, "hi": 4},
             "a": 0, "b": 4, "x": 0, "alpha": 0, "beta": 1,
             "h": {"repr": "poly", "coeffs": [0.0, 1.0]}},
    "f": {"repr": "sampled", "table": [[0, 0], [1, 100], [2, 100], [3, 100], [4, 100]]},
}
SHARPNESS_T6B = {
    "theorem": "T6b",
    "spec": {"scale": {"kind": "integer", "lo": 0, "hi": 10},
             "a": 0, "b": 10, "x": 4, "alpha": 1.0, "beta": 2.0,
             "h": {"repr": "poly", "coeffs": [0.0, 1.0]}},
    "config": {"trials": 400},
}
# the other theorems the sharpness search scores, each on its own scale kind
SHARPNESS_T5 = {
    "theorem": "T5",
    "spec": {"scale": {"kind": "grid", "points": [0, 0.5, 1.25, 2, 3.5, 4, 5.75]},
             "a": 0, "b": 5.75, "x": 1.25, "alpha": 0.75, "beta": 1.5,
             "h": {"repr": "poly", "coeffs": [0.0, 1.0, 0.25]}},
    "config": {"trials": 300},
}
SHARPNESS_T6A = {
    "theorem": "T6a",
    "spec": {"scale": {"kind": "qlattice", "q": 1.5, "kmin": -2, "kmax": 5},
             "a": 0.4444444444444444, "b": 7.59375, "x": 1.5, "alpha": 2.0, "beta": 0.5,
             "h": {"repr": "poly", "coeffs": [0.25, -1.0, 0.5]}},
    "config": {"trials": 300},
}
SHARPNESS_T8 = {
    "theorem": "T8",
    "spec": {"scale": {"kind": "integer", "lo": -3, "hi": 6},
             "a": -3, "b": 6, "x": 1, "alpha": 0.4, "beta": 3.0,
             "h": {"repr": "poly", "coeffs": [0.5, -1.25, 0.75, 0.3]}},
    "config": {"trials": 300},
}
# x = a with alpha = 0: M1 and M2 take f^Delta(a) and g^Delta(a) in
SHARPNESS_T6B_ANCHOR = {
    "theorem": "T6b",
    "spec": {"scale": {"kind": "integer", "lo": 0, "hi": 8},
             "a": 0, "b": 8, "x": 0, "alpha": 0, "beta": 1.5,
             "h": {"repr": "poly", "coeffs": [0.0, 1.0]}},
    "config": {"trials": 300},
}

# name: (argv, config file body or None, exit code, sha256 of the report)
RUNS = {
    "verify-bounds": (
        ["verify-bounds", "--variant", "both", "--trials", "60", "--seed", "5"], None, 0,
        "97f28d46ac07b56686462df2adf414db2663119d8dd4ec643afe5346901e9dff"),
    "verify-bounds-csv": (
        ["verify-bounds", "--variant", "both", "--trials", "60", "--seed", "5",
         "--format", "csv"], None, 0,
        "13a4cf443aeccfd2036ca7589b5857540c3a41c55613adda24f0c76f482d3e02"),
    "verify-bounds-real": (
        ["verify-bounds", "--variant", "both", "--trials", "40", "--seed", "3"], REAL_POLY, 2,
        "3eb6e8f5793b3942affac0e88e13351803f7eb630003eca9902be9087143e8ce"),
    "verify-identity": (
        ["verify-identity", "--trials", "40", "--seed", "7"], None, 0,
        "1fcfcff8edf4d554f000b7465ac9044688cae770adccb6ae70d211d6a2b4b3fc"),
    "verify-identity-poly": (
        ["verify-identity", "--trials", "40", "--seed", "7"], POLY_ALL_SCALES, 0,
        "8a755fc0478116759dd8677070b6212a3854547971f503f75add2f6536100c75"),
    "verify-identity-large": (
        ["verify-identity", "--trials", "4", "--seed", "7"], IDENTITY_LARGE, 0,
        "b8ce1c50df16bab6668dd0cb53829212ad77459b656d2b7c18835d2f8361d804"),
    "crosscheck": (
        ["crosscheck", "--trials", "20", "--seed", "5"], None, 0,
        "bed5d6aa1a57d8bf9577041646014ed0b0dbc54a5f1e7b383a20d1bc41ff8cb6"),
    "sharpness-t6b": (
        ["sharpness", "--seed", "2"], SHARPNESS_T6B, 0,
        "92101f49795542bd4687649dc19632102486fe096c973b4fac7c1a4bdcc552c0"),
    "sharpness-t5": (
        ["sharpness", "--seed", "3"], SHARPNESS_T5, 0,
        "a79849602f5505680c71a3bf86094220f0853f59146e6d3b25426c561f13634d"),
    "sharpness-t6a": (
        ["sharpness", "--seed", "4"], SHARPNESS_T6A, 0,
        "bd2facb086304b47a268047f1a687938f9bb5c4280570deddf129efe7fd29f4d"),
    "sharpness-t8": (
        ["sharpness", "--seed", "6"], SHARPNESS_T8, 0,
        "e14977bd916d9742faf234d24fc6f51aafd68bc589eb33df317e81b90e166dc2"),
    "sharpness-t6b-anchor": (
        ["sharpness", "--seed", "8"], SHARPNESS_T6B_ANCHOR, 0,
        "b59edebc9aea719acf07101c1879e4c2fef12178b787dd28aedcf03ce296a26d"),
    "eval": (
        ["eval", "--variant", "both"], EVAL_QLATTICE, 0,
        "39fe2ccdabcad4de45433a58599bb333589c467abdc0086edb80795d021e89ad"),
    "eval-anchor": (
        ["eval", "--variant", "both"], EVAL_ANCHOR, 0,
        "d946aac9a653deb4963a29cd0ce1b9c598bb410751286fe79fc1525f72314f37"),
    "eval-csv": (
        ["eval", "--variant", "both", "--format", "csv"], EVAL_QLATTICE, 0,
        "b15299820eaef7f64b1a236e6c194a9a79a99e4b82511b28fd0063d941bf437d"),
}


def _run(name, workdir):
    """(exit code, sha256 of the report with wall time removed) of one run."""
    argv, config, _, _ = RUNS[name]
    argv = list(argv)
    if config is not None:
        cfg = Path(workdir) / f"{name}.config.json"
        cfg.write_text(json.dumps(config), encoding="utf-8")
        argv += ["--config", str(cfg)]
    out = Path(workdir) / f"{name}.out"
    code = cli.main(argv + ["--out", str(out)])
    body = WALL_TIME.sub("", out.read_text(encoding="utf-8"))
    return code, hashlib.sha256(body.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("name", sorted(RUNS))
def test_report_digest_is_unchanged(name, tmp_path):
    code, digest = _run(name, tmp_path)
    assert code == RUNS[name][2]
    assert digest == RUNS[name][3]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        for run_name in RUNS:
            print(run_name, *_run(run_name, tmp))
