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
SHARPNESS_T6B = {
    "theorem": "T6b",
    "spec": {"scale": {"kind": "integer", "lo": 0, "hi": 10},
             "a": 0, "b": 10, "x": 4, "alpha": 1.0, "beta": 2.0,
             "h": {"repr": "poly", "coeffs": [0.0, 1.0]}},
    "config": {"trials": 400},
}

# name: (argv, config file body or None, exit code, sha256 of the report)
RUNS = {
    "verify-bounds": (
        ["verify-bounds", "--variant", "both", "--trials", "60", "--seed", "5"], None, 0,
        "36df6e8e7ca52578deca81e46cc615985f53b6d4dd70496adcd53d2843c0aadc"),
    "verify-bounds-csv": (
        ["verify-bounds", "--variant", "both", "--trials", "60", "--seed", "5",
         "--format", "csv"], None, 0,
        "13a4cf443aeccfd2036ca7589b5857540c3a41c55613adda24f0c76f482d3e02"),
    "verify-bounds-real": (
        ["verify-bounds", "--variant", "both", "--trials", "40", "--seed", "3"], REAL_POLY, 2,
        "182881a5f5bdd3f6dc301886498e20b05b9fbdacab6a1151545bc12e140c1c01"),
    "verify-identity": (
        ["verify-identity", "--trials", "40", "--seed", "7"], None, 0,
        "c8def38a2cba3ea80737f10e211928a06c0bf274d71d2059791168068b2564cf"),
    "verify-identity-poly": (
        ["verify-identity", "--trials", "40", "--seed", "7"], POLY_ALL_SCALES, 0,
        "50babefd0e881c8ceccb148a0065163ebbdd2272cb49b1e8994c86520dd0e4ec"),
    "verify-identity-large": (
        ["verify-identity", "--trials", "4", "--seed", "7"], IDENTITY_LARGE, 0,
        "ee5f1fad05262f4fdaa89bad927c3451f2cf8189d26ab3130dee460a851563bd"),
    "crosscheck": (
        ["crosscheck", "--trials", "20", "--seed", "5"], None, 0,
        "c29bfd39c48dfae777a06495be55fc617cc7ec1eea79b71ae6d406d76b22d9ca"),
    "sharpness-t6b": (
        ["sharpness", "--seed", "2"], SHARPNESS_T6B, 0,
        "a51d7a8c30e9c0130aebb4a87df20baec2072386ed571b7cdd044e83f57974ac"),
    "eval": (
        ["eval", "--variant", "both"], EVAL_QLATTICE, 0,
        "9027647c43394df98f30a5428c0c96a396d89d3582cb4f17fbe528dc8fc69ca1"),
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
