"""Command-line front end.

Subcommands: verify-identity, verify-bounds, crosscheck, sharpness, eval.
Exit codes: 0 all pass (paper-literal findings allowed and listed), 2 on a
corrected-variant or identity failure, 1 on usage or configuration errors.
Output goes to --out or standard out, as JSON (default) or, for
verify-bounds and eval, the versioned CSV of bound rows.
"""

from __future__ import annotations

import argparse
import json
import sys

from .calculus import func_from_json
from .errors import ConfigError, DeltaIneqError
from .harness import (
    _reject_unknown,
    bound_row,
    config_from_json,
    run_bound_suite,
    run_crosscheck_suite,
    run_identity_suite,
    sharpness_search,
)
from .ostrowski import (
    Variant,
    _check_bracket,
    evaluate_bounds,
    kernel_moments,
    kernel_spec_from_json,
    montgomery_lhs,
    montgomery_rhs,
)
from .reporting import csv_lines, json_pieces

DEFAULT_SHARPNESS_SPEC = {
    "scale": {"kind": "integer", "lo": 0, "hi": 8},
    "a": 0, "b": 8, "x": 4,
    "alpha": 1.0, "beta": 1.0,
    "h": {"repr": "poly", "coeffs": [0.0, 1.0]},
}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse variant that reports usage problems via exception so the
    exit-code taxonomy stays ours (1 for usage, 2 is reserved)."""

    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(f"{self.format_usage()}error: {message}")


def _add_flags(sub: argparse.ArgumentParser, seeded: bool, scale: bool,
               bound_rows: bool) -> None:
    """The flags of one subcommand, each only where its value is read;
    --format and --variant only where bound rows exist (verify-bounds,
    eval).  A flag's dest is the JSON key it writes (_overlay)."""
    sub.add_argument("--config", metavar="PATH", help="JSON configuration file")
    if seeded:
        sub.add_argument("--seed", type=int, help="override the RNG seed")
        sub.add_argument("--trials", type=int, help="override the trial count")
    sub.add_argument("--tol", dest="tolerance", metavar="TOL", type=float,
                     help="override the relative tolerance")
    if scale:
        sub.add_argument("--scale", metavar="JSON", help="inline scale JSON overriding the draw")
    sub.add_argument("--out", metavar="PATH", help="write the report here instead of stdout")
    if bound_rows:
        sub.add_argument("--format", choices=("json", "csv"), default="json")
        sub.add_argument("--variant", dest="variants",
                         choices=("literal", "corrected", "both"))


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="delta-ineq",
                     description="Verification suites for weighted Ostrowski-type "
                                 "inequalities on time scales.")
    subs = parser.add_subparsers(dest="command", required=True)
    _add_flags(subs.add_parser("verify-identity", help="exact-identity suite"),
               seeded=True, scale=True, bound_rows=False)
    _add_flags(subs.add_parser("verify-bounds", help="theorem bound suite"),
               seeded=True, scale=True, bound_rows=True)
    _add_flags(subs.add_parser("crosscheck", help="family closed-form cross-check"),
               seeded=True, scale=False, bound_rows=False)
    sharp = subs.add_parser("sharpness", help="bound tightness search")
    _add_flags(sharp, seeded=True, scale=True, bound_rows=False)
    sharp.add_argument("--theorem", help="theorem id to probe (default T5)")
    _add_flags(subs.add_parser("eval", help="evaluate one kernel instance"),
               seeded=False, scale=True, bound_rows=True)
    return parser


def _load_config_file(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path}: {exc}") from exc
    if not isinstance(obj, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    return obj


def _overlay(obj, ns: argparse.Namespace, keys=("seed", "trials", "tolerance", "variants", "scale")):
    """obj with each of keys whose flag was given written over it, as the
    JSON the config file would hold; obj that is not an object is left for
    its parser to reject.  sharpness and eval write --scale into their spec,
    not into the trial config."""
    if not isinstance(obj, dict):
        return obj
    obj = dict(obj)
    for key in keys:
        value = getattr(ns, key, None)
        if value is None:
            continue
        if key == "scale":
            try:
                value = json.loads(value)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"--scale: {exc}") from exc
        elif key == "variants":
            value = ["literal", "corrected"] if value == "both" else [value]
        obj[key] = value
    return obj


def _write(pieces, out_path: str | None) -> None:
    """Write the pieces of a report one at a time to out_path, opened before
    the first piece is made, or to stdout; the two get the same text."""
    if out_path is None:
        sys.stdout.writelines(pieces)
    else:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.writelines(pieces)


def _run_suite(ns: argparse.Namespace, runner, suite: str) -> int:
    config = config_from_json(_overlay(_load_config_file(ns.config), ns), suite)
    if getattr(ns, "format", "json") == "csv":     # verify-bounds only
        report = runner(config, keep_rows=True)
        _write(csv_lines(report.rows), ns.out)
    else:
        report = runner(config)
        _write(json_pieces(report.to_json()), ns.out)
    return 0 if report.passed else 2


def _run_sharpness(ns: argparse.Namespace) -> int:
    file_obj = _load_config_file(ns.config)
    _reject_unknown(file_obj, {"theorem", "spec", "config"}, "sharpness config")
    theorem = ns.theorem if ns.theorem is not None else file_obj.get("theorem", "T5")
    spec = kernel_spec_from_json(
        _overlay(file_obj.get("spec", DEFAULT_SHARPNESS_SPEC), ns, ("scale",)))
    config_obj = file_obj.get("config", {})
    if isinstance(config_obj, dict) and "trials" not in config_obj:
        config_obj = config_obj | {"trials": 5000}      # the default evaluation budget
    config = config_from_json(_overlay(config_obj, ns, ("seed", "trials", "tolerance")),
                              "sharpness")
    result = sharpness_search(theorem, spec, config)
    _write(json_pieces(result.to_json()), ns.out)
    return 2 if result.violation else 0


def _run_eval(ns: argparse.Namespace) -> int:
    file_obj = _load_config_file(ns.config)
    if "spec" not in file_obj or "f" not in file_obj:
        raise ConfigError("eval config needs 'spec' and 'f'")
    _reject_unknown(file_obj, {"spec", "f", "g", "gamma", "big_gamma"}, "eval config")
    spec = kernel_spec_from_json(_overlay(file_obj["spec"], ns, ("scale",)))
    f = func_from_json(file_obj["f"])
    g = func_from_json(file_obj["g"]) if "g" in file_obj else f
    settings = config_from_json(_overlay({}, ns, ("tolerance", "variants")))
    gamma, big_gamma = _check_bracket(spec.ts, f, spec.a, spec.b,
                                      file_obj.get("gamma"), file_obj.get("big_gamma"))

    lhs = montgomery_lhs(spec, f)
    rhs = montgomery_rhs(spec, f)
    mom = kernel_moments(spec)
    _, reports = evaluate_bounds(spec, f, g, settings.variants, gamma, big_gamma)
    rows = [bound_row(0, rep, spec, settings.tolerance) for rep in reports]
    failing = [row for row in rows if not row["pass"]]
    findings = [row for row in failing if row["variant"] == Variant.PAPER_LITERAL.value]
    failures = [row for row in failing if row["variant"] == Variant.CORRECTED.value]

    if ns.format == "csv":
        _write(csv_lines(rows), ns.out)
    else:
        payload = {
            "montgomery": {"lhs": lhs, "rhs": rhs, "residual": lhs - rhs},
            "moments": {"int_p": mom.int_p, "int_abs_p": mom.int_abs_p,
                        "int_p2": mom.int_p2},
            "gamma": gamma,
            "big_gamma": big_gamma,
            "bounds": rows,
            "findings": findings,
            "failures": failures,
        }
        _write(json_pieces(payload), ns.out)
    return 2 if failures else 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except _UsageError as exc:
        print(exc, file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help
        code = exc.code
        return code if isinstance(code, int) else 0
    try:
        if ns.command == "verify-identity":
            return _run_suite(ns, run_identity_suite, "identity")
        if ns.command == "verify-bounds":
            return _run_suite(ns, run_bound_suite, "bounds")
        if ns.command == "crosscheck":
            return _run_suite(ns, run_crosscheck_suite, "crosscheck")
        if ns.command == "sharpness":
            return _run_sharpness(ns)
        return _run_eval(ns)        # the subparsers admit no other command
    except (DeltaIneqError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
