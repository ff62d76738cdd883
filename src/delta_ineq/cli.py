"""Command-line front end.

Subcommands: verify-identity, verify-bounds, crosscheck, sharpness, eval.
Exit codes: 0 all pass (paper-literal findings allowed and listed), 2 on a
corrected-variant or identity failure, 1 on usage or configuration errors.
Output goes to --out or standard out, as JSON (default) or the versioned
CSV of bound rows.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from .calculus import func_from_json
from .errors import ConfigError, DeltaIneqError
from .harness import (
    TrialConfig,
    config_from_json,
    run_bound_suite,
    run_crosscheck_suite,
    run_identity_suite,
    sharpness_search,
)
from .ostrowski import (
    KernelSpec,
    Variant,
    bound_t5,
    bound_t6a,
    bound_t6b,
    bound_t7,
    bound_t8,
    delta_derivative_range,
    kernel_moments,
    kernel_spec_from_json,
    montgomery_lhs,
    montgomery_rhs,
)
from .reporting import json_dumps, rows_to_csv
from .timescale import TimeScale, scale_from_json

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


def _add_common(sub: argparse.ArgumentParser, variant_flag: bool) -> None:
    sub.add_argument("--config", metavar="PATH", help="JSON configuration file")
    sub.add_argument("--seed", type=int, help="override the RNG seed")
    sub.add_argument("--trials", type=int, help="override the trial count")
    sub.add_argument("--tol", type=float, help="override the relative tolerance")
    sub.add_argument("--scale", metavar="JSON", help="inline scale JSON overriding the draw")
    sub.add_argument("--out", metavar="PATH", help="write the report here instead of stdout")
    sub.add_argument("--format", choices=("json", "csv"), default="json")
    if variant_flag:
        sub.add_argument("--variant", choices=("literal", "corrected", "both"),
                         default="both")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="delta-ineq",
                     description="Verification suites for weighted Ostrowski-type "
                                 "inequalities on time scales.")
    subs = parser.add_subparsers(dest="command", required=True)
    _add_common(subs.add_parser("verify-identity", parents=[], help="exact-identity suite"),
                variant_flag=False)
    _add_common(subs.add_parser("verify-bounds", help="theorem bound suite"),
                variant_flag=True)
    _add_common(subs.add_parser("crosscheck", help="family closed-form cross-check"),
                variant_flag=False)
    sharp = subs.add_parser("sharpness", help="bound tightness search")
    _add_common(sharp, variant_flag=False)
    sharp.add_argument("--theorem", help="theorem id to probe (default T5)")
    ev = subs.add_parser("eval", help="evaluate one kernel instance")
    _add_common(ev, variant_flag=True)
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


def _variants_for(choice: str) -> tuple[Variant, ...]:
    if choice == "literal":
        return (Variant.PAPER_LITERAL,)
    if choice == "corrected":
        return (Variant.CORRECTED,)
    return (Variant.PAPER_LITERAL, Variant.CORRECTED)


def _scale_override(ns: argparse.Namespace) -> TimeScale | None:
    """The scale given by --scale, or None without the flag."""
    if ns.scale is None:
        return None
    try:
        return scale_from_json(json.loads(ns.scale))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"--scale: {exc}") from exc


def _spec_with_scale_override(ns: argparse.Namespace, spec: KernelSpec) -> KernelSpec:
    ts = _scale_override(ns)
    return spec if ts is None else dataclasses.replace(spec, ts=ts)


def _trial_config(ns: argparse.Namespace, file_obj: dict) -> TrialConfig:
    config = config_from_json(file_obj)
    updates: dict = {}
    if ns.seed is not None:
        updates["seed"] = ns.seed
    if ns.trials is not None:
        updates["n_trials"] = ns.trials
    if ns.tol is not None:
        updates["tolerance"] = ns.tol
    if getattr(ns, "variant", None) is not None:
        updates["variants"] = _variants_for(ns.variant)
    if ns.scale is not None:
        updates["fixed_scale"] = _scale_override(ns)
    return dataclasses.replace(config, **updates) if updates else config


def _write(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _emit_suite(report, ns: argparse.Namespace) -> None:
    if ns.format == "csv":
        if not report.rows:
            raise ConfigError("--format csv needs bound rows; "
                              "use it with verify-bounds or eval")
        _write(rows_to_csv(report.rows), ns.out)
    else:
        _write(json_dumps(report.to_json()), ns.out)


def _run_suite(ns: argparse.Namespace, runner) -> int:
    config = _trial_config(ns, _load_config_file(ns.config))
    report = runner(config)
    _emit_suite(report, ns)
    return 0 if report.passed else 2


def _run_sharpness(ns: argparse.Namespace) -> int:
    file_obj = _load_config_file(ns.config)
    known = {"theorem", "spec", "config"}
    extra = set(file_obj) - known
    if extra:
        raise ConfigError(f"unknown sharpness config fields {sorted(extra)}")
    theorem = ns.theorem if ns.theorem is not None else file_obj.get("theorem", "T5")
    spec = _spec_with_scale_override(
        ns, kernel_spec_from_json(file_obj.get("spec", DEFAULT_SHARPNESS_SPEC)))
    config = config_from_json(file_obj.get("config", {}))
    updates: dict = {}
    if "config" not in file_obj or "trials" not in file_obj.get("config", {}):
        updates["n_trials"] = 5000
    if ns.seed is not None:
        updates["seed"] = ns.seed
    if ns.trials is not None:
        updates["n_trials"] = ns.trials
    if ns.tol is not None:
        updates["tolerance"] = ns.tol
    config = dataclasses.replace(config, **updates)
    if ns.format == "csv":
        raise ConfigError("--format csv needs bound rows; "
                          "use it with verify-bounds or eval")
    result = sharpness_search(theorem, spec, config)
    _write(json_dumps(result.to_json()), ns.out)
    return 2 if result.violation else 0


def _run_eval(ns: argparse.Namespace) -> int:
    file_obj = _load_config_file(ns.config)
    if "spec" not in file_obj or "f" not in file_obj:
        raise ConfigError("eval config needs 'spec' and 'f'")
    known = {"spec", "f", "g", "gamma", "big_gamma"}
    extra = set(file_obj) - known
    if extra:
        raise ConfigError(f"unknown eval config fields {sorted(extra)}")
    spec = _spec_with_scale_override(ns, kernel_spec_from_json(file_obj["spec"]))
    f = func_from_json(file_obj["f"])
    g = func_from_json(file_obj["g"]) if "g" in file_obj else f
    tol = ns.tol if ns.tol is not None else 1e-10
    gamma = file_obj.get("gamma")
    big_gamma = file_obj.get("big_gamma")
    exact_lo, exact_hi = delta_derivative_range(spec.ts, f, spec.a, spec.b)
    if gamma is None:
        gamma = exact_lo
    if big_gamma is None:
        big_gamma = exact_hi

    lhs = montgomery_lhs(spec, f)
    rhs = montgomery_rhs(spec, f)
    mom = kernel_moments(spec)
    t7_l2 = bound_t7(spec, f, "l2")
    t7_gruss = bound_t7(spec, f, "gruss", gamma, big_gamma)
    t8 = bound_t8(spec, f, gamma, big_gamma)
    rows: list[dict] = []
    findings: list[dict] = []
    failures: list[dict] = []
    for variant in _variants_for(getattr(ns, "variant", "both") or "both"):
        reports = [
            bound_t5(spec, f, variant),
            bound_t6a(spec, f, g, variant),
            bound_t6b(spec, f, g, variant),
            dataclasses.replace(t7_l2, variant=variant),
            dataclasses.replace(t7_gruss, variant=variant),
            dataclasses.replace(t8, variant=variant),
        ]
        for rep in reports:
            row = {
                "trial_id": 0,
                "theorem": rep.theorem,
                "variant": rep.variant.value,
                "scale_kind": rep.summary.scale_kind,
                "a": rep.summary.a, "b": rep.summary.b, "x": rep.summary.x,
                "alpha": rep.summary.alpha, "beta": rep.summary.beta,
                "lhs": rep.lhs, "rhs": rep.rhs, "slack": rep.slack,
                "pass": rep.passes(tol),
            }
            rows.append(row)
            if not row["pass"]:
                (failures if variant is Variant.CORRECTED else findings).append(row)

    if ns.format == "csv":
        _write(rows_to_csv(rows), ns.out)
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
        _write(json_dumps(payload), ns.out)
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
            return _run_suite(ns, run_identity_suite)
        if ns.command == "verify-bounds":
            return _run_suite(ns, run_bound_suite)
        if ns.command == "crosscheck":
            return _run_suite(ns, run_crosscheck_suite)
        if ns.command == "sharpness":
            return _run_sharpness(ns)
        if ns.command == "eval":
            return _run_eval(ns)
        raise ConfigError(f"unknown subcommand {ns.command!r}")
    except DeltaIneqError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
