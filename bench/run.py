"""Benchmark of the delta-ineq referee.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

A run repeats rounds of one workload for S seconds.  A round is one fresh
delta-ineq process (bench/proc.py) on the same inputs, so every round
attempts the same trials.  The untraced run (--trace 0) reports, as medians
over its rounds, the end-to-end metrics: set-up time, process run time,
trials per second of main(), and peak resident memory.  Times are the
process's CPU time, which on an idle machine equals its wall time but leaves
out the time a shared host takes the CPU away; wall times go to the result
file only.  The traced run (--trace 1) alternates untraced and traced rounds
and reports the per-layer counters of bench/layertrace.py and the tracing
overhead.  A run makes at least two rounds, four when traced (two of them
traced), so that the digests, and the traced counts, are always compared
between rounds.

Every round's report must hash to the same digest (wall time removed), and
one report per run is checked against the exact-rational recomputation of
bench/check.py.  The last line of standard output is the result JSON.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
sys.path.insert(0, str(BENCH))

import check  # noqa: E402
from layertrace import WALL_TIME  # noqa: E402

ROUND_TIMEOUT_S = 120
FINDING_SAMPLE = 24
IDENTITY_SAMPLE = 2

SHARPNESS_BUDGET = 8000
SHARPNESS_SPEC = {
    "scale": {"kind": "integer", "lo": 0, "hi": 20},
    "a": 0, "b": 20, "x": 9, "alpha": 1.0, "beta": 2.0,
    "h": {"repr": "poly", "coeffs": [0.0, 1.0]},
}
# The real-interval trials run at a fixed seed: every seed meets the t7-chain
# fault on a seed-dependent share of its trials, and a fixed trial set keeps
# that share the same in every run.  Trials 7, 19, 53, 82, 83 and 90 of
# seed 3 fail on it.
REAL_SEED = 3

# Why each workload is there: see BENCHMARK.json and bench/README.md.
WORKLOADS = {
    "bounds-discrete": {
        "args": ["verify-bounds", "--variant", "both"],
        "config": {"scales": ["grid", "integer", "qlattice"], "size_range": [3, 32],
                   "func": {"kind": "sampled"}, "weight": {"kind": "sampled"}},
        "trials": 2000,
    },
    "identity-large": {
        "args": ["verify-identity"],
        "config": {"scales": ["grid", "integer", "qlattice"], "size_range": [200, 256]},
        "trials": 150,
    },
    "bounds-real": {
        "args": ["verify-bounds", "--variant", "both"],
        "config": {"scales": ["real"], "func": {"kind": "poly"}, "weight": {"kind": "poly"}},
        "trials": 100,
        "fixed_seed": REAL_SEED,
        "allowed_failures": ("t7-chain",),
    },
    "sharpness-t6b": {
        "args": ["sharpness", "--theorem", "T6b"],
        "config": {"theorem": "T6b", "spec": SHARPNESS_SPEC,
                   "config": {"trials": SHARPNESS_BUDGET}},
        "trials": SHARPNESS_BUDGET,
    },
}

SUITE_FUNCS = ("harness.run_bound_suite", "harness.run_identity_suite",
               "harness.run_crosscheck_suite", "harness.sharpness_search")


def _now() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def digest(report_bytes: bytes) -> str:
    """sha256 of a report with its wall_time_s field removed."""
    body = WALL_TIME.sub("", report_bytes.decode("utf-8"))
    return hashlib.sha256(body.encode("utf-8")).hexdigest()


class Workload:
    def __init__(self, name: str, seed: int) -> None:
        self.name = name
        self.spec = WORKLOADS[name]
        self.seed = self.spec.get("fixed_seed", seed)
        self.trials = self.spec["trials"]
        self.config_path = OUT / f"{name}.config.json"
        self.report_path = OUT / f"{name}.report.json"
        self.timing_path = OUT / f"{name}.timing.json"
        self.trace_path = OUT / f"{name}.trace.json"
        self.stderr_path = OUT / f"{name}.stderr.txt"
        self.config_path.write_text(json.dumps(self.spec["config"]) + "\n", encoding="utf-8")

    def argv(self) -> list[str]:
        extra = [] if self.spec["args"][0] == "sharpness" else ["--trials", str(self.trials)]
        return self.spec["args"] + extra + [
            "--seed", str(self.seed), "--config", str(self.config_path),
            "--out", str(self.report_path)]

    def run_round(self, traced: bool) -> dict:
        env = child_env()
        cmd = [sys.executable, str(BENCH / "proc.py"), str(self.timing_path),
               str(self.trace_path) if traced else "-", "--", *self.argv()]
        for p in (self.timing_path, self.report_path):
            p.unlink(missing_ok=True)
        with open(self.stderr_path, "wb") as err:
            t0 = _now()
            proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdin=subprocess.DEVNULL,
                                    stdout=subprocess.DEVNULL, stderr=err)
            watchdog = threading.Timer(ROUND_TIMEOUT_S, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            t1 = _now()
        proc.returncode = os.waitstatus_to_exitcode(status)
        if not self.timing_path.exists():
            raise RuntimeError(f"{self.name}: process exited {proc.returncode} without timing; "
                               f"stderr: {self.stderr_path.read_text(errors='replace')[-2000:]}")
        if not self.report_path.exists():
            raise RuntimeError(f"{self.name}: process exited {proc.returncode} without a report; "
                               f"stderr: {self.stderr_path.read_text(errors='replace')[-2000:]}")
        timing = json.loads(self.timing_path.read_text(encoding="utf-8"))
        if not Path(timing["module"]).resolve().is_relative_to(SRC.resolve()):
            raise RuntimeError(f"delta_ineq imported from {timing['module']}, not {SRC}")
        data = self.report_path.read_bytes()
        return {
            "rc": proc.returncode,
            "run_s": usage.ru_utime + usage.ru_stime,
            "setup_s": timing["setup_cpu_ns"] * 1e-9,
            "main_s": timing["main_cpu_ns"] * 1e-9,
            "rss_mb": timing["peak_rss_kb"] / 1024.0,
            "wall_run_s": (t1 - t0) * 1e-9,
            "wall_setup_s": (timing["setup_end_ns"] - t0) * 1e-9,
            "wall_main_s": timing["main_ns"] * 1e-9,
            "digest": digest(data),
            "data": data,
            "trace": (json.loads(self.trace_path.read_text(encoding="utf-8"))["stats"]
                      if traced else None),
        }

    def check(self, report: dict, rc: int, sample_seed: int) -> tuple[list[str], int, int, dict]:
        """Problems, trials attempted, trials failed, and checker figures."""
        spec = self.spec
        rng = random.Random(sample_seed)
        allowed = spec.get("allowed_failures", ())
        if spec["args"][0] == "sharpness":
            ck = check.check_sharpness(report, self.trials)
            attempted, failed = report["iterations"], 0
            expect_rc = 0
        elif spec["args"][0] == "verify-identity":
            size = tuple(spec["config"]["size_range"])
            sample = rng.sample(range(self.trials), IDENTITY_SAMPLE)
            ck = check.check_identity_report(report, self.seed, self.trials, size, sample)
            attempted, failed = report["trials"], 0
            expect_rc = 0
        else:
            n = len(report["findings"])
            sample = sorted(rng.sample(range(n), min(n, FINDING_SAMPLE)))
            ck = check.check_bounds_report(report, self.trials, sample, allowed)
            attempted = report["trials"]
            failed = len({fw["trial"] for fw in report["failures"]})
            expect_rc = 2 if failed else 0
        problems = list(ck.problems)
        if rc != expect_rc:
            problems.append(f"exit code {rc}, expected {expect_rc}")
        figures = {"values_checked": ck.values_checked, "worst_drift_ratio": ck.worst_ratio}
        return problems, attempted, failed, figures


def per_layer(stats: dict) -> tuple[dict[str, float], list[str]]:
    """The per-layer metrics, and the traced functions missing from stats
    (read as 0 in the metrics)."""
    missing: list[str] = []

    def st(name: str) -> dict:
        if name not in stats:
            missing.append(name)
        return stats.get(name, {"calls": 0, "self_s": 0.0, "s": 0.0})

    out: dict[str, float] = {}
    for name in ("timescale.grid_points", "ostrowski.kernel_moments"):
        s = st(name)
        out[f"{name}.calls"] = s["calls"]
        out[f"{name}.self_s"] = s["self_s"]
        out[f"{name}.distinct_ratio"] = s.get("distinct", 0) / s["calls"] if s["calls"] else 0.0
    for name in ("calculus.feval", "calculus.poly_eval", "ostrowski.montgomery_lhs"):
        out[f"{name}.calls"] = st(name)["calls"]
        out[f"{name}.self_s"] = st(name)["self_s"]
    for name in ("calculus.parts_residual", "calculus.product_rule_residual",
                 "ostrowski.montgomery_rhs", "ostrowski.sup_abs_delta_derivative",
                 "ostrowski.delta_derivative_range", "ostrowski.korkine_residual",
                 "ostrowski.kernel_variance_residual", "ostrowski.gruss_variance_check",
                 "ostrowski.closed_form_rhs", "harness.gen_random_scale",
                 "harness.gen_random_func", "reporting.json_dumps"):
        out[f"{name}.self_s"] = st(name)["self_s"]
    for theorem in ("t5", "t6a", "t6b", "t7", "t8"):
        out[f"ostrowski.bound_{theorem}.s"] = st(f"ostrowski.bound_{theorem}")["s"]
    out["harness.suite.self_s"] = sum(st(name)["self_s"] for name in SUITE_FUNCS)
    out["harness.sharpness_search.evals"] = st("harness.sharpness_search").get("evals", 0)
    out["reporting.json_dumps.bytes"] = st("reporting.json_dumps").get("bytes", 0)
    out["cli.main.s"] = st("cli.main")["s"]
    return out, sorted(set(missing))


COUNT_METRICS = ("calls", "distinct_ratio", "evals", "bytes")
UNITS = {"calls": "count", "distinct_ratio": "ratio", "evals": "count", "bytes": "B",
         "self_s": "s", "s": "s", "overhead": "ratio"}


def _unit(metric: str) -> str:
    return UNITS[metric.rsplit(".", 1)[1]]


def child_env() -> dict:
    """The package from this checkout's src/, with its bytecode cached as in
    any installed copy, whatever the caller's PYTHONDONTWRITEBYTECODE."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def warm_up() -> None:
    """Compile the package's bytecode once, before any timed round."""
    subprocess.run([sys.executable, "-c", "import delta_ineq.cli"], env=child_env(), cwd=ROOT,
                   stdin=subprocess.DEVNULL, check=True, timeout=ROUND_TIMEOUT_S)


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    wl = Workload(name, seed)
    warm_up()
    rounds: list[dict] = []
    start = time.monotonic()
    while time.monotonic() - start < seconds or len(rounds) < (4 if trace else 2):
        traced = trace and len(rounds) % 2 == 1
        r = wl.run_round(traced)
        log(f"{name} round {len(rounds)}{' traced' if traced else ''}: rc {r['rc']} "
            f"cpu run {r['run_s']:.3f}s setup {r['setup_s']:.4f}s main {r['main_s']:.3f}s, "
            f"wall run {r['wall_run_s']:.3f}s, rss {r['rss_mb']:.1f}MB")
        if rounds:
            r["data"] = None  # identical to the first report once digests agree
        rounds.append(r)

    problems: list[str] = []
    digests = {r["digest"] for r in rounds}
    if len(digests) != 1:
        problems.append(f"{len(digests)} different report digests over {len(rounds)} rounds")
    codes = {r["rc"] for r in rounds}
    if len(codes) != 1:
        problems.append(f"exit codes differ between rounds: {sorted(codes)}")
    report = json.loads(rounds[0]["data"])
    found, attempted, failed, figures = wl.check(report, rounds[0]["rc"], seed)
    problems += found
    print(f"digest {name} seed {wl.seed}: {rounds[0]['digest']}")

    if trace:
        plain = [r for r in rounds if r["trace"] is None]
        traced_rounds = [r for r in rounds if r["trace"] is not None]
        layers = []
        for r in traced_rounds:
            layer, missing = per_layer(r["trace"])
            if missing:
                problems.append(f"traced functions missing from the trace: {missing}")
            layers.append(layer)
        metrics = {}
        for key in layers[0]:
            values = [m[key] for m in layers]
            if key.rsplit(".", 1)[1] in COUNT_METRICS:
                if len(set(values)) != 1:
                    problems.append(f"traced count {key} differs between rounds: {values}")
                value = values[0]
            else:
                value = statistics.median(values)
            metrics[key] = {"value": value, "unit": _unit(key)}
        overhead = (statistics.median(r["main_s"] for r in traced_rounds)
                    / statistics.median(r["main_s"] for r in plain))
        metrics["trace.overhead"] = {"value": overhead, "unit": "ratio"}
    else:
        def med(key: str) -> float:
            return statistics.median(r[key] for r in rounds)

        metrics = {
            "setup_s": {"value": med("setup_s"), "unit": "s"},
            "run_s": {"value": med("run_s"), "unit": "s"},
            "trials_per_s": {"value": statistics.median(
                wl.trials / r["main_s"] for r in rounds), "unit": "1/s"},
            "peak_rss_mb": {"value": med("rss_mb"), "unit": "MB"},
        }
    for p in problems:
        log(f"PROBLEM: {p}")
    log(f"{name}: {len(rounds)} rounds, checker {figures}")
    result = {
        "correct": not problems,
        "attempted": attempted * len(rounds),
        "failed": failed * len(rounds),
        "metrics": metrics,
    }
    record = dict(result, workload=name, seed=seed, cli_seed=wl.seed, rounds=len(rounds),
                  digest=rounds[0]["digest"], checker=figures, problems=problems,
                  samples=[{k: r[k] for k in ("rc", "run_s", "setup_s", "main_s", "rss_mb",
                                              "wall_run_s", "wall_setup_s", "wall_main_s")}
                           for r in rounds])
    (OUT / f"result-{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return result


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = ap.parse_args()
    if not (SRC / "delta_ineq" / "cli.py").is_file():
        log(f"error: no delta-ineq source under {SRC}")
        return 2
    OUT.mkdir(exist_ok=True)
    result = run(ns.workload, ns.seed, ns.seconds, bool(ns.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
