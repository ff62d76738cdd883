"""One workload process: the delta-ineq command line, run in this fresh
interpreter, with its set-up and main() call timed.

    python3 bench/proc.py TIMING_JSON TRACE_JSON|- -- <delta-ineq arguments>

Set-up ends once ``delta_ineq.cli`` is imported and the workload's config
file is read as JSON (main() reads it again, as the command line does).
Both the process CPU time (which leaves out time the host takes the CPU
away) and the monotonic clock are recorded, and the peak resident memory
(VmHWM) when main() returns.  The kernel's rusage figure is no use for the
memory: it counts the parent's resident memory at the time it started this
process.  With a trace path, layertrace wraps the package after set-up and
dumps its counters there.  The exit code is main()'s.
"""

import json
import sys
import time


def _now() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def _cpu() -> int:
    return time.process_time_ns()


def _peak_rss_kb() -> int:
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> int:
    timing_path, trace_path, sep, *argv = sys.argv[1:]
    if sep != "--":
        raise SystemExit("usage: proc.py TIMING_JSON TRACE_JSON|- -- ARGS...")
    from delta_ineq import cli

    with open(argv[argv.index("--config") + 1], encoding="utf-8") as fh:
        json.load(fh)
    setup_end, setup_cpu = _now(), _cpu()

    tracer = None
    if trace_path != "-":
        import layertrace
        tracer = layertrace.install()
    t0, c0 = _now(), _cpu()
    rc = cli.main(argv)
    main_ns, main_cpu_ns = _now() - t0, _cpu() - c0
    peak_rss_kb = _peak_rss_kb()
    with open(timing_path, "w", encoding="utf-8") as fh:
        json.dump({"setup_end_ns": setup_end, "setup_cpu_ns": setup_cpu,
                   "main_ns": main_ns, "main_cpu_ns": main_cpu_ns,
                   "peak_rss_kb": peak_rss_kb, "rc": rc, "module": cli.__file__}, fh)
    if tracer is not None:
        tracer.dump(trace_path)
    return rc


if __name__ == "__main__":
    sys.exit(main())
