"""The repository benchmark: one command, three workloads.

    python3 perfbench/run.py --workload {chip1024,paper,service}
        --seed N --seconds S --trace {0,1}

Run it from the root of a checkout. It prints a human-readable report
(every end-to-end metric by name and unit, the workload's own named
figures, the environment, and with ``--trace 1`` the per-layer table)
and, as its last line, one JSON object::

    {"correct": bool, "attempted": n, "failed": n, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json,
``--trace 1`` the per-layer ones. Full results go to
``.perfbench_out/<workload>-result.json``, spans to
``.perfbench_out/*.npz``. See ``perfbench/README.md`` for what each
workload and metric means and which layer should move which metric.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
sys.path.insert(0, HERE)

import layers  # noqa: E402

WORKLOADS = ("chip1024", "paper", "service")
#: Environment variables that would change what the program does; the
#: benchmark removes them from every process it starts.
PINNED_ENV = ("REPRO_KERNEL_CACHE", "REPRO_SWEEP_EXECUTOR",
              "REPRO_SWEEP_SPOOL", "REPRO_ENGINE_BACKEND")
#: Fresh processes timed for ``setup_s`` (the measured one included).
SETUP_SAMPLES = 3
#: Every process still running this long after the command started is
#: killed (the whole command must end within 180 s).
DEADLINE_S = 170.0

END_TO_END = {"setup_s": "s", "peak_rss_mb": "MB", "work_per_s": "1/s"}

#: The workload-specific figures printed in the report, with units.
NAMED = {
    "chip1024": {"txn_per_s": "txn/s", "op_p50_ms": "ms"},
    "paper": {"reproduce_s": "s"},
    "service": {"qps": "1/s", "op_p50_ms": "ms", "hit_p50_ms": "ms",
                "miss_p50_ms": "ms", "sampled_p50_ms": "ms",
                "coalesce_p50_ms": "ms", "latency_p99_ms": "ms",
                "p99_tail_samples": "count", "tail_pct": "%",
                "tail_ms": "ms", "queries": "count", "coalesced": "count"},
}


def child_env():
    env = {k: v for k, v in os.environ.items() if k not in PINNED_ENV}
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    return env


class Children:
    """Runs the processes of one command, each in a session of its own.

    A process still running at the deadline is killed with its whole
    process group (a load generator's servers included); so is every
    process left when the command fails.
    """

    def __init__(self, deadline):
        self.deadline = deadline
        self.live = []

    def run(self, cmd, stderr=None):
        """Run ``cmd`` to its end. Returns ``(exit code, peak RSS in MB,
        seconds from spawn to its READY line or None)``."""
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(),
                                stdout=subprocess.PIPE, stderr=stderr,
                                start_new_session=True)
        timer = threading.Timer(max(self.deadline - start, 1.0),
                                _kill_group, args=(proc,))
        timer.start()
        self.live.append((proc, timer))
        ready_s = None
        for line in proc.stdout:
            if ready_s is None and line.strip() == b"READY":
                ready_s = time.perf_counter() - start
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        timer.cancel()
        self.live.remove((proc, timer))
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, usage.ru_maxrss / 1024.0, ready_s

    def close(self):
        while self.live:
            proc, timer = self.live.pop()
            timer.cancel()
            _kill_group(proc)
            proc.wait()


def _kill_group(proc):
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_worker(args, children, result_path):
    """chip1024/paper: set-up probes, then the measured process."""
    base = [sys.executable, os.path.join(HERE, "worker.py"),
            args.workload, "--seed", str(args.seed)]
    probe = base + ["--seconds", "0", "--out", os.devnull, "--probe"]
    setup = []
    for _ in range(SETUP_SAMPLES - 1):
        code, _, setup_s = children.run(probe)
        if code != 0 or setup_s is None:
            raise RuntimeError(f"set-up probe exited with code {code}")
        setup.append(setup_s)
    code, rss, setup_s = children.run(
        base + ["--seconds", str(args.seconds), "--trace",
                str(args.trace), "--out", result_path])
    if code != 0 or setup_s is None:
        raise RuntimeError(f"{args.workload} worker exited with code "
                           f"{code}")
    setup.append(setup_s)
    with open(result_path) as handle:
        result = json.load(handle)
    result["setup_samples_s"] = setup
    result["peak_rss_mb"] = rss
    if args.trace:
        log = os.path.join(OUT_DIR, f"{args.workload}-importtime.txt")
        with open(log, "w") as stderr:
            children.run([sys.executable, "-X", "importtime"] + probe[1:],
                         stderr=stderr)
        with open(log) as handle:
            result["importtime_stderr"] = handle.read()
    return result


def run_service(args, children, result_path):
    code, _, _ = children.run(
        [sys.executable, os.path.join(HERE, "service_load.py"),
         "--seed", str(args.seed), "--seconds", str(args.seconds),
         "--trace", str(args.trace), "--out", result_path])
    if code != 0:
        raise RuntimeError(f"service load generator exited with code "
                           f"{code}")
    with open(result_path) as handle:
        return json.load(handle)


def end_to_end(result):
    return {
        "setup_s": statistics.median(result["setup_samples_s"]),
        "peak_rss_mb": result["peak_rss_mb"],
        "work_per_s": result["work_per_s"],
    }


def per_layer(result):
    """Every per-layer metric; zero for layers the workload never
    enters."""
    out = dict.fromkeys(layers.PER_LAYER, 0)
    out.update(layers.parse_importtime(result["importtime_stderr"]))
    out["host.ref_ms"] = result["host_ref_ms"]
    out.update(result["layers"])
    return out


def report(args, result, metrics):
    """Human-readable lines (everything but the final JSON line)."""
    lines = [f"perfbench {args.workload}: seed {args.seed}, "
             f"{args.seconds:g} s, trace {args.trace}"]
    env = result.get("environment")
    if env:
        lines.append("environment: " + ", ".join(
            f"{k}={v}" for k, v in env.items()))
    lines.append(f"correct: attempted {result['attempted']}, failed "
                 f"{result['failed']}, failed_ratio "
                 f"{result['failed'] / result['attempted']:.4f}")
    for failure in result.get("failures", []):
        lines.append(f"  FAILED {failure}")
    e2e = end_to_end(result)
    lines.append("end-to-end:")
    for name, unit in END_TO_END.items():
        lines.append(f"  {name:<28} {e2e[name]:>14.6g} {unit}")
    lines.append(f"  {'op_geomean_ms (not gated)':<28} "
                 f"{result['op_geomean_ms']:>14.6g} ms")
    lines.append(f"  {'host reference kernel':<28} "
                 f"{result['host_ref_ms']:>14.6g} ms")
    lines.append(f"  {'setup samples':<28} " + ", ".join(
        f"{s:.3f}" for s in result["setup_samples_s"]) + " s")
    lines.append(f"{args.workload} figures:")
    for name, unit in NAMED[args.workload].items():
        lines.append(f"  {name:<28} {result['named'][name]:>14.6g} "
                     f"{unit}")
    if args.trace:
        lines.append("per-layer (traced half of the run):")
        for name, unit in layers.PER_LAYER.items():
            lines.append(f"  {name:<34} {metrics[name]:>14.6g} {unit}")
        lines.append("self time per layer:")
        for layer, seconds in sorted(result["layer_self_s"].items(),
                                     key=lambda kv: -kv[1]):
            if seconds:
                lines.append(f"  {layer:<20} {seconds:>10.4f} s")
        lines.append(
            f"unattributed remainder: {metrics['trace.unattributed_s']:.4f}"
            f" s ({metrics['trace.unattributed_share']:.1%}); tracing "
            f"overhead: {metrics['trace.overhead_s']:.4f} s per "
            f"operation ({metrics['trace.overhead_ratio']:.1%})")
    return lines


def main(argv=None):
    started = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro",
                                       "__init__.py")):
        print(f"perfbench: no program source under {ROOT}/src/repro",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    os.makedirs(OUT_DIR, exist_ok=True)
    result_path = os.path.join(OUT_DIR, f"{args.workload}-result.json")
    # SIGTERM unwinds like an error, so no child outlives the command.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    children = Children(started + DEADLINE_S)
    try:
        if args.workload == "service":
            result = run_service(args, children, result_path)
        else:
            result = run_worker(args, children, result_path)
    finally:
        children.close()
    metrics = per_layer(result) if args.trace else end_to_end(result)
    units = layers.PER_LAYER if args.trace else END_TO_END
    result["metrics"] = metrics
    result.pop("importtime_stderr", None)
    with open(result_path, "w") as handle:
        json.dump(result, handle, indent=1)
    for line in report(args, result, metrics):
        print(line)
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
