"""One benchmark workload in a fresh process.

    python perfbench/worker.py {chip1024,paper} --seed N --seconds S
        --trace {0,1} --out RESULT.json [--probe]

The process imports the program, builds the workload's inputs, prints
``READY`` (the parent times set-up up to that line), then runs the
workload in a closed loop for ``--seconds`` and writes its raw results
to ``--out``. ``--probe`` stops after ``READY``. With ``--trace 1`` the
seconds are split: the first half runs untraced, the second half with
every layer of :mod:`layers` wrapped in spans, so the two halves give
the tracing overhead.

The ``service`` workload lives in :mod:`service_load`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
import time

import numpy as np

#: The ``chip-1024`` preset of ``repro memsys`` (at its default pitch).
CHIP = dict(rows=1024, cols=1024, ecc="secded", workload="read-heavy",
            nominal_wer=1e-6, sampler="binomial", backend="numpy",
            topology="banked", banks=4, subarrays=4)
CHIP_PITCH_NM = 70.0
CHIP_TXN = 1_000_000

#: Counters of ``repro memsys --preset chip-1024 --seed 1``.
PINNED_SEED = 1
PINNED = dict(n_transactions=1_000_000, n_reads=900195, n_writes=99805,
              raw_bit_errors=1057, words_corrected=1051,
              words_detected=3, words_silent=0,
              uncorrectable_bit_errors=6)

#: The density sweep of the paper workload: 13 pitch ratios x 3
#: patterns x 2 ECC schemes on a 64x64 array.
PAPER_RATIOS = tuple(np.linspace(3.0, 1.5, 13))
PAPER_POINTS = 13 * 3 * 2


def canonical(result):
    """Byte string of every counter and rate of a MemsysResult."""
    from dataclasses import asdict
    fields = {k: v for k, v in asdict(result).items() if k != "extras"}
    fields["topology"] = result.extras.get("topology")
    return json.dumps(fields, sort_keys=True, default=repr).encode()


class Chip1024:
    """Fresh ``chip-1024`` engine + 1e6-transaction run per iteration."""

    unit = "simulated transactions"
    work_per_op = CHIP_TXN

    def __init__(self, seed):
        from repro import MTJDevice, PAPER_EVAL_DEVICE
        from repro.memsys import build_engine
        from repro.units import nm_to_m
        self.seed = seed
        self.build_engine = build_engine
        self.device = MTJDevice(PAPER_EVAL_DEVICE)
        self.pitch = nm_to_m(CHIP_PITCH_NM)
        # The first build fills the kernel store and imports every
        # engine module; iterations then build on a warm process.
        self.engine().template
        from repro.arrays.kernel_store import get_kernel_store
        self.store = get_kernel_store()
        self._last = self.store.stats()
        self.kernel_hits = 0
        self.kernel_misses = 0
        self.first = None

    def engine(self):
        return self.build_engine(self.device, pitch=self.pitch, **CHIP)

    def rng(self, i):
        return np.random.default_rng([self.seed, i])

    def iterate(self, i):
        return self.engine().run(CHIP_TXN, rng=self.rng(i))

    def check(self, i, result):
        """Invariants of one run; returns a list of failure strings."""
        problems = []
        if result.n_transactions != CHIP_TXN:
            problems.append(f"run {i}: {result.n_transactions} txn")
        if result.n_reads + result.n_writes != result.n_transactions:
            problems.append(f"run {i}: reads + writes != transactions")
        shards = result.extras["topology"]["per_shard_transactions"]
        if sum(shards) != CHIP_TXN or len(shards) != 16:
            problems.append(f"run {i}: shard shares {shards}")
        if i == 0:
            self.first = canonical(result)
        stats = self.store.stats()
        self.kernel_hits += stats["hits"] - self._last["hits"]
        self.kernel_misses += stats["misses"] - self._last["misses"]
        self._last = stats
        return problems

    def final_checks(self):
        """Seeded replays after the timed loop: ``(attempted, failed
        check descriptions)``."""
        failures = []
        if canonical(self.iterate(0)) != self.first:
            failures.append("same-seed rerun is not byte-identical")
        pinned = self.engine().run(CHIP_TXN, rng=PINNED_SEED)
        wrong = {key: getattr(pinned, key) for key, want in PINNED.items()
                 if getattr(pinned, key) != want}
        if wrong:
            failures.append(f"seed {PINNED_SEED} counters moved: {wrong}")
        return 2, failures

    def summary(self, ops):
        return {"txn_per_s": CHIP_TXN / float(np.median(ops)),
                "op_p50_ms": float(np.median(ops)) * 1e3}


class Paper:
    """Cold reproduction: 14 figures, then the 78-point density sweep."""

    unit = "cold reproductions"
    work_per_op = 1

    def __init__(self, seed):
        from repro import MTJDevice, PAPER_EVAL_DEVICE
        from repro.arrays.kernel_store import get_kernel_store
        from repro.experiments.runner import run_all
        from repro.memsys import uber_sweep
        self.seed = seed
        self.device = MTJDevice(PAPER_EVAL_DEVICE)
        self.store = get_kernel_store()
        self.run_all = run_all
        self.uber_sweep = uber_sweep
        self.store.detach_disk()
        self.first = None
        self.kernel_hits = 0
        self.kernel_misses = 0

    def iterate(self, i):
        self.store.clear()
        figures = self.run_all(include_extensions=True)
        sweep = self.uber_sweep(self.device, pitch_ratios=PAPER_RATIOS,
                                seed=self.seed)
        stats = self.store.stats()
        self.kernel_hits += stats["hits"]
        self.kernel_misses += stats["misses"]
        return figures, sweep

    def check(self, i, result):
        figures, sweep = result
        problems = []
        if len(figures) != 14:
            problems.append(f"run {i}: {len(figures)} figures")
        for fig, res in figures.items():
            if not res.all_passed:
                problems.append(f"run {i}: {fig} failed its criteria")
        if len(sweep.rows) != PAPER_POINTS:
            problems.append(f"run {i}: sweep has {len(sweep.rows)} "
                            f"points")
        for comp in sweep.comparisons:
            if not comp.passed:
                problems.append(f"run {i}: sweep check {comp.row()[0]}")
        digest = hashlib.sha256(json.dumps(
            sweep.extras["uber"], sort_keys=True).encode()).hexdigest()
        if self.first is None:
            self.first = digest
        elif digest != self.first:
            problems.append(f"run {i}: sweep differs from run 0")
        return problems

    def final_checks(self):
        return 0, []

    def summary(self, ops):
        return {"reproduce_s": float(np.median(ops))}


WORKLOADS = {"chip1024": Chip1024, "paper": Paper}


def timed_loop(workload, seconds, start_index, tracer=None, label=""):
    """Iterate until ``seconds`` of iteration time have passed.

    Returns ``(op_seconds, normalized_op_seconds, failures)`` with one
    failure description per failed iteration. The reference kernel
    runs between iterations and result checks after each one, both
    outside the timed region; each operation is normalized by the mean
    of the reference times just before and just after it.
    """
    ops, refs, failures = [], [reference_ms()], []
    i = start_index
    while sum(ops) < seconds or not ops:
        t0 = time.perf_counter()
        if tracer is None:
            out = workload.iterate(i)
        else:
            with tracer.span(f"iteration.{label}"):
                out = workload.iterate(i)
        ops.append(time.perf_counter() - t0)
        refs.append(reference_ms())
        problems = workload.check(i, out)
        if problems:
            failures.append("; ".join(problems))
        i += 1
    normalized = [op * 2 * REF_MS / (before + after)
                  for op, before, after in zip(ops, refs, refs[1:])]
    return ops, normalized, failures


def traced_pass(workload, seconds, start_index, label, out_dir):
    """The traced half of a ``--trace 1`` run."""
    import layers
    from tracer import Tracer, summarize
    tracer = Tracer()
    layers.install_all(tracer)
    hits0, misses0 = workload.kernel_hits, workload.kernel_misses
    ops, normalized, failures = timed_loop(workload, seconds,
                                           start_index, tracer, label)
    data = tracer.arrays()
    tracer.dump(os.path.join(out_dir, f"{label}-spans.npz"))
    summary = summarize(data, tracer.names,
                        with_child=[("kernel_store", "fields")])
    metrics = layers.layer_metrics(summary, tracer.calls, tracer.counts)
    hits = workload.kernel_hits - hits0
    misses = workload.kernel_misses - misses0
    metrics["kernel_store.hits"] = hits
    metrics["kernel_store.misses"] = misses
    metrics["kernel_store.hit_ratio"] = (hits / (hits + misses)
                                         if hits + misses else 0.0)
    root = summary["layers"].get("iteration", {})
    traced_s = root.get("busy_s", 0.0)
    metrics["trace.spans"] = summary["spans"]
    metrics["trace.traced_s"] = traced_s
    metrics["trace.unattributed_s"] = root.get("self_s", 0.0)
    metrics["trace.unattributed_share"] = (
        root.get("self_s", 0.0) / traced_s if traced_s else 0.0)
    layer_self = {lay: v["self_s"]
                  for lay, v in summary["layers"].items()}
    return normalized, failures, metrics, layer_self


#: Host speed the end-to-end times are normalized to: the time of
#: :func:`reference_ms` on a host where it reads exactly this.
REF_MS = 5.0


def _reference_kernel():
    acc = 0.0
    for i in range(20_000):
        x = i * 0.5 + 1.0
        if isinstance(x, float) and math.isfinite(x):
            acc += math.exp(-x * 1e-4)
    return acc


def reference_ms(repeats=3):
    """Best-of-``repeats`` time of a fixed pure-Python kernel (scalar
    math, ``isinstance`` checks) that no change to the program can
    move.

    Shared hosts change speed by up to ~2x within seconds, and
    interpreter-bound code such as a cold reproduction follows the
    kernel closely (correlation ~0.9 over 240 reproductions), so
    dividing an operation's time by the kernel's time measured around
    it removes most of the host's drift from the figures.
    """
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        _reference_kernel()
        best = min(best, time.perf_counter() - t0)
    return best * 1e3


def environment():
    """Versions and machine facts recorded with every result."""
    import importlib.util
    import scipy
    from repro.memsys.backends import resolve_backend
    llc = 0
    try:
        conf = subprocess.run(["getconf", "-a"], capture_output=True,
                              text=True, timeout=10).stdout
    except (OSError, subprocess.SubprocessError):
        conf = ""
    for line in conf.splitlines():
        parts = line.split()
        if (len(parts) == 2 and parts[0].endswith("_CACHE_SIZE")
                and parts[0].startswith("LEVEL") and parts[1].isdigit()):
            llc = max(llc, int(parts[1]))
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
        "engine_backend": resolve_backend(None).name,
        "llc_bytes": llc,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload](args.seed)
    print("READY", flush=True)
    if args.probe:
        return 0
    out_dir = os.path.dirname(os.path.abspath(args.out))
    seconds = args.seconds / 2 if args.trace else args.seconds
    ops, normalized, failures = timed_loop(workload, seconds, 0)
    attempted = len(ops)
    extra_attempted, extra_failures = workload.final_checks()
    attempted += extra_attempted
    failures += extra_failures
    result = {
        "workload": args.workload, "seed": args.seed,
        "unit": workload.unit, "ops_s": ops, "normalized_ops_s": normalized,
        "work_per_s": workload.work_per_op / float(np.median(normalized)),
        "op_geomean_ms": float(np.exp(np.mean(np.log(normalized)))) * 1e3,
        "host_ref_ms": float(np.median(
            [op * REF_MS / n for op, n in zip(ops, normalized)])),
        "named": workload.summary(ops),
        "environment": environment(),
    }
    if args.trace:
        t_norm, t_failures, metrics, layer_self = traced_pass(
            workload, seconds, len(ops), args.workload, out_dir)
        attempted += len(t_norm)
        failures += t_failures
        untraced_mean = sum(normalized) / len(normalized)
        traced_mean = sum(t_norm) / len(t_norm)
        metrics["trace.overhead_s"] = traced_mean - untraced_mean
        metrics["trace.overhead_ratio"] = traced_mean / untraced_mean - 1
        result.update(traced_normalized_ops_s=t_norm, layers=metrics,
                      layer_self_s=layer_self)
    result.update(attempted=attempted, failed=len(failures),
                  failures=failures[:20])
    with open(args.out, "w") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
