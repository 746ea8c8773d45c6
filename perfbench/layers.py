"""Which program functions form each measured layer, and the per-layer
metrics derived from a span dump.

Every layer is named after the module it wraps. Only public entry points
are wrapped, plus the two sweep point functions whose time
``sweep.overhead_s`` must exclude. ``repro.llg``,
``repro.characterization``, ``repro.resilience`` and
``repro.integrity`` are deliberately left unwrapped.
"""

from __future__ import annotations

import numpy as np


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _loop_points(args, kwargs):
    currents = _arg(args, kwargs, 0, "currents")
    points = np.asarray(_arg(args, kwargs, 3, "points"))
    return {"fields.evaluations": 1,
            "fields.loop_points": int(np.size(currents))
            * int(points.size // 3)}


def _engine_txn(args, kwargs):
    return {"engine.txn": int(_arg(args, kwargs, 1, "n_transactions"))}


def _topology_shards(args, kwargs):
    return {"topology.shards": int(args[0].topology.n_shards)}


def _sweep_points(args, kwargs):
    return {"sweep.points": len(_arg(args, kwargs, 1, "spec"))}


#: ``(layer, module, targets, options)`` — see :func:`tracer.install`.
SPEC = [
    ("fields", "repro.fields.superposition",
     ["LoopCollection.field", "LoopCollection.field_grid"],
     {"collapse": True}),
    ("fields", "repro.fields.loop_analytic",
     ["loop_field_analytic_many"],
     {"collapse": True, "counter": _loop_points}),
    ("kernel_store", "repro.arrays.kernel_store",
     ["KernelStore.kernel", "KernelStore.kernel_batch"], {}),
    ("controller", "repro.memsys.controller",
     ["ArrayController.__init__"], {}),
    ("device", "repro.apps.write_error", ["WriteErrorModel.*"],
     {"collapse": True}),
    ("device", "repro.apps.read_disturb", ["ReadDisturbAnalysis.*"],
     {"collapse": True}),
    ("device", "repro.device.mtj", ["MTJDevice.*"], {"collapse": True}),
    ("device", "repro.device.retention", ["flip_rate"],
     {"collapse": True}),
    ("validation", "repro.validation", ["require_*"],
     {"collapse": True}),
    ("engine", "repro.memsys.engine", ["ReliabilityEngine.run"],
     {"counter": _engine_txn}),
    ("sampling", "repro.memsys.sampling",
     ["class_index", "sample_thinned_flips", "sample_class_flips",
      "IncrementalClassMaps.*"], {"collapse": True}),
    ("bitplane", "repro.memsys.bitplane",
     ["pack_bits", "unpack_bits", "popcount_rows", "BitPlane.*"],
     {"collapse": True}),
    ("ecc", "repro.memsys.ecc", ["HammingSECDED.*", "NoECC.*"],
     {"collapse": True}),
    ("traffic", "repro.memsys.traffic", ["Workload.*"],
     {"collapse": True}),
    ("topology", "repro.memsys.topology", ["TopologyEngine.run"],
     {"counter": _topology_shards}),
    ("topology", "repro.memsys.engine", ["merge_results"], {}),
    ("sweep", "repro.sweep.runner", ["SweepRunner.run"],
     {"counter": _sweep_points}),
    ("point", "repro.memsys.sweeps", ["_rates_point"], {}),
    ("point", "repro.experiments.runner", ["_run_experiment"], {}),
    ("service", "repro.service.runners", ["run_uber"], {}),
    ("service", "repro.service.results_cache",
     ["ResultsCache.get", "ResultsCache.put"], {}),
]

#: Figure ids of a full reproduction, in paper order.
FIGURES = ("fig2a", "fig2b", "fig3c", "fig3d", "fig4a", "fig4b",
           "fig4c", "fig5", "fig6a", "fig6b", "ext_neighborhood",
           "ext_random_data", "ext_temperature", "ext_wer")


def install_all(tracer):
    """Wrap every layer of :data:`SPEC` plus each figure's ``run``."""
    from tracer import install
    spec = list(SPEC)
    for fig in FIGURES:
        spec.append(("experiments", f"repro.experiments.{fig}", ["run"],
                     {"name": f"experiments.{fig}"}))
    install(tracer, spec)
    # The server dispatches through its runner registry, which holds
    # its own reference to run_uber.
    from repro.service import runners
    runners.RUNNERS["uber"] = runners.run_uber


#: Every per-layer metric the traced run reports, with its unit. The
#: same table is in BENCHMARK.json's ``per_layer`` list.
PER_LAYER = {
    "import.repro_s": "s", "import.repro_apps_s": "s",
    "import.scipy_s": "s", "import.numpy_s": "s",
    "fields.calls": "count", "fields.loop_points": "count",
    "fields.busy_s": "s",
    "kernel_store.hits": "count", "kernel_store.misses": "count",
    "kernel_store.hit_ratio": "ratio", "kernel_store.miss_busy_s": "s",
    "controller.builds": "count", "controller.busy_s": "s",
    "controller.build_ms_p50": "ms",
    "device.calls": "count", "device.busy_s": "s",
    "validation.calls": "count", "validation.busy_s": "s",
    "engine.runs": "count", "engine.txn": "count",
    "engine.busy_s": "s", "engine.us_per_txn": "us",
    "sampling.busy_s": "s", "bitplane.busy_s": "s",
    "ecc.calls": "count", "ecc.busy_s": "s", "traffic.busy_s": "s",
    "engine.unattributed_s": "s",
    "topology.shards": "count", "topology.busy_s": "s",
    "topology.merge_s": "s",
    "sweep.points": "count", "sweep.busy_s": "s",
    "sweep.overhead_s": "s",
    **{f"experiments.{fig}_s": "s" for fig in FIGURES},
    "service.cache_hits": "count", "service.cache_misses": "count",
    "service.hit_ratio": "ratio", "service.runs_started": "count",
    "service.coalesced": "count", "service.shed": "count",
    "service.server_p50_ms": "ms", "service.wire_ms": "ms",
    "service.hit_p50_ms": "ms", "service.miss_p50_ms": "ms",
    "service.sampled_p50_ms": "ms", "service.latency_p99_ms": "ms",
    "service.p99_tail_samples": "count",
    "service.runner_standalone_ms": "ms",
    "service.sampled_inflation": "ratio",
    "trace.spans": "count", "trace.traced_s": "s",
    "trace.unattributed_s": "s", "trace.unattributed_share": "ratio",
    "trace.overhead_s": "s", "trace.overhead_ratio": "ratio",
    "host.ref_ms": "ms",
}


def _calls(calls, layer):
    return sum(n for name, n in calls.items()
               if name.split(".", 1)[0] == layer)


def layer_metrics(summary, calls, counts):
    """Per-layer metrics of one process's spans (zero for a layer the
    workload never entered)."""
    layers = summary["layers"]
    names = summary["names"]

    def busy(layer):
        return layers.get(layer, {}).get("busy_s", 0.0)

    def self_s(layer):
        return layers.get(layer, {}).get("self_s", 0.0)

    builds = names.get("controller.ArrayController.__init__")
    build_ms = (float(np.median(builds["durations_s"])) * 1e3
                if builds and builds["spans"] else 0.0)
    engine_runs = calls.get("engine.ReliabilityEngine.run", 0)
    txn = counts.get("engine.txn", 0)
    merge = names.get("topology.merge_results")
    out = {
        "fields.calls": counts.get("fields.evaluations", 0),
        "fields.loop_points": counts.get("fields.loop_points", 0),
        "fields.busy_s": busy("fields"),
        "kernel_store.miss_busy_s": summary["with_child"].get(
            ("kernel_store", "fields"), 0.0),
        "controller.builds": calls.get(
            "controller.ArrayController.__init__", 0),
        "controller.busy_s": busy("controller"),
        "controller.build_ms_p50": build_ms,
        "device.calls": _calls(calls, "device"),
        "device.busy_s": busy("device"),
        "validation.calls": _calls(calls, "validation"),
        "validation.busy_s": busy("validation"),
        "engine.runs": engine_runs,
        "engine.txn": txn,
        "engine.busy_s": busy("engine"),
        "engine.us_per_txn": busy("engine") / txn * 1e6 if txn else 0.0,
        "engine.unattributed_s": self_s("engine"),
        "ecc.calls": _calls(calls, "ecc"),
        "topology.shards": counts.get("topology.shards", 0),
        "topology.busy_s": busy("topology"),
        "topology.merge_s": merge["busy_s"] if merge else 0.0,
        "sweep.points": counts.get("sweep.points", 0),
        "sweep.busy_s": busy("sweep"),
        "sweep.overhead_s": self_s("sweep"),
    }
    for layer in ("sampling", "bitplane", "ecc", "traffic"):
        out[f"{layer}.busy_s"] = self_s(layer)
    for fig in FIGURES:
        span = names.get(f"experiments.{fig}")
        out[f"experiments.{fig}_s"] = span["busy_s"] if span else 0.0
    return out


IMPORT_MODULES = {"import.repro_s": "repro",
                  "import.repro_apps_s": "repro.apps",
                  "import.scipy_s": "scipy", "import.numpy_s": "numpy"}


def parse_importtime(stderr_text):
    """Cumulative seconds of the :data:`IMPORT_MODULES` packages from
    ``python -X importtime`` output (0 when a package was never
    imported)."""
    cumulative = {}
    for line in stderr_text.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        cumulative.setdefault(parts[2].strip(), int(parts[1]) * 1e-6)
    return {metric: cumulative.get(module, 0.0)
            for metric, module in IMPORT_MODULES.items()}
