"""``repro serve`` with every layer of :mod:`layers` wrapped in spans.

    python perfbench/traced_serve.py --socket PATH --out PREFIX

Serves exactly like ``python -m repro.cli serve --socket PATH``; after
the graceful drain (SIGTERM) it writes the spans to ``PREFIX.npz`` and
the per-layer summary to ``PREFIX.json``.
"""

from __future__ import annotations

import argparse
import json
import sys

import layers
from tracer import Tracer, summarize


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--socket", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    import repro.cli
    import repro.service.server  # noqa: F401 - loaded before wrapping
    tracer = Tracer()
    layers.install_all(tracer)
    code = repro.cli.main(["serve", "--socket", args.socket])

    data = tracer.arrays()
    tracer.dump(args.out + ".npz")
    summary = summarize(data, tracer.names,
                        with_child=[("kernel_store", "fields")])
    with open(args.out + ".json", "w") as handle:
        json.dump({
            "layers": layers.layer_metrics(summary, tracer.calls,
                                           tracer.counts),
            "layer_self_s": {lay: v["self_s"]
                             for lay, v in summary["layers"].items()},
            "spans": summary["spans"],
            "t0_ns": tracer.t0_ns,
            "runner_self_s": summary["layers"].get(
                "service", {}).get("self_s", 0.0),
        }, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
