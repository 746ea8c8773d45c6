"""Service workload: a closed loop of two connections against a
``repro serve`` process.

    python perfbench/service_load.py --seed N --seconds S --trace {0,1}
        --out RESULT.json

This process is the load generator. It starts the server as a child
process on a unix socket under ``.perfbench_out/``, primes a small hot
set, then drives two connections from two threads; each connection
sends its next query only after the previous reply arrived. Each
connection draws its queries in seeded, shuffled blocks of twenty:

* 12 repeats from the hot set (memo hits),
* 5 fresh expected-mode operating points (misses that build
  controller tables),
* 3 fresh sampled queries (64x64, write-heavy, binomial, 20k
  transactions),
* every ``COALESCE_PERIOD_S`` seconds, one fresh sampled key sent on
  both connections at once (a barrier lines them up), so the second
  subscriber joins the first one's run.

After the loop every fresh answer is replayed through
``repro.service.runners.run_uber`` in this process and compared, and
every hit is compared with the miss that filled it. Set-up time is
spawn-to-first-answer of the server, sampled over several spawns; peak
RSS is the server's. With ``--trace 1`` the seconds are split between
an untraced server and a server started through ``traced_serve.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import threading
import time

import numpy as np

from worker import environment, reference_ms

HERE = os.path.dirname(os.path.abspath(__file__))

CONNECTIONS = 2
HOT_KEYS = 8
#: Each connection sends its queries in shuffled blocks of this make-up
#: (60% hot, 25% fresh expected, 15% fresh sampled), so every seed
#: gets the same mix and only the order and the keys vary.
BLOCK = ("hot",) * 12 + ("miss",) * 5 + ("sampled",) * 3
#: Every this many seconds both connections send one fresh sampled key
#: at once: the first to get there waits at a barrier for the other's
#: current query to finish.
COALESCE_PERIOD_S = 10.0
#: Server spawns timed for ``setup_s`` (the measured pass included).
SETUP_SAMPLES = 3
PATTERNS = ("random", "checkerboard", "solid0", "solid1", "read-heavy")
SAMPLED = dict(op="uber", mode="sampled", rows=64, cols=64,
               pattern="write-heavy", sampler="binomial",
               transactions=20_000)
SERVER_TIMEOUT_S = 60.0


def hot_set(seed):
    rng = np.random.default_rng([seed, 1])
    return [dict(op="uber", mode="expected",
                 pitch_nm=round(float(rng.uniform(55.0, 105.0)), 3),
                 pattern=PATTERNS[i % len(PATTERNS)], seed=i)
            for i in range(HOT_KEYS)]


def fresh_expected(rng, uid):
    return dict(op="uber", mode="expected",
                pitch_nm=round(float(rng.uniform(50.0, 110.0)), 3),
                pattern=PATTERNS[int(rng.integers(len(PATTERNS)))],
                ecc=("secded", "none")[int(rng.integers(2))],
                vp=(0.9, 0.95, 1.0)[int(rng.integers(3))], seed=uid)


def fresh_sampled(rng, uid):
    return dict(SAMPLED,
                pitch_nm=round(float(rng.uniform(55.0, 105.0)), 3),
                seed=uid)


def coalesce_query(seed, j):
    return fresh_sampled(np.random.default_rng([seed, 3, j]),
                         2_000_000 + j)


def key_of(query):
    return json.dumps(query, sort_keys=True)


# -- server process ------------------------------------------------------


class Server:
    """A server child process: spawn, time to first answer, stop."""

    def __init__(self, cmd, socket_path, stderr_path=None):
        from repro.errors import ServiceError
        from repro.service.client import ServiceClient
        if os.path.exists(socket_path):
            os.unlink(socket_path)
        self.socket_path = socket_path
        self.stderr_path = stderr_path
        stderr = None
        if stderr_path is not None:
            stderr = open(stderr_path, "w")
        start = time.perf_counter()
        try:
            self.proc = subprocess.Popen(cmd, stdout=subprocess.DEVNULL,
                                         stderr=stderr)
        finally:
            if stderr is not None:
                stderr.close()
        deadline = start + SERVER_TIMEOUT_S
        while True:
            try:
                with ServiceClient(path=socket_path, timeout=10) as c:
                    if c.request({"op": "stats"}).get("ok"):
                        break
            except ServiceError:
                pass
            if self.proc.poll() is not None:
                raise RuntimeError(f"server exited with code "
                                   f"{self.proc.returncode}")
            if time.perf_counter() > deadline:
                self.proc.kill()
                self.proc.wait()
                raise RuntimeError("server did not answer in time")
            time.sleep(0.002)
        self.setup_s = time.perf_counter() - start

    def stop(self):
        """SIGTERM (graceful drain), reap; returns ``(peak_rss_mb,
        stderr text)``."""
        self.proc.send_signal(signal.SIGTERM)
        deadline = time.perf_counter() + SERVER_TIMEOUT_S
        while True:
            pid, status, usage = os.wait4(self.proc.pid, os.WNOHANG)
            if pid:
                break
            if time.perf_counter() > deadline:
                self.proc.kill()
                pid, status, usage = os.wait4(self.proc.pid, 0)
                break
            time.sleep(0.005)
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        stderr = ""
        if self.stderr_path is not None:
            with open(self.stderr_path) as handle:
                stderr = handle.read()
        return usage.ru_maxrss / 1024.0, stderr


def serve_cmd(socket_path):
    return [sys.executable, "-m", "repro.cli", "serve", "--socket",
            socket_path]


# -- one closed-loop pass -------------------------------------------------


def connection_loop(client, conn, seed, hot, start, stop_at, barrier,
                    records):
    from repro.errors import ServiceError
    rng = np.random.default_rng([seed, 2, conn])
    schedule = []
    k = 0
    coalesce_j = 1
    try:
        while True:
            now = time.perf_counter()
            if now >= stop_at:
                break
            if now >= start + coalesce_j * COALESCE_PERIOD_S:
                try:
                    barrier.wait(timeout=SERVER_TIMEOUT_S)
                except threading.BrokenBarrierError:
                    break
                cls, query = "coalesce", coalesce_query(seed, coalesce_j)
                coalesce_j += 1
            else:
                k += 1
                if not schedule:
                    schedule = [BLOCK[i]
                                for i in rng.permutation(len(BLOCK))]
                cls = schedule.pop()
                uid = 1_000_000 * conn + k
                if cls == "hot":
                    query = hot[int(rng.integers(HOT_KEYS))]
                elif cls == "miss":
                    query = fresh_expected(rng, uid)
                else:
                    query = fresh_sampled(rng, uid)
            t0 = time.perf_counter()
            try:
                event = client.request(query)
            except ServiceError as exc:
                records.append((cls, time.perf_counter() - t0, t0, query,
                                {"ok": False, "error": str(exc)}))
                break
            records.append((cls, time.perf_counter() - t0, t0, query,
                            event))
    finally:
        barrier.abort()


def run_pass(cmd, socket_path, seed, seconds):
    """Spawn a server, prime the hot set, drive the loop, collect."""
    from repro.service.client import ServiceClient
    server = Server(cmd, socket_path)
    try:
        hot = hot_set(seed)
        primed = {}
        with ServiceClient(path=socket_path, timeout=SERVER_TIMEOUT_S) \
                as client:
            for query in hot:
                primed[key_of(query)] = client.request(query)
        clients = [ServiceClient(path=socket_path,
                                 timeout=SERVER_TIMEOUT_S)
                   for _ in range(CONNECTIONS)]
        records = [[] for _ in range(CONNECTIONS)]
        barrier = threading.Barrier(CONNECTIONS)
        # The reference kernel runs only while the server is idle: run
        # between queries it would compete with the server it measures.
        refs = [reference_ms()]
        start = time.perf_counter()
        threads = [threading.Thread(
            target=connection_loop,
            args=(clients[c], c, seed, hot, start, start + seconds,
                  barrier, records[c])) for c in range(CONNECTIONS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        wall = time.perf_counter() - start
        refs.append(reference_ms())
        for client in clients:
            client.close()
        with ServiceClient(path=socket_path, timeout=SERVER_TIMEOUT_S) \
                as client:
            stats = client.request({"op": "stats"})["result"]
    finally:
        peak_rss_mb, _ = server.stop()
    return dict(setup_s=server.setup_s, peak_rss_mb=peak_rss_mb,
                primed=primed, records=records, start=start, wall_s=wall,
                stats=stats, host_ref_ms=float(np.mean(refs)))


# -- checks and metrics ---------------------------------------------------


def replay(queries):
    """Fresh answers recomputed through the runner in this process:
    ``{key: (payload, seconds)}``."""
    from repro.service.protocol import (decode_line, encode_line,
                                        parse_request)
    from repro.service.runners import run_uber
    abort = threading.Event()
    out = {}
    for key, query in queries.items():
        parsed = parse_request(dict(query))
        t0 = time.perf_counter()
        payload = run_uber(parsed, abort, lambda done, total: None)
        seconds = time.perf_counter() - t0
        out[key] = (decode_line(encode_line(payload)), seconds)
    return out


def check_pass(result, replays):
    """``(attempted, failure descriptions)`` of one pass."""
    failures = []
    attempted = 0
    primed = result["primed"]
    for key, event in primed.items():
        attempted += 1
        if not event.get("ok") or event["result"] != replays[key][0]:
            failures.append(f"primed {key}: wrong answer")
    for records in result["records"]:
        for cls, _, _, query, event in records:
            attempted += 1
            key = key_of(query)
            if not event.get("ok"):
                failures.append(f"{cls} {key}: {event.get('error')}")
                continue
            want = (primed[key]["result"] if cls == "hot"
                    else replays[key][0])
            if event["result"] != want:
                failures.append(f"{cls} {key}: payload differs")
    return attempted, failures


def percentile(values, q):
    return float(np.percentile(np.asarray(values), q)) if values else 0.0


def tail_pct(n):
    return max(int(1000 * (1 - 10 / n)) / 10, 50.0) if n else 50.0


def pass_metrics(result):
    """Client-side latency figures plus the server's own counters."""
    by_class = {}
    latencies = []
    for records in result["records"]:
        for cls, seconds, _, _, event in records:
            if cls == "hot" and not event.get("cached"):
                cls = "miss"
            by_class.setdefault(cls, []).append(seconds * 1e3)
            latencies.append(seconds * 1e3)
    n = len(latencies)
    stats = result["stats"]
    cache = stats["cache"]
    server_latency = (stats["endpoints"].get("uber", {}).get("latency")
                      or {})
    lookups = cache["hits"] + cache["misses"]
    hit_p50 = percentile(by_class.get("hot", []), 50)
    out = {
        "queries": n,
        "qps": n / result["wall_s"],
        "op_geomean_ms": float(np.exp(np.mean(np.log(latencies)))),
        "op_p50_ms": percentile(latencies, 50),
        "hit_p50_ms": hit_p50,
        "miss_p50_ms": percentile(by_class.get("miss", []), 50),
        "sampled_p50_ms": percentile(by_class.get("sampled", []), 50),
        "coalesce_p50_ms": percentile(by_class.get("coalesce", []), 50),
        "latency_p99_ms": percentile(latencies, 99),
        "p99_tail_samples": int(sum(1 for v in latencies
                                    if v > percentile(latencies, 99))),
        # The highest percentile (in 0.1 steps) with at least ten
        # samples beyond it.
        "tail_pct": tail_pct(n),
        "tail_ms": percentile(latencies, tail_pct(n)),
        "class_counts": {c: len(v) for c, v in by_class.items()},
        "cache_hits": cache["hits"],
        "cache_misses": cache["misses"],
        "hit_ratio": cache["hits"] / lookups if lookups else 0.0,
        "runs_started": stats["coalesce"]["runs_started"],
        "coalesced": stats["coalesce"]["joined"],
        "shed": stats["shed"],
        "server_p50_ms": server_latency.get("p50_ms", 0.0),
        "kernel_store": stats["kernel_store"],
    }
    out["wire_ms"] = out["hit_p50_ms"] - out["server_p50_ms"]
    return out


def server_root_s(spans, t0_ns, result):
    """Summed duration of the server's root spans (runner calls, memo
    cache lookups) that started inside the client loop of ``result``.
    Both processes read the same monotonic clock."""
    data = np.load(spans + ".npz")
    start = data["start_ns"] + t0_ns - result["start"] * 1e9
    roots = ((data["parent"] == 0) & (start >= 0)
             & (start <= result["wall_s"] * 1e9))
    return float((data["end_ns"][roots] - data["start_ns"][roots]).sum()
                 ) * 1e-9


def trace_metrics(untraced, traced_pass, spans, server_trace,
                  untraced_latencies):
    """Per-layer metrics of a traced service run.

    ``service.*`` come from the untraced pass (client timings and the
    public ``stats`` op); the engine, field and controller layers, the
    kernel store and the ``trace.*`` figures from the traced server.
    """
    out = dict(server_trace["layers"])
    for key in ("cache_hits", "cache_misses", "hit_ratio", "runs_started",
                "coalesced", "shed", "server_p50_ms", "wire_ms",
                "hit_p50_ms", "miss_p50_ms", "sampled_p50_ms",
                "latency_p99_ms", "p99_tail_samples",
                "runner_standalone_ms", "sampled_inflation"):
        out[f"service.{key}"] = untraced[key]
    store = pass_metrics(traced_pass)["kernel_store"]
    lookups = store["hits"] + store["misses"]
    out["kernel_store.hits"] = store["hits"]
    out["kernel_store.misses"] = store["misses"]
    out["kernel_store.hit_ratio"] = (store["hits"] / lookups
                                     if lookups else 0.0)
    traced = [s for recs in traced_pass["records"]
              for _, s, _, _, _ in recs]
    traced_s = sum(traced)
    # Client time the server's root spans (runner, memo cache) do not
    # cover: wire, event loop, thread hand-off and GIL waits.
    unattributed = max(traced_s - server_root_s(
        spans, server_trace["t0_ns"], traced_pass), 0.0)
    untraced_mean = sum(untraced_latencies) / len(untraced_latencies)
    traced_mean = traced_s / len(traced)
    out.update({
        "trace.spans": server_trace["spans"],
        "trace.traced_s": traced_s,
        "trace.unattributed_s": unattributed,
        "trace.unattributed_share": (unattributed / traced_s
                                     if traced_s else 0.0),
        "trace.overhead_s": traced_mean - untraced_mean,
        "trace.overhead_ratio": traced_mean / untraced_mean - 1,
    })
    return out


def fresh_queries(results):
    """Every distinct non-hot query of the passes, keyed."""
    out = {}
    for result in results:
        out.update(result["primed_queries"])
        for records in result["records"]:
            for cls, _, _, query, _ in records:
                if cls != "hot":
                    out[key_of(query)] = query
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    out_dir = os.path.relpath(os.path.dirname(os.path.abspath(args.out)))
    socket_path = os.path.join(out_dir, f"serve-{os.getpid()}.sock")

    setup = []
    for _ in range(SETUP_SAMPLES - 1):
        server = Server(serve_cmd(socket_path), socket_path)
        server.stop()
        setup.append(server.setup_s)
    seconds = args.seconds / 2 if args.trace else args.seconds
    passes = [run_pass(serve_cmd(socket_path), socket_path, args.seed,
                       seconds)]
    setup.append(passes[0]["setup_s"])
    if args.trace:
        spans = os.path.join(out_dir, "service-server")
        traced_cmd = [sys.executable, os.path.join(HERE, "traced_serve.py"),
                      "--socket", socket_path, "--out", spans]
        passes.append(run_pass(traced_cmd, socket_path, args.seed,
                               seconds))
    for result in passes:
        result["primed_queries"] = {key_of(q): q
                                    for q in hot_set(args.seed)}
    replays = replay(fresh_queries(passes))
    attempted, failures = 0, []
    for result in passes:
        a, f = check_pass(result, replays)
        attempted += a
        failures += f
    main_pass = pass_metrics(passes[0])
    sampled_keys = {key_of(q) for recs in passes[0]["records"]
                    for cls, _, _, q, _ in recs if cls == "sampled"}
    standalone = [replays[k][1] * 1e3 for k in sampled_keys]
    main_pass["runner_standalone_ms"] = percentile(standalone, 50)
    main_pass["runner_standalone_n"] = len(standalone)
    main_pass["sampled_inflation"] = (
        main_pass["sampled_p50_ms"] / main_pass["runner_standalone_ms"]
        if standalone else 0.0)
    latencies = [s for recs in passes[0]["records"]
                 for _, s, _, _, _ in recs]
    result = {
        "workload": "service", "seed": args.seed, "unit": "queries",
        "setup_samples_s": setup,
        "peak_rss_mb": passes[0]["peak_rss_mb"],
        "ops_s": latencies,
        "classes": [cls for recs in passes[0]["records"]
                    for cls, _, _, _, _ in recs],
        "work_per_s": main_pass["qps"],
        "op_geomean_ms": main_pass["op_geomean_ms"],
        "host_ref_ms": passes[0]["host_ref_ms"],
        "named": main_pass,
        "environment": environment(),
        "attempted": attempted, "failed": len(failures),
        "failures": failures[:20],
    }
    if args.trace:
        with open(spans + ".json") as handle:
            server_trace = json.load(handle)
        result["layers"] = trace_metrics(main_pass, passes[1], spans,
                                         server_trace, latencies)
        result["layer_self_s"] = server_trace["layer_self_s"]
        server = Server([sys.executable, "-X", "importtime"]
                        + serve_cmd(socket_path)[1:], socket_path,
                        stderr_path=os.path.join(out_dir,
                                                 "service-importtime.txt"))
        _, stderr = server.stop()
        result["importtime_stderr"] = stderr
    with open(args.out, "w") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
