"""Worker-fleet supervisor: demand-driven workers over a spool.

The ROADMAP ask, verbatim: *spawn workers when queue-depth × chunk-cost
exceeds a latency target, retire them on idle*. The
:class:`FleetSupervisor` closes that loop around the spool-directory
protocol of :mod:`repro.sweep.distributed`:

* **Scaling up.** Each supervision step scans the spool
  (:class:`SpoolView`), estimates the time to drain the queue as
  ``queued_chunks * chunk_cost``, and targets enough workers to bring
  that under ``latency_target`` — clamped to ``[min_workers,
  max_workers]``. Externally attached workers (live heartbeats the
  supervisor did not spawn) count toward capacity, so a fleet
  supervisor coexists with hand-started ``repro worker`` processes
  instead of doubling them.
* **Crash restarts.** A spawned worker that exits non-zero is
  restarted under an exponential-backoff-plus-jitter schedule
  (:class:`~repro.resilience.breaker.RetryPolicy`); after
  ``max_restarts`` consecutive crashes the supervisor stops feeding
  the crash loop and warns (:class:`~repro.errors.ResilienceWarning`)
  instead of forking forever.
* **Retiring.** Once the spool has been idle (no queued or claimed
  chunks) for ``idle_grace`` seconds, spawned workers above
  ``min_workers`` are terminated; workers also self-retire via their
  own ``--max-idle``, so a supervisor crash never strands a fleet.

Everything nondeterministic is injected: process creation via a
spawner (:class:`~repro.resilience.shims.ProcessSpawner` in
production), time via a clock, spool observation via a
:class:`SpoolView` — which is how the fault harness runs a full
scale-up / crash-restart / retire lifecycle in a test with zero real
processes and zero real seconds.
"""

from __future__ import annotations

import math
import os
import warnings

from ..errors import ResilienceWarning
from ..validation import require_int_in_range, require_positive
from .breaker import RetryPolicy
from .shims import REAL_CLOCK, ProcessSpawner
from ..sweep.distributed import (
    SHUTDOWN_SENTINEL,
    SWEEP_SPOOL_ENV,
    SpoolRun,
)


class SpoolView:
    """Read-only observability over a spool directory.

    ``scan()`` reduces the directory protocol to the four numbers the
    supervisor steers by. Kept separate from the supervisor so tests
    script spool states directly, and so a monitoring endpoint can
    reuse the same scan.
    """

    def __init__(self, spool, heartbeat_fresh=10.0):
        self.spool = str(spool)
        require_positive(heartbeat_fresh, "heartbeat_fresh")
        self.heartbeat_fresh = float(heartbeat_fresh)

    def scan(self):
        """``{"open_runs", "queued", "claimed", "live_workers"}`` now.

        ``live_workers`` is the set of worker ids with a heartbeat
        fresher than ``heartbeat_fresh`` seconds across all open runs.
        Directories racing away mid-scan (a broker tearing down its
        finished run) read as empty, not as errors.
        """
        state = {"open_runs": 0, "queued": 0, "claimed": 0,
                 "live_workers": set()}
        for run in SpoolRun.runs(self.spool):
            if not run.is_live():
                continue
            state["open_runs"] += 1
            state["queued"] += len(run.queued())
            state["claimed"] += len(run.claimed_jobs())
            state["live_workers"] |= run.live_workers(
                self.heartbeat_fresh)
        return state


class FleetSupervisor:
    """Scales a worker fleet against spool demand; see module docs.

    Parameters
    ----------
    spool:
        Spool directory to supervise (default :data:`~repro.sweep
        .distributed.SWEEP_SPOOL_ENV`).
    latency_target:
        Seconds the queue should drain within; the scaling setpoint.
    chunk_cost:
        Estimated seconds per queued chunk (a planning number, not a
        measurement — order of magnitude is enough).
    min_workers / max_workers:
        Fleet size clamp. ``min_workers=0`` (default) lets the fleet
        retire completely on idle.
    idle_grace:
        Seconds of empty spool before spawned workers retire.
    max_restarts:
        Consecutive crash-restarts before the supervisor gives up on
        respawning and warns.
    spawner / clock / view:
        Injection points (real OS by default).
    seed:
        Seeds the restart-backoff jitter, making supervision schedules
        reproducible under test.
    """

    def __init__(self, spool=None, latency_target=30.0, chunk_cost=1.0,
                 min_workers=0, max_workers=8, idle_grace=10.0,
                 poll=0.5, max_restarts=5, backoff_base=0.5,
                 spawner=None, clock=None, view=None, seed=0):
        spool = spool or os.environ.get(SWEEP_SPOOL_ENV)
        if not spool:
            raise ValueError(
                f"no spool directory: pass spool= or set "
                f"{SWEEP_SPOOL_ENV}")
        require_positive(latency_target, "latency_target")
        require_positive(chunk_cost, "chunk_cost")
        require_int_in_range(min_workers, "min_workers", 0, 4096)
        require_int_in_range(max_workers, "max_workers",
                             max(min_workers, 1), 4096)
        require_positive(idle_grace, "idle_grace")
        require_positive(poll, "poll")
        require_int_in_range(max_restarts, "max_restarts", 1, 1000)
        self.spool = str(spool)
        self.latency_target = float(latency_target)
        self.chunk_cost = float(chunk_cost)
        self.min_workers = int(min_workers)
        self.max_workers = int(max_workers)
        self.idle_grace = float(idle_grace)
        self.poll = float(poll)
        self.max_restarts = int(max_restarts)
        self.spawner = (spawner if spawner is not None
                        else ProcessSpawner(max_idle=2 * idle_grace))
        self.clock = clock if clock is not None else REAL_CLOCK
        self.view = view if view is not None else SpoolView(self.spool)
        self.backoff = RetryPolicy(base=backoff_base, cap=30.0,
                                   seed=seed)
        self.handles = {}
        self._serial = 0
        self._crashes = 0
        self._next_spawn_at = 0.0
        self._idle_since = None
        self._gave_up = False
        self.stats = {"spawned": 0, "restarts": 0, "retired": 0,
                      "crashes": 0, "peak_workers": 0, "steps": 0}

    # -- one supervision step ------------------------------------------------

    def step(self):
        """Observe, reconcile, return the scan (for logging/tests)."""
        self.stats["steps"] += 1
        state = self.view.scan()
        self._reap()
        busy = state["queued"] + state["claimed"]
        now = self.clock.monotonic()
        if busy:
            self._idle_since = None
            self._scale_up(state, now)
        else:
            if self._idle_since is None:
                self._idle_since = now
            elif now - self._idle_since >= self.idle_grace:
                self._retire()
        self.stats["peak_workers"] = max(self.stats["peak_workers"],
                                         len(self.handles))
        return state

    def _reap(self):
        """Collect exited workers; schedule restarts for crashes."""
        for wid in list(self.handles):
            handle = self.handles[wid]
            if handle.alive():
                continue
            del self.handles[wid]
            code = handle.returncode()
            if code not in (0, None):
                self._crashes += 1
                self.stats["crashes"] += 1
                if self._crashes > self.max_restarts:
                    if not self._gave_up:
                        self._gave_up = True
                        warnings.warn(
                            f"fleet worker crashed {self._crashes} "
                            f"consecutive times (last exit code "
                            f"{code}); not respawning — the spool "
                            f"may hold a poison workload",
                            ResilienceWarning, stacklevel=3)
                else:
                    delay = self.backoff.delay(self._crashes)
                    self._next_spawn_at = max(
                        self._next_spawn_at,
                        self.clock.monotonic() + delay)
                    self.stats["restarts"] += 1
            else:
                # Clean exit (self-retired on idle): not a crash, and
                # a subsequent crash starts a fresh backoff ladder.
                self._crashes = 0
                self._gave_up = False

    def _desired(self, state):
        drain_time = state["queued"] * self.chunk_cost
        demand = math.ceil(drain_time / self.latency_target)
        if state["queued"] and demand < 1:
            demand = 1
        return max(self.min_workers, min(self.max_workers, demand))

    def _scale_up(self, state, now):
        if self._gave_up or now < self._next_spawn_at:
            return
        own_live = len(self.handles)
        external = len(state["live_workers"]
                       - set(self.handles.keys()))
        deficit = self._desired(state) - own_live - external
        for _ in range(max(0, deficit)):
            if len(self.handles) >= self.max_workers:
                break
            self._serial += 1
            wid = f"fleet-{self._serial}"
            self.handles[wid] = self.spawner.spawn(self.spool, wid)
            self.stats["spawned"] += 1

    def _retire(self):
        """Terminate spawned workers above the floor (LIFO)."""
        excess = len(self.handles) - self.min_workers
        for wid in sorted(self.handles, reverse=True)[:max(0, excess)]:
            handle = self.handles.pop(wid)
            handle.terminate()
            handle.wait(timeout=5.0)
            self.stats["retired"] += 1

    # -- lifecycle -----------------------------------------------------------

    def shutdown_requested(self):
        return os.path.exists(os.path.join(self.spool,
                                           SHUTDOWN_SENTINEL))

    def run(self, duration=None, until_idle=False):
        """Supervise until shutdown/duration/idle; returns the stats.

        ``until_idle=True`` exits once the spool is empty *and* every
        spawned worker has retired — the mode the fleet demo and tests
        use; a production fleet runs open-ended with ``duration=None``
        until the :data:`~repro.sweep.distributed.SHUTDOWN_SENTINEL`
        appears.
        """
        if duration is not None:
            require_positive(duration, "duration")
        started = self.clock.monotonic()
        while not self.shutdown_requested():
            if (duration is not None
                    and self.clock.monotonic() - started >= duration):
                break
            state = self.step()
            if (until_idle and not self.handles
                    and not state["queued"] and not state["claimed"]
                    and self._idle_since is not None):
                break
            self.clock.sleep(self.poll)
        self._shutdown()
        return self.stats

    def _shutdown(self):
        """Terminate whatever is still ours (idempotent)."""
        for wid in list(self.handles):
            handle = self.handles.pop(wid)
            handle.terminate()
            handle.wait(timeout=5.0)
            self.stats["retired"] += 1


def run_fleet(spool=None, latency_target=30.0, chunk_cost=1.0,
              min_workers=0, max_workers=8, idle_grace=10.0,
              poll=0.5, duration=None, until_idle=False):
    """CLI entry point behind ``repro fleet``; returns an exit code."""
    try:
        supervisor = FleetSupervisor(
            spool=spool, latency_target=latency_target,
            chunk_cost=chunk_cost, min_workers=min_workers,
            max_workers=max_workers, idle_grace=idle_grace, poll=poll)
    except ValueError as exc:
        print(str(exc))
        return 1
    stats = supervisor.run(duration=duration, until_idle=until_idle)
    print(f"fleet over {supervisor.spool}: spawned "
          f"{stats['spawned']} worker(s) (peak {stats['peak_workers']}"
          f"), {stats['restarts']} restart(s), {stats['crashes']} "
          f"crash(es), retired {stats['retired']}")
    return 0


def add_fleet_arguments(parser):
    """Attach the fleet flag set (the ``repro fleet`` CLI surface)."""
    parser.add_argument("--spool", default=None,
                        help=f"spool directory to supervise (default: "
                             f"${SWEEP_SPOOL_ENV})")
    parser.add_argument("--latency-target", type=float, default=30.0,
                        help="seconds the queue should drain within "
                             "(scaling setpoint)")
    parser.add_argument("--chunk-cost", type=float, default=1.0,
                        help="estimated seconds per queued chunk")
    parser.add_argument("--min-workers", type=int, default=0,
                        help="fleet floor kept alive even when idle")
    parser.add_argument("--max-workers", type=int, default=8,
                        help="fleet ceiling")
    parser.add_argument("--idle-grace", type=float, default=10.0,
                        help="seconds of empty spool before spawned "
                             "workers retire")
    parser.add_argument("--poll", type=float, default=0.5,
                        help="seconds between supervision steps")
    parser.add_argument("--duration", type=float, default=None,
                        help="stop supervising after this many "
                             "seconds (default: run until the "
                             "shutdown sentinel)")
    parser.add_argument("--until-idle", action="store_true",
                        help="exit once the spool drains and every "
                             "spawned worker has retired")
    return parser
