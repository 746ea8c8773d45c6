"""Injectable OS shims: filesystem, clock, process control.

Every resilience mechanism in this package — checkpoint writes, fleet
supervision, retry backoff — ultimately talks to the operating system,
and the operating system is exactly what the fault-injection harness
(:mod:`repro.resilience.faults`) needs to control. These shims are the
seam: production code holds a shim object and calls through it; the
default singletons delegate straight to ``os``/``time``/``subprocess``
with no overhead worth measuring, while the harness substitutes
deterministic doubles that fail on schedule.

:class:`FileSystem` and ``REAL_FS`` are defined in :mod:`repro.store`
beside the atomic write that uses them, and re-exported here.

The shims are deliberately *narrow*: they expose only the operations
the resilience layer performs (atomic replace, byte-level file IO,
directory scans, monotonic time, sleeping, worker-process lifecycle),
so a fault plan enumerates a small, meaningful fault space instead of
"any syscall anywhere".
"""

from __future__ import annotations

import subprocess
import sys
import time

from ..store import REAL_FS, FileSystem


class Clock:
    """The real clock: ``time.monotonic``/``time.time``/``time.sleep``.

    Supervisor loops and retry backoff read time and sleep only through
    a clock object, so tests (and the fault harness) can run hours of
    supervision in microseconds with a manually advanced
    :class:`~repro.resilience.faults.FaultClock`.
    """

    def monotonic(self):
        return time.monotonic()

    def time(self):
        return time.time()

    def sleep(self, seconds):
        time.sleep(seconds)


class WorkerHandle:
    """One spawned worker process (the supervisor's view of it)."""

    def __init__(self, process, worker_id):
        self._process = process
        self.worker_id = worker_id

    @property
    def pid(self):
        return self._process.pid

    def alive(self):
        return self._process.poll() is None

    def returncode(self):
        return self._process.poll()

    def terminate(self):
        if self.alive():
            self._process.terminate()

    def wait(self, timeout=None):
        try:
            self._process.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            self._process.kill()
            self._process.wait(timeout=5.0)


class ProcessSpawner:
    """Spawns real ``repro worker`` subprocesses against a spool.

    The spawned interpreter inherits this process's environment (so
    ``PYTHONPATH``/``REPRO_KERNEL_CACHE`` travel) and serves the spool
    with ``--max-idle``/``--timeout`` bounds, so an orphaned worker —
    its supervisor killed — still drains instead of running forever.
    """

    def __init__(self, max_idle=30.0, timeout=None):
        self.max_idle = max_idle
        self.timeout = timeout

    def spawn(self, spool, worker_id):
        argv = [sys.executable, "-m", "repro.cli", "worker",
                "--spool", str(spool), "--id", str(worker_id)]
        if self.max_idle is not None:
            argv += ["--max-idle", str(self.max_idle)]
        if self.timeout is not None:
            argv += ["--timeout", str(self.timeout)]
        process = subprocess.Popen(
            argv, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        return WorkerHandle(process, worker_id)


#: Default clock singleton: the real clock.
REAL_CLOCK = Clock()
