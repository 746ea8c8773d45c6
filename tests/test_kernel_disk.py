"""Tests for the persistent on-disk kernel cache.

Covers the happy path (round trip, bit-identical values, env-var
opt-in), every fault-injection scenario the store must survive
(truncation, tampered sidecar, schema mismatch, lost files, torn
concurrent writes), and the process-boundary behavior the cache exists
for (a subprocess's kernels warming the parent, the two-run hit-rate
acceptance criterion of the memsys pitch sweep).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading

import numpy as np
import pytest

from repro.arrays import kernel_disk, kernel_store
from repro.arrays.kernel_disk import (
    KERNEL_CACHE_ENV,
    DiskKernelCache,
    KernelCacheError,
    key_digest,
)
from repro.arrays.kernel_store import KernelStore, get_kernel_store
from repro.stack import build_reference_stack

OFFSET = (90e-9, 0.0)


@pytest.fixture(scope="module")
def stack():
    return build_reference_stack(55e-9)


@pytest.fixture
def disk(tmp_path):
    return DiskKernelCache(tmp_path / "kernels")


@pytest.fixture
def global_store(monkeypatch):
    """The process-wide store, detached and cleared before and after."""
    monkeypatch.delenv(KERNEL_CACHE_ENV, raising=False)
    store = kernel_store._GLOBAL_STORE
    store.detach_disk()
    store.clear()
    yield store
    store.detach_disk()
    store.clear()


def _warm(disk, stack):
    """Compute one kernel through a disk-backed store and persist it."""
    store = KernelStore(disk=disk)
    value = store.kernel(stack, OFFSET, "fl")
    assert store.flush_disk() == 1
    return value


class TestRoundTrip:
    def test_fresh_store_reads_bit_identical_value(self, disk, stack):
        value = _warm(disk, stack)
        fresh = KernelStore(disk=disk)
        assert fresh.kernel(stack, OFFSET, "fl") == value
        stats = fresh.stats()
        assert stats["disk_hits"] == 1
        assert stats["misses"] == 0

    def test_disk_backed_equals_pure_memory_compute(self, disk, stack):
        """Parity: a disk round trip changes no bits vs a fresh compute."""
        _warm(disk, stack)
        from_disk = KernelStore(disk=disk).kernel(stack, OFFSET, "fl")
        recomputed = KernelStore().kernel(stack, OFFSET, "fl")
        assert from_disk == recomputed

    def test_batch_lookups_hit_disk(self, disk, stack):
        store = KernelStore(disk=disk)
        offsets = [(90e-9, 0.0), (0.0, 90e-9), (90e-9, 90e-9)]
        expected = store.kernel_batch(stack, offsets, "fixed")
        assert store.flush_disk() == 3
        fresh = KernelStore(disk=disk)
        got = fresh.kernel_batch(stack, offsets, "fixed")
        np.testing.assert_array_equal(got, expected)
        assert fresh.stats()["disk_hits"] == 3

    def test_merge_write_accumulates(self, disk, stack):
        _warm(disk, stack)
        second = KernelStore(disk=disk)
        second.kernel(stack, OFFSET, "fixed")  # new entry
        second.flush_disk()
        assert len(disk.load()) == 2

    def test_flush_without_disk_is_noop(self, stack):
        store = KernelStore()
        store.kernel(stack, OFFSET, "fl")
        assert store.flush_disk() == 0

    def test_autoflush_at_threshold(self, disk, stack, monkeypatch):
        monkeypatch.setattr(KernelStore, "FLUSH_THRESHOLD", 2)
        store = KernelStore(disk=disk)
        store.kernel(stack, OFFSET, "fl")
        assert store.stats()["disk_pending"] == 1
        store.kernel(stack, OFFSET, "fixed")
        assert store.stats()["disk_pending"] == 0
        assert len(disk.load()) == 2


class TestFaultInjection:
    """Every corruption falls back to recompute, visibly, silently."""

    def _assert_fallback(self, disk, stack, expected_value):
        store = KernelStore(disk=disk)
        assert store.kernel(stack, OFFSET, "fl") == expected_value
        stats = store.stats()
        assert stats["disk_fallbacks"] == 1
        assert stats["disk_hits"] == 0
        assert stats["misses"] == 1

    def test_truncated_payload(self, disk, stack):
        value = _warm(disk, stack)
        with open(disk.data_path, "r+b") as fh:
            fh.truncate(os.path.getsize(disk.data_path) // 2)
        self._assert_fallback(disk, stack, value)

    def test_truncated_header(self, disk, stack):
        value = _warm(disk, stack)
        with open(disk.data_path, "r+b") as fh:
            fh.truncate(10)
        self._assert_fallback(disk, stack, value)

    def test_wrong_schema_version_in_header(self, disk, stack):
        value = _warm(disk, stack)
        with open(disk.data_path, "r+b") as fh:
            fh.seek(8)  # the u32 schema field after the 8-byte magic
            fh.write((kernel_disk.SCHEMA_VERSION + 1).to_bytes(
                4, "little"))
        self._assert_fallback(disk, stack, value)

    def test_garbage_magic(self, disk, stack):
        value = _warm(disk, stack)
        with open(disk.data_path, "r+b") as fh:
            fh.write(b"GARBAGE!")
        self._assert_fallback(disk, stack, value)

    def test_flipped_payload_bit_fails_checksum(self, disk, stack):
        value = _warm(disk, stack)
        with open(disk.data_path, "r+b") as fh:
            fh.seek(-1, os.SEEK_END)
            last = fh.read(1)
            fh.seek(-1, os.SEEK_END)
            fh.write(bytes([last[0] ^ 0xFF]))
        self._assert_fallback(disk, stack, value)

    def test_schema_bump_invalidates_cold_not_corrupt(
            self, disk, stack, monkeypatch):
        """A version bump ignores old files: cold start, no fallback."""
        value = _warm(disk, stack)
        monkeypatch.setattr(kernel_disk, "SCHEMA_VERSION",
                            kernel_disk.SCHEMA_VERSION + 1)
        store = KernelStore(disk=DiskKernelCache(disk.directory))
        assert store.kernel(stack, OFFSET, "fl") == value
        stats = store.stats()
        assert stats["disk_fallbacks"] == 0
        assert stats["misses"] == 1

    def test_concurrent_writers_never_raise(self, disk):
        """Interleaved merge-writers leave a valid cache behind."""
        errors = []

        def write_many(base):
            try:
                for i in range(8):
                    disk.write({key_digest((base, i)): float(base + i)})
            except Exception as exc:  # pragma: no cover - the assertion
                errors.append(exc)

        threads = [threading.Thread(target=write_many, args=(100 * t,))
                   for t in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        # The single-file atomic replace means the cache is valid at
        # every instant, and the flock writer serialization means no
        # entry is ever lost where fcntl exists (all POSIX CI). Without
        # fcntl, last-replace-wins may drop entries but never values.
        info = disk.describe()
        assert info["valid"]
        loaded = disk.load()
        try:
            import fcntl  # noqa: F401  (probe for lock availability)
            locked = True
        except ImportError:  # pragma: no cover - non-POSIX
            locked = False
        for (base, i), value in [((100 * t, i), float(100 * t + i))
                                 for t in range(4) for i in range(8)]:
            got = loaded.get(key_digest((base, i)))
            if locked:
                assert got == value   # serialization: no lost updates
            else:  # pragma: no cover - non-POSIX
                assert got is None or got == value

    def test_unwritable_directory_counts_write_failure(self, stack):
        store = KernelStore(
            disk=DiskKernelCache("/proc/definitely-not-writable"))
        store.kernel(stack, OFFSET, "fl")
        assert store.flush_disk() == 0
        assert store.stats()["disk_write_failures"] >= 1

    def test_failed_load_retries_after_cooldown(self, disk, stack,
                                                monkeypatch):
        """An externally repaired cache comes back without restarting
        the process (the failure is latched only for a cooldown)."""
        value = _warm(disk, stack)
        with open(disk.data_path, "r+b") as fh:
            fh.write(b"GARBAGE!")
        store = KernelStore(disk=disk)
        assert store.kernel(stack, OFFSET, "fl") == value
        assert store.stats()["disk_fallbacks"] == 1
        # Repair externally, as `repro cache clear` + `warm` would,
        # seeding a key the latched store has not computed yet.
        disk.clear()
        repair = KernelStore(disk=disk)
        fixed_value = repair.kernel(stack, OFFSET, "fixed")
        repair.flush_disk()
        store.kernel(stack, (91e-9, 0.0), "fl")  # in cooldown: compute
        assert store.stats()["disk_hits"] == 0
        monkeypatch.setattr(KernelStore, "DISK_RETRY_SECONDS", 0.0)
        assert store.kernel(stack, OFFSET, "fixed") == fixed_value
        assert store.stats()["disk_hits"] == 1

    def test_clear_removes_all_versions(self, disk, stack):
        _warm(disk, stack)
        assert disk.clear() >= 1   # data file (+ writer lock file)
        assert not os.path.exists(disk.data_path)
        assert len(disk.load()) == 0

    def test_clear_sweeps_interrupted_writer_leftovers(self, disk,
                                                       stack):
        _warm(disk, stack)
        stray = os.path.join(disk.directory, "tmpabc123.bin.tmp")
        with open(stray, "wb") as fh:
            fh.write(b"partial")
        stray_new = os.path.join(disk.directory,
                                 ".tmp-0badf00d-kernels.v1.bin")
        with open(stray_new, "wb") as fh:
            fh.write(b"partial")
        disk.clear()
        assert not os.path.exists(stray)
        assert not os.path.exists(stray_new)
        # Only the writer-serialization lock file may remain.
        assert os.listdir(disk.directory) in ([], ["kernels.lock"])


class TestEnvOptIn:
    def test_env_var_attaches_and_detaches(self, global_store,
                                           monkeypatch, tmp_path):
        monkeypatch.setenv(KERNEL_CACHE_ENV, str(tmp_path / "kc"))
        store = get_kernel_store()
        assert store is global_store
        assert store.disk is not None
        assert store.disk.directory == str(tmp_path / "kc")
        monkeypatch.delenv(KERNEL_CACHE_ENV)
        assert get_kernel_store().disk is None

    def test_explicit_attach_wins_over_env(self, global_store,
                                           monkeypatch, tmp_path):
        global_store.attach_disk(DiskKernelCache(tmp_path / "mine"))
        monkeypatch.setenv(KERNEL_CACHE_ENV, str(tmp_path / "env"))
        assert get_kernel_store().disk.directory == str(tmp_path / "mine")

    def test_stats_without_disk_keep_base_shape(self, stack):
        store = KernelStore()
        store.kernel(stack, OFFSET, "fl")
        assert set(store.stats()) == {"entries", "hits", "misses"}


@pytest.mark.integration
class TestProcessBoundary:
    def _run_child(self, tmp_path, code):
        env = dict(os.environ)
        env[KERNEL_CACHE_ENV] = str(tmp_path / "kc")
        src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, timeout=300)
        assert out.returncode == 0, out.stderr
        return out.stdout

    def test_round_trip_across_subprocess(self, global_store,
                                          monkeypatch, tmp_path):
        code = (
            "from repro.arrays.kernel_store import get_kernel_store\n"
            "from repro.stack import build_reference_stack\n"
            "store = get_kernel_store()\n"
            "value = store.kernel(build_reference_stack(55e-9), "
            "(90e-9, 0.0), 'fl')\n"
            "store.flush_disk()\n"
            "print(repr(value))\n")
        child_value = float(self._run_child(tmp_path, code))
        monkeypatch.setenv(KERNEL_CACHE_ENV, str(tmp_path / "kc"))
        store = get_kernel_store()
        value = store.kernel(build_reference_stack(55e-9), OFFSET, "fl")
        assert value == child_value
        assert store.stats()["disk_hits"] == 1

    def test_cold_process_warms_a_fresh_process(self, tmp_path):
        """A cold process's seeded pitch sweep populates the disk cache;
        the same sweep in a fresh process is served by the disk tier."""
        sweep = (
            "import json\n"
            "from repro.arrays.kernel_store import get_kernel_store\n"
            "from repro.device import MTJDevice, PAPER_EVAL_DEVICE\n"
            "from repro.memsys import uber_sweep\n"
            "uber_sweep(MTJDevice(PAPER_EVAL_DEVICE),\n"
            "           pitch_ratios=(3.0, 2.0, 1.5),\n"
            "           patterns=('solid0',), rows=16, cols=16, seed=3)\n"
            "print(json.dumps(get_kernel_store().stats()))\n")
        cold = json.loads(self._run_child(tmp_path, sweep).splitlines()[-1])
        assert cold["misses"] > 0
        self._run_child(tmp_path, "from repro.cli import main\n"
                                  "raise SystemExit(main(['cache', 'info']))")

        stats = json.loads(self._run_child(tmp_path, sweep).splitlines()[-1])
        served = stats["hits"] + stats["disk_hits"]
        total = served + stats["misses"]
        assert stats["disk_hits"] > 0, "disk cache never hit"
        assert served / total >= 0.90, f"hit rate {served / total:.2f}"
        assert stats["disk_fallbacks"] == 0, stats

    def test_pool_workers_persist_their_kernels(self, global_store,
                                                monkeypatch, tmp_path):
        """Process-pool workers flush at pool shutdown (plain atexit
        never fires in multiprocessing children), so a parallel cold
        run must still warm the disk cache."""
        from repro.device import MTJDevice, PAPER_EVAL_DEVICE
        from repro.memsys import uber_sweep
        monkeypatch.setenv(KERNEL_CACHE_ENV, str(tmp_path / "kc"))
        device = MTJDevice(PAPER_EVAL_DEVICE)
        uber_sweep(device, pitch_ratios=(3.0, 1.5),
                   patterns=("solid0",), rows=16, cols=16, seed=3,
                   jobs=2)
        # 2 pitches x 4 symmetry-reduced kernels; a rare torn-window
        # race may drop one writer's view, never everything.
        persisted = DiskKernelCache(str(tmp_path / "kc"))
        assert len(persisted.load()) >= 4

    def test_memsys_sweep_second_run_hits_90_percent(
            self, global_store, monkeypatch, tmp_path):
        """Acceptance: rerunning a seeded pitch sweep from a cold
        process with the disk cache enabled is almost pure lookups."""
        from repro.device import MTJDevice, PAPER_EVAL_DEVICE
        from repro.memsys import uber_sweep

        monkeypatch.setenv(KERNEL_CACHE_ENV, str(tmp_path / "kc"))
        device = MTJDevice(PAPER_EVAL_DEVICE)
        kwargs = dict(pitch_ratios=(3.0, 2.0, 1.5),
                      patterns=("solid0",), rows=16, cols=16, seed=3)
        first = uber_sweep(device, **kwargs)

        # A fresh store in the same process stands in for a cold
        # process: empty memory, same disk, same env.
        fresh = KernelStore()
        monkeypatch.setattr(kernel_store, "_GLOBAL_STORE", fresh)
        second = uber_sweep(device, **kwargs)
        assert second.rows == first.rows

        stats = fresh.stats()
        lookups = (stats["hits"] + stats["disk_hits"]
                   + stats["misses"])
        hit_rate = (stats["hits"] + stats["disk_hits"]) / lookups
        assert hit_rate >= 0.90
        assert stats["misses"] == 0
