"""Memoized-results cache: LRU bounds, disk tier, corruption."""

import json
import os

import numpy as np
import pytest

from repro.errors import ParameterError
from repro.service.results_cache import RESULTS_SUBDIR, ResultsCache

KEY_A = "a" * 32
KEY_B = "b" * 32
KEY_C = "c" * 32


class TestMemoryTier:
    def test_miss_then_hit(self):
        cache = ResultsCache(capacity=4, directory=False)
        assert cache.get(KEY_A) is None
        cache.put(KEY_A, {"uber": 1e-9})
        assert cache.get(KEY_A) == {"uber": 1e-9}
        stats = cache.stats()
        assert stats["hits"] == 1
        assert stats["misses"] == 1

    def test_lru_evicts_oldest(self):
        cache = ResultsCache(capacity=2, directory=False)
        cache.put(KEY_A, {"v": 1})
        cache.put(KEY_B, {"v": 2})
        cache.get(KEY_A)              # A is now most recent
        cache.put(KEY_C, {"v": 3})    # evicts B
        assert cache.get(KEY_B) is None
        assert cache.get(KEY_A) == {"v": 1}
        assert cache.get(KEY_C) == {"v": 3}
        assert cache.stats()["memory_entries"] == 2

    def test_rejects_bad_keys(self):
        cache = ResultsCache(capacity=2, directory=False)
        for bad in ("short", "Z" * 32, 123, None):
            with pytest.raises(ParameterError):
                cache.get(bad)

    def test_rejects_non_dict_payloads(self):
        cache = ResultsCache(capacity=2, directory=False)
        with pytest.raises(ParameterError):
            cache.put(KEY_A, [1, 2, 3])

    def test_rejects_bad_capacity(self):
        with pytest.raises(ParameterError):
            ResultsCache(capacity=0)

    def test_clear_drops_memory(self):
        cache = ResultsCache(capacity=2, directory=False)
        cache.put(KEY_A, {"v": 1})
        cache.clear()
        assert cache.get(KEY_A) is None


class TestDiskTier:
    def test_survives_restart(self, tmp_path):
        first = ResultsCache(capacity=4, directory=str(tmp_path))
        first.put(KEY_A, {"uber": 2e-9})
        second = ResultsCache(capacity=4, directory=str(tmp_path))
        assert second.get(KEY_A) == {"uber": 2e-9}
        stats = second.stats()
        assert stats["disk_hits"] == 1
        assert stats["hits"] == 1

    def test_disk_hit_promotes_to_memory(self, tmp_path):
        ResultsCache(capacity=4, directory=str(tmp_path)).put(
            KEY_A, {"v": 1})
        cache = ResultsCache(capacity=4, directory=str(tmp_path))
        cache.get(KEY_A)
        os.unlink(tmp_path / f"{KEY_A}.json")
        assert cache.get(KEY_A) == {"v": 1}   # memory now serves it

    def test_eviction_keeps_disk_copy(self, tmp_path):
        cache = ResultsCache(capacity=1, directory=str(tmp_path))
        cache.put(KEY_A, {"v": 1})
        cache.put(KEY_B, {"v": 2})            # evicts A from memory
        assert cache.get(KEY_A) == {"v": 1}   # disk still has it
        assert cache.stats()["disk_hits"] == 1

    def test_corrupt_file_is_a_miss_and_removed(self, tmp_path):
        cache = ResultsCache(capacity=4, directory=str(tmp_path))
        path = tmp_path / f"{KEY_A}.json"
        path.write_text("{ not json")
        assert cache.get(KEY_A) is None
        assert not path.exists()
        assert cache.stats()["disk_corrupt"] == 1

    def test_non_dict_disk_payload_counts_as_corrupt(self, tmp_path):
        cache = ResultsCache(capacity=4, directory=str(tmp_path))
        (tmp_path / f"{KEY_A}.json").write_text("[1, 2, 3]")
        assert cache.get(KEY_A) is None
        assert cache.stats()["disk_corrupt"] == 1

    def test_unwritable_directory_is_not_fatal(self, tmp_path):
        blocked = tmp_path / "file-not-dir"
        blocked.write_text("x")
        cache = ResultsCache(capacity=4,
                             directory=str(blocked / "sub"))
        cache.put(KEY_A, {"v": 1})            # swallowed
        assert cache.get(KEY_A) == {"v": 1}   # memory tier serves
        assert cache.stats()["disk_write_failures"] == 1

    def test_entries_counted(self, tmp_path):
        cache = ResultsCache(capacity=4, directory=str(tmp_path))
        cache.put(KEY_A, {"v": 1})
        cache.put(KEY_B, {"v": 2})
        assert cache.stats()["disk_entries"] == 2

    @pytest.mark.parametrize("failure", ["unserializable", "oserror"])
    def test_failed_write_leaves_no_tmp_files(self, tmp_path,
                                              monkeypatch, failure):
        """A disk write that fails mid-way is counted and leaves no
        temp file behind: nothing would ever sweep one."""
        cache = ResultsCache(capacity=4, directory=str(tmp_path))
        payload = {"v": 1}
        if failure == "unserializable":
            payload = {"n": np.int64(3)}
        else:
            def eio(src, dst):
                raise OSError("injected EIO on replace")
            monkeypatch.setattr(os, "replace", eio)
        cache.put(KEY_A, payload)
        assert cache.stats()["disk_write_failures"] == 1
        assert os.listdir(str(tmp_path)) == []
        assert cache.get(KEY_A) == payload    # memory tier serves

    def test_atomic_writes_leave_no_tmp_files(self, tmp_path):
        cache = ResultsCache(capacity=4, directory=str(tmp_path))
        cache.put(KEY_A, {"v": 1})
        assert [p.name for p in tmp_path.iterdir()] == [
            f"{KEY_A}.json"]
        envelope = json.loads((tmp_path / f"{KEY_A}.json").read_text())
        assert envelope["v"] == 1
        assert envelope["fingerprint"] == KEY_A
        assert envelope["payload"] == {"v": 1}
        assert isinstance(envelope["stored_at"], float)
        assert isinstance(envelope["sha256"], str)


class _FakeClock:
    def __init__(self, now=1000.0):
        self.now = now

    def time(self):
        return self.now


class TestTtlAndStale:
    def test_fresh_entry_within_ttl_hits(self):
        clock = _FakeClock()
        cache = ResultsCache(capacity=4, directory=False, clock=clock)
        cache.put(KEY_A, {"v": 1})
        clock.now += 5.0
        assert cache.get(KEY_A, max_age=10.0) == {"v": 1}

    def test_expired_entry_is_counted_miss_but_retained(self):
        clock = _FakeClock()
        cache = ResultsCache(capacity=4, directory=False, clock=clock)
        cache.put(KEY_A, {"v": 1})
        clock.now += 100.0
        assert cache.get(KEY_A, max_age=10.0) is None
        stats = cache.stats()
        assert stats["expired"] == 1 and stats["misses"] == 1
        # The entry survives for degraded serving.
        assert cache.get_stale(KEY_A, 500.0) == ({"v": 1}, 100.0)
        # And without a TTL it still reads normally.
        assert cache.get(KEY_A) == {"v": 1}

    def test_stale_respects_its_own_ttl(self):
        clock = _FakeClock()
        cache = ResultsCache(capacity=4, directory=False, clock=clock)
        cache.put(KEY_A, {"v": 1})
        clock.now += 1000.0
        assert cache.get_stale(KEY_A, 500.0) is None
        assert cache.stats()["stale_hits"] == 0

    def test_stale_requires_positive_ttl(self):
        cache = ResultsCache(capacity=4, directory=False)
        with pytest.raises(ParameterError):
            cache.get_stale(KEY_A, 0)

    def test_stale_reverifies_digest(self):
        """A memory entry whose payload no longer matches its digest
        is dropped, not served — a degraded answer must still be a
        correct stale answer."""
        clock = _FakeClock()
        cache = ResultsCache(capacity=4, directory=False, clock=clock)
        cache.put(KEY_A, {"v": 1})
        payload, stored_at, digest = cache._memory[KEY_A]
        payload["v"] = 2  # in-place tamper behind the digest's back
        assert cache.get_stale(KEY_A, 500.0) is None
        assert cache.stats()["stale_rejects"] == 1
        assert KEY_A not in cache._memory

    def test_promotion_does_not_rejuvenate(self, tmp_path):
        """A disk entry promoted into memory keeps its original store
        time — a restart must not reset every TTL."""
        clock = _FakeClock()
        cache = ResultsCache(capacity=4, directory=str(tmp_path),
                             clock=clock)
        cache.put(KEY_A, {"v": 1})
        clock.now += 100.0
        fresh = ResultsCache(capacity=4, directory=str(tmp_path),
                             clock=clock)
        assert fresh.get(KEY_A, max_age=10.0) is None
        assert fresh.get_stale(KEY_A, 500.0) == ({"v": 1}, 100.0)

    def test_rejects_bad_clock(self):
        with pytest.raises(ParameterError):
            ResultsCache(clock=42)


class TestEnvironmentDerivation:
    def test_follows_kernel_cache_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL_CACHE", str(tmp_path))
        cache = ResultsCache(capacity=4)
        assert cache.directory == str(tmp_path / RESULTS_SUBDIR)
        cache.put(KEY_A, {"v": 1})
        assert (tmp_path / RESULTS_SUBDIR / f"{KEY_A}.json").exists()

    def test_memory_only_without_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_KERNEL_CACHE", raising=False)
        cache = ResultsCache(capacity=4)
        assert cache.directory is None
        assert cache.stats()["disk_entries"] is None

    def test_explicit_false_disables_disk(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL_CACHE", str(tmp_path))
        cache = ResultsCache(capacity=4, directory=False)
        cache.put(KEY_A, {"v": 1})
        assert not (tmp_path / RESULTS_SUBDIR).exists()
