"""Persistent on-disk backend for the kernel store.

The :class:`~repro.arrays.kernel_store.KernelStore` keys are *stable
content fingerprints* (geometry + effective moments + temperature +
offset + evaluation point), so entries survive the process that computed
them: a CI cold start or a fresh figure-runner invocation on a repeated
geometry can load yesterday's elliptic-integral work instead of redoing
it. This module is that persistence layer.

Format
------
One cache *directory* holds, per schema version, a single
self-describing file::

    kernels.v<SCHEMA>.bin

    bytes  0-7   magic  b"RKRNCACH"
    bytes  8-11  schema version   (uint32, little-endian)
    bytes 12-19  entry count      (uint64, little-endian)
    bytes 20-23  payload CRC-32   (uint32, little-endian)
    bytes 24-    entry records    (count x 24 bytes)

Each record is a 128-bit SHA-256 prefix of the key stored as two
little-endian ``uint64`` words plus the float64 Hz kernel (``S``-typed
numpy columns are avoided on purpose — they silently strip trailing NUL
bytes). The record region is memory-mapped on load; the header carries
the schema version and a CRC-32 of the payload so truncation and
partial writes are *detected* rather than trusted.

Robustness rules, in order:

* **Schema bumps invalidate.** The version is part of the file name, so
  bumping :data:`SCHEMA_VERSION` simply stops old files from being
  read; a tampered header whose ``schema`` disagrees is corruption.
* **Writes are atomic.** Header and payload live in ONE file, written
  with :func:`repro.store.atomic_write` (temp file + rename; see that
  module for the naming rule) — a reader interleaving with any number
  of writers sees some complete previous state, never a torn one.
* **Corruption is a fallback, not an error.** Every load failure raises
  :class:`KernelCacheError`; the store catches it, counts it in
  ``stats()``, and recomputes. A lost cache costs time, never
  correctness.
* **Concurrent writers serialize.** Writers take an advisory
  ``flock`` on a lock file in the cache directory around their
  read-merge-replace, so N pool workers flushing at pool shutdown all
  land their entries (no lost updates). On platforms without
  ``fcntl`` the lock degrades to lock-free last-writer-wins merging —
  losing at most the race window's entries, with the file valid
  throughout either way. Readers never lock.
"""

from __future__ import annotations

import contextlib
import os
import struct
import zlib

import numpy as np

from ..store import atomic_write, repr_digest

#: Version of the on-disk layout; bump to invalidate every existing file.
SCHEMA_VERSION = 1

#: Environment variable holding the cache directory (opt-in switch).
KERNEL_CACHE_ENV = "REPRO_KERNEL_CACHE"

#: File-format sanity marker.
_MAGIC = b"RKRNCACH"

#: Header layout: magic, schema (u32), count (u64), payload crc (u32).
_HEADER = struct.Struct("<8sIQI")

#: On-disk record: 128-bit key digest (two u64 words) + float64 kernel.
_DTYPE = np.dtype([("d0", "<u8"), ("d1", "<u8"), ("value", "<f8")])

_CRC_CHUNK = 1 << 20


class KernelCacheError(Exception):
    """A cache file could not be trusted (bad magic/schema, size or
    checksum mismatch, undecodable payload). Always recoverable: the
    store falls back to recomputing."""


def key_digest(key):
    """128-bit digest of one kernel-store key as a ``(u64, u64)`` pair:
    :func:`repro.store.repr_digest` read as two little-endian words.

    The key is a nested tuple of floats, ints, and strings whose
    ``repr`` is deterministic across processes (Python reprs floats in
    shortest round-trip form), so equal keys hash equally everywhere.
    """
    raw = repr_digest(key)
    return (int.from_bytes(raw[:8], "little"),
            int.from_bytes(raw[8:16], "little"))


@contextlib.contextmanager
def _write_lock(directory):
    """Advisory inter-process lock serializing cache writers.

    Best-effort: platforms without ``fcntl`` (or unlockable
    filesystems) fall back to the lock-free merge, which stays valid
    but can lose a racing writer's entries.
    """
    try:
        import fcntl
    except ImportError:  # pragma: no cover - non-POSIX fallback
        yield
        return
    path = os.path.join(directory, "kernels.lock")
    try:
        fh = open(path, "w")
    except OSError:  # pragma: no cover - unwritable dir: write() raises
        yield
        return
    with fh:
        try:
            fcntl.flock(fh, fcntl.LOCK_EX)
        except OSError:  # pragma: no cover - e.g. NFS without locking
            yield
            return
        try:
            yield
        finally:
            fcntl.flock(fh, fcntl.LOCK_UN)


def _crc32_stream(fh, size):
    crc = 0
    remaining = size
    while remaining > 0:
        chunk = fh.read(min(_CRC_CHUNK, remaining))
        if not chunk:
            break
        remaining -= len(chunk)
        crc = zlib.crc32(chunk, crc)
    if remaining != 0:
        raise KernelCacheError("payload shorter than header claims")
    return crc & 0xFFFFFFFF


class LoadedKernelCache:
    """One consistent snapshot of the on-disk cache.

    Holds the digest -> row index and the memory-mapped value column;
    entries are only materialized when :meth:`get` touches them.
    """

    def __init__(self, index, values):
        self._index = index
        self._values = values

    def __len__(self):
        return len(self._index)

    def get(self, digest):
        """Kernel value for a :func:`key_digest` pair, or None."""
        row = self._index.get(digest)
        if row is None:
            return None
        return float(self._values[row])

    def items(self):
        """``{digest: value}`` of every entry (materializes values)."""
        return {digest: float(self._values[row])
                for digest, row in self._index.items()}


_EMPTY = LoadedKernelCache({}, np.empty(0))


class DiskKernelCache:
    """A kernel cache directory: load, merge-write, clear, describe.

    Stateless between calls — every :meth:`load` re-reads and
    re-validates the file, so a store can retry after an external
    writer repaired or replaced the cache.
    """

    def __init__(self, directory):
        self.directory = str(directory)

    @property
    def data_path(self):
        """Path of the versioned cache file."""
        return os.path.join(self.directory,
                            f"kernels.v{SCHEMA_VERSION}.bin")

    # -- read ---------------------------------------------------------------

    def load(self):
        """Validate and memory-map the cache; returns a snapshot.

        A missing cache file loads as empty — that is a cold start, not
        corruption. Anything inconsistent raises
        :class:`KernelCacheError`.

        Every read (header, size, checksum, memory map) goes through
        ONE open file descriptor: a concurrent writer's ``os.replace``
        only unlinks the *name*, so the descriptor keeps reading the
        same complete previous state — a healthy cache can never look
        torn to a reader that raced a replace.
        """
        path = self.data_path
        try:
            fh = open(path, "rb")
        except FileNotFoundError:
            return _EMPTY
        except OSError as exc:
            raise KernelCacheError(f"unreadable cache: {exc}") from exc
        with fh:
            header = fh.read(_HEADER.size)
            if len(header) != _HEADER.size:
                raise KernelCacheError(
                    "cache file shorter than its header")
            magic, schema, count, crc = _HEADER.unpack(header)
            if magic != _MAGIC:
                raise KernelCacheError(
                    "file is not a kernel-cache record")
            if schema != SCHEMA_VERSION:
                raise KernelCacheError(
                    f"schema {schema} != {SCHEMA_VERSION}")
            payload_size = count * _DTYPE.itemsize
            try:
                actual = os.fstat(fh.fileno()).st_size
            except OSError as exc:
                raise KernelCacheError(
                    f"unreadable cache: {exc}") from exc
            if actual != _HEADER.size + payload_size:
                raise KernelCacheError(
                    f"file holds {actual} bytes, header implies "
                    f"{_HEADER.size + payload_size}")
            try:
                actual_crc = _crc32_stream(fh, payload_size)
            except OSError as exc:
                raise KernelCacheError(
                    f"unreadable cache: {exc}") from exc
            if actual_crc != crc:
                raise KernelCacheError(
                    f"payload checksum {actual_crc} != recorded {crc}")
            if count == 0:
                return _EMPTY
            try:
                arr = np.memmap(fh, dtype=_DTYPE, mode="r",
                                offset=_HEADER.size,
                                shape=(int(count),))
            except (OSError, ValueError) as exc:
                raise KernelCacheError(
                    f"undecodable payload: {exc}") from exc
        index = {pair: row for row, pair in enumerate(
            zip(arr["d0"].tolist(), arr["d1"].tolist()))}
        values = arr["value"]
        if os.name == "nt":  # pragma: no cover - Windows only
            # A live mapping blocks os.replace on Windows, which would
            # permanently stop the cache from growing; copy instead.
            values = np.array(values)
        return LoadedKernelCache(index, values)

    # -- write --------------------------------------------------------------

    def write(self, entries):
        """Merge ``{digest: value}`` into the cache atomically.

        Existing on-disk entries are folded in first (a corrupt file is
        discarded rather than merged); header and payload are written
        in one :func:`~repro.store.atomic_write`, so readers always see
        a complete state. Writers serialize on an advisory lock so
        simultaneous flushes (e.g. pool workers at pool shutdown) all
        land their entries. Returns the total entry count on disk.
        """
        os.makedirs(self.directory, exist_ok=True)
        with _write_lock(self.directory):
            try:
                merged = self.load().items()
            except KernelCacheError:
                merged = {}
            merged.update(entries)

            arr = np.empty(len(merged), dtype=_DTYPE)
            for row, (digest, value) in enumerate(
                    sorted(merged.items())):
                arr[row] = (digest[0], digest[1], value)
            payload = arr.tobytes()
            header = _HEADER.pack(_MAGIC, SCHEMA_VERSION, len(merged),
                                  zlib.crc32(payload) & 0xFFFFFFFF)

            atomic_write(self.data_path, header + payload)
        return len(merged)

    # -- maintenance --------------------------------------------------------

    def clear(self):
        """Remove every cache file of *any* schema version.

        Returns the number of files removed. Stray temporary files from
        interrupted writers (``.tmp-*`` names, and the ``*.bin.tmp``
        names older writers used) are swept too. ``kernels.lock`` is
        deliberately left alone: unlinking it while a writer holds (or
        waits on) its inode would let two writers lock *different*
        inodes and merge concurrently, breaking the no-lost-updates
        guarantee.
        """
        removed = 0
        if not os.path.isdir(self.directory):
            return removed
        for name in os.listdir(self.directory):
            if ((name.startswith("kernels.v") and name.endswith(".bin"))
                    or name.startswith(".tmp-")
                    or name.endswith(".bin.tmp")):
                try:
                    os.unlink(os.path.join(self.directory, name))
                    removed += 1
                except OSError:
                    pass
        return removed

    def describe(self):
        """Inspection dict for ``repro cache info`` and tests."""
        info = {
            "directory": self.directory,
            "schema": SCHEMA_VERSION,
            "data_path": self.data_path,
            "exists": os.path.exists(self.data_path),
            "size_bytes": (os.path.getsize(self.data_path)
                           if os.path.exists(self.data_path) else 0),
        }
        try:
            info["entries"] = len(self.load())
            info["valid"] = True
        except KernelCacheError as exc:
            info["entries"] = 0
            info["valid"] = False
            info["error"] = str(exc)
        return info
