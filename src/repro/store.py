"""The one persistence primitive: frames, atomic writes, digests.

Everything this repo keeps across a process boundary — engine
checkpoints, spool chunk results, manifests and checkpoint sidecars,
service memo envelopes, the kernel cache — is written and verified
through this stdlib-only module.

Contract: **counted miss, never a wrong answer.** Every reader
verifies what it loads; a failed check raises
:class:`~repro.errors.IntegrityError`, which the caller turns into a
retry, a quarantine record, a clean restart, or a cache miss — never
into serving bytes it could not verify.

Frames (:func:`pack_record` / :func:`unpack_record`) hold one pickled
payload behind a ``<8sQ32s`` header: an 8-byte magic, the payload
length (u64, little-endian), and the payload's sha256. Two magics share
the layout: :data:`RECORD_MAGIC` (``RRECORD1``, spool chunk results)
and :data:`CHECKPOINT_MAGIC` (``RCHKPT01``, engine checkpoints). A
reader names the magic it expects, so one kind handed to the other's
reader is rejected, and files written before the codecs merged load.

Atomic writes (:func:`atomic_write`) go to ``.tmp-<uuid8>-<basename>``
in the target's directory and are renamed over the target, so a reader
sees the old file or the new one, never a torn one; the temp file is
unlinked on any failure. Keeping the basename lets fault plans that
match a substring (``.ckpt``) count the write; the leading dot keeps
it out of directory scans that skip dotfiles. All IO goes through a
:class:`FileSystem`, the seam the fault-injection harness replaces.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import struct
import uuid

from .errors import IntegrityError

#: Frame magic of spool chunk results.
RECORD_MAGIC = b"RRECORD1"

#: Frame magic of engine checkpoints.
CHECKPOINT_MAGIC = b"RCHKPT01"

#: Frame header: magic, payload length (u64), payload sha256.
_FRAME = struct.Struct("<8sQ32s")

#: Key carrying a sealed record's own digest (see :func:`seal_record`).
CHECK_FIELD = "check"

#: Service memo envelope schema version.
ENVELOPE_VERSION = 1


# ---------------------------------------------------------------------------
# filesystem seam + atomic write
# ---------------------------------------------------------------------------

class FileSystem:
    """The real filesystem: thin delegating wrappers around ``os``.

    :class:`~repro.resilience.faults.FaultyFileSystem` subclasses this
    and overrides individual operations to fail (or corrupt) on a
    seeded schedule; everything it does not override falls through to
    the real thing.
    """

    def makedirs(self, path):
        os.makedirs(path, exist_ok=True)

    def listdir(self, path):
        return os.listdir(path)

    def unlink(self, path):
        os.unlink(path)

    def replace(self, src, dst):
        """Atomic rename — the commit point of every durable write."""
        os.replace(src, dst)

    def read_bytes(self, path):
        with open(path, "rb") as handle:
            return handle.read()

    def write_bytes(self, path, data):
        with open(path, "wb") as handle:
            handle.write(data)


#: The real filesystem singleton.
REAL_FS = FileSystem()


def atomic_write(path, data, fs=REAL_FS):
    """Write ``data`` to ``path`` through a same-directory temp file.

    Calls ``fs.makedirs`` -> ``fs.write_bytes`` -> ``fs.replace``, in
    that order; on any exception the temp file is unlinked and the
    exception re-raised.
    """
    directory, name = os.path.split(path)
    directory = directory or "."
    tmp = os.path.join(directory, f".tmp-{uuid.uuid4().hex[:8]}-{name}")
    fs.makedirs(directory)
    try:
        fs.write_bytes(tmp, data)
        fs.replace(tmp, path)
    except BaseException:
        try:
            fs.unlink(tmp)
        except OSError:
            pass
        raise


# ---------------------------------------------------------------------------
# framed pickle blobs
# ---------------------------------------------------------------------------

def pack_record(payload, magic=RECORD_MAGIC):
    """Serialize ``payload`` into a self-verifying framed blob."""
    body = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    digest = hashlib.sha256(body).digest()
    return _FRAME.pack(magic, len(body), digest) + body


def unpack_record(blob, magic=RECORD_MAGIC):
    """Verify and deserialize a :func:`pack_record` blob.

    Raises :class:`IntegrityError` on truncation, a torn write, a
    flipped byte, a magic other than ``magic``, or a payload that does
    not unpickle.
    """
    if len(blob) < _FRAME.size:
        raise IntegrityError(
            f"record blob shorter than its header "
            f"({len(blob)} < {_FRAME.size} bytes)")
    found, length, digest = _FRAME.unpack_from(blob)
    if found != magic:
        raise IntegrityError(
            f"bad record magic {found!r} (expected {magic!r})")
    body = blob[_FRAME.size:]
    if len(body) != length:
        raise IntegrityError(
            f"record truncated: body length {len(body)} != header "
            f"length {length}")
    if hashlib.sha256(body).digest() != digest:
        raise IntegrityError("record sha256 checksum mismatch")
    try:
        return pickle.loads(body)
    except Exception as exc:
        raise IntegrityError(f"record payload undecodable: {exc!r}")


# ---------------------------------------------------------------------------
# digests
# ---------------------------------------------------------------------------

def repr_digest(obj):
    """First 16 bytes of sha256 over ``repr(obj)`` (UTF-8)."""
    return hashlib.sha256(repr(obj).encode("utf-8")).digest()[:16]


def canonical_scalar(value):
    """Collapse a scalar to its canonical JSON spelling.

    The *same* collapse rule ``query_fingerprint`` applies per field:
    ints and floats unify (``70`` == ``70.0``), bools stay bools
    (``True`` is not ``1.0``), numpy scalars drop to native Python.
    """
    if isinstance(value, bool):
        return value
    if isinstance(value, (int, float)):
        return float(value)
    item = getattr(value, "item", None)
    if item is not None and getattr(value, "shape", None) == ():
        return canonical_scalar(value.item())
    return value


def canonical(value):
    """Recursively canonicalize ``value`` for digesting.

    Dicts sort by (stringified) key, tuples become lists, scalars
    collapse via :func:`canonical_scalar`; anything not JSON-shaped
    falls back to its ``repr`` so digesting never raises.
    """
    if isinstance(value, dict):
        return {str(key): canonical(value[key])
                for key in sorted(value, key=str)}
    if isinstance(value, (list, tuple)):
        return [canonical(item) for item in value]
    tolist = getattr(value, "tolist", None)
    if tolist is not None:
        return canonical(tolist())
    scalar = canonical_scalar(value)
    if scalar is None or isinstance(scalar, (bool, float, str)):
        return scalar
    return repr(scalar)


def record_digest(obj):
    """128-bit hex digest of ``obj``'s canonical JSON form.

    Stable under dict reordering and int/float respelling. Same width
    (32 hex chars) as a query fingerprint.
    """
    payload = json.dumps(canonical(obj), sort_keys=True,
                         separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(payload).hexdigest()[:32]


def blob_digest(data):
    """Full sha256 hex digest of exact bytes."""
    return hashlib.sha256(data).hexdigest()


def pickle_digest(obj):
    """Byte-exact digest of ``obj``'s pickled form.

    This is the replay-audit invariant: recomputing a chunk from its
    recorded inputs must reproduce these exact bytes.
    """
    return blob_digest(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))


# ---------------------------------------------------------------------------
# sealed JSON records — manifests and checkpoint sidecars
# ---------------------------------------------------------------------------

def _load_json(data):
    try:
        return json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise IntegrityError(f"unparseable JSON: {exc}")


def seal_record(record):
    """Return a copy of ``record`` carrying its own content digest."""
    body = {key: record[key] for key in record if key != CHECK_FIELD}
    sealed = dict(body)
    sealed[CHECK_FIELD] = record_digest(body)
    return sealed


def verify_sealed(record):
    """True iff ``record``'s embedded digest matches its content."""
    if not isinstance(record, dict) or CHECK_FIELD not in record:
        return False
    body = {key: record[key] for key in record if key != CHECK_FIELD}
    return record[CHECK_FIELD] == record_digest(body)


def write_sealed(path, record):
    """Atomically write a sealed JSON record."""
    atomic_write(path, json.dumps(seal_record(record), sort_keys=True,
                                  indent=2).encode("utf-8"))


def load_sealed(path):
    """Load a sealed JSON record, raising :class:`IntegrityError` if
    it is unreadable, does not parse, or does not verify."""
    try:
        record = _load_json(REAL_FS.read_bytes(path))
    except (OSError, IntegrityError) as exc:
        raise IntegrityError(f"unreadable sealed record {path}: {exc}")
    if not verify_sealed(record):
        raise IntegrityError(f"sealed record failed verification: {path}")
    return record


# ---------------------------------------------------------------------------
# service memo envelopes
# ---------------------------------------------------------------------------

def pack_envelope(key, payload, stored_at, digest):
    """Serialize one memo entry: ``payload`` plus its fingerprint
    ``key``, store time, and ``digest`` (its :func:`record_digest`)."""
    envelope = {"v": ENVELOPE_VERSION, "fingerprint": key,
                "stored_at": stored_at, "sha256": digest,
                "payload": payload}
    return json.dumps(envelope, separators=(",", ":"),
                      sort_keys=True).encode("utf-8")


def open_envelope(data, key):
    """``(payload, stored_at, digest)`` of a verified envelope.

    Raises :class:`IntegrityError` unless ``data`` parses to a
    current-version envelope whose fingerprint is ``key``, whose
    payload is a dict matching its digest, and whose store time is a
    number.
    """
    envelope = _load_json(data)
    if (not isinstance(envelope, dict)
            or not isinstance(envelope.get("payload"), dict)):
        raise IntegrityError("malformed envelope")
    if envelope.get("v") != ENVELOPE_VERSION:
        raise IntegrityError(
            f"envelope version {envelope.get('v')!r} != "
            f"{ENVELOPE_VERSION}")
    if envelope.get("fingerprint") != key:
        raise IntegrityError(
            f"fingerprint {envelope.get('fingerprint')!r} does not "
            f"match {key!r}")
    payload = envelope["payload"]
    digest = envelope.get("sha256")
    if record_digest(payload) != digest:
        raise IntegrityError("payload digest mismatch")
    try:
        stored_at = float(envelope.get("stored_at"))
    except (TypeError, ValueError):
        raise IntegrityError(
            f"bad store time {envelope.get('stored_at')!r}")
    return payload, stored_at, digest
