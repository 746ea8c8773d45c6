"""Run manifests: which run produced a set of artifacts, and their digests.

Every *run* can emit a :class:`RunManifest` recording its identity plus
per-chunk/per-batch result digests, sealed with
:func:`~repro.store.write_sealed`. The digests, frames, and the
"counted miss, never a wrong answer" contract they serve are defined
once, in :mod:`repro.store`.
"""

from __future__ import annotations

from ..errors import IntegrityError
from ..store import canonical, load_sealed, record_digest, write_sealed

__all__ = [
    "MANIFEST_NAME",
    "MANIFEST_VERSION",
    "RunManifest",
    "identity_diff",
]

#: File name of a run manifest, written next to the artifacts it covers.
MANIFEST_NAME = "manifest.json"

#: Bumped when the manifest schema changes shape incompatibly.
MANIFEST_VERSION = 1


# ---------------------------------------------------------------------------
# run manifests
# ---------------------------------------------------------------------------

class RunManifest:
    """Identity plus per-entry digests for one run.

    ``identity`` answers *which run produced these artifacts* (seed,
    stack fingerprint, backend, topology, protocol version — whatever
    the emitting layer knows); ``entries`` maps artifact names
    (``chunk-000003``, ``batch-0012``) to digest records. The manifest
    file is itself sealed, so a tampered manifest is as detectable as
    a tampered artifact.
    """

    def __init__(self, kind, identity=None, entries=None):
        self.kind = str(kind)
        self.identity = dict(identity or {})
        self.entries = dict(entries or {})

    def add_entry(self, name, **fields):
        self.entries[str(name)] = dict(fields)

    def entry(self, name):
        return self.entries.get(str(name))

    @property
    def fingerprint(self):
        """Digest of the run identity alone — the run's short name."""
        return record_digest({"kind": self.kind, "identity": self.identity})

    def to_record(self):
        return {
            "manifest_version": MANIFEST_VERSION,
            "kind": self.kind,
            "identity": dict(self.identity),
            "entries": {name: dict(fields)
                        for name, fields in self.entries.items()},
        }

    def write(self, path):
        write_sealed(path, self.to_record())
        return path

    @classmethod
    def load(cls, path):
        record = load_sealed(path)
        version = record.get("manifest_version")
        if version != MANIFEST_VERSION:
            raise IntegrityError(
                f"unsupported manifest version {version!r} in {path}")
        identity = record.get("identity")
        entries = record.get("entries")
        if not isinstance(identity, dict) or not isinstance(entries, dict):
            raise IntegrityError(f"malformed manifest {path}")
        return cls(record.get("kind", "unknown"), identity, entries)


def identity_diff(current, stored):
    """Human-readable list of fields on which two identities differ.

    Powers the :class:`~repro.errors.RunIdentityError` message: the
    operator sees *which* of seed/backend/topology/shape moved, not
    just "key mismatch".
    """
    if not isinstance(stored, dict) or not stored:
        return ["stored run predates identity records (no fields to compare)"]
    lines = []
    for name in sorted(set(current) | set(stored), key=str):
        mine = canonical(current.get(name, "<absent>"))
        theirs = canonical(stored.get(name, "<absent>"))
        if mine != theirs:
            lines.append(f"{name}: run={mine!r} != stored={theirs!r}")
    if not lines:
        lines.append("identities compare equal field-by-field "
                     "(key derivation changed?)")
    return lines
