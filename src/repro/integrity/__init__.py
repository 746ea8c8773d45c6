"""Run-integrity layer: manifests, replay audit, and spool fsck.

PR 9's resilience layer made runs *survive* faults; this package makes
them *provable* — every persisted artifact carries a digest, every run
can emit a manifest of what it computed, and two operator commands
(``repro audit``, ``repro spool fsck``) verify and repair after the
fact. The digests, frames, and sealed documents are defined in
:mod:`repro.store` and re-exported here.
"""

from ..store import (
    blob_digest,
    canonical,
    canonical_scalar,
    load_sealed,
    pack_record,
    pickle_digest,
    record_digest,
    seal_record,
    unpack_record,
    verify_sealed,
    write_sealed,
)
from .audit import (
    AuditCheck,
    AuditReport,
    audit_cache_dir,
    audit_checkpoint_dir,
    audit_spool_run,
    cross_backend_canary,
)
from .fsck import Finding, fsck_spool, list_quarantine
from .manifest import (
    MANIFEST_NAME,
    MANIFEST_VERSION,
    RunManifest,
    identity_diff,
)

__all__ = [
    "AuditCheck",
    "AuditReport",
    "Finding",
    "MANIFEST_NAME",
    "MANIFEST_VERSION",
    "RunManifest",
    "audit_cache_dir",
    "audit_checkpoint_dir",
    "audit_spool_run",
    "blob_digest",
    "canonical",
    "canonical_scalar",
    "cross_backend_canary",
    "fsck_spool",
    "identity_diff",
    "list_quarantine",
    "load_sealed",
    "pack_record",
    "pickle_digest",
    "record_digest",
    "seal_record",
    "unpack_record",
    "verify_sealed",
    "write_sealed",
]
