"""Crash-consistency scanner for the distributed sweep spool.

A spool that hosted crashes, kills, and injected faults accumulates
debris the normal protocol never cleans up: claims whose worker died
*after* committing, torn or truncated result files from interrupted
writes, jobs re-queued after their result already landed, temp files
orphaned mid-rename, and quarantine records superseded by a later
successful commit. None of this debris can corrupt an answer — every
reader verifies frames and digests — but it wastes retries, pins disk,
and obscures what actually happened.

:func:`fsck_spool` walks a spool and names each problem as a
:class:`Finding`; with ``repair=True`` it also applies the (always
conservative, always deletion-of-provably-redundant-state) fix.
:func:`list_quarantine` renders the poison ledger without ever
unpickling anything — legacy pickle records are listed by size only.

Spool-protocol constants import lazily inside functions: the sweep
module imports this package's manifest layer, so eager imports here
would cycle.
"""

from __future__ import annotations

import json
import os

from ..errors import IntegrityError
from ..store import unpack_record

__all__ = ["Finding", "fsck_spool", "list_quarantine"]


class Finding:
    """One problem fsck identified (and possibly repaired)."""

    __slots__ = ("kind", "path", "detail", "repaired")

    def __init__(self, kind, path, detail="", repaired=False):
        self.kind = str(kind)
        self.path = str(path)
        self.detail = str(detail)
        self.repaired = bool(repaired)

    def to_record(self):
        return {"kind": self.kind, "path": self.path,
                "detail": self.detail, "repaired": self.repaired}

    def __repr__(self):  # pragma: no cover - debugging aid
        flag = " repaired" if self.repaired else ""
        return f"Finding({self.kind!r}, {self.path!r}{flag})"


def _try_unlink(path, repair):
    if not repair:
        return False
    try:
        os.unlink(path)
        return True
    except OSError:
        return False


def _listdir(path):
    try:
        return sorted(os.listdir(path))
    except OSError:
        return []


def _verified_chunks(results_dir):
    """Chunk ordinals whose committed result passes frame
    verification, plus the torn file names that do not."""
    good, torn = set(), []
    for name in _listdir(results_dir):
        if name.startswith(".") or not name.endswith(".pkl"):
            continue
        path = os.path.join(results_dir, name)
        try:
            with open(path, "rb") as fh:
                unpack_record(fh.read())
        except OSError:
            continue
        except IntegrityError as exc:
            torn.append((name, str(exc)))
            continue
        try:
            good.add(int(name[len("chunk-"):-len(".pkl")]))
        except ValueError:
            torn.append((name, "unparseable chunk name"))
    return good, torn


def _scan_run(run_path, repair, findings):
    """Findings for one ``run-*`` directory; returns its verified
    chunk set for the quarantine cross-check."""
    from ..sweep.distributed import _CLAIM_SEP, _JOB_SUFFIX

    results_dir = os.path.join(run_path, "results")
    queue_dir = os.path.join(run_path, "queue")
    claimed_dir = os.path.join(run_path, "claimed")
    done = os.path.exists(os.path.join(run_path, "DONE"))

    good, torn = _verified_chunks(results_dir)
    for name, why in torn:
        path = os.path.join(results_dir, name)
        repaired = _try_unlink(path, repair)
        findings.append(Finding(
            "torn-result", path,
            f"{why}; removing re-arms the retry path", repaired))

    # Temp files orphaned mid-rename by a crash inside atomic_write.
    for sub in ("", "queue", "claimed", "results"):
        directory = os.path.join(run_path, sub) if sub else run_path
        for name in _listdir(directory):
            if not name.startswith(".tmp-"):
                continue
            path = os.path.join(directory, name)
            repaired = _try_unlink(path, repair)
            findings.append(Finding(
                "stray-temp", path,
                "orphaned atomic-write temp file", repaired))

    # A queued job whose chunk already has a verified commit would be
    # executed (and committed) a second time for nothing.
    for name in _listdir(queue_dir):
        if name.startswith(".") or not name.endswith(_JOB_SUFFIX):
            continue
        try:
            chunk = int(name[len("chunk-"):-len(_JOB_SUFFIX)])
        except ValueError:
            continue
        if chunk in good:
            path = os.path.join(queue_dir, name)
            repaired = _try_unlink(path, repair)
            findings.append(Finding(
                "duplicate-commit", path,
                f"chunk {chunk} already has a verified result",
                repaired))

    # A claim is orphaned when its work is provably over: the chunk
    # has a verified commit, or the whole run is marked DONE.
    for name in _listdir(claimed_dir):
        if name.startswith(".") or _CLAIM_SEP not in name:
            continue
        job = name.split(_CLAIM_SEP, 1)[0]
        try:
            chunk = int(job[len("chunk-"):-len(_JOB_SUFFIX)])
        except ValueError:
            continue
        if chunk in good or done:
            why = (f"chunk {chunk} already has a verified result"
                   if chunk in good else "run is marked DONE")
            path = os.path.join(claimed_dir, name)
            repaired = _try_unlink(path, repair)
            findings.append(Finding("orphaned-claim", path, why,
                                    repaired))
    return good


def fsck_spool(spool, repair=False):
    """Scan ``spool`` for crash debris; optionally repair it.

    Returns the list of :class:`Finding` records. Every repair is a
    deletion of provably redundant state — fsck never rewrites or
    fabricates results.
    """
    from ..sweep.distributed import QUARANTINE_DIR, _RUN_PREFIX

    findings = []
    spool = str(spool)
    committed = set()
    for name in _listdir(spool):
        if not name.startswith(_RUN_PREFIX):
            continue
        run_path = os.path.join(spool, name)
        if not os.path.isdir(run_path):
            continue
        committed |= _scan_run(run_path, repair, findings)

    quarantine_dir = os.path.join(spool, QUARANTINE_DIR)
    for name in _listdir(quarantine_dir):
        if not name.endswith(".json"):
            continue
        path = os.path.join(quarantine_dir, name)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                record = json.load(fh)
            chunk = int(record["chunk"])
        except (OSError, json.JSONDecodeError, UnicodeDecodeError,
                KeyError, TypeError, ValueError):
            repaired = _try_unlink(path, repair)
            findings.append(Finding(
                "stray-quarantine", path,
                "unparseable quarantine record", repaired))
            continue
        if chunk in committed:
            repaired = _try_unlink(path, repair)
            findings.append(Finding(
                "stray-quarantine", path,
                f"chunk {chunk} has a verified result in a live run; "
                f"the quarantine record is superseded", repaired))
    return findings


def list_quarantine(spool):
    """Metadata of every quarantine record under ``spool``.

    JSON records surface their chunk/error/attempt fields; legacy
    pickle records (pre-integrity spools) are listed by name and size
    only — this function never unpickles anything, so a poisoned
    record cannot execute code at listing time.
    """
    from ..sweep.distributed import QUARANTINE_DIR

    quarantine_dir = os.path.join(str(spool), QUARANTINE_DIR)
    records = []
    for name in _listdir(quarantine_dir):
        path = os.path.join(quarantine_dir, name)
        try:
            size = os.path.getsize(path)
        except OSError:
            continue
        if name.endswith(".json"):
            try:
                with open(path, "r", encoding="utf-8") as fh:
                    record = json.load(fh)
            except (OSError, json.JSONDecodeError,
                    UnicodeDecodeError):
                records.append({"name": name, "bytes": size,
                                "unreadable": True})
                continue
            if not isinstance(record, dict):
                records.append({"name": name, "bytes": size,
                                "unreadable": True})
                continue
            records.append({
                "name": name,
                "bytes": size,
                "chunk": record.get("chunk"),
                "error": record.get("error"),
                "error_type": record.get("error_type"),
                "attempts": record.get("attempts"),
                "workers": record.get("workers"),
            })
        elif name.endswith(".pkl"):
            records.append({"name": name, "bytes": size,
                            "legacy": True})
    return records
