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
"""

from __future__ import annotations

import json
import os

from ..errors import IntegrityError
from ..store import unpack_record
from ..sweep.distributed import SpoolRun

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


def _verified_chunks(run):
    """Chunk ordinals whose committed result passes frame
    verification, plus the ``(path, why)`` of torn result files."""
    good, torn = set(), []
    for chunk, path in run.results():
        if chunk is None:
            torn.append((path, "unparseable chunk name"))
            continue
        try:
            with open(path, "rb") as fh:
                unpack_record(fh.read())
        except OSError:
            continue
        except IntegrityError as exc:
            torn.append((path, str(exc)))
            continue
        good.add(chunk)
    return good, torn


def _scan_run(run, repair, findings):
    """Findings for one ``run-*`` directory; returns its verified
    chunk set for the quarantine cross-check."""
    good, torn = _verified_chunks(run)
    for path, why in torn:
        repaired = _try_unlink(path, repair)
        findings.append(Finding(
            "torn-result", path,
            f"{why}; removing re-arms the retry path", repaired))

    # Temp files orphaned mid-rename by a crash inside atomic_write.
    for path in run.temp_files():
        _stray_temp(path, repair, findings)

    # A queued job whose chunk already has a verified commit would be
    # executed (and committed) a second time for nothing.
    for chunk, path in run.queued():
        if chunk in good:
            repaired = _try_unlink(path, repair)
            findings.append(Finding(
                "duplicate-commit", path,
                f"chunk {chunk} already has a verified result",
                repaired))

    # A claim is orphaned when its work is provably over: the chunk
    # has a verified commit, or the whole run is marked DONE.
    done = run.is_done()
    for chunk, _, path in run.claimed_jobs():
        if chunk in good or done:
            why = (f"chunk {chunk} already has a verified result"
                   if chunk in good else "run is marked DONE")
            repaired = _try_unlink(path, repair)
            findings.append(Finding("orphaned-claim", path, why,
                                    repaired))
    return good


def _stray_temp(path, repair, findings):
    repaired = _try_unlink(path, repair)
    findings.append(Finding("stray-temp", path,
                            "orphaned atomic-write temp file", repaired))


def fsck_spool(spool, repair=False):
    """Scan ``spool`` for crash debris; optionally repair it.

    Returns the list of :class:`Finding` records. Every repair is a
    deletion of provably redundant state — fsck never rewrites or
    fabricates results.
    """
    findings = []
    spool = str(spool)
    committed = set()
    for run in SpoolRun.runs(spool):
        committed |= _scan_run(run, repair, findings)

    for path, kind in SpoolRun.quarantined(spool):
        if kind == "temp":
            _stray_temp(path, repair, findings)
        if kind != "record":
            continue
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
    record cannot execute code at listing time. In-flight temps are
    not records and are skipped.
    """
    records = []
    for path, kind in SpoolRun.quarantined(spool):
        if kind == "temp":
            continue
        name = os.path.basename(path)
        try:
            size = os.path.getsize(path)
        except OSError:
            continue
        if kind == "record":
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
        else:
            records.append({"name": name, "bytes": size,
                            "legacy": True})
    return records
