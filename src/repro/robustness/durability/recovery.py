"""Crash recovery: restore the newest usable checkpoint, replay the tail.

The algorithm (:meth:`RecoveryManager.recover`):

1. Read ``MANIFEST``. If it names a loadable snapshot, start from it.
2. Otherwise try every other ``checkpoint-*.snap`` newest-first — safe
   because the WAL is only ever truncated up to the *oldest retained*
   checkpoint, so each surviving snapshot still has its full replay tail.
3. Otherwise build a fresh index from the factory and replay from LSN 0
   (the WAL's bulk-load record rebuilds the base state).
4. Scan the WAL (read-only, stopping at the first torn/corrupt frame or
   LSN discontinuity) and replay every record above the snapshot LSN.

Replay is idempotent and LSN-ordered: an insert whose key already exists
is skipped (:class:`DuplicateKeyError` swallowed), a delete of an absent
key is a no-op, and a bulk-load record replaces the index wholesale —
replaying the same prefix twice converges to the same state, which is
what makes "checkpoint may already contain some replayed records" safe.

Recovery never raises on damaged state: unreadable snapshots demote to
the next candidate and failed applies are counted in
:attr:`RecoveryReport.failed_applies` (the crash harness treats a
non-zero count as a contract violation, but a serving process still
comes up with everything that could be recovered).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from ...analysis.contracts import declared_contract
from ...baselines.interfaces import BaseIndex, DuplicateKeyError
from ...obs import flight as obs_flight
from ...obs import metrics as obs_metrics
from ...obs import trace as obs_trace
from . import wal as wal_mod
from .checkpoint import list_snapshots, read_manifest, snapshot_lsn


@dataclass
class RecoveryReport:
    """What one recovery pass did.

    Attributes:
        used_checkpoint: True when a snapshot was restored (False: empty
            index + full replay).
        checkpoint_path: snapshot file used, if any.
        checkpoint_lsn: LSN the snapshot covers (0 without a snapshot).
        last_lsn: highest LSN applied — the recovered prefix.
        replayed_records: WAL records applied on top of the snapshot.
        skipped_records: records at or below the snapshot LSN (already
            reflected in the snapshot) plus idempotent-duplicate skips.
        failed_applies: records whose apply raised (recovered state is
            missing them; the crash matrix fails the case).
        wal_truncated: True when the WAL scan hit a torn/corrupt tail.
        wal_detail: scanner's description of the damage, if any.
        seconds: wall-clock recovery duration.
        notes: human-readable trail of fallback decisions.
    """

    used_checkpoint: bool = False
    checkpoint_path: str | None = None
    checkpoint_lsn: int = 0
    last_lsn: int = 0
    replayed_records: int = 0
    skipped_records: int = 0
    failed_applies: int = 0
    wal_truncated: bool = False
    wal_detail: str = ""
    seconds: float = 0.0
    notes: list[str] = field(default_factory=list)


def apply_record(index: BaseIndex, record: wal_mod.WALRecord) -> bool:
    """Apply one WAL record idempotently; True when it mutated the index."""
    if record.op == wal_mod.OP_INSERT:
        key, value = record.payload
        try:
            index.insert(float(key), value)  # type: ignore[arg-type]
        except DuplicateKeyError:
            return False
        return True
    if record.op == wal_mod.OP_DELETE:
        (key,) = record.payload
        return index.delete(float(key))  # type: ignore[arg-type]
    if record.op == wal_mod.OP_BULK_LOAD:
        keys, values = record.payload
        index.bulk_load(keys, values)  # type: ignore[arg-type]
        return True
    if record.op == wal_mod.OP_INSERT_BATCH:
        keys, values = record.payload
        return _replay_insert_batch(index, keys, values)  # type: ignore[arg-type]
    if record.op == wal_mod.OP_DELETE_BATCH:
        (keys,) = record.payload
        return any(index.delete_batch(keys))  # type: ignore[arg-type]
    raise wal_mod.WALError(f"unknown WAL op {record.op} at lsn {record.lsn}")


def _replay_insert_batch(
    index: BaseIndex, keys: list[float], values: list[object] | None
) -> bool:
    """Replay one INSERT_BATCH frame with one batch lookup and one batch insert.

    Idempotent like the per-key loop it replaces: keys already present
    (and repeats of a key within the frame) are skipped, the rest land
    in frame order with their logged values. Should the batch insert
    still meet a present key (one stored with a ``None`` value reads as
    absent), the frame falls back to the per-key loop, which skips it.
    """
    key_list = [float(k) for k in keys]
    seen: set[float] = set()
    fresh: list[int] = []
    for i, found in enumerate(index.lookup_batch(key_list)):
        if found is None and key_list[i] not in seen:
            seen.add(key_list[i])
            fresh.append(i)
    if not fresh:
        return False
    fresh_keys = [key_list[i] for i in fresh]
    fresh_values = None if values is None else [values[i] for i in fresh]
    try:
        index.insert_batch(fresh_keys, fresh_values)
    except DuplicateKeyError:
        for i, key in enumerate(fresh_keys):
            try:
                index.insert(key, None if fresh_values is None else fresh_values[i])
            except DuplicateKeyError:
                continue
    return True


class RecoveryManager:
    """Restores one durability directory into a live index.

    Args:
        directory: durability root (``MANIFEST`` + snapshots, with the
            WAL under ``wal/``).
        index_factory: builds an empty index when no snapshot is usable.
    """

    def __init__(
        self,
        directory: str | Path,
        index_factory: Callable[[], BaseIndex],
    ) -> None:
        self.directory = Path(directory)
        self.index_factory = index_factory

    @property
    def wal_directory(self) -> Path:
        return self.directory / "wal"

    def _restore_checkpoint(
        self, report: RecoveryReport
    ) -> BaseIndex | None:
        """Newest loadable snapshot, manifest's pick first."""
        candidates: list[Path] = []
        manifest = read_manifest(self.directory)
        if manifest is not None:
            named = self.directory / manifest.snapshot
            if named.exists():
                candidates.append(named)
            else:
                report.notes.append(
                    f"manifest names missing snapshot {manifest.snapshot}"
                )
                if obs_flight.ACTIVE is not None:
                    obs_flight.ACTIVE.trigger(
                        "recovery_fallback",
                        {"missing_snapshot": manifest.snapshot},
                    )
        for snap in reversed(list_snapshots(self.directory)):
            if snap not in candidates:
                candidates.append(snap)
        for snap in candidates:
            try:
                index = BaseIndex.load(snap)
            except Exception as exc:
                report.notes.append(f"snapshot {snap.name} unusable: {exc}")
                if obs_trace.ACTIVE is not None:
                    # A demoted snapshot is tolerated damage, not silence:
                    # every fallback decision lands in the trace.
                    obs_trace.event(
                        "durability.snapshot_demoted",
                        {"snapshot": snap.name, "error": str(exc)},
                    )
                if obs_flight.ACTIVE is not None:
                    obs_flight.ACTIVE.trigger(
                        "recovery_fallback",
                        {"snapshot": snap.name, "error": str(exc)},
                    )
                continue
            report.used_checkpoint = True
            report.checkpoint_path = str(snap)
            lsn = snapshot_lsn(snap)
            report.checkpoint_lsn = lsn if lsn is not None else 0
            return index
        return None

    @declared_contract("no_raise")
    def recover(self) -> tuple[BaseIndex, RecoveryReport]:
        """Run the full recovery; returns ``(index, report)``.

        Never raises on damaged on-disk state — damage degrades to
        fallbacks and is described in the report.
        """
        started = time.perf_counter()
        report = RecoveryReport()
        with obs_trace.span("durability.recover") as span:
            index = self._restore_checkpoint(report)
            if index is None:
                index = self.index_factory()
                report.notes.append("no usable checkpoint; replaying full WAL")
            report.last_lsn = report.checkpoint_lsn

            scan_result = wal_mod.scan(self.wal_directory)
            report.wal_truncated = scan_result.truncated
            report.wal_detail = scan_result.detail
            for record in scan_result.records:
                if record.lsn <= report.checkpoint_lsn:
                    report.skipped_records += 1
                    continue
                try:
                    applied = apply_record(index, record)
                except Exception as exc:
                    report.failed_applies += 1
                    report.notes.append(
                        f"apply failed at lsn {record.lsn} "
                        f"({record.op_name}): {exc}"
                    )
                    continue
                report.replayed_records += 1
                if not applied:
                    report.skipped_records += 1
                report.last_lsn = record.lsn
            span.put("replayed", report.replayed_records)
            span.put("last_lsn", report.last_lsn)
            span.put("used_checkpoint", report.used_checkpoint)
        report.seconds = time.perf_counter() - started
        if obs_metrics.ACTIVE is not None:
            obs_metrics.ACTIVE.observe(
                "chameleon_recovery_seconds", report.seconds
            )
            obs_metrics.ACTIVE.inc(
                "chameleon_recovery_replayed_total", report.replayed_records
            )
        return index, report
