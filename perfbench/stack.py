"""The stack a workload runs on, assembled from the public API only.

The face workloads run what ROADMAP calls the deployed configuration: a
:class:`DurableIndex` over a :class:`ChameleonIndex` with an
:class:`IntervalLockManager` and a :class:`SupervisedRetrainer`. The
retrainer is driven synchronously (``sweep_once`` every fixed number of
steps) instead of from its daemon thread: with one client thread the GIL
would charge the client for a background sweep anyway, and a fixed cadence
keeps every rebuild, and so every structural count, identical between runs.
Telemetry is armed as in deployment -- metrics registry, SLO tracker and
flight recorder (which arms the trace ring) -- but the timeline sampler
stays off because it is a time-triggered thread.
"""

from __future__ import annotations

from contextlib import contextmanager
from pathlib import Path
from typing import Iterator

import numpy as np

from repro import obs
from repro.core.index import ChameleonIndex
from repro.core.interval_lock import IntervalLockManager
from repro.robustness.durability.durable import DurableIndex
from repro.robustness.durability.recovery import RecoveryManager, RecoveryReport
from repro.robustness.supervisor import SupervisedRetrainer

from .speed import SpeedProbe
from .workloads import Spec


@contextmanager
def telemetry(directory: Path) -> Iterator[None]:
    """Arm metrics, SLO and flight recorder for the duration of a run."""
    obs.arm_metrics()
    obs.arm_slo()
    obs.arm_flight(directory / "flight")
    try:
        yield
    finally:
        obs.disarm_flight()  # and the trace ring it armed
        obs.disarm_slo()
        obs.disarm_metrics()


class Stack:
    """One freshly built stack for ``spec`` rooted at ``directory``."""

    def __init__(self, spec: Spec, directory: Path) -> None:
        self.spec = spec
        self.directory = directory
        self.lock_manager = IntervalLockManager() if spec.locks else None
        self.index = ChameleonIndex(strategy=spec.strategy, lock_manager=self.lock_manager)
        self.durable = DurableIndex(
            self.index,
            directory,
            fsync=spec.fsync,
            checkpoint_every_records=spec.checkpoint_every_records,
        )
        self.retrainer = (
            SupervisedRetrainer(self.index, self.lock_manager)
            if self.lock_manager is not None
            else None
        )

    def bulk_load(self, keys: np.ndarray, probe: SpeedProbe) -> tuple[int, list[int]]:
        """Bulk load through the WAL; returns raw ns and the speed probes."""
        _, elapsed, samples = probe.sampled(lambda: self.durable.bulk_load(keys))
        return elapsed, samples

    def snapshot(self) -> None:
        """Checkpoint the freshly loaded stack before it serves, untimed.

        A deployment snapshots its base state before serving, so recovery
        never has to rebuild from the BULK_LOAD record.
        """
        self.durable.checkpoint()


def recover(spec: Spec, directory: Path) -> tuple[ChameleonIndex, RecoveryReport]:
    """``RecoveryManager.recover`` on a closed directory."""
    index, report = RecoveryManager(
        directory, lambda: ChameleonIndex(strategy=spec.strategy)
    ).recover()
    if not isinstance(index, ChameleonIndex):
        raise TypeError(f"recovered {type(index).__name__}, not ChameleonIndex")
    return index, report
