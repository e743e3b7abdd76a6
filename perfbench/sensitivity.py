"""Sensitivity self-check: a layer slowed on purpose must be flagged.

Runs ``face_point`` and ``osmc_batch_ingest`` for a few seeds as they are,
and again with a fixed busy-wait added to every ``ErrorBoundedHash.insert``
call (patched from here; the program is unchanged). Each side's median is
compared metric by metric with the bounds in ``BENCHMARK.json``, the way a
regression gate would compare a parent commit with a change::

    python3 perfbench/sensitivity.py

Exits 0 when ``insert_p50_us`` on ``face_point`` is flagged and
``lookup_p50_us`` on ``osmc_batch_ingest`` (its ``lookup_batch`` call,
which never inserts) stays within its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: Seeds per side, and the busy-wait added to each slowed call.
SEEDS = 3
DELAY_US = 20.0
EXPECT_FLAGGED = ("face_point", "insert_p50_us")
EXPECT_CLEAN = ("osmc_batch_ingest", "lookup_p50_us")


def _one(workload: str, seed: int, delay_us: float, seconds: float) -> None:
    """Run one workload in this process, EBH inserts slowed by ``delay_us``."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import harness
    from repro.core.ebh import ErrorBoundedHash

    original = ErrorBoundedHash.__dict__["insert"]
    delay_ns = int(delay_us * 1000)

    def slowed(self: ErrorBoundedHash, key: float, value: object) -> None:
        end = time.perf_counter_ns() + delay_ns
        while time.perf_counter_ns() < end:
            pass
        original(self, key, value)

    if delay_ns:
        ErrorBoundedHash.insert = slowed  # type: ignore[method-assign]
    try:
        workdir = ROOT / ".perfbench_work" / f"sensitivity-{os.getpid()}"
        result = harness.run(workload, seed, seconds, False, workdir)
    finally:
        ErrorBoundedHash.insert = original  # type: ignore[method-assign]
    print(json.dumps({"correct": result["correct"], "metrics": result["metrics"]}))


def _median_metrics(workload: str, seeds: list[int], delay_us: float, seconds: float) -> dict[str, float]:
    values: dict[str, list[float]] = {}
    for seed in seeds:
        out = subprocess.run(
            [sys.executable, __file__, "--one", workload, str(seed), str(delay_us), str(seconds)],
            capture_output=True, text=True, check=True,
        )
        result = json.loads(out.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            raise SystemExit(f"{workload} seed {seed} produced wrong results")
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    return {name: statistics.median(v) for name, v in values.items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    # Internal: one run in this process, printed as one JSON line.
    parser.add_argument("--one", nargs=4, metavar=("WORKLOAD", "SEED", "DELAY_US", "SECONDS"))
    args = parser.parse_args()
    if args.one:
        workload, seed, delay, seconds = args.one
        _one(workload, int(seed), float(delay), float(seconds))
        return 0

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: (m["bound"], m["better"]) for m in bench["end_to_end"]}
    seeds = list(range(1, SEEDS + 1))
    flagged: set[tuple[str, str]] = set()
    for workload in (EXPECT_FLAGGED[0], EXPECT_CLEAN[0]):
        base = _median_metrics(workload, seeds, 0.0, bench["run_seconds"])
        slow = _median_metrics(workload, seeds, DELAY_US, bench["run_seconds"])
        for name, (bound, better) in bounds.items():
            change = (slow[name] - base[name]) / base[name]
            worse = change if better == "lower" else -change
            mark = "REGRESSION" if worse > bound else "within bound"
            if worse > bound:
                flagged.add((workload, name))
            print(f"{workload:18s} {name:15s} {base[name]:12.5g} -> {slow[name]:12.5g} "
                  f"({change:+.1%}, bound {bound:.0%}) {mark}")
    ok = EXPECT_FLAGGED in flagged and EXPECT_CLEAN not in flagged
    print(f"sensitivity check {'passed' if ok else 'FAILED'}: {EXPECT_FLAGGED} flagged="
          f"{EXPECT_FLAGGED in flagged}, {EXPECT_CLEAN} flagged={EXPECT_CLEAN in flagged}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
