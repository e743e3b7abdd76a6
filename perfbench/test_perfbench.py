"""The benchmark's own checks: determinism, inputs, tracing hygiene, gating.

Run from the repository root: ``python3 -m pytest perfbench -q``. Each
workload runs small (one set-up, one recovery), so the whole file takes a
few minutes, most of it in ChaDATS builds.
"""

from __future__ import annotations

import dataclasses
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import harness, layers, run  # noqa: E402
from perfbench.client import Oracle  # noqa: E402
from perfbench.workloads import LOOKUP, SPECS, make_inputs  # noqa: E402
from repro.core.retrainer import RetrainingThread  # noqa: E402

SMALL_SECONDS = 1.0

#: Count-based metrics that must repeat exactly for a given seed.
COUNTS = (
    "cost_per_op",
    "bytes_per_key",
    "ebh.probes_per_op",
    "retrain.rebuilds",
    "durability.wal_bytes_per_key",
)


@pytest.fixture
def small(monkeypatch: pytest.MonkeyPatch) -> None:
    for name, spec in SPECS.items():
        monkeypatch.setitem(SPECS, name, dataclasses.replace(spec, setups=1))
    monkeypatch.setattr(harness, "RECOVERIES", 1)


def _counts(result: dict) -> dict[str, float]:
    shown = {**result["metrics"], **{k: {"value": v} for k, (v, _) in result["extra"].items()}}
    return {name: shown[name]["value"] for name in COUNTS}


@pytest.mark.parametrize("workload", list(SPECS))
def test_counts_repeat_for_a_seed(workload: str, small: None, tmp_path: Path) -> None:
    first, second = (
        harness.run(workload, 3, SMALL_SECONDS, True, tmp_path / f"run{i}") for i in range(2)
    )
    for result in (first, second):
        assert result["correct"], result["problems"]
    assert _counts(first) == _counts(second)
    assert not (tmp_path / "run0").exists()


@pytest.mark.parametrize("workload", list(SPECS))
def test_seed_changes_inputs(workload: str) -> None:
    a, b, again = (make_inputs(workload, s, SMALL_SECONDS) for s in (1, 2, 1))
    assert [str(x) for x in a.args] == [str(x) for x in again.args]
    assert [str(x) for x in a.args] != [str(x) for x in b.args]


def test_wrappers_are_removed() -> None:
    before = {(owner, attr): owner.__dict__[attr] for _, owner, attr, _ in layers.TARGETS}
    lock = layers.IntervalLockManager.__dict__["query_lock"]
    tracer = layers.Tracer()
    tracer.install()
    assert layers.ErrorBoundedHash.__dict__["insert"] is not before[(layers.ErrorBoundedHash, "insert")]
    tracer.uninstall()
    after = {(owner, attr): owner.__dict__[attr] for _, owner, attr, _ in layers.TARGETS}
    assert after == before
    assert layers.IntervalLockManager.__dict__["query_lock"] is lock


def test_self_time_excludes_enclosed_spans() -> None:
    tracer = layers.Tracer()
    tracer.phase = "ops"
    inner = tracer.timed("b", "inner", lambda: sum(range(20_000)))
    outer = tracer.timed("a", "outer", lambda: inner() + inner())
    outer()
    o, i = tracer.stats("ops", "outer"), tracer.stats("ops", "inner")
    assert i.calls == 2 and o.calls == 1
    assert o.self_ns == o.total_ns - i.total_ns
    assert tracer.op_covered_ns == o.total_ns


def test_construction_folds_leaf_inserts() -> None:
    tracer = layers.Tracer()
    leaf_insert = tracer.timed("ebh", "ebh.insert", lambda: None)
    refine = tracer.timed("rl", "tsmdp.refine", leaf_insert)
    build = tracer.timed("build", "build", lambda: (refine(), leaf_insert()))
    build()
    assert {name for _, name in tracer.spans} == {"build", "tsmdp.refine"}


def test_oracle_flags_wrong_answers() -> None:
    oracle = Oracle(np.array([1.0, 2.0]))
    assert oracle.wrong(LOOKUP, 1.0, 1.0) == 0
    assert oracle.wrong(LOOKUP, 1.0, None) == 1
    assert oracle.wrong(LOOKUP, 1.5, None) == 0


def test_contained_sweep_failure_fails_the_run(
    small: None, monkeypatch: pytest.MonkeyPatch, capsys: pytest.CaptureFixture[str]
) -> None:
    def broken(self: RetrainingThread) -> int:
        raise RuntimeError("sweep broken on purpose")

    # The supervisor contains the error and fires the flight recorder;
    # both must reach ``failed``.
    monkeypatch.setattr(RetrainingThread, "sweep_once", broken)
    code = run.main(["--workload", "face_point", "--seed", "1", "--seconds", "1"])
    out = capsys.readouterr().out
    assert code == 1
    assert "sweep failed" in out and "retrain_failure" in out
    assert '"correct": false' in out


def test_fails_without_the_program(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "face_point", "--seed", "1",
         "--seconds", "10", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert out.returncode != 0
    assert "correct" not in out.stdout
