"""One benchmark run: inputs, set-up, the measured pass, checks, metrics.

``--trace 0`` builds the stack ``Spec.setups`` times (set-up time is the median),
runs the step stream once on the last build with tracing off, and recovers
the closed directory ``RECOVERIES`` times. ``--trace 1`` runs the same
stream twice on fresh builds -- untraced, then with every layer's span
wrappers installed -- and reports per-layer metrics plus how far the
traced pass strays from the untraced one.
"""

from __future__ import annotations

import dataclasses
import gc
import shutil
from pathlib import Path
from typing import Any

from repro.obs import flight as obs_flight
from repro.obs import metrics as obs_metrics

from .client import Ending, Oracle, Pass, execute, finish
from .layers import Tracer, layer_metrics
from .speed import SpeedProbe, normalised_s
from .stack import Stack, telemetry
from .workloads import (
    DELETE,
    DELETE_BATCH,
    INSERT,
    INSERT_BATCH,
    KIND_NAMES,
    LOOKUP,
    LOOKUP_BATCH,
    Inputs,
    make_inputs,
)

RECOVERIES = 5

Metrics = dict[str, tuple[float, str]]


def run(name: str, seed: int, seconds: float, trace: bool, workdir: Path) -> dict[str, Any]:
    """Run workload ``name``; return the result object ``run.py`` prints."""
    inputs = make_inputs(name, seed, seconds)
    probe = SpeedProbe()
    workdir.mkdir(parents=True)
    try:
        with telemetry(workdir):
            if trace:
                return _traced(inputs, workdir, probe)
            return _plain(inputs, workdir, probe)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _result(
    passes: list[Pass], ending: Ending, metrics: Metrics, extra: Metrics | None = None
) -> dict[str, Any]:
    """The printed result; ``extra`` and ``problems`` are shown, not in the JSON.

    Besides the passes' and the ending's failures, every anomaly the armed
    flight recorder saw over the run (a lock timeout, a contained retrain
    failure, a recovery fallback, ...) counts as one.
    """
    recorder = obs_flight.ACTIVE
    fired = sorted(recorder.fired().items()) if recorder is not None else []
    anomalies = [f"flight recorder fired {reason} {n} time(s)" for reason, n in fired]
    problems = [p for ps in passes for p in ps.problems] + ending.problems + anomalies
    failed = sum(ps.failed for ps in passes) + len(ending.problems) + len(anomalies)
    attempted = sum(ps.key_ops for ps in passes)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "extra": {**(extra or {}), "failed_frac": (failed / max(1, attempted), "ratio")},
        "problems": problems,
    }


def _fresh_stack(
    inputs: Inputs, directory: Path, probe: SpeedProbe
) -> tuple[Stack, int, list[int]]:
    stack = Stack(inputs.spec, directory)
    # Each build starts from a collected heap, so none pays for the last
    # one's garbage.
    gc.collect()
    elapsed, samples = stack.bulk_load(inputs.keys, probe)
    return stack, elapsed, samples


def _plain(inputs: Inputs, workdir: Path, probe: SpeedProbe) -> dict[str, Any]:
    raw_ns: list[int] = []
    samples: list[int] = []
    for i in range(inputs.spec.setups):
        if i:
            stack.durable.wipe()
            del stack  # before the next build collects the heap
        stack, elapsed, during = _fresh_stack(inputs, workdir / f"db{i}", probe)
        raw_ns.append(elapsed)
        samples += during
    setup_s = normalised_s(raw_ns, samples)
    stack.snapshot()
    oracle = Oracle(inputs.keys)
    gc.collect()
    measured = execute(stack, inputs, oracle, probe)
    ending = finish(stack, oracle, RECOVERIES, probe)
    return _result(
        [measured],
        ending,
        end_to_end(measured, ending, setup_s),
        {**tails(measured), **batch_latencies(measured)},
    )


def end_to_end(p: Pass, ending: Ending, setup_s: float) -> Metrics:
    """The end-to-end metrics of one untraced pass.

    A lookup, insert or delete latency is that of one call of that kind:
    a scalar call, or in a batch workload a whole batch call. Every time
    is normalised for host speed (see :class:`Pass`); ``setup_s`` and
    ``recover_s`` are medians over ``Spec.setups`` builds and ``RECOVERIES``
    recoveries (:func:`normalised_s`).
    """
    # A workload issues either the scalar or the batch form of each kind.
    lookups, inserts, deletes = (LOOKUP, LOOKUP_BATCH), (INSERT, INSERT_BATCH), (DELETE, DELETE_BATCH)
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (p.rate(), "1/s"),
        "lookup_p50_us": (p.latency(lookups, 50) / 1e3, "us"),
        "insert_p50_us": (p.latency(inserts, 50) / 1e3, "us"),
        "delete_p50_us": (p.latency(deletes, 50) / 1e3, "us"),
        "recover_s": (ending.recover_s, "s"),
        "cost_per_op": (p.work_units / p.key_ops, "units/op"),
        "bytes_per_key": (ending.bytes_per_key, "B/key"),
    }


def tails(p: Pass) -> Metrics:
    """Each kind's p99 and the p99 over all calls; shown, not gated (see README)."""
    out: Metrics = {
        f"{name}_p99_us": (p.latency((kind, kind + 3), 99) / 1e3, "us")
        for kind, name in ((LOOKUP, "lookup"), (INSERT, "insert"), (DELETE, "delete"))
    }
    out["call_p99_us"] = (p.latency(tuple(range(len(KIND_NAMES))), 99) / 1e3, "us")
    return out


def batch_latencies(p: Pass) -> Metrics:
    """Per-call batch latencies: median per batch op, and the pooled p99."""
    kinds = tuple(k for k in (LOOKUP_BATCH, INSERT_BATCH, DELETE_BATCH) if p.latencies[k])
    out: Metrics = {f"{KIND_NAMES[k]}_p50_ms": (p.latency((k,), 50) / 1e6, "ms") for k in kinds}
    if kinds:
        out["batch_p99_ms"] = (p.latency(kinds, 99) / 1e6, "ms")
    return out


def _registry_snapshot() -> dict[str, float]:
    """Flat view of the armed registry: counters, and histogram sum/count."""
    reg = obs_metrics.ACTIVE
    if reg is None:
        return {}
    dump = reg.to_dict()
    flat = dict(dump["counters"])
    for name, hist in dump["histograms"].items():
        flat[f"{name}.sum"] = hist["sum"]
        flat[f"{name}.count"] = hist["count"]
    return flat


def _delta(after: dict[str, Any], before: dict[str, Any]) -> dict[str, Any]:
    return {k: v - before.get(k, 0) for k, v in after.items()}


def _traced(inputs: Inputs, workdir: Path, probe: SpeedProbe) -> dict[str, Any]:
    stack, _, _ = _fresh_stack(inputs, workdir / "untraced", probe)
    stack.snapshot()
    gc.collect()
    untraced = execute(stack, inputs, Oracle(inputs.keys), probe)
    stack.durable.wipe()
    del stack

    tracer = Tracer()
    tracer.install()
    try:
        stack, _, _ = _fresh_stack(inputs, workdir / "traced", probe)
        stack.snapshot()
        oracle = Oracle(inputs.keys)
        gc.collect()
        counters0 = dataclasses.asdict(stack.index.counters)
        registry0 = _registry_snapshot()
        tracer.phase = "ops"
        traced = execute(stack, inputs, oracle, probe, lambda: tracer.op_covered_ns)
        counters = _delta(dataclasses.asdict(stack.index.counters), counters0)
        registry = _delta(_registry_snapshot(), registry0)
        tracer.phase = "recover"
        ending = finish(stack, oracle, 1, probe)
    finally:
        tracer.uninstall()
    retrained_keys = 0 if stack.retrainer is None else stack.retrainer.retrainer_stats.retrained_keys
    metrics = layer_metrics(
        tracer,
        traced=traced,
        untraced=untraced,
        retrained_keys=retrained_keys,
        counters=counters,
        registry=registry,
        leaves=ending.leaves,
    )
    counts: Metrics = {
        "cost_per_op": (traced.work_units / traced.key_ops, "units/op"),
        "bytes_per_key": (ending.bytes_per_key, "B/key"),
        # The traced pass's own op time that no top-level span covers.
        "trace.uncovered_frac": (1.0 - tracer.op_covered_ns / max(1, traced.op_ns), "ratio"),
    }
    return _result([untraced, traced], ending, metrics, counts)
