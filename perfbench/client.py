"""Closed-loop client: one thread issues each step after the previous one.

Each step is timed around the public ``DurableIndex`` call plus the flight
recorder tick a request handler pays per request. An oracle of the live
keys (a live key's value is the key itself, as the stream passes no
values) checks every lookup result, every batch result and every delete
flag.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.obs import flight as obs_flight
from repro.obs import structure as obs_structure

from .speed import SpeedProbe, normalised_s
from .stack import Stack, recover
from .workloads import (
    DELETE,
    DELETE_BATCH,
    INSERT,
    INSERT_BATCH,
    KIND_NAMES,
    LOOKUP,
    LOOKUP_BATCH,
    Inputs,
)

#: Problems reported per run before the rest are only counted.
MAX_PROBLEMS = 10

#: Speed probes per second of nominal stream time.
PROBES_PER_SECOND = 50


@dataclass
class Pass:
    """What one pass over the step stream measured.

    Latencies and the ``norm_*`` times are normalised for host speed (see
    :mod:`perfbench.speed`) and leave out the warm-up steps; the raw
    totals, counts and work units cover every step.
    """

    #: Normalised per-call latency in nanoseconds, one list per step kind.
    latencies: list[list[float]] = field(default_factory=lambda: [[] for _ in KIND_NAMES])
    #: Key operations after the warm-up, and the normalised time they
    #: spent in op calls, and in op calls plus retrainer sweeps.
    timed_key_ops: int = 0
    norm_op_ns: float = 0.0
    norm_wall_ns: float = 0.0
    #: Normalised time of the top-level layer spans opened during the timed
    #: op calls; only a traced pass records it (see ``execute``).
    norm_covered_ns: float = 0.0
    #: Raw time inside op calls over every step, and sweeps run.
    op_ns: int = 0
    sweeps: int = 0
    key_ops: int = 0
    written_keys: int = 0
    failed: int = 0
    #: Change of ``total_search_work() + total_update_work()`` over the pass.
    work_units: int = 0
    problems: list[str] = field(default_factory=list)

    def latency(self, kinds: tuple[int, ...], q: float) -> float:
        """``q``-th percentile call latency of ``kinds``, in normalised ns."""
        lat = [x for k in kinds for x in self.latencies[k]]
        return float(np.percentile(lat, q)) if lat else 0.0

    def rate(self) -> float:
        """Key operations per normalised second of stack time."""
        return self.timed_key_ops / (self.norm_wall_ns / 1e9)

    def problem(self, text: str) -> None:
        if len(self.problems) < MAX_PROBLEMS:
            self.problems.append(text)


class Oracle:
    """The set of live keys; a live key's value is the key itself."""

    def __init__(self, keys: np.ndarray) -> None:
        self.live = set(keys.tolist())

    def wrong(self, kind: int, arg: object, result: object) -> int:
        """Apply one step to the model; return how many of its keys disagree."""
        live = self.live
        if kind == LOOKUP:
            return int(result != (arg if arg in live else None))
        if kind == INSERT:
            live.add(arg)
            return 0
        if kind == DELETE:
            present = arg in live
            live.discard(arg)
            return int(result is not present)
        keys = arg.tolist()  # type: ignore[attr-defined]
        if kind == LOOKUP_BATCH:
            expected = [k if k in live else None for k in keys]
        elif kind == INSERT_BATCH:
            live.update(keys)
            return 0
        else:
            expected = [k in live for k in keys]
            live.difference_update(keys)
        got = list(result)  # type: ignore[call-overload]
        if len(got) != len(expected):
            return len(keys)
        return sum(1 for g, e in zip(got, expected) if g != e)


def execute(
    stack: Stack,
    inputs: Inputs,
    oracle: Oracle,
    probe: SpeedProbe,
    covered: Callable[[], int] | None = None,
) -> Pass:
    """Run every step of ``inputs`` against ``stack``; check each result.

    ``probe`` is timed about ``PROBES_PER_SECOND`` times per second of
    nominal stream time, between steps and outside every measured interval.
    A sweep that the supervisor contained (``sweep_once`` returned None)
    counts as a failure. ``covered``, given in a traced pass, returns the
    running raw time of top-level layer spans; its growth over each op call
    is normalised like the call itself into ``Pass.norm_covered_ns``.
    """
    durable = stack.durable
    calls = (
        durable.lookup, durable.insert, durable.delete,
        durable.lookup_batch, durable.insert_batch, durable.delete_batch,
    )
    spec = inputs.spec
    sweep_every = spec.sweep_every
    probe_every = max(1, round(spec.steps_per_second / PROBES_PER_SECOND))
    retrainer = stack.retrainer
    counters = stack.index.counters
    clock = time.perf_counter_ns
    tick = obs_flight.tick
    out = Pass()
    # Warm-up calls are weighted 0 and land in a list nobody reads.
    latencies: list[list[float]] = [[] for _ in KIND_NAMES]
    weight = 0.0
    work0 = counters.total_search_work() + counters.total_update_work()
    for i, (kind, arg) in enumerate(zip(inputs.kinds, inputs.args)):
        if i == inputs.warmup:
            latencies = out.latencies
        if i == inputs.warmup or i % probe_every == 0:
            probe.measure()
            weight = probe.factor() if i >= inputs.warmup else 0.0
        n_keys = len(arg) if kind >= LOOKUP_BATCH else 1
        out.key_ops += n_keys
        if i >= inputs.warmup:
            out.timed_key_ops += n_keys
        if kind in (INSERT, DELETE, INSERT_BATCH, DELETE_BATCH):
            out.written_keys += n_keys
        c0 = covered() if covered is not None else 0
        t0 = clock()
        try:
            result = calls[kind](arg)
            tick()
        except Exception as exc:
            dt = clock() - t0
            out.op_ns += dt
            out.norm_op_ns += dt * weight
            out.failed += n_keys
            out.problem(f"step {i}: {KIND_NAMES[kind]} raised {exc!r}")
            continue
        dt = clock() - t0
        out.op_ns += dt
        out.norm_op_ns += dt * weight
        latencies[kind].append(dt * weight)
        if covered is not None:
            out.norm_covered_ns += (covered() - c0) * weight
        wrong = oracle.wrong(kind, arg, result)
        if wrong:
            out.failed += wrong
            out.problem(f"step {i}: {KIND_NAMES[kind]} disagreed on {wrong} key(s)")
        done = i + 1 - inputs.warmup
        if sweep_every and retrainer is not None and done >= 0 and done % sweep_every == 0:
            t0 = clock()
            rebuilt = retrainer.sweep_once()
            out.norm_wall_ns += (clock() - t0) * weight
            out.sweeps += 1
            if rebuilt is None:
                out.failed += 1
                out.problem(f"step {i}: sweep failed: {retrainer.stats.last_error}")
    out.norm_wall_ns += out.norm_op_ns
    out.work_units = counters.total_search_work() + counters.total_update_work() - work0
    return out


@dataclass
class Ending:
    """End-of-run state: structure, recovery times and integrity problems."""

    bytes_per_key: float
    leaves: list[dict]
    #: Median recovery time, normalised over all recoveries' probes.
    recover_s: float
    problems: list[str]


def finish(stack: Stack, oracle: Oracle, recoveries: int, probe: SpeedProbe) -> Ending:
    """Close the stack, verify it, recover it ``recoveries`` times, verify again.

    The live index must pass ``verify_integrity``; each recovered index must
    replay without a failed apply, and the last one must pass
    ``verify_integrity`` and hold exactly the oracle's keys.
    """
    index = stack.index
    bytes_per_key = index.size_bytes() / max(1, len(index))
    leaves = obs_structure.sample_index(index)
    stack.durable.close()
    problems = [f"live index: {v}" for v in index.verify_integrity().violations]
    raw_ns: list[int] = []
    samples: list[int] = []
    recovered = None
    for _ in range(recoveries):
        (recovered, report), elapsed, during = probe.sampled(
            lambda: recover(stack.spec, stack.directory)
        )
        raw_ns.append(elapsed)
        samples += during
        if report.failed_applies:
            problems.append(f"recovery: {report.failed_applies} failed applies")
    if recovered is not None:
        problems += [f"recovered index: {v}" for v in recovered.verify_integrity().violations]
        items = dict(recovered.items())
        if items.keys() != oracle.live:
            problems.append(
                f"recovered index holds {len(items)} keys, oracle {len(oracle.live)}"
                f" ({len(items.keys() - oracle.live)} extra,"
                f" {len(oracle.live - items.keys())} missing)"
            )
        elif any(k != v for k, v in items.items()):
            problems.append("recovered index maps some key to another value")
    recover_s = normalised_s(raw_ns, samples) if raw_ns else 0.0
    return Ending(bytes_per_key, leaves, recover_s, problems[:MAX_PROBLEMS])
