"""Per-layer spans for the traced run, installed from outside the program.

:class:`Tracer` replaces the public functions each layer exposes with timing
wrappers for the duration of the traced run and puts the originals back
afterwards; no file of the program is changed. A span records its total
time and its self time (total minus the spans it encloses). A call into a
layer from inside the same layer -- a rehash re-inserting its keys, the
recursive TSMDP refinement -- is folded into the enclosing span, and so is
every call made inside a build or a refinement (see ``ENCLOSES``).

Spans are aggregated per phase: ``setup`` (bulk load), ``ops`` (the step
stream, including sweeps) and ``recover``. Top-level spans opened during an
op, i.e. outside a sweep, give the share of op time some layer covers.
"""

from __future__ import annotations

import functools
import time
from typing import Any, Callable

from repro.baselines.interfaces import BaseIndex
from repro.core import batch_plan as plan_mod
from repro.core import builder as builder_mod
from repro.core import index as index_mod
from repro.core.ebh import ErrorBoundedHash
from repro.core.interval_lock import IntervalLockManager
from repro.obs.flight import FlightRecorder
from repro.obs.slo import SloTracker
from repro.robustness.durability import recovery as recovery_mod
from repro.robustness.durability.checkpoint import CheckpointManager
from repro.robustness.durability.wal import WriteAheadLog
from repro.robustness.supervisor import SupervisedRetrainer

from .client import Pass

SWEEP = "retrain.sweep"

#: Layers whose spans enclose only the listed layers' spans: a build or a
#: TSMDP refinement fills fresh EBH leaves, which is construction work, not
#: EBH traffic; a build's refinements still show as ``rl``.
ENCLOSES = {"build": ("rl",), "rl": ()}

#: (layer, owner, attribute, span name) for every wrapped public function.
#: Module-level functions are patched in every module that calls them by
#: their imported name. The layer is also the folding key, so a layer that
#: calls into itself on purpose (sweep -> rebuild, recover -> load) splits
#: into two keys.
TARGETS: list[tuple[str, Any, str, str]] = [
    *(
        ("index", index_mod.ChameleonIndex, op, f"index.{op}")
        for op in ("lookup", "insert", "delete", "lookup_batch", "insert_batch", "delete_batch")
    ),
    *(
        ("ebh", ErrorBoundedHash, op, f"ebh.{op}")
        for op in (
            "lookup", "insert", "delete", "rehash",
            "lookup_batch", "insert_batch", "delete_batch",
        )
    ),
    ("batch_plan", index_mod, "build_plan", "batch_plan.build"),
    *(
        ("batch_plan", plan_mod.BatchQueryPlan, op, f"batch_plan.{op}")
        for op in ("lookup", "insert", "delete")
    ),
    ("durability", WriteAheadLog, "append_record", "wal.append"),
    ("durability", CheckpointManager, "checkpoint", "checkpoint"),
    # Its own folding key, so the load and replay inside it get spans.
    ("recovery", recovery_mod.RecoveryManager, "recover", "recover"),
    ("durability", BaseIndex, "load", "recover.load"),
    ("durability", recovery_mod, "apply_record", "recover.apply"),
    ("build", builder_mod.ChameleonBuilder, "build", "build"),
    ("rl", builder_mod, "refine_with_tsmdp", "tsmdp.refine"),
    ("rl", index_mod, "refine_with_tsmdp", "tsmdp.refine"),
    ("retrain", SupervisedRetrainer, "sweep_once", SWEEP),
    ("rebuild", index_mod.ChameleonIndex, "rebuild_subtree", "retrain.rebuild"),
    ("obs", SloTracker, "observe", "obs.slo_observe"),
    ("obs", FlightRecorder, "tick", "obs.flight_tick"),
]


class SpanStats:
    """Aggregate of one span name in one phase."""

    __slots__ = ("calls", "total_ns", "self_ns", "useful")

    def __init__(self) -> None:
        self.calls = 0
        self.total_ns = 0
        self.self_ns = 0
        #: Calls whose result was a positive count (rebuilds that swapped).
        self.useful = 0


class Tracer:
    """Span recorder plus the patch set that feeds it."""

    def __init__(self) -> None:
        self.phase = "setup"
        #: Open spans, innermost last: [layer, child_ns].
        self._stack: list[list[Any]] = []
        self.spans: dict[tuple[str, str], SpanStats] = {}
        #: Time of the top-level spans opened during ops.
        self.op_covered_ns = 0
        self._saved: list[tuple[Any, str, Any]] = []

    # -- recording -----------------------------------------------------------

    def stats(self, phase: str, name: str) -> SpanStats:
        found = self.spans.get((phase, name))
        return found if found is not None else SpanStats()

    def _close(self, name: str, frame: list[Any], dur: int, count: int, result: Any) -> None:
        key = (self.phase, name)
        rec = self.spans.get(key)
        if rec is None:
            rec = self.spans[key] = SpanStats()
        rec.calls += count
        rec.total_ns += dur
        rec.self_ns += dur - frame[1]
        if type(result) is int and result > 0:
            rec.useful += 1
        stack = self._stack
        if stack:
            stack[-1][1] += dur
        elif self.phase == "ops" and name != SWEEP:
            self.op_covered_ns += dur

    def timed(self, layer: str, name: str, fn: Callable[..., Any], count: int = 1) -> Callable[..., Any]:
        """``fn`` wrapped in a span of ``layer``, folded as the module says."""
        stack = self._stack
        clock = time.perf_counter_ns
        close = self._close

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            top = stack[-1][0] if stack else None
            if top == layer or layer not in ENCLOSES.get(top, (layer,)):
                return fn(*args, **kwargs)
            frame = [layer, 0]
            stack.append(frame)
            result = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                dur = clock() - t0
                stack.pop()
                close(name, frame, dur, count, result)

        return traced

    # -- installation --------------------------------------------------------

    def _patch(self, owner: Any, attr: str, replacement: Any) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        """Wrap every target; idempotence is not needed, so not provided."""
        for layer, owner, attr, name in TARGETS:
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                self._patch(owner, attr, classmethod(self.timed(layer, name, raw.__func__)))
            else:
                self._patch(owner, attr, self.timed(layer, name, raw))
        self._patch_query_lock()

    def _patch_query_lock(self) -> None:
        """Time ``query_lock`` entry and exit; the body belongs to its caller."""
        original = IntervalLockManager.__dict__["query_lock"]
        enter = self.timed("lock", "lock.query", lambda cm: cm.__enter__())
        leave = self.timed("lock", "lock.query", lambda cm, *exc: cm.__exit__(*exc), count=0)

        class TimedLock:
            __slots__ = ("cm",)

            def __init__(self, cm: Any) -> None:
                self.cm = cm

            def __enter__(self) -> Any:
                return enter(self.cm)

            def __exit__(self, *exc: Any) -> Any:
                return leave(self.cm, *exc)

        @functools.wraps(original)
        def query_lock(manager: IntervalLockManager, *args: Any, **kwargs: Any) -> TimedLock:
            return TimedLock(original(manager, *args, **kwargs))

        self._patch(IntervalLockManager, "query_lock", query_lock)

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)


def layer_metrics(
    tracer: Tracer,
    *,
    traced: Pass,
    untraced: Pass,
    retrained_keys: int,
    counters: dict[str, int],
    registry: dict[str, float],
    leaves: list[dict[str, Any]],
) -> dict[str, tuple[float, str]]:
    """Every per-layer metric as ``name -> (value, unit)``.

    ``counters`` and ``registry`` hold the change of the structural
    Counters and of the program's ``chameleon_*`` metrics over the traced
    op phase; ``retrained_keys`` is the retrainer's count over the run and
    ``leaves`` is ``obs.structure.sample_index`` at its end.
    """
    ops = functools.partial(tracer.stats, "ops")
    key_ops, written_keys, sweeps = traced.key_ops, traced.written_keys, traced.sweeps
    per_op = max(1, key_ops)

    def mean(name: str, scale: float, self_time: bool = False) -> float:
        """Mean time per call of span ``name`` over the ops phase, in ``scale`` ns."""
        st = ops(name)
        if not st.calls:
            return 0.0
        return (st.self_ns if self_time else st.total_ns) / st.calls / scale

    rebuilds = ops("retrain.rebuild").useful
    setup_append = tracer.stats("setup", "wal.append")
    loads = tracer.stats("recover", "recover.load")
    applies = tracer.stats("recover", "recover.apply")
    recoveries = max(1, tracer.stats("recover", "recover").calls)
    wal_records = registry.get("chameleon_wal_records_total", 0.0)
    fsyncs = registry.get("chameleon_fsync_seconds.count", 0.0)
    # How far the top-level layer spans of the traced ops (each span's self
    # time plus the spans it encloses) miss the untraced op time, both
    # normalised for host speed: a layer no span covers reads positive,
    # wrapper overhead negative.
    residual = 1.0 - traced.norm_covered_ns / max(1.0, untraced.norm_op_ns)
    loads_avg = [leaf["load_factor"] for leaf in leaves]
    us, ms, s = 1e3, 1e6, 1e9
    return {
        "index.lookup_self_us": (mean("index.lookup", us, self_time=True), "us"),
        "index.node_hops_per_op": (counters["node_hops"] / per_op, "1/op"),
        "index.model_evals_per_op": (counters["model_evals"] / per_op, "1/op"),
        "index.splits": (counters["splits"], "count"),
        "lock.query_lock_us": (mean("lock.query", us), "us"),
        "lock.acquisitions_per_op": (counters["lock_acquisitions"] / per_op, "1/op"),
        "lock.waits": (counters["lock_waits"], "count"),
        "ebh.lookup_us": (mean("ebh.lookup", us), "us"),
        "ebh.insert_us": (mean("ebh.insert", us), "us"),
        "ebh.probes_per_op": (counters["slot_probes"] / per_op, "1/op"),
        "ebh.rehashes": (ops("ebh.rehash").calls, "count"),
        "ebh.rehash_ms": (mean("ebh.rehash", ms), "ms"),
        "ebh.load_factor_avg": (sum(loads_avg) / max(1, len(loads_avg)), "ratio"),
        "ebh.conflict_degree_max": (
            max((leaf["overflow_chain"] for leaf in leaves), default=0), "slots"
        ),
        "batch_plan.builds": (ops("batch_plan.build").calls, "count"),
        "batch_plan.build_ms": (mean("batch_plan.build", ms), "ms"),
        "batch_plan.lookup_ms": (mean("batch_plan.lookup", ms), "ms"),
        "batch_plan.insert_ms": (mean("batch_plan.insert", ms), "ms"),
        "batch_plan.delete_ms": (mean("batch_plan.delete", ms), "ms"),
        "durability.wal_append_us": (mean("wal.append", us), "us"),
        "durability.fsyncs_per_write": (fsyncs / wal_records if wal_records else 0.0, "1/record"),
        "durability.fsync_ms": (
            1e3 * registry.get("chameleon_fsync_seconds.sum", 0.0) / fsyncs if fsyncs else 0.0,
            "ms",
        ),
        "durability.wal_bytes_per_key": (
            registry.get("chameleon_wal_bytes_total", 0.0) / max(1, written_keys), "B/key"
        ),
        "durability.checkpoint_s": (mean("checkpoint", s), "s"),
        "durability.bulk_log_s": (setup_append.total_ns / s, "s"),
        "durability.recover_load_s": (loads.total_ns / recoveries / s, "s"),
        "durability.recover_replay_s": (applies.total_ns / recoveries / s, "s"),
        "durability.replayed_records": (applies.calls / recoveries, "count"),
        "build.total_s": (tracer.stats("setup", "build").total_ns / s, "s"),
        "build.tsmdp_s": (tracer.stats("setup", "tsmdp.refine").total_ns / s, "s"),
        "retrain.sweep_ms": (mean(SWEEP, ms), "ms"),
        "retrain.rebuilds": (rebuilds, "count"),
        "retrain.rebuilds_per_sweep": (rebuilds / sweeps if sweeps else 0.0, "1/sweep"),
        "retrain.rebuild_ms": (mean("retrain.rebuild", ms), "ms"),
        "retrain.keys_rebuilt": (retrained_keys, "count"),
        "obs.slo_observe_us": (mean("obs.slo_observe", us), "us"),
        "obs.flight_tick_us": (mean("obs.flight_tick", us), "us"),
        "trace.overhead_ratio": (untraced.rate() / max(1e-9, traced.rate()), "ratio"),
        "trace.residual_frac": (residual, "ratio"),
    }
