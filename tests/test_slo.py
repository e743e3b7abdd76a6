"""Tests for sliding-window SLO quantiles and their index wiring."""

from __future__ import annotations

import time

import pytest

from repro import obs
from repro.core import ChameleonIndex
from repro.datasets import face_like
from repro.obs import flight as flight_mod
from repro.obs import metrics as metrics_mod
from repro.obs import slo as slo_mod
from repro.obs import trace as trace_mod
from repro.obs.export import parse_prometheus


@pytest.fixture(autouse=True)
def no_leaked_sinks():
    yield
    assert trace_mod.ACTIVE is None
    assert metrics_mod.ACTIVE is None
    assert flight_mod.ACTIVE is None
    assert slo_mod.ACTIVE is None
    trace_mod.ACTIVE = None
    metrics_mod.ACTIVE = None
    flight_mod.ACTIVE = None
    slo_mod.ACTIVE = None


MS = 1_000_000  # ns


class TestQuantiles:
    def test_empty_tracker_has_no_quantiles(self):
        tracker = obs.SloTracker()
        assert tracker.quantile("lookup", 0.99) is None
        assert tracker.window_count("lookup") == 0
        assert tracker.snapshot()["lookup"]["p99_seconds"] is None

    def test_quantiles_bracket_the_observed_latencies(self):
        tracker = obs.SloTracker()
        for _ in range(95):
            tracker.observe("lookup", 1 * MS)  # 1 ms
        for _ in range(5):
            tracker.observe("lookup", 80 * MS)  # 80 ms tail
        p50 = tracker.quantile("lookup", 0.50)
        p99 = tracker.quantile("lookup", 0.99)
        assert 0.0005 <= p50 <= 0.002
        assert 0.05 <= p99 <= 0.1
        assert p50 <= tracker.quantile("lookup", 0.95) <= p99

    def test_quantile_validates_q(self):
        tracker = obs.SloTracker()
        with pytest.raises(ValueError):
            tracker.quantile("lookup", 0.0)
        with pytest.raises(ValueError):
            tracker.quantile("lookup", 1.0)

    def test_unknown_kind_created_on_first_observe(self):
        tracker = obs.SloTracker()
        tracker.observe("scan", 2 * MS)
        assert "scan" in tracker.kinds()
        assert tracker.window_count("scan") == 1

    def test_overflow_bucket_clamps_to_last_edge(self):
        tracker = obs.SloTracker()
        tracker.observe("lookup", int(30e9))  # 30 s: beyond every bound
        assert tracker.quantile("lookup", 0.99) == tracker.bounds[-1]

    def test_window_rotation_ages_out_old_observations(self):
        tracker = obs.SloTracker(window_s=0.02, windows=2)
        tracker.observe("lookup", 50 * MS)
        assert tracker.window_count("lookup") == 1
        # Past the horizon (live + 2 retained windows) the old hit ages out.
        time.sleep(0.1)
        tracker.observe("lookup", 1 * MS)
        assert tracker.window_count("lookup") == 1
        assert tracker.quantile("lookup", 0.99) < 0.01
        assert tracker.errors == []

    def test_publish_exports_gauges(self):
        tracker = obs.SloTracker()
        for _ in range(10):
            tracker.observe("lookup", 1 * MS)
        registry = obs.MetricsRegistry()
        tracker.publish(registry)
        text = registry.to_prometheus()
        families = parse_prometheus(text)
        assert "chameleon_slo_lookup_p99_seconds" in families
        assert "chameleon_slo_lookup_window_ops" in families

    def test_publish_without_registry_is_noop(self):
        tracker = obs.SloTracker()
        tracker.observe("lookup", 1 * MS)
        tracker.publish()  # no armed registry: silently nothing
        assert tracker.errors == []


class TestIndexWiring:
    def test_armed_index_ops_are_observed(self):
        keys = face_like(1500, seed=4)
        index = ChameleonIndex(strategy="ChaB")
        index.bulk_load(keys[:1000])
        tracker = obs.arm_slo()
        try:
            for k in keys[:50]:
                index.lookup(float(k))
            for k in keys[1000:1020]:
                index.insert(float(k))
            for k in keys[1000:1010]:
                index.delete(float(k))
        finally:
            assert obs.disarm_slo() is tracker
        assert tracker.observed["lookup"] == 50
        assert tracker.observed["insert"] == 20
        assert tracker.observed["delete"] == 10
        assert tracker.quantile("lookup", 0.5) is not None

    @pytest.mark.parametrize("locked", [False, True], ids=["plain", "locked"])
    def test_durable_delete_records_no_phantom_lookup(self, tmp_path, locked):
        """DurableIndex's rollback peek is not a client lookup."""
        from repro.core import IntervalLockManager
        from repro.robustness.durability import DurableIndex

        keys = [float(k) for k in face_like(600, seed=4)]
        index = ChameleonIndex(
            strategy="ChaB", lock_manager=IntervalLockManager() if locked else None
        )
        durable = DurableIndex(index, tmp_path, fsync="none")
        durable.bulk_load(keys)
        tracker = obs.arm_slo()
        try:
            with obs.armed() as (recorder, registry):
                for k in keys[:100]:
                    assert durable.delete(k)
        finally:
            obs.disarm_slo()
            durable.close()
        assert tracker.observed["delete"] == 100
        assert tracker.observed["lookup"] == 0
        assert tracker.snapshot()["lookup"]["window_ops"] == 0
        names = [event[0] for event in recorder.events()]
        assert names.count("index.delete") == 100
        assert "index.lookup" not in names
        # Lookups observe these; scalar deletes observe neither.
        for metric in ("chameleon_probe_length_slots", "chameleon_descent_depth_levels"):
            assert registry.histogram(metric).n_observed == 0

    def test_disarmed_index_observes_nothing(self):
        keys = face_like(800, seed=4)
        index = ChameleonIndex(strategy="ChaB")
        index.bulk_load(keys)
        with obs.disarmed():
            index.lookup(float(keys[0]))
        assert slo_mod.ACTIVE is None

    def test_slo_arming_is_counter_neutral(self):
        keys = face_like(1500, seed=4)

        def run():
            index = ChameleonIndex(strategy="ChaB")
            index.bulk_load(keys[:1000])
            before = index.counters.snapshot()
            out = [index.lookup(float(k)) for k in keys[:200]]
            for k in keys[1000:1050]:
                index.insert(float(k))
            return out, index.counters.diff(before)

        with obs.disarmed():
            plain_out, plain_counters = run()
        tracker = obs.arm_slo()
        try:
            armed_out, armed_counters = run()
        finally:
            obs.disarm_slo()
        assert plain_out == armed_out
        assert plain_counters == armed_counters
        assert tracker.observed["lookup"] == 200

    def test_module_observe_routes_to_armed_tracker(self):
        slo_mod.observe("lookup", 5 * MS)  # disarmed: no-op, no raise
        tracker = obs.arm_slo()
        try:
            slo_mod.observe("lookup", 5 * MS)
            assert slo_mod.snapshot()["lookup"]["window_ops"] == 1
        finally:
            obs.disarm_slo()
        assert slo_mod.snapshot() == {}

    def test_arm_from_env(self):
        obs.arm_from_env({"REPRO_SLO": "1"})
        try:
            assert slo_mod.ACTIVE is not None
        finally:
            obs.disarm_slo()
