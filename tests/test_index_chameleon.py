"""Integration tests for ChameleonIndex (all strategies)."""

import math

import numpy as np
import pytest

from repro.baselines.interfaces import (
    DuplicateKeyError,
    EmptyIndexError,
    InvalidKeyError,
)
from repro.baselines.sorted_array import SortedArrayIndex
from repro.core import ChameleonConfig, ChameleonIndex, IntervalLockManager
from repro.datasets import load as load_dataset


def build(keys, strategy="ChaB", **kwargs):
    index = ChameleonIndex(strategy=strategy, **kwargs)
    index.bulk_load(keys)
    return index


class TestBulkLoadAndLookup:
    @pytest.mark.parametrize("strategy", ["ChaB", "ChaDA", "ChaDATS"])
    def test_all_loaded_keys_found(self, moderate_keys, strategy):
        index = build(moderate_keys[:2000], strategy=strategy)
        for k in moderate_keys[:2000:7]:
            assert index.lookup(float(k)) == k

    def test_missing_keys_return_none(self, uniform_keys):
        index = build(uniform_keys)
        assert index.lookup(float(uniform_keys[0]) + 0.5) is None
        assert index.lookup(-1e18) is None
        assert index.lookup(1e18) is None

    def test_values_are_stored(self):
        keys = np.array([1.0, 2.0, 3.0])
        index = ChameleonIndex(strategy="ChaB")
        index.bulk_load(keys, values=["a", "b", "c"])
        assert index.lookup(2.0) == "b"

    def test_empty_bulk_load_rejected(self):
        with pytest.raises(ValueError):
            ChameleonIndex().bulk_load([])

    def test_single_key(self):
        index = build(np.array([42.0]))
        assert index.lookup(42.0) == 42.0
        assert len(index) == 1

    def test_duplicate_bulk_load_rejected(self):
        with pytest.raises(ValueError):
            ChameleonIndex().bulk_load([1.0, 1.0])

    def test_lookup_before_load_raises(self):
        with pytest.raises(EmptyIndexError):
            ChameleonIndex().lookup(1.0)


class TestUpdates:
    def test_insert_then_lookup(self, uniform_keys):
        index = build(uniform_keys[:1000])
        new_key = float(uniform_keys[0]) + 0.25
        index.insert(new_key, "fresh")
        assert index.lookup(new_key) == "fresh"
        assert len(index) == 1001

    def test_insert_duplicate_rejected(self, uniform_keys):
        index = build(uniform_keys[:100])
        with pytest.raises(DuplicateKeyError):
            index.insert(float(uniform_keys[0]))

    def test_insert_before_load_raises(self):
        with pytest.raises(EmptyIndexError):
            ChameleonIndex().insert(1.0)

    def test_delete(self, uniform_keys):
        index = build(uniform_keys[:100])
        victim = float(uniform_keys[50])
        assert index.delete(victim)
        assert index.lookup(victim) is None
        assert not index.delete(victim)
        assert len(index) == 99

    def test_delete_on_empty_index(self):
        assert not ChameleonIndex().delete(1.0)

    def test_out_of_range_inserts(self, uniform_keys):
        """Keys beyond the loaded range clamp into edge leaves and work."""
        index = build(uniform_keys[:500])
        low = float(uniform_keys[0]) - 1e9
        high = float(uniform_keys[499]) + 1e9
        index.insert(low)
        index.insert(high)
        assert index.lookup(low) == low
        assert index.lookup(high) == high

    def test_hammered_region_stays_efficient(self, uniform_keys):
        """A region absorbing many inserts must stay cheap to query —
        either by splitting or by the fitted hash flattening the density."""
        config = ChameleonConfig(leaf_split_keys=128, leaf_target_keys=32)
        index = ChameleonIndex(config=config, strategy="ChaB")
        index.bulk_load(uniform_keys[:500])
        base = float(uniform_keys[100])
        step = (float(uniform_keys[101]) - base) / 600
        for i in range(1, 400):
            index.insert(base + i * step)
        # Height bounded (no split chains)...
        max_h, _ = index.height_stats()
        assert max_h <= config.h + 3
        # ...and lookups stay near-constant probing work.
        before = index.counters.snapshot()
        probes = 0
        for i in range(1, 400, 7):
            assert index.lookup(base + i * step) is not None
            probes += 1
        delta = index.counters.diff(before)
        assert delta["slot_probes"] / probes < 16

    def test_differential_against_oracle(self, moderate_keys, rng):
        index = build(moderate_keys[:1500], strategy="ChaDATS")
        oracle = SortedArrayIndex()
        oracle.bulk_load(moderate_keys[:1500])
        pool = list(moderate_keys[1500:3000])
        live = list(moderate_keys[:1500])
        for step in range(1200):
            action = rng.integers(0, 3)
            if action == 0 and pool:
                k = float(pool.pop())
                index.insert(k)
                oracle.insert(k)
                live.append(k)
            elif action == 1 and live:
                k = float(live.pop(int(rng.integers(0, len(live)))))
                assert index.delete(k) == oracle.delete(k)
            elif live:
                k = float(live[int(rng.integers(0, len(live)))])
                assert index.lookup(k) == oracle.lookup(k)
        assert len(index) == len(oracle)


class TestRangeQuery:
    def test_range_matches_oracle(self, moderate_keys):
        index = build(moderate_keys[:2000], strategy="ChaB")
        lo = float(np.quantile(moderate_keys[:2000], 0.4))
        hi = float(np.quantile(moderate_keys[:2000], 0.5))
        expected = [(k, k) for k in moderate_keys[:2000] if lo <= k <= hi]
        assert index.range_query(lo, hi) == expected

    def test_range_on_empty(self):
        assert ChameleonIndex().range_query(0, 1) == []

    def test_range_includes_inserted_keys(self, uniform_keys):
        index = build(uniform_keys[:200])
        mid = (float(uniform_keys[10]) + float(uniform_keys[11])) / 2
        index.insert(mid)
        hits = [k for k, _ in index.range_query(float(uniform_keys[10]), float(uniform_keys[11]))]
        assert mid in hits

    def test_range_covers_out_of_interval_inserts(self, uniform_keys):
        """Keys clamped into edge leaves must still answer range queries."""
        index = build(uniform_keys[:200])
        below = float(uniform_keys[0]) - 1e9
        above = float(uniform_keys[199]) + 1e9
        index.insert(below)
        index.insert(above)
        low_hits = [k for k, _ in index.range_query(below - 1, below + 1)]
        high_hits = [k for k, _ in index.range_query(above - 1, above + 1)]
        assert below in low_hits
        assert above in high_hits


class TestStructureAccessors:
    def test_height_and_nodes(self, skewed_keys):
        index = build(skewed_keys, strategy="ChaB")
        max_h, avg_h = index.height_stats()
        assert 1 <= avg_h <= max_h <= 5
        assert index.node_count() >= 1
        assert index.size_bytes() > 0

    def test_error_stats_bounded_by_conflict_degree(self, skewed_keys):
        index = build(skewed_keys, strategy="ChaB")
        max_e, avg_e = index.error_stats()
        assert avg_e <= max_e

    def test_items_yields_everything(self, uniform_keys):
        index = build(uniform_keys[:300])
        assert sorted(k for k, _ in index.items()) == sorted(uniform_keys[:300].tolist())

    def test_empty_accessors(self):
        index = ChameleonIndex()
        assert index.size_bytes() == 0
        assert index.node_count() == 0
        assert index.height_stats() == (0, 0.0)
        assert len(index) == 0


class TestHLevelEntries:
    def test_entries_cover_all_keys(self, moderate_keys):
        index = build(moderate_keys[:2000], strategy="ChaB")
        entries = index.h_level_entries()
        assert entries
        from repro.core.node import walk_leaves

        covered = 0
        for _, parent, rank in entries:
            child = parent.children[rank]
            covered += sum(leaf.n_keys for leaf in walk_leaves(child))
        assert covered == 2000

    def test_ids_are_unique(self, moderate_keys):
        index = build(moderate_keys[:2000], strategy="ChaB")
        ids = [e[0] for e in index.h_level_entries()]
        assert len(ids) == len(set(ids))

    def test_single_leaf_root_has_no_entries(self):
        index = build(np.array([1.0, 2.0]))
        assert index.h_level_entries() == []


class TestRebuildSubtree:
    def test_rebuild_preserves_content(self, skewed_keys):
        index = build(skewed_keys[:2000], strategy="ChaB")
        before = sorted(k for k, _ in index.items())
        for _, parent, rank in index.h_level_entries():
            index.rebuild_subtree(parent, rank)
        after = sorted(k for k, _ in index.items())
        assert before == after
        for k in skewed_keys[:2000:13]:
            assert index.lookup(float(k)) == k

    def test_rebuild_never_regresses_measured_cost(self, skewed_keys):
        from repro.core.costs import measured_structure_cost

        index = build(skewed_keys[:2000], strategy="ChaB")
        config = index.config
        for _, parent, rank in index.h_level_entries():
            before = measured_structure_cost(parent.children[rank], config)
            index.rebuild_subtree(parent, rank)
            after = measured_structure_cost(parent.children[rank], config)
            w = config.w_query, config.w_memory
            assert (
                w[0] * after[0] + w[1] * after[1]
                <= w[0] * before[0] + w[1] * before[1] + 1e-9
            )


class TestWithLockManager:
    def test_operations_work_under_lock_manager(self, moderate_keys):
        manager = IntervalLockManager()
        index = ChameleonIndex(strategy="ChaB", lock_manager=manager)
        index.bulk_load(moderate_keys[:1000])
        for k in moderate_keys[:1000:29]:
            assert index.lookup(float(k)) == k
        new_key = float(moderate_keys[1000])
        index.insert(new_key)
        assert index.lookup(new_key) == new_key
        assert index.delete(new_key)
        assert index.counters.lock_acquisitions > 0

    def test_locked_lookup_before_load_raises_typed_error(self):
        manager = IntervalLockManager()
        index = ChameleonIndex(strategy="ChaB", lock_manager=manager)
        with pytest.raises(EmptyIndexError):
            index.lookup(1.0)
        with pytest.raises(EmptyIndexError):
            index.peek(1.0)
        assert manager.stuck_intervals() == []


def _split_stream():
    """A UDEN base plus a locally skewed insert wave that splits a leaf,
    with mixed present/absent lookups and deletes of loaded keys."""
    keys = load_dataset("UDEN", 2000, seed=18)
    lo, hi = float(keys.min()), float(keys.max())
    rng = np.random.default_rng(43)
    heavy = np.unique(
        lo + 0.3 * (hi - lo) + 0.01 * (hi - lo) * rng.lognormal(0.0, 2.0, 900) / 200.0
    )
    lookups = np.concatenate([rng.choice(keys, 300), rng.uniform(lo, hi, 300)])
    deletes = rng.choice(keys, 200, replace=False)
    return keys, heavy, lookups, deletes


def _without_lock_traffic(delta):
    delta.pop("lock_acquisitions")
    delta.pop("lock_waits", None)
    return delta


class TestLockedCostEqualsUnlocked:
    """A query lock adds lock traffic and nothing else: a locked op walks
    the upper levels once, then continues below the lock boundary, so
    node hops and model evaluations equal the unlocked descent's."""

    def _scalar_delta(self, lock):
        keys, heavy, lookups, deletes = _split_stream()
        manager = IntervalLockManager(debug_asserts=True) if lock else None
        index = build(keys, lock_manager=manager)
        before = index.counters.snapshot()
        got = [index.lookup(float(k)) for k in lookups]
        for k in heavy.tolist():
            index.insert(k)
        got += [index.lookup(float(k)) for k in heavy[::7]]
        got += [index.delete(float(k)) for k in deletes]
        delta = index.counters.diff(before)
        assert index.verify_integrity().ok
        return index, got, delta

    def test_scalar_stream_counts_equal(self):
        plain, plain_got, plain_delta = self._scalar_delta(lock=False)
        locked, locked_got, locked_delta = self._scalar_delta(lock=True)
        assert plain_delta["splits"] > 0  # the stream really split a leaf
        assert plain_delta["lock_acquisitions"] == 0
        assert locked_delta["lock_acquisitions"] > 0
        assert locked_got == plain_got
        assert _without_lock_traffic(locked_delta) == _without_lock_traffic(plain_delta)
        assert sorted(locked.items()) == sorted(plain.items())
        assert locked.lock_manager.race_report() == []

    def test_locked_batch_with_split_counts_equal(self):
        """The grouped insert re-descends the keys after a split from the
        group's boundary, not the root, and still matches the scalar cost."""
        keys, heavy, _, deletes = _split_stream()
        index = build(keys, lock_manager=IntervalLockManager(debug_asserts=True))
        before = index.counters.snapshot()
        for i in range(0, heavy.size, 512):
            index.insert_batch(heavy[i : i + 512])
        index.delete_batch(deletes)
        batch_delta = _without_lock_traffic(index.counters.diff(before))
        plain = build(keys)
        before = plain.counters.snapshot()
        for k in heavy.tolist():
            plain.insert(k)
        for k in deletes.tolist():
            plain.delete(k)
        write_delta = _without_lock_traffic(plain.counters.diff(before))
        assert write_delta["splits"] > 0
        assert batch_delta == write_delta
        assert sorted(index.items()) == sorted(plain.items())
        assert index.verify_integrity().ok


NON_FINITE = [math.nan, math.inf, -math.inf]


class TestInvalidKeys:
    """Non-finite keys fail at the API boundary with a typed error."""

    @pytest.mark.parametrize("bad", NON_FINITE, ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("op", ["lookup", "insert", "delete", "peek"])
    @pytest.mark.parametrize("locked", [False, True], ids=["plain", "locked"])
    def test_scalar_ops_reject(self, moderate_keys, op, bad, locked):
        manager = IntervalLockManager() if locked else None
        index = build(moderate_keys[:500], lock_manager=manager)
        before = index.counters.snapshot()
        with pytest.raises(InvalidKeyError):
            getattr(index, op)(bad)
        assert index.counters.snapshot() == before  # rejected before any work
        assert len(index) == 500

    @pytest.mark.parametrize("bad", NON_FINITE, ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("op", ["lookup_batch", "insert_batch", "delete_batch"])
    @pytest.mark.parametrize("size", [3, 64], ids=["grouped", "fused"])
    def test_batch_ops_reject_whole_batch(self, moderate_keys, op, bad, size):
        index = build(moderate_keys[:500])
        fresh = [float(k) + 0.5 for k in moderate_keys[:size]]
        batch = fresh[:-1] + [bad]
        with pytest.raises(InvalidKeyError):
            getattr(index, op)(batch)
        assert len(index) == 500
        assert all(index.lookup(k) is None for k in fresh[:-1])

    def test_is_a_value_error(self):
        assert issubclass(InvalidKeyError, ValueError)
