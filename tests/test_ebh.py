"""Unit and property tests for Error Bounded Hashing (Section III/IV-A)."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.baselines.counters import Counters
from repro.baselines.interfaces import DuplicateKeyError
from repro.core import ebh as ebh_mod
from repro.core.ebh import ErrorBoundedHash


def make_ebh(capacity=64, low=0.0, high=1000.0, alpha=131):
    return ErrorBoundedHash(low, high, capacity, alpha=alpha)


class TestConstruction:
    def test_rejects_zero_capacity(self):
        with pytest.raises(ValueError):
            ErrorBoundedHash(0.0, 1.0, 0)

    def test_rejects_inverted_interval(self):
        with pytest.raises(ValueError):
            ErrorBoundedHash(10.0, 5.0, 8)

    def test_starts_empty(self):
        ebh = make_ebh()
        assert len(ebh) == 0
        assert ebh.conflict_degree == 0
        assert ebh.load_factor == 0.0


class TestHomeSlot:
    def test_paper_hash_example(self):
        """P(k) = 131*(10/8*(k-3)) mod 10 over D={3,4,5,6,7,9,11}.

        The paper prints the last prediction as 7, but the stated formula
        yields 131*10 mod 10 = 0 for k=11 (a typo in the paper); the other
        six match exactly.
        """
        ebh = ErrorBoundedHash(3.0, 11.0, 10, alpha=131)
        predicted = [ebh.home_slot(float(k)) for k in (3, 4, 5, 6, 7, 9, 11)]
        assert predicted == [0, 3, 7, 1, 5, 2, 0]

    def test_slot_in_range(self):
        ebh = make_ebh(capacity=17)
        for k in np.linspace(-100, 1100, 60):  # includes out-of-interval keys
            assert 0 <= ebh.home_slot(float(k)) < 17

    def test_degenerate_interval(self):
        ebh = ErrorBoundedHash(5.0, 5.0, 8)
        assert ebh.home_slot(5.0) == 0


class TestInsertLookupDelete:
    def test_roundtrip(self):
        ebh = make_ebh()
        ebh.insert(42.0, "v")
        assert ebh.lookup(42.0) == "v"
        assert len(ebh) == 1

    def test_lookup_missing(self):
        ebh = make_ebh()
        ebh.insert(42.0, "v")
        assert ebh.lookup(43.0) is None

    def test_duplicate_rejected(self):
        ebh = make_ebh()
        ebh.insert(1.0, "a")
        with pytest.raises(DuplicateKeyError):
            ebh.insert(1.0, "b")
        assert ebh.lookup(1.0) == "a"

    def test_delete_roundtrip(self):
        ebh = make_ebh()
        ebh.insert(7.0, "x")
        assert ebh.delete(7.0)
        assert ebh.lookup(7.0) is None
        assert not ebh.delete(7.0)
        assert len(ebh) == 0

    def test_overflow_raises(self):
        ebh = make_ebh(capacity=4)
        for k in (1.0, 2.0, 3.0, 4.0):
            ebh.insert(k, k)
        with pytest.raises(OverflowError):
            ebh.insert(5.0, 5.0)

    def test_dense_conflicting_keys_all_found(self):
        """Keys hashing to nearby slots must stay retrievable via cd."""
        ebh = make_ebh(capacity=128, low=0.0, high=1e9)
        keys = [1000.0 + i for i in range(60)]  # tiny sliver of the interval
        for k in keys:
            ebh.insert(k, k)
        assert all(ebh.lookup(k) == k for k in keys)
        assert ebh.conflict_degree >= 0

    def test_delete_does_not_break_other_lookups(self):
        """EBH scans the full cd window, so deletion needs no tombstones."""
        ebh = make_ebh(capacity=32, low=0.0, high=1e9)
        keys = [5.0 + i * 0.001 for i in range(16)]  # heavy conflicts
        for k in keys:
            ebh.insert(k, k)
        for victim in keys[::2]:
            assert ebh.delete(victim)
        for survivor in keys[1::2]:
            assert ebh.lookup(survivor) == survivor
        for victim in keys[::2]:
            assert ebh.lookup(victim) is None


class TestConflictDegreeInvariant:
    def test_cd_bounds_every_stored_offset(self):
        ebh = make_ebh(capacity=64, low=0.0, high=1e6)
        rng = np.random.default_rng(0)
        for k in np.unique(rng.uniform(0, 1e6, 40)):
            ebh.insert(float(k), k)
        max_offset, _ = ebh.error_stats()
        assert max_offset <= ebh.conflict_degree

    def test_cd_is_zero_without_conflicts(self):
        ebh = make_ebh(capacity=1024, low=0.0, high=1024.0, alpha=1)
        for k in range(0, 100, 10):
            ebh.insert(float(k), k)
        assert ebh.conflict_degree == 0


class TestRehash:
    def test_rehash_preserves_content(self):
        ebh = make_ebh(capacity=32, low=0.0, high=100.0)
        keys = [float(k) for k in range(0, 60, 3)]
        for k in keys:
            ebh.insert(k, k * 2)
        ebh.rehash(128)
        assert ebh.capacity == 128
        assert all(ebh.lookup(k) == k * 2 for k in keys)
        assert len(ebh) == len(keys)

    def test_rehash_can_change_interval(self):
        ebh = make_ebh(capacity=16, low=0.0, high=10.0)
        ebh.insert(5.0, "a")
        ebh.rehash(32, low_key=0.0, high_key=100.0)
        assert ebh.lookup(5.0) == "a"
        assert ebh.high_key == 100.0

    def test_rehash_rejects_too_small(self):
        ebh = make_ebh(capacity=16)
        for k in range(8):
            ebh.insert(float(k), k)
        with pytest.raises(ValueError):
            ebh.rehash(4)

    def test_rehash_counts_retrain_work(self):
        counters = Counters()
        ebh = ErrorBoundedHash(0.0, 100.0, 32, counters=counters)
        for k in range(10):
            ebh.insert(float(k), k)
        ebh.rehash(64)
        assert counters.retrains == 1
        assert counters.retrain_keys == 10


class TestStatsAndIteration:
    def test_sorted_items(self):
        ebh = make_ebh()
        for k in (9.0, 1.0, 5.0):
            ebh.insert(k, k)
        assert [k for k, _ in ebh.sorted_items()] == [1.0, 5.0, 9.0]

    def test_error_stats_empty(self):
        assert make_ebh().error_stats() == (0, 0.0)

    def test_size_bytes_scales_with_capacity(self):
        assert make_ebh(capacity=100).size_bytes() > make_ebh(capacity=10).size_bytes()

    def test_counters_accumulate_probes(self):
        counters = Counters()
        ebh = ErrorBoundedHash(0.0, 100.0, 32, counters=counters)
        ebh.insert(1.0, 1.0)
        before = counters.slot_probes
        ebh.lookup(1.0)
        assert counters.slot_probes > before


class TestPropertyBased:
    @given(
        st.lists(
            st.floats(min_value=0.0, max_value=1e9, allow_nan=False),
            min_size=1,
            max_size=80,
            unique=True,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_model_equivalence_to_dict(self, keys):
        """EBH must behave exactly like a dict for any key set that fits."""
        capacity = max(8, 2 * len(keys))
        ebh = ErrorBoundedHash(min(keys), max(keys) + 1.0, capacity)
        reference = {}
        for k in keys:
            ebh.insert(k, k * 3)
            reference[k] = k * 3
        for k in keys:
            assert ebh.lookup(k) == reference[k]
        assert sorted(dict(ebh.items())) == sorted(reference)
        # Delete half, verify the rest.
        for k in keys[::2]:
            assert ebh.delete(k)
            del reference[k]
        for k in keys:
            assert ebh.lookup(k) == reference.get(k)

    @given(
        st.lists(
            st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
            min_size=2,
            max_size=50,
            unique=True,
        ),
        st.integers(min_value=1, max_value=997),
    )
    @settings(max_examples=40, deadline=None)
    def test_conflict_degree_never_underestimates(self, keys, alpha):
        capacity = max(8, 2 * len(keys))
        ebh = ErrorBoundedHash(min(keys), max(keys) + 1.0, capacity, alpha=alpha)
        for k in keys:
            ebh.insert(k, k)
        max_offset, avg_offset = ebh.error_stats()
        assert max_offset <= ebh.conflict_degree
        assert avg_offset <= max_offset


#: Key pool for the probe-path equivalence streams over the interval
#: [0, 1000): a cluster far narrower than one slot (long probe chains), a
#: cluster at the top of the interval (chains that wrap past slot c-1), and
#: spread keys.
_POOL = (
    [500.0 + i * 1e-3 for i in range(24)]
    + [999.9 + i * 1e-4 for i in range(12)]
    + [float(k) for k in range(7, 1000, 83)]
)
_OPS = ("insert", "insert", "insert", "lookup", "delete", "inflate")


def _probe_stream(capacity, alpha, ops, gather_min, table=ebh_mod._ORDER.size):
    """Run ``ops`` on a fresh leaf with the gather threshold at ``gather_min``
    and the precomputed probe-order table cut to ``table`` positions.

    Returns every result or raised exception type with the counters and
    conflict degree after it, plus the final slot array bytes.
    """
    ebh = ErrorBoundedHash(0.0, 1000.0, capacity, alpha=alpha)
    log = []
    order = ebh_mod._ORDER[:table]
    with (
        mock.patch.object(ebh_mod, "_GATHER_MIN", gather_min),
        mock.patch.object(ebh_mod, "_ORDER", order),
        mock.patch.object(ebh_mod, "_ORDER_LIST", order.tolist()),
    ):
        for kind, i in ops:
            key = _POOL[i]
            try:
                if kind == "insert":
                    out = ebh.insert(key, i)
                elif kind == "lookup":
                    out = ebh.lookup(key)
                elif kind == "delete":
                    out = ebh.delete(key)
                else:
                    # An over-estimated cd keeps every key findable and
                    # exercises the min(cd, c // 2) window cap.
                    ebh.conflict_degree = capacity // 2 + i % 3
                    out = None
            except (DuplicateKeyError, OverflowError) as exc:
                out = type(exc)
            log.append(
                (
                    out,
                    ebh.counters.slot_probes,
                    ebh.counters.model_evals,
                    ebh.conflict_degree,
                )
            )
    return log, ebh._keys.tobytes()


def _clustered(n, then=()):
    return [("insert", i) for i in range(n)] + list(then)


class TestGatheredProbe:
    """Scalar and gathered probe paths are bit-identical."""

    @given(
        st.sampled_from([1, 2, 3, 8, 9, 16, 17, 32, 33]),
        st.sampled_from([1, 131]),
        st.lists(
            st.tuples(st.sampled_from(_OPS), st.integers(0, len(_POOL) - 1)),
            max_size=120,
        ),
    )
    @example(16, 1, _clustered(12, [("insert", 11), ("insert", 3)]))  # dups past 0
    @example(33, 1, _clustered(24, [("insert", 23), ("lookup", 22)]))  # past default
    @example(9, 1, _clustered(9, [("insert", 20), ("lookup", 8)]))  # full, odd
    @example(8, 1, _clustered(8, [("delete", 7), ("insert", 7)]))  # even apex
    @example(17, 1, [("insert", 24 + i) for i in range(12)])  # wrap-around
    @example(33, 1, _clustered(20, [("inflate", 2), ("insert", 21), ("lookup", 0)]))
    @example(32, 131, _clustered(14, [("delete", 5), ("lookup", 5), ("insert", 5)]))
    @settings(max_examples=150, deadline=None)
    def test_threshold_does_not_change_any_observable(self, capacity, alpha, ops):
        # 1000 exceeds every window here: the all-scalar reference.
        scalar = _probe_stream(capacity, alpha, ops, gather_min=1000)
        assert _probe_stream(capacity, alpha, ops, gather_min=0) == scalar
        assert _probe_stream(capacity, alpha, ops, ebh_mod._GATHER_MIN) == scalar
        # Windows that run past the table take their tail from _order().
        assert _probe_stream(capacity, alpha, ops, 2, table=6) == scalar

    def test_long_cluster_charges_full_window(self):
        """A miss scans the whole window; a hit stops at its scan position."""
        counters = Counters()
        ebh = ErrorBoundedHash(0.0, 1000.0, 64, alpha=1, counters=counters)
        keys = [500.0 + i * 1e-3 for i in range(20)]
        for k in keys:
            ebh.insert(k, k)
        assert ebh.conflict_degree == 10
        before = counters.slot_probes
        assert ebh.lookup(501.0) is None
        assert counters.slot_probes - before == 21  # offsets 0..10, both sides
        before = counters.slot_probes
        assert ebh.lookup(keys[-1]) == keys[-1]  # lands at offset +10
        assert counters.slot_probes - before == 20
