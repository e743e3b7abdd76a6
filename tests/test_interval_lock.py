"""Tests for the Interval Lock protocol (Definition 4, Section V-A)."""

import sys
import threading
import time

import pytest

from repro.baselines.counters import Counters
from repro.core.interval_lock import IntervalLockManager


@pytest.fixture
def manager():
    return IntervalLockManager()


class TestQueryLock:
    def test_reentrant_for_different_queries(self, manager):
        """Multiple query threads share an interval simultaneously."""
        inside = threading.Event()
        release = threading.Event()
        entered = []

        def holder():
            with manager.query_lock((0, 1)):
                inside.set()
                release.wait(timeout=2)

        t = threading.Thread(target=holder, daemon=True)
        t.start()
        assert inside.wait(timeout=2)
        # Another query on the same interval must NOT block.
        start = time.perf_counter()
        with manager.query_lock((0, 1)):
            entered.append(time.perf_counter() - start)
        release.set()
        t.join(timeout=2)
        assert entered[0] < 0.5

    def test_counts_acquisitions(self, manager):
        counters = Counters()
        with manager.query_lock((1,), counters):
            pass
        assert counters.lock_acquisitions == 1
        assert counters.lock_waits == 0


class TestRetrainLock:
    def test_exclusive_against_queries_same_interval(self, manager):
        query_inside = threading.Event()
        query_release = threading.Event()

        def query():
            with manager.query_lock((2,)):
                query_inside.set()
                query_release.wait(timeout=2)

        t = threading.Thread(target=query, daemon=True)
        t.start()
        assert query_inside.wait(timeout=2)
        # Retrain on the same interval must time out while the query runs.
        with manager.retrain_lock((2,), timeout=0.05) as acquired:
            assert not acquired
        query_release.set()
        t.join(timeout=2)
        # Now it acquires.
        with manager.retrain_lock((2,), timeout=1.0) as acquired:
            assert acquired
            assert manager.is_retraining((2,))
        assert not manager.is_retraining((2,))

    def test_different_intervals_do_not_conflict(self, manager):
        """The paper's Fig. 7 scenario: retrain (0,0) while querying (n,1)."""
        with manager.retrain_lock((0, 0)) as acquired:
            assert acquired
            done = threading.Event()

            def query_other():
                with manager.query_lock((5, 1)):
                    done.set()

            t = threading.Thread(target=query_other, daemon=True)
            t.start()
            assert done.wait(timeout=1.0), "query on another interval blocked"
            t.join(timeout=1)

    def test_query_waits_for_retraining(self, manager):
        """A query arriving during a retrain waits, then proceeds."""
        retrain_started = threading.Event()
        query_done = threading.Event()
        counters = Counters()

        def retrainer():
            with manager.retrain_lock((3,)) as acquired:
                assert acquired
                retrain_started.set()
                time.sleep(0.2)

        def query():
            retrain_started.wait(timeout=2)
            with manager.query_lock((3,), counters):
                query_done.set()

        t1 = threading.Thread(target=retrainer, daemon=True)
        t2 = threading.Thread(target=query, daemon=True)
        t1.start()
        t2.start()
        assert query_done.wait(timeout=2)
        t1.join(timeout=2)
        t2.join(timeout=2)
        assert counters.lock_waits == 1

    def test_retrain_excludes_retrain(self, manager):
        with manager.retrain_lock((4,)) as first:
            assert first
            with manager.retrain_lock((4,), timeout=0.05) as second:
                assert not second

    def test_ids_comparison_not_overlap(self, manager):
        """(0,) and (0, 0) are different intervals — IDs compare exactly."""
        with manager.retrain_lock((0,)) as acquired:
            assert acquired
            with manager.retrain_lock((0, 0), timeout=0.2) as other:
                assert other


class TestRetrainLockDeadline:
    def test_timeout_is_a_deadline_not_per_wait(self, manager):
        """Repeated wakeups must not restart the timeout clock.

        A query lock is held for the whole test while another thread pulses
        the interval's condition every 50 ms (standing in for the notify
        storm a stream of short queries produces). With a per-wait timeout
        every pulse would rearm the 0.3 s clock and the retrainer would
        block for as long as the pulses continue; with a monotonic deadline
        it gives up at ~0.3 s total.
        """
        ids = (7,)
        stop_pulsing = threading.Event()
        query_inside = threading.Event()
        query_release = threading.Event()

        def query():
            with manager.query_lock(ids):
                query_inside.set()
                query_release.wait(timeout=5)

        def pulser():
            # Reach into the manager: wake the retrainer's condition without
            # changing the reader count, so its predicate stays blocked.
            state = manager._states[ids]
            while not stop_pulsing.wait(0.05):
                with manager._mutex:
                    state.condition.notify_all()

        t_query = threading.Thread(target=query, daemon=True)
        t_query.start()
        assert query_inside.wait(timeout=2)
        t_pulse = threading.Thread(target=pulser, daemon=True)
        t_pulse.start()
        start = time.perf_counter()
        with manager.retrain_lock(ids, timeout=0.3) as acquired:
            elapsed = time.perf_counter() - start
            assert not acquired
        stop_pulsing.set()
        query_release.set()
        t_query.join(timeout=2)
        t_pulse.join(timeout=2)
        assert 0.25 <= elapsed < 1.0, f"deadline not honoured: {elapsed:.3f}s"

    def test_timeout_skip_is_prompt_under_held_query_lock(self, manager):
        """A busy interval is skipped within ~timeout, not eventually."""
        ids = (8,)
        inside = threading.Event()
        release = threading.Event()

        def query():
            with manager.query_lock(ids):
                inside.set()
                release.wait(timeout=5)

        t = threading.Thread(target=query, daemon=True)
        t.start()
        assert inside.wait(timeout=2)
        start = time.perf_counter()
        with manager.retrain_lock(ids, timeout=0.1) as acquired:
            elapsed = time.perf_counter() - start
            assert not acquired
        release.set()
        t.join(timeout=2)
        assert elapsed < 0.8

    def test_blocked_queries_all_drain_after_retrain(self, manager):
        """Every query parked behind a retrain proceeds once it releases."""
        ids = (6,)
        n_queries = 5
        done = threading.Barrier(n_queries + 1)
        retrain_started = threading.Event()

        def query():
            retrain_started.wait(timeout=2)
            with manager.query_lock(ids):
                pass
            done.wait(timeout=5)

        threads = [
            threading.Thread(target=query, daemon=True)
            for _ in range(n_queries)
        ]
        for t in threads:
            t.start()
        with manager.retrain_lock(ids) as acquired:
            assert acquired
            retrain_started.set()
            time.sleep(0.1)  # let the queries pile up behind the retrain
        done.wait(timeout=5)  # raises BrokenBarrierError if any query hangs
        for t in threads:
            t.join(timeout=2)
            assert not t.is_alive()
        assert manager.active_intervals() == 0


class _CountingCondition(threading.Condition):
    """A condition that counts its ``notify_all`` calls."""

    def __init__(self, lock):
        super().__init__(lock)
        self.notifies = 0

    def notify_all(self):
        self.notifies += 1
        super().notify_all()


def _wait_until(predicate, timeout=2.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.005)
    return True


@pytest.fixture(params=[False, True], ids=["plain", "debug"])
def any_manager(request):
    return IntervalLockManager(debug_asserts=request.param)


class TestQueryGuardWakeups:
    """The slotted query guard wakes exactly the waiters it must."""

    def _retrain_waiters(self, manager, ids):
        with manager._mutex:
            return manager._states[ids].retrain_waiters

    def test_retrainer_acquires_when_last_reader_exits(self, any_manager):
        ids = (11,)
        acquired = threading.Event()

        def retrainer():
            with any_manager.retrain_lock(ids) as ok:  # no timeout: needs a wake-up
                assert ok
                acquired.set()

        t = threading.Thread(target=retrainer, daemon=True)
        with any_manager.query_lock(ids):
            with any_manager.query_lock(ids):
                t.start()
                assert _wait_until(lambda: self._retrain_waiters(any_manager, ids) == 1)
            # One reader still holds the interval.
            assert not acquired.wait(timeout=0.05)
        assert acquired.wait(timeout=2.0), "retrainer missed the last reader's release"
        t.join(timeout=2)
        assert self._retrain_waiters(any_manager, ids) == 0
        assert any_manager.stuck_intervals() == []

    def test_reader_resumes_when_retrain_releases(self, any_manager):
        ids = (12,)
        entered = threading.Event()

        def reader():
            with any_manager.query_lock(ids):
                entered.set()

        t = threading.Thread(target=reader, daemon=True)
        with any_manager.retrain_lock(ids) as ok:
            assert ok
            t.start()
            assert not entered.wait(timeout=0.05)
        assert entered.wait(timeout=2.0), "reader missed the retrain's release"
        t.join(timeout=2)
        assert any_manager.stuck_intervals() == []

    def test_reader_release_without_waiter_does_not_notify(self, any_manager):
        ids = (13,)
        with any_manager.query_lock(ids):
            pass
        state = any_manager._states[ids]
        state.condition = _CountingCondition(any_manager._mutex)
        for _ in range(20):
            with any_manager.query_lock(ids):
                with any_manager.query_lock(ids):
                    pass
        assert state.condition.notifies == 0
        # A waiting retrainer is woken by the last release, and only then.
        acquired = threading.Event()

        def retrainer():
            with any_manager.retrain_lock(ids) as ok:
                assert ok
                acquired.set()

        t = threading.Thread(target=retrainer, daemon=True)
        with any_manager.query_lock(ids):
            t.start()
            assert _wait_until(lambda: self._retrain_waiters(any_manager, ids) == 1)
        assert acquired.wait(timeout=2.0)
        t.join(timeout=2)
        assert state.condition.notifies >= 1
        assert any_manager.stuck_intervals() == []

    def test_exception_in_body_releases_the_reader(self, any_manager):
        ids = (14,)
        counters = Counters()
        with pytest.raises(RuntimeError):
            with any_manager.query_lock(ids, counters):
                raise RuntimeError("body failed")
        assert counters.lock_acquisitions == 1
        assert any_manager.stuck_intervals() == []
        assert any_manager.held_modes(ids) == ()
        with any_manager.retrain_lock(ids, timeout=0.1) as ok:
            assert ok
        assert any_manager.race_report() == []


class TestGuardStress:
    def test_no_lost_wakeup_under_fast_switching(self, any_manager):
        """Readers and untimed retrainers on one interval, with the
        interpreter switching threads every few microseconds: every thread
        finishes (a missed notify would park a retrainer for good) and no
        reader ever overlaps a retrain."""
        ids = (15,)
        overlaps = []
        barrier = threading.Barrier(5)

        def reader():
            barrier.wait(timeout=5)
            for _ in range(300):
                with any_manager.query_lock(ids):
                    if any_manager._states[ids].retraining:
                        overlaps.append("reader saw a retrain")

        def retrainer():
            barrier.wait(timeout=5)
            for _ in range(100):
                with any_manager.retrain_lock(ids) as ok:
                    assert ok
                    if any_manager._states[ids].readers:
                        overlaps.append("retrain saw a reader")

        threads = [threading.Thread(target=reader, daemon=True) for _ in range(3)]
        threads += [threading.Thread(target=retrainer, daemon=True) for _ in range(2)]
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads), "a thread never woke"
        assert overlaps == []
        assert any_manager.stuck_intervals() == []
        assert any_manager.race_report() == []


class TestDiagnostics:
    def test_active_intervals(self, manager):
        assert manager.active_intervals() == 0
        with manager.query_lock((9,)):
            assert manager.active_intervals() == 1
        assert manager.active_intervals() == 0

    def test_is_retraining_unknown_interval(self, manager):
        assert not manager.is_retraining((42,))


class TestStress:
    def test_many_threads_no_deadlock(self, manager):
        """Interleaved queries and retrains across intervals terminate."""
        errors = []
        barrier = threading.Barrier(8)

        def worker(worker_id):
            try:
                barrier.wait(timeout=5)
                for i in range(50):
                    ids = (worker_id % 4,)
                    if worker_id % 2 == 0:
                        with manager.query_lock(ids):
                            pass
                    else:
                        with manager.retrain_lock(ids, timeout=0.5):
                            pass
            except Exception as exc:  # pragma: no cover - failure reporting
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(i,), daemon=True)
            for i in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
            assert not t.is_alive(), "worker deadlocked"
        assert not errors
