"""Error Bounded Hashing (EBH) — Chameleon's leaf-node model.

An EBH node is a circular slot array addressed by the paper's Eq. 2:

    P(k) = alpha * (c / (uk - lk) * (k - lk))  mod  c

Hash collisions are resolved by probing outward from the home slot; the node
tracks its conflict degree ``cd`` (Definition 2's maximum offset), which
bounds every lookup to the window [P(k) - cd, P(k) + cd]. Because lookups
scan that bounded window exhaustively, deletion can simply clear a slot — no
tombstones and no probe-chain repair — which is also why EBH retraining needs
no sorting (Section VI-C4).

Capacity follows Theorem 1: ``c >= (n - 1) / (-ln(1 - tau))`` for a desired
collision probability tau, adaptively enlarged when inserts push the load
factor past the configured maximum.

Storage is a ``float64`` slot array with a NaN empty-sentinel plus an
object array for values, so the batch entry points (:meth:`lookup_batch`,
:meth:`delete_batch`) resolve a whole key vector with one Eq. 2
vectorisation and one window-gather comparison. Scalar and batch paths
share the same backing store and increment the same counters by the same
totals (see docs/cost_model.md).

A single key's scan follows the shared offset table ``_ORDER`` (0, +1, -1,
+2, -2, ...), so the probes it charges are its scan position count. The
scalar operations probe offsets 0.._GATHER_MIN one slot at a time and
finish longer windows with one gather over the slot array: a key deep in
a locally skewed cluster costs a few numpy calls instead of hundreds of
interpreted probes, with counters, layout and raises unchanged.
"""

from __future__ import annotations

import math
from typing import Any, Iterator, Sequence

import numpy as np

from ..baselines.counters import Counters
from ..baselines.interfaces import DuplicateKeyError
from ..obs import metrics as obs_metrics
from ..obs import trace as obs_trace

#: Below this batch size the vectorised window gather costs more than the
#: scalar probe loop; both paths count identically, so the switch is purely
#: a wall-clock decision.
_BATCH_MIN = 8

#: Rehashes at or below this live-key count run the re-placement on
#: plain lists instead of ndarray gathers/scatters — numpy's fixed per-call
#: overhead dominates at load-trigger leaf sizes. Purely a wall-clock
#: switch; both paths are counter- and layout-identical.
_REHASH_SMALL_N = 160

#: Scalar probes inspect offsets 0.._GATHER_MIN one slot at a time; longer
#: windows are finished with one numpy gather (docs/cost_model.md has the
#: measurement). Purely a wall-clock switch: both paths count identically.
#: The scalar head reads ``_ORDER_LIST``, so it must stay below 4096.
_GATHER_MIN = 8


def _interleaved(lo: int, hi: int) -> np.ndarray:
    """Probe offsets of scan positions ``lo..hi-1``: 0, +1, -1, +2, -2, ..."""
    positions = np.arange(lo, hi, dtype=np.int64)
    offsets = (positions + 1) >> 1
    return np.where(positions & 1, offsets, -offsets)


#: The outward probe order: scan position p from home slot h inspects slot
#: ``(h + _ORDER[p]) % c``. Offset o sits at positions 2o-1 (+o) and 2o
#: (-o), so offsets 0..o span :meth:`ErrorBoundedHash._span` positions and
#: a full ring c positions. On an even ring the apex's -c/2 entry
#: (position c) repeats +c/2; every scan stops before it. Windows longer
#: than the table (cd above 4096) take their tail from :func:`_order`.
_ORDER = _interleaved(0, 1 << 13)
#: ``_ORDER`` as Python ints, for the scalar probe heads.
_ORDER_LIST: list[int] = _ORDER.tolist()


def _order(lo: int, hi: int) -> np.ndarray:
    """``_ORDER[lo:hi]``, computed when it runs past the table."""
    return _ORDER[lo:hi] if hi <= _ORDER.size else _interleaved(lo, hi)


def _nearest_free(occupied: bytearray, home: int) -> tuple[int, int]:
    """``(slot, offset)`` of the first free slot an outward scan meets.

    One forward and one backward byte search (each wrapping once) find the
    nearest free slot on either side of ``home``; at equal offsets the scan
    reaches ``+o`` first. ``occupied`` must hold a free slot.
    """
    cap = len(occupied)
    up = occupied.find(0, home)
    if up < 0:
        up = occupied.find(0) + cap
    down = occupied.rfind(0, 0, home)
    if down < 0:
        down = occupied.rfind(0) - cap
    if up - home <= home - down:
        return up % cap, up - home
    return down % cap, home - down


class ErrorBoundedHash:
    """One EBH leaf: hash-addressed key/value slots with bounded offset.

    Args:
        low_key: interval lower bound (inclusive) — the paper's lk.
        high_key: interval upper bound — the paper's uk. Must be > low_key
            unless the node holds at most one distinct key.
        capacity: slot count c (use
            :meth:`ChameleonConfig.theorem1_capacity`).
        alpha: hash factor (paper example: 131).
        counters: shared structural-cost counters.
    """

    __slots__ = ("low_key", "high_key", "capacity", "alpha", "_keys", "_values",
                 "n_keys", "conflict_degree", "counters")

    def __init__(
        self,
        low_key: float,
        high_key: float,
        capacity: int,
        alpha: int = 131,
        counters: Counters | None = None,
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        if high_key < low_key:
            raise ValueError("high_key must be >= low_key")
        self.low_key = float(low_key)
        self.high_key = float(high_key)
        self.capacity = int(capacity)
        self.alpha = int(alpha)
        self._keys: np.ndarray = np.full(self.capacity, np.nan, dtype=np.float64)
        self._values: np.ndarray = np.empty(self.capacity, dtype=object)
        self.n_keys = 0
        self.conflict_degree = 0
        self.counters = counters if counters is not None else Counters()

    # -- hashing -------------------------------------------------------------

    def _raw_home_slot(self, key: float) -> int:
        """Eq. 2 without counter traffic — statistics/diagnostics paths."""
        span = self.high_key - self.low_key
        if span <= 0.0:
            return 0
        scaled = self.capacity * (key - self.low_key) / span
        return int(math.floor(self.alpha * scaled)) % self.capacity

    def home_slot(self, key: float) -> int:
        """Eq. 2: the predicted slot for ``key`` (counted as query work)."""
        self.counters.model_evals += 1
        return self._raw_home_slot(key)

    def _raw_home_slots(self, keys: np.ndarray) -> np.ndarray:
        """Vectorised Eq. 2, bit-identical to :meth:`_raw_home_slot`."""
        span = self.high_key - self.low_key
        if span <= 0.0:
            return np.zeros(keys.shape, dtype=np.int64)
        scaled = self.capacity * (keys - self.low_key) / span
        return np.floor(self.alpha * scaled).astype(np.int64) % self.capacity

    # -- probe geometry ------------------------------------------------------

    def _window_limit(self) -> int:
        """Largest distinct probe offset: min(cd, c // 2).

        Beyond ``c // 2`` the ring wraps and ``(home + o) % c`` revisits
        slots that ``(home - (c - o)) % c`` already probed, so offsets are
        capped there — every ring slot is still reachable exactly once.
        """
        return min(self.conflict_degree, self.capacity // 2)

    def _span(self, offset: int) -> int:
        """Scan positions (= slot probes) covering offsets 0..``offset``.

        Two slots per nonzero offset, except the apex ``c / 2`` of an even
        ring, where ``+o`` and ``-o`` coincide (as they do at offset 0).
        """
        return 2 * offset + (0 if offset and 2 * offset == self.capacity else 1)

    def _find(self, key: float) -> tuple[int, int]:
        """Scan the cd window outward for ``key``: ``(slot, probes)``.

        ``slot`` is -1 on a miss. Counts the model eval and the probes.
        Offsets 0.._GATHER_MIN are probed one by one, so a hit near home
        stays cheap; the rest of the window is one gather whose first
        match sits at the scan position the loop would have reached.
        """
        home = self.home_slot(key)
        keys = self._keys
        if keys[home] == key:  # most keys of a bulk-loaded leaf sit at home
            self.counters.slot_probes += 1
            return home, 1
        cap = self.capacity
        n = self._span(self._window_limit())
        head = min(n, 2 * _GATHER_MIN + 1)
        for pos in range(1, head):
            slot = (home + _ORDER_LIST[pos]) % cap
            if keys[slot] == key:
                self.counters.slot_probes += pos + 1
                return slot, pos + 1
        if head < n:
            offsets = _order(head, n)
            match = keys.take(offsets + home, mode="wrap") == key
            pos = int(match.argmax())
            if match[pos]:
                self.counters.slot_probes += head + pos + 1
                return (home + int(offsets[pos])) % cap, head + pos + 1
        self.counters.slot_probes += n
        return -1, n

    # -- operations ----------------------------------------------------------

    def lookup(self, key: float) -> Any | None:
        """Find ``key`` within the conflict-degree window, else None."""
        slot, probes = self._find(key)
        if obs_metrics.ACTIVE is not None:
            obs_metrics.ACTIVE.observe("chameleon_probe_length_slots", probes)
        return None if slot < 0 else self._values[slot]

    def peek(self, key: float) -> Any | None:
        """:meth:`lookup` without the probe-length metric (same counters)."""
        slot, _ = self._find(key)
        return None if slot < 0 else self._values[slot]

    def insert(self, key: float, value: Any) -> None:
        """Place ``key`` at the nearest free slot to its home slot.

        The outward scan covers the whole cd window (a duplicate can only
        sit there) and then stops at the end of the first offset holding a
        free slot; the key lands in the first free slot scanned. Short
        windows run the scalar loop over offsets 0.._GATHER_MIN; otherwise,
        or when that head holds no free slot, the scan continues in
        gathered chunks that double in length.

        Raises:
            DuplicateKeyError: if the key is already stored.
            OverflowError: if the node is full (callers expand first).
        """
        cap = self.capacity
        if self.n_keys >= cap:
            raise OverflowError("EBH node is full; expand before inserting")
        home = self.home_slot(key)
        keys = self._keys
        cd = self.conflict_degree
        # _span(_window_limit()) inlined: bulk loads run this per key.
        window = self._span(cd if 2 * cd <= cap else cap >> 1)
        head = 2 * _GATHER_MIN + 1
        free = slot = -1
        probes = 0
        if window <= head:
            stop = head if head < cap else cap
            for pos, offset in enumerate(_ORDER_LIST):
                if pos == stop:
                    break
                stored = keys[(home + offset) % cap]
                if stored == key:
                    self.counters.slot_probes += pos + 1
                    raise DuplicateKeyError(f"key already present: {key!r}")
                if free < 0 and stored != stored:
                    free, slot = pos, (home + offset) % cap
                    # Charge through the end of this offset (its -o slot
                    # comes next unless the ring ends) and the cd window.
                    stop = pos + 1 + (pos & 1)
                    if stop < window:
                        stop = window
                    elif stop > cap:
                        stop = cap
            probes = stop
        if free < 0:
            scanned = probes
            hi = min(cap, max(window, scanned) + 2 * _GATHER_MIN + 2)
            while free < 0:
                if scanned >= cap:
                    self.counters.slot_probes += cap
                    raise OverflowError("EBH node is full; expand before inserting")
                offsets = _order(scanned, hi)
                stored_arr = keys.take(offsets + home, mode="wrap")
                if scanned < window:
                    dup = stored_arr[: window - scanned] == key
                    pos = int(dup.argmax())
                    if dup[pos]:
                        self.counters.slot_probes += scanned + pos + 1
                        raise DuplicateKeyError(f"key already present: {key!r}")
                empty = np.isnan(stored_arr)
                pos = int(empty.argmax())
                if empty[pos]:
                    free = scanned + pos
                    slot = (home + int(offsets[pos])) % cap
                scanned, hi = hi, min(cap, 2 * hi)
            probes = max(window, self._span((free + 1) >> 1))
        self.counters.slot_probes += probes
        keys[slot] = key
        self._values[slot] = value
        self.n_keys += 1
        free_offset = (free + 1) >> 1
        if free_offset > cd:
            self.conflict_degree = free_offset

    def delete(self, key: float) -> bool:
        """Clear ``key``'s slot; return True if the key was present."""
        slot, _ = self._find(key)
        if slot < 0:
            return False
        self._keys[slot] = np.nan
        self._values[slot] = None
        self.n_keys -= 1
        return True

    # -- batch operations ------------------------------------------------------

    def _find_batch(
        self, karr: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Vectorised cd-window search for a key vector.

        One Eq. 2 vectorisation plus one window-gather comparison per probe
        side. Returns ``(hit, slots, probes)`` where ``hit`` marks found
        keys, ``slots`` holds each hit's slot (undefined for misses), and
        ``probes`` counts, per key, exactly the slot inspections the scalar
        outward scan would have performed (match at ``+o`` costs ``2o``
        probes — ``1`` at ``o == 0`` — match at ``-o`` costs ``2o + 1``,
        and a miss scans the whole deduplicated window).
        """
        m = karr.size
        cap = self.capacity
        limit = self._window_limit()
        homes = self._raw_home_slots(karr)
        store = self._keys

        plus_offs = np.arange(limit + 1, dtype=np.int64)
        plus_slots = (homes[:, None] + plus_offs[None, :]) % cap
        plus_match = store[plus_slots] == karr[:, None]
        plus_any = plus_match.any(axis=1)
        plus_o = plus_match.argmax(axis=1)

        minus_offs = np.arange(1, limit + 1, dtype=np.int64)
        minus_offs = minus_offs[2 * minus_offs != cap]  # dedup the ring apex
        if minus_offs.size:
            minus_slots = (homes[:, None] - minus_offs[None, :]) % cap
            minus_match = store[minus_slots] == karr[:, None]
            minus_any = minus_match.any(axis=1)
            minus_col = minus_match.argmax(axis=1)
            minus_o = minus_offs[minus_col]
        else:
            minus_slots = np.zeros((m, 0), dtype=np.int64)
            minus_any = np.zeros(m, dtype=bool)
            minus_col = np.zeros(m, dtype=np.int64)
            minus_o = np.zeros(m, dtype=np.int64)

        # Keys are unique in an EBH node, so at most one side matches.
        probes = np.full(m, self._span(limit), dtype=np.int64)
        probes[minus_any] = 2 * minus_o[minus_any] + 1
        probes[plus_any] = np.where(plus_o[plus_any] == 0, 1, 2 * plus_o[plus_any])

        hit = plus_any | minus_any
        rows = np.arange(m)
        slots = np.where(
            plus_any,
            plus_slots[rows, plus_o],
            minus_slots[rows, np.minimum(minus_col, max(minus_slots.shape[1] - 1, 0))]
            if minus_slots.shape[1]
            else 0,
        )
        return hit, slots, probes

    def lookup_batch(self, keys: "np.ndarray | Sequence[float]") -> list[Any | None]:
        """Vectorised :meth:`lookup` over a key vector.

        Increments the same counters by the same totals as looking every
        key up one at a time; the result list is positionally aligned with
        ``keys``.
        """
        karr = np.ascontiguousarray(keys, dtype=np.float64)
        m = karr.size
        if m == 0:
            return []
        if m < _BATCH_MIN:
            return [self.lookup(k) for k in karr.tolist()]
        self.counters.model_evals += m
        hit, slots, probes = self._find_batch(karr)
        self.counters.slot_probes += int(probes.sum())
        if obs_metrics.ACTIVE is not None:
            obs_metrics.ACTIVE.observe_many("chameleon_probe_length_slots", probes.tolist())
        out = np.full(m, None, dtype=object)
        out[hit] = self._values[slots[hit]]
        return list(out)

    def insert_batch(
        self,
        keys: "np.ndarray | Sequence[float]",
        values: "Sequence[Any] | None" = None,
    ) -> None:
        """Vectorised :meth:`insert` over a key vector, in stream order.

        One Eq. 2 vectorisation computes every home slot; maximal runs of
        collision-free keys (home slot empty, no earlier batch key sharing
        it) are placed with one scatter, and only the colliding residue
        falls back to the scalar probe loop — so probe totals, conflict
        degree, and the final slot array are bit-identical to inserting
        one key at a time. ``values=None`` stores each key as its own
        value, matching the index convention.

        Batches containing duplicates (of stored keys or within the batch)
        and batches that would overflow run the scalar loop wholesale so
        the raise lands after exactly the preceding keys, as the scalar
        stream would.
        """
        karr = np.ascontiguousarray(keys, dtype=np.float64)
        m = karr.size
        if values is not None and len(values) != m:
            raise ValueError(
                f"keys and values length mismatch: {m} != {len(values)}"
            )
        if m == 0:
            return
        if (
            m < _BATCH_MIN
            or self.n_keys + m > self.capacity
            or np.unique(karr).size < m
            or self._find_batch(karr)[0].any()
        ):
            for i, k in enumerate(karr.tolist()):
                self.insert(k, k if values is None else values[i])
            return
        homes_all = self._raw_home_slots(karr)
        store = self._keys
        pos = 0
        while pos < m:
            homes = homes_all[pos:]
            w = self._span(self._window_limit())
            free = np.isnan(store[homes])
            # Only the first key aimed at each home slot is collision-free;
            # later ones must probe (and may raise the conflict degree).
            first = np.zeros(homes.size, dtype=bool)
            first[np.unique(homes, return_index=True)[1]] = True
            good = free & first
            n_good = int(good.size if good.all() else np.argmin(good))
            if n_good:
                seg = homes[:n_good]
                store[seg] = karr[pos : pos + n_good]
                if values is None:
                    # Scalar inserts store the python float key itself;
                    # match that type, not np.float64.
                    vals_np = self._values
                    for j, s in enumerate(seg.tolist()):
                        vals_np[s] = float(karr[pos + j])
                else:
                    # Element-wise object writes: sequence-typed values must
                    # land as single slots, never broadcast by numpy.
                    vals_np = self._values
                    for j, s in enumerate(seg.tolist()):
                        vals_np[s] = values[pos + j]
                self.n_keys += n_good
                self.counters.model_evals += n_good
                self.counters.slot_probes += n_good * w
                pos += n_good
            if pos < m:
                k = float(karr[pos])
                self.insert(k, k if values is None else values[pos])
                pos += 1

    def delete_batch(self, keys: "np.ndarray | Sequence[float]") -> list[bool]:
        """Vectorised :meth:`delete` over a key vector.

        Falls back to the scalar loop when the batch contains duplicate
        keys (the second occurrence must observe the first one's clear).
        Counter totals match the scalar loop exactly either way.
        """
        karr = np.ascontiguousarray(keys, dtype=np.float64)
        m = karr.size
        if m == 0:
            return []
        if m < _BATCH_MIN or np.unique(karr).size < m:
            return [self.delete(k) for k in karr.tolist()]
        self.counters.model_evals += m
        hit, slots, probes = self._find_batch(karr)
        self.counters.slot_probes += int(probes.sum())
        hit_slots = slots[hit]
        self._keys[hit_slots] = np.nan
        self._values[hit_slots] = None
        self.n_keys -= int(hit.sum())
        return list(map(bool, hit))

    # -- maintenance -----------------------------------------------------------

    @property
    def load_factor(self) -> float:
        """n / c."""
        return self.n_keys / self.capacity if self.capacity else 1.0

    def _live_slots(self) -> np.ndarray:
        """Indices of occupied slots, in slot order."""
        return np.flatnonzero(~np.isnan(self._keys))

    def items(self) -> Iterator[tuple[float, Any]]:
        """Live (key, value) pairs in slot order (unsorted)."""
        keys = self._keys
        values = self._values
        for i in self._live_slots().tolist():
            yield float(keys[i]), values[i]

    def sorted_items(self) -> list[tuple[float, Any]]:
        """Live pairs sorted by key (range queries / rebuilds).

        One vectorised argsort over the live slots — keys are unique, so
        sorting by key alone reproduces the old sort-by-pair order.
        """
        live = self._live_slots()
        order = np.argsort(self._keys[live], kind="stable")
        ordered = live[order]
        return list(zip(self._keys[ordered].tolist(), self._values[ordered].tolist()))

    def rehash(self, new_capacity: int, low_key: float | None = None,
               high_key: float | None = None, refit: bool = False) -> None:
        """Rebuild in place at a new capacity (and optionally new interval).

        No sorting is required — this is the property Fig. 14 credits for
        Chameleon's low retraining time. The live pairs are re-placed in
        slot order with one Eq. 2 pass and an occupancy simulation of the
        scalar probe loop: counter totals, the conflict degree and the
        final slot layout are bit-identical to re-inserting them one by
        one with :meth:`insert`.

        Args:
            new_capacity: slot count after the rebuild.
            low_key/high_key: explicit new model interval.
            refit: when True, refit the model interval to the live keys'
                span (keeps the hash flat as inserts drift the key range).
        """
        if new_capacity < self.n_keys:
            raise ValueError("new capacity below live key count")
        # Typical load-trigger rehashes move a few dozen keys; below
        # _REHASH_SMALL_N the re-placement skips every intermediate ndarray
        # (gather, home vector, scatter) and runs the same simulation on
        # plain lists — numpy's fixed per-call overhead dominates at that
        # size. Both branches are bit-identical in counters and layout.
        small = self.n_keys <= _REHASH_SMALL_N
        if small:
            kl = self._keys.tolist()
            vl = self._values.tolist()
            live_keys: list[float] = []
            live_vals: list[Any] = []
            for i, k in enumerate(kl):
                if k == k:
                    live_keys.append(k)
                    live_vals.append(vl[i])
            n_live = len(live_keys)
            if refit and n_live >= 2:
                k_min = min(live_keys)
                k_max = max(live_keys)
                if k_max > k_min:
                    low_key = k_min
                    high_key = k_max + (k_max - k_min) / n_live
        else:
            live = self._live_slots()
            live_key_arr = self._keys[live]
            live_values = self._values[live]
            n_live = int(live.size)
            if refit and n_live >= 2:
                k_min = float(live_key_arr.min())
                k_max = float(live_key_arr.max())
                if k_max > k_min:
                    low_key = k_min
                    high_key = k_max + (k_max - k_min) / n_live
        self.capacity = int(new_capacity)
        if low_key is not None:
            self.low_key = float(low_key)
        if high_key is not None:
            self.high_key = float(high_key)
        self._keys = np.full(self.capacity, np.nan, dtype=np.float64)
        self._values = np.empty(self.capacity, dtype=object)
        self.n_keys = 0
        self.conflict_degree = 0
        self.counters.retrains += 1
        self.counters.retrain_keys += n_live
        if obs_trace.ACTIVE is not None:
            obs_trace.ACTIVE.event(
                "ebh.rehash", {"capacity": self.capacity, "n_keys": n_live}
            )
        if obs_metrics.ACTIVE is not None:
            obs_metrics.ACTIVE.inc("chameleon_leaf_rehash_total")
        if n_live == 0:
            return
        # Re-placement: one Eq. 2 pass for the home slots, then the
        # scalar outward scan replayed on an occupancy bitmap. The array is
        # freshly empty, so a scan meets no duplicate and ends at the first
        # free slot, charged through the cd window — same probe totals,
        # same cd evolution, same final slot per key.
        cap = self.capacity
        if not small:
            homes = self._raw_home_slots(live_key_arr).tolist()
        elif self.high_key > self.low_key:
            span = self.high_key - self.low_key
            alpha, low = self.alpha, self.low_key
            homes = [int(math.floor(alpha * (cap * (k - low) / span))) % cap for k in live_keys]
        else:
            homes = [0] * n_live
        occupied = bytearray(cap)
        slots: list[int] = []
        cd = 0
        window = self._span(cd)
        total_probes = 0
        for home in homes:
            if occupied[home]:
                slot, offset = _nearest_free(occupied, home)
                if offset > cd:
                    cd = offset
                    window = self._span(cd)
            else:
                slot = home
            total_probes += window
            occupied[slot] = 1
            slots.append(slot)
        if small:
            for slot, k, v in zip(slots, live_keys, live_vals):
                self._keys[slot] = k
                self._values[slot] = v
        else:
            self._keys[slots] = live_key_arr
            self._values[slots] = live_values
        self.n_keys = n_live
        self.conflict_degree = cd
        self.counters.model_evals += n_live
        self.counters.slot_probes += total_probes

    # -- statistics -------------------------------------------------------------

    def offset_of(self, slot: int) -> int:
        """Circular distance between a stored key's slot and its home slot.

        A statistics accessor, not query work: routes through the
        counter-neutral :meth:`_raw_home_slot` so diagnostics never perturb
        the cost model (RL007).
        """
        key = self._keys[slot]
        if math.isnan(key):
            raise ValueError("slot is empty")
        home = self._raw_home_slot(float(key))
        direct = abs(slot - home)
        return min(direct, self.capacity - direct)

    def error_stats(self) -> tuple[int, float]:
        """(max offset, mean offset) over stored keys — Table V errors.

        Vectorised over the slot array; counter-neutral like
        :meth:`offset_of`.
        """
        live = self._live_slots()
        if live.size == 0:
            return 0, 0.0
        homes = self._raw_home_slots(self._keys[live])
        direct = np.abs(live - homes)
        offsets = np.minimum(direct, self.capacity - direct)
        return int(offsets.max()), float(offsets.mean())

    def size_bytes(self) -> int:
        """Modelled C++ footprint: 16 bytes per slot plus a 48-byte header."""
        return 16 * self.capacity + 48

    def __len__(self) -> int:
        return self.n_keys
