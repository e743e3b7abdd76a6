"""Workload definitions and seeded input generation.

Every input a run feeds the index -- the bulk-load keys and the whole
operation stream -- is generated here from ``--seed`` before the stack is
built, so the program only ever sees generated inputs and the same seed
always gives the same inputs. ``--seconds`` sizes the stream: a workload
issues ``seconds * steps_per_second`` steps, where ``steps_per_second`` is
calibrated so that the measured phase lasts about that long on a 2-core
x86 host. A fixed amount of work (rather than "as many ops as fit") keeps
every structural count, the WAL tail replayed by recovery and the set of
rebuilt subtrees identical from run to run for a given seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.datasets import registry
from repro.workloads.ycsb import DEFAULT_ZIPF_THETA, zipfian_ranks

LOOKUP, INSERT, DELETE, LOOKUP_BATCH, INSERT_BATCH, DELETE_BATCH = range(6)

#: Operation names by step kind, as the public API spells them.
KIND_NAMES = (
    "lookup", "insert", "delete", "lookup_batch", "insert_batch", "delete_batch",
)

#: Inserts a hot region of face_burst receives, and how many of the
#: region's most recent keys a lookup chooses from. A region's steps are
#: its inserts, one lookup per insert, and a delete per fourth insert.
BURST_LEN = 600
BURST_RECENT = 32
REGION_STEPS = 2 * BURST_LEN + BURST_LEN // 4

#: FACE size for the two full-stack workloads. A ChaDATS build spends ~5 s
#: in the DARE genetic search whatever the key count, so 50k keys (not the
#: 100k a single build could afford) keeps three builds per run plus the
#: measured phase inside the benchmark's per-run time budget.
FACE_KEYS = 50_000
OSMC_KEYS = 100_000
BATCH_KEYS = 1024


@dataclass(frozen=True)
class Spec:
    """Stack configuration and traffic shape of one workload."""

    name: str
    dataset: str
    n_keys: int
    strategy: str
    fsync: str
    #: Interval lock manager plus a synchronously driven SupervisedRetrainer.
    locks: bool
    checkpoint_every_records: int
    #: Steps between ``SupervisedRetrainer.sweep_once`` calls, counted from
    #: the end of the warm-up (0: no sweeps).
    sweep_every: int
    #: Stream steps per second of ``--seconds``.
    steps_per_second: float
    #: Builds per untraced run; ``setup_s`` is their median.
    setups: int


SPECS = {
    spec.name: spec
    for spec in (
        Spec(
            name="face_point",
            dataset="FACE", n_keys=FACE_KEYS, strategy="ChaDATS", fsync="group",
            locks=True, checkpoint_every_records=10_000, sweep_every=7000,
            steps_per_second=19_000.0, setups=3,
        ),
        Spec(
            name="osmc_batch_ingest",
            dataset="OSMC", n_keys=OSMC_KEYS, strategy="ChaB", fsync="always",
            locks=False, checkpoint_every_records=200, sweep_every=0,
            steps_per_second=55.0, setups=11,
        ),
        Spec(
            name="face_burst",
            dataset="FACE", n_keys=FACE_KEYS, strategy="ChaDATS", fsync="group",
            locks=True, checkpoint_every_records=4000, sweep_every=REGION_STEPS,
            steps_per_second=3000.0, setups=3,
        ),
    )
}


@dataclass
class Inputs:
    """Generated inputs of one run: bulk-load keys plus the step stream.

    Step ``i`` is ``kinds[i]`` applied to ``args[i]``: a float key for the
    scalar kinds, a float64 key array for the batch kinds. Inserts never
    repeat a live key and deletes always name a live key, so no operation
    is expected to fail. Two flat lists rather than a list of step tuples
    keep the harness from adding hundreds of thousands of objects to the
    heap every full garbage collection of the program scans. The first
    ``warmup`` steps bring the traffic to its steady state and are left
    out of the timing statistics.
    """

    spec: Spec
    keys: np.ndarray
    kinds: list[int]
    args: list[Any]
    warmup: int = 0


#: Seed of the bulk-loaded data set and of the lookup popularity ranking.
#: They are fixed per workload, as a SOSD data set or a YCSB key space is:
#: ``--seed`` drives the request stream, so runs with different seeds
#: measure the same structure under different draws of the same traffic.
DATA_SEED = 0


def make_inputs(name: str, seed: int, seconds: float) -> Inputs:
    """Generate the inputs of workload ``name`` for ``seed``."""
    spec = SPECS[name]
    keys = np.array(registry.load(spec.dataset, spec.n_keys, seed=DATA_SEED))
    rng = np.random.default_rng([seed, list(SPECS).index(name)])
    n_steps = seconds * spec.steps_per_second
    if name == "face_burst":
        regions = 1 + max(1, round(n_steps / REGION_STEPS))
        steps, warmup = _burst_steps(keys, rng, regions), REGION_STEPS - BURST_LEN // 4
    elif name == "face_point":
        steps, warmup = _point_steps(keys, rng, max(1, round(n_steps))), 0
    else:
        steps, warmup = _batch_steps(keys, rng, max(1, round(n_steps / 3))), 0
    return Inputs(spec, keys, [k for k, _ in steps], [a for _, a in steps], warmup)


def _fresh_keys(
    rng: np.random.Generator, low: float, high: float, count: int, taken: set[float]
) -> list[float]:
    """``count`` distinct uniform keys in ``[low, high)`` not in ``taken``."""
    out: list[float] = []
    while len(out) < count:
        for k in rng.uniform(low, high, count - len(out)).tolist():
            if k not in taken:
                taken.add(k)
                out.append(k)
    return out


def _point_steps(keys: np.ndarray, rng: np.random.Generator, n: int) -> list[tuple[int, object]]:
    """90% Zipfian lookups (a fifth absent), 5% fresh inserts, 5% deletes."""
    draw = rng.random(n)
    # Popularity rank -> key, scattered over the key space.
    hot = np.random.default_rng(DATA_SEED).permutation(keys)
    targets = hot[zipfian_ranks(len(keys), n, DEFAULT_ZIPF_THETA, rng)].tolist()
    absent = rng.random(n) < 0.2
    successor = {k: s for k, s in zip(keys.tolist(), keys[1:].tolist())}
    taken = set(keys.tolist())
    fresh = iter(_fresh_keys(rng, float(keys[0]), float(keys[-1]), n // 10 + 16, taken))
    doomed = iter(rng.permutation(keys).tolist())
    steps: list[tuple[int, object]] = []
    for i in range(n):
        if draw[i] < 0.90:
            k = targets[i]
            if absent[i] and k in successor:
                k = 0.5 * (k + successor[k])  # strictly between two loaded keys
            steps.append((LOOKUP, k))
        elif draw[i] < 0.95:
            steps.append((INSERT, next(fresh)))
        else:
            steps.append((DELETE, next(doomed)))
    return steps


def _batch_steps(keys: np.ndarray, rng: np.random.Generator, rounds: int) -> list[tuple[int, object]]:
    """Rounds of lookup_batch (60% present), insert_batch and delete_batch."""
    live = keys.tolist()  # every live key; swap-remove keeps sampling O(1)
    taken = set(live)
    low, high = float(keys[0]), float(keys[-1])
    n_present = int(BATCH_KEYS * 0.6)
    steps: list[tuple[int, object]] = []
    for _ in range(rounds):
        present = [live[i] for i in rng.integers(0, len(live), n_present).tolist()]
        absent = _fresh_keys(rng, low, high, BATCH_KEYS - n_present, taken)
        probe = np.array(present + absent)
        steps.append((LOOKUP_BATCH, probe[rng.permutation(BATCH_KEYS)]))
        fresh = _fresh_keys(rng, low, high, BATCH_KEYS, taken)
        steps.append((INSERT_BATCH, np.array(fresh)))
        live.extend(fresh)
        doomed = []
        for u in rng.random(BATCH_KEYS).tolist():
            j = int(u * len(live))
            live[j], live[-1] = live[-1], live[j]
            doomed.append(live.pop())
        steps.append((DELETE_BATCH, np.array(doomed)))
    return steps


def _burst_steps(keys: np.ndarray, rng: np.random.Generator, n_regions: int) -> list[tuple[int, object]]:
    """Hot regions inside single key gaps, each filled by a run of inserts.

    Region ``r`` sits in the middle quarter of one median-width gap between
    two loaded keys -- narrower than one EBH slot of the leaf that owns the
    gap, so its keys pile onto one probe chain. Every insert is followed by
    a lookup of one of the last ``BURST_RECENT`` keys inserted there, and
    while region ``r`` fills, every fourth insert also deletes the oldest
    remaining key of region ``r - 1`` (hot data ages out). Region 0 ages
    nothing out; it is the warm-up.
    """
    gaps = np.diff(keys)
    lo_q, hi_q = np.quantile(gaps, [0.4, 0.6])
    candidates = np.flatnonzero((gaps >= lo_q) & (gaps <= hi_q))
    # Which gaps turn hot is part of the fixed workload, like the data set;
    # the seed draws the keys inserted into them and the lookups.
    chosen = np.random.default_rng(DATA_SEED).permutation(candidates)[:n_regions]
    taken = set(keys.tolist())
    steps: list[tuple[int, object]] = []
    previous: list[float] = []
    for g in chosen.tolist():
        low = float(keys[g]) + 0.375 * float(gaps[g])
        region = _fresh_keys(rng, low, low + 0.25 * float(gaps[g]), BURST_LEN, taken)
        recent = rng.integers(0, BURST_RECENT, BURST_LEN).tolist()
        for j, k in enumerate(region):
            steps.append((INSERT, k))
            steps.append((LOOKUP, region[max(0, j - recent[j])]))
            if j % 4 == 3 and previous:
                steps.append((DELETE, previous[j // 4]))
        previous = region
    return steps
