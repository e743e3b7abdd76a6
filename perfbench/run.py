"""Chameleon full-stack benchmark: one workload, one seed, one result line.

Run from the root of a checkout::

    python3 perfbench/run.py --workload face_point --seed 1 --seconds 8 --trace 0

Human-readable metric lines come first; the last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics`` (end-to-end metrics with ``--trace 0``, per-layer metrics with
``--trace 1``). The exit code is 0 only when every checked output was
correct. See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("face_point", "osmc_batch_ingest", "face_burst")


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=8.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no src/repro under {ROOT}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import harness

    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    result = harness.run(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    extra = result.pop("extra")
    problems = result.pop("problems")
    for name, m in result["metrics"].items():
        print(f"{args.workload} {name} {m['value']:.6g} {m['unit']}")
    for name, (value, unit) in extra.items():
        print(f"{args.workload} {name} {value:.6g} {unit}")
    for text in problems:
        print(f"{args.workload} problem: {text}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
