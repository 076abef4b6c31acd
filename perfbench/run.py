"""Run the benchmark: ``python3 perfbench/run.py --workload NAME --seed N
--seconds S --trace 0|1`` from the repository root.

Each workload runs in a fresh Python process with the BLAS thread
count pinned to one, so OpenBLAS cannot spread a factorization over
cores the machine shares. The last line of standard output is the
result object (``correct``, ``attempted``, ``failed``, ``metrics``);
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer ones. ``--workload all`` runs every workload in turn and
ends with one object whose metric names carry the workload as prefix.
See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("sweep", "lprr", "online", "service")
#: a workload process that outlives this is killed and the run fails
TIMEOUT_S = 170


def _run_one(root: Path, env: dict, name: str, args) -> "tuple[int, dict | None]":
    command = [
        sys.executable, "-m", "perfbench.worker", "--workload", name,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    try:
        done = subprocess.run(
            command, cwd=root, env=env, stdout=subprocess.PIPE, timeout=TIMEOUT_S,
            text=True, check=False,
        )
    except subprocess.TimeoutExpired:
        print(f"workload {name} exceeded {TIMEOUT_S} s", file=sys.stderr)
        return 1, None
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        print(f"workload {name} exited with code {done.returncode}", file=sys.stderr)
        return done.returncode or 1, None
    for line in lines:
        print(line, flush=True)
    return 0, json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run unwinds, so ``subprocess.run`` kills and reaps its worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")

    root = Path(__file__).resolve().parents[1]
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"no repro package under {root / 'src'}: run from a full checkout",
              file=sys.stderr)
        return 2
    env = dict(
        os.environ,
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        PYTHONHASHSEED="0",
        PYTHONPATH=os.pathsep.join([str(root / "src"), str(root)]),
    )
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        code, result = _run_one(root, env, name, args)
        if code != 0:
            return code
        results[name] = result
    if len(names) > 1:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}.{metric}": value
                for name, r in results.items()
                for metric, value in r["metrics"].items()
            },
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
