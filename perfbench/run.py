"""portvc benchmark: `vc run` + `vc verify` and `vc gen` + `vc run`, in-process.

    python3 perfbench/run.py --workload sparse --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; the program is imported from `src/` there.
With `--trace 0` it prints the end-to-end metrics, with `--trace 1` the
per-layer metrics of a traced pass. The last line of stdout is one JSON
object: `{"correct", "attempted", "failed", "metrics"}`. Details, including
input digests and the traced spans, go to `perfbench/out/`. `--workload all`
runs every workload, each in its own process. The exit code is 0 only if
every op passed the correctness gate.
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from pvbench.workloads import WORKLOADS  # noqa: E402


def _run_all(args) -> int:
    """Each workload in a child process, so each peak RSS is its own."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            result = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
        merged["correct"] = merged["correct"] and result["correct"] and proc.returncode == 0
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
        status = status or proc.returncode
    print(json.dumps(merged))
    return status if merged["correct"] else (status or 1)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "portvc", "cli.py")):
        print(f"error: no portvc sources under {src}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return _run_all(args)
    sys.path.insert(0, src)
    from pvbench import bench

    outcome = bench.run(WORKLOADS[args.workload], args.seed, args.seconds, args.trace,
                        os.path.join(HERE, "out"))
    print("\n".join(outcome.lines))
    print(json.dumps(outcome.result))
    return 0 if outcome.result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
