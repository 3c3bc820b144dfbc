"""Per-layer numbers of one workload, written as JSON, with the tracer's overhead.

    python3 bench/trace.py --workload deep --seed 1 --seconds 15

Runs ``bench/run.py`` twice, one run after the other: untraced, for the
end-to-end metrics, and traced (``--trace 1``), for the per-layer ones.
The tracer's overhead is ``trace.overhead_pct`` of the traced run: its
first verdicts made once more, each traced and untraced, compared.

The file goes to ``--out``, by default ``bench/out/trace-<workload>-<seed>.json``.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def run_once(args, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds),
         "--trace", str(trace)],
        stdout=subprocess.PIPE, check=True)
    return json.loads(proc.stdout.decode().strip().splitlines()[-1])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("arbitrary", "typed", "deep", "cli"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    out = args.out or BENCH / "out" / f"trace-{args.workload}-{args.seed}.json"

    untraced = run_once(args, 0)
    traced = run_once(args, 1)
    doc = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "untraced": untraced,
        "traced": traced,
        "overhead_pct": traced["metrics"]["trace.overhead_pct"]["value"],
    }
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(doc, indent=2) + "\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
