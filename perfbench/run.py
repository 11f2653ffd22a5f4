#!/usr/bin/env python3
"""Benchmark of codistill's collaborative training and checkpoint evaluation.

Run from the repository root:

    python3 perfbench/run.py --workload train-full --seed 1 --seconds 30 --trace 0

Workloads: train-full, train-ce, eval (see perfbench/README.md). With
--trace 0 the last line of standard output is a JSON object with the
end-to-end metrics; with --trace 1 it carries the per-layer split instead.
The program is imported from ./src of the same checkout, never from an
installed copy; without it the benchmark exits with code 2.
"""

import os
import sys

# the program is single-core by design; pin the BLAS pool before numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORKLOADS = ("train-full", "train-ce", "eval")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="length of the timed loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "codistill" / "__init__.py").is_file():
        print(f"error: no codistill sources at {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import workloads

    result = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace), HERE / "out")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
