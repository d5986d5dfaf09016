"""Benchmark of the adnn_energy_lab pipeline; see perfbench/README.md.

Run from the repository root:

    python3 perfbench/run.py --workload fit --seed 0 --seconds 20 --trace 0

The last line of standard output is the result: one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``. The line before
it is a JSON record of the machine, the load and what the run did. With
``--trace 1`` the metrics are the per-layer ones and the spans are written
to ``perfbench/out/``.
"""

import argparse
import json
import os
import sys
from pathlib import Path

# one BLAS/OpenMP thread; this has to happen before numpy is imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORKLOADS = ("fit", "profile", "attack")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "adnn_energy_lab" / "__init__.py").is_file():
        print("perfbench: no package source at %s; run from a checkout of the "
              "repository" % SRC, file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    from harness import run_benchmark

    result, record = run_benchmark(args.workload, args.seed, args.seconds,
                                   args.trace)
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
