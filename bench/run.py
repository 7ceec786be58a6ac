"""Plan benchmark: one command that runs `se2plan.pipeline.plan()` over a
generated workload and prints every metric by name and unit.

    python3 bench/run.py --workload {baffle,fuzz,field} --seed N --seconds S --trace {0,1}

Run it from the repository root.  With --trace 0 it plans the workload's
corpus in whole passes, back to back in one process (a closed loop with one
client), as many passes as fit in S seconds on the reference machine and at
least one.  It then checks every returned trajectory with an independent
oracle and prints the end-to-end metrics.  With --trace 1 it plans one pass
with spans around every layer boundary and the same pass again untraced, and
prints the per-layer metrics.  The seed sets the order in which each pass
issues the corpus's queries; --corpus generates a held-out corpus.  The last
line of standard output is one JSON object: {"correct", "attempted",
"failed", "metrics"}.
Details (per-plan status and trajectory digest, library versions, spans) go
to bench/out/.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("baffle", "fuzz", "field")

# Plans are single-threaded Python over small arrays; a multi-threaded BLAS
# only contends with the rest of the machine for a second core.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True,
                        help="sets the order in which each pass issues the queries")
    parser.add_argument("--seconds", type=float, required=True,
                        help="sets the pass count: passes of nominal length that fit, at least 1")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corpus", type=int, default=0,
                        help="generate another corpus of maps and queries (held-out checks)")
    parser.add_argument("--queries", type=int, default=None,
                        help="plan only the corpus's first N queries (smoke tests)")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    if args.queries is not None and args.queries < 1:
        parser.error("--queries must be >= 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in THREAD_VARS:  # must precede the first numpy import
        os.environ[var] = "1"
    t0 = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import se2plan.pipeline  # (imports numpy and scipy)
    except ImportError as e:
        print(f"bench: cannot import the planner from {ROOT / 'src'}: {e}", file=sys.stderr)
        return 2
    # an installed copy must not stand in for the checkout's source
    if not Path(se2plan.pipeline.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"bench: imported the planner from {se2plan.pipeline.__file__}, "
              f"not from {ROOT / 'src'}", file=sys.stderr)
        return 2
    import harness

    import_s = time.perf_counter() - t0
    return harness.run(args, import_s, out_dir=BENCH_DIR / "out")


if __name__ == "__main__":
    sys.exit(main())
