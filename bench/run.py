"""ghostbc pipeline benchmark.

Run from the root of a checkout:

    python3 bench/run.py --workload flower-283 --seed 1 --seconds 40 --trace 0

prints an information line (raw unit and reference seconds, sample counts,
failures, digest drift) and, as the last line, the result object
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics with ``--trace 1``.  Workloads,
their reasons and reference outputs are in ``bench/workloads.json``; the
layer each metric measures and the end-to-end metric it should move are in
``bench/layers.json``.  ``--write-reference`` runs one unit and stores its
outputs as the workload's reference.
"""

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

# One BLAS thread: the pipeline's dense work is thousands of tiny SVDs, for
# which threading only adds noise.  Set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)

    if not (SRC / "ghostbc" / "__init__.py").is_file():
        print(f"error: no ghostbc sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import ghostbc
    import harness

    if Path(ghostbc.__file__).resolve().parent != SRC / "ghostbc":
        print(f"error: imported ghostbc from {ghostbc.__file__}, not {SRC}", file=sys.stderr)
        return 2
    workloads = harness.load_workloads()
    if args.workload not in workloads:
        print(f"error: unknown workload {args.workload!r}; pick one of {sorted(workloads)}",
              file=sys.stderr)
        return 2
    wl = workloads[args.workload]

    work_dir = OUT / f"run-{os.getpid()}"
    try:
        if args.write_reference:
            ref = harness.write_reference(wl, work_dir)
            print(json.dumps(ref, indent=2))
            return 0
        result = harness.run_benchmark(
            wl, seed=args.seed, seconds=args.seconds, trace=bool(args.trace),
            src=SRC, work_dir=work_dir,
        )
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    print(json.dumps({"info": result.pop("info")}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
