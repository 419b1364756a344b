"""Set-up probe: import ghostbc and build one workload's benchmark.

Usage: ``python3 probe.py <src dir> <RunConfig fields as JSON>``.  Prints one
JSON line with the import and ``RunConfig.make_benchmark`` seconds once the
benchmark is built; the parent process times the whole start-up.
"""

import json
import sys
import time

t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from ghostbc import cli  # noqa: E402

t1 = time.perf_counter()
cli.RunConfig(**json.loads(sys.argv[2])).make_benchmark()
t2 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "build_s": t2 - t1}), flush=True)
