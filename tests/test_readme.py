"""README's Library example runs as written.

The example documents the public signatures, so a change to them that
leaves the example stale fails here.
"""

import re
from pathlib import Path

import numpy as np

from ghostbc import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs():
    # the first python block of README, the Library section's
    block = re.search(r"^```python\n(.*?)^```", README.read_text(), flags=re.MULTILINE | re.DOTALL).group(1)
    namespace = {}
    exec(compile(block, str(README), "exec"), namespace)
    assert namespace["errors"].linf < 1e-6
    # u = x is reproduced by the scheme and the boundary rows
    assert np.abs(namespace["u"] - namespace["cls"].active_coords()[:, 0]).max() < 1e-8
    # the S1 form closes the band and gives the command line's level
    cfg = cli.RunConfig(benchmark="flower", strategy="S1", n=96)
    level = cli.execute_level(cfg, cfg.make_benchmark(), 96)
    assert len(namespace["rows1"]) == level.classification.n_ghost == 499
    assert namespace["errors1"] == level.errors
