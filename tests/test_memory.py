"""Bounded memory: a large link never holds its N x M distance matrix.

The peak is the linking process's own high-water mark, read with `os.wait4`
by a launcher that imports no numpy. A child started from the test process
itself would report the test process's peak instead: a child started by
vfork keeps its parent's high-water mark across exec.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# 8000 x 8000 rows: the distance matrix alone would take 488 MB
LINK = """
import numpy as np
from disjoint_link.data import Dataset, FeatureSchema
from disjoint_link.linkage import link_detailed

rng = np.random.default_rng(0)

def dataset(n, k, name):
    schema = tuple(FeatureSchema(f"x{j}", "numeric") for j in range(k))
    return Dataset(schema, rng.normal(size=(n, k)), np.arange(n) % 2, name)

res = link_detailed(dataset(8000, 6, "d1"), dataset(8000, 10, "d2"), "pca", k=5)
assert res.neighbors_12.neighbors.shape == (8000, 5) and res.neighbors_21.neighbors.shape == (8000, 5)
"""

LAUNCHER = """
import json, os, sys
pid = os.posix_spawn(sys.executable, [sys.executable, "-c", sys.argv[1]], os.environ)
_, status, usage = os.wait4(pid, 0)  # usage covers the child and the pool workers it joined
print(json.dumps([os.waitstatus_to_exitcode(status), usage.ru_maxrss]))
"""

PEAK_MB = 150


def test_large_link_peak_rss_stays_bounded():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    run = subprocess.run([sys.executable, "-c", LAUNCHER, LINK], env=env, capture_output=True, text=True,
                         timeout=120)
    assert run.returncode == 0, run.stderr
    code, maxrss_kb = json.loads(run.stdout)
    assert code == 0, run.stderr
    peak_mb = maxrss_kb / 1024
    print(f"8000 x 8000 pca link: peak RSS {peak_mb:.1f} MB (bound {PEAK_MB} MB)")
    assert peak_mb < PEAK_MB
