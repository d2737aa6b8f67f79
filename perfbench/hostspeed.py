"""A fixed reference task that measures how fast the host runs right now.

The benchmark's host is a couple of vCPUs shared with other tenants.  The
same CPU-bound code runs there at two speeds about 40% apart, and a speed
can hold for minutes, so even the fastest repetition of a 50-s run moves by
that much between runs.  The slow spells hit fresh processes hardest: a loop
timed inside the long-lived parent follows them poorly, while the set-up
part of each child follows its simulation part closely.  So the reference
task is a fresh interpreter too, doing what a child does: it imports numpy,
scipy and a few standard modules, then runs small dense solves with
interpreter work and a growing record of samples.  run.py runs
it before and after every child and divides the child's times by the mean
of the two, which cancels the host's speed and keeps the program's.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time

# Reported times are seconds on a host where one reference task takes
# NOMINAL_S: a child's time times NOMINAL_S over the task's time.
NOMINAL_S = 1.0
TIMEOUT_S = 60

TASK = """
import concurrent.futures, csv, dataclasses, json
import numpy as np
import scipy.cluster.hierarchy, scipy.linalg, scipy.spatial.distance

rng = np.random.default_rng(0)
n = 39
a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)) + n * np.eye(n)
x = np.ones(n, dtype=complex)
record = []
for step in range(3500):
    x = np.linalg.solve(a, 0.5 * (a @ x) + 1.0)
    record.append(np.concatenate([x.real, x.imag]))
    labels = {f"v{k}": float(abs(x[k])) for k in range(8)}
samples = np.stack(record)
assert np.all(np.isfinite(samples)) and len(labels) == 8
"""


def reference_s() -> float:
    """Wall seconds of one reference task, from starting its interpreter to
    its exit."""
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    t0 = time.monotonic()
    subprocess.run(
        [sys.executable, "-c", TASK], env=env, check=True, timeout=TIMEOUT_S,
        stdout=subprocess.DEVNULL,
    )
    return time.monotonic() - t0
