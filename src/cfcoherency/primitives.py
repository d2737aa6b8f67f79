"""Shared pieces of complex-frequency arithmetic: the magnitude guard and
phase unwrapping.

Clarke vectors are plain complex numbers in per unit.  The complex frequency
(CF) of a Clarke vector x̄(t) is its logarithmic time derivative; both parts
are normalized by the base angular frequency, so a vector rotating at
synchronous speed has CF exactly 0 + j1 pu.
"""

from __future__ import annotations

import numpy as np

# Below this magnitude the log-derivative is considered undefined.
MAGNITUDE_GUARD = 1e-9


def unwrap_phase(samples) -> np.ndarray:
    """Remove 2*pi jumps from a sampled phase sequence.

    The first sample is kept as-is and every successive difference is mapped
    into (-pi, pi), which is lossless as long as the true sample-to-sample
    phase change stays below pi in magnitude.
    """
    s = np.asarray(samples, dtype=float)
    if s.ndim != 1:
        raise ValueError("unwrap_phase expects a 1-D sequence")
    if s.size <= 1:
        return s.copy()
    d = np.diff(s)
    d = np.mod(d + np.pi, 2.0 * np.pi) - np.pi
    out = np.empty_like(s)
    out[0] = s[0]
    out[1:] = s[0] + np.cumsum(d)
    return out
