from __future__ import annotations

import numpy as np
import pytest

from cfcoherency import unwrap_phase

OMEGA_B = 2.0 * np.pi * 60.0


class TestUnwrapPhase:
    def test_single_wrap(self):
        out = unwrap_phase([3.0, -3.0])
        assert out[0] == 3.0
        assert out[1] == pytest.approx(2 * np.pi - 3.0)

    def test_no_wrap_unchanged(self):
        out = unwrap_phase([0.0, 0.1, 0.2])
        assert np.allclose(out, [0.0, 0.1, 0.2])

    def test_synchronous_ramp_recovered(self):
        # phase(t) = omega_base * t sampled at 1 ms, wrapped into (-pi, pi];
        # unwrapping must restore the affine ramp to machine precision
        t = np.arange(100) * 1e-3
        ramp = OMEGA_B * t
        wrapped = np.mod(ramp + np.pi, 2 * np.pi) - np.pi
        out = unwrap_phase(wrapped)
        assert np.max(np.abs(out - ramp)) < 1e-12

    def test_successive_differences_bounded(self):
        rng_vals = np.cumsum(np.linspace(-3.0, 3.0, 41))
        wrapped = np.mod(rng_vals + np.pi, 2 * np.pi) - np.pi
        out = unwrap_phase(wrapped)
        d = np.diff(out)
        assert np.all(d > -np.pi) and np.all(d < np.pi)
