"""Tests for Stoner-Wohlfarth field switching and its LLG validation."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.device import MTJDevice, PAPER_EVAL_DEVICE
from repro.errors import ParameterError, SimulationError
from repro.llg import (
    MacrospinParameters,
    astroid_switching_field,
    simulate_switching_field,
)


@pytest.fixture(scope="module")
def params():
    return MacrospinParameters.from_device(MTJDevice(PAPER_EVAL_DEVICE))


class TestAstroid:
    def test_aligned_field_threshold_is_hk(self):
        assert astroid_switching_field(0.0, 3.7e5) == pytest.approx(
            3.7e5)

    def test_45_degree_minimum_is_half_hk(self):
        assert astroid_switching_field(
            math.pi / 4, 3.7e5) == pytest.approx(0.5 * 3.7e5)

    def test_symmetric_about_45_degrees(self):
        a = astroid_switching_field(math.pi / 6, 3.7e5)
        b = astroid_switching_field(math.pi / 3, 3.7e5)
        assert a == pytest.approx(b, rel=1e-12)

    def test_minimum_at_45_degrees(self):
        angles = np.linspace(0.05, math.pi / 2 - 0.05, 30)
        h = astroid_switching_field(angles, 3.7e5)
        assert np.argmin(h) == pytest.approx(len(angles) // 2, abs=2)

    def test_out_of_range_rejected(self):
        with pytest.raises(ParameterError):
            astroid_switching_field(-0.1, 3.7e5)
        with pytest.raises(ParameterError):
            astroid_switching_field(2.0, 3.7e5)

    def test_vectorized(self):
        angles = np.array([0.0, math.pi / 4, math.pi / 2])
        h = astroid_switching_field(angles, 1.0)
        # cos(pi/2) is not exactly zero in floating point.
        np.testing.assert_allclose(h, [1.0, 0.5, 1.0], rtol=1e-9)


ASTROID_ANGLES = (math.pi / 4, math.pi / 6)


@pytest.fixture(scope="module")
def llg_switching_fields(params):
    """One ramp over both validation angles, ramped as one ensemble."""
    fields = simulate_switching_field(params, np.array(ASTROID_ANGLES),
                                      n_steps=40)
    return dict(zip(ASTROID_ANGLES, fields.tolist()))


class TestLLGValidation:
    @pytest.mark.slow
    def test_llg_matches_astroid_at_45_degrees(self, params,
                                               llg_switching_fields):
        hsw = llg_switching_fields[math.pi / 4]
        expected = astroid_switching_field(math.pi / 4, params.hk)
        assert hsw == pytest.approx(expected, rel=0.10)

    @pytest.mark.slow
    def test_llg_matches_astroid_at_30_degrees(self, params,
                                               llg_switching_fields):
        psi = math.pi / 6
        hsw = llg_switching_fields[psi]
        expected = astroid_switching_field(psi, params.hk)
        assert hsw == pytest.approx(expected, rel=0.10)

    def test_unreachable_ramp_raises(self, params):
        with pytest.raises(SimulationError):
            simulate_switching_field(params, math.pi / 4,
                                     h_max_ratio=0.2, n_steps=5)

    def test_scalar_angle_returns_float(self, params):
        hsw = simulate_switching_field(params, math.pi / 4, n_steps=4,
                                       relax_time=0.5e-9)
        assert type(hsw) is float

    def test_unreachable_ramp_names_the_stuck_angle(self, params):
        with pytest.raises(SimulationError, match="psi=0.100"):
            simulate_switching_field(params, np.array([math.pi / 4, 0.1]),
                                     h_max_ratio=0.6, n_steps=3,
                                     relax_time=0.5e-9)

    def test_angle_validation(self, params):
        with pytest.raises(ParameterError):
            simulate_switching_field(params, 0.0)
