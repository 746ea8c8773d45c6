"""Tests for the stochastic LLG macrospin solver."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.device import MTJDevice, PAPER_EVAL_DEVICE
from repro.errors import ParameterError
from repro.llg import (
    HeunIntegrator,
    MacrospinParameters,
    SwitchingSimulation,
    effective_field,
    equilibrium_ensemble,
    llgs_rhs,
    relax,
    slonczewski_field,
    stt_critical_current,
    thermal_field_sigma,
)
from repro.llg.simulate import default_time_step, thermal_initial_tilt


@pytest.fixture
def params():
    return MacrospinParameters.from_device(MTJDevice(PAPER_EVAL_DEVICE))


class TestParameters:
    def test_delta_matches_device(self, params):
        # Activation volume makes the macrospin Delta equal the measured
        # Delta0 = 45.5.
        assert params.delta == pytest.approx(45.5, rel=1e-6)

    def test_geometric_volume_option(self):
        device = MTJDevice(PAPER_EVAL_DEVICE)
        geo = MacrospinParameters.from_device(
            device, use_activation_volume=False)
        assert geo.volume == pytest.approx(device.fl_volume)
        assert geo.delta > 45.5

    def test_moment(self, params):
        assert params.moment == pytest.approx(params.ms * params.volume)


class TestThresholds:
    def test_llg_threshold_equals_eq2(self, params):
        # The macrospin instability current must equal the paper's Eq. 2
        # intrinsic Ic0 (same identity, independent derivation).
        device = MTJDevice(PAPER_EVAL_DEVICE)
        assert stt_critical_current(params) == pytest.approx(
            device.ic0(), rel=1e-9)

    def test_field_shifts_threshold(self, params):
        h = -0.07 * params.hk
        up = stt_critical_current(params, h, "AP->P")
        down = stt_critical_current(params, h, "P->AP")
        base = stt_critical_current(params)
        assert up == pytest.approx(base * 1.07, rel=1e-9)
        assert down == pytest.approx(base * 0.93, rel=1e-9)

    def test_slonczewski_field_at_ic_is_alpha_hk(self, params):
        ic = stt_critical_current(params)
        a_j = slonczewski_field(ic, params.eta, params.ms, params.volume)
        assert a_j == pytest.approx(params.alpha * params.hk, rel=1e-9)


class TestDynamicsDeterministic:
    def test_norm_preserved(self, params):
        integrator = HeunIntegrator(params, default_time_step(params),
                                    thermal=False)
        rng = np.random.default_rng(0)
        m = np.array([0.3, 0.1, math.sqrt(1 - 0.3 ** 2 - 0.1 ** 2)])
        for _ in range(200):
            m = integrator.step(m, rng)
        assert np.linalg.norm(m) == pytest.approx(1.0, rel=1e-12)

    def test_relaxation_to_easy_axis(self, params):
        m0 = np.array([0.6, 0.0, 0.8])
        m = relax(params, m0, duration=20e-9)
        assert m[2] > 0.999

    def test_relaxation_preserves_hemisphere(self, params):
        m0 = np.array([0.6, 0.0, -0.8])
        m = relax(params, m0, duration=20e-9)
        assert m[2] < -0.999

    def test_precession_frequency(self, params):
        """One deterministic precession turn takes 2 pi/(gamma mu0 Hk)."""
        from repro.constants import GYROMAGNETIC_RATIO, MU0
        # Disable damping-dominated drift by using tiny alpha.
        slow = MacrospinParameters(
            ms=params.ms, hk=params.hk, volume=params.volume,
            alpha=1e-4, eta=params.eta)
        dt = default_time_step(slow, resolution=400.0)
        integrator = HeunIntegrator(slow, dt, thermal=False)
        rng = np.random.default_rng(0)
        m = np.array([0.1, 0.0, math.sqrt(1 - 0.01)])
        phases = []
        for _ in range(1200):
            m = integrator.step(m, rng)
            phases.append(math.atan2(m[1], m[0]))
        unwrapped = np.unwrap(phases)
        omega = abs(unwrapped[-1] - unwrapped[0]) / (1200 * dt)
        # Effective field ~ Hk * mz.
        expected = GYROMAGNETIC_RATIO * MU0 * slow.hk * abs(m[2])
        assert omega == pytest.approx(expected, rel=0.02)

    def test_effective_field_shape(self):
        m = np.zeros((4, 3))
        m[:, 2] = 1.0
        h = effective_field(m, 3.7e5, h_applied=np.array([0.0, 0.0, 1e4]))
        assert h.shape == (4, 3)
        np.testing.assert_allclose(h[:, 2], 3.7e5 + 1e4)

    def test_rhs_orthogonal_to_m(self, params):
        m = np.array([0.3, -0.2, 0.93])
        m /= np.linalg.norm(m)
        h = effective_field(m, params.hk)
        rhs = llgs_rhs(m, h, params, a_j=1e3)
        assert abs(np.dot(rhs, m)) < 1e-3 * np.linalg.norm(rhs)


class TestThermal:
    def test_sigma_scaling(self, params):
        s1 = thermal_field_sigma(params, 1e-12)
        s4 = thermal_field_sigma(params, 4e-12)
        assert s1 == pytest.approx(2 * s4)

    def test_initial_tilt_statistics(self, params):
        rng = np.random.default_rng(5)
        m = thermal_initial_tilt(params, rng, 4000, around=-1.0)
        assert np.all(m[:, 2] < 0)
        assert np.mean(m[:, 0] ** 2) == pytest.approx(
            1 / (2 * params.delta), rel=0.1)

    @pytest.mark.slow
    def test_equipartition(self, params):
        samples = equilibrium_ensemble(params, n_samples=256, rng=2)
        mx2 = float(np.mean(samples[:, 0] ** 2))
        assert mx2 == pytest.approx(1 / (2 * params.delta), rel=0.25)


class TestSwitching:
    def test_switches_above_threshold(self, params):
        sim = SwitchingSimulation(params, current=90e-6)
        result = sim.run(n_runs=24, max_time=40e-9, rng=3)
        assert result.switched_fraction > 0.9
        assert 0.1e-9 < result.mean_time < 40e-9

    def test_no_deterministic_switch_below_threshold(self, params):
        sim = SwitchingSimulation(params, current=20e-6, thermal=False)
        result = sim.run(n_runs=4, max_time=10e-9, rng=4)
        assert result.n_switched == 0

    def test_higher_current_faster(self, params):
        lo = SwitchingSimulation(params, current=80e-6).run(
            n_runs=24, max_time=60e-9, rng=5)
        hi = SwitchingSimulation(params, current=140e-6).run(
            n_runs=24, max_time=60e-9, rng=5)
        assert hi.mean_time < lo.mean_time

    @pytest.mark.slow
    def test_inverse_tw_linear_in_overdrive(self, params):
        """Sun's precessional law: 1/tw grows linearly with I - Ic."""
        currents = np.array([85e-6, 110e-6, 135e-6])
        rates = []
        for current in currents:
            res = SwitchingSimulation(params, current=current).run(
                n_runs=48, max_time=80e-9, rng=11)
            rates.append(1.0 / res.mean_time)
        rates = np.array(rates)
        # Linear fit quality: residual below 10 % of the range.
        coeffs = np.polyfit(currents, rates, 1)
        fit = np.polyval(coeffs, currents)
        residual = np.max(np.abs(fit - rates)) / (rates.max()
                                                  - rates.min())
        assert coeffs[0] > 0
        assert residual < 0.1

    def test_bad_initial_mz(self, params):
        sim = SwitchingSimulation(params, current=90e-6)
        with pytest.raises(ParameterError):
            sim.run(n_runs=2, initial_mz=0.5, rng=0)

    @pytest.mark.parametrize("kwargs, name", [
        ({"threshold": -1.0}, "threshold"),
        ({"threshold": 0.0}, "threshold"),
        ({"threshold": 1.0}, "threshold"),
        ({"threshold": 1.5}, "threshold"),
        ({"max_time": 0.0}, "max_time"),
        ({"max_time": -1e-9}, "max_time"),
        ({"initial_mz": 0.0}, "initial_mz"),
    ])
    def test_bad_switching_inputs(self, params, kwargs, name):
        sim = SwitchingSimulation(params, current=90e-6)
        with pytest.raises(ParameterError, match=name):
            sim.run(n_runs=2, rng=0, **kwargs)

    def test_unresolved_dt_rejected_up_front(self, params):
        # 5e-11 s is 1.5 steps per precession period: the run would
        # alias the precession and report no switching at all.
        with pytest.raises(ParameterError, match="dt"):
            SwitchingSimulation(params, current=90e-6, dt=5e-11)
        with pytest.raises(ParameterError, match="dt"):
            relax(params, np.array([0.6, 0.0, 0.8]), 1e-9, dt=5e-11)

    def test_applied_field_shortens_the_resolved_period(self, params):
        # 12 steps per period in Hk alone, but 6 in Hk + |Hz| = 2 Hk.
        dt = default_time_step(params, resolution=12.0)
        SwitchingSimulation(params, current=90e-6, dt=dt)
        with pytest.raises(ParameterError, match="dt"):
            SwitchingSimulation(params, current=90e-6, dt=dt,
                                hz_applied=params.hk)

    def test_result_statistics_require_switches(self, params):
        sim = SwitchingSimulation(params, current=20e-6, thermal=False)
        result = sim.run(n_runs=2, max_time=5e-9, rng=0)
        from repro.errors import SimulationError
        with pytest.raises(SimulationError):
            _ = result.mean_time
