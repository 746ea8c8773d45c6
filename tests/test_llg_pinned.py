"""Seeded LLG outputs pinned byte for byte.

Every value below was captured before the macrospin and multispin solvers
were collapsed onto one Heun stepper and one switching loop. A change to
the integrator's operation order, the RNG draw order or the switching
loop's bookkeeping moves at least one of them. Floats are compared with
``==``; state arrays by the sha256 of their float64 bytes.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np
import pytest

from repro.core.intra import IntraCellModel
from repro.device import MTJDevice, PAPER_EVAL_DEVICE
from repro.llg import (
    HeunIntegrator,
    MacrospinParameters,
    MultiMacrospinFL,
    SwitchingSimulation,
    equilibrium_ensemble,
    make_fl_grid,
    relax,
    simulate_switching_field,
)
from repro.llg.simulate import default_time_step, thermal_initial_tilt


def _digest(array):
    data = np.ascontiguousarray(array, dtype=np.float64).tobytes()
    return hashlib.sha256(data).hexdigest()


def _device():
    return MTJDevice(PAPER_EVAL_DEVICE)


def _params():
    return MacrospinParameters.from_device(_device())


def _switching_times():
    sim = SwitchingSimulation(_params(), current=90e-6)
    result = sim.run(n_runs=6, max_time=10e-9, rng=3)
    return tuple(result.times.tolist())


def _relax_state():
    m = relax(_params(), np.array([0.6, 0.0, 0.8]), duration=1e-9,
              rng=4, hz_applied=-2e4, thermal=True)
    return tuple(m.tolist())


def _equilibrium_digest():
    samples = equilibrium_ensemble(_params(), n_samples=8,
                                   burn_in_time=0.2e-9,
                                   sample_time=0.2e-9, n_snapshots=2,
                                   rng=2)
    return samples.shape, _digest(samples)


def _heun_trajectory_digest():
    params = _params()
    integrator = HeunIntegrator(params, default_time_step(params),
                                h_applied=np.array([1e3, 0.0, -5e3]),
                                a_j=5e3, thermal=True)
    rng = np.random.default_rng(1)
    m = thermal_initial_tilt(params, rng, 4, around=-1.0)
    states = []
    for _ in range(200):
        m = integrator.step(m, rng)
        states.append(m)
    return _digest(np.stack(states))


def _multispin(hz_profile):
    device = _device()
    params = MacrospinParameters.from_device(device,
                                             use_activation_volume=False)
    grid = make_fl_grid(device.stack.radius, n_across=5)
    return MultiMacrospinFL(params, grid,
                            device.stack.free_layer.thickness,
                            hz_profile=hz_profile)


def _multispin_switch_times():
    intra = IntraCellModel()
    ecd = _device().params.ecd

    def profile(pos):
        pts = np.column_stack([pos, np.zeros(pos.shape[0])])
        return intra.field_map(ecd, pts)[:, 2]

    times = []
    for hz_profile in (None, profile):
        fl = _multispin(hz_profile)
        current = 3.0 * fl.total_critical_current
        times.append(fl.switch(current, max_time=10e-9, rng=5))
    return tuple(times)


def _switching_field(psi):
    return simulate_switching_field(_params(), psi, n_steps=10)


OUTPUTS = {
    "switching_times": _switching_times,
    "relax": _relax_state,
    "equilibrium_ensemble": _equilibrium_digest,
    "switching_field_45": lambda: _switching_field(math.pi / 4),
    "switching_field_30": lambda: _switching_field(math.pi / 6),
    "heun_trajectory": _heun_trajectory_digest,
    "multispin_switch_times": _multispin_switch_times,
}

GOLDEN = {
    "switching_times": (
        1.2900615534546173e-09, 2.71194487278803e-09,
        2.422704881636499e-09, 1.8544634830910125e-09,
        4.94395613193967e-09, 2.743940447030456e-09),
    "relax": (-0.007436611693686014, -0.041536668511249625,
              0.9991093043183532),
    "equilibrium_ensemble": (
        (16, 3),
        "2626cab892db764266e1b41985f30ace33a1d3d536e01e1e82f66b5e34164d2e"),
    "switching_field_45": 177494.68549426063,
    "switching_field_30": 221868.3568678258,
    "heun_trajectory":
        "f1db54a434f6e2bb193801b6fb602e2e64874e2de600097c36c306eb910c0e53",
    "multispin_switch_times": (1.553829037430007e-09,
                               1.457117895370745e-09),
}


class TestPinnedLLGOutputs:
    @pytest.mark.parametrize("name", sorted(OUTPUTS))
    def test_output(self, name):
        assert OUTPUTS[name]() == GOLDEN[name]

    def test_angle_ensemble_matches_scalar_ramps(self):
        """Ramping both angles as one ensemble gives each angle's
        scalar result bit for bit."""
        fields = _switching_field(np.array([math.pi / 4, math.pi / 6]))
        assert fields.tolist() == [GOLDEN["switching_field_45"],
                                   GOLDEN["switching_field_30"]]
