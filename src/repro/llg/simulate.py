"""High-level stochastic LLG simulations.

Provides ensemble switching-time simulation (the LLG counterpart of Sun's
``tw``), relaxation runs, and equilibrium sampling used by the
fluctuation-dissipation tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import SimulationError
from ..validation import require_int_in_range, require_positive
from .integrator import HeunIntegrator, switching_steps
from .macrospin import precession_period
from .stt import slonczewski_field


def default_time_step(params, resolution=60.0):
    """A time step resolving the precession in ``Hk`` by ``resolution``."""
    return precession_period(params.hk) / resolution


def thermal_initial_tilt(params, rng, n, around=-1.0):
    """Initial states tilted thermally around ``mz = around``.

    Draws transverse components from the equilibrium Gaussian
    ``<mx^2> = 1/(2 Delta)`` — the standard way to seed STT switching runs
    (a perfectly aligned macrospin feels zero torque).
    """
    sigma = math.sqrt(1.0 / (2.0 * params.delta))
    mx = sigma * rng.standard_normal(n)
    my = sigma * rng.standard_normal(n)
    mz = np.sign(around) * np.sqrt(np.clip(1.0 - mx**2 - my**2, 0.0, 1.0))
    return np.stack([mx, my, mz], axis=-1)


@dataclass
class SwitchingResult:
    """Outcome of an ensemble switching simulation.

    Attributes
    ----------
    times:
        Switching times [s] of the runs that switched.
    n_runs:
        Ensemble size.
    n_switched:
        How many runs crossed the detection threshold.
    """

    times: np.ndarray
    n_runs: int
    n_switched: int

    @property
    def switched_fraction(self):
        """Fraction of the ensemble that switched."""
        return self.n_switched / self.n_runs

    @property
    def mean_time(self):
        """Mean switching time [s] over the switched runs."""
        if self.n_switched == 0:
            raise SimulationError("no run switched; cannot average")
        return float(np.mean(self.times))

    @property
    def std_time(self):
        """Standard deviation of the switching time [s]."""
        if self.n_switched == 0:
            raise SimulationError("no run switched; cannot average")
        return float(np.std(self.times))


class SwitchingSimulation:
    """STT switching of an ensemble of macrospins.

    Parameters
    ----------
    params:
        :class:`~repro.llg.macrospin.MacrospinParameters`.
    current:
        Charge current [A]; positive drives AP -> P.
    hz_applied:
        Constant out-of-plane stray/applied field [A/m].
    dt:
        Time step [s] (default: precession period in ``Hk`` / 60); must
        resolve the precession in ``Hk + |hz_applied|``.
    thermal:
        Include the thermal field (default True).
    """

    def __init__(self, params, current, hz_applied=0.0, dt=None,
                 thermal=True):
        self.params = params
        self.current = float(current)
        self.hz_applied = float(hz_applied)
        self.thermal = thermal
        a_j = slonczewski_field(
            self.current, params.eta, params.ms, params.volume)
        self._integrator = HeunIntegrator(
            params, default_time_step(params) if dt is None else dt,
            h_applied=np.array([0.0, 0.0, self.hz_applied]), a_j=a_j,
            thermal=thermal)
        self.dt = self._integrator.dt

    def run(self, n_runs=64, max_time=100.0e-9, threshold=0.5, rng=None,
            initial_mz=-1.0):
        """Integrate ``n_runs`` macrospins until they cross ``threshold``.

        Parameters
        ----------
        n_runs:
            Ensemble size.
        max_time:
            Simulation horizon [s]; runs that have not switched by then are
            counted as not switched.
        threshold:
            ``mz`` crossing in (0, 1) that defines a switch (sign opposite
            to ``initial_mz``).
        rng:
            Seed or :class:`numpy.random.Generator`.
        initial_mz:
            -1 starts in AP (current drives AP->P), +1 starts in P.

        Returns
        -------
        SwitchingResult
        """
        n_runs = require_int_in_range(n_runs, "n_runs", 1, 1_000_000)
        rng = np.random.default_rng(rng)
        m = thermal_initial_tilt(self.params, rng, n_runs,
                                 around=float(initial_mz))
        steps = switching_steps(
            lambda state: self._integrator.step(state, rng), m,
            lambda state: state[:, 2], self.dt, max_time,
            threshold=threshold, initial_mz=initial_mz)
        switched = steps > 0
        times = steps[switched].astype(float) * self.dt
        return SwitchingResult(times=times, n_runs=n_runs,
                               n_switched=int(np.sum(switched)))


def relax(params, m0, duration, rng=None, hz_applied=0.0, thermal=False,
          dt=None):
    """Relax a state for ``duration`` seconds (no current).

    Returns the final magnetization; with ``thermal=False`` this shows the
    deterministic damped motion toward the easy axis.
    """
    require_positive(duration, "duration")
    rng = np.random.default_rng(rng)
    integrator = HeunIntegrator(
        params, default_time_step(params) if dt is None else dt,
        h_applied=[0.0, 0.0, float(hz_applied)], thermal=thermal)
    return integrator.run(m0, math.ceil(duration / integrator.dt), rng)


def equilibrium_ensemble(params, n_samples=512, burn_in_time=2.0e-9,
                         sample_time=2.0e-9, n_snapshots=8, rng=None,
                         dt=None, around=1.0):
    """Sample thermal-equilibrium magnetizations around one easy direction.

    Runs ``n_samples`` independent macrospins with the thermal field only,
    discards ``burn_in_time``, then collects ``n_snapshots`` snapshots over
    ``sample_time``. Returns an array of shape
    (n_snapshots * n_samples, 3) for statistics such as the equipartition
    check ``<mx^2> = 1/(2 Delta)``.
    """
    rng = np.random.default_rng(rng)
    integrator = HeunIntegrator(
        params, default_time_step(params) if dt is None else dt,
        thermal=True)
    dt = integrator.dt

    m = thermal_initial_tilt(params, rng, n_samples, around=around)
    m = integrator.run(m, int(math.ceil(burn_in_time / dt)), rng)

    snapshots = []
    steps_between = max(1, int(math.ceil(sample_time / dt / n_snapshots)))
    for _ in range(n_snapshots):
        m = integrator.run(m, steps_between, rng)
        snapshots.append(m)
    return np.concatenate(snapshots, axis=0)
