"""Stochastic Heun integrator for the LLGS equation.

The Heun (predictor-corrector) scheme converges to the Stratonovich
interpretation of the stochastic LLG equation, which is the physically
correct one for the thermal field (Garcia-Palacios & Lazaro, PRB 58, 1998).
Each step draws one thermal field realization, used in both the predictor
and the corrector stage, and renormalizes ``|m| = 1`` afterwards.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import ParameterError, SimulationError
from ..validation import require_in_range, require_positive
from .macrospin import effective_field, llgs_rhs, precession_period
from .thermal_field import thermal_field_sigma

#: Fewest time steps per precession period a time step may give.
MIN_STEPS_PER_PERIOD = 10


def require_resolved_dt(dt, h_max):
    """Return ``dt`` [s] if it gives at least :data:`MIN_STEPS_PER_PERIOD`
    steps per precession period in the field ``h_max`` [A/m], else raise."""
    steps = precession_period(h_max) / require_positive(dt, "dt")
    if steps < MIN_STEPS_PER_PERIOD:
        raise ParameterError(
            f"dt={dt!r} s gives {steps:.1f} steps per precession period; "
            f"need at least {MIN_STEPS_PER_PERIOD}")
    return float(dt)


def heun_step(m, dt, field, params, a_j=0.0, rng=None):
    """One Heun step of the states ``m`` (..., 3) in the field
    ``field(m)`` [A/m], plus one thermal-field draw if ``rng`` is given."""
    h_thermal = None if rng is None else (
        thermal_field_sigma(params, dt) * rng.standard_normal(m.shape))

    def rhs(state):
        h = field(state)
        if h_thermal is not None:
            h = h + h_thermal
        return llgs_rhs(state, h, params, a_j=a_j)

    k1 = rhs(m)
    m_pred = m + dt * k1
    m_pred /= np.linalg.norm(m_pred, axis=-1, keepdims=True)
    k2 = rhs(m_pred)
    m_new = m + 0.5 * dt * (k1 + k2)
    norm = np.linalg.norm(m_new, axis=-1, keepdims=True)
    if not np.isfinite(norm).all() or not norm.all():
        raise SimulationError(
            "LLG state became non-finite; reduce the time step")
    return m_new / norm


def switching_steps(step, m, member_mz, dt, max_time, threshold=0.5,
                    initial_mz=-1.0):
    """1-based step at which each member (leading axis of ``m``) crosses
    ``threshold`` toward ``-initial_mz``, -1 if not by ``max_time`` [s].

    ``step`` and ``member_mz`` (one mz per member) see only the members
    still running; the rest keep their order."""
    require_positive(max_time, "max_time")
    require_in_range(threshold, "threshold", 0.0, 1.0, inclusive=False)
    if initial_mz not in (-1.0, 1.0):
        raise ParameterError(
            f"initial_mz must be -1 or +1, got {initial_mz!r}")
    running = np.arange(m.shape[0])
    switch_step = np.full(m.shape[0], -1, dtype=np.int64)
    for step_idx in range(int(math.ceil(max_time / dt))):
        m = step(m)
        crossed = -initial_mz * member_mz(m) >= threshold
        if crossed.any():
            switch_step[running[crossed]] = step_idx + 1
            running, m = running[~crossed], m[~crossed]
            if not running.size:
                break
    return switch_step


class HeunIntegrator:
    """Integrates an ensemble of macrospins with :func:`heun_step`.

    Parameters
    ----------
    params:
        :class:`~repro.llg.macrospin.MacrospinParameters`.
    dt:
        Time step [s]; checked by :func:`require_resolved_dt` against
        the precession in ``Hk + |h_applied|``.
    h_applied:
        Constant applied/stray field [A/m], shape (3,) or one row per
        ensemble member (optional).
    a_j:
        Slonczewski torque amplitude [A/m] (0 for no current).
    thermal:
        Include the thermal fluctuation field.
    """

    def __init__(self, params, dt, h_applied=None, a_j=0.0, thermal=True):
        self.params = params
        self.h_applied = (None if h_applied is None
                          else np.asarray(h_applied, dtype=float))
        h_max = params.hk
        if self.h_applied is not None:
            h_max += float(np.max(np.linalg.norm(self.h_applied, axis=-1)))
        self.dt = require_resolved_dt(dt, h_max)
        self.a_j = float(a_j)
        self.thermal = bool(thermal)

    def field(self, m):
        """Deterministic effective field [A/m] of the states ``m``."""
        return effective_field(m, self.params.hk, self.h_applied)

    def step(self, m, rng):
        """Advance the ensemble ``m`` (shape (..., 3)) by one time step."""
        return heun_step(np.asarray(m, dtype=float), self.dt, self.field,
                         self.params, a_j=self.a_j,
                         rng=rng if self.thermal else None)

    def run(self, m0, n_steps, rng):
        """Integrate ``n_steps`` steps from ``m0``; returns the final state."""
        m = np.asarray(m0, dtype=float).copy()
        for _ in range(int(n_steps)):
            m = self.step(m, rng)
        return m
