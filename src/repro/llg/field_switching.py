"""Field-driven switching of a macrospin: the Stoner-Wohlfarth model.

The hysteresis module's barrier law ``Delta0 (1 - H/Hk)^2`` assumes a
field aligned with the easy axis; the general zero-temperature switching
threshold of a uniaxial macrospin follows the Stoner-Wohlfarth astroid::

    h_sw(psi) = (cos(psi)^(2/3) + sin(psi)^(2/3))^(-3/2)

where ``psi`` is the angle between the applied field and the easy axis
and ``h_sw`` is in units of ``Hk``. This module provides the astroid and
an LLG-based numerical switching-field finder used to validate both the
astroid and the hysteresis model's use of ``Hk`` as the aligned-field
threshold.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import ParameterError, SimulationError
from ..validation import require_in_range, require_positive
from .integrator import HeunIntegrator
from .simulate import default_time_step


def astroid_switching_field(psi, hk):
    """Stoner-Wohlfarth switching field [A/m] at field angle ``psi``.

    ``psi`` is the angle [rad] between the applied field and the easy
    axis, in (0, pi/2]; the aligned case (psi -> 0) gives ``Hk`` and the
    45-degree case gives ``Hk / 2``. Vectorized over ``psi``.
    """
    require_positive(hk, "hk")
    psi_arr = np.asarray(psi, dtype=float)
    if np.any((psi_arr < 0) | (psi_arr > math.pi / 2)):
        raise ParameterError("psi must lie in [0, pi/2]")
    c = np.abs(np.cos(psi_arr)) ** (2.0 / 3.0)
    s = np.abs(np.sin(psi_arr)) ** (2.0 / 3.0)
    h = hk * (c + s) ** (-1.5)
    if np.isscalar(psi) or np.asarray(psi).ndim == 0:
        return float(h)
    return h


def simulate_switching_field(params, psi, h_max_ratio=1.2, n_steps=25,
                             relax_time=3.0e-9, rng=None):
    """Numerical (zero-temperature LLG) switching field [A/m].

    Ramps the applied-field magnitude at fixed angle ``psi`` from 0 to
    ``h_max_ratio * Hk``, relaxing the magnetization at each level, and
    returns the first field at which the easy-axis component flips.
    An array of angles ramps as one ensemble and returns one field per
    angle.

    Parameters
    ----------
    params:
        :class:`~repro.llg.macrospin.MacrospinParameters`.
    psi:
        Field angle(s) from the easy axis [rad], in (0, pi/2].
    h_max_ratio:
        Ramp ceiling in units of ``Hk``.
    n_steps:
        Number of field levels in the ramp.
    relax_time:
        Relaxation time per level [s].
    rng:
        Seed/generator (only used to break symmetric stalls).
    """
    psis = require_in_range(np.atleast_1d(np.asarray(psi, dtype=float)),
                            "psi", 1e-4, math.pi / 2)
    require_positive(relax_time, "relax_time")
    rng = np.random.default_rng(rng)
    # Start in the +z well; each field points into the opposite
    # hemisphere at angle psi from -z, so it eventually reverses the state.
    directions = np.array([[math.sin(angle), 0.0, -math.cos(angle)]
                           for angle in psis.tolist()])
    levels = np.linspace(0.0, h_max_ratio * params.hk, n_steps + 1)[1:]
    # Built at the ramp ceiling so dt is checked against the strongest
    # field; each level then only lowers ``h_applied``.
    integrator = HeunIntegrator(params, default_time_step(params),
                                h_applied=levels[-1] * directions,
                                thermal=False)
    steps_per_level = int(math.ceil(relax_time / integrator.dt))
    m = np.tile([1e-3, 0.0, math.sqrt(1.0 - 1e-6)], (psis.size, 1))
    h_sw = np.full(psis.size, np.nan)
    for level in levels:
        integrator.h_applied = level * directions
        m = integrator.run(m, steps_per_level, rng)
        h_sw[np.isnan(h_sw) & (m[:, 2] < 0.0)] = level
        if not np.isnan(h_sw).any():
            return float(h_sw[0]) if np.ndim(psi) == 0 else h_sw
    raise SimulationError(
        f"no switching up to {h_max_ratio} * Hk at "
        f"psi={psis[np.isnan(h_sw)][0]:.3f} rad; increase h_max_ratio")
