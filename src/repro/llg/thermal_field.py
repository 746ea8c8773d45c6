"""Thermal fluctuation field for the stochastic LLG equation.

Brown's fluctuation-dissipation result: the thermal field is white Gaussian
noise per Cartesian component with

``sigma_H = sqrt( 2 alpha kB T / (gamma mu0^2 Ms V dt) )``   [A/m]

for a discrete time step ``dt``. The equipartition test in the test suite
verifies the prefactor: in equilibrium the transverse components satisfy
``<mx^2> = <my^2> = 1 / (2 Delta)`` for ``Delta >> 1``.
"""

from __future__ import annotations

import math

from ..constants import BOLTZMANN, GYROMAGNETIC_RATIO, MU0
from ..validation import require_positive


def thermal_field_sigma(params, dt):
    """Standard deviation [A/m] of each thermal-field component.

    Parameters
    ----------
    params:
        :class:`~repro.llg.macrospin.MacrospinParameters`.
    dt:
        Integration time step [s].
    """
    require_positive(dt, "dt")
    numerator = 2.0 * params.alpha * BOLTZMANN * params.temperature
    denominator = (GYROMAGNETIC_RATIO * MU0 * MU0 * params.ms
                   * params.volume * dt)
    return math.sqrt(numerator / denominator)

