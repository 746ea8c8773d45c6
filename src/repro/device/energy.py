"""Energy barrier and thermal stability factor of a perpendicular MTJ.

Implements the paper's Eq. 5 and the underlying definitions:

* intrinsic barrier ``Eb0 = mu0 * Ms * Hk * V_act / 2`` and
  ``Delta0 = Eb0 / (kB T)``,
* stray-field modulation ``Delta(h) = Delta0 * (1 +/- h)^2`` with
  ``h = Hz_stray / Hk``; the '+' sign applies to the P state and '-' to the
  AP state under the conventions of DESIGN.md section 4.

``V_act`` is the *activation volume*: for devices larger than the thermal
nucleation diameter the reversal is nucleation-limited and the effective
volume is a fraction of the geometric one. The paper's measured
``Delta0 = 45.5`` at eCD = 35 nm corresponds to roughly 0.38x the geometric
FL volume with the reference-stack parameters; we expose the scale as an
explicit parameter.
"""

from __future__ import annotations

from ..constants import BOLTZMANN, MU0
from ..errors import ParameterError
from ..validation import require_in_range, require_positive

#: Valid magnetization states.
STATES = ("P", "AP")


def energy_barrier(ms, hk, volume):
    """Intrinsic energy barrier [J]: ``mu0 * Ms * Hk * V / 2``.

    ``ms`` [A/m], ``hk`` [A/m], ``volume`` [m^3].
    """
    require_positive(ms, "ms")
    require_positive(hk, "hk")
    require_positive(volume, "volume")
    return 0.5 * MU0 * ms * hk * volume


def delta_factor(ms, hk, volume, temperature):
    """Intrinsic thermal stability factor ``Delta0 = Eb0 / (kB T)``."""
    require_positive(temperature, "temperature")
    return energy_barrier(ms, hk, volume) / (BOLTZMANN * temperature)


def state_sign(state):
    """Sign of the ``(1 +/- h)`` factor for ``state``: +1 for P, -1 for AP."""
    if state == "P":
        return +1.0
    if state == "AP":
        return -1.0
    raise ParameterError(f"state must be 'P' or 'AP', got {state!r}")


def delta_with_stray(delta0, h_stray_over_hk, state):
    """Thermal stability factor under a stray field (paper Eq. 5).

    ``Delta(h) = Delta0 * (1 + s*h)^2`` with ``s = +1`` for the P state and
    ``s = -1`` for AP, ``h = Hz_stray / Hk``.

    ``h`` must lie in (-1, 1): beyond that the state's barrier has collapsed
    (the paper's "locked device" regime) and Eq. 5 no longer applies.
    Vectorized over ``h_stray_over_hk``.
    """
    require_positive(delta0, "delta0")
    require_in_range(h_stray_over_hk, "h_stray_over_hk", -1.0, 1.0,
                     inclusive=False)
    factor = 1.0 + state_sign(state) * h_stray_over_hk
    return delta0 * factor * factor


def activation_volume(geometric_volume, scale):
    """Activation volume [m^3] = ``scale`` x geometric FL volume."""
    require_positive(geometric_volume, "geometric_volume")
    require_in_range(scale, "scale", 0.0, 1.0, inclusive=False)
    return geometric_volume * scale
