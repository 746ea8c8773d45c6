"""Macrospin parameters and the LLGS right-hand side.

Model
-----
The FL is a single magnetic moment ``m`` (unit vector). Its energy terms are
reduced to an effective uniaxial anisotropy field along z (``Hk`` already
contains the demagnetization correction of a thin circular film) plus any
applied/stray field. The dynamics follow the Landau-Lifshitz-Gilbert
equation with the Slonczewski torque written as an equivalent field term::

    dm/dt = -g' [ m x H + alpha m x (m x H) + a_J m x (m x p) / (...) ]

with ``g' = gamma mu0 / (1 + alpha^2)`` and the standard grouping of the
STT terms (see :func:`llgs_rhs`). Fields are in A/m throughout; ``p`` is
the spin-polarization direction (the RL magnetization, +z here).

Vectorization: all functions accept ``m`` of shape (..., 3) so whole
ensembles integrate in parallel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..constants import GYROMAGNETIC_RATIO, MU0, ROOM_TEMPERATURE
from ..validation import require_in_range, require_positive


@dataclass(frozen=True)
class MacrospinParameters:
    """Parameters of one macrospin free layer.

    Parameters
    ----------
    ms:
        Saturation magnetization [A/m].
    hk:
        Effective uniaxial anisotropy field [A/m] (demag folded in).
    volume:
        Magnetic volume [m^3] — sets the thermal field strength and the
        moment. Use the activation volume to align thresholds with the
        measured ``Delta0``/``Ic0``; the geometric volume gives the pure
        macrospin picture.
    alpha:
        Gilbert damping.
    eta:
        STT efficiency (spin polarization factor of Slonczewski's torque).
    temperature:
        Bath temperature [K] for the thermal field.
    """

    ms: float
    hk: float
    volume: float
    alpha: float
    eta: float
    temperature: float = ROOM_TEMPERATURE

    def __post_init__(self):
        require_positive(self.ms, "ms")
        require_positive(self.hk, "hk")
        require_positive(self.volume, "volume")
        require_positive(self.alpha, "alpha")
        require_in_range(self.eta, "eta", 0.0, 1.0, inclusive=False)
        require_positive(self.temperature, "temperature")

    @property
    def moment(self):
        """Magnetic moment [A*m^2]."""
        return self.ms * self.volume

    @property
    def delta(self):
        """Thermal stability factor of this macrospin."""
        from ..constants import BOLTZMANN
        return (0.5 * MU0 * self.ms * self.hk * self.volume
                / (BOLTZMANN * self.temperature))

    @property
    def gamma_prime(self):
        """``gamma mu0 / (1 + alpha^2)`` [m/(A s)]."""
        return GYROMAGNETIC_RATIO * MU0 / (1.0 + self.alpha * self.alpha)

    @classmethod
    def from_device(cls, device, use_activation_volume=True):
        """Build macrospin parameters from an :class:`MTJDevice`.

        With ``use_activation_volume=True`` the thermal/threshold behaviour
        matches the measured ``Delta0`` and ``Ic0`` of the device.
        """
        params = device.params
        volume = (device.activation_volume if use_activation_volume
                  else device.fl_volume)
        return cls(
            ms=device.stack.free_layer.material.ms,
            hk=params.hk,
            volume=volume,
            alpha=params.alpha,
            eta=params.eta,
            temperature=params.temperature,
        )


def precession_period(h):
    """Larmor precession period [s] of a moment in the field ``h`` [A/m]:
    the time scale every time step of the package is derived from."""
    return 2.0 * math.pi / (GYROMAGNETIC_RATIO * MU0 * h)


def effective_field(m, hk, h_applied=None):
    """Deterministic effective field [A/m] for magnetization ``m``.

    ``H_eff = Hk * mz * z_hat + H_applied``. ``m`` has shape (..., 3);
    ``h_applied`` broadcasts against it.
    """
    m = np.asarray(m, dtype=float)
    h = np.zeros_like(m)
    h[..., 2] = hk * m[..., 2]
    if h_applied is not None:
        h = h + np.asarray(h_applied, dtype=float)
    return h


def llgs_rhs(m, h_eff, params, a_j=0.0, p_direction=(0.0, 0.0, 1.0)):
    """Right-hand side ``dm/dt`` of the LLGS equation.

    Parameters
    ----------
    m:
        Magnetization unit vectors, shape (..., 3).
    h_eff:
        Effective field [A/m] including any stochastic term, shape
        broadcastable to ``m``.
    params:
        :class:`MacrospinParameters`.
    a_j:
        Slonczewski torque amplitude expressed as a field [A/m]
        (see :func:`repro.llg.stt.slonczewski_field`).
    p_direction:
        Spin-polarization unit vector (RL direction).

    Returns
    -------
    numpy.ndarray
        ``dm/dt`` [1/s], same shape as ``m``.
    """
    m = np.asarray(m, dtype=float)
    h = np.asarray(h_eff, dtype=float)
    p = np.asarray(p_direction, dtype=float)

    m_cross_h = _cross(m, h)
    m_cross_m_cross_h = _cross(m, m_cross_h)
    rhs = -(m_cross_h + params.alpha * m_cross_m_cross_h)
    if a_j != 0.0:
        m_cross_p = _cross(m, p)
        m_cross_m_cross_p = _cross(m, m_cross_p)
        # Slonczewski damping-like torque plus its small alpha-tilt partner.
        rhs = rhs - a_j * (m_cross_m_cross_p
                           - params.alpha * m_cross_p)
    return params.gamma_prime * rhs


def _cross(a, b):
    """``np.cross(a, b)`` bit for bit (same products, same order) without
    its per-call axis bookkeeping, which dominates on small arrays."""
    a0, a1, a2 = a[..., 0], a[..., 1], a[..., 2]
    b0, b1, b2 = b[..., 0], b[..., 1], b[..., 2]
    a1_b2 = a1 * b2
    out = np.empty(a1_b2.shape + (3,))
    np.subtract(a1_b2, a2 * b1, out=out[..., 0])
    np.subtract(a2 * b0, a0 * b2, out=out[..., 1])
    np.subtract(a0 * b1, a1 * b0, out=out[..., 2])
    return out
