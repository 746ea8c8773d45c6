"""Micromagnetic-lite free layer: a grid of exchange-coupled macrospins.

The paper's Fig. 3d shows the intra-cell stray field is *not* uniform
over the FL cross-section; Wang et al. [10] report that this non-uniform
profile changes switching via micromagnetic simulation. The single-
macrospin model cannot see position dependence; this module discretizes
the FL disk into a square grid of macrospin cells coupled by the exchange
field

``H_ex,i = (2 A_ex / (mu0 Ms a^2)) * sum_j (m_j - m_i)``

(nearest neighbors j, cell size ``a``, exchange stiffness ``A_ex``), with
each cell seeing the *local* stray field sampled from the coupling model.
The sum gathers over :attr:`FLGrid.neighbor_table`, and the grid steps
through the same Heun stepper as the single macrospin.
It is not a replacement for OOMMF/mumax3 — it is the smallest model that
can express the paper's non-uniformity observation dynamically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from ..constants import MU0
from ..errors import ParameterError
from ..validation import require_int_in_range, require_positive
from .integrator import heun_step, require_resolved_dt, switching_steps
from .macrospin import MacrospinParameters, precession_period
from .stt import slonczewski_field, stt_critical_current

#: Typical CoFeB exchange stiffness [J/m].
DEFAULT_EXCHANGE_STIFFNESS = 1.5e-11


@dataclass(frozen=True)
class FLGrid:
    """Discretization of the FL disk into macrospin cells.

    Attributes
    ----------
    positions:
        (N, 2) cell-center coordinates [m] (cells inside the disk).
    cell_size:
        Grid spacing [m].
    neighbors:
        Tuple of (i, j) index pairs of nearest-neighbor cells.
    """

    positions: np.ndarray
    cell_size: float
    neighbors: tuple

    @property
    def n_cells(self):
        """Number of cells."""
        return self.positions.shape[0]

    @property
    def neighbor_table(self):
        """(N, 4) neighbour indices of each cell, in fidimag's ``ngbs``
        order -x, +x, -y, +y; a missing neighbour is the cell itself."""
        table = np.repeat(np.arange(self.n_cells)[:, None], 4, axis=1)
        for i, j in self.neighbors:
            dx, dy = self.positions[j] - self.positions[i]
            slot, offset = (0, dx) if abs(dx) > abs(dy) else (2, dy)
            forward = int(offset > 0)
            table[i, slot + forward] = j
            table[j, slot + 1 - forward] = i
        return table


def make_fl_grid(radius, n_across=7):
    """Discretize a disk of ``radius`` into an ``n_across``-wide grid."""
    require_positive(radius, "radius")
    n_across = require_int_in_range(n_across, "n_across", 2, 64)
    cell = 2.0 * radius / n_across
    coords = (np.arange(n_across) + 0.5) * cell - radius
    inside = []
    index_of = {}
    for iy, y in enumerate(coords):
        for ix, x in enumerate(coords):
            if math.hypot(x, y) <= radius:
                index_of[(ix, iy)] = len(inside)
                inside.append((x, y))
    neighbors = []
    for (ix, iy), i in index_of.items():
        for dx, dy in ((1, 0), (0, 1)):
            j = index_of.get((ix + dx, iy + dy))
            if j is not None:
                neighbors.append((i, j))
    if not inside:
        raise ParameterError("grid too coarse: no cell inside the disk")
    return FLGrid(positions=np.asarray(inside, dtype=float),
                  cell_size=cell, neighbors=tuple(neighbors))


class MultiMacrospinFL:
    """Exchange-coupled macrospin grid with a position-dependent field.

    Parameters
    ----------
    params:
        Per-cell :class:`MacrospinParameters`; ``volume`` is overridden
        by the cell volume (cell_size^2 * thickness).
    grid:
        :class:`FLGrid` of the FL disk.
    thickness:
        FL thickness [m].
    hz_profile:
        Callable ``(N, 2) positions -> (N,) Hz`` giving the local stray
        field [A/m]; None means zero.
    exchange_stiffness:
        ``A_ex`` [J/m].
    """

    def __init__(self, params, grid, thickness,
                 hz_profile=None,
                 exchange_stiffness=DEFAULT_EXCHANGE_STIFFNESS):
        if not isinstance(params, MacrospinParameters):
            raise ParameterError(
                f"params must be MacrospinParameters, got {type(params)!r}")
        require_positive(thickness, "thickness")
        require_positive(exchange_stiffness, "exchange_stiffness")
        self.grid = grid
        self.thickness = float(thickness)
        self.params = replace(params,
                              volume=grid.cell_size ** 2 * self.thickness)
        self.exchange_field_scale = (
            2.0 * exchange_stiffness
            / (MU0 * params.ms * grid.cell_size ** 2))
        if hz_profile is None:
            self.hz_local = np.zeros(grid.n_cells)
        else:
            self.hz_local = np.asarray(hz_profile(grid.positions),
                                       dtype=float)
            if self.hz_local.shape != (grid.n_cells,):
                raise ParameterError(
                    "hz_profile must return one Hz per grid cell")
        self._neighbor_table = grid.neighbor_table
        # The stiffest mode precesses in Hk *plus* the exchange field of 4
        # fully-misaligned neighbors, which dominates on fine grids.
        self._stiff_field = (
            self.params.hk + 4.0 * self.exchange_field_scale
            + float(np.max(np.abs(self.hz_local), initial=0.0)))

    @property
    def total_critical_current(self):
        """STT threshold [A] of the whole grid (geometric volume)."""
        return stt_critical_current(replace(
            self.params, volume=self.params.volume * self.grid.n_cells))

    def effective_field(self, m):
        """Per-cell field [A/m] of ``m`` (..., N, 3): anisotropy + local +
        exchange."""
        h = self.exchange_field_scale * np.add.reduce(
            m[..., self._neighbor_table, :] - m[..., None, :], axis=-2)
        h[..., 2] += self.params.hk * m[..., 2] + self.hz_local
        return h

    def step(self, m, dt, rng=None, a_j=0.0):
        """One Heun step of ``m`` (..., N, 3), thermal if ``rng`` is given;
        ``dt`` must resolve the stiffest precession."""
        return heun_step(m, require_resolved_dt(dt, self._stiff_field),
                         self.effective_field, self.params, a_j=a_j, rng=rng)

    def uniform_state(self, mz=1.0):
        """All cells aligned along ``mz`` = +/-1."""
        m = np.zeros((self.grid.n_cells, 3))
        m[:, 2] = float(np.sign(mz))
        return m

    def average_mz(self, m):
        """Volume-averaged mz of ``m`` (..., N, 3); all cells equal volume."""
        return np.mean(m[..., 2], axis=-1)

    def default_time_step(self, resolution=60.0):
        """A step resolving the stiffest precession by ``resolution``."""
        return precession_period(self._stiff_field) / resolution

    def switch(self, current, max_time=60e-9, dt=None, rng=None,
               threshold=0.5, initial_mz=-1.0):
        """Drive the grid with an STT current until net reversal.

        ``current`` is the total junction current [A], shared equally by
        the cells. The grid switches when its average ``mz`` crosses
        ``threshold`` in (0, 1) toward ``-initial_mz`` (+/-1). Returns the
        switching time [s] or None.
        """
        dt = require_resolved_dt(
            self.default_time_step() if dt is None else dt, self._stiff_field)
        rng = np.random.default_rng(rng)
        a_j = slonczewski_field(current / self.grid.n_cells, self.params.eta,
                                self.params.ms, self.params.volume)
        m = self.uniform_state(initial_mz)
        # Thermal tilt to break the symmetric stall.
        m[:, 0] += 0.02 * rng.standard_normal(self.grid.n_cells)
        m /= np.linalg.norm(m, axis=1, keepdims=True)

        # A one-member ensemble whose mz is the cell average; each step
        # runs on the bare (N, 3) grid, where numpy's per-call cost is
        # about half that on (1, N, 3).
        steps = switching_steps(
            lambda state: heun_step(state[0], dt, self.effective_field,
                                    self.params, a_j=a_j, rng=rng)[None],
            m[np.newaxis], self.average_mz, dt, max_time,
            threshold=threshold, initial_mz=initial_mz)
        return float(steps[0] * dt) if steps[0] > 0 else None
