"""Tests for the multi-macrospin (micromagnetic-lite) free layer."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.intra import IntraCellModel
from repro.device import MTJDevice, PAPER_EVAL_DEVICE
from repro.errors import ParameterError
from repro.llg import MacrospinParameters, MultiMacrospinFL, make_fl_grid


@pytest.fixture(scope="module")
def device():
    return MTJDevice(PAPER_EVAL_DEVICE)


@pytest.fixture(scope="module")
def params(device):
    return MacrospinParameters.from_device(device,
                                           use_activation_volume=False)


@pytest.fixture(scope="module")
def grid(device):
    return make_fl_grid(device.stack.radius, n_across=5)


def make_fl(params, grid, device, hz_profile=None):
    return MultiMacrospinFL(params, grid,
                            device.stack.free_layer.thickness,
                            hz_profile=hz_profile)


class TestGrid:
    def test_cells_inside_disk(self, grid, device):
        radii = np.hypot(grid.positions[:, 0], grid.positions[:, 1])
        assert np.all(radii <= device.stack.radius)

    def test_cell_size(self, grid, device):
        assert grid.cell_size == pytest.approx(
            2 * device.stack.radius / 5)

    def test_area_close_to_disk(self, grid, device):
        grid_area = grid.n_cells * grid.cell_size ** 2
        disk_area = math.pi * device.stack.radius ** 2
        assert grid_area == pytest.approx(disk_area, rel=0.15)

    def test_neighbors_are_adjacent(self, grid):
        for i, j in grid.neighbors:
            distance = np.linalg.norm(grid.positions[i]
                                      - grid.positions[j])
            assert distance == pytest.approx(grid.cell_size, rel=1e-9)

    def test_too_coarse_rejected(self):
        with pytest.raises(ParameterError):
            make_fl_grid(17.5e-9, n_across=1)


class TestDynamics:
    def test_uniform_state_is_stationary_under_exchange(self, params,
                                                        grid, device):
        fl = make_fl(params, grid, device)
        m = fl.uniform_state(+1.0)
        h = fl.effective_field(m)
        # Exchange vanishes for a uniform state; only anisotropy remains.
        np.testing.assert_allclose(h[:, 2], params.hk, rtol=1e-9)
        np.testing.assert_allclose(h[:, :2], 0.0, atol=1e-6)

    def test_norms_preserved(self, params, grid, device):
        fl = make_fl(params, grid, device)
        rng = np.random.default_rng(1)
        m = fl.uniform_state(-1.0)
        m[:, 0] += 0.1 * rng.standard_normal(grid.n_cells)
        m /= np.linalg.norm(m, axis=1, keepdims=True)
        for _ in range(50):
            m = fl.step(m, 1e-12, rng=rng, a_j=2e3)
        np.testing.assert_allclose(np.linalg.norm(m, axis=1), 1.0,
                                   rtol=1e-9)

    def test_exchange_pulls_spins_together(self, params, grid, device):
        # High damping so the spin-wave ringing decays within the test
        # horizon; at the real alpha=0.015 the modes ring for many ns.
        damped = MacrospinParameters(
            ms=params.ms, hk=params.hk, volume=params.volume,
            alpha=0.5, eta=params.eta)
        fl = MultiMacrospinFL(damped, grid,
                              device.stack.free_layer.thickness)
        rng = np.random.default_rng(2)
        m = fl.uniform_state(+1.0)
        m[:, 0] += 0.3 * rng.standard_normal(grid.n_cells)
        m /= np.linalg.norm(m, axis=1, keepdims=True)
        spread0 = float(np.std(m[:, 0]))
        for _ in range(3000):
            m = fl.step(m, 1e-12)
        assert float(np.std(m[:, 0])) < 0.2 * spread0
        assert fl.average_mz(m) > 0.99

    def test_exchange_gather_matches_pair_sum(self, params, grid, device):
        """The neighbour-table gather is the pairwise exchange sum
        ``sum_j (m_j - m_i)`` over the grid's neighbour pairs."""
        fl = make_fl(params, grid, device)
        rng = np.random.default_rng(6)
        m = rng.standard_normal((grid.n_cells, 3))
        m /= np.linalg.norm(m, axis=1, keepdims=True)
        expected = np.zeros_like(m)
        for i, j in grid.neighbors:
            expected[i] += m[j] - m[i]
            expected[j] += m[i] - m[j]
        expected *= fl.exchange_field_scale
        expected[:, 2] += params.hk * m[:, 2]
        np.testing.assert_allclose(fl.effective_field(m), expected,
                                   rtol=1e-12, atol=1e-6)

    def test_neighbor_table_layout(self, grid):
        table = grid.neighbor_table
        cells = np.arange(grid.n_cells)
        assert table.shape == (grid.n_cells, 4)
        # Each pair appears once per direction; missing neighbours pad
        # with the cell's own index.
        real = table != cells[:, None]
        assert real.sum() == 2 * len(grid.neighbors)
        offsets = grid.positions[table] - grid.positions[:, None, :]
        step = grid.cell_size
        for slot, (dx, dy) in enumerate(
                ((-step, 0), (step, 0), (0, -step), (0, step))):
            np.testing.assert_allclose(
                offsets[real[:, slot], slot], [(dx, dy)] * int(
                    real[:, slot].sum()), atol=1e-12 * step)

    def test_threshold_matches_geometric_macrospin(self, params, grid,
                                                   device):
        fl = make_fl(params, grid, device)
        from repro.llg import stt_critical_current
        single = MacrospinParameters(
            ms=params.ms, hk=params.hk,
            volume=fl.params.volume * grid.n_cells,
            alpha=params.alpha, eta=params.eta)
        assert fl.total_critical_current == pytest.approx(
            stt_critical_current(single), rel=1e-9)


class TestSwitching:
    def test_switches_above_threshold(self, params, grid, device):
        fl = make_fl(params, grid, device)
        t_sw = fl.switch(2.0 * fl.total_critical_current,
                         max_time=30e-9, rng=3)
        assert t_sw is not None
        assert 0.1e-9 < t_sw < 30e-9

    def test_no_switch_below_threshold(self, params, grid, device):
        fl = make_fl(params, grid, device)
        t_sw = fl.switch(0.3 * fl.total_critical_current,
                         max_time=5e-9, rng=4)
        assert t_sw is None

    def test_nonuniform_profile_changes_tw(self, params, grid, device):
        """The paper's Fig. 3d non-uniformity, expressed dynamically
        (the Wang et al. [10] observation)."""
        intra = IntraCellModel()

        def profile(pos):
            pts = np.column_stack([pos, np.zeros(pos.shape[0])])
            return intra.field_map(device.params.ecd, pts)[:, 2]

        fl_real = make_fl(params, grid, device, hz_profile=profile)
        mean_field = float(np.mean(fl_real.hz_local))
        fl_flat = make_fl(
            params, grid, device,
            hz_profile=lambda p: np.full(p.shape[0], mean_field))

        current = 2.0 * fl_real.total_critical_current
        t_real = fl_real.switch(current, max_time=30e-9, rng=5)
        t_flat = fl_flat.switch(current, max_time=30e-9, rng=5)
        assert t_real is not None and t_flat is not None
        assert t_real != pytest.approx(t_flat, rel=1e-3)

    @pytest.mark.parametrize("kwargs, name", [
        ({"threshold": -1.0}, "threshold"),
        ({"threshold": 1.5}, "threshold"),
        ({"max_time": 0.0}, "max_time"),
        ({"initial_mz": 0.0}, "initial_mz"),
    ])
    def test_bad_switch_inputs(self, params, grid, device, kwargs, name):
        fl = make_fl(params, grid, device)
        with pytest.raises(ParameterError, match=name):
            fl.switch(2.0 * fl.total_critical_current, rng=0, **kwargs)

    def test_unresolved_dt_rejected_up_front(self, params, grid, device):
        # 2e-12 s is ~6.6 steps per exchange-stiff precession period; it
        # would report a spurious switch at 0.8 ns.
        fl = make_fl(params, grid, device)
        with pytest.raises(ParameterError, match="dt"):
            fl.switch(2.0 * fl.total_critical_current, dt=2e-12, rng=0)
        with pytest.raises(ParameterError, match="dt"):
            fl.step(fl.uniform_state(-1.0), 2e-12)

    def test_local_field_profile_loaded(self, params, grid, device):
        intra = IntraCellModel()

        def profile(pos):
            pts = np.column_stack([pos, np.zeros(pos.shape[0])])
            return intra.field_map(device.params.ecd, pts)[:, 2]

        fl = make_fl(params, grid, device, hz_profile=profile)
        # Center cells see the strongest (most negative) field.
        radii = np.hypot(grid.positions[:, 0], grid.positions[:, 1])
        center = fl.hz_local[np.argmin(radii)]
        edge = fl.hz_local[np.argmax(radii)]
        assert center < edge < 0
