"""Cross-module property-based tests (hypothesis).

Invariants that tie the physics models together, checked over randomized
parameter ranges rather than single anchor points.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.device import MTJDevice, MTJState, PAPER_EVAL_DEVICE
from repro.device.energy import delta_with_stray
from repro.device.switching import critical_current
from repro.fields import (
    CurrentLoop,
    LoopCollection,
    dipole_field,
    loop_field_analytic,
)
from repro.units import am_to_oe, oe_to_am

H_RATIOS = st.floats(min_value=-0.3, max_value=0.3)
RADII = st.floats(min_value=8e-9, max_value=60e-9)
CURRENTS = st.floats(min_value=-4e-3, max_value=4e-3).filter(
    lambda c: abs(c) > 1e-5)
VOLTAGES = st.floats(min_value=0.8, max_value=1.2)


class TestSwitchingIdentities:
    @given(H_RATIOS)
    def test_ic_directions_sum_to_twice_intrinsic(self, h):
        """Eq. 2: Ic(P->AP) + Ic(AP->P) = 2 Ic0 for any stray field."""
        ic0 = 57.2e-6
        total = (critical_current(ic0, h, "P->AP")
                 + critical_current(ic0, h, "AP->P"))
        assert total == pytest.approx(2 * ic0, rel=1e-12)

    @given(H_RATIOS)
    def test_delta_geometric_mean_bounded(self, h):
        """Eq. 5: sqrt(Delta_P * Delta_AP) = Delta0 (1 - h^2) <= Delta0."""
        d0 = 45.5
        dp = delta_with_stray(d0, h, "P")
        dap = delta_with_stray(d0, h, "AP")
        assert math.sqrt(dp * dap) == pytest.approx(
            d0 * (1 - h * h), rel=1e-12)

    @given(H_RATIOS, H_RATIOS)
    def test_ic_monotone_in_stray_field(self, h1, h2):
        """More positive field -> easier AP->P, harder P->AP."""
        ic0 = 57.2e-6
        lo, hi = min(h1, h2), max(h1, h2)
        assert (critical_current(ic0, hi, "AP->P")
                <= critical_current(ic0, lo, "AP->P") + 1e-18)
        assert (critical_current(ic0, hi, "P->AP")
                >= critical_current(ic0, lo, "P->AP") - 1e-18)

    @settings(max_examples=20, deadline=None)
    @given(VOLTAGES, H_RATIOS)
    def test_wer_mean_consistency(self, vp, h):
        """The WER model's mean switching time equals Sun's tw exactly."""
        from repro.apps import WriteErrorModel
        device = MTJDevice(PAPER_EVAL_DEVICE)
        model = WriteErrorModel(device)
        hz = h * device.params.hk
        tw = device.switching_time(vp, hz)
        if not math.isfinite(tw):
            return
        assert model.mean_switching_time(vp, hz) == pytest.approx(
            tw, rel=1e-12)


class TestArrayModelCalls:
    """The models the controller evaluates over its class-field grid
    return, for an array of fields, exactly their scalar calls."""

    FIELDS = st.lists(H_RATIOS, min_size=1, max_size=12)
    STATES = st.sampled_from([MTJState.P, MTJState.AP])

    @staticmethod
    def _same(array_result, scalar_call, fields):
        expected = [scalar_call(float(hz)) for hz in fields]
        assert np.array_equal(array_result, expected)

    @settings(max_examples=40, deadline=None)
    @given(FIELDS, STATES,
           st.sampled_from([None, 300.0, 350.0, 420.0]))
    def test_device_ic_and_delta(self, h, state, temperature):
        device = MTJDevice(PAPER_EVAL_DEVICE)
        hz = np.asarray(h) * device.params.hk
        for direction in ("P->AP", "AP->P"):
            self._same(device.ic(direction, hz, temperature),
                       lambda f: device.ic(direction, f, temperature), hz)
        self._same(device.delta(state, hz, temperature),
                   lambda f: device.delta(state, f, temperature), hz)

    @settings(max_examples=40, deadline=None)
    @given(FIELDS, STATES, st.floats(min_value=0.2, max_value=1.3),
           st.floats(min_value=1e-10, max_value=1e-7))
    def test_write_error_rate(self, h, state, vp, t_pulse):
        from repro.apps import WriteErrorModel
        device = MTJDevice(PAPER_EVAL_DEVICE)
        model = WriteErrorModel(device)
        hz = np.asarray(h) * device.params.hk
        self._same(model.wer(t_pulse, vp, hz, state),
                   lambda f: model.wer(t_pulse, vp, f, state), hz)

    @settings(max_examples=40, deadline=None)
    @given(FIELDS, STATES, st.floats(min_value=0.01, max_value=1.5),
           st.floats(min_value=1e-9, max_value=1e-6))
    def test_read_disturb(self, h, state, read_voltage, t_read):
        from repro.apps import ReadDisturbAnalysis
        device = MTJDevice(PAPER_EVAL_DEVICE)
        rda = ReadDisturbAnalysis(device)
        hz = np.asarray(h) * device.params.hk
        self._same(rda.effective_delta(state, read_voltage, hz),
                   lambda f: rda.effective_delta(state, read_voltage, f),
                   hz)
        self._same(rda.disturb_probability(state, read_voltage, t_read,
                                           hz),
                   lambda f: rda.disturb_probability(state, read_voltage,
                                                     t_read, f), hz)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.floats(min_value=0.0, max_value=120.0),
                    min_size=1, max_size=12))
    def test_flip_rate(self, deltas):
        from repro.device.retention import flip_rate
        self._same(flip_rate(np.asarray(deltas), 1e9),
                   lambda d: flip_rate(d, 1e9), deltas)

    def test_array_field_past_hk_names_h_ratio(self):
        from repro.errors import ParameterError
        device = MTJDevice(PAPER_EVAL_DEVICE)
        hz = np.array([0.0, 1.5]) * device.params.hk
        with pytest.raises(ParameterError, match="h_stray_over_hk"):
            device.ic("AP->P", hz)
        with pytest.raises(ParameterError, match="h_stray_over_hk"):
            device.delta(MTJState.P, hz)


class TestFieldLinearity:
    @settings(max_examples=25, deadline=None)
    @given(RADII, CURRENTS, st.floats(min_value=0.2, max_value=4.0))
    def test_field_linear_in_current(self, radius, current, scale):
        point = np.array([1.7 * radius, 0.3 * radius, 0.4 * radius])
        base = loop_field_analytic(current, radius, point)
        scaled = loop_field_analytic(current * scale, radius, point)
        np.testing.assert_allclose(scaled, scale * base, rtol=1e-9,
                                   atol=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(RADII, CURRENTS)
    def test_superposition_commutes(self, radius, current):
        a = CurrentLoop((0.0, 0.0, 0.0), radius, current)
        b = CurrentLoop((3 * radius, 0.0, 0.0), radius, -0.5 * current)
        point = np.array([[1.2 * radius, radius, 0.5 * radius]])
        ab = LoopCollection([a, b]).field(point)
        ba = LoopCollection([b, a]).field(point)
        np.testing.assert_allclose(ab, ba, rtol=1e-12)

    @settings(max_examples=20, deadline=None)
    @given(RADII, CURRENTS,
           st.floats(min_value=4.0, max_value=12.0))
    def test_far_field_is_dipolar(self, radius, current, distance_ratio):
        loop = CurrentLoop((0.0, 0.0, 0.0), radius, current)
        point = np.array([distance_ratio * radius, 0.0,
                          0.5 * radius])
        exact = loop.field(point)
        approx = dipole_field(loop.moment, point)
        rel = (np.linalg.norm(exact - approx)
               / max(np.linalg.norm(exact), 1e-30))
        assert rel < 0.12

    @settings(max_examples=15, deadline=None)
    @given(st.floats(min_value=-0.8, max_value=0.8),
           st.floats(min_value=-0.8, max_value=0.8))
    def test_mirror_symmetry_across_loop_plane(self, x_frac, y_frac):
        radius = 20e-9
        loop = CurrentLoop((0.0, 0.0, 0.0), radius, 1e-3)
        above = loop.field(np.array(
            [x_frac * radius, y_frac * radius, 0.35 * radius]))
        below = loop.field(np.array(
            [x_frac * radius, y_frac * radius, -0.35 * radius]))
        # Hz even, in-plane components odd across the loop plane.
        assert above[2] == pytest.approx(below[2], rel=1e-9)
        assert above[0] == pytest.approx(-below[0], rel=1e-9,
                                         abs=1e-12)
        assert above[1] == pytest.approx(-below[1], rel=1e-9,
                                         abs=1e-12)


ECDS = st.floats(min_value=20e-9, max_value=80e-9)
TEMPS = st.floats(min_value=250.0, max_value=400.0)
MS_SCALES = st.floats(min_value=0.5, max_value=2.0).filter(
    lambda s: abs(s - 1.0) > 1e-9)
AXIS_VALUES = st.lists(st.integers(min_value=-50, max_value=50),
                       min_size=1, max_size=4)


class TestFingerprintProperties:
    """``stack_fingerprint`` stability and sensitivity: equal stacks
    share a key; any geometry, moment, or temperature perturbation
    produces a new key (nothing is ever invalidated in place)."""

    @settings(max_examples=30, deadline=None)
    @given(ECDS)
    def test_same_stack_same_key(self, ecd):
        from repro.arrays import stack_fingerprint
        from repro.stack import build_reference_stack
        assert stack_fingerprint(build_reference_stack(ecd)) == \
            stack_fingerprint(build_reference_stack(ecd))

    @settings(max_examples=30, deadline=None)
    @given(ECDS, st.floats(min_value=1e-10, max_value=5e-9))
    def test_geometry_perturbation_changes_key(self, ecd, delta):
        from repro.arrays import stack_fingerprint
        from repro.stack import build_reference_stack
        assert stack_fingerprint(build_reference_stack(ecd)) != \
            stack_fingerprint(build_reference_stack(ecd + delta))

    @settings(max_examples=30, deadline=None)
    @given(ECDS, MS_SCALES)
    def test_moment_perturbation_changes_key(self, ecd, scale):
        from repro.arrays import stack_fingerprint
        from repro.stack import DEFAULT_RL_MS, build_reference_stack
        base = build_reference_stack(ecd)
        scaled = build_reference_stack(ecd, rl_ms=scale * DEFAULT_RL_MS)
        assert stack_fingerprint(base) != stack_fingerprint(scaled)

    @settings(max_examples=30, deadline=None)
    @given(ECDS, TEMPS)
    def test_temperature_changes_key(self, ecd, temperature):
        from hypothesis import assume
        from repro.arrays import stack_fingerprint
        from repro.materials import ROOM_TEMPERATURE
        from repro.stack import build_reference_stack
        # At the Bloch reference temperature the effective moments are
        # the nominal ones, so the key legitimately coincides.
        assume(abs(temperature - ROOM_TEMPERATURE) > 1.0)
        stack = build_reference_stack(ecd)
        cold = stack_fingerprint(stack)
        hot = stack_fingerprint(stack, temperature=temperature)
        assert cold != hot

    @settings(max_examples=30, deadline=None)
    @given(ECDS, TEMPS)
    def test_temperature_key_is_deterministic(self, ecd, temperature):
        from repro.arrays import stack_fingerprint
        from repro.stack import build_reference_stack
        assert stack_fingerprint(build_reference_stack(ecd),
                                 temperature=temperature) == \
            stack_fingerprint(build_reference_stack(ecd),
                              temperature=temperature)


class TestSweepSpecProperties:
    """Ordering invariants of the sweep grid under arbitrary axes."""

    @settings(max_examples=50, deadline=None)
    @given(AXIS_VALUES, AXIS_VALUES)
    def test_product_is_itertools_product_order(self, a, b):
        import itertools
        from repro.sweep import SweepSpec
        spec = SweepSpec.product(a=a, b=b)
        expected = [{"a": x, "b": y}
                    for x, y in itertools.product(a, b)]
        assert spec.points() == expected
        assert len(spec) == len(a) * len(b)
        assert spec.shape == (len(a), len(b))

    @settings(max_examples=50, deadline=None)
    @given(AXIS_VALUES)
    def test_zip_pairs_elementwise(self, values):
        from repro.sweep import SweepSpec
        labels = [f"v{i}" for i in range(len(values))]
        spec = SweepSpec.zipped(x=values, label=labels)
        assert spec.points() == [{"x": v, "label": lab}
                                 for v, lab in zip(values, labels)]
        assert spec.shape == (len(values),)

    @settings(max_examples=50, deadline=None)
    @given(AXIS_VALUES, AXIS_VALUES)
    def test_composition_is_left_major(self, a, b):
        from repro.sweep import SweepSpec
        composed = SweepSpec.product(a=a) * SweepSpec.product(b=b)
        assert composed.points() == SweepSpec.product(a=a, b=b).points()
        assert composed.names == ("a", "b")

    @settings(max_examples=50, deadline=None)
    @given(AXIS_VALUES, AXIS_VALUES)
    def test_point_indexing_matches_iteration(self, a, b):
        from repro.sweep import SweepSpec
        spec = SweepSpec.product(a=a, b=b)
        assert [spec.point(i) for i in range(len(spec))] == \
            list(spec)

    @settings(max_examples=50, deadline=None)
    @given(AXIS_VALUES, AXIS_VALUES)
    def test_serial_run_preserves_spec_order(self, a, b):
        from repro.sweep import SweepSpec, run_sweep
        spec = SweepSpec.product(a=a, b=b)
        result = run_sweep(_pair_point, spec)
        assert result.values == [(p["a"], p["b"]) for p in spec]


def _pair_point(a, b):
    """Module-level picklable point function: identity pair."""
    return (a, b)


class TestCouplingAlgebra:
    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=0, max_value=255),
           st.integers(min_value=0, max_value=3))
    def test_single_bit_flip_step(self, np8, direct_bit):
        """Flipping one direct neighbor moves Hz by exactly the direct
        step, regardless of the rest of the pattern (linearity)."""
        from repro.arrays import InterCellCoupling, NeighborhoodPattern
        from repro.stack import build_reference_stack
        coupling = InterCellCoupling(build_reference_stack(55e-9),
                                     90e-9)
        pattern = NeighborhoodPattern.from_int(np8)
        flipped_bits = list(pattern.bits)
        flipped_bits[direct_bit] = 1 - flipped_bits[direct_bit]
        flipped = NeighborhoodPattern(tuple(flipped_bits))
        step = abs(coupling.hz_inter_fast(flipped)
                   - coupling.hz_inter_fast(pattern))
        expected = 2 * abs(coupling.kernels().fl_direct)
        assert step == pytest.approx(expected, rel=1e-9)

    @settings(max_examples=10, deadline=None)
    @given(st.floats(min_value=55.0, max_value=180.0))
    def test_psi_scale_invariance_in_hc(self, pitch_nm):
        """Psi is inversely proportional to Hc by definition."""
        from repro.core.psi import coupling_factor
        from repro.stack import build_reference_stack
        from repro.units import nm_to_m
        stack = build_reference_stack(35e-9)
        psi_1 = coupling_factor(stack, nm_to_m(pitch_nm),
                                oe_to_am(2200.0))
        psi_2 = coupling_factor(stack, nm_to_m(pitch_nm),
                                oe_to_am(1100.0))
        assert psi_2 == pytest.approx(2 * psi_1, rel=1e-12)


class TestOccurrenceRank:
    """Properties of the engine's round-splitting occurrence rank.

    ``_occurrence_rank`` partitions a batch of word addresses into
    rounds: the r-th access to each word lands in round r, so every
    round touches each word at most once while repeated accesses keep
    their sequential order.
    """

    WORDS = st.lists(st.integers(min_value=0, max_value=25),
                     max_size=120)

    @settings(max_examples=200, deadline=None)
    @given(WORDS)
    def test_each_word_at_most_once_per_round(self, words):
        from repro.memsys.engine import _occurrence_rank
        w = np.asarray(words, dtype=np.int64)
        rank = _occurrence_rank(w)
        assert rank.shape == w.shape
        n_rounds = int(rank.max()) + 1 if len(words) else 0
        for r in range(n_rounds):
            in_round = w[rank == r]
            assert len(np.unique(in_round)) == len(in_round)

    @settings(max_examples=200, deadline=None)
    @given(WORDS)
    def test_ranks_dense_and_sequential_per_word(self, words):
        from repro.memsys.engine import _occurrence_rank
        w = np.asarray(words, dtype=np.int64)
        rank = _occurrence_rank(w)
        for word in set(words):
            ranks = rank[w == word]
            # dense: exactly 0..k-1 for k occurrences, and in batch
            # order — the i-th occurrence gets rank i.
            assert list(ranks) == list(range(len(ranks)))
