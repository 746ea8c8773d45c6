"""Tests for the Monte-Carlo reliability engine."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ParameterError
from repro.memsys import ScrubPolicy, build_engine, no_scrub
from repro.memsys.engine import _occurrence_rank


@pytest.fixture(scope="module")
def device():
    from repro.device import MTJDevice, PAPER_EVAL_DEVICE
    return MTJDevice(PAPER_EVAL_DEVICE)


class TestOccurrenceRank:
    def test_basic(self):
        rank = _occurrence_rank(np.array([7, 3, 7, 7, 3]))
        assert list(rank) == [0, 0, 1, 2, 1]

    def test_all_unique(self):
        assert _occurrence_rank(np.arange(10)).max() == 0

    def test_empty(self):
        assert _occurrence_rank(np.zeros(0, dtype=np.int64)).size == 0


class TestRun:
    def test_counters_consistent(self, device):
        engine = build_engine(device, pitch=70e-9, rows=16, cols=16)
        result = engine.run(5000, rng=1)
        assert result.n_transactions == 5000
        assert result.n_reads + result.n_writes == 5000
        assert result.bits_read == result.n_reads * 72
        word_counts = (result.words_ok + result.words_corrected
                       + result.words_detected + result.words_silent)
        assert word_counts == result.n_reads
        assert result.uncorrectable_bit_errors <= result.raw_bit_errors
        assert 0.0 < result.raw_ber < 1.0
        assert result.uber <= result.raw_ber
        assert result.simulated_time == pytest.approx(
            5000 * engine.cycle_time)

    def test_deterministic_with_seed(self, device):
        runs = [build_engine(device, pitch=70e-9, rows=16,
                             cols=16).run(3000, rng=7)
                for _ in range(2)]
        assert runs[0].raw_bit_errors == runs[1].raw_bit_errors
        assert runs[0].write_errors == runs[1].write_errors
        assert runs[0].uber == runs[1].uber

    def test_same_engine_reruns_identically(self, device):
        """run() resets workload state: same engine + seed, same run."""
        engine = build_engine(device, pitch=70e-9, rows=16, cols=16,
                              workload="sequential")
        first = engine.run(2000, rng=1)
        second = engine.run(2000, rng=1)
        assert first.raw_bit_errors == second.raw_bit_errors
        assert first.uber == second.uber

    def test_secded_beats_no_ecc(self, device):
        uber = {}
        for ecc in ("none", "secded"):
            engine = build_engine(device, pitch=70e-9, rows=16,
                                  cols=16, ecc=ecc)
            uber[ecc] = engine.run(20_000, rng=11).uber
        assert 0.0 < uber["secded"] < uber["none"]

    def test_stress_workload_runs(self, device):
        engine = build_engine(device, pitch=52.5e-9, rows=16, cols=16,
                              workload="solid0")
        result = engine.run(3000, rng=2)
        assert result.n_transactions == 3000
        assert result.raw_bit_errors > 0

    def test_writeback_reduces_error_accumulation(self, device):
        raw = {}
        for writeback in (False, True):
            engine = build_engine(device, pitch=70e-9, rows=16,
                                  cols=16, workload="read-heavy",
                                  writeback=writeback)
            raw[writeback] = engine.run(20_000, rng=3).raw_ber
        assert raw[True] < raw[False]

    def test_validation(self, device):
        engine = build_engine(device, pitch=70e-9, rows=16, cols=16)
        with pytest.raises(Exception):
            engine.run(0)
        with pytest.raises(ParameterError):
            build_engine(device, pitch=70e-9, workload=object())

    @pytest.mark.parametrize("sampler", ["bernoulli", "binomial"])
    @pytest.mark.parametrize("bad", [0.5, 2.0, 0, -3])
    def test_counts_must_be_positive_integers(self, device, sampler,
                                              bad):
        """Fractional counts used to run: ``run(0.5)`` returned an
        empty result and ``batch_size=0.5`` failed deep inside the
        workload."""
        engine = build_engine(device, pitch=70e-9, rows=16, cols=16,
                              sampler=sampler)
        with pytest.raises(ParameterError, match="n_transactions"):
            engine.run(bad, rng=1)
        with pytest.raises(ParameterError, match="batch_size"):
            engine.run(100, rng=1, batch_size=bad)
        assert engine.run(np.int64(100), rng=1,
                          batch_size=np.int32(30)).n_transactions == 100


class TestRetentionAndScrub:
    def test_retention_flips_at_hot_slow_corner(self, device):
        """Long cycles at high temperature make retention visible."""
        engine = build_engine(device, pitch=52.5e-9, rows=16, cols=16,
                              workload="read-heavy", temperature=420.0,
                              cycle_time=10.0)
        result = engine.run(2000, rng=5)
        assert result.retention_flips > 0

    def test_scrub_reduces_uber_at_retention_corner(self, device):
        """Read-only traffic at a hot retention corner: without repair,
        flips pile up into uncorrectable pairs; a per-window scrub
        keeps the accumulation inside the SEC-DED budget.
        """
        from repro.memsys.traffic import Workload
        uber = {}
        for label, scrub in (("none", None),
                             ("scrubbed", ScrubPolicy(0.06))):
            engine = build_engine(device, pitch=52.5e-9, rows=16,
                                  cols=16,
                                  workload=Workload(read_fraction=1.0),
                                  temperature=420.0, cycle_time=1.3e-4,
                                  nominal_wer=1e-4, writeback=False,
                                  scrub=scrub)
            result = engine.run(12_000, rng=9, batch_size=500)
            uber[label] = result.uber
            if label == "scrubbed":
                assert result.n_scrubs > 0
                assert result.scrub_corrected_words > 0
        assert uber["scrubbed"] < uber["none"]

    def test_no_scrub_policy(self):
        policy = no_scrub()
        assert not policy.enabled
        assert not policy.due(1e9)
        with pytest.raises(ParameterError):
            policy.mark_done(1.0)

    def test_scrub_schedule(self):
        policy = ScrubPolicy(10.0)
        assert not policy.due(9.0)
        assert policy.due(10.0)
        policy.mark_done(10.0)
        assert not policy.due(19.0)
        assert policy.due(20.0)
        # Stepping over several periods catches up instead of looping.
        policy.mark_done(55.0)
        assert not policy.due(59.0)
        assert policy.due(60.0)


class TestExpectationMode:
    def test_matches_monte_carlo(self, device):
        """Expectation mode agrees with a long MC run on UBER."""
        engine = build_engine(device, pitch=70e-9, rows=16, cols=16)
        expected = engine.expected_rates(rng=1)
        mc = build_engine(device, pitch=70e-9, rows=16,
                          cols=16).run(100_000, rng=1)
        assert expected["uber"] == pytest.approx(mc.uber, rel=0.35)

    def test_no_ecc_uber_equals_raw(self, device):
        engine = build_engine(device, pitch=70e-9, rows=16, cols=16,
                              ecc="none")
        rates = engine.expected_rates(rng=0)
        assert rates["uber"] == pytest.approx(rates["raw_ber"])

    def test_result_renders_as_experiment(self, device):
        engine = build_engine(device, pitch=70e-9, rows=16, cols=16)
        result = engine.run(2000, rng=1)
        exp = result.to_experiment_result()
        assert exp.experiment_id == "memsys"
        assert exp.extras["uber"] == result.uber
        from repro.experiments.runner import render
        text = render(exp, plot=False)
        assert "raw BER" in text


class TestPhaseProfile:
    def _counters(self, result):
        return (result.raw_bit_errors, result.write_errors,
                result.disturb_flips, result.retention_flips,
                result.uncorrectable_bit_errors, result.words_ok)

    @pytest.mark.parametrize("sampler", ["bernoulli", "binomial"])
    def test_profile_breakdown_attached(self, device, sampler):
        engine = build_engine(device, pitch=70e-9, rows=16, cols=16,
                              sampler=sampler)
        result = engine.run(2000, rng=4, profile=True)
        profile = result.extras["profile"]
        assert set(profile) - {"other", "total"} <= {
            "classify", "draw", "place", "ecc", "scrub"}
        assert profile["total"] > 0
        for seconds in profile.values():
            assert seconds >= 0.0
        # Phases partition the run: their sum plus "other" is total.
        phases = sum(v for k, v in profile.items() if k != "total")
        assert phases == pytest.approx(profile["total"], rel=1e-6)

    def test_profile_does_not_change_draw_stream(self, device):
        engine = build_engine(device, pitch=70e-9, rows=16, cols=16,
                              sampler="binomial",
                              scrub=ScrubPolicy(5e-4))
        plain = engine.run(3000, rng=9)
        profiled = engine.run(3000, rng=9, profile=True)
        assert self._counters(plain) == self._counters(profiled)
        assert "profile" not in plain.extras
        assert "profile" in profiled.extras

    def test_scrub_phase_recorded(self, device):
        engine = build_engine(device, pitch=70e-9, rows=16, cols=16,
                              sampler="binomial",
                              scrub=ScrubPolicy(1e-5))
        result = engine.run(3000, rng=2, profile=True)
        assert result.n_scrubs > 0
        assert result.extras["profile"]["scrub"] > 0.0

    def test_nested_phases_book_exclusive_time(self):
        import time as time_mod

        from repro.memsys.engine import PhaseProfiler

        profiler = PhaseProfiler()
        with profiler.phase("scrub"):
            time_mod.sleep(0.01)
            with profiler.phase("draw"):
                time_mod.sleep(0.01)
            time_mod.sleep(0.01)
        assert profiler.seconds["draw"] >= 0.01
        assert profiler.seconds["scrub"] >= 0.02
        # The inner phase's time is not double-counted in the outer.
        assert profiler.seconds["scrub"] < 0.035


# -- pinned seeded counters ---------------------------------------------------
#
# Parity tests compare two paths of the same checkout, so a change that
# shifts both paths alike would pass them. These goldens pin absolute
# seeded counters instead. Every backend must reproduce the same golden
# (the kernels are draw-order preserving), which is why the key has no
# backend axis. The numba backend runs its kernels in python mode when
# numba is absent: a flat engine takes the instance directly, and a
# sharded engine's template is handed it, because shards otherwise
# resolve the backend from its registry name (which degrades to numpy).

PINNED_COUNTERS = (
    "n_transactions", "n_reads", "n_writes", "n_scrubs", "bits_read",
    "bits_written", "write_errors", "disturb_flips", "retention_flips",
    "sneak_flips", "raw_bit_errors", "uncorrectable_bit_errors",
    "words_ok", "words_corrected", "words_detected", "words_silent",
    "scrub_corrected_words", "scrub_uncorrectable_words")

PINNED_TOPOLOGIES = ("flat", "banked", "cross-point")

#: 24x24 at a hot, slow, read-heavy corner so that every mechanism and
#: both scrub counters book events; cross-point reads harder so that
#: half-select sneak flips appear.
PINNED_POINT = dict(pitch=52.5e-9, rows=24, cols=24,
                    workload="read-heavy", temperature=420.0,
                    cycle_time=3e-3, nominal_wer=2e-3)
PINNED_READ_VOLTAGE = {"flat": 0.2, "banked": 0.2, "cross-point": 0.32}


def _pinned_backend(name):
    from repro.memsys.backends import get_backend
    from repro.memsys.backends.numba_backend import NumbaEngineBackend
    return get_backend("numpy") if name == "numpy" else NumbaEngineBackend()


def _pinned_engine(device, topology, backend, sampler="bernoulli",
                   scrub=False, writeback=True, ecc="secded"):
    kwargs = dict(PINNED_POINT, sampler=sampler, ecc=ecc,
                  writeback=writeback,
                  read_voltage=PINNED_READ_VOLTAGE[topology],
                  scrub=ScrubPolicy(0.2) if scrub else None)
    backend = _pinned_backend(backend)
    if topology == "flat":
        return build_engine(device, backend=backend, **kwargs)
    engine = build_engine(device, topology=topology, banks=2,
                          subarrays=2, **kwargs)
    engine.template.backend = backend
    return engine


def _pinned_run(engine):
    kwargs = dict(rng=3, batch_size=250)
    if hasattr(engine, "topology"):
        kwargs["executor"] = "serial"
    result = engine.run(1000, **kwargs)
    return tuple(getattr(result, name) for name in PINNED_COUNTERS)


#: ``(topology, sampler, scrub, writeback, ecc) -> PINNED_COUNTERS``.
PINNED_RUNS = {
    ('flat', 'bernoulli', False, False, 'none'):
        (1000, 896, 104, 0, 57344, 6656, 15, 259, 40, 0, 2389, 2389, 237, 0, 0,
         659, 0, 0),
    ('flat', 'bernoulli', False, False, 'secded'):
        (1000, 891, 109, 0, 64152, 7848, 17, 256, 44, 0, 2399, 2238, 246, 161,
         152, 332, 0, 0),
    ('flat', 'bernoulli', False, True, 'none'):
        (1000, 896, 104, 0, 57344, 6656, 15, 259, 40, 0, 2389, 2389, 237, 0, 0,
         659, 0, 0),
    ('flat', 'bernoulli', False, True, 'secded'):
        (1000, 902, 98, 0, 64944, 15696, 40, 254, 46, 0, 1422, 1302, 457, 120,
         87, 238, 0, 0),
    ('flat', 'bernoulli', True, False, 'none'):
        (1000, 896, 104, 4, 57344, 6656, 15, 259, 40, 0, 2389, 2389, 237, 0, 0,
         659, 0, 30),
    ('flat', 'bernoulli', True, False, 'secded'):
        (1000, 896, 104, 4, 64512, 7704, 12, 286, 57, 0, 2753, 2615, 227, 138,
         93, 438, 3, 24),
    ('flat', 'bernoulli', True, True, 'none'):
        (1000, 896, 104, 4, 57344, 6656, 15, 259, 40, 0, 2389, 2389, 237, 0, 0,
         659, 0, 30),
    ('flat', 'bernoulli', True, True, 'secded'):
        (1000, 911, 89, 4, 65592, 15768, 42, 266, 54, 0, 2280, 2155, 383, 125,
         83, 320, 5, 22),
    ('flat', 'binomial', False, False, 'none'):
        (1000, 892, 108, 0, 57088, 6912, 16, 211, 57, 0, 2212, 2212, 221, 0, 0,
         671, 0, 0),
    ('flat', 'binomial', False, False, 'secded'):
        (1000, 895, 105, 0, 64440, 7560, 16, 266, 65, 0, 2777, 2608, 173, 169,
         159, 394, 0, 0),
    ('flat', 'binomial', False, True, 'none'):
        (1000, 892, 108, 0, 57088, 6912, 16, 211, 57, 0, 2212, 2212, 221, 0, 0,
         671, 0, 0),
    ('flat', 'binomial', False, True, 'secded'):
        (1000, 888, 112, 0, 63936, 16704, 31, 265, 56, 0, 2148, 2028, 387, 120,
         90, 291, 0, 0),
    ('flat', 'binomial', True, False, 'none'):
        (1000, 892, 108, 4, 57088, 6912, 16, 211, 57, 0, 2212, 2212, 221, 0, 0,
         671, 0, 36),
    ('flat', 'binomial', True, False, 'secded'):
        (1000, 893, 107, 4, 64296, 7848, 19, 274, 63, 0, 2703, 2533, 191, 170,
         119, 413, 2, 29),
    ('flat', 'binomial', True, True, 'none'):
        (1000, 892, 108, 4, 57088, 6912, 16, 211, 57, 0, 2212, 2212, 221, 0, 0,
         671, 0, 36),
    ('flat', 'binomial', True, True, 'secded'):
        (1000, 888, 112, 4, 63936, 16920, 30, 289, 56, 0, 2252, 2134, 369, 118,
         111, 290, 5, 23),
    ('banked', 'bernoulli', False, False, 'none'):
        (1000, 896, 104, 0, 57344, 6656, 14, 251, 25, 0, 2383, 2383, 225, 0, 0,
         671, 0, 0),
    ('banked', 'bernoulli', False, False, 'secded'):
        (1000, 896, 104, 0, 64512, 7488, 15, 294, 25, 0, 2834, 2634, 169, 200,
         86, 441, 0, 0),
    ('banked', 'bernoulli', False, True, 'none'):
        (1000, 896, 104, 0, 57344, 6656, 14, 251, 25, 0, 2383, 2383, 225, 0, 0,
         671, 0, 0),
    ('banked', 'bernoulli', False, True, 'secded'):
        (1000, 896, 104, 0, 64512, 18432, 33, 295, 25, 0, 1724, 1572, 425, 152,
         75, 244, 0, 0),
    ('banked', 'bernoulli', True, False, 'none'):
        (1000, 896, 104, 4, 57344, 6656, 14, 251, 25, 0, 2383, 2383, 225, 0, 0,
         671, 0, 8),
    ('banked', 'bernoulli', True, False, 'secded'):
        (1000, 896, 104, 4, 64512, 7632, 15, 286, 25, 0, 2538, 2317, 217, 221,
         92, 366, 2, 6),
    ('banked', 'bernoulli', True, True, 'none'):
        (1000, 896, 104, 4, 57344, 6656, 14, 251, 25, 0, 2383, 2383, 225, 0, 0,
         671, 0, 8),
    ('banked', 'bernoulli', True, True, 'secded'):
        (1000, 896, 104, 4, 64512, 19440, 35, 292, 25, 0, 1352, 1188, 465, 164,
         69, 198, 2, 6),
    ('banked', 'binomial', False, False, 'none'):
        (1000, 896, 104, 0, 57344, 6656, 13, 269, 18, 0, 2680, 2680, 225, 0, 0,
         671, 0, 0),
    ('banked', 'binomial', False, False, 'secded'):
        (1000, 896, 104, 0, 64512, 7488, 16, 311, 18, 0, 2667, 2485, 179, 182,
         110, 425, 0, 0),
    ('banked', 'binomial', False, True, 'none'):
        (1000, 896, 104, 0, 57344, 6656, 13, 269, 18, 0, 2680, 2680, 225, 0, 0,
         671, 0, 0),
    ('banked', 'binomial', False, True, 'secded'):
        (1000, 896, 104, 0, 64512, 16992, 31, 316, 18, 0, 2054, 1922, 382, 132,
         85, 297, 0, 0),
    ('banked', 'binomial', True, False, 'none'):
        (1000, 896, 104, 4, 57344, 6656, 13, 269, 18, 0, 2680, 2680, 225, 0, 0,
         671, 0, 8),
    ('banked', 'binomial', True, False, 'secded'):
        (1000, 896, 104, 4, 64512, 7632, 14, 328, 18, 0, 2670, 2497, 194, 173,
         103, 426, 2, 6),
    ('banked', 'binomial', True, True, 'none'):
        (1000, 896, 104, 4, 57344, 6656, 13, 269, 18, 0, 2680, 2680, 225, 0, 0,
         671, 0, 8),
    ('banked', 'binomial', True, True, 'secded'):
        (1000, 896, 104, 4, 64512, 16992, 31, 316, 18, 0, 2052, 1922, 384, 130,
         85, 297, 2, 6),
    ('cross-point', 'bernoulli', False, False, 'none'):
        (1000, 896, 104, 0, 57344, 6656, 13, 3273, 25, 2, 25601, 25601, 85, 0,
         0, 811, 0, 0),
    ('cross-point', 'bernoulli', False, False, 'secded'):
        (1000, 896, 104, 0, 64512, 7488, 15, 3731, 25, 2, 27844, 27833, 84, 11,
         4, 797, 0, 0),
    ('cross-point', 'bernoulli', False, True, 'none'):
        (1000, 896, 104, 0, 57344, 6656, 13, 3273, 25, 2, 25601, 25601, 85, 0,
         0, 811, 0, 0),
    ('cross-point', 'bernoulli', False, True, 'secded'):
        (1000, 896, 104, 0, 64512, 8424, 16, 3697, 25, 2, 27552, 27539, 84, 13,
         2, 797, 0, 0),
    ('cross-point', 'bernoulli', True, False, 'none'):
        (1000, 896, 104, 4, 57344, 6656, 13, 3273, 25, 2, 25601, 25601, 85, 0,
         0, 811, 0, 8),
    ('cross-point', 'bernoulli', True, False, 'secded'):
        (1000, 896, 104, 4, 64512, 7560, 12, 3761, 25, 2, 28410, 28401, 87, 9,
         3, 797, 1, 7),
    ('cross-point', 'bernoulli', True, True, 'none'):
        (1000, 896, 104, 4, 57344, 6656, 13, 3273, 25, 2, 25601, 25601, 85, 0,
         0, 811, 0, 8),
    ('cross-point', 'bernoulli', True, True, 'secded'):
        (1000, 896, 104, 4, 64512, 8424, 16, 3697, 25, 2, 27551, 27539, 85, 12,
         2, 797, 1, 7),
    ('cross-point', 'binomial', False, False, 'none'):
        (1000, 896, 104, 0, 57344, 6656, 9, 3323, 18, 1, 25714, 25714, 89, 0,
         0, 807, 0, 0),
    ('cross-point', 'binomial', False, False, 'secded'):
        (1000, 896, 104, 0, 64512, 7488, 13, 3766, 18, 1, 29461, 29448, 84, 13,
         3, 796, 0, 0),
    ('cross-point', 'binomial', False, True, 'none'):
        (1000, 896, 104, 0, 57344, 6656, 9, 3323, 18, 1, 25714, 25714, 89, 0,
         0, 807, 0, 0),
    ('cross-point', 'binomial', False, True, 'secded'):
        (1000, 896, 104, 0, 64512, 8640, 16, 3787, 18, 1, 29426, 29410, 82, 16,
         2, 796, 0, 0),
    ('cross-point', 'binomial', True, False, 'none'):
        (1000, 896, 104, 4, 57344, 6656, 9, 3323, 18, 1, 25714, 25714, 89, 0,
         0, 807, 0, 8),
    ('cross-point', 'binomial', True, False, 'secded'):
        (1000, 896, 104, 4, 64512, 7632, 16, 3758, 18, 1, 29507, 29492, 83, 15,
         2, 796, 2, 6),
    ('cross-point', 'binomial', True, True, 'none'):
        (1000, 896, 104, 4, 57344, 6656, 9, 3323, 18, 1, 25714, 25714, 89, 0,
         0, 807, 0, 8),
    ('cross-point', 'binomial', True, True, 'secded'):
        (1000, 896, 104, 4, 64512, 8640, 16, 3789, 18, 1, 29456, 29442, 84, 14,
         2, 796, 2, 6),
}

#: ``(topology, ecc) -> (raw_ber, word_fail_rate, uber)``.
PINNED_RATES = {
    ('flat', 'none'): (
        0.006784236708343552,
        0.35324182652509883,
        0.006784236708343552,
    ),
    ('flat', 'secded'): (
        0.006784236708343552,
        0.08615784967654765,
        0.0025984123775547475,
    ),
    ('banked', 'none'): (
        0.007361992851482891,
        0.37588635752626837,
        0.007361992851482891,
    ),
    ('banked', 'secded'): (
        0.00757502938033447,
        0.10420750166556088,
        0.003181763716742254,
    ),
    ('cross-point', 'none'): (
        0.5302295147654006,
        1.0,
        0.5302295147654006,
    ),
    ('cross-point', 'secded'): (
        0.5356405877490535,
        1.0,
        0.5356405877490535,
    ),
}


class TestPinnedCounters:
    @pytest.mark.parametrize("backend", ["numpy", "numba"])
    @pytest.mark.parametrize("key", sorted(PINNED_RUNS), ids=str)
    def test_run_counters(self, device, key, backend):
        topology, sampler, scrub, writeback, ecc = key
        engine = _pinned_engine(device, topology, backend,
                                sampler=sampler, scrub=scrub,
                                writeback=writeback, ecc=ecc)
        assert _pinned_run(engine) == PINNED_RUNS[key]

    @pytest.mark.parametrize("backend", ["numpy", "numba"])
    @pytest.mark.parametrize("sampler", ["bernoulli", "binomial"])
    @pytest.mark.parametrize("key", sorted(PINNED_RATES), ids=str)
    def test_expected_rates(self, device, key, sampler, backend):
        topology, ecc = key
        engine = _pinned_engine(device, topology, backend,
                                sampler=sampler, ecc=ecc)
        rates = engine.expected_rates(rng=3)
        got = (rates["raw_ber"], rates["word_fail_rate"], rates["uber"])
        assert got == pytest.approx(PINNED_RATES[key], rel=1e-12)
