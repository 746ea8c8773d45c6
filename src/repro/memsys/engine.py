"""Vectorized Monte-Carlo reliability engine.

Composes all three failure mechanisms — write error, read disturb,
retention — into the number a memory designer asks for: the
uncorrectable bit-error rate (UBER) of a coupled, dense array under real
traffic. Every per-epoch step is a numpy array operation over the whole
batch/array; there is no per-bit (or per-transaction) Python loop.

Two evaluation modes:

* :meth:`ReliabilityEngine.run` — transaction-by-transaction Monte
  Carlo: draws every error event, books ECC outcomes per read, applies
  write-back and scrubbing. The ground truth, with sampling noise.
* :meth:`ReliabilityEngine.expected_rates` — closed-form expectation
  over one write->read cycle per word against a fixed background: exact
  Poisson-binomial head (P[0], P[1] errors per word), noise-free. This
  is what the pitch sweeps use, so monotone coupling trends are not
  buried under Monte-Carlo noise. It draws nothing, so its output is
  bit-identical for every ``sampler``.

Monte Carlo runs one batch loop over one of two *states*, chosen by the
sampler (see :mod:`repro.memsys.sampling`):

* ``sampler="bernoulli"`` — the reference: one uniform per cell per
  mechanism against dense int8 planes. Cost O(cells) per batch.
* ``sampler="binomial"`` — the rare-event fast path: flip *counts* are
  drawn per coupling class (at most 50 distinct probabilities) and
  placed by index choice; ``intended``/``actual`` live bit-packed in
  uint64 lanes (:mod:`repro.memsys.bitplane`) with exact per-word
  error counters; the class maps refresh incrementally around the
  cells that actually changed. Cost O(classified + flips), which is
  what makes nominal_wer <= 1e-6 scenarios reachable.

A state owns its planes, its draws and their placement; the loop owns
batching, ECC outcome booking, scrub bookkeeping, checkpoints and
progress. Every per-cell probability is gathered from the
controller's flat per-class tables by class index, and every kernel is
a hook of the engine backend (:mod:`repro.memsys.backends`), the numpy
reference by default.
"""

from __future__ import annotations

import copy
import math
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field, fields as dataclass_fields
from typing import Dict

import numpy as np

from ..device.mtj import MTJDevice
from ..errors import ParameterError
from ..experiments.base import ExperimentResult
from ..resilience.checkpoint import as_checkpointer, checkpoint_key
from ..validation import (
    require_int_in_range,
    require_non_negative,
    require_positive,
)
from .backends import get_backend, resolve_backend
from .bitplane import BitPlane
from .controller import ArrayController
from .ecc import DecodeOutcome, NoECC, make_ecc
from .sampling import (
    IncrementalClassMaps,
    sample_class_flips,
    sample_thinned_flips,
    validate_sampler,
)
from .scrub import no_scrub
from .traffic import StressPatternWorkload, Workload, make_workload

#: Shared do-nothing context for un-profiled runs: ``_prof(None, ...)``
#: must cost one attribute check, not an allocation per phase.
_NULL_CONTEXT = nullcontext()


def _prof(profiler, name):
    """Phase context of ``profiler``, or a no-op when profiling is off."""
    if profiler is None:
        return _NULL_CONTEXT
    return profiler.phase(name)


class PhaseProfiler:
    """Accumulates *self* wall-time per engine phase.

    Phases may nest (a scrub's rewrite draws flips); time booked to an
    inner phase is excluded from the enclosing one, so the phase totals
    partition the instrumented wall-time and sum to (at most) the run's
    elapsed time.
    """

    #: Canonical phase order for reports.
    PHASES = ("classify", "draw", "place", "ecc", "scrub")

    def __init__(self):
        self.seconds = {}
        self._stack = []

    @contextmanager
    def phase(self, name):
        """Time the enclosed block as ``name`` (exclusive of children)."""
        now = time.perf_counter()
        if self._stack:
            parent = self._stack[-1]
            self.seconds[parent[0]] = (self.seconds.get(parent[0], 0.0)
                                       + now - parent[1])
        self._stack.append([name, now])
        try:
            yield
        finally:
            entry = self._stack.pop()
            now = time.perf_counter()
            self.seconds[name] = (self.seconds.get(name, 0.0)
                                  + now - entry[1])
            if self._stack:
                self._stack[-1][1] = now

    def breakdown(self, total=None):
        """Ordered ``{phase: seconds}``; adds ``other``/``total`` rows
        when the run's total wall-time is known."""
        out = {name: self.seconds.get(name, 0.0)
               for name in self.PHASES if name in self.seconds}
        for name in self.seconds:
            if name not in out:
                out[name] = self.seconds[name]
        if total is not None:
            out["other"] = max(0.0, float(total) - sum(out.values()))
            out["total"] = float(total)
        return out


@dataclass
class MemsysResult:
    """Counters and rates of one engine run.

    ``raw_ber`` is the pre-correction bit-error rate observed at the
    sense amplifiers; ``uber`` counts the bits of words the ECC failed
    to correct (detected or silent) per bit read; ``word_fail_rate`` is
    the per-read-word uncorrectable probability.
    """

    config: Dict
    n_transactions: int = 0
    n_reads: int = 0
    n_writes: int = 0
    n_scrubs: int = 0
    bits_read: int = 0
    bits_written: int = 0
    write_errors: int = 0
    disturb_flips: int = 0
    retention_flips: int = 0
    sneak_flips: int = 0
    raw_bit_errors: int = 0
    uncorrectable_bit_errors: int = 0
    words_ok: int = 0
    words_corrected: int = 0
    words_detected: int = 0
    words_silent: int = 0
    scrub_corrected_words: int = 0
    scrub_uncorrectable_words: int = 0
    simulated_time: float = 0.0
    extras: Dict = field(default_factory=dict)

    @property
    def raw_ber(self):
        """Pre-ECC bit-error rate per bit read."""
        return (self.raw_bit_errors / self.bits_read
                if self.bits_read else 0.0)

    @property
    def uber(self):
        """Post-ECC uncorrectable bit-error rate per bit read."""
        return (self.uncorrectable_bit_errors / self.bits_read
                if self.bits_read else 0.0)

    @property
    def word_fail_rate(self):
        """Uncorrectable (detected + silent) words per word read."""
        if not self.n_reads:
            return 0.0
        return (self.words_detected + self.words_silent) / self.n_reads

    def summary_rows(self):
        """(headers, rows) of the headline metric table."""
        headers = ["metric", "value"]
        rows = [
            ("transactions", self.n_transactions),
            ("reads / writes", f"{self.n_reads} / {self.n_writes}"),
            ("raw BER (pre-ECC)", f"{self.raw_ber:.3e}"),
            ("post-ECC UBER", f"{self.uber:.3e}"),
            ("word fail rate", f"{self.word_fail_rate:.3e}"),
            ("words corrected", self.words_corrected),
            ("words detected uncorrectable", self.words_detected),
            ("words silently corrupt", self.words_silent),
            ("write errors injected", self.write_errors),
            ("read-disturb flips", self.disturb_flips),
            ("retention flips", self.retention_flips),
            ("half-select sneak flips", self.sneak_flips),
            ("scrubs (corrected words)",
             f"{self.n_scrubs} ({self.scrub_corrected_words})"),
        ]
        return headers, rows

    def to_experiment_result(self):
        """Render as an :class:`~repro.experiments.base.ExperimentResult`
        so :mod:`repro.reporting` and the report builder work for free.
        """
        headers, rows = self.summary_rows()
        return ExperimentResult(
            experiment_id="memsys",
            title=("System-level reliability: "
                   f"{self.config.get('workload', '?')} traffic, "
                   f"{self.config.get('ecc', '?')} ECC"),
            headers=headers,
            rows=rows,
            extras={"config": self.config, "raw_ber": self.raw_ber,
                    "uber": self.uber,
                    "word_fail_rate": self.word_fail_rate},
        )


def merge_results(results, config=None):
    """Merge per-shard (or per-chunk) results into one aggregate.

    Every counter field sums; ``simulated_time`` takes the maximum
    (shards run concurrently on real hardware, so elapsed simulated
    time is the longest shard's, not the sum). ``config`` defaults to
    the first result's config.

    Profile extras are *preserved*, not dropped: when every part
    carries ``extras["profile"]``, the merged result carries the
    per-phase totals summed across parts (``total`` then means
    aggregate engine-seconds, which can exceed wall-clock on parallel
    executors). A part without a profile poisons the merge — summing a
    partial profile would silently under-report — so the key is only
    present when it is complete.
    """
    results = list(results)
    if not results:
        raise ParameterError("merge_results needs at least one result")
    for result in results:
        if not isinstance(result, MemsysResult):
            raise ParameterError(
                f"results must be MemsysResult, got {type(result)!r}")
    merged = MemsysResult(config=dict(
        results[0].config if config is None else config))
    for spec in dataclass_fields(MemsysResult):
        if spec.name in ("config", "simulated_time", "extras"):
            continue
        setattr(merged, spec.name,
                sum(getattr(r, spec.name) for r in results))
    merged.simulated_time = max(r.simulated_time for r in results)
    profiles = [r.extras.get("profile") for r in results]
    if all(profile is not None for profile in profiles):
        combined = {}
        for profile in profiles:
            for phase, seconds in profile.items():
                combined[phase] = (combined.get(phase, 0.0)
                                   + float(seconds))
        merged.extras["profile"] = combined
    return merged


class ReliabilityEngine:
    """Workload-driven reliability engine over one array controller.

    Parameters
    ----------
    controller:
        :class:`~repro.memsys.controller.ArrayController`.
    workload:
        A workload from :mod:`repro.memsys.traffic` (or a registry name).
    scrub:
        A :class:`~repro.memsys.scrub.ScrubPolicy`; default no scrub.
    cycle_time:
        Seconds of simulated time per transaction — sets the retention
        exposure between accesses.
    writeback:
        Rewrite words whose read found a correctable error (through the
        write path, so the rewrite itself may inject an error).
    sampler:
        ``"bernoulli"`` (reference: one uniform per cell per mechanism)
        or ``"binomial"`` (rare-event fast path: class-grouped flip
        counts over bit-packed state). Statistically equivalent;
        ``expected_rates`` is identical under both.
    backend:
        Compute backend of the engine's kernels (see
        :mod:`repro.memsys.backends`): a registry name (``"numpy"`` /
        ``"numba"``), a backend instance, or ``None`` to consult
        ``REPRO_ENGINE_BACKEND`` and default to numpy. Resolved once at
        construction; a ``numba`` request degrades to numpy (warn once)
        when numba is absent. Every backend yields identical seeded
        results.
    half_select_exposure:
        Half-selects accrued per cell per transaction — the cross-point
        sneak-path term (see :mod:`repro.memsys.topology`). Each batch
        draws extra flips against the controller's half-select disturb
        table with ``batch * exposure`` exposures per cell. The default
        0 skips the draw entirely, leaving 1T-1R draw streams
        untouched.
    """

    def __init__(self, controller, workload="random", scrub=None,
                 cycle_time=50e-9, writeback=True,
                 sampler="bernoulli", backend=None,
                 half_select_exposure=0.0):
        if not isinstance(controller, ArrayController):
            raise ParameterError(
                f"controller must be an ArrayController, got "
                f"{type(controller)!r}")
        require_positive(cycle_time, "cycle_time")
        self.controller = controller
        self.workload = (make_workload(workload)
                         if isinstance(workload, str) else workload)
        if not isinstance(self.workload, Workload):
            raise ParameterError(
                f"workload must be a Workload, got "
                f"{type(self.workload)!r}")
        self.scrub = no_scrub() if scrub is None else scrub
        self.cycle_time = float(cycle_time)
        self.writeback = bool(writeback)
        self.sampler = validate_sampler(sampler)
        self.backend = resolve_backend(backend)
        require_non_negative(half_select_exposure,
                             "half_select_exposure")
        self.half_select_exposure = float(half_select_exposure)

    def _config(self):
        config = {
            **self.controller.describe(),
            **self.workload.describe(),
            **self.scrub.describe(),
            "ecc": type(self.controller.ecc).__name__,
            "cycle_time_s": self.cycle_time,
            "writeback": self.writeback,
            "sampler": self.sampler,
            "backend": self.backend.name,
        }
        if self.half_select_exposure:
            config["half_select_exposure"] = self.half_select_exposure
        return config

    # -- Monte-Carlo mode ---------------------------------------------------

    def run(self, n_transactions, rng=None, batch_size=8192,
            progress=None, profile=False, checkpoint=None,
            checkpoint_every=None, resume=False):
        """Simulate ``n_transactions`` and return a :class:`MemsysResult`.

        Batches are split into *occurrence-rank rounds* — in round ``r``
        every word address appears at most once, so repeated accesses to
        the same word keep their exact sequential semantics while each
        round is a pure numpy array step. Coupling-class maps and
        retention exposure refresh at batch boundaries (the background
        data drifts slowly relative to a batch).

        The constructor's ``sampler`` selects the state the loop drives:
        the ``bernoulli`` reference draws one uniform per cell per
        mechanism over dense int8 planes; the ``binomial`` fast path
        draws per-class flip counts over bit-packed planes. Both are
        deterministic under a seeded ``rng`` and statistically
        equivalent; their draw streams (and therefore individual seeded
        counters) differ.

        ``progress``, when given, is called after every batch as
        ``progress(transactions_done, n_transactions)``. It is also the
        cancellation point: raising
        :class:`~repro.errors.RunAborted` (or anything else) from the
        callback stops the run at that batch boundary — which is how
        the :mod:`repro.service` server streams progress and aborts
        abandoned queries. The callback never changes the draw stream,
        so a run with ``progress`` is bit-identical to one without.

        ``profile=True`` times the run's phases (classify / draw /
        place / ecc / scrub) and attaches the breakdown as
        ``result.extras["profile"]`` (seconds per phase, plus
        ``other``/``total``), so backend wins are attributable. Timing
        never touches the draw stream: a profiled run is bit-identical
        to an unprofiled one.

        ``checkpoint`` (a directory path, a
        :class:`~repro.resilience.checkpoint.CheckpointManager`, or a
        pre-built :class:`~repro.resilience.checkpoint.RunCheckpointer`)
        arms crash tolerance: the complete dynamic state — plane
        arrays, RNG generator state, counters, workload and scrub
        stream state — is snapshotted atomically at batch boundaries,
        at most every ``checkpoint_every`` transactions (default: every
        batch). With ``resume=True`` a matching checkpoint restores the
        run mid-stream and the completed result is byte-identical to
        the uninterrupted seeded run; a corrupt, stale, or absent
        checkpoint degrades to a clean restart with a counted
        :class:`~repro.errors.ResilienceWarning`. Saving never changes
        the draw stream: a checkpointed run is bit-identical to an
        unprotected one.
        """
        n_transactions = require_int_in_range(
            n_transactions, "n_transactions", 1, math.inf)
        batch_size = require_int_in_range(batch_size, "batch_size", 1,
                                          math.inf)
        rng = np.random.default_rng(rng)
        ckpt = as_checkpointer(checkpoint, every=checkpoint_every)
        key = restored = identity = None
        if ckpt is not None:
            key = checkpoint_key((self._config(), n_transactions,
                                  batch_size))
            # The run's identity record: every config field flattened,
            # plus the shape and a digest of the generator's *initial*
            # state (the seed's footprint — deliberately outside the
            # key, since resume restores the generator mid-stream, but
            # inside the identity so resuming with the wrong seed is a
            # named error rather than a silent seed swap).
            identity = {
                "n_transactions": n_transactions,
                "batch_size": batch_size,
                "seed_state": checkpoint_key(rng.bit_generator.state),
                **{str(k): v for k, v in self._config().items()},
            }
            if resume:
                restored = ckpt.restore(key, identity=identity)
                if restored is not None and restored.get("complete"):
                    return restored["result"]
        profiler = PhaseProfiler() if profile else None
        t0 = time.perf_counter()
        ctl = self.controller
        words = ctl.words
        state_cls = (_PackedState if self.sampler == "binomial"
                     else _DenseState)
        if restored is not None:
            # Resume mid-stream: the saved RNG state already accounts
            # for every draw up to the checkpointed boundary (including
            # initial_bits), so nothing is drawn here.
            state = state_cls.resume(restored, ctl, self.backend)
            self.workload = restored["workload"]
            self.scrub = restored["scrub"]
            self.workload.bind(words)
            result = restored["result"]
            now = float(restored["now"])
            remaining = int(restored["remaining"])
            rng.bit_generator.state = restored["rng_state"]
        else:
            state = state_cls.start(
                self.workload.initial_bits(ctl.layout.rows,
                                           ctl.layout.cols, rng),
                ctl, self.backend)
            self.workload.bind(words)
            self.workload.reset()
            self.scrub.reset()
            result = MemsysResult(config=self._config())
            now = 0.0
            remaining = n_transactions
        while remaining > 0:
            n = min(batch_size, remaining)
            remaining -= n
            batch = self.workload.batch(n, words.n_words, rng)
            with _prof(profiler, "classify"):
                state.classify()

            # Retention exposure accrued over this batch's window; a
            # due scrub repairs the accumulation *before* the window's
            # accesses observe it.
            dt = n * self.cycle_time
            now += dt
            result.retention_flips += self._background(
                state, ctl.retention_class_probability(dt), rng,
                profiler)
            if self.half_select_exposure > 0.0:
                # Cross-point sneak term: every cell accrued ~exposure
                # half-selects per transaction of this batch's window.
                result.sneak_flips += self._background(
                    state, ctl.half_select_class_probability(
                        n * self.half_select_exposure), rng, profiler)
            if self.scrub.due(now):
                with _prof(profiler, "scrub"):
                    self._scrub(state, rng, result)
                self.scrub.mark_done(now)

            rank = _occurrence_rank(batch.word)
            for r in range(int(rank.max()) + 1 if len(batch) else 0):
                sel = rank == r
                self._round(state, batch.word[sel], batch.is_write[sel],
                            rng, result, profiler)

            result.n_transactions += n
            if ckpt is not None and remaining > 0:
                ckpt.maybe_save(result.n_transactions, lambda: {
                    "key": key, "identity": identity,
                    "rng_state": rng.bit_generator.state,
                    **state.snapshot(),
                    "workload": self.workload, "scrub": self.scrub,
                    "result": result, "now": now,
                    "remaining": remaining})
            if progress is not None:
                progress(result.n_transactions, n_transactions)

        result.simulated_time = now
        if ckpt is not None:
            ckpt.finalize(key, result, identity=identity)
        if profiler is not None:
            result.extras["profile"] = profiler.breakdown(
                total=time.perf_counter() - t0)
        return result

    def _background(self, state, p_class, rng, profiler):
        """Draw and place one whole-array mechanism; returns the flips."""
        with _prof(profiler, "draw"):
            flips = state.draw_background(p_class, rng)
        if flips.size:
            with _prof(profiler, "place"):
                state.toggle(flips)
        return int(flips.size)

    def _round(self, state, round_words, is_write, rng, result,
               profiler):
        """One round: every word in ``round_words`` is unique."""
        ecc = self.controller.ecc

        w_words = round_words[is_write]
        result.n_writes += int(w_words.size)
        if w_words.size:
            data = self._write_data(w_words, rng)
            with _prof(profiler, "ecc"):
                cw = ecc.encode(data)
            with _prof(profiler, "draw"):
                flips = state.draw_write(w_words, cw, rng)
            with _prof(profiler, "place"):
                state.write_words(w_words, cw, flips)
            result.bits_written += int(cw.size)
            result.write_errors += int(flips.size)

        # Reads: sense, classify via ECC, write back correctables, then
        # apply the disturb of the read current to the stored state.
        r_words = round_words[~is_write]
        result.n_reads += int(r_words.size)
        if r_words.size:
            result.bits_read += int(r_words.size) * ecc.n_code
            if state.clean:
                # No mismatched bit anywhere in the array: every read
                # is clean without touching any per-word array.
                result.words_ok += int(r_words.size)
            else:
                with _prof(profiler, "ecc"):
                    self._book_reads(state, r_words, rng, result)
            with _prof(profiler, "draw"):
                flips = state.draw_disturb(r_words, rng)
            if flips.size:
                with _prof(profiler, "place"):
                    state.toggle(flips)
            result.disturb_flips += int(flips.size)

    def _book_reads(self, state, r_words, rng, result):
        """Book the ECC outcome of reading ``r_words``, then write back
        the corrected words."""
        n_err = state.word_errors(r_words)
        outcomes = self.controller.ecc.classify_errors(n_err)
        by_outcome = np.bincount(outcomes, minlength=4)
        result.raw_bit_errors += int(n_err.sum())
        result.words_ok += int(by_outcome[DecodeOutcome.OK])
        result.words_corrected += int(
            by_outcome[DecodeOutcome.CORRECTED])
        result.words_detected += int(by_outcome[DecodeOutcome.DETECTED])
        result.words_silent += int(by_outcome[DecodeOutcome.SILENT])
        if by_outcome[DecodeOutcome.DETECTED] or by_outcome[
                DecodeOutcome.SILENT]:
            uncorr = outcomes >= DecodeOutcome.DETECTED
            result.uncorrectable_bit_errors += int(n_err[uncorr].sum())
        if self.writeback and by_outcome[DecodeOutcome.CORRECTED]:
            corrected = outcomes == DecodeOutcome.CORRECTED
            self._rewrite(state, r_words[corrected], rng, result)

    def _write_data(self, words, rng):
        """Data stored by a batch of writes (pattern-aware)."""
        ctl = self.controller
        if isinstance(self.workload, StressPatternWorkload):
            return self.workload.background_data(
                words, ctl.words, ctl.ecc.data_positions)
        return self.workload.write_data(words, ctl.ecc.n_data, rng)

    def _rewrite(self, state, word_idx, rng, result):
        """Rewrite whole words through the (fallible) write path."""
        flips = state.draw_rewrite(word_idx, rng)
        state.restore_words(word_idx, flips)
        result.bits_written += (int(word_idx.size)
                                * self.controller.ecc.n_code)
        result.write_errors += int(flips.size)

    def _scrub(self, state, rng, result):
        """One scrub pass over every word."""
        n_err = state.word_errors()
        outcomes = self.controller.ecc.classify_errors(n_err)
        fixable = ((outcomes == DecodeOutcome.CORRECTED)
                   | (outcomes == DecodeOutcome.OK)) & (n_err > 0)
        result.n_scrubs += 1
        result.scrub_corrected_words += int(fixable.sum())
        result.scrub_uncorrectable_words += int(
            (outcomes >= DecodeOutcome.DETECTED).sum())
        if np.any(fixable):
            self._rewrite(state.scrub_view(), np.flatnonzero(fixable),
                          rng, result)

    # -- expectation mode ---------------------------------------------------

    def expected_rates(self, rng=None):
        """Noise-free expected rates over one write->read cycle per word.

        Against the workload's (seeded) background data, every mapped
        cell accrues a write error, one read disturb, and the retention
        exposure of one ``cycle_time``; the per-word uncorrectable
        probability follows from the exact Poisson-binomial head::

            P0 = prod(1 - p_i),  P1 = P0 * sum(p_i / (1 - p_i))

        Returns a dict with ``raw_ber``, ``word_fail_rate`` and ``uber``
        (expected uncorrected wrong bits per bit read).
        """
        ctl = self.controller
        rows, cols = ctl.layout.rows, ctl.layout.cols
        rng = np.random.default_rng(rng)
        bits = self.workload.initial_bits(rows, cols, rng)
        class_idx = self.backend.rebuild_class_maps(
            np.asarray(bits, dtype=np.int8), rows, cols)[2]
        ci = class_idx[ctl.words.cells]
        p_wr = ctl.wer_class_probability()[ci]
        p_rd = ctl.disturb_class_probability()[ci]
        p_ret = ctl.retention_class_probability(self.cycle_time)[ci]
        p = 1.0 - (1.0 - p_wr) * (1.0 - p_rd) * (1.0 - p_ret)
        if self.half_select_exposure > 0.0:
            p_hs = ctl.half_select_class_probability(
                self.half_select_exposure)[ci]
            p = 1.0 - (1.0 - p) * (1.0 - p_hs)
        p = np.clip(p, 0.0, 1.0 - 1e-12)

        p0 = np.prod(1.0 - p, axis=1)
        p1 = p0 * np.sum(p / (1.0 - p), axis=1)
        sum_p = p.sum(axis=1)
        if isinstance(ctl.ecc, NoECC):
            # No redundancy: every wrong bit reaches the user.
            uncorrected = sum_p
            word_fail = 1.0 - p0
        else:
            # SEC-DED: single errors vanish, everything else survives.
            uncorrected = sum_p - p1
            word_fail = 1.0 - p0 - p1
        total_bits = p.size
        return {
            "raw_ber": float(sum_p.sum() / total_bits),
            "word_fail_rate": float(word_fail.mean()),
            "uber": float(uncorrected.sum() / total_bits),
        }


# -- engine states --------------------------------------------------------
#
# ``ReliabilityEngine.run`` drives one of two states through the same
# batch loop. A state owns the planes and how flips are drawn and
# placed; every draw returns the flat indices of the cells that flip,
# and the engine books the counters. All probabilities are gathered
# from the controller's flat per-class tables by class index.


class _EngineState:
    """What both states share: planes, backend, and the clipped
    per-class write/disturb tables (clipping to [0, 1] never changes
    the outcome of a ``uniform < p`` draw, and the thinned draws need
    it)."""

    #: True only when no cell anywhere disagrees with its intended
    #: value, so reads may skip the per-word error gather.
    clean = False

    def __init__(self, intended, actual, controller, backend=None):
        self.intended = intended
        self.actual = actual
        self.controller = controller
        self.backend = get_backend("numpy") if backend is None else backend
        # Run-scoped clipped copies of the controller's fixed tables
        # (plus their maxima), so the thinned draws skip a table scan
        # per call without leaking state onto the engine.
        self.wer_p = np.clip(controller.wer_class_probability(), 0.0,
                             1.0)
        self.wer_pmax = float(self.wer_p.max())
        self.disturb_p = np.clip(
            controller.disturb_class_probability(), 0.0, 1.0)
        self.disturb_pmax = float(self.disturb_p.max())

    def scrub_view(self):
        """The state a scrub pass rewrites through."""
        return self


class _DenseState(_EngineState):
    """Dense int8 planes: the ``bernoulli`` reference.

    One uniform per cell per mechanism. Neighbor classes freeze at each
    batch boundary (:meth:`classify`); a scrub pass reclassifies for
    its own rewrites (:meth:`scrub_view`).
    """

    @classmethod
    def start(cls, bits, controller, backend):
        intended = np.array(bits, dtype=np.int8).reshape(-1)
        return cls(intended, intended.copy(), controller, backend)

    @classmethod
    def resume(cls, restored, controller, backend):
        return cls(np.asarray(restored["intended"], dtype=np.int8),
                   np.asarray(restored["actual"], dtype=np.int8),
                   controller, backend)

    def snapshot(self):
        return {"intended": self.intended, "actual": self.actual}

    def classify(self):
        layout = self.controller.layout
        class_idx = self.backend.rebuild_class_maps(
            self.actual, layout.rows, layout.cols)[2]
        # The neighbor part (nd * 5 + ng) of every cell's class; a
        # cell holding bit b is in class b * 25 + neigh.
        self.neigh = class_idx % 25

    def scrub_view(self):
        view = copy.copy(self)
        view.classify()
        return view

    def _draw(self, cells, bits, p_class, rng):
        hit = rng.random(cells.shape) < p_class[bits * 25
                                                + self.neigh[cells]]
        return cells[hit]

    def draw_background(self, p_class, rng):
        hit = rng.random(self.actual.shape) < p_class[self.actual * 25
                                                      + self.neigh]
        return np.flatnonzero(hit)

    def draw_write(self, word_idx, cw, rng):
        return self._draw(self.controller.words.cells[word_idx], cw,
                          self.wer_p, rng)

    def draw_rewrite(self, word_idx, rng):
        cells = self.controller.words.cells[word_idx]
        return self._draw(cells, self.intended[cells], self.wer_p, rng)

    def draw_disturb(self, word_idx, rng):
        cells = self.controller.words.cells[word_idx]
        return self._draw(cells, self.actual[cells], self.disturb_p, rng)

    def word_errors(self, word_idx=slice(None)):
        cells = self.controller.words.cells[word_idx]
        return (self.actual[cells] != self.intended[cells]).sum(axis=1)

    def toggle(self, flat_idx):
        self.actual[flat_idx] ^= 1

    def write_words(self, word_idx, cw, flip_cells):
        cells = self.controller.words.cells[word_idx]
        self.intended[cells] = cw
        self.actual[cells] = cw
        self.actual[flip_cells] ^= 1

    def restore_words(self, word_idx, flip_cells):
        cells = self.controller.words.cells[word_idx]
        self.actual[cells] = self.intended[cells]
        self.actual[flip_cells] ^= 1


class _PackedState(_EngineState):
    """Packed planes + class maps + exact per-word error counters: the
    ``binomial`` fast path.

    Flips are drawn per coupling class (50 binomials instead of one
    uniform per cell) and the class maps refresh incrementally.
    ``err_count[w]`` tracks, exactly, how many cells of word ``w``
    currently disagree with their intended value; ``wrong_bits`` is its
    array-wide total. Both are maintained at every mutation — O(flips)
    each — so a read books its error count with one int gather and, at
    rare-event operating points (where ``wrong_bits`` is almost always
    zero), without touching any per-word array at all. The packed
    planes stay the ground truth: ``BitPlane.diff_counts`` (XOR +
    popcount) must agree with ``err_count`` at any instant, which the
    equivalence tests assert.

    One deliberate second-order difference from the dense reference: a
    scrub pass rewrites against the batch's class maps instead of
    reclassifying — at rare-event rates the maps differ only at the
    handful of freshly flipped cells.
    """

    def __init__(self, intended, actual, maps, controller,
                 backend=None):
        super().__init__(intended, actual, controller, backend)
        self.maps = maps
        self.err_count = np.zeros(intended.n_words, dtype=np.int16)
        self.wrong_bits = 0

    @classmethod
    def start(cls, bits, controller, backend):
        layout = controller.layout
        intended = BitPlane.from_bits(
            np.asarray(bits, dtype=np.int8).reshape(-1),
            controller.words.n_words, controller.ecc.n_code)
        maps = IncrementalClassMaps(layout.rows, layout.cols, intended,
                                    backend=backend)
        return cls(intended, intended.copy(), maps, controller, backend)

    @classmethod
    def resume(cls, restored, controller, backend):
        # The class maps are a pure function of the actual plane and
        # rebuild from it; the exact error counters are restored.
        layout = controller.layout
        actual = restored["actual"]
        maps = IncrementalClassMaps(layout.rows, layout.cols, actual,
                                    backend=backend)
        state = cls(restored["intended"], actual, maps, controller,
                    backend)
        state.err_count = np.asarray(restored["err_count"],
                                     dtype=np.int16)
        state.wrong_bits = int(restored["wrong_bits"])
        return state

    def snapshot(self):
        return {"intended": self.intended, "actual": self.actual,
                "err_count": self.err_count,
                "wrong_bits": self.wrong_bits}

    @property
    def clean(self):
        return self.wrong_bits == 0

    def classify(self):
        self.maps.refresh(self.actual)

    def _draw(self, word_idx, bits_at, p_class, p_max, rng):
        """Thinned draw over the cells of ``word_idx``.

        Word ``w`` holds cells ``[w * code_bits, (w + 1) * code_bits)``
        (the :class:`~repro.memsys.controller.WordMap` layout), so only
        the candidates' cells are ever computed, and only they are
        classified; ``bits_at(pos, cells)`` gives the bits they hold.
        """
        code_bits = self.actual.code_bits

        def cells_at(pos):
            return word_idx[pos // code_bits] * code_bits + pos % code_bits

        def class_of(pos):
            cells = cells_at(pos)
            return self.maps.cell_classes(bits_at(pos, cells), cells)

        return cells_at(sample_thinned_flips(
            word_idx.size * code_bits, p_class, class_of, rng,
            p_max=p_max))

    def draw_background(self, p_class, rng):
        return sample_class_flips(self.maps.class_idx, p_class, rng,
                                  hist=self.maps.hist,
                                  backend=self.backend)

    def draw_write(self, word_idx, cw, rng):
        cw_flat = cw.reshape(-1)
        return self._draw(word_idx, lambda pos, cells: cw_flat[pos],
                          self.wer_p, self.wer_pmax, rng)

    def draw_rewrite(self, word_idx, rng):
        return self._draw(
            word_idx, lambda pos, cells: self.intended.get_cells(cells),
            self.wer_p, self.wer_pmax, rng)

    def draw_disturb(self, word_idx, rng):
        # Candidates are classified lazily, from the post-rewrite
        # stored bits.
        return self._draw(
            word_idx, lambda pos, cells: self.actual.get_cells(cells),
            self.disturb_p, self.disturb_pmax, rng)

    def word_errors(self, word_idx=slice(None)):
        return self.err_count[word_idx]

    def toggle(self, flat_idx):
        """Flip ``actual`` at flat cells (duplicate-free indices)."""
        self.wrong_bits += self.backend.toggle_and_count(
            self.intended, self.actual, flat_idx, self.err_count)

    def write_words(self, word_idx, cw, flip_cells):
        """``intended = actual = cw``, then inject errors at
        ``flip_cells`` (flat cell indices inside the written words)."""
        self.wrong_bits -= int(self.err_count[word_idx].sum())
        self.err_count[word_idx] = 0
        self.intended.set_words(word_idx, cw)
        self.actual.set_words(word_idx, cw)
        self._inject(flip_cells)

    def restore_words(self, word_idx, flip_cells):
        """``actual = intended`` for whole words, plus write errors."""
        self.wrong_bits -= int(self.err_count[word_idx].sum())
        self.err_count[word_idx] = 0
        self.actual.lanes[word_idx] = self.intended.lanes[word_idx]
        self._inject(flip_cells)

    def _inject(self, flip_cells):
        if flip_cells.size:
            self.wrong_bits += self.backend.inject_and_count(
                self.actual, flip_cells, self.err_count)


def build_engine(device, pitch, rows=64, cols=64, ecc="secded",
                 workload="random", data_bits=64, scrub=None,
                 vp=0.95, nominal_wer=2e-3, read_voltage=0.15,
                 t_read=20e-9, cycle_time=50e-9, temperature=None,
                 writeback=True, sampler="bernoulli", backend=None,
                 sense=None, topology=None, banks=None, subarrays=None,
                 half_select_exposure=0.0):
    """Convenience factory: device + knobs -> a reliability engine.

    ``ecc`` and ``workload`` accept registry names (see
    :data:`repro.memsys.ecc.ECC_SCHEMES` and
    :data:`repro.memsys.traffic.WORKLOADS`); ``sampler`` selects the
    Monte-Carlo draw strategy (see :data:`repro.memsys.sampling.\
SAMPLERS` — use ``"binomial"`` for rare-event operating points);
    ``backend`` selects the engine's compute backend (see
    :data:`repro.memsys.backends.BACKENDS`; default consults
    ``REPRO_ENGINE_BACKEND``, then numpy); ``sense`` optionally gates
    reads through a :class:`~repro.memsys.sense.SenseMarginModel`.

    ``topology``/``banks``/``subarrays`` select the array organization
    (see :data:`repro.memsys.topology.TOPOLOGIES`): the default flat
    1x1 case returns a plain :class:`ReliabilityEngine`; anything
    sharded (or any explicit non-flat ``topology``) returns a
    :class:`~repro.memsys.topology.TopologyEngine` over ``rows x
    cols`` tiled into banks x subarrays. ``half_select_exposure`` is a
    flat-engine knob: a topology derives its own (non-zero only for
    cross-point), so passing one with a non-flat topology raises.
    """
    from ..arrays.layout import ArrayLayout
    if not isinstance(device, MTJDevice):
        raise ParameterError(
            f"device must be an MTJDevice, got {type(device)!r}")
    n_banks = 1 if banks is None else int(banks)
    n_subarrays = 1 if subarrays is None else int(subarrays)
    if (topology is not None and str(topology) != "flat") \
            or n_banks != 1 or n_subarrays != 1:
        from .topology import ArrayTopology, TopologyEngine
        if half_select_exposure:
            raise ParameterError(
                "half_select_exposure applies to the flat engine only; "
                "a topology derives its own (cross-point sneak term)")
        topo = ArrayTopology(
            kind="banked" if topology is None else topology,
            banks=n_banks, subarrays=n_subarrays, rows=rows,
            cols=cols)
        return TopologyEngine(
            device, topo, pitch=pitch, ecc=ecc, workload=workload,
            data_bits=data_bits, scrub=scrub, vp=vp,
            nominal_wer=nominal_wer, read_voltage=read_voltage,
            t_read=t_read, cycle_time=cycle_time,
            temperature=temperature, writeback=writeback,
            sampler=sampler, backend=backend, sense=sense)
    layout = ArrayLayout(pitch=pitch, rows=rows, cols=cols)
    ecc_obj = make_ecc(ecc, data_bits=data_bits) if isinstance(
        ecc, str) else ecc
    controller = ArrayController(
        device, layout, ecc_obj, vp=vp, nominal_wer=nominal_wer,
        read_voltage=read_voltage, t_read=t_read,
        temperature=temperature, sense=sense)
    return ReliabilityEngine(controller, workload=workload, scrub=scrub,
                             cycle_time=cycle_time, writeback=writeback,
                             sampler=sampler, backend=backend,
                             half_select_exposure=half_select_exposure)


def _occurrence_rank(words):
    """Occurrence index of every element within its equal-value group.

    ``_occurrence_rank([7, 3, 7, 7, 3]) == [0, 0, 1, 2, 1]`` — the r-th
    access to each word lands in round ``r``, preserving the sequential
    semantics of repeated accesses without a per-transaction loop.
    """
    n = words.shape[0]
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    order = np.argsort(words, kind="stable")
    sorted_words = words[order]
    new_group = np.empty(n, dtype=bool)
    new_group[0] = True
    np.not_equal(sorted_words[1:], sorted_words[:-1],
                 out=new_group[1:])
    starts = np.maximum.accumulate(
        np.where(new_group, np.arange(n), 0))
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n) - starts
    return rank
