"""Numba-JIT kernels for the engine's hot loops.

Each kernel is written as a plain scalar loop over flat indices — the
fidimag ``lib/`` idiom: precompute nothing fancy, walk a flat
neighbor-index pattern, and let the compiler remove the dispatch —
then wrapped by ``@njit`` when numba imports. Without numba the
module still imports and every kernel runs as ordinary (slow) Python,
which is what lets the parity/property tests exercise the exact
compiled logic on machines without the ``[fast]`` extra; the registry
(:func:`repro.memsys.backends.resolve_backend`) never *selects* this
backend there, it falls back to numpy with one warning.

Two deliberate representation choices keep the kernels simple and
portable:

* All bit manipulation happens on ``uint8`` views of the uint64
  lanes. ``LANE_DTYPE`` is explicitly little-endian, so byte ``k`` of
  a lane always holds codeword bits ``8k..8k+7`` regardless of
  platform, and staying in uint8/int64 arithmetic sidesteps numba's
  uint64/int64 promotion pitfalls.
* The class-map kernels mutate the caller's arrays in place and
  deduplicate touched cells with a sort + scan over a small scratch
  buffer (at most ``9 x changed`` entries), not a whole-array pass.

A one-time :meth:`NumbaEngineBackend.ready` self-check compiles every
kernel on tiny inputs and verifies it against the numpy reference, so
a numba/LLVM environment problem degrades to the numpy backend at
resolve time instead of crashing mid-run.
"""

from __future__ import annotations

import numpy as np

from ..bitplane import _POPCOUNT_TABLE

try:
    from numba import njit

    NUMBA_AVAILABLE = True
except ImportError:  # pragma: no cover - exercised via python mode
    NUMBA_AVAILABLE = False

    def njit(*args, **kwargs):
        """No-numba stand-in: leave the kernel as plain Python."""
        def decorate(func):
            return func
        return decorate

#: Per-byte set-bit counts widened to int64 once, so kernel sums never
#: touch uint8 accumulation.
_TABLE64 = _POPCOUNT_TABLE.astype(np.int64)


@njit(cache=True)
def _xor_popcount_rows(a8, b8, table, out):
    """Per-row popcount of ``a ^ b`` over uint8 views, no XOR temp."""
    n, m = a8.shape
    for i in range(n):
        total = 0
        for j in range(m):
            total += table[a8[i, j] ^ b8[i, j]]
        out[i] = total


@njit(cache=True)
def _rebuild_class_maps(bits, rows, cols, nd, ng, class_idx, hist):
    """Fused whole-array rebuild: neighbor counts + class + histogram.

    One pass over the grid replaces the reference's four vectorized
    stages (pad/shift sums, class_index, astype, bincount) and all
    their temporaries. Missing neighbors beyond the edge count as 0
    (P) — the dummy-cell boundary convention.
    """
    for k in range(hist.size):
        hist[k] = 0
    for r in range(rows):
        up = r > 0
        down = r < rows - 1
        base = r * cols
        for c in range(cols):
            i = base + c
            left = c > 0
            right = c < cols - 1
            d = 0
            g = 0
            if up:
                d += bits[i - cols]
                if left:
                    g += bits[i - cols - 1]
                if right:
                    g += bits[i - cols + 1]
            if down:
                d += bits[i + cols]
                if left:
                    g += bits[i + cols - 1]
                if right:
                    g += bits[i + cols + 1]
            if left:
                d += bits[i - 1]
            if right:
                d += bits[i + 1]
            ci = bits[i] * 25 + d * 5 + g
            nd[i] = d
            ng[i] = g
            class_idx[i] = ci
            hist[ci] += 1


@njit(cache=True)
def _apply_class_changes(changed, new_bits, nd, ng, class_idx, hist,
                         changed_mask, scratch, rows, cols):
    """Incremental class-map update around ``changed`` cells.

    Every changed cell has been toggled exactly once since the last
    refresh; ``new_bits`` holds its *new* value. Neighbor counts are
    bumped with a flat index walk (the fidimag neighbor pattern),
    touched cells collect into ``scratch`` (<= 9 per change), and one
    sort + scan re-derives class index and histogram for each distinct
    affected cell. Returns the number of distinct affected cells.
    """
    n = changed.size
    for k in range(n):
        changed_mask[changed[k]] = 1
    m = 0
    for k in range(n):
        i = changed[k]
        delta = 2 * new_bits[k] - 1  # 0 -> 1: +1, 1 -> 0: -1
        r = i // cols
        c = i % cols
        up = r > 0
        down = r < rows - 1
        left = c > 0
        right = c < cols - 1
        scratch[m] = i
        m += 1
        if up:
            nd[i - cols] += delta
            scratch[m] = i - cols
            m += 1
            if left:
                ng[i - cols - 1] += delta
                scratch[m] = i - cols - 1
                m += 1
            if right:
                ng[i - cols + 1] += delta
                scratch[m] = i - cols + 1
                m += 1
        if down:
            nd[i + cols] += delta
            scratch[m] = i + cols
            m += 1
            if left:
                ng[i + cols - 1] += delta
                scratch[m] = i + cols - 1
                m += 1
            if right:
                ng[i + cols + 1] += delta
                scratch[m] = i + cols + 1
                m += 1
        if left:
            nd[i - 1] += delta
            scratch[m] = i - 1
            m += 1
        if right:
            nd[i + 1] += delta
            scratch[m] = i + 1
            m += 1
    touched = scratch[:m]
    touched.sort()
    prev = -1
    distinct = 0
    for k in range(m):
        j = touched[k]
        if j == prev:
            continue
        prev = j
        distinct += 1
        old = class_idx[j]
        bit = old // 25
        if changed_mask[j] == 1:
            bit = 1 - bit
        new = bit * 25 + nd[j] * 5 + ng[j]
        class_idx[j] = new
        hist[old] -= 1
        hist[new] += 1
    for k in range(n):
        changed_mask[changed[k]] = 0
    return distinct


@njit(cache=True)
def _group_class_members(flat, cursor, order):
    """Counting-sort grouping: scatter each cell into its class slot.

    ``cursor`` starts at each class's group offset and advances as
    members land, so within a class the member order is ascending —
    exactly the stable-argsort order of the reference, which keeps
    seeded ``rng.choice`` draws bit-identical across backends.
    """
    for i in range(flat.size):
        c = flat[i]
        k = cursor[c]
        order[k] = i
        cursor[c] = k + 1


@njit(cache=True)
def _toggle_and_count(i8, a8, tail, idx, err_count, code_bits,
                      n_mapped):
    """Fused toggle + exact per-word error-count maintenance.

    Flips ``actual`` at every flat cell index, updating the per-word
    mismatch counters against ``intended`` as it goes; returns the
    array-wide wrong-bit delta that keeps the engine's all-clean read
    short-circuit exact. Tail cells (beyond the word-mapped prefix)
    toggle without touching any counter, as in the reference.
    """
    delta_total = 0
    for k in range(idx.size):
        cell = idx[k]
        if cell < n_mapped:
            w = cell // code_bits
            b = cell % code_bits
            byte = b >> 3
            mask = np.uint8(1 << (b & 7))
            wrong_before = (a8[w, byte] & mask) != (i8[w, byte] & mask)
            a8[w, byte] ^= mask
            if wrong_before:
                err_count[w] -= 1
                delta_total -= 1
            else:
                err_count[w] += 1
                delta_total += 1
        else:
            tail[cell - n_mapped] = tail[cell - n_mapped] ^ 1
    return delta_total


@njit(cache=True)
def _inject_and_count(a8, cells, err_count, code_bits):
    """Write-error injection: every cell was just written clean, so
    each toggle makes exactly one new wrong bit."""
    for k in range(cells.size):
        cell = cells[k]
        w = cell // code_bits
        b = cell % code_bits
        a8[w, b >> 3] ^= np.uint8(1 << (b & 7))
        err_count[w] += 1


class NumbaEngineBackend:
    """Compiled kernels for every engine hook.

    ``preferred_rebuild_fraction`` is raised well above the numpy
    default (0.02): the compiled incremental walk costs ~9 scalar
    updates per changed cell, so it beats a full rebuild up to far
    higher churn than scattered ``np.add.at`` does. The maps produced
    are identical either way — the threshold only picks which kernel
    computes them.
    """

    name = "numba"
    preferred_rebuild_fraction = 0.25

    def __init__(self):
        self._ready = None
        self._error = None

    # -- availability -------------------------------------------------------

    def ready(self):
        """True once the kernels compiled and passed the self-check."""
        if self._ready is None:
            if not NUMBA_AVAILABLE:
                self._ready = False
                self._error = "numba is not installed"
            else:
                try:
                    self.self_check()
                except Exception as exc:  # degrade, never fail
                    self._ready = False
                    self._error = (f"kernel self-check failed: "
                                   f"{type(exc).__name__}: {exc}")
                else:
                    self._ready = True
        return self._ready

    def unavailable_reason(self):
        return self._error

    def self_check(self):
        """Compile every kernel on tiny inputs and verify it against
        the numpy reference; raises on any mismatch."""
        from ..bitplane import BitPlane
        from . import get_backend

        ref = get_backend("numpy")

        def same(got, want):
            return all(np.array_equal(a, b) for a, b in zip(got, want))

        rng = np.random.default_rng(0)
        lanes = rng.integers(0, 2**63, size=(5, 2)).astype("<u8")
        other = lanes.copy()
        other[2, 1] ^= np.uint64(0b1011)
        if not np.array_equal(self.xor_popcount_rows(lanes, other),
                              ref.xor_popcount_rows(lanes, other)):
            raise AssertionError("xor_popcount_rows mismatch")

        rows = cols = 6
        bits = rng.integers(0, 2, size=rows * cols).astype(np.int8)
        maps = self.rebuild_class_maps(bits, rows, cols)
        if not same(maps, ref.rebuild_class_maps(bits, rows, cols)):
            raise AssertionError("rebuild_class_maps mismatch")
        ci, hist = maps[2], maps[3]
        if not same(self.group_class_members(ci, hist),
                    ref.group_class_members(ci, hist)):
            raise AssertionError("group_class_members mismatch")

        # 4 x 8-bit words over 36 cells: cells 32..35 are tail.
        intended = BitPlane.from_bits(bits, n_words=4, code_bits=8)
        actual = intended.copy()
        err = np.zeros(4, dtype=np.int16)
        flips = np.array([0, 9, 17, 19, 34], dtype=np.int64)
        delta = self.toggle_and_count(intended, actual, flips, err)
        if (delta != 4
                or not np.array_equal(err, np.array([1, 1, 2, 0]))
                or not np.array_equal(actual.diff_counts(intended),
                                      np.array([1, 1, 2, 0]))
                or actual.tail[2] == intended.tail[2]):
            raise AssertionError("toggle_and_count mismatch")
        if self.toggle_and_count(intended, actual, flips, err) != -4:
            raise AssertionError("toggle_and_count undo mismatch")
        if int(err.sum()) != 0 or not np.array_equal(
                actual.tail, intended.tail):
            raise AssertionError("toggle_and_count undo mismatch")
        self.inject_and_count(actual, flips[:2], err)
        if not np.array_equal(err, np.array([1, 1, 0, 0])):
            raise AssertionError("inject_and_count mismatch")

    # -- kernel hooks -------------------------------------------------------

    def xor_popcount_rows(self, a, b):
        a8 = np.ascontiguousarray(a).view(np.uint8)
        b8 = np.ascontiguousarray(b).view(np.uint8)
        out = np.empty(a8.shape[0], dtype=np.int64)
        _xor_popcount_rows(a8, b8, _TABLE64, out)
        return out

    def rebuild_class_maps(self, bits, rows, cols):
        bits = np.ascontiguousarray(bits, dtype=np.int8).reshape(-1)
        n = bits.size
        nd = np.empty(n, dtype=np.int8)
        ng = np.empty(n, dtype=np.int8)
        class_idx = np.empty(n, dtype=np.int8)
        hist = np.zeros(50, dtype=np.int64)
        _rebuild_class_maps(bits, rows, cols, nd, ng, class_idx, hist)
        return nd, ng, class_idx, hist

    def apply_class_changes(self, maps, changed, new_bits, plane):
        n_cells = maps.rows * maps.cols
        mask = getattr(maps, "_numba_changed_mask", None)
        if mask is None or mask.size != n_cells:
            mask = np.zeros(n_cells, dtype=np.uint8)
            maps._numba_changed_mask = mask
        changed = np.ascontiguousarray(changed, dtype=np.int64)
        new_bits = np.ascontiguousarray(new_bits, dtype=np.int8)
        scratch = np.empty(changed.size * 9, dtype=np.int64)
        return int(_apply_class_changes(
            changed, new_bits, maps.nd, maps.ng, maps.class_idx,
            maps.hist, mask, scratch, maps.rows, maps.cols))

    def group_class_members(self, class_idx, hist):
        bounds = np.empty(hist.size + 1, dtype=np.int64)
        bounds[0] = 0
        np.cumsum(hist, out=bounds[1:])
        cursor = bounds[:-1].copy()
        order = np.empty(class_idx.size, dtype=np.int64)
        _group_class_members(class_idx, cursor, order)
        return order, bounds

    def toggle_and_count(self, intended, actual, idx, err_count):
        idx = np.ascontiguousarray(idx, dtype=np.int64).reshape(-1)
        if idx.size == 0:
            return 0
        return int(_toggle_and_count(
            intended.lanes.view(np.uint8), actual.lanes.view(np.uint8),
            actual.tail, idx, err_count, actual.code_bits,
            actual.n_mapped))

    def inject_and_count(self, actual, cells, err_count):
        cells = np.ascontiguousarray(cells, dtype=np.int64).reshape(-1)
        if cells.size:
            _inject_and_count(actual.lanes.view(np.uint8), cells,
                              err_count, actual.code_bits)
        return int(cells.size)
