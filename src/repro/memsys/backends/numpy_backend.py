"""The numpy reference backend: vectorized kernels, the parity baseline.

Every engine kernel of the hook contract in
:mod:`repro.memsys.backends` has its reference implementation here, as
whole-array numpy operations. The engine, the samplers and
:class:`~repro.memsys.sampling.IncrementalClassMaps` call the hooks of
whichever backend they hold and carry no inline fallback, so this
backend is the default and the baseline the numba kernels are tested
(and benchmarked) against: both produce identical maps, counters and
draw streams.
"""

from __future__ import annotations

import numpy as np

from ..bitplane import popcount_rows
from ..controller import neighborhood_class_map
from ..sampling import N_CLASSES, class_index

_DIRECT_OFFSETS = ((-1, 0), (1, 0), (0, -1), (0, 1))
_DIAGONAL_OFFSETS = ((-1, -1), (-1, 1), (1, -1), (1, 1))


class NumpyEngineBackend:
    """Reference backend: every hook is a vectorized numpy kernel."""

    name = "numpy"

    #: Touched-cell fraction above which a full class-map rebuild wins
    #: over scattered in-place updates (each changed cell touches
    #: itself plus 8 neighbors via ``np.add.at``).
    preferred_rebuild_fraction = 0.02

    def ready(self):
        """The reference is always available."""
        return True

    def unavailable_reason(self):
        return None

    # -- kernel hooks -------------------------------------------------------

    def xor_popcount_rows(self, a, b):
        return popcount_rows(a ^ b)

    def rebuild_class_maps(self, bits, rows, cols):
        bits = np.asarray(bits).reshape(-1)
        nd2, ng2 = neighborhood_class_map(bits.reshape(rows, cols))
        nd = nd2.reshape(-1)
        ng = ng2.reshape(-1)
        class_idx = class_index(bits, nd, ng)
        return nd, ng, class_idx, np.bincount(class_idx,
                                              minlength=N_CLASSES)

    def apply_class_changes(self, maps, changed, new_bits, plane):
        if changed.size <= 8:
            # The per-batch common case at rare-event rates is one or
            # two flipped cells; scalar neighbor updates beat a dozen
            # numpy dispatches by an order of magnitude.
            affected = _update_counts_scalar(maps, changed, new_bits)
        else:
            affected = _update_counts_vector(maps, changed, new_bits)
        old_ci = maps.class_idx[affected]
        new_ci = class_index(plane.get_cells(affected),
                             maps.nd[affected], maps.ng[affected])
        maps.class_idx[affected] = new_ci
        np.subtract.at(maps.hist, old_ci, 1)
        np.add.at(maps.hist, new_ci, 1)
        return int(affected.size)

    def group_class_members(self, class_idx, hist):
        # Stable sort keeps each group ascending, exactly like
        # flatnonzero, so the seeded draws are unchanged.
        order = np.argsort(class_idx, kind="stable")
        return order, np.concatenate([[0], np.cumsum(hist)])

    def toggle_and_count(self, intended, actual, idx, err_count):
        mapped = idx[idx < actual.n_mapped]
        delta_total = 0
        if mapped.size:
            wrong_before = (actual.get_cells(mapped)
                            != intended.get_cells(mapped))
            delta = (1 - 2 * wrong_before.astype(np.int16))
            np.add.at(err_count, mapped // actual.code_bits, delta)
            delta_total = int(delta.sum())
        actual.toggle_cells(idx)
        return delta_total

    def inject_and_count(self, actual, cells, err_count):
        actual.toggle_cells(cells)
        np.add.at(err_count, cells // actual.code_bits, np.int16(1))
        return int(cells.size)


def _update_counts_scalar(maps, changed, new_bits):
    rows, cols = maps.rows, maps.cols
    nd, ng = maps.nd, maps.ng
    affected = set()
    for i in range(changed.size):
        idx = int(changed[i])
        delta = 2 * int(new_bits[i]) - 1  # 0->1: +1, 1->0: -1
        r, c = divmod(idx, cols)
        affected.add(idx)
        for dr in (-1, 0, 1):
            rr = r + dr
            if not 0 <= rr < rows:
                continue
            for dc in (-1, 0, 1):
                if dr == 0 and dc == 0:
                    continue
                cc = c + dc
                if not 0 <= cc < cols:
                    continue
                j = rr * cols + cc
                if dr == 0 or dc == 0:
                    nd[j] += delta
                else:
                    ng[j] += delta
                affected.add(j)
    return np.fromiter(affected, dtype=np.intp, count=len(affected))


def _update_counts_vector(maps, changed, new_bits):
    rows, cols = maps.rows, maps.cols
    delta = (new_bits.astype(np.int8) * 2 - 1)
    r, c = np.divmod(changed, cols)
    nd2 = maps.nd.reshape(rows, cols)
    ng2 = maps.ng.reshape(rows, cols)
    affected = [changed]
    for grid, offsets in ((nd2, _DIRECT_OFFSETS),
                          (ng2, _DIAGONAL_OFFSETS)):
        for dr, dc in offsets:
            rr, cc = r + dr, c + dc
            ok = (rr >= 0) & (rr < rows) & (cc >= 0) & (cc < cols)
            if not np.any(ok):
                continue
            np.add.at(grid, (rr[ok], cc[ok]), delta[ok])
            affected.append(rr[ok] * cols + cc[ok])
    return np.unique(np.concatenate(affected))
