"""Rare-event flip sampling: class-grouped binomial draws.

Every per-cell error probability in the memsys stack is a pure function
of the cell's coupling class — (stored/target bit, direct AP-neighbor
count, diagonal AP-neighbor count) — so a whole array, or any accessed
subset of it, takes at most ``2 x 5 x 5 = 50`` distinct probabilities
(the controller's probability tables). The reference ``bernoulli``
sampler draws one uniform per cell per mechanism; at rare-event
operating points (WER <= 1e-6) that is billions of uniforms per
observed flip. The ``binomial`` sampler instead

1. classifies cells into their 50 classes (:func:`class_index`),
2. histograms the classes (``np.bincount``),
3. draws one flip *count* per class (``rng.binomial(n_c, p_c)``),
4. places the (few) flips uniformly within each class group.

Cost: O(cells classified + flips drawn) instead of O(cells) uniform
draws — and :class:`IncrementalClassMaps` maintains the classification
itself incrementally between engine batches, leaving the per-batch
whole-array sampling cost at O(50 + flips).

The two samplers are statistically equivalent: a sum of independent
equal-``p`` Bernoulli draws is ``Binomial(n, p)``, and cells of one
class are exchangeable, so placing ``k`` flips uniformly without
replacement reproduces the conditional law of the Bernoulli field given
its per-class counts. Seeded runs of either sampler are individually
deterministic; their streams differ, but every expected counter agrees
(see ``tests/test_memsys_sampling.py``).
"""

from __future__ import annotations

import numpy as np

from ..errors import ParameterError
from .backends import get_backend
from .bitplane import unpack_bits

#: Number of coupling classes: bit x n_direct x n_diagonal.
N_CLASSES = 2 * 5 * 5

#: Sampler registry names accepted by the engine and the CLI.
SAMPLERS = ("bernoulli", "binomial")


def validate_sampler(name):
    """Return ``name`` if it names a known sampler, else raise."""
    if name not in SAMPLERS:
        raise ParameterError(
            f"unknown sampler {name!r}; choose from {sorted(SAMPLERS)}")
    return name


def class_index(bits, nd, ng):
    """Flat 0..49 coupling-class index: ``bit * 25 + nd * 5 + ng``.

    Matches the memory order of the controller's ``(2, 5, 5)``
    probability tables, so ``table.reshape(-1)[class_index(...)]``
    equals ``table[bits, nd, ng]``.
    """
    idx = (np.asarray(bits, dtype=np.int16) * 25
           + np.asarray(nd, dtype=np.int16) * 5
           + np.asarray(ng, dtype=np.int16))
    return idx.astype(np.int8)


def sample_thinned_flips(n, p_class, class_of, rng, p_max=None):
    """Flat indices of flipped cells among ``n`` accessed cells.

    The class-grouped draw of :func:`sample_class_flips` needs the
    class histogram of the sampled population — O(cells) to build for a
    freshly gathered access batch. For *accessed subsets* (the cells of
    one round's writes or reads) this thinned variant is exact at
    O(candidates) instead: draw the candidate count from ``Binomial(n,
    p_max)`` where ``p_max = max(p_class)``, place candidates by index
    choice, then classify only the candidates (``class_of(idx) ->
    0..49``) and accept each with ``p_class[class] / p_max``.

    Equivalence: i.i.d. ``Bernoulli(p_max)`` indicators over ``n``
    cells have exactly the law Binomial-total + uniform placement
    (exchangeability), and independent acceptance with ``p_c / p_max``
    thins each candidate to ``Bernoulli(p_c)`` — the target field.

    Callers on a hot loop may pass ``p_max`` (with ``p_class`` already
    clipped to [0, 1]) to skip the per-call table scan.
    """
    if p_max is None:
        p_class = np.clip(np.asarray(p_class, dtype=float), 0.0, 1.0)
        p_max = float(p_class.max())
    p = p_class
    if p_max <= 0.0 or n <= 0:
        return np.empty(0, dtype=np.intp)
    k = int(rng.binomial(int(n), p_max))
    if k == 0:
        return np.empty(0, dtype=np.intp)
    candidates = rng.choice(int(n), size=k, replace=False)
    accept = rng.random(k) * p_max < p[class_of(candidates)]
    return candidates[accept]


def sample_class_flips(class_idx, p_class, rng, hist=None,
                       backend=None):
    """Flat indices of flipped cells among ``class_idx``.

    ``class_idx`` is any-shape array of 0..49 classes (flattened
    internally; returned indices address the flattened view).
    ``p_class`` is the flat ``(50,)`` per-class flip probability.
    ``hist`` is the precomputed class histogram when the caller
    maintains one (:class:`IncrementalClassMaps`); recomputed otherwise.
    ``backend`` is the engine backend (see :mod:`repro.memsys.backends`;
    default the numpy reference) whose ``group_class_members`` hook
    groups the cells by class. Every backend yields ascending member
    order per class, so the seeded draws are bit-identical across
    backends.

    One vectorized ``rng.binomial`` over the 50 classes, then one
    ``rng.choice`` per class that actually flipped — at rare-event
    rates the common case is an immediate empty return.
    """
    flat = np.asarray(class_idx).reshape(-1)
    if hist is None:
        hist = np.bincount(flat, minlength=N_CLASSES)
    p = np.clip(np.asarray(p_class, dtype=float), 0.0, 1.0)
    counts = rng.binomial(hist, p)
    hot = np.flatnonzero(counts)
    if hot.size == 0:
        return np.empty(0, dtype=np.intp)
    if hot.size == 1:
        members_by_class = {int(hot[0]):
                            np.flatnonzero(flat == hot[0])}
    else:
        # One grouping pass instead of a whole-array scan per hot
        # class.
        backend = get_backend("numpy") if backend is None else backend
        order, bounds = backend.group_class_members(flat, hist)
        members_by_class = {int(c): order[bounds[c]:bounds[c + 1]]
                            for c in hot}
    picks = []
    for c in hot:
        picks.append(rng.choice(members_by_class[int(c)],
                                size=int(counts[c]), replace=False))
    return np.concatenate(picks)


class IncrementalClassMaps:
    """Per-cell coupling-class state, refreshed incrementally.

    Holds, for every cell of the array (mapped words plus unmapped
    tail), the ``(n_direct, n_diagonal)`` AP-neighbor counts, the
    combined 0..49 :func:`class_index`, and the 50-bin class histogram
    the binomial sampler draws from.

    :meth:`refresh` diffs the current ``actual`` plane against a packed
    snapshot of the plane at the previous refresh (XOR + popcount, so
    the diff costs word-wide bit ops). When the touched fraction is
    small the neighbor counts are updated in place around the changed
    cells only — O(changed x 9); past :attr:`full_rebuild_fraction` of
    the array a whole-array recompute is cheaper and the maps rebuild
    from scratch.

    The diff popcount, the full rebuild and the incremental update are
    the ``backend``'s kernel hooks (see :mod:`repro.memsys.backends`;
    default the numpy reference); the maps are identical for every
    backend. :attr:`full_rebuild_fraction` defaults to the backend's
    ``preferred_rebuild_fraction`` (an explicit argument wins).
    """

    def __init__(self, rows, cols, plane, full_rebuild_fraction=None,
                 backend=None):
        self.rows = int(rows)
        self.cols = int(cols)
        if self.rows * self.cols != plane.n_cells:
            raise ParameterError(
                f"plane has {plane.n_cells} cells, expected "
                f"{rows} x {cols}")
        self.backend = get_backend("numpy") if backend is None else backend
        self.full_rebuild_fraction = float(
            self.backend.preferred_rebuild_fraction
            if full_rebuild_fraction is None else full_rebuild_fraction)
        self.rebuilds = 0
        self.incremental_refreshes = 0
        self._rebuild(plane)

    # -- refresh ------------------------------------------------------------

    def refresh(self, plane):
        """Bring the maps up to date with ``plane``.

        Cheap no-op when nothing changed since the last refresh (one
        XOR + popcount over the packed lanes).
        """
        snap = self._snapshot
        per_word = self.backend.xor_popcount_rows(snap.lanes,
                                                  plane.lanes)
        tail_changed = np.flatnonzero(snap.tail != plane.tail)
        n_changed = int(per_word.sum()) + tail_changed.size
        if n_changed == 0:
            return
        if n_changed > self.full_rebuild_fraction * plane.n_cells:
            self._rebuild(plane)
            return
        changed_words = np.flatnonzero(per_word)
        if changed_words.size:
            diff_bits = unpack_bits(snap.lanes[changed_words]
                                    ^ plane.lanes[changed_words],
                                    plane.code_bits)
            word_row, bit = np.nonzero(diff_bits)
            changed = changed_words[word_row] * plane.code_bits + bit
        else:
            changed = np.empty(0, dtype=np.intp)
        if tail_changed.size:
            changed = np.concatenate(
                [changed, tail_changed + plane.n_mapped])
        self.backend.apply_class_changes(self, changed,
                                         plane.get_cells(changed), plane)
        # Patch the snapshot in place — O(changed words), not a whole
        # plane copy per refresh.
        self._snapshot.lanes[changed_words] = plane.lanes[changed_words]
        self._snapshot.tail[tail_changed] = plane.tail[tail_changed]
        self.incremental_refreshes += 1

    def _rebuild(self, plane):
        self.nd, self.ng, self.class_idx, self.hist = (
            self.backend.rebuild_class_maps(plane.to_bits(), self.rows,
                                            self.cols))
        self._snapshot = plane.copy()
        self.rebuilds += 1

    # -- class lookups -------------------------------------------------------

    def cell_classes(self, bits, cells):
        """Classes of ``cells`` when they hold ``bits``.

        The neighbor-count part comes from the maps (the batch's frozen
        classes); the bit part is the caller's — stored bits for a
        disturb draw, target bits for a write draw. ``bits`` and
        ``cells`` may be any matching shape (a whole access batch or
        the handful of candidates of a thinned draw).
        """
        neighbor_part = self.class_idx[cells] % 25
        return (np.asarray(bits, dtype=np.int16) * 25
                + neighbor_part).astype(np.int8)
