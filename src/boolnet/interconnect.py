"""Candidate-set management: periodic refresh of each slot's weakest
candidates, with random or gradient-guided replacement sampling.

A refresh replaces, per gate input slot, the R lowest-weighted candidate
entries ((value, position) lexicographic, so ties go to the earlier
entry). Replacements inherit w_floor, the smallest surviving weight, so
the hardened argmax choice of a slot with non-degenerate weights is never
disturbed. New indices are sampled outside the kept set: a collision
would just duplicate a parameter.

Gradient-guided sampling keys a whole layer per slice of input columns
with one matrix product, p = dy.T @ x. Where no summation order can round
(_exact_slots) the score 2p - sum_b dy is exact and increasing in p, so p
ranks and ties as the score does; other slots are keyed by the sequential
oracle score. The first slice's R-th key sets each slot's threshold, and
later slices only collect the (slot, index, key) entries strictly below
it: a tie has a higher index than R entries already held, and loses. One
stable sort by (slot, key, index) keeps each slot's best R, and lowers the
thresholds, whenever the collected entries pass COLLECT_BYTES and once at
the end. Extra memory is O((batch + S) * chunk + S * R) plus that bound,
whatever the fan-in width I.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import StructuralError
from .model import LayerParams, sample_distinct

# Columns per slice when scoring one slot. A whole layer sizes its slices so
# a (batch + S) x chunk float64 array is BLOCK_BYTES; a few such are live.
CHUNK = 1024
BLOCK_BYTES = 4 << 20
# A guided refresh reselects each slot's best R once the entries collected
# since the last selection, 24 bytes each, pass this many bytes.
COLLECT_BYTES = 1 << 20


def connection_scores_chunk(x_cols: np.ndarray, dy_slot: np.ndarray) -> np.ndarray:
    """Per-input-column connection gradient: sum_b (2x - 1) * dy.

    dy_slot is (batch,) or (batch, S), giving (cols,) or (S, cols). Rows
    are added one at a time in batch order, so a score never depends on
    how the columns are sliced (numpy's sum goes pairwise on one column).
    """
    x_cols = np.asarray(x_cols, dtype=np.float64)
    dy_slot = np.asarray(dy_slot, dtype=np.float64)
    out = np.zeros(dy_slot.shape[1:] + x_cols.shape[1:])
    for sign, d in zip(2.0 * x_cols - 1.0, dy_slot):
        out += np.multiply.outer(d, sign)
    return out


def _exact_slots(dy: np.ndarray) -> np.ndarray:
    """Slots whose scores every summation order computes exactly: dy[:, s]
    is a multiple of q, the smallest power of two dividing all of it, so
    with binary x every partial sum is a multiple of q no larger than
    sum |dy[:, s]|, and below 2**53 * q no addition rounds."""
    m, e = np.frexp(dy)
    n = (m * 2.0**53).astype(np.int64)
    q = np.where(n != 0, np.ldexp((n & -n).astype(np.float64), e - 53), np.inf)
    return np.abs(dy).sum(axis=0) < np.ldexp(q.min(axis=0, initial=np.inf), 53)


def _guided_top_r(
    R: int, I: int, x: np.ndarray, dy: np.ndarray, kept: np.ndarray, chunk: int
) -> np.ndarray:
    """(S, R) indices: for each column s of dy (B, S), the R most negative
    connection gradients outside kept[s], ordered by (score, index).

    A slice is keyed for all slots at once by the product p = dy.T @ x.
    On _exact_slots the score 2p - sum_b dy is exact and increasing in p,
    so p ranks and ties as the score does. Other slots are keyed by
    connection_scores_chunk, the oracle itself. Keys are only compared
    within a slot.
    """
    x = np.asarray(x)
    if x.ndim != 2 or x.shape[1] != I:
        raise StructuralError(f"x must be (batch, {I})")
    dy = np.asarray(dy, dtype=np.float64)
    k = np.sort(np.where((kept >= 0) & (kept < I), kept, -1), axis=1)
    k[:, 1:][k[:, 1:] == k[:, :-1]] = -1  # count each exclusion once
    n_excl = (k >= 0).sum(axis=1).max(initial=0)
    if I - n_excl < R:
        raise StructuralError(
            f"cannot draw {R} indices from [0,{I}) excluding {n_excl}"
        )
    S = dy.shape[1]
    if R == 0:
        return np.empty((S, 0), dtype=np.int64)

    ex_row, ex_idx = np.nonzero(k >= 0)[0], k[k >= 0]
    by_idx = np.argsort(ex_idx, kind="stable")  # so each slice's are a range
    ex_row, ex_idx = ex_row[by_idx], ex_idx[by_idx]
    loose = np.flatnonzero(~_exact_slots(dy))
    # Collected (slot, index, key) entries. Placeholders (+inf at index I)
    # give every slot R entries; at least R columns per slot key below
    # +inf, so real columns displace them all.
    slot_of = np.repeat(np.arange(S), R)
    parts = [(slot_of, np.full(S * R, I), np.full(S * R, np.inf))]
    thr = np.full((S, 1), np.inf)
    for lo in range(0, I, chunk):
        hi = min(lo + chunk, I)
        xc = x[:, lo:hi].astype(np.float64)
        block = dy.T @ xc
        if loose.size:
            block[loose] = connection_scores_chunk(xc, dy[:, loose])
        hit = slice(*np.searchsorted(ex_idx, (lo, hi)))
        block[ex_row[hit], ex_idx[hit] - lo] = np.inf
        take = block < thr
        if lo == 0 and hi >= R:
            # The first slice's R-th key sets each slot's threshold (a
            # copy: a view would keep the partitioned slice alive). Of
            # the columns tied at it, the lowest indices complete the R.
            thr = np.partition(block, R - 1, axis=1)[:, R - 1 : R].copy()
            take = block < thr
            tie = block == thr
            need = R - take.sum(axis=1, keepdims=True)
            many = np.flatnonzero(tie.sum(axis=1) > need[:, 0])
            rank = np.cumsum(tie[many], axis=1, dtype=np.int32)
            tie[many] &= rank <= need[many]
            take |= tie
        r, c = np.divmod(np.flatnonzero(take), hi - lo)
        parts.append((r, c + lo, block[r, c]))
        if 24 * sum(len(p[0]) for p in parts[1:]) <= COLLECT_BYTES and hi < I:
            continue
        # Keep each slot's best R by (key, index): complex numbers sort by
        # (real, imag), here (slot, key), and a slot's entries follow its
        # kept ones in index order. The kept ones are in (key, index) order
        # with lower indices, bar the +inf placeholders that no collected
        # key ties, so the stable sort breaks ties by index.
        r, c, v = map(np.concatenate, zip(*parts))
        parts.clear()  # free the parts before the sort
        z = np.empty(r.size, dtype=np.complex128)
        z.real, z.imag = r, v
        del r, v
        order = np.argsort(z, kind="stable")
        first = np.searchsorted(z.real[order], np.arange(S))
        pick = order[first[:, None] + np.arange(R)].reshape(-1)
        parts = [(slot_of, c[pick], z.imag[pick])]
        thr = z.imag[pick].reshape(S, R)[:, R - 1 :]
    return parts[0][1].reshape(S, R)


def sample_gradient_guided(
    R: int,
    I: int,
    x: np.ndarray,
    dy_slot: np.ndarray,
    exclude=(),
    chunk: int = CHUNK,
) -> np.ndarray:
    """Indices of the R most negative connection gradients, streaming.

    The single-slot case of the whole-layer scan, in slices of `chunk`
    columns: peak extra memory is O((batch + 1) * chunk) no matter how
    wide the layer is. Ties break toward the lower index; excluded
    (kept) candidates are never returned.
    """
    kept = np.asarray(list(exclude), dtype=np.int64).reshape(1, -1)
    dy = np.asarray(dy_slot).reshape(-1, 1)
    return _guided_top_r(R, I, x, dy, kept, chunk)[0]


class RandomSampler:
    """Uniform replacement sampling, vectorized across all slots."""

    def __init__(self, rng: np.random.Generator):
        self.rng = rng

    def sample_many(self, R: int, I: int, kept: np.ndarray):
        return sample_distinct(self.rng, kept.shape[0], I, R, kept)


class GradientGuidedSampler:
    """Replacement sampling from the most negative connection gradients
    of the most recent training batch."""

    def __init__(self, x: np.ndarray, dy: np.ndarray):
        # x: (batch, I) layer inputs; dy: (batch, G, 2) slot gradients.
        self.x = np.asarray(x)
        self.dy = np.asarray(dy)

    def sample_many(self, R: int, I: int, kept: np.ndarray):
        dy = self.dy.reshape(self.dy.shape[0], -1)  # column 2g + j is (g, j)
        chunk = max(1, BLOCK_BYTES // (8 * sum(dy.shape)))
        return _guided_top_r(R, I, self.x, dy, kept, chunk)


@dataclass
class RefreshEvent:
    """Record of one refresh: which slot entries changed and the floor
    weight each slot's newcomers inherited."""

    old_indices: np.ndarray  # (G, 2, R) int64
    new_indices: np.ndarray  # (G, 2, R) int64
    w_floor: np.ndarray  # (G, 2) float32


def refresh_candidates(
    layer: LayerParams,
    sampler,
    R: int,
    fan_in_width: int,
) -> RefreshEvent:
    """Replace the R weakest candidates of every slot in place. The
    sampler gets and returns one row per slot, row 2g + j for slot (g, j).

    Kept weights are untouched; each newcomer's weight is set to the
    minimum surviving weight of its slot (0 when R = C and nothing
    survives). Candidate distinctness within every slot is preserved.
    """
    C = layer.n_candidates
    if not 0 <= R <= C:
        raise StructuralError(f"replacement budget {R} outside [0, {C}]")
    G = layer.n_gates
    if R == 0:
        return RefreshEvent(
            np.empty((G, 2, 0), dtype=np.int64),
            np.empty((G, 2, 0), dtype=np.int64),
            np.zeros((G, 2), dtype=np.float32),
        )

    cand = layer.candidates.reshape(G * 2, C)
    weights = layer.conn_weights.reshape(G * 2, C)
    order = np.argsort(weights, axis=1, kind="stable")
    repl_pos = order[:, :R]
    kept_pos = order[:, R:]
    rows = np.arange(G * 2)[:, None]
    if R < C:
        w_floor = weights[rows[:, 0], kept_pos[:, 0]]
    else:
        w_floor = np.zeros(G * 2, dtype=weights.dtype)
    kept_idx = cand[rows, kept_pos]

    old_idx = cand[rows, repl_pos].copy()
    new_idx = sampler.sample_many(R, fan_in_width, kept_idx)

    cand[rows, repl_pos] = new_idx.astype(cand.dtype)
    weights[rows, repl_pos] = w_floor[:, None]

    return RefreshEvent(
        old_idx.reshape(G, 2, R).astype(np.int64),
        new_idx.reshape(G, 2, R).astype(np.int64),
        w_floor.reshape(G, 2).astype(np.float32),
    )
