"""Candidate-set management: periodic refresh of each slot's weakest
candidates, with random or gradient-guided replacement sampling.

A refresh replaces, per gate input slot, the R lowest-weighted candidate
entries ((value, position) lexicographic, so ties go to the earlier
entry). Replacements inherit w_floor, the smallest surviving weight, so
the hardened argmax choice of a slot with non-degenerate weights is never
disturbed. New indices are sampled outside the kept set: a collision
would just duplicate a parameter.

Gradient-guided sampling keys a whole layer per slice of input columns
with one matrix product, p = x_slice.T @ dy, written into one reused
buffer. Where no summation order can round (_exact_slots) the score
2p - sum_b dy is exact and increasing in p, so p ranks and ties as the
score does; other slots are keyed by the sequential oracle score. The
first slice's R-th key sets each slot's threshold, and later slices only
collect the (slot, index, key) entries strictly below it: a tie has a
higher index than R entries already held, and loses. One stable sort by
(slot, key, index) keeps each slot's best R, and lowers the thresholds,
whenever the collected entries pass COLLECT_BYTES and once at the end.
Extra memory is O(batch * S) for a float64 copy of dy, the slice buffer
and a few slice-sized masks (O(S * chunk)), and O(S * R) for the kept
entries plus the COLLECT_BYTES bound, whatever the fan-in width I.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import StructuralError
from .model import LayerParams, sample_distinct

# Columns per slice when scoring one slot. A whole layer sizes its slices so
# a (batch + S) x chunk float64 array is BLOCK_BYTES. Smaller slices ran
# slower at the desk shape (S = 2000, B = 100); larger ones were no faster.
CHUNK = 1024
BLOCK_BYTES = 2 << 20
# A guided refresh reselects each slot's best R once the entries collected
# since the last selection, 16 bytes each, pass this many bytes. A smaller
# bound ran slower at the paper's width (S = 24000), where every selection
# sorts S * R kept entries.
COLLECT_BYTES = 1 << 18


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
    sum |dy[:, s]|, and below 2**53 * q no addition rounds.

    The same argument makes the test's own sum exact below 2**53 * q, and
    once it reaches that it cannot round back under, so the mask does not
    depend on the order of the sum. Slots go in blocks whose eight or so
    temporaries together stay under one slice's BLOCK_BYTES.
    """
    B, S = dy.shape
    step = max(1, BLOCK_BYTES // (64 * max(1, B)))
    exact = np.empty(S, dtype=bool)
    for a in range(0, S, step):
        d = dy[:, a : a + step]
        m, e = np.frexp(d)
        n = (m * 2.0**53).astype(np.int64)
        low = np.ldexp((n & -n).astype(np.float64), e - 53)
        q = np.where(n != 0, low, np.inf)
        bound = np.ldexp(q.min(axis=0, initial=np.inf), 53)
        exact[a : a + step] = np.abs(d).sum(axis=0) < bound
    return exact


def _keep_best(R: int, S: int, parts: list, n_new: int) -> None:
    """Replace `parts` by one part: each slot's best R of its entries in
    them, in (key, index) order.

    parts[0] is (indices, keys) of R held entries per slot in that order.
    Each later part (lo, flat, keys) was collected from a (columns, S)
    slice starting at column lo, at flat positions; n_new entries in all.
    Complex numbers sort by (real, imag), here (slot, key). A slot's held
    entries come first and have the lower indices (or are +inf
    placeholders that no collected key ties), and its collected ones
    follow in index order, so the stable sort breaks ties by index.
    """
    z = np.empty(S * R + n_new, dtype=np.complex128)
    idx = np.empty(z.size, dtype=np.int32)
    z[: S * R].reshape(S, R).real[:] = np.arange(S)[:, None]
    idx[: S * R], z.imag[: S * R] = parts[0]
    at = S * R
    for lo, flat, key in parts[1:]:
        to = slice(at, at + flat.size)
        np.remainder(flat, S, out=z.real[to])
        z.imag[to] = key
        np.floor_divide(flat, S, out=idx[to], casting="unsafe")
        idx[to] += lo
        at += flat.size
    del parts[:]
    flat = key = None  # free the parts before the sort
    order = np.argsort(z, kind="stable")
    first = np.empty(S, dtype=np.complex128)
    first.real, first.imag = np.arange(S), -np.inf
    first = np.searchsorted(z, first, sorter=order)
    pick = order[first[:, None] + np.arange(R)].reshape(-1)
    del order
    parts.append((idx[pick], z.imag[pick]))


def _guided_top_r(
    R: int, I: int, x: np.ndarray, dy: np.ndarray, kept: np.ndarray, chunk: int
) -> np.ndarray:
    """(S, R) indices: for each column s of dy (B, S), the R most negative
    connection gradients outside kept[s], ordered by (score, index).

    A slice of columns is keyed for all slots at once by the product
    p = x_slice.T @ dy, (columns, S), into one reused buffer. On
    _exact_slots the score 2p - sum_b dy is exact and increasing in p, so
    p ranks and ties as the score does. Other slots are keyed by
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

    # Exclusions as flat positions index * S + slot, sorted, so a slice's
    # are a range and land in its (columns, S) block by one offset.
    ex = np.sort(k[k >= 0].astype(np.int64) * S + np.nonzero(k >= 0)[0])
    del k
    loose = np.flatnonzero(~_exact_slots(dy))
    # Each slot's best R so far in (key, index) order, then the entries
    # collected since, with n_new keys in all. Placeholders (+inf at index
    # I) fill the held ones at first; at least R columns per slot key
    # below +inf, so real columns displace them all.
    parts = [(np.full(S * R, I, dtype=np.int32), np.full(S * R, np.inf))]
    thr, n_new = np.full(S, np.inf), 0
    buf = np.empty(min(chunk, I) * S)
    for lo in range(0, I, chunk):
        hi = min(lo + chunk, I)
        block = buf[: (hi - lo) * S].reshape(hi - lo, S)
        np.matmul(x[:, lo:hi].T.astype(np.float64), dy, out=block)
        if loose.size:
            block[:, loose] = connection_scores_chunk(
                x[:, lo:hi], dy[:, loose]
            ).T
        hit = slice(*np.searchsorted(ex, (lo * S, hi * S)))
        block.reshape(-1)[ex[hit] - lo * S] = np.inf
        if lo == 0 and hi >= R:
            # The first slice's R-th key sets each slot's threshold, found
            # a few slots at a time so each partitioned copy stays under
            # COLLECT_BYTES.
            # Of the columns tied at it, the lowest indices complete the R.
            thr = np.empty(S)
            step = max(1, COLLECT_BYTES // (8 * (hi - lo)))
            for a in range(0, S, step):
                thr[a : a + step] = np.partition(
                    block[:, a : a + step], R - 1, axis=0
                )[R - 1]
            take = block < thr
            tie = block == thr
            need = R - take.sum(axis=0)
            many = np.flatnonzero(tie.sum(axis=0) > need)
            rank = np.cumsum(tie[:, many], axis=0, dtype=np.int32)
            tie[:, many] &= rank <= need[many]
            take |= tie
            del tie, need, rank
        else:
            take = block < thr
        flat = np.flatnonzero(take)
        del take
        parts.append((lo, flat, block.reshape(-1)[flat]))
        n_new += flat.size
        if 16 * n_new > COLLECT_BYTES and hi < I:
            _keep_best(R, S, parts, n_new)
            thr, n_new = parts[0][1][R - 1 :: R].copy(), 0
    del buf, block  # free the slice before the last selection
    _keep_best(R, S, parts, n_new)
    return parts[0][0].reshape(S, R).astype(np.int64)


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
