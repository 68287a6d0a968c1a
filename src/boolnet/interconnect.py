"""Candidate-set management: periodic refresh of each slot's weakest
candidates, with random or gradient-guided replacement sampling.

A refresh replaces, per gate input slot, the R lowest-weighted candidate
entries ((value, position) lexicographic, so ties go to the earlier
entry). Replacements inherit w_floor, the smallest surviving weight, so
the hardened argmax choice of a slot with non-degenerate weights is never
disturbed. New indices are sampled outside the kept set: a collision
would just duplicate a parameter.

Gradient-guided sampling scans a layer's slots in blocks of SLOT_BLOCK.
A slot's top R depends only on its own gradients and exclusions, so each
block is scanned whole on a float64 copy of its own dy columns. Each
slice of input columns is keyed for the block with one matrix product,
p = x_slice.T @ dy, into a buffer of one WORK_BYTES budget (`blocks`).
Where no summation order can round (_exact_slots) the score
2p - sum_b dy is exact and increasing in p, so p ranks and ties as the
score does; other slots are keyed by the sequential oracle score. The
first slice's R-th key sets each slot's threshold, and later slices only
collect the (slot, index, key) entries strictly below it: a tie has a
higher index than R entries already held, and loses. One stable sort by
(slot, key, index) keeps each slot's best R, and lowers the thresholds,
whenever its working set would pass WORK_BYTES and once at the end of
the block. Extra memory is O(batch * SLOT_BLOCK) for the block's dy,
WORK_BYTES each for the slice, the first slice's partition and a
selection, and O(S * R) for the result, whatever the slot count S or
the fan-in width I.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import bitmatrix
from .bitmatrix import blocks
from .errors import StructuralError
from .model import LayerParams, sample_distinct

# Slots per block of a guided refresh. Its float64 dy columns, 819 KB at
# B = 100, set the desk refresh peak, 2.36 MB against a 2.45 MB bound.
SLOT_BLOCK = 1024


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
    depend on the order of the sum. q is found in dy's own float type
    (float32 at least), exactly, on `blocks` of slots of eight or so
    temporaries of that type.
    """
    B, S = dy.shape
    ft = np.result_type(dy.dtype, np.float32)
    digits = np.finfo(ft).nmant + 1
    exact = np.empty(S, dtype=bool)
    for a in blocks(S, 8 * ft.itemsize * B):
        d = dy[:, a].astype(ft)
        m, e = np.frexp(d)
        n = (m * 2.0**digits).astype(f"i{ft.itemsize}")
        low = np.ldexp((n & -n).astype(ft), e - digits)
        q = np.where(n != 0, low, np.inf).min(axis=0, initial=np.inf)
        bound = np.ldexp(q.astype(np.float64), 53)
        exact[a] = np.abs(d).sum(axis=0, dtype=np.float64) < bound
    return exact


def _keep_best(R: int, S: int, parts: list) -> None:
    """Replace `parts` by one part: each slot's best R of its entries in
    them, in (key, index) order.

    A part is (positions index * S + slot, keys); every slot has at least
    R entries in all. The held part comes first, in (slot, key, index)
    order, with a slot's lower indices, and later parts follow in index
    order. A stable radix sort by slot keeps that order within a slot,
    and a stable sort of complex (slot, key) then breaks ties by index;
    it runs several times faster on keys already grouped by slot.
    """
    pos = np.concatenate([p for p, _ in parts])
    key = np.concatenate([k for _, k in parts])
    del parts[:]
    slot = (pos % S).astype(np.uint16)  # S <= SLOT_BLOCK: radix-sorted
    by_slot = np.argsort(slot, kind="stable")
    n = np.bincount(slot, minlength=S)
    del slot
    key = key[by_slot]
    pos = pos[by_slot]
    del by_slot
    z = np.empty(pos.size, dtype=np.complex128)
    np.remainder(pos, S, out=z.real)
    z.imag = key
    del key
    order = np.argsort(z, kind="stable")
    pick = order[(np.cumsum(n) - n)[:, None] + np.arange(R)].reshape(-1)
    del order
    parts.append((pos[pick], z.imag[pick]))


def _guided_top_r(
    R: int, I: int, x: np.ndarray, dy: np.ndarray, kept: np.ndarray,
    chunk: int | None,
) -> np.ndarray:
    """(S, R) indices: for each column s of dy (B, S), the R most negative
    connection gradients outside kept[s], ordered by (score, index).

    A slot's top R depends only on its own column of dy and row of kept,
    so slots go in blocks of SLOT_BLOCK (at most 2**16, as _keep_best
    keys a block's slots as uint16), each scanned whole before the next:
    its float64 dy columns, exclusions and key buffer exist only while it
    runs. A slice of `chunk` columns (by default one of `blocks` of
    (batch + block) float64 columns, and at least R) is keyed for all of
    a block's slots at once by the product p = x_slice.T @ dy, (columns,
    slots). On _exact_slots the score 2p - sum_b dy is exact and
    increasing in p, so p ranks and ties as the score does. Other slots
    are keyed by connection_scores_chunk, the oracle itself. Keys are
    only compared within a slot.
    """
    x = np.asarray(x)
    if x.ndim != 2 or x.shape[1] != I:
        raise StructuralError(f"x must be (batch, {I})")
    dy = np.asarray(dy)
    S = dy.shape[1]
    top = np.empty((S, R), dtype=np.int64)
    exact = _exact_slots(dy)
    step = min(SLOT_BLOCK, 1 << 16)
    for a in range(0, S, step):
        b = slice(a, a + step)
        d = dy[:, b].astype(np.float64)
        _block_top_r(R, I, x, d, kept[b], exact[b], chunk, top[b])
    return top


def _block_top_r(R, I, x, dy, kept, exact, chunk, top) -> None:
    """One block of _guided_top_r: its float64 dy (B, S) and kept rows in,
    its (S, R) indices written into top."""
    k = np.sort(np.where((kept >= 0) & (kept < I), kept, -1), axis=1)
    k[:, 1:][k[:, 1:] == k[:, :-1]] = -1  # count each exclusion once
    n_excl = (k >= 0).sum(axis=1).max(initial=0)
    if I - n_excl < R:
        raise StructuralError(
            f"cannot draw {R} indices from [0,{I}) excluding {n_excl}"
        )
    S = dy.shape[1]
    if R == 0:
        return

    # Exclusions as flat positions index * S + slot, sorted, so a slice's
    # are a range and land in its (columns, S) block by one offset.
    ex = np.sort(k[k >= 0].astype(np.int64) * S + np.nonzero(k >= 0)[0])
    del k
    loose = np.flatnonzero(~exact)
    # A column's keys and float64 x, thrice with the oracle's for loose slots.
    col = 8 * (len(dy) + S) * (3 if loose.size else 1)
    chunk = max(chunk or blocks(I, col)[0].stop, R)
    buf = np.empty(min(chunk, I) * S)
    # Each slot's best R so far in (key, index) order, then the entries
    # collected since, n in all. The first slice, at least R wide, gives
    # every slot its first R.
    parts, n = [], 0
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
        if lo == 0:
            # The first slice's R-th key sets each slot's threshold, found
            # in `blocks` of slots, each a partitioned copy.
            # Of the columns tied at it, the lowest indices complete the R.
            thr = np.empty(S)
            for a in blocks(S, 8 * (hi - lo)):
                thr[a] = np.partition(block[:, a], R - 1, axis=0)[R - 1]
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
        parts.append((flat + lo * S, block.reshape(-1)[flat]))
        n += flat.size
        if 64 * n > bitmatrix.WORK_BYTES and hi < I:  # 64 B an entry
            _keep_best(R, S, parts)
            thr, n = parts[0][1][R - 1 :: R].copy(), S * R
    _keep_best(R, S, parts)
    top[:] = parts[0][0].reshape(S, R) // S


def sample_gradient_guided(
    R: int,
    I: int,
    x: np.ndarray,
    dy_slot: np.ndarray,
    exclude=(),
    chunk: int | None = None,
) -> np.ndarray:
    """Indices of the R most negative connection gradients, streaming.

    The single-slot case of the whole-layer scan, in slices of `chunk`
    columns (by default as many as WORK_BYTES holds): peak extra memory
    is O((batch + 1) * chunk) no matter how wide the layer is. Ties break
    toward the lower index; excluded (kept) candidates are never returned.
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
    of the most recent training batch. sample_many goes through the slots
    in blocks of SLOT_BLOCK and the fan-in in `blocks`, so apart from its
    (S, R) result it needs the same memory at any width."""

    def __init__(self, x: np.ndarray, dy: np.ndarray):
        # x: (batch, I) layer inputs; dy: (batch, G, 2) slot gradients.
        self.x = np.asarray(x)
        self.dy = np.asarray(dy)

    def sample_many(self, R: int, I: int, kept: np.ndarray):
        dy = self.dy.reshape(self.dy.shape[0], -1)  # column 2g + j is (g, j)
        return _guided_top_r(R, I, self.x, dy, kept, None)


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

    # Fancy indexing already copies and assignment casts, so the only
    # copies left are the int64 and float32 ones RefreshEvent documents.
    old_idx = cand[rows, repl_pos].astype(np.int64)
    new_idx = sampler.sample_many(R, fan_in_width, kept_idx)

    cand[rows, repl_pos] = new_idx
    weights[rows, repl_pos] = w_floor[:, None]

    return RefreshEvent(
        old_idx.reshape(G, 2, R),
        new_idx.reshape(G, 2, R).astype(np.int64, copy=False),
        w_floor.reshape(G, 2).astype(np.float32, copy=False),
    )
