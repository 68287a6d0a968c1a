import tracemalloc

import numpy as np
import pytest

from boolnet import interconnect
from boolnet.errors import StructuralError
from boolnet.interconnect import (
    GradientGuidedSampler,
    RandomSampler,
    _exact_slots,
    _guided_top_r,
    connection_scores_chunk,
    refresh_candidates,
    sample_gradient_guided,
    sample_random,
)
from boolnet.model import LayerParams


def _one_slot_layer(candidates, weights) -> LayerParams:
    """Single gate whose slot 0 carries the given candidate set; slot 1 is
    a mirror that tests ignore."""
    cand = np.array([[candidates, candidates]])
    w = np.array([[weights, weights]], dtype=np.float32)
    return LayerParams(
        gate_logits=np.zeros((1, 16)), candidates=cand, conn_weights=w
    )


# ---------------------------------------------------------------- refresh


def test_refresh_hand_trace():
    # Weights [0.1, 0.8, 0.5, 0.2] with R=2: the 0.1 and 0.2 entries are
    # replaced and every newcomer inherits the smallest surviving weight,
    # 0.5, leaving the 0.8 argmax untouched.
    layer = _one_slot_layer([10, 11, 12, 13], [0.1, 0.8, 0.5, 0.2])
    before = layer.selected_slots().copy()
    event = refresh_candidates(
        layer, RandomSampler(np.random.default_rng(0)), R=2, fan_in_width=50
    )
    w = layer.conn_weights[0, 0]
    cand = layer.candidates[0, 0]
    assert w[1] == np.float32(0.8) and w[2] == np.float32(0.5)
    assert w[0] == np.float32(0.5) and w[3] == np.float32(0.5)
    assert cand[1] == 11 and cand[2] == 12
    assert cand[0] not in (10, 11, 12, 13) and cand[3] not in (10, 11, 12, 13)
    assert np.array_equal(layer.selected_slots(), before)
    assert np.array_equal(np.sort(event.old_indices[0, 0]), [10, 13])
    assert event.w_floor[0, 0] == np.float32(0.5)


def test_refresh_replaces_ties_by_position():
    # All-equal weights: stable sort replaces the R earliest positions.
    layer = _one_slot_layer([4, 5, 6, 7], [0.3, 0.3, 0.3, 0.3])
    refresh_candidates(
        layer, RandomSampler(np.random.default_rng(1)), R=2, fan_in_width=40
    )
    assert np.array_equal(layer.candidates[0, 0][2:], [6, 7])
    assert (layer.candidates[0, 0][:2] >= 8).all() | (
        layer.candidates[0, 0][:2] <= 3
    ).all()


def test_refresh_full_budget_floor_is_zero():
    layer = _one_slot_layer([0, 1, 2], [5.0, 6.0, 7.0])
    event = refresh_candidates(
        layer, RandomSampler(np.random.default_rng(2)), R=3, fan_in_width=30
    )
    assert (layer.conn_weights == 0.0).all()
    assert (event.w_floor == 0.0).all()


def test_refresh_zero_budget_is_noop():
    layer = _one_slot_layer([0, 1, 2], [5.0, 6.0, 7.0])
    snap = layer.candidates.copy()
    event = refresh_candidates(
        layer, RandomSampler(np.random.default_rng(3)), R=0, fan_in_width=30
    )
    assert event.new_indices.shape == (1, 2, 0)
    assert np.array_equal(layer.candidates, snap)


def test_refresh_keeps_candidates_distinct():
    rng = np.random.default_rng(4)
    layer = LayerParams(
        gate_logits=np.zeros((6, 16)),
        candidates=np.arange(6 * 2 * 4).reshape(6, 2, 4) % 9,
        conn_weights=rng.normal(size=(6, 2, 4)).astype(np.float32),
    )
    # Force validity first: make candidate rows distinct.
    for g in range(6):
        for j in range(2):
            layer.candidates[g, j] = rng.choice(9, size=4, replace=False)
    for _ in range(50):
        refresh_candidates(
            layer, RandomSampler(rng), R=2, fan_in_width=9
        )
        layer.validate(fan_in_width=9)


def test_refresh_budget_out_of_range():
    layer = _one_slot_layer([0, 1], [1.0, 2.0])
    with pytest.raises(StructuralError):
        refresh_candidates(
            layer, RandomSampler(np.random.default_rng(0)), 3, 10
        )


def test_hardened_choice_stability_under_refresh():
    """1000 random refreshes never move a slot whose surviving weights are
    not all equal: newcomers tie the floor, which the max strictly beats."""
    rng = np.random.default_rng(5)
    for trial in range(1000):
        C = int(rng.integers(3, 9))
        R = int(rng.integers(1, C - 1))  # >= 2 survivors
        I = int(rng.integers(C + R, 3 * C + R + 4))
        w = rng.normal(size=C).astype(np.float32)
        while len(np.unique(w)) < C:  # non-degenerate: distinct weights
            w = rng.normal(size=C).astype(np.float32)
        cand = rng.choice(I, size=C, replace=False)
        layer = _one_slot_layer(cand, w)
        before = layer.selected_slots().copy()
        refresh_candidates(layer, RandomSampler(rng), R, I)
        assert np.array_equal(layer.selected_slots(), before)


# ----------------------------------------------------------- random draws


def test_sample_random_respects_exclusions():
    rng = np.random.default_rng(6)
    for _ in range(200):
        out = sample_random(3, 8, exclude=[0, 1, 2, 3, 4], rng=rng)
        assert sorted(out) == [5, 6, 7] or len(set(out)) == 3
        assert not set(out) & {0, 1, 2, 3, 4}


def test_sample_random_pool_too_small():
    with pytest.raises(StructuralError):
        sample_random(4, 5, exclude=[0, 1], rng=np.random.default_rng(0))


def test_random_sampler_tiny_pool_falls_back():
    # width 4, keep 2, draw 2: only one valid draw per slot; rejection
    # sampling alone would struggle, the fallback must still finish.
    rng = np.random.default_rng(7)
    kept = np.array([[0, 1]] * 40)
    out = RandomSampler(rng).sample_many(2, 4, kept)
    assert out.shape == (40, 2)
    for row in out:
        assert sorted(row) == [2, 3]


def test_random_sampler_is_roughly_uniform():
    rng = np.random.default_rng(8)
    kept = np.zeros((4000, 1), dtype=np.int64)  # exclude index 0
    out = RandomSampler(rng).sample_many(1, 5, kept)
    counts = np.bincount(out.reshape(-1), minlength=5)
    assert counts[0] == 0
    freq = counts[1:] / counts.sum()
    assert np.allclose(freq, 0.25, atol=0.02)


# ------------------------------------------------- gradient-guided  draws


def test_gradient_guided_hand_example():
    # Columns x = (1, 0, 1, 0) with dy = 1: scores (1, -1, 1, -1); index 1
    # is the most negative tie at the lowest index.
    x = np.array([[1, 0, 1, 0]], dtype=np.float64)
    dy = np.array([1.0])
    out = sample_gradient_guided(1, 4, x, dy)
    assert out.tolist() == [1]
    out = sample_gradient_guided(2, 4, x, dy)
    assert out.tolist() == [1, 3]


def test_gradient_guided_zero_gradient_takes_lowest_indices():
    x = np.random.default_rng(9).integers(0, 2, size=(6, 30))
    dy = np.zeros(6)
    out = sample_gradient_guided(4, 30, x, dy)
    assert out.tolist() == [0, 1, 2, 3]


def test_gradient_guided_respects_exclusions():
    x = np.array([[0, 0, 0, 0, 1]], dtype=np.float64)
    dy = np.array([1.0])  # scores: -1 everywhere except +1 at col 4
    out = sample_gradient_guided(3, 5, x, dy, exclude=[0, 2])
    assert out.tolist() == [1, 3, 4]


def test_gradient_guided_pool_counts_each_exclusion_once():
    # Repeated exclusions count once and out-of-range ones not at all, so
    # the pool is 3 wide here and a fourth draw must be refused.
    x = np.array([[0, 0, 0, 0, 1]], dtype=np.float64)
    dy = np.array([1.0])
    out = sample_gradient_guided(3, 5, x, dy, exclude=[0, 0, 2, 9, -1])
    assert out.tolist() == [1, 3, 4]
    with pytest.raises(StructuralError):
        sample_gradient_guided(4, 5, x, dy, exclude=[0, 2, 2])


def test_streaming_equals_full_argsort_oracle():
    """Chunked top-R must match one-shot argsort top-R exactly, ties and
    all, across random instances (including constant score vectors)."""
    rng = np.random.default_rng(10)
    for trial in range(100):
        B = int(rng.integers(1, 9))
        I = int(rng.integers(1, 400))
        R = int(rng.integers(0, min(I, 12) + 1))
        x = rng.integers(0, 2, size=(B, I)).astype(np.float64)
        if trial % 5 == 0:
            x[:] = trial % 2  # constant columns: every score ties
        dy = rng.normal(size=B)
        if trial % 7 == 0:
            dy[:] = 0.0
        scores = ((2 * x - 1) * dy[:, None]).sum(axis=0)
        want = np.lexsort((np.arange(I), scores))[:R]
        got = sample_gradient_guided(R, I, x, dy, chunk=7)
        assert np.array_equal(np.sort(got), np.sort(want))
        # And chunk width must not matter at all.
        got_wide = sample_gradient_guided(R, I, x, dy, chunk=10**6)
        assert np.array_equal(got, got_wide)


def test_streaming_memory_stays_o_of_chunk():
    """Peak allocation while scanning must not grow with fan-in width."""
    B, R = 4, 8
    peaks = []
    for I in (1_000, 10_000, 100_000):
        rng = np.random.default_rng(I)
        x = rng.integers(0, 2, size=(B, I)).astype(np.uint8)
        dy = rng.normal(size=B)
        sample_gradient_guided(R, I, x, dy)  # warm allocator paths
        tracemalloc.start()
        sample_gradient_guided(R, I, x, dy)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        peaks.append(peak)
    # The dense-score approach would scale 100x here; allow small drift.
    assert peaks[-1] < peaks[0] * 4 + 512 * 1024


def test_gradient_guided_sampler_slot_lookup():
    rng = np.random.default_rng(11)
    x = rng.integers(0, 2, size=(5, 20)).astype(np.float64)
    dy = rng.normal(size=(5, 3, 2))
    sampler = GradientGuidedSampler(x, dy)
    kept = np.arange(12).reshape(6, 2)  # row 2g + j is slot (g, j)
    out = sampler.sample_many(2, 20, kept)
    assert out.shape == (6, 2)
    for g in range(3):
        for j in range(2):
            want = sample_gradient_guided(2, 20, x, dy[:, g, j],
                                          exclude=kept[2 * g + j])
            assert np.array_equal(out[2 * g + j], want)


def _per_slot_oracle(R, x, dy_slot, kept_row):
    I = x.shape[1]
    order = np.lexsort((np.arange(I), connection_scores_chunk(x, dy_slot)))
    return order[~np.isin(order, kept_row)][:R]


@pytest.mark.parametrize("chunk", [1, 7, 10**6])
@pytest.mark.parametrize("S", [1, 3, 50])
def test_whole_layer_sampler_matches_per_slot_oracle(S, chunk):
    """Every slot of one whole-layer call equals its own full argsort,
    ties and exclusions included, whatever the slice width. float32
    gradients take the matrix-product path, float64 ones the fixed-order
    fallback."""
    rng = np.random.default_rng(100 + S)
    paths = set()
    for trial in range(24):
        B = int(rng.integers(1, 40))
        C = int(rng.integers(1, 9))
        I = int(rng.integers(C, 120))
        R = int(rng.integers(0, C + 1))
        x = rng.integers(0, 2, size=(B, I)).astype(np.uint8)
        if trial % 6 == 0:
            x[:] = trial % 4 // 2  # constant columns: every score ties
        dy = rng.normal(size=(B, S)) * np.exp(rng.normal(size=(B, S)))
        if trial % 2:
            dy = dy.astype(np.float32)
        if trial % 8 == 1:
            dy[:] = 0.0
        kept = np.stack([rng.choice(I, size=C - R, replace=False)
                         for _ in range(S)])
        paths.update(_exact_slots(dy.astype(np.float64)).tolist())
        got = _guided_top_r(R, I, x, dy, kept, chunk)
        assert got.shape == (S, R)
        for s in range(S):
            want = _per_slot_oracle(R, x, dy[:, s], kept[s])
            assert np.array_equal(got[s], want), (trial, s)
    assert paths == {True, False}


@pytest.mark.parametrize("chunk", ["1", "7", "R"])
def test_whole_layer_sampler_ties_across_slices(chunk):
    """Integer gradients over duplicated columns make many later scores
    equal a slot's R-th best. The earlier index keeps its place whatever
    the slice width, so results equal the per-slot oracle."""
    rng = np.random.default_rng(200)
    crossed = 0
    for trial in range(30):
        B = int(rng.integers(1, 30))
        S = int(rng.integers(1, 12))
        R = int(rng.integers(1, 6))
        I = int(rng.integers(R + 4, 90))
        width = R if chunk == "R" else int(chunk)
        base = rng.integers(0, 2, size=(B, 6)).astype(np.uint8)
        x = base[:, rng.integers(0, 6, size=I)]  # 6 distinct columns
        dy = rng.integers(-3, 4, size=(B, S)).astype(
            np.float32 if trial % 2 else np.float64
        )
        kept = np.stack([rng.choice(I, size=4, replace=False)
                         for _ in range(S)])
        got = _guided_top_r(R, I, x, dy, kept, width)
        for s in range(S):
            want = _per_slot_oracle(R, x, dy[:, s], kept[s])
            assert np.array_equal(got[s], want), (trial, s)
            # Count slots where an unchosen later slice ties the R-th best.
            scores = connection_scores_chunk(x, dy[:, s])
            ties = np.flatnonzero(scores == scores[want[-1]])
            ties = ties[~np.isin(ties, kept[s]) & ~np.isin(ties, want)]
            crossed += bool((ties // width > want[-1] // width).any())
    assert crossed > 100


def test_slice_that_improves_no_slot_is_not_merged(monkeypatch):
    """With positive gradients an all-zero column has every slot's lowest
    score. The first slice already holds R of them; the second only ties
    or scores worse, so no slot changes and only the first slice runs the
    partition merge."""
    rng = np.random.default_rng(201)
    B, S, R, chunk = 6, 5, 3, 8
    x = rng.integers(0, 2, size=(B, 2 * chunk)).astype(np.uint8)
    x[:, [1, 4, 6, 9, 12]] = 0
    dy = rng.integers(1, 4, size=(B, S)).astype(np.float32)
    kept = np.empty((S, 0), dtype=np.int64)
    calls = []
    partition = np.partition

    def counting_partition(*args, **kwargs):
        calls.append(1)
        return partition(*args, **kwargs)

    monkeypatch.setattr(np, "partition", counting_partition)
    got = _guided_top_r(R, 2 * chunk, x, dy, kept, chunk)
    assert got.tolist() == [[1, 4, 6]] * S
    assert len(calls) == 1


@pytest.mark.parametrize("collect_bytes", [None, 1])
@pytest.mark.parametrize("chunk", [1, 5, 10**6])
def test_threshold_and_collect_matches_per_slot_oracle(
    chunk, collect_bytes, monkeypatch
):
    """Small integer gradients over a few distinct columns (ties on most
    keys), all-zero gradient slots that tie on every column, loose slots,
    and exclusions with duplicates and out-of-range values: every slot
    equals its own full argsort. A 1-byte bound runs the selection after
    every slice that collects anything, not only once at the end."""
    if collect_bytes is not None:
        monkeypatch.setattr(interconnect, "COLLECT_BYTES", collect_bytes)
    selections = []
    argsort = np.argsort

    def counting_argsort(a, *args, **kwargs):
        selections.append(np.iscomplexobj(a))
        return argsort(a, *args, **kwargs)

    monkeypatch.setattr(np, "argsort", counting_argsort)
    rng = np.random.default_rng(300 + chunk)
    paths = set()
    for trial in range(30):
        B = int(rng.integers(1, 25))
        S = int(rng.integers(1, 10))
        R = int(rng.integers(1, 7))
        I = int(rng.integers(R + 6, 90))
        base = rng.integers(0, 2, size=(B, 5)).astype(np.uint8)
        x = base[:, rng.integers(0, 5, size=I)]  # 5 distinct columns
        if trial % 3 == 2:
            dy = rng.normal(size=(B, S)) * np.exp(4 * rng.normal(size=(B, S)))
        else:
            dy = rng.integers(-2, 3, size=(B, S)).astype(np.float32)
        dy[:, rng.random(S) < 0.3] = 0.0
        kept = rng.integers(-3, I + 3, size=(S, 6))
        kept[:, 1] = kept[:, 0]
        paths.update(_exact_slots(dy.astype(np.float64)).tolist())
        del selections[:]
        got = _guided_top_r(R, I, x, dy, kept, chunk)
        assert got.shape == (S, R)
        for s in range(S):
            want = _per_slot_oracle(R, x, dy[:, s], kept[s])
            assert np.array_equal(got[s], want), (trial, s)
        n_slices = -(-I // chunk)
        if collect_bytes is None or n_slices == 1:
            assert sum(selections) == 1
        else:
            assert sum(selections) > 1
    assert paths == {True, False}


def test_whole_layer_memory_does_not_grow_with_width():
    """At a fixed slot count the streamed scan's peak allocation stays
    flat as the fan-in width grows 16x."""
    B, S, R = 4, 16, 4
    peaks = []
    for I in (100_000, 400_000, 1_600_000):
        rng = np.random.default_rng(I)
        x = rng.integers(0, 2, size=(B, I)).astype(np.uint8)
        dy = rng.normal(size=(B, S // 2, 2)).astype(np.float32)
        kept = rng.integers(0, I, size=(S, 4))
        sampler = GradientGuidedSampler(x, dy)
        sampler.sample_many(R, I, kept)  # warm allocator paths
        tracemalloc.start()
        sampler.sample_many(R, I, kept)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        peaks.append(peak)
    assert peaks[-1] < peaks[0] * 1.25 + 64 * 1024
