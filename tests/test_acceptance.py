"""Acceptance checks: one test per shipped guarantee, run `pytest -v`.

The MNIST-backed checks (07, 10, 11, 12) share a module-scoped fixture
that trains six desk-scale models — three seeds each for the learnable
and the fixed interconnect — which takes roughly ten minutes on one CPU
core. They are skipped when the MNIST IDX files are absent; point
BOOLNET_DATA_DIR at a directory holding them to run everywhere.
"""

import os
import pathlib
import time
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.stats

from boolnet.bitmatrix import BitMatrix
from boolnet.data import load_mnist_idx
from boolnet.encoding import encode, fit_thresholds
from boolnet.interconnect import (
    RandomSampler,
    connection_scores_chunk,
    refresh_candidates,
    sample_gradient_guided,
)
from boolnet.model import (
    HardCircuit,
    HardLayer,
    LayerParams,
    NetworkModel,
    accuracy,
    estimate_interconnect_memory,
    eval_circuit,
    format_bytes,
    harden,
    random_network,
)
from boolnet.pruning import (
    greedy_prune,
    logic_equivalence_prune,
    phi_from_counts,
    profile_activations,
    similarity_prune,
    trivial_prune,
)
from boolnet.serialize import dump_netlist, parse_netlist
from boolnet.training import (
    EncodedSplits,
    TrainConfig,
    _forward_arrays,
    backward,
    connection_gradient,
    cross_entropy,
    evaluate_arrays,
    train,
)

MNIST_DIR = pathlib.Path(
    os.environ.get("BOOLNET_DATA_DIR")
    or pathlib.Path.home() / ".cache" / "boolnet" / "mnist"
)
needs_mnist = pytest.mark.skipif(
    not MNIST_DIR.is_dir(),
    reason=f"MNIST IDX files not found at {MNIST_DIR}",
)


# --------------------------------------------------------------- helpers


def _total_gates(circuit: HardCircuit) -> int:
    return sum(len(lay.code) for lay in circuit.layers)


def _all_inputs(width: int) -> BitMatrix:
    n = 1 << width
    bits = (np.arange(n)[:, None] >> np.arange(width)[None, :]) & 1
    return BitMatrix.from_array(bits.astype(np.uint8))


def _random_circuit(rng, width, layer_sizes) -> HardCircuit:
    layers = []
    prev = width
    for w in layer_sizes:
        layers.append(
            HardLayer(
                rng.integers(0, 16, size=w),
                rng.integers(0, prev, size=w),
                rng.integers(0, prev, size=w),
            )
        )
        prev = w
    return HardCircuit(width, layers, num_classes=2)


# ------------------------------------------------- 01 connection gradient


def test_01_connection_gradient_matches_brute_force():
    """Vectorized candidate-score gradient vs a literal four-deep loop."""
    rng = np.random.default_rng(2024)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        B = int(rng.integers(1, 9))
        G = int(rng.integers(1, 17))
        C = int(rng.integers(1, 9))
        I = int(rng.integers(max(C, 2), 65))
        x = rng.integers(0, 2, size=(B, I)).astype(np.float64)
        cand = np.stack(
            [
                np.stack(
                    [rng.choice(I, size=C, replace=False) for _ in range(2)]
                )
                for _ in range(G)
            ]
        ).astype(np.int64)
        dslot = rng.normal(size=(B, G, 2))
        got = connection_gradient(x, cand, dslot)
        want = np.zeros((G, 2, C))
        for b in range(B):
            for g in range(G):
                for j in range(2):
                    for c in range(C):
                        xv = x[b, cand[g, j, c]]
                        want[g, j, c] += (2.0 * xv - 1.0) * dslot[b, g, j]
        worst = max(worst, float(np.max(np.abs(got - want))))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-6, worst
    assert elapsed < 5.0, elapsed


# ------------------------------------------------ 02 gate gradient check


def test_02_gate_gradient_finite_differences():
    """d_logits vs central differences of the soft loss, every coordinate."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    model = random_network(4, [8, 8], 2, candidates_per_slot=4, seed=rng,
                           tau=2.0)
    for layer in model.layers:
        # float64 parameters so the finite-difference step is exact.
        layer.gate_logits = rng.normal(scale=0.5,
                                       size=layer.gate_logits.shape)
        layer.conn_weights = rng.normal(
            size=layer.conn_weights.shape
        ).astype(np.float32)
    x = _all_inputs(4).to_array().astype(np.float64)
    y = rng.integers(0, 2, size=len(x))

    def loss(m):
        return cross_entropy(_forward_arrays(m, x, soft=True).logits, y)

    grads = backward(model, _forward_arrays(model, x, soft=True), y)
    eps = 1e-5
    for li, layer in enumerate(model.layers):
        base = layer.gate_logits.astype(np.float64)
        for g in range(layer.n_gates):
            for k in range(16):
                orig = base[g, k]
                layer.gate_logits[g, k] = orig + eps
                up = loss(model)
                layer.gate_logits[g, k] = orig - eps
                down = loss(model)
                layer.gate_logits[g, k] = orig
                fd = (up - down) / (2 * eps)
                got = grads.d_logits[li][g, k]
                denom = max(abs(fd), 1e-6)
                assert abs(fd - got) / denom < 1e-4, (li, g, k, fd, got)
    assert time.perf_counter() - t0 < 10.0


# --------------------------------------------- 03 streaming top-R oracle


def test_03_streaming_top_r_matches_full_argsort():
    rng = np.random.default_rng(3)
    for case in range(100):
        I = int(rng.integers(2, 2001))
        R = int(rng.integers(1, min(8, I) + 1))
        B = int(rng.integers(1, 9))
        if case % 10 == 0:
            x = np.ones((B, I))  # every column scores identically
            dy = np.zeros(B)
        elif case % 10 == 5:
            x = np.zeros((B, I))
            dy = np.ones(B)
        else:
            x = rng.integers(0, 2, size=(B, I)).astype(np.float64)
            dy = rng.normal(size=B)
        got = sample_gradient_guided(R, I, x, dy, chunk=37)
        scores = connection_scores_chunk(x, dy)
        ref = np.lexsort((np.arange(I), scores))[:R]
        assert np.array_equal(got, ref), case


# ------------------------------------------------- 04 refresh semantics


def _one_slot_layer(candidates, weights) -> LayerParams:
    cand = np.array([[candidates, candidates]])
    w = np.array([[weights, weights]], dtype=np.float32)
    return LayerParams(
        gate_logits=np.zeros((1, 16)), candidates=cand, conn_weights=w
    )


def test_04_refresh_hand_trace_and_choice_stability():
    # Hand trace: weights [0.1, 0.8, 0.5, 0.2], R=2. The two weakest
    # entries are replaced and both newcomers start at the surviving
    # floor 0.5; the 0.8 argmax cannot move.
    layer = _one_slot_layer([10, 11, 12, 13], [0.1, 0.8, 0.5, 0.2])
    event = refresh_candidates(
        layer, RandomSampler(np.random.default_rng(0)), R=2, fan_in_width=50
    )
    w = layer.conn_weights[0, 0]
    assert w[0] == np.float32(0.5) and w[3] == np.float32(0.5)
    assert w[1] == np.float32(0.8) and w[2] == np.float32(0.5)
    assert np.array_equal(np.sort(event.old_indices[0, 0]), [10, 13])
    assert event.w_floor[0, 0] == np.float32(0.5)
    assert layer.candidates[0, 0][1] == 11

    # Stability: with at least two distinct surviving weights the
    # hardened choice is invariant under refresh. 1000 random layers.
    rng = np.random.default_rng(11)
    for _ in range(1000):
        C = int(rng.integers(3, 9))
        R = int(rng.integers(1, C - 1))  # leaves >= 2 survivors
        weights = rng.permutation(
            np.linspace(0.05, 0.95, C)
        ).astype(np.float32)
        cands = rng.choice(200, size=C, replace=False)
        layer = _one_slot_layer(cands, weights)
        before = layer.selected_slots().copy()
        refresh_candidates(layer, RandomSampler(rng), R=R, fan_in_width=200)
        assert np.array_equal(layer.selected_slots(), before)


# --------------------------------- 05/06 equivalence soundness + fixpoint


@pytest.fixture(scope="module")
def equivalence_suite():
    """50 random circuits, exhaustively checked before/after the exact
    passes; shared by the soundness and idempotence tests."""
    rng = np.random.default_rng(55)
    t0 = time.perf_counter()
    pruned = []
    for _ in range(50):
        width = int(rng.integers(4, 17))
        n_layers = int(rng.integers(1, 4))
        sizes = [int(rng.integers(8, 65)) for _ in range(n_layers)]
        sizes[-1] += sizes[-1] % 2  # output width divisible by classes
        circuit = _random_circuit(rng, width, sizes)
        inputs = _all_inputs(width)
        before = eval_circuit(circuit, inputs).to_array()

        step1, _ = trivial_prune(circuit)
        step2, _ = logic_equivalence_prune(step1)
        after = eval_circuit(step2, inputs).to_array()
        assert after.shape == before.shape
        pruned.append((circuit, step2, bool(np.array_equal(before, after))))
    return SimpleNamespace(
        circuits=pruned, elapsed=time.perf_counter() - t0
    )


def test_05_equivalence_prune_is_exhaustively_sound(equivalence_suite):
    assert all(ok for _, _, ok in equivalence_suite.circuits)
    assert len(equivalence_suite.circuits) == 50
    assert equivalence_suite.elapsed < 60.0, equivalence_suite.elapsed


def test_06_exact_passes_are_idempotent(equivalence_suite):
    for _, once, _ in equivalence_suite.circuits:
        again, rep_t = trivial_prune(once)
        assert _total_gates(again) == _total_gates(once), rep_t.gates_after
        again, rep_e = logic_equivalence_prune(once)
        assert _total_gates(again) == _total_gates(once), rep_e.gates_after


# ------------------------------------------------ desk-scale MNIST runs


@dataclass
class DeskRun:
    model: NetworkModel
    test_accuracy: float
    wall_s: float
    epochs: int


@pytest.fixture(scope="module")
def desk_runs():
    ds = load_mnist_idx(MNIST_DIR)
    rng = np.random.default_rng(123)
    tr_idx = ds.indices("train")
    tr_idx = tr_idx[rng.permutation(len(tr_idx))[:10000]]
    te_idx = ds.indices("test")
    feats = ds.features.astype(np.float64)
    enc = fit_thresholds(feats[tr_idx], 3)
    train_x = encode(enc, feats[tr_idx]).to_array()
    test_x = encode(enc, feats[te_idx]).to_array()
    train_y = ds.labels[tr_idx]
    test_y = ds.labels[te_idx]

    runs = {"learnable": [], "fixed": []}
    for mode in runs:
        for seed in (0, 1, 2):
            model = random_network(
                train_x.shape[1], [1000, 1000, 1000], 10,
                candidates_per_slot=8, tau=10.0, seed=seed,
            )
            cfg = TrainConfig(
                total_epochs=30, finetune_epochs=5, layers_to_learn=1,
                tau=10.0, batch_size=100, lr_init=0.01,
                sampling_mode="random", interconnect_mode=mode, seed=seed,
            )
            t0 = time.perf_counter()
            model, _ = train(model, EncodedSplits(train_x, train_y), cfg)
            wall = time.perf_counter() - t0
            acc, _ = evaluate_arrays(model, test_x, test_y)
            runs[mode].append(
                DeskRun(model, acc, wall,
                        cfg.total_epochs + cfg.finetune_epochs)
            )
    return SimpleNamespace(
        runs=runs, train_x=train_x, train_y=train_y,
        test_x=test_x, test_y=test_y,
    )


# ------------------------------------------------ 07 lossless thresholds


@needs_mnist
def test_07_threshold_one_passes_are_lossless_on_profiling_set(desk_runs):
    run = desk_runs.runs["learnable"][0]
    circuit = harden(run.model)
    circuit, _ = trivial_prune(circuit)
    circuit, _ = logic_equivalence_prune(circuit)
    bits = BitMatrix.from_array(desk_runs.train_x)
    profile = profile_activations(circuit, bits)
    acc0 = accuracy(circuit, bits, desk_runs.train_y)

    greedy_circ, _ = greedy_prune(circuit, profile, 1.0)
    assert accuracy(greedy_circ, bits, desk_runs.train_y) == acc0

    sim_circ, _ = similarity_prune(circuit, profile, 1.0)
    assert accuracy(sim_circ, bits, desk_runs.train_y) == acc0


# --------------------------------------------- 08 phi equals rank-based


def test_08_phi_matches_rank_correlation_on_binary_pairs():
    rng = np.random.default_rng(88)
    n = 256
    a = rng.integers(0, 2, size=(10_000, n)).astype(np.uint8)
    b = rng.integers(0, 2, size=(10_000, n)).astype(np.uint8)
    ni = a.sum(axis=1)
    nj = b.sum(axis=1)
    nij = (a & b).sum(axis=1)
    ours = phi_from_counts(n, ni, nj, nij)
    for i in range(10_000):
        if ni[i] in (0, n) or nj[i] in (0, n):
            assert np.isnan(ours[i])
            continue
        ref = scipy.stats.spearmanr(a[i], b[i]).statistic
        assert abs(ours[i] - ref) <= 1e-12, (i, ours[i], ref)


# ------------------------------------------------- 09 memory estimates


def test_09_interconnect_memory_formula_values():
    est = estimate_interconnect_memory(12000, 30720, 2, 8)
    assert est.bytes_full == 2_949_120_000
    assert est.bytes_sparse == 1_536_000
    assert format_bytes(est.bytes_full) == "2.949 GB"
    assert format_bytes(est.bytes_sparse) == "1.536 MB"
    assert est.ratio == pytest.approx(2 * 8 / 30720)

    wider = estimate_interconnect_memory(24000, 30720, 2, 8)
    assert wider.bytes_full == 5_898_240_000
    assert format_bytes(wider.bytes_full) == "5.898 GB"
    assert round(wider.bytes_full / 1e9, 1) == 5.9


# ------------------------------------- 10 learnable beats fixed on MNIST


@needs_mnist
def test_10_learnable_interconnect_beats_fixed_on_mnist_subset(desk_runs):
    learn = desk_runs.runs["learnable"]
    fixed = desk_runs.runs["fixed"]
    for run in learn:
        assert run.test_accuracy >= 0.85, run.test_accuracy
        assert run.epochs <= 200
        assert run.wall_s < 1800.0, run.wall_s
    mean_learn = float(np.mean([r.test_accuracy for r in learn]))
    mean_fixed = float(np.mean([r.test_accuracy for r in fixed]))
    assert mean_fixed < mean_learn, (mean_fixed, mean_learn)


# ------------------------------------------- 11 hardening consistency


@needs_mnist
def test_11_hardened_netlist_accuracy_matches_training_forward(desk_runs):
    bits = BitMatrix.from_array(desk_runs.test_x)
    for mode in ("learnable", "fixed"):
        for run in desk_runs.runs[mode]:
            circuit = parse_netlist(dump_netlist(harden(run.model)))
            hard_acc = accuracy(circuit, bits, desk_runs.test_y)
            assert hard_acc == run.test_accuracy, (mode, hard_acc)


# --------------------------------------- 12 compression-accuracy trend


@needs_mnist
def test_12_similarity_sweep_trend_and_greedy_comparison(desk_runs):
    cs = (1.0, 0.95, 0.9, 0.8)
    train_bits = BitMatrix.from_array(desk_runs.train_x)
    test_bits = BitMatrix.from_array(desk_runs.test_x)
    sim_acc = np.zeros((3, len(cs)))
    greedy_acc = np.zeros((3, len(cs)))

    for si, run in enumerate(desk_runs.runs["learnable"]):
        base = harden(run.model)
        base, _ = trivial_prune(base)
        base, _ = logic_equivalence_prune(base)
        profile = profile_activations(base, train_bits)

        counts = []
        for ci, c in enumerate(cs):
            circ, _ = similarity_prune(base, profile, c)
            counts.append(_total_gates(circ))
            sim_acc[si, ci] = accuracy(circ, test_bits, desk_runs.test_y)
        # Tighter similarity budget never keeps more gates.
        assert all(a >= b for a, b in zip(counts, counts[1:])), counts

        # Greedy frontier: gate count per threshold, then match each
        # similarity point to the closest-count greedy circuit.
        grid = np.linspace(1.0, 0.501, 100)
        frontier = [
            (float(t), _total_gates(greedy_prune(base, profile, float(t))[0]))
            for t in grid
        ]
        for ci, target in enumerate(counts):
            t_best = min(frontier, key=lambda tc: abs(tc[1] - target))[0]
            circ, _ = greedy_prune(base, profile, t_best)
            greedy_acc[si, ci] = accuracy(circ, test_bits, desk_runs.test_y)

    wins = (sim_acc.mean(axis=0) >= greedy_acc.mean(axis=0)).sum()
    assert wins >= 3, (sim_acc.mean(axis=0), greedy_acc.mean(axis=0))
