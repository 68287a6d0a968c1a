import numpy as np
import pytest

from boolnet.bitmatrix import BitMatrix
from boolnet.data import synth_boolean_task
from boolnet.errors import ConfigError, StructuralError
from boolnet.model import (
    accuracy,
    circuit_logits,
    eval_circuit_layers,
    harden,
    random_network,
)
from boolnet.serialize import dump_netlist, parse_netlist
from boolnet.training import (
    Adam,
    EncodedSplits,
    Phase,
    TrainConfig,
    _forward_arrays,
    _scatter_slots,
    backward,
    build_phases,
    connection_gradient,
    cosine_lr,
    cross_entropy,
    evaluate_arrays,
    forward_soft,
    softmax,
    train,
)


def _rand_model(rng, widths=(10, 6), inputs=8, C=4, classes=2, tau=5.0):
    model = random_network(
        inputs, list(widths), classes, candidates_per_slot=C, seed=rng, tau=tau
    )
    for layer in model.layers:
        layer.gate_logits = rng.normal(size=layer.gate_logits.shape).astype(
            np.float32
        )
        layer.conn_weights = rng.normal(size=layer.conn_weights.shape).astype(
            np.float32
        )
    return model


# -------------------------------------------------------------- forward


def test_forward_hard_matches_hardened_circuit():
    """The training forward (the reference) and the packed circuit agree
    bit for bit on every layer and exactly on the logits."""
    rng = np.random.default_rng(0)
    model = _rand_model(rng)
    x = rng.integers(0, 2, size=(150, 8)).astype(np.uint8)
    cache = _forward_arrays(model, x)
    bits = BitMatrix.from_array(x)
    circuit = harden(model)

    ref = eval_circuit_layers(circuit, bits)
    assert len(ref) == len(cache.x_layers) - 1
    for got, words in zip(cache.x_layers[1:], ref):
        packed = BitMatrix(words, len(x)).to_array()
        assert np.array_equal(got, packed)
    assert np.array_equal(circuit_logits(circuit, bits), cache.logits)


def test_trained_netlist_accuracy_equals_training_forward():
    """Synthetic twin of acceptance test 11: after training, the saved and
    reloaded netlist scores exactly what the training forward scores."""
    ds = synth_boolean_task("random-circuit-teacher", 12, 600, seed=5)
    train_x, train_y = ds.split_arrays("train")
    test_x, test_y = ds.split_arrays("test")
    model = random_network(
        12, [24, 12], ds.num_classes, candidates_per_slot=4, seed=2, tau=2.0
    )
    cfg = TrainConfig(
        total_epochs=4, finetune_epochs=1, C=4, R=2, beta=5, tau=2.0,
        batch_size=32, lr_init=0.05, seed=2,
    )
    model, _ = train(model, EncodedSplits(train_x, train_y), cfg)

    forward = _forward_arrays(model, test_x).logits
    forward_acc = float(np.mean(np.argmax(forward, axis=1) == test_y))
    circuit = parse_netlist(dump_netlist(harden(model)))
    assert accuracy(circuit, BitMatrix.from_array(test_x), test_y) == forward_acc


def test_soft_forward_agrees_on_saturated_logits():
    """With large logits and binary inputs, the mixture collapses to the
    hard gate output."""
    rng = np.random.default_rng(1)
    model = _rand_model(rng)
    for layer in model.layers:
        # One-hot logits at 60: softmax mass within 1e-20 of a point mass.
        hot = np.argmax(layer.gate_logits, axis=1)
        layer.gate_logits = np.zeros_like(layer.gate_logits)
        layer.gate_logits[np.arange(len(hot)), hot] = 60.0
    x = rng.integers(0, 2, size=(16, 8)).astype(np.float64)
    soft = _forward_arrays(model, x, soft=True)
    hard = _forward_arrays(model, x.astype(np.uint8))
    assert np.allclose(soft.x_layers[-1], hard.x_layers[-1], atol=1e-9)
    assert np.allclose(soft.logits, hard.logits, atol=1e-9)


def test_forward_rejects_wrong_width():
    model = _rand_model(np.random.default_rng(2))
    with pytest.raises(StructuralError):
        _forward_arrays(model, np.zeros((3, 5), dtype=np.uint8))


# ------------------------------------------------- connection gradient


def test_connection_gradient_triple_loop_oracle():
    """Vectorized candidate-score gradient vs the definition, elementwise:
    d[g,j,c] = sum_b (2 x[b, cand[g,j,c]] - 1) * dy[b,g,j]."""
    rng = np.random.default_rng(3)
    for _ in range(100):
        B = int(rng.integers(1, 9))
        G = int(rng.integers(1, 17))
        C = int(rng.integers(1, 9))
        I = int(rng.integers(C, 65))
        x = rng.integers(0, 2, size=(B, I)).astype(np.uint8)
        cand = np.stack(
            [
                np.stack(
                    [rng.choice(I, size=C, replace=False) for _ in range(2)]
                )
                for _ in range(G)
            ]
        ).astype(np.int32)
        dy = rng.normal(size=(B, G, 2))
        got = connection_gradient(x, cand, dy)
        want = np.zeros((G, 2, C))
        for b in range(B):
            for g in range(G):
                for j in range(2):
                    for c in range(C):
                        want[g, j, c] += (
                            2 * int(x[b, cand[g, j, c]]) - 1
                        ) * float(dy[b, g, j])
        assert np.max(np.abs(got - want)) <= 1e-6


def _gather_einsum_oracle(x_prev, candidates, dslot):
    """The scattered-gather form of connection_gradient: index the
    (B, I) batch directly, widen to the gradient's dtype and sum over the
    leading batch axis."""
    dtype = np.float64 if dslot.dtype == np.float64 else np.float32
    xc = x_prev.astype(dtype)[:, candidates]  # (B, G, 2, C)
    xdy = np.einsum("bgjc,bgj->gjc", xc, dslot, dtype=np.float64)
    out = 2.0 * xdy - dslot.sum(axis=0, dtype=np.float64)[:, :, None]
    return out.astype(dtype)


@pytest.mark.parametrize("B", [1, 7, 20, 100, 128])
@pytest.mark.parametrize(
    "x_dtype, dy_dtype", [(np.uint8, np.float32), (np.float64, np.float64)]
)
def test_connection_gradient_bit_equals_gather_oracle(B, x_dtype, dy_dtype):
    """Bit for bit, at batch sizes where summation order would show, and
    with gradients spanning many binary exponents."""
    rng = np.random.default_rng(B)
    G, C, I = 300, 8, 1000
    x = rng.integers(0, 2, size=(B, I)).astype(x_dtype)
    cand = rng.integers(0, I, size=(G, 2, C)).astype(np.int32)
    dy = rng.normal(size=(B, G, 2)) * np.exp2(rng.integers(-12, 12, (B, G, 2)))
    dy = dy.astype(dy_dtype)
    got = connection_gradient(x, cand, dy)
    assert got.dtype == dy_dtype
    assert np.array_equal(got, _gather_einsum_oracle(x, cand, dy))


# ------------------------------------------------------------- backward


def _loss_of(model, x, y):
    cache = _forward_arrays(model, x, soft=True)
    return cross_entropy(cache.logits, y)


def test_gate_gradient_finite_differences():
    """Central differences on the soft surrogate, every logit coordinate."""
    rng = np.random.default_rng(4)
    model = random_network(
        4, [8, 8], 2, candidates_per_slot=3, seed=rng, tau=2.0
    )
    for layer in model.layers:
        layer.gate_logits = rng.normal(
            scale=0.5, size=layer.gate_logits.shape
        ).astype(np.float32)
        layer.conn_weights = rng.normal(size=layer.conn_weights.shape).astype(
            np.float32
        )
    x = rng.integers(0, 2, size=(12, 4)).astype(np.float64)
    y = rng.integers(0, 2, size=12)
    cache = _forward_arrays(model, x, soft=True)
    grads = backward(model, cache, y)
    eps = 1e-5
    for li, layer in enumerate(model.layers):
        logits64 = layer.gate_logits.astype(np.float64)
        for g in range(layer.n_gates):
            for k in range(16):
                orig = logits64[g, k]
                layer.gate_logits = logits64.copy()
                layer.gate_logits[g, k] = orig + eps
                up = _loss_of(model, x, y)
                layer.gate_logits[g, k] = orig - eps
                down = _loss_of(model, x, y)
                layer.gate_logits = logits64.copy()
                fd = (up - down) / (2 * eps)
                got = grads.d_logits[li][g, k]
                denom = max(abs(fd), abs(got), 1e-8)
                assert abs(fd - got) / denom < 1e-4, (li, g, k, fd, got)


def test_slot_gradient_finite_differences():
    """dy (per-slot input gradient) checked by perturbing the soft inputs."""
    rng = np.random.default_rng(5)
    model = random_network(5, [6, 4], 2, candidates_per_slot=2, seed=rng)
    x = np.clip(rng.random((7, 5)), 0.05, 0.95)
    y = rng.integers(0, 2, size=7)
    cache = _forward_arrays(model, x, soft=True)
    grads = backward(model, cache, y)
    # Gradient wrt the raw inputs: scatter slot grads of layer 0.
    sel = cache.sel[0]
    dx = np.zeros_like(x)
    for g in range(model.layers[0].n_gates):
        for j in range(2):
            dx[:, sel[g, j]] += grads.dy[0][:, g, j]
    eps = 1e-6
    for b in range(x.shape[0]):
        for i in range(x.shape[1]):
            xp = x.copy()
            xp[b, i] += eps
            xm = x.copy()
            xm[b, i] -= eps
            fd = (_loss_of(model, xp, y) - _loss_of(model, xm, y)) / (2 * eps)
            # FD truncation noise dominates below ~1e-6; compare absolutely
            # there and relatively above.
            denom = max(abs(fd), abs(dx[b, i]), 1e-6)
            assert abs(fd - dx[b, i]) / denom < 1e-3


def _scatter_oracle(dslot, sel, width):
    """_scatter_slots' documented order, one signal at a time: slots a0,
    a1, ... in slot order sum as a0 + (((-0.0 + a1) + a2) + ...)."""
    batch = dslot.shape[0]
    flat = dslot.reshape(batch, -1)
    cols = sel.reshape(-1)
    out = np.zeros((batch, width), dtype=dslot.dtype)
    for col in np.unique(cols):
        members = np.ascontiguousarray(flat[:, cols == col].T)
        tail = np.full(batch, -0.0, dtype=dslot.dtype)
        for m in members[1:]:
            tail = tail + m
        out[:, col] = members[0] + tail
    return out


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_scatter_slots_bit_equals_documented_order(dtype):
    """Signals read by 1 to 12 slots, values spread over 40 binary
    exponents, and many +0.0 and -0.0 entries (a signal whose slots are
    all -0.0 must get -0.0): equal bit for bit, unused signals zero."""
    rng = np.random.default_rng(6)
    uint = np.uint32 if dtype == np.float32 else np.uint64
    for trial in range(40):
        sizes = rng.permutation(np.tile(np.arange(1, 13), 2))
        cols = np.repeat(2 * np.arange(sizes.size), sizes)  # odd ones unused
        if cols.size % 2:
            cols = np.append(cols, 2 * sizes.size)
        sel = rng.permutation(cols).reshape(-1, 2)
        batch = int(rng.integers(1, 9))
        dslot = rng.normal(size=(batch,) + sel.shape)
        dslot *= np.exp2(rng.integers(-20, 20, size=dslot.shape))
        dslot = dslot.astype(dtype)
        dslot[rng.random(dslot.shape) < 0.3] = 0.0
        dslot[rng.random(dslot.shape) < 0.3] = -0.0
        width = 2 * sizes.size + 3
        got = _scatter_slots(dslot, sel, width)
        want = _scatter_oracle(dslot, sel, width)
        assert got.dtype == dtype
        assert np.array_equal(got.view(uint), want.view(uint)), trial


def test_training_reuses_scatter_plans_only_while_a_selection_holds(
    monkeypatch,
):
    """With layers_to_learn=2, layer 1's interconnect learns in the second
    phase, so its selection changes between steps while layer 2's holds.
    Every scatter backward makes with a held plan equals _scatter_slots
    building its own, bit for bit; held plans are reused, and each plan
    belongs to one selection."""
    import boolnet.training as training

    rng = np.random.default_rng(10)
    splits = _parity_splits(rng, n=96)
    model = random_network(6, [12, 10, 4], 2, candidates_per_slot=4, seed=4,
                           tau=2.0)
    calls, held = [], []

    def checked(dslot, sel, width, plan=None):
        assert plan is not None
        got = _scatter_slots(dslot, sel, width, plan)
        fresh = _scatter_slots(dslot, sel, width)
        assert got.dtype == fresh.dtype
        assert got.tobytes() == fresh.tobytes()
        held.append(plan)  # keeps each id unique
        calls.append((width, sel.tobytes(), id(plan)))
        return got

    monkeypatch.setattr(training, "_scatter_slots", checked)
    cfg = TrainConfig(total_epochs=4, layers_to_learn=2, C=4, R=2, beta=3,
                      batch_size=16, lr_init=0.1, tau=2.0, seed=5)
    train(model, splits, cfg)
    for width in (12, 10):  # the scatters of layers 1 and 2
        mine = [(s, p) for w, s, p in calls if w == width]
        sels = {s for s, _ in mine}
        plans = {p for _, p in mine}
        assert len(plans) < len(mine)  # reused
        assert len({(s, p) for s, p in mine}) == len(plans)
        assert len(plans) >= len(sels)
    layer1 = {s for w, s, _ in calls if w == 12}
    assert len(layer1) > 1


def test_frozen_tensors_get_zero_gradients():
    rng = np.random.default_rng(6)
    model = _rand_model(rng)
    # Layer 0's gates and layer 1's interconnect are fixed.
    phase = Phase("p", 1, active_interconnect=0, trainable_gates=(False, True))
    x = rng.integers(0, 2, size=(9, 8)).astype(np.uint8)
    y = rng.integers(0, 2, size=9)
    grads = backward(model, _forward_arrays(model, x), y, phase)
    assert not grads.d_logits[0].any()
    assert not grads.d_conn[1].any()
    assert grads.d_logits[1].any()
    assert grads.d_conn[0].any()


def test_backward_loss_matches_cross_entropy():
    rng = np.random.default_rng(7)
    model = _rand_model(rng)
    x = rng.integers(0, 2, size=(9, 8)).astype(np.uint8)
    y = rng.integers(0, 2, size=9)
    cache = _forward_arrays(model, x)
    grads = backward(model, cache, y)
    assert grads.loss == pytest.approx(cross_entropy(cache.logits, y))


# ------------------------------------------------------------ schedule


def test_cosine_lr_endpoints():
    assert cosine_lr(0, 100, 1e-2, 1e-5) == pytest.approx(1e-2)
    assert cosine_lr(99, 100, 1e-2, 1e-5) == pytest.approx(1e-5)
    mid = cosine_lr(50, 101, 1e-2, 1e-5)
    assert mid == pytest.approx((1e-2 + 1e-5) / 2)
    assert cosine_lr(0, 1, 3e-3, 1e-5) == 3e-3


def test_build_phases_layerwise_split():
    cfg = TrainConfig(
        total_epochs=2000, finetune_epochs=100, layers_to_learn=2
    )
    phases = build_phases(cfg, n_layers=3)
    assert [p.epochs for p in phases] == [1000, 1000, 100]
    assert phases[0].active_interconnect == 0
    assert phases[0].trainable_gates == (True, True, True)
    assert phases[1].active_interconnect == 1
    assert phases[1].trainable_gates == (False, True, True)
    assert phases[2].active_interconnect is None
    assert phases[2].trainable_gates == (True, True, True)


def test_build_phases_fixed_mode_single_phase():
    cfg = TrainConfig(
        total_epochs=60, finetune_epochs=40, interconnect_mode="fixed"
    )
    phases = build_phases(cfg, n_layers=2)
    assert phases == [Phase("finetune", 100, None, (True, True))]


def test_build_phases_too_many_layers():
    cfg = TrainConfig(layers_to_learn=3)
    with pytest.raises(ConfigError):
        build_phases(cfg, n_layers=2)


def test_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(C=0)
    with pytest.raises(ConfigError):
        TrainConfig(C=4, R=5)
    with pytest.raises(ConfigError):
        TrainConfig(beta=0)
    with pytest.raises(ConfigError):
        TrainConfig(lr_init=1e-5, lr_final=1e-2)
    with pytest.raises(ConfigError):
        TrainConfig(tau=0.0)
    with pytest.raises(ConfigError):
        TrainConfig(sampling_mode="best")
    with pytest.raises(ConfigError):
        TrainConfig(interconnect_mode="half")
    assert TrainConfig(C=8).R == 4  # default replacement budget
    assert TrainConfig(C=1).R == 1


# ------------------------------------------------------------ training


def _parity_splits(rng, n=256):
    x = rng.integers(0, 2, size=(n, 6)).astype(np.uint8)
    y = (x[:, 0] ^ x[:, 2]).astype(np.int64)
    return EncodedSplits(x[:192], y[:192], x[192:], y[192:])


def test_train_learns_parity_of_two_bits():
    rng = np.random.default_rng(8)
    splits = _parity_splits(rng)
    model = random_network(
        6, [16, 8], 2, candidates_per_slot=3, seed=1, tau=1.0
    )
    cfg = TrainConfig(
        total_epochs=30, finetune_epochs=5, layers_to_learn=1, C=3, R=1,
        beta=10, tau=1.0, batch_size=32, lr_init=0.05, seed=1,
    )
    model, metrics = train(model, splits, cfg)
    val = [m for m in metrics if m.split == "val"]
    assert val[-1].accuracy >= 0.95
    # metrics schema sanity
    assert {m.split for m in metrics} == {"train", "val"}
    assert all(m.wall_clock_s >= 0 for m in metrics)
    phases = {m.phase for m in metrics}
    assert phases == {"interconnect-0", "finetune"}


def test_train_rejects_empty_training_split():
    model = random_network(6, [4, 2], 2, candidates_per_slot=3, seed=0)
    empty = EncodedSplits(np.zeros((0, 6), np.uint8), np.zeros(0, np.int64))
    with pytest.raises(ConfigError, match="empty"):
        train(model, empty, TrainConfig(total_epochs=1, C=3))


@pytest.mark.parametrize("budget", [float("nan"), -1.0, -np.inf])
def test_train_rejects_budget_that_is_not_a_number_at_least_0(budget):
    model = random_network(6, [4, 2], 2, candidates_per_slot=3, seed=0)
    snap = model.copy()
    splits = _parity_splits(np.random.default_rng(0), n=64)
    with pytest.raises(ConfigError, match="budget_seconds"):
        train(model, splits, TrainConfig(total_epochs=1, C=3), budget)
    for before, after in zip(snap.layers, model.layers):
        assert np.array_equal(before.gate_logits, after.gate_logits)


@pytest.mark.parametrize("sampling_mode", ["random", "gradient_guided"])
def test_train_is_deterministic(sampling_mode):
    rng = np.random.default_rng(9)
    splits = _parity_splits(rng, n=128)
    cfg = TrainConfig(
        total_epochs=4, finetune_epochs=0, C=3, R=1, beta=5,
        batch_size=32, seed=7, tau=4.0, sampling_mode=sampling_mode,
    )
    runs = []
    for _ in range(2):
        model = random_network(
            6, [8, 4], 2, candidates_per_slot=3, seed=3, tau=4.0
        )
        model, metrics = train(model, splits, cfg)
        runs.append((model, [(m.accuracy, m.loss) for m in metrics]))
    assert runs[0][1] == runs[1][1]
    for l1, l2 in zip(runs[0][0].layers, runs[1][0].layers):
        assert np.array_equal(l1.gate_logits, l2.gate_logits)
        assert np.array_equal(l1.candidates, l2.candidates)
        assert np.array_equal(l1.conn_weights, l2.conn_weights)


def test_fixed_mode_never_touches_interconnect():
    rng = np.random.default_rng(10)
    splits = _parity_splits(rng, n=128)
    model = random_network(
        6, [8, 4], 2, candidates_per_slot=3, seed=4, tau=4.0
    )
    cand_before = [layer.candidates.copy() for layer in model.layers]
    w_before = [layer.conn_weights.copy() for layer in model.layers]
    cfg = TrainConfig(
        total_epochs=3, finetune_epochs=0, interconnect_mode="fixed",
        batch_size=32, seed=0, tau=4.0, C=3,
    )
    model, _ = train(model, splits, cfg)
    for layer, cb, wb in zip(model.layers, cand_before, w_before):
        assert np.array_equal(layer.candidates, cb)
        assert np.array_equal(layer.conn_weights, wb)


def test_frozen_gate_layer_is_bitwise_unchanged():
    """Phase freezing: in the layer-1 interconnect phase, layer-0 gates
    must not move at all."""
    rng = np.random.default_rng(11)
    splits = _parity_splits(rng, n=128)
    model = random_network(
        6, [8, 4], 2, candidates_per_slot=3, seed=5, tau=4.0
    )
    cfg = TrainConfig(
        total_epochs=2, finetune_epochs=0, layers_to_learn=2, C=3,
        batch_size=32, seed=0, tau=4.0, beta=1000,
    )
    # Run only the second phase by zeroing the first: 2 epochs over 2
    # layers gives 1 epoch each; capture state after phase 1 via a probe.
    logs = []

    def probe(row):
        logs.append(
            (row.phase, model.layers[0].gate_logits.copy())
        )

    train(model, splits, cfg, progress=probe)
    phase0_end = [s for p, s in logs if p == "interconnect-0"][-1]
    phase1_end = [s for p, s in logs if p == "interconnect-1"][-1]
    assert np.array_equal(phase0_end, phase1_end)


def test_budget_stops_early():
    rng = np.random.default_rng(12)
    splits = _parity_splits(rng, n=128)
    model = random_network(6, [8, 4], 2, candidates_per_slot=3, seed=6)
    cfg = TrainConfig(
        total_epochs=10_000, finetune_epochs=0, batch_size=32, seed=0, C=3
    )
    t0 = __import__("time").monotonic()
    model, metrics = train(model, splits, cfg, budget_seconds=0.5)
    assert __import__("time").monotonic() - t0 < 30
    assert metrics  # at least one epoch ran


def test_zero_epochs_is_a_noop():
    model = random_network(6, [8, 4], 2, candidates_per_slot=3, seed=7)
    snap = [layer.gate_logits.copy() for layer in model.layers]
    cfg = TrainConfig(total_epochs=0, finetune_epochs=0, C=3)
    rng = np.random.default_rng(13)
    model, metrics = train(model, _parity_splits(rng, n=64), cfg)
    assert metrics == []
    for layer, s in zip(model.layers, snap):
        assert np.array_equal(layer.gate_logits, s)


def test_evaluate_arrays_matches_training_forward():
    rng = np.random.default_rng(14)
    model = _rand_model(rng)
    x = rng.integers(0, 2, size=(150, 8)).astype(np.uint8)
    y = rng.integers(0, 2, size=150)
    logits = _forward_arrays(model, x).logits
    acc, loss = evaluate_arrays(model, x, y)
    assert acc == float(np.mean(np.argmax(logits, axis=1) == y))
    assert loss == pytest.approx(cross_entropy(logits, y), rel=0, abs=1e-12)


def test_adam_matches_reference_implementation():
    """One-parameter Adam trace vs the textbook update rule."""
    opt = Adam()
    p = {"w": np.array([1.0, -2.0], dtype=np.float32)}
    g_seq = [np.array([0.1, -0.3]), np.array([-0.2, 0.05])]
    m = np.zeros(2)
    v = np.zeros(2)
    ref = np.array([1.0, -2.0])
    for t, g in enumerate(g_seq, start=1):
        opt.step(p, {"w": g}, lr=0.01)
        m = 0.9 * m + 0.1 * g
        v = 0.999 * v + 0.001 * g * g
        mhat = m / (1 - 0.9**t)
        vhat = v / (1 - 0.999**t)
        ref = ref - 0.01 * mhat / (np.sqrt(vhat) + 1e-8)
        assert np.allclose(p["w"], ref, atol=1e-6)


class _ReferenceAdam(Adam):
    """Adam.step written as whole-array expressions with temporaries."""

    def step(self, params, grads, lr):
        for key, g in grads.items():
            p = params[key]
            if key not in self.m:
                self.m[key] = np.zeros_like(p, dtype=np.float32)
                self.v[key] = np.zeros_like(p, dtype=np.float32)
                self.t[key] = 0
            self.t[key] += 1
            t = self.t[key]
            m, v = self.m[key], self.v[key]
            g = g.astype(np.float32)
            m *= self.beta1
            m += (1 - self.beta1) * g
            v *= self.beta2
            v += (1 - self.beta2) * g * g
            mhat = m / (1 - self.beta1**t)
            vhat = v / (1 - self.beta2**t)
            p -= lr * mhat / (np.sqrt(vhat) + self.eps)


@pytest.mark.parametrize("lr_kind", ["numpy", "python"])
def test_adam_bit_equals_reference_expression(lr_kind):
    """50 steps on gate- and connection-shaped parameters: params, m and v
    equal the reference bit for bit, with lr as cosine_lr's numpy float64
    (a float64 step) and as a Python float (a float32 step)."""
    rng = np.random.default_rng(21)
    G, C, steps = 300, 8, 50
    init = {
        "gates": rng.normal(size=(G, 16)).astype(np.float32),
        "conn": rng.normal(size=(G, 2, C)).astype(np.float32),
    }
    got = {k: v.copy() for k, v in init.items()}
    want = {k: v.copy() for k, v in init.items()}
    opt, ref = Adam(), _ReferenceAdam()
    for step in range(steps):
        scale = np.exp2(rng.integers(-20, 4))
        grads = {
            k: (rng.normal(size=v.shape) * scale).astype(np.float32)
            for k, v in init.items()
        }
        lr = cosine_lr(step, steps, 1e-2, 1e-5)
        if lr_kind == "python":
            lr = float(lr)
        opt.step(got, grads, lr)
        ref.step(want, grads, lr)
    for k in init:
        assert np.array_equal(got[k], want[k])
        assert np.array_equal(opt.m[k], ref.m[k])
        assert np.array_equal(opt.v[k], ref.v[k])


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_softmax_bit_equals_formula(dtype):
    """Rows with ties at the max and rows with large logits included."""
    rng = np.random.default_rng(22)
    z = rng.normal(size=(500, 16)) * 30
    z[::3, 5] = z[::3].max(axis=1)  # two entries tie at the max
    z[::7] = z[::7, :1]  # every entry ties
    z[::5] += 1e30
    z = z.astype(dtype)
    for axis in (1, -1, 0):
        shifted = z - z.max(axis=axis, keepdims=True)
        e = np.exp(shifted)
        want = e / e.sum(axis=axis, keepdims=True)
        got = softmax(z, axis=axis)
        assert got.dtype == dtype
        assert np.array_equal(got, want)


def test_soft_forward_entry_point():
    rng = np.random.default_rng(15)
    model = _rand_model(rng)
    x = rng.random((5, 8))
    cache = forward_soft(model, x)
    assert cache.soft
    assert cache.logits.shape == (5, 2)
    assert np.isfinite(cache.x_layers[-1]).all()
