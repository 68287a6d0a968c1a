import dataclasses
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boolnet import bitmatrix
from boolnet import model as model_mod
from boolnet.bitmatrix import BitMatrix
from boolnet.errors import StructuralError
from boolnet.model import (
    AND,
    CONST0,
    CONST1,
    DEPENDS_A,
    DEPENDS_B,
    NAND,
    NOT_A,
    OR,
    PROJ_A,
    PROJ_B,
    TABLE_BITS,
    XOR,
    HardCircuit,
    HardLayer,
    LayerParams,
    NetworkModel,
    accuracy,
    estimate_interconnect_memory,
    eval_circuit,
    eval_circuit_layers,
    format_bytes,
    group_logits,
    harden,
    random_network,
    sample_distinct,
    score,
)
from boolnet.training import evaluate_arrays


# ---------------------------------------------------------------- tables


def eval_code(code, a, b):
    """Evaluate gate tables elementwise on 0/1 arrays: the minterm
    reference, (code >> (2a + b)) & 1."""
    code = np.asarray(code)
    idx = 2 * np.asarray(a, dtype=np.int64) + np.asarray(b, dtype=np.int64)
    return ((code >> idx) & 1).astype(np.uint8)


def test_named_codes_truth_tables():
    a = np.array([0, 0, 1, 1])
    b = np.array([0, 1, 0, 1])
    assert np.array_equal(eval_code(AND, a, b), a & b)
    assert np.array_equal(eval_code(OR, a, b), a | b)
    assert np.array_equal(eval_code(XOR, a, b), a ^ b)
    assert np.array_equal(eval_code(NAND, a, b), 1 - (a & b))
    assert np.array_equal(eval_code(PROJ_A, a, b), a)
    assert np.array_equal(eval_code(PROJ_B, a, b), b)
    assert np.array_equal(eval_code(NOT_A, a, b), 1 - a)
    assert np.array_equal(eval_code(CONST0, a, b), np.zeros(4, np.uint8))
    assert np.array_equal(eval_code(CONST1, a, b), np.ones(4, np.uint8))


def test_table_bits_matches_eval_code():
    for code in range(16):
        for a in (0, 1):
            for b in (0, 1):
                assert TABLE_BITS[code, 2 * a + b] == eval_code(code, a, b)


def test_dependency_masks():
    # Brute-force: code depends on an input iff flipping it can change
    # the output.
    for code in range(16):
        dep_a = any(
            eval_code(code, 0, b) != eval_code(code, 1, b) for b in (0, 1)
        )
        dep_b = any(
            eval_code(code, a, 0) != eval_code(code, a, 1) for a in (0, 1)
        )
        assert DEPENDS_A[code] == dep_a
        assert DEPENDS_B[code] == dep_b


def test_read_inputs_follow_the_tables():
    """Layer 0's read mask holds an input only where a table depends on
    the slot that holds it; later layers never count."""
    layer0 = HardLayer(
        code=[PROJ_A, PROJ_B, CONST1, AND, NOT_A],
        in0=[0, 1, 2, 3, 5],
        in1=[6, 7, 8, 4, 9],
    )
    layer1 = HardLayer(code=[AND, OR], in0=[0, 1], in1=[2, 3])
    circuit = HardCircuit(10, [layer0, layer1], 2, 1.0)
    read = circuit.read_inputs()
    assert read.dtype == bool and read.shape == (10,)
    assert np.flatnonzero(read).tolist() == [0, 3, 4, 5, 7]


# ------------------------------------------------------------- sampling


@settings(max_examples=40, deadline=None)
@given(
    n_slots=st.integers(1, 30),
    width=st.integers(1, 50),
    seed=st.integers(0, 999),
    data=st.data(),
)
def test_sample_distinct_property(n_slots, width, seed, data):
    k = data.draw(st.integers(0, min(3, width - 1)))
    count = data.draw(st.integers(1, width - k))
    rng = np.random.default_rng(seed)
    kept = np.argsort(rng.random((n_slots, width)), axis=1)[:, :k]
    out = sample_distinct(rng, n_slots, width, count, kept=kept)
    assert out.shape == (n_slots, count)
    assert out.min() >= 0 and out.max() < width
    for row, excl in zip(out, kept):
        assert len(set(row.tolist())) == count
        assert not set(row.tolist()) & set(excl.tolist())


def test_sample_distinct_kept_covers_both_regimes():
    # (count + k)**2 = 25 against widths 20 (random keys) and 400
    # (rejection): both leave every row's kept ids out.
    for width in (20, 400):
        rng = np.random.default_rng(width)
        kept = np.argsort(rng.random((200, width)), axis=1)[:, :3]
        out = sample_distinct(rng, 200, width, 2, kept=kept)
        assert not (out[:, :, None] == kept[:, None, :]).any()
        assert (np.sort(out, axis=1)[:, 1] > np.sort(out, axis=1)[:, 0]).all()


def test_sample_distinct_overflows():
    with pytest.raises(StructuralError):
        sample_distinct(np.random.default_rng(0), 2, 3, 4)


def test_random_network_init():
    model = random_network(12, [8, 6], 2, candidates_per_slot=4, seed=7)
    model.validate()
    assert model.layer_widths == [8, 6]
    for layer in model.layers:
        # Connection scores start neutral; candidate choice is the tie-break.
        assert not layer.conn_weights.any()
        assert layer.gate_logits.std() > 0
    # Same seed, same model.
    again = random_network(12, [8, 6], 2, candidates_per_slot=4, seed=7)
    for l1, l2 in zip(model.layers, again.layers):
        assert np.array_equal(l1.candidates, l2.candidates)
        assert np.array_equal(l1.gate_logits, l2.gate_logits)


# SHA-256 of each layer's candidates, as little-endian int32, for two fixed
# inits: the desk shape, whose draws reject repeats, and a small net whose
# every layer draws by random keys. Only integer draws are pinned: the gate
# logits come from rng.normal, whose tail calls libm.
GOLDEN_INIT = {
    (2352, (1000, 1000, 1000), 10, 0): (
        "24868a3369fb8ec1f2889ea2fb1925a21aebbb0f01bd8e4f0ba9ca42c97eccda",
        "f4e6b7ab31f9be7d9915793417d865196bc2da2a6a4c93e8f6ffa6a2e5832388",
        "096388084d53ee05f8e6d60e23d9519d7423834a5f1b5805d5bde8da88b8eb79",
    ),
    (12, (64, 64, 30), 2, 2): (
        "0358ca43869e337fd201dccf83102f493e1831e902e8223a005fbbe49d607662",
        "4bdad37de1b0646b77de2b8f9cb5c37096ab443c5d2977e43746bf2210f8e481",
        "7c46b514df762e0984f8e90f09db25cccd0c2bb2de72ae7748d107e5755113d5",
    ),
}


@pytest.mark.parametrize("shape", sorted(GOLDEN_INIT))
def test_random_network_candidates_golden(shape):
    input_width, widths, classes, seed = shape
    model = random_network(input_width, list(widths), classes, 8, seed=seed)
    got = tuple(
        hashlib.sha256(
            np.ascontiguousarray(lay.candidates, dtype="<i4").tobytes()
        ).hexdigest()
        for lay in model.layers
    )
    assert got == GOLDEN_INIT[shape]


# ------------------------------------------------------------ hardening


def test_selected_slots_hand_trace():
    # Weights [0.1, 0.8, 0.5, 0.2] over candidates [1, 3, 4, 6]: the 0.8
    # score wins, so the slot reads signal 3.
    layer = LayerParams(
        gate_logits=np.zeros((1, 16)),
        candidates=np.array([[[1, 3, 4, 6], [0, 2, 5, 7]]]),
        conn_weights=np.array(
            [[[0.1, 0.8, 0.5, 0.2], [0.0, 0.0, 0.0, 0.0]]]
        ),
    )
    sel = layer.selected_slots()
    assert sel[0, 0] == 3
    assert sel[0, 1] == 0  # all-equal scores: lowest index wins


def test_harden_argmax_ties_take_first():
    logits = np.zeros((1, 16), dtype=np.float32)
    logits[0, [XOR, OR]] = 2.0  # tie between codes 6 and 14
    layer = LayerParams(
        gate_logits=logits,
        candidates=np.array([[[0, 1], [1, 0]]]),
        conn_weights=np.zeros((1, 2, 2)),
    )
    model = NetworkModel(2, [layer], 1, tau=1.0)
    hard = harden(model)
    assert hard.layers[0].code[0] == XOR
    assert hard.layers[0].in0[0] == 0 and hard.layers[0].in1[0] == 1


def _naive_eval(circuit: HardCircuit, x: np.ndarray) -> list[np.ndarray]:
    """Per-sample, per-gate reference interpreter."""
    outs = []
    for lay in circuit.layers:
        nxt = np.zeros((x.shape[0], lay.n_gates), dtype=np.uint8)
        for s in range(x.shape[0]):
            for g in range(lay.n_gates):
                a = int(x[s, lay.in0[g]])
                b = int(x[s, lay.in1[g]])
                nxt[s, g] = (int(lay.code[g]) >> (2 * a + b)) & 1
        outs.append(nxt)
        x = nxt
    return outs


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000), batch=st.integers(1, 70))
def test_circuit_eval_matches_naive_interpreter(seed, batch):
    rng = np.random.default_rng(seed)
    model = random_network(
        7, [9, 5, 4], 2, candidates_per_slot=3, seed=rng, tau=2.0
    )
    for layer in model.layers:
        layer.gate_logits = rng.normal(size=layer.gate_logits.shape).astype(
            np.float32
        )
        layer.conn_weights = rng.normal(size=layer.conn_weights.shape).astype(
            np.float32
        )
    circuit = harden(model)
    x = rng.integers(0, 2, size=(batch, 7)).astype(np.uint8)
    got = eval_circuit_layers(circuit, BitMatrix.from_array(x))
    want = _naive_eval(circuit, x)
    for words, ref in zip(got, want):
        bm = BitMatrix(words, batch)
        assert np.array_equal(bm.to_array(), ref)


def _minterm_words(layer: HardLayer, words, valid) -> np.ndarray:
    """The layer's words as the OR of its table's four minterms."""
    a, b = words[layer.in0], words[layer.in1]
    bits = [
        np.where((layer.code >> j) & 1, ~np.uint64(0), np.uint64(0))[:, None]
        for j in range(4)
    ]
    out = (bits[0] & ~a & ~b) | (bits[1] & ~a & b) | (bits[2] & a & ~b) | (
        bits[3] & a & b
    )
    return out & valid


@pytest.mark.parametrize(
    "n_samples, n_gates, block_gates",
    [
        (1, 16, None),  # one word
        (63, 35, 4),  # blocks of 4 gates, a partial last block
        (64, 16 * 7 + 3, 16),
        (1000, 50, 7),  # many words
        (4161, 700, None),  # blocks of the default size, a partial last one
    ],
)
def test_word_kernel_equals_minterm_formula(
    monkeypatch, n_samples, n_gates, block_gates
):
    """Every code, on random words whose padding bits are zero; the
    kernel's own padding bits stay zero."""
    rng = np.random.default_rng(n_samples + n_gates)
    n_words = -(-n_samples // 64)
    if block_gates is not None:
        block_bytes = 32 * n_words * block_gates
        monkeypatch.setattr(bitmatrix, "WORK_BYTES", block_bytes)
    step = max(1, bitmatrix.WORK_BYTES // (32 * n_words))
    assert n_gates % step and (n_gates > step or block_gates is None)
    valid = model_mod._valid_words_mask(n_samples)
    words = rng.integers(0, 1 << 64, size=(40, n_words), dtype=np.uint64)
    words &= valid
    layer = HardLayer(
        code=np.arange(n_gates) % 16,
        in0=rng.integers(0, 40, size=n_gates),
        in1=rng.integers(0, 40, size=n_gates),
    )
    got = model_mod._eval_layer_words(layer, words, valid)
    assert got.shape == (n_gates, n_words) and got.dtype == np.uint64
    assert np.array_equal(got, _minterm_words(layer, words, valid))
    assert not (got & ~valid).any()


def test_eval_batch_split_invariance():
    rng = np.random.default_rng(3)
    model = random_network(6, [8, 4], 2, candidates_per_slot=3, seed=rng)
    circuit = harden(model)
    x = rng.integers(0, 2, size=(100, 6)).astype(np.uint8)
    whole = eval_circuit(circuit, BitMatrix.from_array(x)).to_array()
    parts = [
        eval_circuit(circuit, BitMatrix.from_array(x[i : i + 33])).to_array()
        for i in range(0, 100, 33)
    ]
    assert np.array_equal(whole, np.concatenate(parts, axis=0))


def test_eval_wrong_width_raises():
    model = random_network(6, [4], 2, candidates_per_slot=2, seed=0)
    with pytest.raises(StructuralError):
        eval_circuit(harden(model), BitMatrix.from_array(np.zeros((2, 5))))


# ------------------------------------------------------------- group sum


def test_group_logits_hand_example():
    # Two classes, three gates each: sums (3, 5) over tau=30.
    acts = BitMatrix.from_array([[1, 1, 1, 1, 1, 1, 1, 1, 0, 0]])
    logits = group_logits(acts.words, 1, 2, tau=30.0)
    assert logits.shape == (1, 2)
    assert logits[0, 0] == pytest.approx(5 / 30)
    assert logits[0, 1] == pytest.approx(3 / 30)


def _group_logits_oracle(words, n_samples, num_classes, tau):
    """GroupSum by unpacking every word and summing the bytes in int64."""
    bits = np.unpackbits(words.view(np.uint8), axis=1, bitorder="little")
    sums = (
        bits[:, :n_samples]
        .reshape(num_classes, -1, n_samples)
        .sum(axis=1, dtype=np.int64)
    )
    return sums.T / float(tau)


@pytest.mark.parametrize("group", [1, 100, 1200])
@pytest.mark.parametrize("n", [1, 63, 64, 65, 1000])
def test_group_logits_equal_int64_oracle(n, group):
    rng = np.random.default_rng(n + group)
    classes = 10
    bits = rng.integers(0, 2, size=(n, classes * group), dtype=np.uint8)
    bits[-1] = 1  # every group sum of the last sample is the group size
    words = BitMatrix.from_array(bits).words
    for tau in (1.0, 30.0, 0.3):
        got = group_logits(words, n, classes, tau)
        assert got.dtype == np.float64
        assert np.array_equal(got, _group_logits_oracle(words, n, classes, tau))
    full = group_logits(words, n, classes, 1.0)
    assert np.array_equal(full, bits.reshape(n, classes, group).sum(axis=2))


@pytest.mark.parametrize("group", [1, 2, 3, 7, 15, 16, 17, 31, 33, 64, 65])
@pytest.mark.parametrize("n", [0, 1, 63, 64, 65])
def test_adder_tree_equals_unpacked_sums(n, group):
    """Group sizes 1, odd and 2^k +- 1, every sample count around a word
    edge, and densities 0, 1 and in between."""
    classes = 3
    for density in (0.0, 1.0, 0.5):
        rng = np.random.default_rng(group * 100 + n)
        bits = (rng.random((n, classes * group)) < density).astype(np.uint8)
        words = BitMatrix.from_array(bits).words
        got = group_logits(words, n, classes, 0.5)
        want = bits.reshape(n, classes, group).sum(axis=2, dtype=np.int64)
        assert got.shape == (n, classes) and got.dtype == np.float64
        assert np.array_equal(got, want / 0.5)
        if n:
            assert np.array_equal(
                got, _group_logits_oracle(words, n, classes, 0.5)
            )


def test_group_logits_rejects_ragged_width():
    with pytest.raises(StructuralError):
        group_logits(np.zeros((10, 1), dtype=np.uint64), 1, 3, tau=1.0)


def _two_class_projections() -> HardCircuit:
    lay = HardLayer(
        code=[PROJ_A, PROJ_A, PROJ_B, PROJ_B],
        in0=[0, 0, 0, 0],
        in1=[1, 1, 1, 1],
    )
    return HardCircuit(2, [lay], 2, tau=1.0)


def test_predict_and_accuracy():
    circuit = _two_class_projections()
    x = BitMatrix.from_array([[1, 0], [0, 1], [1, 1]])
    final = eval_circuit(circuit, x).words
    logits, pred, acc = score(circuit, final, 3, [0, 1, 1])
    assert np.array_equal(logits, [[2, 0], [0, 2], [2, 2]])
    assert np.array_equal(pred, [0, 1, 0])  # argmax ties -> class 0
    assert acc == pytest.approx(2 / 3)
    assert accuracy(circuit, x, [0, 1, 1]) == acc
    unlabelled = score(circuit, final, 3)
    assert np.array_equal(unlabelled[1], pred) and unlabelled[2] is None


@pytest.mark.parametrize("labels", [[0], [0, 1], [0, 1, 1, 0], [[0, 1, 1]]])
def test_label_count_must_match_sample_count(labels):
    # Broadcasting once scored one label against three samples.
    circuit = _two_class_projections()
    x = np.array([[1, 0], [0, 1], [1, 1]], dtype=np.uint8)
    with pytest.raises(StructuralError, match="for 3 samples"):
        accuracy(circuit, BitMatrix.from_array(x), labels)
    model = random_network(2, [4], 2, candidates_per_slot=2, seed=0)
    with pytest.raises(StructuralError, match="for 3 samples"):
        evaluate_arrays(model, x, np.array(labels))


# ---------------------------------------------------------------- memory


def test_memory_formula_values():
    est = estimate_interconnect_memory(12000, 30720, k=2, C=8)
    assert est.bytes_full == 2 * 12000 * 30720 * 4
    assert est.bytes_sparse == 2 * 12000 * 8 * 8
    assert format_bytes(est.bytes_full) == "2.949 GB"
    assert format_bytes(est.bytes_sparse) == "1.536 MB"


@settings(max_examples=50, deadline=None)
@given(
    G=st.integers(1, 10**5),
    I=st.integers(1, 10**6),
    C=st.integers(1, 64),
    k=st.integers(1, 4),
)
def test_memory_ratio_property(G, I, C, k):
    est = estimate_interconnect_memory(G, I, k=k, C=C)
    # Candidate form replaces I scores with C (score, index) pairs.
    assert est.ratio == pytest.approx(2 * C / I)


def test_layer_params_bytes_do_not_depend_on_input_width():
    """The paper's scaling claim, exact on the stored type: a layer's
    parameters are its gate logits plus C (index, score) pairs per slot,
    whatever the fan-in width I."""
    G, C = 8, 4
    for I in (64, 4096, 262144):
        (layer,) = random_network(I, [G], 2, C, seed=0).layers
        nbytes = sum(
            getattr(layer, f.name).nbytes for f in dataclasses.fields(layer)
        )
        candidate_part = layer.candidates.nbytes + layer.conn_weights.nbytes
        assert nbytes == 16 * 4 * G + 2 * (2 * G * C * 4)
        assert estimate_interconnect_memory(G, I, C=C).bytes_sparse == (
            candidate_part
        )


def test_memory_rejects_nonpositive():
    with pytest.raises(StructuralError):
        estimate_interconnect_memory(0, 10)


def test_format_bytes_units():
    assert format_bytes(999) == "999 B"
    assert format_bytes(1000) == "1.000 kB"
    assert format_bytes(5_898_240_000) == "5.898 GB"


# ------------------------------------------------------------ validation


def test_validate_catches_bad_shapes_and_ranges():
    with pytest.raises(StructuralError):
        LayerParams(
            gate_logits=np.zeros((2, 15)),
            candidates=np.zeros((2, 2, 3), dtype=np.int32),
            conn_weights=np.zeros((2, 2, 3)),
        )
    layer = LayerParams(
        gate_logits=np.zeros((1, 16)),
        candidates=np.array([[[0, 9], [0, 1]]]),
        conn_weights=np.zeros((1, 2, 2)),
    )
    with pytest.raises(StructuralError):
        layer.validate(fan_in_width=4)  # candidate 9 out of range
    dup = LayerParams(
        gate_logits=np.zeros((1, 16)),
        candidates=np.array([[[2, 2], [0, 1]]]),
        conn_weights=np.zeros((1, 2, 2)),
    )
    with pytest.raises(StructuralError):
        dup.validate(fan_in_width=4)


@pytest.mark.parametrize("tau", [float("nan"), float("inf"), 0.0, -1.0])
def test_validate_requires_positive_finite_tau(tau):
    model = random_network(4, [4], 2, candidates_per_slot=2, seed=0)
    circuit = harden(model)
    model.tau = circuit.tau = tau
    with pytest.raises(StructuralError, match="tau"):
        model.validate()
    with pytest.raises(StructuralError, match="tau"):
        circuit.validate()


def test_model_validate_group_divisibility():
    # 5 output gates cannot split into 2 class groups.
    with pytest.raises(StructuralError):
        random_network(4, [5], 2, candidates_per_slot=2, seed=0)
