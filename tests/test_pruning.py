import numpy as np
import pytest

from boolnet.bitmatrix import BitMatrix
from boolnet.errors import ConfigError, OversizedConeError, StructuralError
from boolnet.model import (
    AND,
    CONST0,
    CONST1,
    NAND,
    NOT_A,
    OR,
    PROJ_A,
    PROJ_B,
    XOR,
    HardCircuit,
    HardLayer,
    eval_circuit,
)
from boolnet.pruning import (
    ConeFunction,
    all_cones,
    compose_cones,
    cone_of,
    greedy_prune,
    logic_equivalence_prune,
    phi_from_counts,
    profile_activations,
    similarity_prune,
    trivial_prune,
)


def _all_inputs(width: int) -> BitMatrix:
    rows = (np.arange(1 << width)[:, None] >> np.arange(width)) & 1
    return BitMatrix.from_array(rows)


def _outputs_equal(c1: HardCircuit, c2: HardCircuit) -> bool:
    x = _all_inputs(c1.input_width)
    return eval_circuit(c1, x) == eval_circuit(c2, x)


def _random_circuit(rng, width_in, widths) -> HardCircuit:
    layers = []
    fan_in = width_in
    for w in widths:
        layers.append(
            HardLayer(
                code=rng.integers(0, 16, size=w),
                in0=rng.integers(0, fan_in, size=w),
                in1=rng.integers(0, fan_in, size=w),
            )
        )
        fan_in = w
    return HardCircuit(width_in, layers, num_classes=2, tau=1.0)


# ------------------------------------------------------------------ cones


def test_cone_primitives():
    c0 = ConeFunction.constant(0)
    assert c0.is_constant and c0.constant_value == 0
    x3 = ConeFunction.input_var(3)
    assert x3.support == (3,)
    assert x3.evaluate({3: 0}) == 0 and x3.evaluate({3: 1}) == 1
    with pytest.raises(StructuralError):
        ConeFunction((1, 2), bytes([0, 1]))  # wrong table length
    with pytest.raises(StructuralError):
        ConeFunction.constant(0).constant_value  # fine
        ConeFunction.input_var(0).constant_value  # not constant


def test_xor_of_same_input_is_constant_zero():
    x = ConeFunction.input_var(3)
    cone = compose_cones(XOR, x, x)
    assert cone.support == ()
    assert cone.constant_value == 0


def test_absorption_reduces_support():
    # x1 AND (x1 OR x2) == x1: support must shrink to (1,).
    x1 = ConeFunction.input_var(1)
    x2 = ConeFunction.input_var(2)
    inner = compose_cones(OR, x1, x2)
    assert inner.support == (1, 2)
    outer = compose_cones(AND, x1, inner)
    assert outer.support == (1,)
    assert outer.table == bytes([0, 1])


def test_compose_matches_truth_table():
    a = ConeFunction.input_var(0)
    b = ConeFunction.input_var(2)
    cone = compose_cones(NAND, a, b)
    for va in (0, 1):
        for vb in (0, 1):
            assert cone.evaluate({0: va, 2: vb}) == 1 - (va & vb)


def test_cone_of_matches_exhaustive_eval():
    rng = np.random.default_rng(0)
    circuit = _random_circuit(rng, 5, [7, 6, 4])
    x = _all_inputs(5).to_array()
    acts = x
    cones = all_cones(circuit)
    for li, layer in enumerate(circuit.layers):
        nxt = np.zeros((32, layer.n_gates), dtype=np.uint8)
        for g in range(layer.n_gates):
            a = acts[:, layer.in0[g]]
            b = acts[:, layer.in1[g]]
            nxt[:, g] = (int(layer.code[g]) >> (2 * a + b)) & 1
            cone = cones[li][g]
            assert cone == cone_of(circuit, li, g)
            for s in range(32):
                assign = {i: int(x[s, i]) for i in range(5)}
                assert cone.evaluate(assign) == nxt[s, g]
        acts = nxt


def test_support_never_exceeds_reachable_inputs():
    # Depth-d cones reach at most 2^d inputs.
    rng = np.random.default_rng(1)
    circuit = _random_circuit(rng, 16, [12, 10, 8])
    for li, layer_cones in enumerate(all_cones(circuit)):
        for cone in layer_cones:
            assert len(cone.support) <= 2 ** (li + 1)


def test_oversized_cone_error_carries_location():
    rng = np.random.default_rng(2)
    # Wide fan-in, limit 4: some depth-3 gate should exceed it.
    circuit = _random_circuit(rng, 40, [32, 32, 16])
    with pytest.raises(OversizedConeError) as exc_info:
        all_cones(circuit, limit=4)
    err = exc_info.value
    assert err.limit == 4
    assert err.support_size > 4
    assert 0 <= err.layer < 3
    assert err.gate >= 0


def test_cone_of_bad_location():
    circuit = _random_circuit(np.random.default_rng(3), 4, [4])
    with pytest.raises(StructuralError):
        cone_of(circuit, 1, 0)
    with pytest.raises(StructuralError):
        cone_of(circuit, 0, 99)


# --------------------------------------------------------------- trivial


def test_trivial_prune_removes_unread_gate():
    # Layer 0: gates A, B; final layer reads only gate 0 (twice).
    l0 = HardLayer(code=[AND, OR], in0=[0, 0], in1=[1, 1])
    l1 = HardLayer(code=[PROJ_A, NOT_A], in0=[0, 0], in1=[0, 0])
    circuit = HardCircuit(2, [l0, l1], 2, tau=1.0)
    pruned, report = trivial_prune(circuit)
    assert pruned.layer_widths == [1, 2]
    assert report.removed == 1
    assert report.reroute[(0, 1)] == ("dropped", None)
    assert _outputs_equal(circuit, pruned)


def test_trivial_prune_dependency_aware():
    # The reader is PROJ_A: its slot-1 edge to gate 1 is not a real read.
    l0 = HardLayer(code=[XOR, XOR], in0=[0, 1], in1=[1, 0])
    l1 = HardLayer(code=[PROJ_A, PROJ_A], in0=[0, 0], in1=[1, 1])
    circuit = HardCircuit(2, [l0, l1], 2, tau=1.0)
    pruned, _ = trivial_prune(circuit)
    assert pruned.layer_widths == [1, 2]
    assert _outputs_equal(circuit, pruned)


def test_trivial_prune_cascades():
    # g2 reads g1 reads g0; final reads only g2's sibling chain head.
    l0 = HardLayer(code=[PROJ_A, PROJ_B], in0=[0, 1], in1=[1, 1])
    l1 = HardLayer(code=[PROJ_A, NOT_A], in0=[0, 1], in1=[0, 1])
    l2 = HardLayer(code=[PROJ_A, PROJ_A], in0=[0, 0], in1=[0, 0])
    circuit = HardCircuit(2, [l0, l1, l2], 2, tau=1.0)
    pruned, _ = trivial_prune(circuit)
    # l2 reads only l1[0]=PROJ_A(l0[0]); l1[1] dies, then l0[1] dies.
    assert pruned.layer_widths == [1, 1, 2]
    assert _outputs_equal(circuit, pruned)


def test_trivial_prune_keeps_placeholder_in_empty_layer():
    # Final layer is all constants: nothing upstream is read.
    l0 = HardLayer(code=[AND, OR], in0=[0, 0], in1=[1, 1])
    l1 = HardLayer(code=[CONST0, CONST1], in0=[0, 1], in1=[0, 1])
    circuit = HardCircuit(2, [l0, l1], 2, tau=1.0)
    pruned, _ = trivial_prune(circuit)
    assert pruned.layer_widths == [1, 2]  # placeholder gate kept
    assert _outputs_equal(circuit, pruned)


def test_trivial_prune_single_layer_untouched():
    l0 = HardLayer(code=[AND, CONST0], in0=[0, 0], in1=[1, 1])
    circuit = HardCircuit(2, [l0], 2, tau=1.0)
    pruned, report = trivial_prune(circuit)
    assert pruned.layer_widths == [2]
    assert report.removed == 0


@pytest.mark.parametrize("seed", range(8))
def test_trivial_prune_preserves_outputs_and_is_idempotent(seed):
    rng = np.random.default_rng(seed)
    circuit = _random_circuit(rng, 6, [10, 8, 6])
    pruned, _ = trivial_prune(circuit)
    assert _outputs_equal(circuit, pruned)
    again, report2 = trivial_prune(pruned)
    assert report2.removed == 0
    assert again.layer_widths == pruned.layer_widths


# ----------------------------------------------------- logic equivalence


def test_equivalence_merges_swapped_and_gates():
    # AND(a,b) and AND(b,a) compute the same function.
    l0 = HardLayer(code=[AND, AND], in0=[0, 1], in1=[1, 0])
    l1 = HardLayer(code=[PROJ_A, PROJ_B], in0=[0, 1], in1=[1, 0])
    circuit = HardCircuit(2, [l0, l1], 2, tau=1.0)
    pruned, report = logic_equivalence_prune(circuit)
    assert pruned.layer_widths == [1, 2]
    assert report.reroute[(0, 1)] == ("gate", 0, 0)
    assert _outputs_equal(circuit, pruned)


def test_equivalence_propagates_constant_cones():
    # XOR(x0, x0) is constant 0; its reader's cone is then constant too,
    # so the constant becomes a final-layer literal and the source dies.
    l0 = HardLayer(code=[XOR, OR], in0=[0, 0], in1=[0, 1])
    l1 = HardLayer(code=[PROJ_A, PROJ_B], in0=[0, 0], in1=[1, 1])
    circuit = HardCircuit(2, [l0, l1], 2, tau=1.0)
    pruned, report = logic_equivalence_prune(circuit)
    assert _outputs_equal(circuit, pruned)
    assert pruned.layer_widths == [1, 2]
    assert pruned.layers[-1].code[0] == CONST0
    assert report.reroute[(0, 0)] == ("dropped", None)


def test_equivalence_rewrites_final_layer_constants_in_place():
    l0 = HardLayer(code=[AND, OR], in0=[0, 0], in1=[1, 1])
    l1 = HardLayer(code=[XOR, PROJ_A], in0=[0, 0], in1=[0, 0])  # XOR(g,g)=0
    circuit = HardCircuit(2, [l0, l1], 2, tau=1.0)
    pruned, _ = logic_equivalence_prune(circuit)
    assert pruned.layers[-1].n_gates == 2  # final layer never shrinks
    assert pruned.layers[-1].code[0] == CONST0
    assert _outputs_equal(circuit, pruned)


def test_equivalence_respects_support_in_buckets():
    # sum(support) collides for {0,3} and {1,2}; functions differ.
    l0 = HardLayer(code=[AND, AND], in0=[0, 1], in1=[3, 2])
    l1 = HardLayer(code=[PROJ_A, PROJ_B], in0=[0, 0], in1=[1, 1])
    circuit = HardCircuit(4, [l0, l1], 2, tau=1.0)
    pruned, _ = logic_equivalence_prune(circuit)
    assert pruned.layer_widths == [2, 2]
    assert _outputs_equal(circuit, pruned)


@pytest.mark.parametrize("seed", range(10))
def test_equivalence_soundness_random_circuits(seed):
    rng = np.random.default_rng(100 + seed)
    width_in = int(rng.integers(3, 9))
    widths = [int(rng.integers(4, 13)) for _ in range(int(rng.integers(1, 4)))]
    widths[-1] += widths[-1] % 2
    circuit = _random_circuit(rng, width_in, widths)
    pruned, _ = logic_equivalence_prune(circuit)
    assert _outputs_equal(circuit, pruned)
    again, report2 = logic_equivalence_prune(pruned)
    assert report2.removed == 0


# ---------------------------------------------------------------- profile


def test_profile_matches_dense_counts():
    rng = np.random.default_rng(4)
    circuit = _random_circuit(rng, 6, [9, 4])
    data = BitMatrix.from_array(rng.integers(0, 2, size=(100, 6)))
    profile = profile_activations(circuit, data)
    assert profile.sample_count == 100
    from boolnet.model import eval_circuit_layers

    acts = eval_circuit_layers(circuit, data)
    for li, words in enumerate(acts):
        dense = BitMatrix.from_signal_words(words, 100).to_array()
        assert np.array_equal(profile.ones[li], dense.sum(axis=0))
        for g in range(dense.shape[1]):
            assert profile.frequency(li, g) == dense[:, g].mean()


# ----------------------------------------------------------------- greedy


def _passthrough_circuit(width):
    l0 = HardLayer(
        code=[PROJ_A] * width,
        in0=list(range(width)),
        in1=[0] * width,
    )
    l1 = HardLayer(
        code=[PROJ_A] * width,
        in0=list(range(width)),
        in1=[0] * width,
    )
    return HardCircuit(width, [l0, l1], num_classes=2, tau=1.0)


def test_greedy_rewrites_near_constant_gates():
    circuit = _passthrough_circuit(2)
    # Column 0 is 1 in 9/10 samples; column 1 is balanced.
    data = np.zeros((10, 2), dtype=np.uint8)
    data[:9, 0] = 1
    data[::2, 1] = 1
    profile = profile_activations(circuit, BitMatrix.from_array(data))
    pruned, report = greedy_prune(circuit, profile, threshold=0.9)
    assert report.reroute[(0, 0)] == ("const", 1)
    assert report.reroute[(1, 0)] == ("const", 1)
    # Both copies of the 90% column went constant; the layer-0 one is then
    # unread and reclaimed, while the final layer keeps its width.
    assert pruned.layer_widths == [1, 2]
    assert pruned.layers[1].code[0] == CONST1

    strict, report2 = greedy_prune(circuit, profile, threshold=0.95)
    assert (0, 0) not in report2.reroute


def test_greedy_threshold_validation():
    circuit = _passthrough_circuit(2)
    data = BitMatrix.from_array(np.zeros((4, 2), dtype=np.uint8))
    profile = profile_activations(circuit, data)
    for bad in (0.5, 0.0, 1.2, -1.0):
        with pytest.raises(ConfigError):
            greedy_prune(circuit, profile, threshold=bad)
    with pytest.raises(StructuralError):
        greedy_prune(_passthrough_circuit(3), profile, threshold=0.9)


def test_greedy_at_one_is_lossless_on_profiling_set():
    rng = np.random.default_rng(5)
    circuit = _random_circuit(rng, 6, [10, 8, 4])
    data = BitMatrix.from_array(rng.integers(0, 2, size=(64, 6)))
    profile = profile_activations(circuit, data)
    pruned, _ = greedy_prune(circuit, profile, threshold=1.0)
    assert eval_circuit(circuit, data) == eval_circuit(pruned, data)


# ------------------------------------------------------------- similarity


def test_phi_hand_values():
    # [1,1,0,0] vs [1,1,1,0]: phi = 1/sqrt(3).
    assert phi_from_counts(4, 2, 3, 2) == pytest.approx(1 / np.sqrt(3))
    # Identical vectors: phi = 1 exactly.
    assert phi_from_counts(4, 2, 2, 2) == 1.0
    # Complementary vectors: phi = -1.
    assert phi_from_counts(4, 2, 2, 0) == -1.0
    # Independent split: phi = 0.
    assert phi_from_counts(4, 2, 2, 1) == 0.0
    # Zero-variance column: undefined.
    assert np.isnan(phi_from_counts(4, 0, 2, 0))
    assert np.isnan(phi_from_counts(4, 4, 2, 2))


def test_phi_matches_rank_correlation_on_binary_data():
    scipy_stats = pytest.importorskip("scipy.stats")
    rng = np.random.default_rng(6)
    for _ in range(200):
        u = rng.integers(0, 2, size=256)
        v = rng.integers(0, 2, size=256)
        if u.min() == u.max() or v.min() == v.max():
            continue
        want = scipy_stats.spearmanr(u, v).statistic
        got = phi_from_counts(256, u.sum(), v.sum(), int((u & v).sum()))
        assert abs(got - want) < 1e-12


def test_similarity_merges_identical_gates():
    # Gates 0 and 1 both compute x0; gate 2 computes x1.
    l0 = HardLayer(code=[PROJ_A, PROJ_B, PROJ_A], in0=[0, 1, 1], in1=[1, 0, 0])
    l1 = HardLayer(code=[PROJ_A, PROJ_B], in0=[0, 1], in1=[1, 2])
    circuit = HardCircuit(2, [l0, l1], 2, tau=1.0)
    data = _all_inputs(2)
    profile = profile_activations(circuit, data)
    pruned, report = similarity_prune(circuit, profile, c=1.0)
    assert pruned.layer_widths == [2, 2]
    assert report.reroute[(0, 1)] == ("gate", 0, 0)
    # c=1.0 merges only duplicates: profiling outputs unchanged.
    assert eval_circuit(circuit, data) == eval_circuit(pruned, data)


def test_similarity_skips_anticorrelated_and_constant_gates():
    l0 = HardLayer(
        code=[PROJ_A, NOT_A, CONST1, CONST1], in0=[0, 0, 0, 0], in1=[0] * 4
    )
    l1 = HardLayer(code=[PROJ_A, PROJ_B], in0=[0, 2], in1=[1, 3])
    circuit = HardCircuit(1, [l0, l1], 2, tau=1.0)
    profile = profile_activations(circuit, _all_inputs(1))
    pruned, report = similarity_prune(circuit, profile, c=0.5)
    # NOT pair is rho=-1; the constant pair has undefined rho. No merges.
    assert not any(kind == "gate" for kind, *_ in report.reroute.values())


def test_similarity_greedy_matching_one_merge_per_gate():
    # Three copies of x0: only the (0,1) pair merges in one pass.
    l0 = HardLayer(code=[PROJ_A] * 3, in0=[0, 0, 0], in1=[0, 0, 0])
    l1 = HardLayer(code=[PROJ_A, PROJ_B], in0=[0, 1], in1=[2, 2])
    circuit = HardCircuit(1, [l0, l1], 2, tau=1.0)
    profile = profile_activations(circuit, _all_inputs(1))
    pruned, report = similarity_prune(circuit, profile, c=1.0)
    assert report.reroute[(0, 1)] == ("gate", 0, 0)
    assert pruned.layer_widths == [2, 2]


def test_similarity_leaves_final_layer_alone():
    l0 = HardLayer(code=[PROJ_A, PROJ_A], in0=[0, 0], in1=[0, 0])
    circuit = HardCircuit(1, [l0], 2, tau=1.0)
    profile = profile_activations(circuit, _all_inputs(1))
    pruned, _ = similarity_prune(circuit, profile, c=1.0)
    assert pruned.layer_widths == [2]


def test_similarity_threshold_validation():
    circuit = _passthrough_circuit(2)
    profile = profile_activations(
        circuit, BitMatrix.from_array(np.eye(2, dtype=np.uint8))
    )
    for bad in (0.0, -0.5, 1.0001):
        with pytest.raises(ConfigError):
            similarity_prune(circuit, profile, c=bad)


def test_similarity_sweep_is_monotone_on_random_circuit():
    rng = np.random.default_rng(7)
    circuit = _random_circuit(rng, 8, [24, 16, 8])
    data = BitMatrix.from_array(rng.integers(0, 2, size=(200, 8)))
    profile = profile_activations(circuit, data)
    counts = []
    for c in (1.0, 0.95, 0.9, 0.8):
        pruned, _ = similarity_prune(circuit, profile, c=c)
        counts.append(pruned.n_gates)
    assert all(a >= b for a, b in zip(counts, counts[1:]))


# ------------------------------------------------------------- reporting


def test_prune_report_accounting():
    l0 = HardLayer(code=[AND, OR, XOR], in0=[0, 0, 0], in1=[1, 1, 1])
    l1 = HardLayer(code=[PROJ_A, PROJ_A], in0=[0, 0], in1=[0, 0])
    circuit = HardCircuit(2, [l0, l1], 2, tau=1.0)
    pruned, report = trivial_prune(circuit)
    assert report.gates_before == [3, 2]
    assert report.gates_after == [1, 2]
    assert report.removed == 2
    rows = report.csv_rows()
    assert [r["layer"] for r in rows] == [0, 1]
    assert rows[0]["pass"] == "trivial"
    assert rows[0]["before"] == 3 and rows[0]["after"] == 1
