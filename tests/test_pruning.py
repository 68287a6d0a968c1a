import collections
import hashlib
import tracemalloc

import numpy as np
import pytest

from boolnet import bitmatrix, pruning
from boolnet.bitmatrix import BitMatrix
from boolnet.cli import main
from boolnet.data import synth_boolean_task
from boolnet.errors import ConfigError, StructuralError
from boolnet.model import (
    AND,
    CONST0,
    CONST1,
    NAND,
    NOR,
    NOT_A,
    OR,
    PROJ_A,
    PROJ_B,
    XNOR,
    XOR,
    HardCircuit,
    HardLayer,
    eval_circuit,
    eval_circuit_layers,
    harden,
    random_network,
)
from boolnet.pruning import (
    ConeFunction,
    _cone,
    _pair_correlations,
    compose_cones,
    greedy_prune,
    logic_equivalence_prune,
    phi_from_counts,
    profile_activations,
    similarity_prune,
    trivial_prune,
)
from boolnet.serialize import dump_netlist, load_netlist, save_netlist
from boolnet.training import EncodedSplits, TrainConfig, train


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


def _evaluate(cone: ConeFunction, assignment: dict[int, int]) -> int:
    """The cone's value where input i is assignment[i]."""
    r = sum((assignment[var] & 1) << v for v, var in enumerate(cone.support))
    return (cone.bits >> r) & 1


def _table(cone: ConeFunction) -> np.ndarray:
    """The cone's truth table, one uint8 per entry."""
    n = 1 << len(cone.support)
    packed = np.frombuffer(cone.bits.to_bytes((n + 7) // 8, "little"), np.uint8)
    return np.unpackbits(packed, count=n, bitorder="little")


def _all_cones(circuit: HardCircuit) -> list[list[ConeFunction | None]]:
    """Cone of every gate, layer by layer; None past SUPPORT_LIMIT."""
    memo: dict = {}
    return [
        [_cone(circuit, li, gi, memo) for gi in range(lay.n_gates)]
        for li, lay in enumerate(circuit.layers)
    ]


def test_cone_primitives():
    c0 = ConeFunction.constant(0)
    assert c0.is_constant and c0.bits == 0
    x3 = ConeFunction.input_var(3)
    assert x3.support == (3,) and not x3.is_constant
    assert _evaluate(x3, {3: 0}) == 0 and _evaluate(x3, {3: 1}) == 1


def test_xor_of_same_input_is_constant_zero():
    x = ConeFunction.input_var(3)
    cone = compose_cones(XOR, x, x)
    assert cone.support == ()
    assert cone.bits == 0


def test_absorption_reduces_support():
    # x1 AND (x1 OR x2) == x1: support must shrink to (1,).
    x1 = ConeFunction.input_var(1)
    x2 = ConeFunction.input_var(2)
    inner = compose_cones(OR, x1, x2)
    assert inner.support == (1, 2)
    outer = compose_cones(AND, x1, inner)
    assert outer.support == (1,)
    assert np.array_equal(_table(outer), [0, 1])


def test_compose_matches_truth_table():
    a = ConeFunction.input_var(0)
    b = ConeFunction.input_var(2)
    cone = compose_cones(NAND, a, b)
    for va in (0, 1):
        for vb in (0, 1):
            assert _evaluate(cone, {0: va, 2: vb}) == 1 - (va & vb)


def test_cone_of_matches_exhaustive_eval():
    rng = np.random.default_rng(0)
    circuit = _random_circuit(rng, 5, [7, 6, 4])
    x = _all_inputs(5).to_array()
    acts = x
    cones = _all_cones(circuit)
    for li, layer in enumerate(circuit.layers):
        nxt = np.zeros((32, layer.n_gates), dtype=np.uint8)
        for g in range(layer.n_gates):
            a = acts[:, layer.in0[g]]
            b = acts[:, layer.in1[g]]
            nxt[:, g] = (int(layer.code[g]) >> (2 * a + b)) & 1
            cone = cones[li][g]
            assert cone == _cone(circuit, li, g, {})
            for s in range(32):
                assign = {i: int(x[s, i]) for i in range(5)}
                assert _evaluate(cone, assign) == nxt[s, g]
        acts = nxt


def test_support_never_exceeds_reachable_inputs():
    # Depth-d cones reach at most 2^d inputs.
    rng = np.random.default_rng(1)
    circuit = _random_circuit(rng, 16, [12, 10, 8])
    for li, layer_cones in enumerate(_all_cones(circuit)):
        for cone in layer_cones:
            assert len(cone.support) <= 2 ** (li + 1)


def test_cones_equal_exhaustive_eval_on_16_inputs():
    rng = np.random.default_rng(12)
    circuit = _random_circuit(rng, 16, [32, 24, 16, 8])
    for lay in circuit.layers:  # tables that read both inputs
        lay.code[:] = rng.choice([AND, OR, XOR, XNOR, NAND, NOR], size=lay.n_gates)
    x = _all_inputs(16)
    bits = x.to_array()
    acts = eval_circuit_layers(circuit, x)
    widest = 0
    for li, layer_cones in enumerate(_all_cones(circuit)):
        want = BitMatrix(acts[li], 1 << 16).to_array()
        for gi, cone in enumerate(layer_cones):
            k = len(cone.support)
            widest = max(widest, k)
            table = _table(cone)
            r = bits[:, list(cone.support)].astype(np.int64) @ (1 << np.arange(k))
            assert np.array_equal(table[r], want[:, gi])
            nd = table.reshape((2,) * k, order="F")  # every support input is read
            for v in range(k):
                assert not np.array_equal(nd.take(0, axis=v), nd.take(1, axis=v))
    assert widest >= 12


def _parity(inputs) -> ConeFunction:
    cone = ConeFunction.constant(0)
    for i in inputs:
        cone = compose_cones(XOR, cone, ConeFunction.input_var(i))
    return cone


def test_24_input_cone_stays_small():
    # The same cone as one byte per entry was a 16 MB table.
    a, b = _parity(range(0, 24, 2)), _parity(range(1, 24, 2))
    tracemalloc.start()
    try:
        cone = compose_cones(XOR, a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12 << 20
    assert cone.support == tuple(range(24))
    assert repr(cone) == f"ConeFunction(support={tuple(range(24))})"  # no 2 MB int
    rng = np.random.default_rng(14)
    for row in rng.integers(0, 2, size=(64, 24)):
        assert _evaluate(cone, dict(enumerate(row.tolist()))) == row.sum() % 2


def _layer(pairs, codes) -> HardLayer:
    return HardLayer(code=codes, in0=[p[0] for p in pairs], in1=[p[-1] for p in pairs])


def _parity_tree_25(*tail: HardLayer) -> HardCircuit:
    """Parity trees over 25 inputs: layer 3 holds one over inputs 0-15
    and one over 16-24, and `tail` follows."""
    layers = [
        _layer([(2 * i, 2 * i + 1) for i in range(12)] + [(24,)], [XOR] * 12 + [PROJ_A]),
        _layer([(2 * i, 2 * i + 1) for i in range(6)] + [(12,)], [XOR] * 6 + [PROJ_A]),
        _layer([(0, 1), (2, 3), (4, 5), (6,)], [XOR] * 3 + [PROJ_A]),
        _layer([(0, 1), (2, 3)], [XOR, XOR]),
    ]
    return HardCircuit(25, layers + list(tail), 2, tau=1.0)


def test_25_input_union_has_no_cone():
    # The last layer's gate 1 joins 16 + 9 inputs.
    circuit = _parity_tree_25(_layer([(1,), (0, 1)], [PROJ_A, XOR]))
    assert len(_cone(circuit, 3, 0, {}).support) == 16
    assert _cone(circuit, 4, 1, {}) is None


def test_unproved_proposals_stay_unmerged(monkeypatch):
    # Every signature row is 0, so XOR and OR of the two parities share a
    # row although they differ; past the limit, neither may merge or
    # become a constant.
    n = 64 * pruning.SIGNATURE_WORDS
    monkeypatch.setattr(
        pruning,
        "_signature_inputs",
        lambda width: BitMatrix.from_array(np.zeros((n, width), np.uint8)),
    )
    circuit = _parity_tree_25(
        _layer([(0, 1), (0, 1), (1,)], [XOR, OR, PROJ_A]),
        _layer([(0,), (1,)], [PROJ_A, PROJ_A]),
    )
    pruned, report = logic_equivalence_prune(circuit)
    assert (4, 1) not in report.reroute
    assert pruned.layers[4].code.tolist()[:2] == [XOR, OR]
    x = _random_inputs(np.random.default_rng(2), 4096, 25)
    assert eval_circuit(circuit, x) == eval_circuit(pruned, x)


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


def _oracle_equivalence(circuit: HardCircuit):
    """The bucket algorithm: every gate's cone, compared exactly within
    sum-of-support buckets in index order, then a trivial pass."""
    circuit = circuit.copy()
    n_layers = len(circuit.layers)
    reroute = {}
    for li, cones in enumerate(_all_cones(circuit)):
        layer = circuit.layers[li]
        is_final = li == n_layers - 1
        buckets, rep_of = {}, {}
        for gi, cone in enumerate(cones):
            bucket = buckets.setdefault(sum(cone.support), [])
            for other in bucket:
                if cones[other] == cone:
                    rep_of[gi] = other
                    break
            else:
                bucket.append(gi)
                rep_of[gi] = gi
        for gi, cone in enumerate(cones):
            if cone.is_constant and (rep_of[gi] == gi or is_final):
                layer.code[gi] = CONST1 if cone.bits else CONST0
                layer.in0[gi] = layer.in1[gi] = 0
        if not is_final:
            mapping = np.array([rep_of[g] for g in range(layer.n_gates)])
            for gi, rep in rep_of.items():
                if rep != gi:
                    reroute[(li, gi)] = (
                        ("const", cones[gi].bits)
                        if cones[gi].is_constant
                        else ("gate", li, rep)
                    )
            nxt = circuit.layers[li + 1]
            nxt.in0[:] = mapping[nxt.in0]
            nxt.in1[:] = mapping[nxt.in1]
    pruned, trivial_report = trivial_prune(circuit)
    for key, val in trivial_report.reroute.items():
        reroute.setdefault(key, val)
    return pruned, reroute


def _redundant_circuit(rng, width_in, widths) -> HardCircuit:
    """Random circuit seeded with duplicate and swapped gates, constant
    codes, XOR/XNOR of one signal with itself, and final-layer gates
    whose cones are constant."""
    circuit = _random_circuit(rng, width_in, widths)
    for li, layer in enumerate(circuit.layers):
        g = layer.n_gates
        for gi in rng.choice(g, size=g // 3, replace=False):
            src = int(rng.integers(0, g))
            kind = rng.integers(0, 4)
            if kind == 0:  # duplicate
                layer.code[gi] = layer.code[src]
                layer.in0[gi], layer.in1[gi] = layer.in0[src], layer.in1[src]
            elif kind == 1:  # the same symmetric table, inputs swapped
                code = rng.choice([AND, OR, XOR, XNOR, NAND, NOR])
                layer.code[gi] = layer.code[src] = code
                layer.in0[gi], layer.in1[gi] = layer.in1[src], layer.in0[src]
            elif kind == 2:
                layer.code[gi] = rng.choice([CONST0, CONST1])
            else:
                layer.code[gi] = rng.choice([XOR, XNOR])
                layer.in1[gi] = layer.in0[gi]
    final = circuit.layers[-1]
    final.code[0] = XOR  # XOR(g, g) == 0
    final.in1[0] = final.in0[0]
    return circuit


def _assert_equals_oracle(circuit: HardCircuit) -> None:
    pruned, report = logic_equivalence_prune(circuit)
    want, want_reroute = _oracle_equivalence(circuit)
    assert pruned.layer_widths == want.layer_widths
    for got_layer, want_layer in zip(pruned.layers, want.layers):
        assert np.array_equal(got_layer.code, want_layer.code)
        assert np.array_equal(got_layer.in0, want_layer.in0)
        assert np.array_equal(got_layer.in1, want_layer.in1)
    assert report.reroute == want_reroute


def _oracle_circuits():
    for seed in range(24):
        rng = np.random.default_rng(500 + seed)
        depth = 1 + seed % 5
        widths = [int(rng.integers(4, 17)) for _ in range(depth)]
        widths[-1] += widths[-1] % 2
        yield _redundant_circuit(rng, int(rng.integers(2, 9)), widths)


def test_equivalence_equals_bucket_oracle():
    for circuit in _oracle_circuits():
        _assert_equals_oracle(circuit)


def test_equivalence_equals_oracle_when_every_signature_collides(
    monkeypatch,
):
    # All-zero signature inputs: every gate reads all-0 or all-1, so
    # every gate is proposed and only the cone comparison decides.
    n = 64 * pruning.SIGNATURE_WORDS
    monkeypatch.setattr(
        pruning,
        "_signature_inputs",
        lambda width: BitMatrix.from_array(np.zeros((n, width), np.uint8)),
    )
    for circuit in _oracle_circuits():
        _assert_equals_oracle(circuit)


def _random_inputs(rng, n: int, width: int) -> BitMatrix:
    return BitMatrix.from_array(rng.integers(0, 2, size=(n, width)))


def test_equivalence_prunes_deep_wide_circuit():
    # 784 -> 6 x 300: a layer-5 cone spans 32 inputs, past the limit,
    # but only proposed gates need cones.
    rng = np.random.default_rng(0)
    circuit = _random_circuit(rng, 784, [300] * 6)
    pruned, report = logic_equivalence_prune(circuit)
    assert report.removed > 0
    x = _random_inputs(np.random.default_rng(1), 4096, 784)
    assert eval_circuit(circuit, x) == eval_circuit(pruned, x)


def _deep_circuit(depth: int, seed: int) -> HardCircuit:
    return _random_circuit(np.random.default_rng(seed), 784, [500] * depth)


@pytest.mark.parametrize("depth, seed", [(7, 6), (7, 7), (8, 6), (8, 7)])
def test_equivalence_leaves_cones_past_the_limit_unmerged(
    depth, seed, monkeypatch
):
    # 784 -> depth x 500: some proposals need a cone over more than
    # SUPPORT_LIMIT inputs. They stay unmerged, and each gate's cone is
    # composed at most once, past the limit too.
    circuit = _deep_circuit(depth, seed)
    at, calls, past = [], collections.Counter(), []
    cone, compose = pruning._cone, pruning.compose_cones

    def located(circuit, li, gi, memo):
        at.append((li, gi))
        try:
            return cone(circuit, li, gi, memo)
        finally:
            at.pop()

    def counted(code, a, b):
        calls[at[-1]] += 1
        out = compose(code, a, b)
        if out is None:
            past.append(at[-1])
        return out

    monkeypatch.setattr(pruning, "_cone", located)
    monkeypatch.setattr(pruning, "compose_cones", counted)
    pruned, report = logic_equivalence_prune(circuit)
    assert past
    assert max(calls.values()) == 1
    assert report.removed > 0
    x = _random_inputs(np.random.default_rng(1), 4096, 784)
    assert eval_circuit(circuit, x) == eval_circuit(pruned, x)


def test_cli_prunes_a_netlist_with_cones_past_the_limit(tmp_path):
    circuit = _deep_circuit(8, 6)
    nl = tmp_path / "deep.netlist"
    save_netlist(nl, circuit)
    assert main([
        "prune", "--netlist", str(nl), "--passes", "trivial,equivalence",
        "--out", str(tmp_path / "o"),
    ]) == 0
    pruned = load_netlist(tmp_path / "o" / "pruned.netlist")
    x = _random_inputs(np.random.default_rng(1), 4096, 784)
    assert eval_circuit(circuit, x) == eval_circuit(pruned, x)


def test_equivalence_settles_constant_classes_in_every_layer():
    # Constant-coded gates in every layer, constants derived from the
    # function (XOR(a, a), AND(x, 0), OR(1, x)) and duplicate functions.
    l0 = HardLayer(
        code=[AND, XOR, CONST0, AND, CONST1, XNOR, OR, CONST0],
        in0=[0, 2, 0, 1, 0, 3, 2, 1], in1=[1, 2, 0, 0, 0, 3, 3, 1],
    )
    l1 = HardLayer(
        code=[AND, CONST0, CONST1, XOR, OR, XOR],
        in0=[6, 0, 0, 0, 4, 3], in1=[2, 0, 0, 6, 6, 6],
    )
    l2 = HardLayer(
        code=[CONST1, XOR, PROJ_A, AND], in0=[0, 3, 3, 0], in1=[0, 5, 3, 3]
    )
    circuit = HardCircuit(4, [l0, l1, l2], 2, tau=1.0)
    pruned, report = logic_equivalence_prune(circuit)
    assert _outputs_equal(circuit, pruned)
    _assert_equals_oracle(circuit)
    merges = {k: v for k, v in report.reroute.items() if v[0] != "dropped"}
    assert merges == {
        (0, 2): ("const", 0), (0, 3): ("gate", 0, 0), (0, 5): ("const", 1),
        (0, 7): ("const", 0), (1, 1): ("const", 0), (1, 4): ("const", 1),
        (1, 5): ("gate", 1, 3),
    }
    # Each reroute names its class's lowest-indexed member.
    cones = _all_cones(circuit)
    for (li, gi), verdict in merges.items():
        lowest = next(j for j, cone in enumerate(cones[li]) if cone == cones[li][gi])
        assert lowest < gi
        assert verdict == (
            ("const", cones[li][gi].bits) if cones[li][gi].is_constant
            else ("gate", li, lowest)
        )
    # The final layer keeps every gate and gains only constants.
    assert pruned.layers[-1].code.tolist() == [CONST1, CONST0, PROJ_A, CONST0]


def test_equivalence_depth_eight_exhaustive():
    rng = np.random.default_rng(8)
    circuit = _redundant_circuit(rng, 12, [24] * 7 + [8])
    pruned, report = logic_equivalence_prune(circuit)
    assert report.removed > 0
    assert _outputs_equal(circuit, pruned)
    again, report2 = logic_equivalence_prune(pruned)
    assert report2.removed == 0
    assert again.layer_widths == pruned.layer_widths


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
        dense = BitMatrix(words, 100).to_array()
        assert np.array_equal(profile.ones[li], dense.sum(axis=0))
        for g in range(dense.shape[1]):
            assert profile.ones[li][g] / profile.sample_count == dense[:, g].mean()


PASSES = {
    "trivial": lambda c, p: trivial_prune(c),
    "equivalence": lambda c, p: logic_equivalence_prune(c),
    "greedy": lambda c, p: greedy_prune(c, p, 0.9),
    "similarity": lambda c, p: similarity_prune(c, p, 0.8),
}


@pytest.mark.parametrize("order", [
    ("trivial", "trivial", "equivalence", "greedy", "similarity"),
    ("greedy", "similarity", "equivalence", "greedy", "trivial"),
    ("similarity", "greedy", "trivial", "similarity", "equivalence"),
])
@pytest.mark.parametrize("make", [_redundant_circuit, _random_circuit])
def test_incremental_profile_equals_fresh_profile(make, order):
    """After every pass, the profile built from the last one equals a
    fresh profile bit for bit, and marks exactly the rows that differ
    from the old row of the same gate."""
    rng = np.random.default_rng(11)
    circuit = make(rng, 12, [64, 64, 40])
    base = rng.random((700, 6)) < 0.3
    noisy = base ^ (rng.random((700, 6)) < 0.02)
    bits = BitMatrix.from_array(np.hstack([base, noisy]).astype(np.uint8))
    profile = profile_activations(circuit, bits)
    assert all(c.all() for c in profile.changed)
    seen = set()
    for name in order:
        pruned, report = PASSES[name](circuit, profile)
        got = profile_activations(pruned, bits, (profile, circuit, report.kept))
        fresh = profile_activations(pruned, bits)
        for li, k in enumerate(report.kept):
            assert np.array_equal(got.words[li], fresh.words[li])
            assert np.array_equal(got.ones[li], fresh.ones[li])
            assert got.ones[li].dtype == fresh.ones[li].dtype == np.int64
            old = profile.words[li][k]
            assert np.array_equal(
                got.changed[li], (fresh.words[li] != old).any(axis=1)
            )
        last = len(pruned.layers) - 1
        seen |= {
            (kind, li == last) for (li, _), (kind, *_) in report.reroute.items()
        }
        if not any(c.any() for c in got.changed):
            seen.add("no row changed")
        circuit, profile = pruned, got
    # The orders include a pass that changes no row, constants in the
    # final layer, and merges in the hidden layers.
    assert {"no row changed", ("const", True), ("gate", False)} <= seen


@pytest.mark.parametrize("order", [
    *((name,) for name in PASSES),
    ("trivial", "equivalence", "greedy", "similarity"),  # the CLI's order
])
@pytest.mark.parametrize("make", [_redundant_circuit, _random_circuit])
@pytest.mark.parametrize("seed", [0, 1])
def test_no_pass_adds_a_layer0_read(seed, make, order):
    """Eval and prune encode only the inputs that layer 0 of the loaded
    circuit reads and leave the others zero. That is sound only if every
    pass reads a subset of the inputs the circuit before it read."""
    rng = np.random.default_rng(seed)
    circuit = make(rng, 96, [40, 40, 20])  # at most 80 of 96 inputs read
    bits = _random_inputs(rng, 300, 96)
    profile = profile_activations(circuit, bits)
    for name in order:
        read = circuit.read_inputs()
        circuit, report = PASSES[name](circuit, profile)
        assert not (circuit.read_inputs() & ~read).any()
        profile = profile_activations(circuit, bits)


def test_final_rows_change_only_when_outputs_do():
    rng = np.random.default_rng(3)
    circuit = _redundant_circuit(rng, 8, [32, 32, 16])
    bits = _all_inputs(8)
    profile = profile_activations(circuit, bits)
    for step in (trivial_prune, logic_equivalence_prune):  # exact passes
        pruned, report = step(circuit)
        profile = profile_activations(
            pruned, bits, (profile, circuit, report.kept)
        )
        assert not profile.changed[-1].any()
        circuit = pruned
    pruned, report = greedy_prune(circuit, profile, 0.6)
    after = profile_activations(pruned, bits, (profile, circuit, report.kept))
    assert after.changed[-1].any()


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


def test_identical_rows_read_exactly_one():
    """Two equal rows of any count read rho = 1.0, so c = 1.0 merges them.
    A denominator of two roots, sqrt(a) * sqrt(a), is not a for 5134 of
    these counts (k = 6 reads 0.9999999999999998)."""
    n, k = 10000, np.arange(1, 10000)
    assert (phi_from_counts(n, k, k, k) == 1.0).all()
    # Gate 0 is x0 and gate 1 is x0 AND x1; on this data x1 covers x0, so
    # the two rows are equal, with 6 ones in 10000 samples.
    x = np.zeros((n, 2), dtype=np.uint8)
    x[:6, 0] = 1
    x[:100, 1] = 1
    l0 = HardLayer(code=[PROJ_A, AND], in0=[0, 0], in1=[1, 1])
    l1 = HardLayer(code=[PROJ_A, PROJ_B], in0=[0, 0], in1=[1, 1])
    circuit = HardCircuit(2, [l0, l1], 2, tau=1.0)
    profile = profile_activations(circuit, BitMatrix.from_array(x))
    _, report = similarity_prune(circuit, profile, c=1.0)
    assert report.reroute[(0, 1)] == ("gate", 0, 0)


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


def _brute_force_pairs(words, n, c):
    bits = BitMatrix(words, n).to_array().astype(np.int64)
    ones = bits.sum(axis=0)
    found = []
    for i in range(bits.shape[1]):
        for j in range(i + 1, bits.shape[1]):
            nij = int(bits[:, i] @ bits[:, j])
            rho = phi_from_counts(n, ones[i], ones[j], nij)
            if rho >= c:
                found.append((float(rho), i, j))
    return found


def _pair_blocks(monkeypatch, block_bytes):
    """Both stages of the pair search in blocks of about block_bytes."""
    monkeypatch.setattr(pruning, "PAIR_BYTES", block_bytes)
    monkeypatch.setattr(bitmatrix, "WORK_BYTES", block_bytes)


@pytest.mark.parametrize("rows", [1, 7, 40])
def test_pair_correlations_equal_brute_force(rows, monkeypatch):
    rng = np.random.default_rng(9)
    n, g = 200, 40
    base = rng.integers(0, 2, size=(n, 4))
    bits = base[:, rng.integers(0, 4, size=g)]
    flips = rng.random((n, g)) < rng.choice([0.0, 0.02, 0.3], size=g)
    bits = bits ^ flips
    bits[:, 5] = 0  # constant gates: rho undefined
    bits[:, 6] = 1
    words = BitMatrix.from_array(bits).words
    ones = np.bitwise_count(words).sum(axis=1).astype(np.int64)
    c = _brute_force_pairs(words, n, 0.5)[3][0]  # one pair sits at c
    want = _brute_force_pairs(words, n, c)
    assert any(rho == c for rho, _, _ in want)
    assert not any(5 in (i, j) or 6 in (i, j) for _, i, j in want)
    _pair_blocks(monkeypatch, rows * g * words.shape[1] * 8)
    got = _pair_correlations(words, ones, n, c)
    assert sorted(got) == sorted(want)


@pytest.mark.parametrize("rows", [1, 4, 96])
def test_banded_pair_search_equals_brute_force(rows, monkeypatch):
    rng = np.random.default_rng(11)
    n = 300
    # Nested gates with 6, 14, .., 294 ones: a pair's n_ij is its smaller
    # count, so its rho equals the count bound that ends the band.
    nested = rng.permutation(n)[:, None] < np.arange(6, 295, 8)
    bits = np.hstack([
        nested,
        nested[:, 7:11],  # repeats; two of their rhos round to 1.0
        nested[:, ::4] ^ (rng.random((n, 10)) < 0.05),
        np.argsort(rng.random((12, n)), axis=1).T < 150,  # equal counts
        np.repeat([[0, 0, 1, 1]], n, axis=0),  # constants: rho undefined
    ]).astype(np.uint8)
    bits = bits[:, rng.permutation(bits.shape[1])]
    words = BitMatrix.from_array(bits).words
    ones = bits.sum(axis=0).astype(np.int64)
    s = np.sort(ones[(ones > 0) & (ones < n)])
    bound = phi_from_counts(n, s[:, None], s, s[:, None])
    bound = bound[np.triu_indices(len(s), 1)]
    # A nested pair's rho. Its float band end, 61.99999999999998, falls
    # short of the partner's 62 ones without the search's slack.
    edge = float(phi_from_counts(n, 38, 62, 38))
    _pair_blocks(monkeypatch, rows * words.shape[0] * words.shape[1] * 8)
    for c, at_c in ((edge, 1), (1.0, 2), (0.5, 0)):
        assert (bound < c).mean() > 0.4  # pairs the band leaves out
        want = _brute_force_pairs(words, n, c)
        assert sum(rho == c for rho, _, _ in want) >= at_c
        got = _pair_correlations(words, ones, n, c)
        assert sorted(got) == sorted(want)


@pytest.mark.parametrize("rows", [1, 5, 64])
def test_prefix_bounded_pair_search_equals_brute_force(rows, monkeypatch):
    # 5000 samples are 79 words, so the 32-word prefix is a strict part of
    # each row, and 5000 is not a multiple of 64.
    rng = np.random.default_rng(13)
    n, pre = 5000, 64 * pruning.PREFIX_WORDS
    base = rng.random((n, 4)) < 0.4
    bits = base[:, rng.integers(0, 4, size=24)]
    bits ^= rng.random((n, 24)) < rng.choice([0.0, 0.01, 0.05, 0.3], size=24)
    # Equal on the prefix, shuffled after it: equal counts, so these pass
    # the bound even at c = 1.0.
    tail = rng.permuted(np.repeat(rng.random((n - pre, 1)) < 0.4, 4, axis=1), axis=0)
    late = np.vstack([np.repeat(base[:pre, :1], 4, axis=1), tail])
    bits = np.hstack([
        bits, late,
        bits[:, 3:6],  # repeats, for c = 1.0
        np.repeat([[0, 1]], n, axis=0),  # constants: rho undefined
    ]).astype(np.uint8)
    bits = bits[:, rng.permutation(bits.shape[1])]
    g = bits.shape[1]
    words = BitMatrix.from_array(bits).words
    assert words.shape[1] == 79
    ones = bits.sum(axis=0).astype(np.int64)
    const = {int(i) for i in np.flatnonzero((ones == 0) | (ones == n))}
    head = bits[:pre].astype(np.int64)
    p_i, p_ij = head.sum(axis=0), head.T @ head
    bound = p_ij + np.minimum.outer(ones - p_i, ones - p_i)
    _pair_blocks(monkeypatch, rows * g * pruning.PREFIX_WORDS * 8)
    exact = _brute_force_pairs(words, n, 0.5)
    for c, at_c in ((exact[len(exact) // 2][0], True), (1.0, True), (0.5, False)):
        want = _brute_force_pairs(words, n, c)
        assert any(rho == c for rho, _, _ in want) == at_c
        assert not any({i, j} & const for _, i, j in want)
        got = _pair_correlations(words, ones, n, c)
        assert sorted(got) == sorted(want)
        # Some pair passes the prefix bound but not its full count, so
        # the second stage decides.
        passes = phi_from_counts(n, ones[:, None], ones, bound) >= c
        passes[np.tril_indices(g)] = False
        assert passes.sum() > len(want)


def test_pair_counts_past_uint16_are_exact():
    # 65537 samples: two identical gates with one zero bit each share
    # 65536 ones, one more than a 16-bit sum can hold.
    n = 65537
    bits = np.ones((n, 2), dtype=np.uint8)
    bits[0] = 0
    words = BitMatrix.from_array(bits).words
    ones = np.array([n - 1, n - 1])
    assert _pair_correlations(words, ones, n, 1.0) == [(1.0, 0, 1)]


def test_similarity_memory_stays_small():
    rng = np.random.default_rng(10)
    circuit = _random_circuit(rng, 64, [1000, 1000, 10])
    data = _random_inputs(rng, 10_000, 64)
    profile = profile_activations(circuit, data)
    tracemalloc.start()
    try:
        similarity_prune(circuit, profile, c=0.9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20


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


def test_threshold_one_passes_keep_every_output_bit_on_profiling_set():
    """Synthetic twin of acceptance test 07. The features are the task's
    bits twice, a copy with 3% of its bits flipped, and four bits that are
    set 3% of the time. Gates reading different exact copies differ as
    functions but agree on every sample, so similarity at c = 1.0 has
    merges that the exact passes cannot make; the noisy copy and the
    sparse bits give near-duplicates and near-constants, which change
    output bits here if c or the greedy threshold slips below 1.0."""
    touched = {"greedy": 0, "similarity": 0}
    for seed in range(6):
        ds = synth_boolean_task("parity-of-subset", 8, 600, seed=seed)
        x, y = ds.split_arrays("train")
        rng = np.random.default_rng(seed)
        noisy = x ^ (rng.random(x.shape) < 0.03)
        sparse = rng.random((len(x), 4)) < 0.03
        x = np.concatenate([x, x, noisy, sparse], axis=1).astype(np.uint8)
        model = random_network(x.shape[1], [48, 16], 2, candidates_per_slot=4,
                               seed=seed, tau=2.0)
        cfg = TrainConfig(total_epochs=4, finetune_epochs=1, C=4, R=2,
                          beta=5, tau=2.0, batch_size=32, lr_init=0.05,
                          seed=seed)
        model, _ = train(model, EncodedSplits(x, y), cfg)
        circuit, _ = trivial_prune(harden(model))
        circuit, _ = logic_equivalence_prune(circuit)
        bits = BitMatrix.from_array(x)
        profile = profile_activations(circuit, bits)
        outputs = eval_circuit(circuit, bits).words
        for name, prune in (("greedy", greedy_prune),
                            ("similarity", similarity_prune)):
            pruned, report = prune(circuit, profile, 1.0)
            assert np.array_equal(eval_circuit(pruned, bits).words, outputs)
            touched[name] += len(report.reroute)
    assert min(touched.values()) > 0, touched


# ---------------------------------------------------------------- golden

# SHA-256 of each pass's netlist and of its report (widths and sorted
# reroute items) on the circuit of `test_four_pass_prune_golden`. A
# change that means to alter pruned output updates these and says why.
GOLDEN_PASSES = {
    "trivial": (
        "83b5e1d0597870272b250fbdb675240d67c580eace1982ad63399355d45215ec",
        "56746a0ba1e50e27d68d91df9582024c7202150ba60ff7021deb738a2bdbd705",
    ),
    "logic-equivalence": (
        "991c0b2cddccf0cc847753a56fec6f720c8b3c4c82ad8fa09332938266f92fb2",
        "2b69d0a88e887973eb2ca7191ad05dde40646795238ed188a6a4d93ebda536d6",
    ),
    "greedy": (
        "bfcd71a603468002874ae61dea42af4a9a933c9565e037d118bb250f64354e9d",
        "c4f9f0207d12b05052b3fe72ae9ce81939efb1400a8da8f2a76124f3660477bd",
    ),
    "similarity": (
        "ce6bda1f790143b43901d8ee5d64483857185002f0f215bb3436b9157d217c29",
        "5990df3625ec98070aa3d05be8d9319ad6bd80c4fefd1be36506db5b44046a55",
    ),
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_four_pass_prune_golden():
    """trivial -> equivalence -> greedy 0.95 -> similarity 0.9 on a
    fixed redundant circuit, profiled on bits whose second half is a
    noisy copy of the first, so that every pass removes gates. Uses
    fixed-seed generators, integer and correctly rounded float64 ops
    only, so the digests should hold on any host."""
    rng = np.random.default_rng(6)
    circuit = _redundant_circuit(rng, 12, [64, 64, 64])
    base = rng.random((700, 6)) < 0.3
    noisy = base ^ (rng.random((700, 6)) < 0.02)
    bits = BitMatrix.from_array(np.hstack([base, noisy]).astype(np.uint8))
    steps = (
        trivial_prune,
        logic_equivalence_prune,
        lambda c: greedy_prune(c, profile_activations(c, bits), 0.95),
        lambda c: similarity_prune(c, profile_activations(c, bits), 0.9),
    )
    got = {}
    for step in steps:
        circuit, report = step(circuit)
        assert report.removed > 0, report.pass_name
        got[report.pass_name] = (
            _sha256(dump_netlist(circuit)),
            _sha256(repr((report.gates_before, report.gates_after,
                          sorted(report.reroute.items())))),
        )
    assert got == GOLDEN_PASSES
