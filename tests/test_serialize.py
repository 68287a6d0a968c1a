import json
import zipfile

import numpy as np
import pytest

from boolnet.errors import ConfigError, StructuralError
from boolnet.model import HardCircuit, HardLayer, harden, random_network
from boolnet.serialize import (
    dump_netlist,
    load_checkpoint,
    load_netlist,
    parse_netlist,
    save_checkpoint,
    save_netlist,
)


def _toy_circuit() -> HardCircuit:
    model = random_network(
        6, [8, 4], 2, candidates_per_slot=3, seed=11, tau=7.5
    )
    rng = np.random.default_rng(5)
    for layer in model.layers:
        layer.gate_logits = rng.normal(size=layer.gate_logits.shape).astype(
            np.float32
        )
        layer.conn_weights = rng.normal(size=layer.conn_weights.shape).astype(
            np.float32
        )
    return harden(model)


def test_netlist_text_round_trip():
    circuit = _toy_circuit()
    back = parse_netlist(dump_netlist(circuit))
    assert back.input_width == circuit.input_width
    assert back.num_classes == circuit.num_classes
    assert back.tau == circuit.tau  # repr() round-trips floats exactly
    for l1, l2 in zip(circuit.layers, back.layers):
        assert np.array_equal(l1.code, l2.code)
        assert np.array_equal(l1.in0, l2.in0)
        assert np.array_equal(l1.in1, l2.in1)


def test_netlist_file_round_trip(tmp_path):
    circuit = _toy_circuit()
    path = tmp_path / "c.netlist"
    save_netlist(path, circuit)
    back = load_netlist(path)
    assert dump_netlist(back) == dump_netlist(circuit)


def test_netlist_rejects_bad_magic():
    with pytest.raises(StructuralError):
        parse_netlist("something-else v1\ninput_width 2\n")
    with pytest.raises(StructuralError):
        parse_netlist("")


def test_netlist_rejects_bad_version():
    text = dump_netlist(_toy_circuit()).replace("v1", "v999", 1)
    with pytest.raises(StructuralError):
        parse_netlist(text)


def test_netlist_rejects_missing_gates():
    text = dump_netlist(_toy_circuit())
    truncated = "\n".join(text.splitlines()[:-1])
    with pytest.raises(StructuralError):
        parse_netlist(truncated)


def test_netlist_rejects_malformed_records():
    circuit = _toy_circuit()
    lines = dump_netlist(circuit).splitlines()
    lines.append("0 0 6 1")  # four fields, not five
    with pytest.raises(StructuralError):
        parse_netlist("\n".join(lines))
    lines[-1] = "9 0 6 1 2"  # layer 9 does not exist
    with pytest.raises(StructuralError):
        parse_netlist("\n".join(lines))


def test_netlist_rejects_repeated_gate_record():
    """Listing gate 0 twice and gate 1 never must not leave gate 1 as an
    all-zero record."""
    lines = dump_netlist(_toy_circuit()).splitlines()
    first = next(i for i, ln in enumerate(lines) if ln.startswith("0 0 "))
    assert lines[first + 1].startswith("0 1 ")
    lines[first + 1] = lines[first]
    with pytest.raises(StructuralError, match="twice"):
        parse_netlist("\n".join(lines))


def test_netlist_rejects_non_integer_field():
    lines = dump_netlist(_toy_circuit()).splitlines()
    lines[-1] = lines[-1].rsplit(" ", 1)[0] + " x"
    with pytest.raises(StructuralError, match="malformed gate record"):
        parse_netlist("\n".join(lines))


@pytest.mark.parametrize(
    "line",
    ["tau nan", "tau -1.0", "tau 0.0", "tau inf", "num_classes 0",
     "layers -8 4"],
)
def test_netlist_rejects_bad_header_value(line):
    key = line.split()[0]
    good = {"tau": "tau 7.5", "num_classes": "num_classes 2",
            "layers": "layers 8 4"}[key]
    text = dump_netlist(_toy_circuit()).replace(good + "\n", line + "\n")
    assert line + "\n" in text
    with pytest.raises(StructuralError):
        parse_netlist(text)


def test_load_netlist_unopenable_path_and_binary_content(tmp_path):
    with pytest.raises(ConfigError):
        load_netlist(tmp_path / "missing.netlist")
    with pytest.raises(ConfigError):
        load_netlist(tmp_path)  # a directory
    binary = tmp_path / "bin.netlist"
    binary.write_bytes(bytes(range(128, 256)))
    with pytest.raises(StructuralError):
        load_netlist(binary)


def test_netlist_rejects_out_of_range_fanin():
    lay = HardLayer(code=[6, 6], in0=[0, 3], in1=[1, 1])  # in0=3 with width 2
    text = dump_netlist(HardCircuit(2, [lay], 2, tau=1.0))
    with pytest.raises(StructuralError):
        parse_netlist(text)


def test_checkpoint_round_trip(tmp_path):
    model = random_network(5, [6, 4], 2, candidates_per_slot=2, seed=3, tau=4.0)
    thresholds = np.array([[0.5, 1.5], [0.0, 2.0]])
    path = tmp_path / "model.npz"
    save_checkpoint(path, model, thresholds, extra={"note": "hello"})
    back, thr, extra = load_checkpoint(path)
    assert back.input_width == 5 and back.num_classes == 2
    assert back.tau == model.tau
    assert extra == {"note": "hello"}
    assert np.array_equal(thr, thresholds)
    for l1, l2 in zip(model.layers, back.layers):
        assert np.array_equal(l1.gate_logits, l2.gate_logits)
        assert np.array_equal(l1.candidates, l2.candidates)
        assert np.array_equal(l1.conn_weights, l2.conn_weights)


def test_checkpoint_without_thresholds(tmp_path):
    model = random_network(4, [4], 2, candidates_per_slot=2, seed=0)
    path = tmp_path / "m.npz"
    save_checkpoint(path, model)
    back, thr, extra = load_checkpoint(path)
    assert thr is None and extra == {}
    assert np.array_equal(back.layers[0].candidates, model.layers[0].candidates)


def test_compressed_checkpoint_still_loads(tmp_path):
    """Checkpoints are written uncompressed; one written by
    np.savez_compressed with the same keys loads to an identical model."""
    model = random_network(5, [6, 4], 2, candidates_per_slot=2, seed=3, tau=4.0)
    thresholds = np.array([[0.5, 1.5], [0.0, 2.0]])
    plain = tmp_path / "plain.npz"
    save_checkpoint(plain, model, thresholds, extra={"note": "hi"})
    with np.load(plain) as data:
        arrays = {key: data[key] for key in data.files}
        assert all(  # stored, not deflated
            info.compress_type == zipfile.ZIP_STORED
            for info in zipfile.ZipFile(plain).infolist()
        )
    packed = tmp_path / "packed.npz"
    np.savez_compressed(packed, **arrays)
    back, thr, extra = load_checkpoint(packed)
    assert (back.input_width, back.num_classes, back.tau) == (5, 2, 4.0)
    assert extra == {"note": "hi"} and np.array_equal(thr, thresholds)
    for l1, l2 in zip(model.layers, back.layers, strict=True):
        for name in ("gate_logits", "candidates", "conn_weights"):
            a, b = getattr(l1, name), getattr(l2, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_checkpoint_with_freezing_flags_still_loads(tmp_path):
    """Older checkpoints also stored per-layer `frozen_*` lists in their
    meta. Such a file loads to the same model and ignores them."""
    model = random_network(5, [6, 4], 2, candidates_per_slot=2, seed=3, tau=4.0)
    path = tmp_path / "m.npz"
    save_checkpoint(path, model, extra={"note": "old"})
    with np.load(path) as data:
        arrays = {key: data[key] for key in data.files}
    meta = json.loads(bytes(arrays["meta_json"]))
    assert not any(key.startswith("frozen_") for key in meta)
    meta["frozen_interconnect"] = [False, True]
    meta["frozen_gates"] = [True, False]
    arrays["meta_json"] = np.frombuffer(json.dumps(meta).encode(), np.uint8)
    old = tmp_path / "old.npz"
    np.savez(old, **arrays)
    back, thr, extra = load_checkpoint(old)
    assert thr is None and extra == {"note": "old"}
    assert (back.input_width, back.num_classes, back.tau) == (5, 2, 4.0)
    for l1, l2 in zip(model.layers, back.layers, strict=True):
        for name in ("gate_logits", "candidates", "conn_weights"):
            a, b = getattr(l1, name), getattr(l2, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_checkpoint_rejects_foreign_npz(tmp_path):
    path = tmp_path / "junk.npz"
    np.savez(path, a=np.arange(3))
    with pytest.raises(StructuralError):
        load_checkpoint(path)


def test_checkpoint_unopenable_path_is_config_error(tmp_path):
    with pytest.raises(ConfigError):
        load_checkpoint(tmp_path / "missing.npz")
    with pytest.raises(ConfigError):
        load_checkpoint(tmp_path)  # a directory


def _saved_arrays(tmp_path):
    model = random_network(5, [6, 4], 2, candidates_per_slot=2, seed=3)
    path = tmp_path / "good.npz"
    save_checkpoint(path, model)
    with np.load(path) as data:
        arrays = {key: data[key] for key in data.files}
    return arrays, json.loads(bytes(arrays["meta_json"]))


def _with_meta(arrays, meta):
    meta_json = np.frombuffer(json.dumps(meta).encode(), np.uint8)
    return {**arrays, "meta_json": meta_json}


@pytest.mark.parametrize(
    "case",
    ["text", "empty", "truncated zip", "npy", "no conn_weights_1",
     "no n_layers", "meta is a list", "n_layers is text", "tau is nan",
     "no classes"],
)
def test_checkpoint_malformed_content_is_structural_error(tmp_path, case):
    arrays, meta = _saved_arrays(tmp_path)
    path = tmp_path / "bad.npz"
    good = (tmp_path / "good.npz").read_bytes()
    if case == "text":
        path.write_text("not a checkpoint\n")
    elif case == "empty":
        path.write_bytes(b"")
    elif case == "truncated zip":
        path.write_bytes(good[: len(good) // 2])
    elif case == "npy":
        path = tmp_path / "bad.npy"
        np.save(path, np.arange(3))
    elif case == "no conn_weights_1":
        del arrays["conn_weights_1"]
        np.savez(path, **arrays)
    else:
        if case == "no n_layers":
            del meta["n_layers"]
        elif case == "meta is a list":
            meta = [meta]
        elif case == "n_layers is text":
            meta["n_layers"] = "two"
        elif case == "no classes":
            meta["num_classes"] = 0
        else:
            meta["tau"] = float("nan")
        np.savez(path, **_with_meta(arrays, meta))
    with pytest.raises(StructuralError):
        load_checkpoint(path)


def test_checkpoint_hardening_round_trip(tmp_path):
    # The netlist of a saved+loaded model must equal the original's.
    model = random_network(6, [8, 4], 2, candidates_per_slot=3, seed=9)
    path = tmp_path / "m.npz"
    save_checkpoint(path, model)
    back, _, _ = load_checkpoint(path)
    assert dump_netlist(harden(back)) == dump_netlist(harden(model))
