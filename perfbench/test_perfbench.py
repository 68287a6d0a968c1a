"""Tests of the benchmark's own code.

    python3 -m pytest perfbench/test_perfbench.py
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import inputs  # noqa: E402
from boolnet import cli, data, model, pruning  # noqa: E402
from boolnet.bitmatrix import BitMatrix  # noqa: E402
from tracing import Target, Tracer, layer_stats, self_time, tail_percentile  # noqa: E402


def test_mnist_writer_round_trips(tmp_path):
    tr_x, tr_y, te_x, te_y = inputs.make_split_data(3, inputs.MNIST_PIXELS, 30, 20)
    inputs.write_mnist_idx(str(tmp_path), tr_x, tr_y, te_x, te_y)
    ds = data.load_mnist_idx(str(tmp_path), val_size=5, seed=0)
    np.testing.assert_array_equal(ds.features, np.concatenate([tr_x, te_x]))
    np.testing.assert_array_equal(ds.labels, np.concatenate([tr_y, te_y]))
    assert [len(ds.indices(s)) for s in ("train", "val", "test")] == [25, 5, 20]


def test_cifar_writer_round_trips(tmp_path):
    tr_x, tr_y, te_x, te_y = inputs.make_split_data(4, inputs.CIFAR_PIXELS, 12, 3)
    inputs.write_cifar10(str(tmp_path), tr_x, tr_y, te_x, te_y)
    ds = data.load_cifar10(str(tmp_path), val_size=2, seed=0)
    np.testing.assert_array_equal(ds.features, np.concatenate([tr_x, te_x]))
    np.testing.assert_array_equal(ds.labels, np.concatenate([tr_y, te_y]))


def test_inputs_are_seeded_and_roughly_balanced():
    a = inputs.make_split_data(5, inputs.MNIST_PIXELS, 2000, 10)
    b = inputs.make_split_data(5, inputs.MNIST_PIXELS, 2000, 10)
    for x, y in zip(a, b):
        np.testing.assert_array_equal(x, y)
    counts = np.bincount(a[1], minlength=inputs.NUM_CLASSES)
    assert counts.min() > 0 and counts.max() < 4 * counts.min()


def test_self_time_subtracts_the_union_of_children():
    assert self_time((0.0, 10.0), []) == 10.0
    # [1,5] and [8,10] are covered (the last child is clipped at 10).
    assert self_time((0.0, 10.0), [(2.0, 5.0), (1.0, 3.0), (8.0, 12.0)]) == 4.0


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


def test_layer_stats_per_repetition():
    tracer = Tracer("boolnet", clock=FakeClock())
    roots = []
    for _ in range(2):
        with tracer.span("rep") as root:  # opens at t, closes at t+5
            roots.append(root)
            with tracer.span("outer"):  # 3 time units, 1 of them in inner
                with tracer.span("inner"):
                    pass
    stats = layer_stats(tracer, ["outer", "inner", "missing"], roots)
    assert stats["outer"]["calls"] == 1 and stats["outer"]["self_ms"] == 2e3
    assert stats["inner"]["self_ms"] == 1e3
    assert stats["outer"]["share"] == pytest.approx(4 / 10)
    assert stats["outer"]["p50_ms"] == 3e3
    assert stats["missing"] == {"calls": 0, "self_ms": 0.0, "share": 0.0, "p50_ms": 0.0}


def test_tail_percentile_needs_ten_samples_beyond():
    assert tail_percentile(99) is None
    assert tail_percentile(100) == 90.0
    assert tail_percentile(1000) == 99.0
    assert tail_percentile(10000) == 99.9


def test_absent_names_are_reported_not_raised():
    tracer = Tracer("boolnet")
    tracer.install(
        [
            Target("model.no_such_function"),
            Target("no_such_module.function"),
            Target("bitmatrix.BitMatrix.no_such_method"),
            Target("model.harden"),
        ]
    )
    tracer.uninstall()
    assert tracer.absent == [
        "model.no_such_function",
        "no_such_module.function",
        "bitmatrix.BitMatrix.no_such_method",
    ]


def _tiny_circuit():
    layer = model.HardLayer(
        code=np.array([6, 8], dtype=np.int32),
        in0=np.array([0, 1], dtype=np.int32),
        in1=np.array([1, 2], dtype=np.int32),
    )
    final = model.HardLayer(
        code=np.array([12, 10], dtype=np.int32),
        in0=np.array([0, 1], dtype=np.int32),
        in1=np.array([1, 0], dtype=np.int32),
    )
    return model.HardCircuit(3, [layer, final], num_classes=2, tau=1.0)


def test_wraps_every_module_that_imported_the_name():
    original = pruning.trivial_prune
    tracer = Tracer("boolnet")
    tracer.install([Target("pruning.trivial_prune")])
    try:
        assert cli.trivial_prune is pruning.trivial_prune is not original
        cli.trivial_prune(_tiny_circuit())
    finally:
        tracer.uninstall()
    assert cli.trivial_prune is original and pruning.trivial_prune is original
    assert [s.name for s in tracer.spans] == ["pruning.trivial_prune"]


def test_per_parent_index_and_classmethods():
    tracer = Tracer("boolnet")
    tracer.install(
        [
            Target("model.eval_circuit_layers"),
            Target("model._eval_layer_words", per_parent_index=True),
            Target("bitmatrix.BitMatrix.from_array"),
        ]
    )
    try:
        bits = BitMatrix.from_array(np.array([[0, 1, 1], [1, 1, 0]]))
        model.eval_circuit_layers(_tiny_circuit(), bits)
        model.eval_circuit_layers(_tiny_circuit(), bits)
    finally:
        tracer.uninstall()
    names = [s.name for s in tracer.spans]
    assert names.count("model._eval_layer_words.L0") == 2
    assert names.count("model._eval_layer_words.L1") == 2
    assert "model._eval_layer_words.L2" not in names
    assert names[0] == "bitmatrix.BitMatrix.from_array"
    assert not hasattr(BitMatrix.from_array, "__wrapped__")


def test_benchmark_json_matches_the_metrics_reported():
    import json

    import workloads

    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == workloads.E2E_UNITS
    zero = {"calls": 0, "self_ms": 0.0, "share": 0.0, "p50_ms": 0.0}
    layers = {name: zero for name in workloads.LAYER_NAMES}
    result = workloads.RunResult(
        {},
        extra={"gates_removed": {}, "overhead_ms": 0.0, "traced_rep_ms": 0.0},
        layers=layers,
        setup_layers=layers,
    )
    reported = {k: unit for k, (_, unit) in workloads.per_layer_metrics(result).items()}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == reported
