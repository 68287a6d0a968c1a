"""End-to-end exercises of the command-line surface.

Everything runs in-process through main(argv) so exit codes and stdout
can be asserted directly. Only the fresh-process rerun test starts
subprocesses.
"""

import argparse
import csv
import dataclasses
import datetime
import hashlib
import json
import os
import struct
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from boolnet import bitmatrix, cli, encoding, interconnect, pruning
from boolnet import model as model_mod
from boolnet.bitmatrix import BitMatrix
from boolnet.cli import main
from boolnet.config import (
    SCHEMA,
    apply_overrides,
    default_config,
    load_config,
    train_config_from,
)
from boolnet.data import MNIST_FILES, synth_boolean_task
from boolnet.model import eval_circuit_layers, harden
from boolnet.serialize import (
    dump_netlist,
    load_checkpoint,
    save_checkpoint,
    save_netlist,
)
from boolnet.model import random_network
from boolnet.training import TrainConfig

SYNTH_INI = """\
[data]
dataset = synth
synth_kind = parity-of-subset
synth_features = 8
synth_samples = 1200

[encoding]
mode = binary

[model]
layer_widths = 16 8

[train]
total_epochs = 4
finetune_epochs = 1
layers_to_learn = 1
c = 4
tau = 1.0
batch_size = 50
lr_init = 0.05
seed = 1
"""


@pytest.fixture(scope="module")
def synth_run(tmp_path_factory):
    """One trained synth checkpoint shared by the read-only CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    ini = root / "run.ini"
    ini.write_text(SYNTH_INI)
    out = root / "train"
    rc = main(["train", "--config", str(ini), "--out", str(out), "--quiet"])
    assert rc == 0
    return ini, out


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


# ------------------------------------------------------------------ train


def test_train_writes_artifacts(synth_run):
    _, out = synth_run
    assert sorted(os.listdir(out)) == [
        "checkpoint.npz", "manifest.json", "metrics.csv"
    ]

    rows = _read_csv(out / "metrics.csv")
    assert rows[0] == ["epoch", "split", "accuracy", "loss", "wall_clock_s",
                       "phase"]
    assert all(len(r) == 6 for r in rows[1:])
    assert {r[1] for r in rows[1:]} == {"train", "val"}
    epochs = sorted({int(r[0]) for r in rows[1:]})
    assert epochs == list(range(5))  # 4 schedule epochs + 1 finetune
    assert all(0.0 <= float(r[2]) <= 1.0 for r in rows[1:])


def test_train_manifest_contents(synth_run):
    _, out = synth_run
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "train"
    assert manifest["seed"] == 1
    assert manifest["numpy_version"] == np.__version__
    assert manifest["adam"] == {"beta1": 0.9, "beta2": 0.999, "eps": 1e-8}
    assert manifest["config"]["train"]["total_epochs"] == 4
    assert manifest["config"]["model"]["layer_widths"] == [16, 8]
    assert manifest["dataset_provenance"].startswith("synth:")
    assert any(p.endswith("checkpoint.npz") for p in manifest["outputs"])
    assert manifest["wall_s"] > 0


def test_manifest_started_utc_is_stamped_before_training(
    synth_run, tmp_path, monkeypatch
):
    ini, _ = synth_run
    train_called = []

    def stamped(*args, **kwargs):
        train_called.append(datetime.datetime.now(datetime.timezone.utc))
        return original(*args, **kwargs)

    original = cli.train
    monkeypatch.setattr(cli, "train", stamped)
    before_main = datetime.datetime.now(datetime.timezone.utc)
    rc = main([
        "train", "--config", str(ini), "--out", str(tmp_path), "--quiet",
        "--set", "train.total_epochs=1", "--set", "train.finetune_epochs=0",
    ])
    assert rc == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    started = datetime.datetime.fromisoformat(manifest["started_utc"])
    assert before_main <= started <= train_called[0]


def test_checkpoint_round_trips_through_loader(synth_run):
    _, out = synth_run
    model, thresholds, extra = load_checkpoint(out / "checkpoint.npz")
    assert thresholds is None  # binary encoding stores no thresholds
    assert extra["train_config"]["seed"] == 1
    assert 0.0 <= extra["test_accuracy"] <= 1.0
    assert model.input_width == 8


def test_set_override_beats_config_file(synth_run, tmp_path):
    ini, _ = synth_run
    out = tmp_path / "short"
    rc = main([
        "train", "--config", str(ini), "--out", str(out), "--quiet",
        "--set", "train.total_epochs=2",
        "--set", "train.finetune_epochs=0",
    ])
    assert rc == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["train"]["total_epochs"] == 2
    rows = _read_csv(out / "metrics.csv")
    assert max(int(r[0]) for r in rows[1:]) == 1  # epochs 0 and 1


# One non-default text per TrainConfig field, each valid on its own.
TRAIN_OVERRIDES = {
    "total_epochs": ("7", 7),
    "finetune_epochs": ("2", 2),
    "layers_to_learn": ("2", 2),
    "c": ("6", 6),
    "r": ("3", 3),
    "beta": ("5", 5),
    "tau": ("2.5", 2.5),
    "batch_size": ("17", 17),
    "lr_init": ("0.5", 0.5),
    "lr_final": ("1e-6", 1e-6),
    "sampling_mode": ("gradient_guided", "gradient_guided"),
    "interconnect_mode": ("fixed", "fixed"),
    "seed": ("9", 9),
}


def test_train_section_is_train_config(tmp_path):
    assert set(SCHEMA["train"]) == set(TRAIN_OVERRIDES)
    assert train_config_from(default_config()) == TrainConfig()
    fields = dataclasses.fields(TrainConfig)
    assert sorted(f.name.lower() for f in fields) == sorted(TRAIN_OVERRIDES)
    ini = tmp_path / "train.ini"
    ini.write_text("[train]\n" + "".join(
        f"{key} = {text}\n" for key, (text, _) in TRAIN_OVERRIDES.items()
    ))
    from_file = train_config_from(load_config(str(ini)))
    for f in fields:
        key = f.name.lower()
        text, value = TRAIN_OVERRIDES[key]
        cfg = default_config()
        apply_overrides(cfg, [f"train.{key}={text}"])
        assert getattr(train_config_from(cfg), f.name) == value, key
        assert getattr(from_file, f.name) == value, key
    cfg = default_config()
    apply_overrides(cfg, ["train.r=3", "train.r="])  # empty: R = C // 2
    assert cfg["train"]["r"] is None


def test_train_rerun_is_deterministic(synth_run, tmp_path, capsys):
    ini, _ = synth_run
    dumps, metrics = [], []
    for sub in ("a", "b"):
        out = tmp_path / sub
        rc = main([
            "train", "--config", str(ini), "--out", str(out), "--quiet",
            "--set", "train.total_epochs=3",
        ])
        assert rc == 0
        model, _, _ = load_checkpoint(out / "checkpoint.npz")
        dumps.append(dump_netlist(harden(model)))
        rows = _read_csv(out / "metrics.csv")
        # Drop the wall-clock column; everything else must be bit-equal.
        metrics.append([r[:4] + r[5:] for r in rows])
    assert dumps[0] == dumps[1]
    assert metrics[0] == metrics[1]


def test_train_rerun_in_fresh_processes_is_bit_identical(
    synth_run, tmp_path, monkeypatch
):
    """`boolnet train` processes write checkpoints whose arrays are equal
    byte for byte: two reruns with one BLAS thread each, with random and
    with gradient-guided refresh, and a guided run with two BLAS threads.
    The guided runs read 250 input bits into 64 gates. At that shape of
    the refresh's score product (128 x 50 @ 50 x 250, float64), OpenBLAS
    rounds some random products differently with one and two threads.

    First, in process, a guided run on 16 input bits at tau = 0.05 with a
    refresh every 2 steps for 12 epochs: its confident samples get
    gradients dozens of binades below the others, so every refresh has
    slots whose scores a summation order can round (loose slots, not
    interconnect._exact_slots). Each must take the per-slot oracle's
    candidates. Keyed on the matrix product instead, about 1 in 40 of
    them picks others in this run."""
    import boolnet
    from boolnet import interconnect

    ini, _ = synth_run
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(boolnet.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    guided = [
        "--set", "train.sampling_mode=gradient_guided",
        "--set", "data.synth_features=250", "--set", "model.layer_widths=64 8",
    ]
    loose_run = guided[:2] + [
        "--set", "data.synth_features=16", "--set", "model.layer_widths=64 8",
        "--set", "train.c=8", "--set", "train.tau=0.05",
        "--set", "train.total_epochs=12", "--set", "train.beta=2",
    ]

    refreshes = []
    top_r = interconnect._guided_top_r

    def recorded(R, I, x, dy, kept, chunk):
        got = top_r(R, I, x, dy, kept, chunk)
        refreshes.append((R, I, np.array(x), np.array(dy), kept.copy(), got))
        return got

    monkeypatch.setattr(interconnect, "_guided_top_r", recorded)
    out = tmp_path / "in-process"
    argv = ["train", "--config", str(ini), "--out", str(out), "--quiet"]
    assert main(argv + loose_run) == 0
    monkeypatch.undo()
    n_loose = 0
    for R, I, x, dy, kept, got in refreshes:
        dy = dy.astype(np.float64)
        loose = np.flatnonzero(~interconnect._exact_slots(dy))
        scores = interconnect.connection_scores_chunk(x, dy[:, loose])
        for s, score in zip(loose, scores):
            order = np.lexsort((np.arange(I), score))
            want = order[~np.isin(order, kept[s])][:R]
            assert np.array_equal(got[s], want), s
        n_loose += loose.size
    assert n_loose > 0

    def checkpoint(name, threads, args=()):
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS"):
            env[var] = threads
        out = tmp_path / name
        subprocess.run(
            [
                sys.executable, "-m", "boolnet.cli", "train",
                "--config", str(ini), "--out", str(out), "--quiet", *args,
            ],
            env=env, check=True, timeout=300,
        )
        with np.load(out / "checkpoint.npz") as data:
            return {k: data[k] for k in data.files}

    guided_1 = checkpoint("guided", "1", guided)
    for first, second in (
        (checkpoint("a", "1"), checkpoint("b", "1")),
        (guided_1, checkpoint("guided-again", "1", guided)),
        (guided_1, checkpoint("guided-2-threads", "2", guided)),
    ):
        assert first.keys() == second.keys()
        for k, a in first.items():
            b = second[k]
            assert (a.dtype, a.shape) == (b.dtype, b.shape), k
            assert a.tobytes() == b.tobytes(), k


def test_quiet_flag_suppresses_progress(synth_run, tmp_path, capsys):
    ini, _ = synth_run
    capsys.readouterr()
    out = tmp_path / "quiet"
    rc = main([
        "train", "--config", str(ini), "--out", str(out), "--quiet",
        "--set", "train.total_epochs=1", "--set", "train.finetune_epochs=0",
    ])
    assert rc == 0
    captured = capsys.readouterr().out
    assert "epoch" not in captured
    assert "test accuracy" in captured


# ------------------------------------------------------------- prune/eval


def test_prune_exact_passes_keep_eval_accuracy(synth_run, tmp_path, capsys):
    ini, out = synth_run
    capsys.readouterr()
    rc = main([
        "eval", "--config", str(ini),
        "--checkpoint", str(out / "checkpoint.npz"), "--split", "test",
    ])
    assert rc == 0
    before = capsys.readouterr().out.splitlines()[-1]

    prune_dir = tmp_path / "pruned"
    rc = main([
        "prune", "--config", str(ini),
        "--checkpoint", str(out / "checkpoint.npz"),
        "--out", str(prune_dir), "--passes", "trivial,equivalence",
    ])
    assert rc == 0
    assert (prune_dir / "pruned.netlist").exists()
    report = _read_csv(prune_dir / "prune_report.csv")
    assert report[0] == ["pass", "layer", "before", "after", "accuracy"]
    assert {r[0] for r in report[1:]} == {"trivial", "logic-equivalence"}

    capsys.readouterr()
    rc = main([
        "eval", "--config", str(ini),
        "--netlist", str(prune_dir / "pruned.netlist"), "--split", "test",
    ])
    assert rc == 0
    after = capsys.readouterr().out.splitlines()[-1]
    # Rewrite-only passes cannot change any prediction.
    assert before == after


def test_prune_all_passes_reports_accuracy(synth_run, tmp_path, capsys):
    ini, out = synth_run
    prune_dir = tmp_path / "pruned_all"
    capsys.readouterr()
    rc = main([
        "prune", "--config", str(ini),
        "--checkpoint", str(out / "checkpoint.npz"),
        "--out", str(prune_dir),
        "--greedy-threshold", "0.98", "--similarity-c", "0.99",
        "--split", "val",
    ])
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "val accuracy" in stdout
    report = _read_csv(prune_dir / "prune_report.csv")
    assert {r[0] for r in report[1:]} == {
        "trivial", "logic-equivalence", "greedy", "similarity"
    }
    # Per-layer gate counts never grow.
    assert all(int(r[3]) <= int(r[2]) for r in report[1:])
    manifest = json.loads((prune_dir / "manifest.json").read_text())
    assert manifest["command"] == "prune"
    assert manifest["dataset_provenance"].startswith("synth:")


def test_prune_evaluates_once_per_pass_boundary(
    synth_run, tmp_path, monkeypatch
):
    ini, out = synth_run
    evaluated = []  # n_samples of every eval_circuit_layers call
    kernel = []  # (gates, words) of every layer kernel call while profiling

    def counted(circuit, inputs):
        evaluated.append(inputs.n_samples)
        return eval_circuit_layers(circuit, inputs)

    def counted_kernel(layer, words, valid):
        kernel.append((layer.n_gates, valid.size))
        return model_mod._eval_layer_words(layer, words, valid)

    monkeypatch.setattr(model_mod, "eval_circuit_layers", counted)
    monkeypatch.setattr(pruning, "eval_circuit_layers", counted)
    monkeypatch.setattr(pruning, "_eval_layer_words", counted_kernel)

    def recording(fn, results):
        def wrapped(*args):
            results.append(fn(*args))
            return results[-1]

        return wrapped

    by_pass = {
        "trivial": "trivial_prune",
        "logic-equivalence": "logic_equivalence_prune",
        "greedy": "greedy_prune",
        "similarity": "similarity_prune",
    }
    results = {fn: [] for fn in by_pass.values()}
    for fn, got in results.items():
        monkeypatch.setattr(cli, fn, recording(getattr(cli, fn), got))
    split = []
    monkeypatch.setattr(
        cli, "_encoded_split_for_circuit",
        recording(cli._encoded_split_for_circuit, split),
    )
    prune_dir = tmp_path / "pruned_counted"
    rc = main([
        "prune", "--config", str(ini),
        "--checkpoint", str(out / "checkpoint.npz"),
        "--out", str(prune_dir), "--split", "val",
    ])
    assert rc == 0
    bits, labels, _ = split[0]
    # The equivalence pass's signature block is the only whole-circuit
    # evaluation. The split goes through the profile: every gate of the
    # starting circuit once, then after the four passes together fewer
    # gates than one more full evaluation would take.
    assert evaluated == [64 * pruning.SIGNATURE_WORDS]
    widths = harden(load_checkpoint(out / "checkpoint.npz")[0]).layer_widths
    assert {w for _, w in kernel} == {-(-bits.n_samples // 64)}
    assert [g for g, _ in kernel[: len(widths)]] == widths
    assert sum(g for g, _ in kernel[len(widths) :]) < sum(widths)
    report = _read_csv(prune_dir / "prune_report.csv")
    for row in report[1:]:
        (pruned, _), = results[by_pass[row[0]]]
        assert float(row[4]) == model_mod.accuracy(pruned, bits, labels)


def test_netlist_beats_checkpoint_without_hardening_it(
    synth_run, tmp_path, monkeypatch, capsys
):
    # With both artifacts the checkpoint only supplies the encoder, so
    # its model must not be hardened (or validated) at all.
    ini, out = synth_run
    other = harden(random_network(8, [6, 4], 2, 4, seed=3))
    nl = tmp_path / "other.netlist"
    save_netlist(nl, other)

    def no_harden(model):
        raise AssertionError("checkpoint model hardened")

    monkeypatch.setattr(cli, "harden", no_harden)
    capsys.readouterr()
    rc = main([
        "eval", "--config", str(ini), "--checkpoint",
        str(out / "checkpoint.npz"), "--netlist", str(nl),
        "--split", "test",
    ])
    assert rc == 0
    printed = capsys.readouterr().out.splitlines()[-1]
    x, y = synth_boolean_task(
        "parity-of-subset", 8, 1200, seed=1
    ).split_arrays("test")
    acc = model_mod.accuracy(other, BitMatrix.from_array(x), y)
    assert printed.startswith(f"test accuracy {acc:.4f} ")


GOLDEN_INI = """\
[data]
dataset = synth
synth_kind = threshold-vote
synth_features = 12
synth_samples = 3000

[encoding]
mode = binary
"""

# SHA-256 of each output file of the CLI goldens below.
CLI_GOLDEN = {
    "pruned.netlist":
        "e99fa0772eec00f8d09f60c101bce57c4752f35976edc817b1c35e0810831458",
    "prune_report.csv":
        "33902bd7b4f6acac6dbdbdc41a81a9a241e50e5fd556394bce27ece5d7c0fd2c",
    "confusion.csv":
        "c9e639aa6bece5202bb4f22a3391cc4111ce4ca4eecfdd60ac0d4fee8681b295",
}


def test_cli_prune_and_eval_goldens(tmp_path, capsys):
    # A fixed random model (no training, so no float32 exp in the
    # digests) whose four passes each remove gates, and whose two lossy
    # passes move the reported accuracy. Final groups of 15 gates.
    ini = tmp_path / "golden.ini"
    ini.write_text(GOLDEN_INI)
    ckpt = tmp_path / "golden.npz"
    save_checkpoint(
        ckpt, random_network(12, [64, 64, 30], 2, 4, seed=2, logit_scale=1.0)
    )
    common = ["--config", str(ini), "--checkpoint", str(ckpt)]
    assert main([
        "prune", *common, "--out", str(tmp_path / "prune"),
        "--greedy-threshold", "0.8", "--similarity-c", "0.6",
    ]) == 0
    assert main(["eval", *common, "--out", str(tmp_path / "eval")]) == 0
    capsys.readouterr()
    report = _read_csv(tmp_path / "prune" / "prune_report.csv")
    assert all(int(r[3]) < int(r[2]) for r in report[1:] if r[1] == "1")
    assert len({r[4] for r in report[1:]}) == 3
    got = {
        name: hashlib.sha256((tmp_path / sub / name).read_bytes()).hexdigest()
        for sub, name in (
            ("prune", "pruned.netlist"), ("prune", "prune_report.csv"),
            ("eval", "confusion.csv"),
        )
    }
    assert got == CLI_GOLDEN


def test_eval_writes_confusion_matrix(synth_run, tmp_path, capsys):
    ini, out = synth_run
    eval_dir = tmp_path / "eval"
    capsys.readouterr()
    rc = main([
        "eval", "--config", str(ini),
        "--checkpoint", str(out / "checkpoint.npz"),
        "--split", "test", "--out", str(eval_dir),
    ])
    assert rc == 0
    line = capsys.readouterr().out.splitlines()[-1]
    rows = _read_csv(eval_dir / "confusion.csv")
    assert rows[0] == ["true_class", "pred_0", "pred_1"]
    counts = np.array([[int(v) for v in r[1:]] for r in rows[1:]])
    assert counts.sum() == int(line.split()[-2])
    acc = counts.trace() / counts.sum()
    assert f"{acc:.4f}" in line


def test_eval_limit_caps_samples(synth_run, capsys):
    ini, out = synth_run
    capsys.readouterr()
    rc = main([
        "eval", "--config", str(ini),
        "--checkpoint", str(out / "checkpoint.npz"),
        "--split", "test", "--limit", "7",
    ])
    assert rc == 0
    assert "on 7 samples" in capsys.readouterr().out


@pytest.mark.parametrize(
    "command, limit",
    [("eval", "-5"), ("eval", "0"), ("prune", "-1")],
)
def test_limit_below_one_exits_2(synth_run, tmp_path, command, limit, capsys):
    ini, out = synth_run
    rc = main([
        command, "--config", str(ini),
        "--checkpoint", str(out / "checkpoint.npz"),
        "--out", str(tmp_path / "o"), "--limit", limit,
    ])
    assert rc == 2
    assert "--limit" in capsys.readouterr().err


@pytest.mark.parametrize(
    "overrides, key",
    [
        (["data.limit_train=-3"], "data.limit_train"),
        (["data.limit_test=-1"], "data.limit_test"),
        (["data.limit_train=0"], "data.limit_train"),
        (
            ["data.limit_train=0", "encoding.mode=thermometer",
             "encoding.thresholds=2"],
            "data.limit_train",
        ),
    ],
)
def test_bad_sample_cap_exits_2(synth_run, tmp_path, overrides, key, capsys):
    ini, _ = synth_run
    argv = ["train", "--config", str(ini), "--out", str(tmp_path / "o"),
            "--quiet"]
    for item in overrides:
        argv += ["--set", item]
    assert main(argv) == 2
    assert key in capsys.readouterr().err


def test_sample_caps_draw_seeded_rows_of_their_own_split():
    """data.limit_train and data.limit_test keep exactly that many rows of
    their own split, drawn from train.seed."""

    def picked(seed):
        cfg = default_config()
        apply_overrides(cfg, [
            "data.dataset=synth", "data.synth_features=64",
            "data.synth_samples=400", "encoding.mode=binary",
            "data.limit_train=50", "data.limit_test=20",
            f"train.seed={seed}",
        ])
        dataset, _, splits = cli._prepare(cfg, argparse.Namespace(data=None))
        # 64 random bits: every row of the dataset is distinct.
        where = {row.tobytes(): i for i, row in enumerate(dataset.features)}
        out = {}
        for name, cap in (("train", 50), ("test", 20)):
            bits, labels = splits[name]
            idx = np.array([where[row.tobytes()] for row in bits.to_array()])
            assert len(idx) == cap
            assert np.isin(idx, dataset.indices(name)).all()
            assert np.array_equal(labels, dataset.labels[idx])
            out[name] = idx
        assert len(splits["val"][1]) == dataset.indices("val").size
        return out

    first, again, other = picked(3), picked(3), picked(4)
    for name in ("train", "test"):
        assert np.array_equal(first[name], again[name])
        assert not np.array_equal(first[name], other[name])


@pytest.mark.parametrize(
    "overrides, key",
    [
        (["encoding.mode=thermometer", "encoding.thresholds=0"],
         "encoding.thresholds"),
        (["data.val_size=-1"], "data.val_size"),
        (["model.layer_widths=16 15"], "model.layer_widths"),
        (["model.layer_widths=2 2"], "model.layer_widths"),  # < train.c
        (["model.layer_widths=0 2"], "model.layer_widths"),
        (["model.layer_widths=16 0"], "model.layer_widths"),
        (["data.synth_kind=nope"], "data.synth_kind"),
        (["data.synth_features=0"], "data.synth_features"),
        (["data.synth_features=-2"], "data.synth_features"),
        (["data.synth_samples=-5"], "data.synth_samples"),
        (["data.synth_samples=1"], "data.synth_samples"),  # no training row
        (["data.dataset=nope", "data.path=."], "data.dataset"),
        (["encoding.mode=gray"], "encoding.mode"),
        (["train.c=abc"], "train.c"),
    ],
)
def test_config_that_cannot_train_exits_2(
    synth_run, tmp_path, overrides, key, capsys
):
    ini, _ = synth_run
    argv = ["train", "--config", str(ini), "--out", str(tmp_path / "o"),
            "--quiet"]
    for item in overrides:
        argv += ["--set", item]
    assert main(argv) == 2
    assert key in capsys.readouterr().err


def test_fewer_epochs_than_learned_layers_exits_2(synth_run, tmp_path, capsys):
    """One epoch over two learned layers gives each interconnect phase 0
    epochs: training would save the untrained model as its checkpoint."""
    ini, _ = synth_run
    out = tmp_path / "o"
    argv = ["train", "--config", str(ini), "--out", str(out), "--quiet",
            "--set", "train.total_epochs=1", "--set", "train.layers_to_learn=2"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "train.total_epochs=1" in err and "train.layers_to_learn=2" in err
    assert not (out / "checkpoint.npz").exists()


@pytest.mark.parametrize(
    "override",
    ["train.tau=nan", "train.tau=inf", "train.lr_init=inf",
     "model.logit_scale=nan", "model.logit_scale=inf",
     "model.logit_scale=-1"],
)
def test_non_finite_or_negative_config_value_exits_2(
    synth_run, tmp_path, override, capsys
):
    ini, _ = synth_run
    argv = ["train", "--config", str(ini), "--out", str(tmp_path / "o"),
            "--quiet", "--set", "model.layer_widths=8 4",
            "--set", "train.total_epochs=1", "--set", "train.c=2",
            "--set", override]
    assert main(argv) == 2
    key = override.split("=")[0].split(".")[1]
    assert key in capsys.readouterr().err


def test_val_size_taking_every_training_file_sample_exits_2(tmp_path, capsys):
    _tiny_mnist(tmp_path)  # 40 training-file samples
    rc = main([
        "train", "--out", str(tmp_path / "o"), "--quiet",
        "--data", str(tmp_path), "--set", "data.val_size=40",
        "--set", "encoding.thresholds=2", "--set", "model.layer_widths=10",
    ])
    assert rc == 2
    assert "data.val_size=40" in capsys.readouterr().err


def test_manifest_argv_is_the_argv_given_to_main(
    synth_run, tmp_path, monkeypatch
):
    ini, out = synth_run
    argv = [
        "eval", "--config", str(ini),
        "--checkpoint", str(out / "checkpoint.npz"), "--out", str(tmp_path),
    ]
    monkeypatch.setattr(sys, "argv", ["host-program", "--x"])
    assert main(argv) == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["argv"] == argv
    # Without an argv, main reads the process's own arguments.
    monkeypatch.setattr(sys, "argv", ["boolnet", *argv])
    assert main() == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["argv"] == argv


# ------------------------------------------------------------ estimate-mem


def test_estimate_mem_matches_formulas(tmp_path, capsys):
    csv_path = tmp_path / "mem.csv"
    rc = main([
        "estimate-mem", "12000", "30720", "--k", "2", "--C", "8",
        "--csv", str(csv_path),
    ])
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "2.949 GB" in stdout
    assert "1.536 MB" in stdout
    rows = _read_csv(csv_path)
    assert rows[0] == ["G", "I", "k", "C", "bytes_full", "bytes_sparse"]
    assert rows[1] == ["12000", "30720", "2", "8", "2949120000", "1536000"]


def test_estimate_mem_nonpositive_argument_exits_2(capsys):
    assert main(["estimate-mem", "0", "10"]) == 2
    assert "positive" in capsys.readouterr().err


# ------------------------------------------------------------- exit codes


def test_unknown_config_key_exits_2(tmp_path, capsys):
    ini = tmp_path / "bad.ini"
    ini.write_text("[data]\ndataset = synth\nbogus = 1\n")
    rc = main(["train", "--config", str(ini), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "data.bogus" in capsys.readouterr().err


@pytest.mark.parametrize("case", ["missing", "unknown section"])
def test_bad_config_file_exits_2(tmp_path, case, capsys):
    ini = tmp_path / "run.ini"
    if case == "unknown section":
        ini.write_text("[data]\ndataset = synth\n[bogus]\n")
    rc = main(["train", "--config", str(ini), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert ("--config" if case == "missing" else "bogus") in capsys.readouterr().err


def test_unknown_set_key_exits_2(tmp_path, capsys):
    rc = main([
        "train", "--out", str(tmp_path / "o"),
        "--set", "train.bogus=1",
    ])
    assert rc == 2
    assert "train.bogus" in capsys.readouterr().err


def test_malformed_set_exits_2(tmp_path, capsys):
    rc = main(["train", "--out", str(tmp_path / "o"), "--set", "nodot"])
    assert rc == 2
    assert "section.key=value" in capsys.readouterr().err


def test_missing_data_dir_exits_2(tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("BOOLNET_DATA_DIR", raising=False)
    rc = main(["train", "--out", str(tmp_path / "o")])  # mnist, no path
    assert rc == 2
    assert "BOOLNET_DATA_DIR" in capsys.readouterr().err


def test_unreadable_dataset_exits_3(tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    rc = main([
        "train", "--out", str(tmp_path / "o"), "--data", str(empty),
    ])
    assert rc == 3
    assert "missing dataset file" in capsys.readouterr().err


def test_foreign_checkpoint_exits_4(synth_run, tmp_path, capsys):
    ini, _ = synth_run
    bogus = tmp_path / "bogus.npz"
    np.savez(bogus, stuff=np.arange(4))
    rc = main([
        "eval", "--config", str(ini), "--checkpoint", str(bogus),
        "--split", "test",
    ])
    assert rc == 4


@pytest.mark.parametrize("flag", ["--checkpoint", "--netlist"])
def test_missing_artifact_exits_2(synth_run, tmp_path, flag, capsys):
    ini, _ = synth_run
    missing = tmp_path / "does-not-exist"
    rc = main(["eval", "--config", str(ini), flag, str(missing)])
    assert rc == 2
    assert "does-not-exist" in capsys.readouterr().err


def test_prune_out_naming_a_file_exits_2(synth_run, tmp_path, capsys):
    ini, out = synth_run
    taken = tmp_path / "taken"
    taken.write_text("")
    rc = main([
        "prune", "--config", str(ini), "--passes", "trivial",
        "--checkpoint", str(out / "checkpoint.npz"), "--out", str(taken),
    ])
    assert rc == 2
    assert "taken" in capsys.readouterr().err


def test_width_mismatch_exits_2(synth_run, tmp_path, capsys):
    ini, _ = synth_run
    other = harden(random_network(12, [4, 4], 2, 4, seed=0))
    nl = tmp_path / "other.netlist"
    save_netlist(nl, other)
    rc = main([
        "eval", "--config", str(ini), "--netlist", str(nl),
        "--split", "test",
    ])
    assert rc == 2
    assert "encoded width" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag, value",
    [("--similarity-c", "nan"), ("--similarity-c", "0"),
     ("--similarity-c", "1.5"), ("--greedy-threshold", "nan"),
     ("--greedy-threshold", "0.2"), ("--greedy-threshold", "1.01")],
)
def test_prune_threshold_out_of_range_exits_2_before_any_pass(
    synth_run, tmp_path, capsys, flag, value
):
    ini, out = synth_run
    rc = main([
        "prune", "--config", str(ini),
        "--checkpoint", str(out / "checkpoint.npz"),
        "--out", str(tmp_path / "o"), flag, value,
    ])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert flag in captured.err


@pytest.mark.parametrize("budget", ["nan", "-1"])
def test_budget_seconds_not_a_number_at_least_0_exits_2(
    synth_run, tmp_path, capsys, budget
):
    ini, _ = synth_run
    rc = main([
        "train", "--config", str(ini), "--out", str(tmp_path / "o"),
        "--quiet", "--budget-seconds", budget,
    ])
    assert rc == 2
    assert "budget_seconds" in capsys.readouterr().err


def test_unknown_prune_pass_exits_2(synth_run, tmp_path, capsys):
    ini, out = synth_run
    rc = main([
        "prune", "--config", str(ini),
        "--checkpoint", str(out / "checkpoint.npz"),
        "--out", str(tmp_path / "o"), "--passes", "trivial,magic",
    ])
    assert rc == 2
    assert "magic" in capsys.readouterr().err


def test_eval_without_artifact_exits_2(synth_run, capsys):
    ini, _ = synth_run
    rc = main(["eval", "--config", str(ini), "--split", "test"])
    assert rc == 2
    assert "--checkpoint or --netlist" in capsys.readouterr().err


# ---------------------------------------------------------------- env var


def _tiny_mnist(tmp_path, n_train=40, n_test=12, side=5):
    rng = np.random.default_rng(7)
    shapes = {
        "train_images": ((n_train, side, side), 0x803),
        "train_labels": ((n_train,), 0x801),
        "test_images": ((n_test, side, side), 0x803),
        "test_labels": ((n_test,), 0x801),
    }
    for key, (dims, magic) in shapes.items():
        hi = 10 if "labels" in key else 256
        payload = rng.integers(0, hi, size=dims).astype(np.uint8)
        header = struct.pack(">i", magic) + b"".join(
            struct.pack(">i", d) for d in dims
        )
        (tmp_path / MNIST_FILES[key]).write_bytes(header + payload.tobytes())


def test_train_holds_no_unpacked_split(tmp_path):
    """`boolnet train` keeps its splits packed, one bit an entry, up to the
    training batch. Here the training split is 3000 rows of 784 pixels at
    T = 10: 23.5 MB as one uint8 byte an entry, 2.9 MB packed. Under
    tracemalloc the whole command peaked at 38.2 MB when it unpacked the
    splits before training, and at 12.5 MB with them packed."""
    _tiny_mnist(tmp_path, n_train=3500, n_test=500, side=28)
    tracemalloc.start()
    try:
        rc = main([
            "train", "--data", str(tmp_path), "--out", str(tmp_path / "o"),
            "--quiet", "--set", "data.val_size=500",
            "--set", "model.layer_widths=100", "--set", "train.total_epochs=1",
        ])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 0
    assert peak <= 20e6


@pytest.mark.parametrize("command", ["eval", "prune"])
def test_fewer_classes_than_labels_exits_2(tmp_path, command, capsys):
    """A 2-class checkpoint on 10-class MNIST-format files: eval must not
    crash in the confusion matrix, and prune must not report accuracies
    of a circuit that cannot name most labels."""
    _tiny_mnist(tmp_path)  # 5 x 5 images, labels 0..9
    ck = tmp_path / "two.npz"
    save_checkpoint(
        ck, random_network(25, [16, 4], 2, 4, seed=0),
        thresholds=np.full((25, 1), 127.5),
    )
    rc = main([
        command, "--checkpoint", str(ck), "--data", str(tmp_path),
        "--set", "data.val_size=8", "--out", str(tmp_path / "o"),
    ])
    assert rc == 2
    assert "2 classes" in capsys.readouterr().err


def test_pixels_without_thresholds_exit_2(tmp_path, capsys):
    """A bare netlist has no thermometer thresholds, so 0..255 pixels
    cannot be its input bits."""
    _tiny_mnist(tmp_path)
    nl = tmp_path / "bare.netlist"
    save_netlist(nl, harden(random_network(25, [16, 10], 10, 4, seed=0)))
    rc = main([
        "eval", "--netlist", str(nl), "--data", str(tmp_path),
        "--set", "data.val_size=8",
    ])
    assert rc == 2
    assert "encoding.mode=thermometer" in capsys.readouterr().err


def _tiny_mnist_checkpoint(tmp_path):
    ck = tmp_path / "ten.npz"
    save_checkpoint(
        ck, random_network(25, [24, 10], 10, 4, seed=3, logit_scale=1.0),
        thresholds=np.full((25, 1), 127.5),
    )
    return ck


def test_unread_input_rows_change_no_output(tmp_path, monkeypatch):
    """Eval and prune compute only the input rows that layer 0 reads and
    leave the rest zero. Each feature's first threshold lies below every
    pixel, so many unread rows would be all ones; every output file must
    still equal that of a run that encodes every row."""
    _tiny_mnist(tmp_path)
    ck = tmp_path / "ck.npz"
    save_checkpoint(
        ck, random_network(75, [24, 24, 10], 10, 4, seed=5, logit_scale=1.0),
        thresholds=np.tile([-1.0, 100.0, 200.0], (25, 1)),
    )

    def run(sub):
        common = ["--checkpoint", str(ck), "--data", str(tmp_path),
                  "--set", "data.val_size=8"]
        assert main([
            "prune", *common, "--out", str(tmp_path / sub / "prune"),
            "--greedy-threshold", "0.8", "--similarity-c", "0.6",
        ]) == 0
        assert main(["eval", *common, "--out", str(tmp_path / sub)]) == 0
        return [
            (tmp_path / sub / name).read_bytes()
            for name in ("prune/pruned.netlist", "prune/prune_report.csv",
                         "confusion.csv")
        ]

    masks = []

    def recorded(encoder, data, read=None):
        unread = encoding.encode(encoder, data).words[~read]
        masks.append((read.sum(), unread.any()))
        return encoding.encode(encoder, data, read)

    monkeypatch.setattr(cli, "encode", recorded)
    partial = run("partial")
    assert len(masks) == 2
    assert all(n_read < 75 and ones for n_read, ones in masks)
    def every_row(encoder, data, read=None):
        return encoding.encode(encoder, data)

    monkeypatch.setattr(cli, "encode", every_row)
    assert run("full") == partial


@pytest.mark.parametrize("command, split, overrides", [
    ("prune", None, ["data.val_size=0"]),  # prune scores val by default
    ("eval", "val", ["data.val_size=0"]),
    ("eval", "train", ["data.val_size=40"]),
])
def test_empty_scored_split_exits_2_before_any_pass(
    tmp_path, capsys, command, split, overrides
):
    _tiny_mnist(tmp_path)  # 40 training-file samples
    argv = [command, "--checkpoint", str(_tiny_mnist_checkpoint(tmp_path)),
            "--data", str(tmp_path), "--out", str(tmp_path / "o")]
    argv += ["--split", split] if split else []
    for o in overrides:
        argv += ["--set", o]
    rc = main(argv)
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert f"the {split or 'val'} split is empty" in captured.err
    assert os.listdir(tmp_path / "o") == []


@pytest.mark.parametrize("command", ["eval", "prune"])
def test_negative_val_size_exits_2(tmp_path, capsys, command):
    _tiny_mnist(tmp_path)
    rc = main([
        command, "--checkpoint", str(_tiny_mnist_checkpoint(tmp_path)),
        "--data", str(tmp_path), "--split", "val",
        "--set", "data.val_size=-1", "--out", str(tmp_path / "o"),
    ])
    assert rc == 2
    assert "data.val_size must be >= 0" in capsys.readouterr().err


@pytest.mark.parametrize("command, split, gone, outputs", [
    ("eval", "test", ["train_images", "train_labels"], ["confusion.csv"]),
    ("prune", "val", ["test_images", "test_labels"],
     ["pruned.netlist", "prune_report.csv"]),
])
def test_scoring_reads_only_the_split_files(
    tmp_path, command, split, gone, outputs
):
    """The outputs are the same when the other split's files are gone."""
    ck = _tiny_mnist_checkpoint(tmp_path)
    got = {}
    for case in ("all files", "split files"):
        data = tmp_path / case
        data.mkdir()
        _tiny_mnist(data)
        if case == "split files":
            for key in gone:
                (data / MNIST_FILES[key]).unlink()
        rc = main([
            command, "--checkpoint", str(ck), "--data", str(data),
            "--split", split, "--set", "data.val_size=8",
            "--out", str(tmp_path / case / "o"),
        ])
        assert rc == 0
        got[case] = [(tmp_path / case / "o" / f).read_bytes() for f in outputs]
    assert got["all files"] == got["split files"]


@pytest.mark.parametrize("case", ["not gzip", "directory"])
def test_unreadable_dataset_file_exits_3(tmp_path, case, capsys):
    _tiny_mnist(tmp_path)
    labels = tmp_path / MNIST_FILES["train_labels"]
    labels.unlink()
    if case == "not gzip":
        labels.with_name(labels.name + ".gz").write_bytes(b"not gzip data")
    else:
        labels.mkdir()
    rc = main([
        "train", "--out", str(tmp_path / "o"), "--data", str(tmp_path),
        "--set", "data.val_size=8",
    ])
    assert rc == 3
    assert "cannot read dataset" in capsys.readouterr().err


def test_data_dir_env_var(tmp_path, monkeypatch):
    _tiny_mnist(tmp_path)
    monkeypatch.setenv("BOOLNET_DATA_DIR", str(tmp_path))
    out = tmp_path / "run"
    rc = main([
        "train", "--out", str(out), "--quiet",
        "--set", "data.val_size=8",
        "--set", "encoding.thresholds=2",
        "--set", "model.layer_widths=10",
        "--set", "train.total_epochs=1",
        "--set", "train.finetune_epochs=0",
        "--set", "train.batch_size=8",
        "--set", "train.c=4",
    ])
    assert rc == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["dataset_provenance"].startswith("mnist-idx:")


PIPELINE_INI = """\
[data]
dataset = synth
synth_kind = parity-of-subset
synth_features = 40
synth_samples = 700

[encoding]
mode = thermometer
thresholds = 2

[model]
layer_widths = 48 32 8

[train]
total_epochs = 1
layers_to_learn = 1
c = 4
beta = 2
batch_size = 50
sampling_mode = gradient_guided
seed = 3
"""


def test_one_byte_budget_pipeline_is_bit_identical(tmp_path, monkeypatch):
    """A guided-refresh training epoch of a 3-layer net, then eval and
    all four prune passes, with one item per block in every blocked loop
    (a 1-byte WORK_BYTES, slot blocks of one slot, slabs of 8 samples),
    writes the parameters, confusion matrix and pruned netlist of the run
    at the default sizes, byte for byte."""
    ini = tmp_path / "pipeline.ini"
    ini.write_text(PIPELINE_INI)

    def run(name):
        out = tmp_path / name
        common = ["--config", str(ini)]
        train = ["train", *common, "--out", str(out / "train"), "--quiet"]
        assert main(train) == 0
        ckpt = ["--checkpoint", str(out / "train" / "checkpoint.npz")]
        assert main(["eval", *common, *ckpt, "--out", str(out / "eval")]) == 0
        assert main([
            "prune", *common, *ckpt, "--out", str(out / "prune"),
            "--similarity-c", "0.6",
        ]) == 0
        with np.load(out / "train" / "checkpoint.npz") as data:
            params = {k: data[k].tobytes() for k in data.files}
        files = (("eval", "confusion.csv"), ("prune", "pruned.netlist"))
        return params, [(out / sub / f).read_bytes() for sub, f in files]

    default = run("default")
    monkeypatch.setattr(bitmatrix, "WORK_BYTES", 1)
    monkeypatch.setattr(interconnect, "SLOT_BLOCK", 1)
    monkeypatch.setattr(encoding, "ENCODE_BLOCK", 8)
    monkeypatch.setattr(pruning, "PAIR_BYTES", 1)
    assert run("one-byte") == default
