"""Command-line surface: train, prune, eval, estimate-mem.

Every command that writes artifacts also writes a manifest.json capturing
argv, the resolved configuration, seeds, and library versions, so a run
can be reproduced from the manifest alone.

Exit codes: 0 success, 2 configuration/usage problems, 3 dataset
ingestion problems, 4 internal structural errors.
"""

from __future__ import annotations

import argparse
import csv
import datetime
import json
import os
import sys
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from . import __version__
from .bitmatrix import BitMatrix
from .config import apply_overrides, load_config, train_config_from
from .data import Dataset, load_cifar10, load_mnist_idx, synth_boolean_task
from .encoding import ThermometerEncoder, encode, fit_thresholds
from .errors import (
    BoolnetError,
    ConfigError,
    IngestionError,
    OversizedConeError,
    StructuralError,
    UsageError,
)
from .model import (
    HardCircuit,
    accuracy,
    estimate_interconnect_memory,
    format_bytes,
    harden,
    predict,
    random_network,
)
from .pruning import (
    greedy_prune,
    logic_equivalence_prune,
    profile_activations,
    similarity_prune,
    trivial_prune,
)
from .serialize import (
    load_checkpoint,
    load_netlist,
    save_checkpoint,
    save_netlist,
)
from .training import EncodedSplits, MetricRow, evaluate_arrays, train

DATA_DIR_ENV = "BOOLNET_DATA_DIR"

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INGESTION = 3
EXIT_INTERNAL = 4


@dataclass
class RunManifest:
    command: str
    argv: list[str]
    config: dict
    seed: int
    package_version: str = __version__
    numpy_version: str = np.__version__
    adam: dict = field(
        default_factory=lambda: {"beta1": 0.9, "beta2": 0.999, "eps": 1e-8}
    )
    dataset_provenance: str = ""
    outputs: list[str] = field(default_factory=list)
    started_utc: str = ""
    wall_s: float = 0.0

    def write(self, out_dir: str) -> str:
        path = os.path.join(out_dir, "manifest.json")
        with open(path, "w") as fh:
            json.dump(asdict(self), fh, indent=2, sort_keys=True)
            fh.write("\n")
        return path


def _data_path(cfg, args) -> str:
    path = getattr(args, "data", None) or cfg["data"]["path"] or os.environ.get(
        DATA_DIR_ENV, ""
    )
    return path


def _load_dataset(cfg, args) -> Dataset:
    d = cfg["data"]
    name = d["dataset"]
    if name == "synth":
        return synth_boolean_task(
            d["synth_kind"],
            d["synth_features"],
            d["synth_samples"],
            seed=cfg["train"]["seed"],
        )
    path = _data_path(cfg, args)
    if not path:
        raise ConfigError(
            f"dataset {name!r} needs --data, data.path, or ${DATA_DIR_ENV}"
        )
    if name == "mnist":
        return load_mnist_idx(path, d["val_size"], seed=cfg["train"]["seed"])
    if name == "cifar10":
        return load_cifar10(path, d["val_size"], seed=cfg["train"]["seed"])
    raise ConfigError(f"unknown dataset {name!r}")


def _limit(idx: np.ndarray, cap: int | None, seed: int) -> np.ndarray:
    if cap is None or cap >= idx.size:
        return idx
    rng = np.random.default_rng(seed)
    return np.sort(rng.permutation(idx)[:cap])


def _encode_split(
    encoder: ThermometerEncoder | None, features: np.ndarray
) -> np.ndarray:
    if encoder is None:
        if features.size and features.max() > 1:
            raise ConfigError(
                "encoding.mode=binary needs 0/1 features; use thermometer"
            )
        return features.astype(np.uint8)
    return encode(encoder, features).to_array()


def _prepare(cfg, args):
    """Dataset -> (dataset, encoder, dict of encoded split arrays)."""
    dataset = _load_dataset(cfg, args)
    seed = cfg["train"]["seed"]
    tr_idx = _limit(dataset.indices("train"), cfg["data"]["limit_train"], seed)
    te_idx = _limit(
        dataset.indices("test"), cfg["data"]["limit_test"], seed + 1
    )
    va_idx = dataset.indices("val")

    mode = cfg["encoding"]["mode"]
    if mode == "thermometer":
        encoder = fit_thresholds(
            dataset.features[tr_idx], cfg["encoding"]["thresholds"]
        )
    elif mode == "binary":
        encoder = None
    else:
        raise ConfigError(f"unknown encoding mode {mode!r}")

    splits = {}
    for name, idx in (("train", tr_idx), ("val", va_idx), ("test", te_idx)):
        splits[name] = (
            _encode_split(encoder, dataset.features[idx]),
            dataset.labels[idx],
        )
    return dataset, encoder, splits


def _write_metrics_csv(path: str, metrics: list[MetricRow]) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["epoch", "split", "accuracy", "loss", "wall_clock_s", "phase"])
        for m in metrics:
            w.writerow(
                [m.epoch, m.split, f"{m.accuracy:.6f}", f"{m.loss:.6f}",
                 f"{m.wall_clock_s:.3f}", m.phase]
            )


def _write_curves_csv(path: str, metrics: list[MetricRow]) -> None:
    """Wide per-epoch layout matching common plotting columns."""
    by_epoch: dict[int, dict[str, MetricRow]] = {}
    for m in metrics:
        by_epoch.setdefault(m.epoch, {})[m.split] = m
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["epoch", "time", "train_mean", "test_mean"])
        for epoch in sorted(by_epoch):
            row = by_epoch[epoch]
            tr = row.get("train")
            va = row.get("val")
            w.writerow(
                [
                    epoch,
                    f"{(va or tr).wall_clock_s:.3f}",
                    "" if tr is None else f"{tr.accuracy:.6f}",
                    "" if va is None else f"{va.accuracy:.6f}",
                ]
            )


def cmd_train(args) -> int:
    t_start = time.monotonic()
    cfg = load_config(args.config)
    apply_overrides(cfg, args.set or [])
    if args.seed is not None:
        cfg["train"]["seed"] = args.seed
    os.makedirs(args.out, exist_ok=True)

    dataset, encoder, splits = _prepare(cfg, args)
    tconf = train_config_from(cfg)
    input_width = splits["train"][0].shape[1]
    model = random_network(
        input_width,
        cfg["model"]["layer_widths"],
        dataset.num_classes,
        tconf.C,
        tau=tconf.tau,
        seed=tconf.seed,
        logit_scale=cfg["model"]["logit_scale"],
    )

    enc_splits = EncodedSplits(
        splits["train"][0], splits["train"][1],
        splits["val"][0], splits["val"][1],
    )

    def progress(row: MetricRow) -> None:
        if args.quiet:
            return
        print(
            f"epoch {row.epoch:4d} [{row.phase}] {row.split} "
            f"acc {row.accuracy:.4f} loss {row.loss:.4f} "
            f"({row.wall_clock_s:.1f}s)",
            flush=True,
        )

    model, metrics = train(
        model, enc_splits, tconf,
        budget_seconds=args.budget_seconds, progress=progress,
    )

    test_x, test_y = splits["test"]
    test_acc, test_loss = (
        evaluate_arrays(model, test_x, test_y)
        if len(test_y)
        else (float("nan"), float("nan"))
    )

    ck_path = os.path.join(args.out, "checkpoint.npz")
    thresholds = None if encoder is None else encoder.thresholds
    extra = {
        "train_config": asdict(tconf),
        "config": cfg,
        "encoding_mode": cfg["encoding"]["mode"],
        "test_accuracy": test_acc,
    }
    save_checkpoint(ck_path, model, thresholds, extra)
    metrics_path = os.path.join(args.out, "metrics.csv")
    _write_metrics_csv(metrics_path, metrics)
    curves_path = os.path.join(args.out, "curves.csv")
    _write_curves_csv(curves_path, metrics)

    manifest = RunManifest(
        command="train",
        argv=list(sys.argv[1:]),
        config=cfg,
        seed=tconf.seed,
        dataset_provenance=dataset.provenance,
        outputs=[ck_path, metrics_path, curves_path],
        started_utc=_utcnow(),
        wall_s=time.monotonic() - t_start,
    )
    manifest.write(args.out)
    print(f"test accuracy {test_acc:.4f} (loss {test_loss:.4f})")
    print(f"checkpoint written to {ck_path}")
    return EXIT_OK


def _utcnow() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


def _load_circuit(args) -> tuple[HardCircuit, np.ndarray | None, dict]:
    """Circuit plus (optional) thermometer thresholds from the artifacts."""
    thresholds = None
    extra: dict = {}
    if getattr(args, "checkpoint", None):
        model, thresholds, extra = load_checkpoint(args.checkpoint)
        circuit = harden(model)
    elif getattr(args, "netlist", None):
        circuit = load_netlist(args.netlist)
    else:
        raise ConfigError("need --checkpoint or --netlist")
    if getattr(args, "netlist", None) and getattr(args, "checkpoint", None):
        circuit = load_netlist(args.netlist)  # netlist wins; ckpt for encoder
    return circuit, thresholds, extra


def _encoded_split_for_circuit(
    args, circuit: HardCircuit, thresholds, cfg
) -> tuple[BitMatrix, np.ndarray, str]:
    dataset = _load_dataset(cfg, args)
    split = args.split
    feats, labels = dataset.split_arrays(split)
    if getattr(args, "limit", None):
        feats = feats[: args.limit]
        labels = labels[: args.limit]
    if thresholds is not None:
        encoder = ThermometerEncoder(np.asarray(thresholds))
        bits = encode(encoder, feats)
    else:
        if feats.size and feats.max() > 1:
            raise ConfigError(
                "dataset features are not binary and no thresholds are "
                "stored; evaluate via a checkpoint"
            )
        bits = BitMatrix.from_array(feats)
    if bits.n_signals != circuit.input_width:
        raise StructuralError(
            f"encoded width {bits.n_signals} != circuit input "
            f"{circuit.input_width}"
        )
    return bits, labels, dataset.provenance


PASS_NAMES = ("trivial", "equivalence", "greedy", "similarity")


def cmd_prune(args) -> int:
    t_start = time.monotonic()
    cfg = load_config(args.config)
    apply_overrides(cfg, args.set or [])
    os.makedirs(args.out, exist_ok=True)

    circuit, thresholds, _ = _load_circuit(args)
    passes = [p.strip() for p in args.passes.split(",") if p.strip()]
    for p in passes:
        if p not in PASS_NAMES:
            raise ConfigError(
                f"unknown pass {p!r}; choose from {', '.join(PASS_NAMES)}"
            )

    needs_data = bool({"greedy", "similarity"} & set(passes)) or args.data
    bits = labels = None
    provenance = ""
    if needs_data:
        bits, labels, provenance = _encoded_split_for_circuit(
            args, circuit, thresholds, cfg
        )

    rows = []
    for name in passes:
        acc_before = (
            accuracy(circuit, bits, labels) if bits is not None else None
        )
        if name == "trivial":
            circuit, report = trivial_prune(circuit)
        elif name == "equivalence":
            circuit, report = logic_equivalence_prune(circuit)
        elif name == "greedy":
            profile = profile_activations(circuit, bits)
            circuit, report = greedy_prune(
                circuit, profile, args.greedy_threshold
            )
        else:
            profile = profile_activations(circuit, bits)
            circuit, report = similarity_prune(
                circuit, profile, args.similarity_c
            )
        report.accuracy_before = acc_before
        report.accuracy_after = (
            accuracy(circuit, bits, labels) if bits is not None else None
        )
        report.split = args.split if bits is not None else None
        rows.extend(report.csv_rows())
        print(
            f"{name}: {sum(report.gates_before)} -> "
            f"{sum(report.gates_after)} gates"
            + (
                f", {args.split} accuracy {report.accuracy_after:.4f}"
                if report.accuracy_after is not None
                else ""
            )
        )

    netlist_path = os.path.join(args.out, "pruned.netlist")
    save_netlist(netlist_path, circuit)
    report_path = os.path.join(args.out, "prune_report.csv")
    with open(report_path, "w", newline="") as fh:
        w = csv.DictWriter(
            fh, fieldnames=["pass", "layer", "before", "after", "accuracy"]
        )
        w.writeheader()
        w.writerows(rows)

    manifest = RunManifest(
        command="prune",
        argv=list(sys.argv[1:]),
        config=cfg,
        seed=cfg["train"]["seed"],
        dataset_provenance=provenance,
        outputs=[netlist_path, report_path],
        started_utc=_utcnow(),
        wall_s=time.monotonic() - t_start,
    )
    manifest.write(args.out)
    print(f"pruned netlist written to {netlist_path}")
    return EXIT_OK


def cmd_eval(args) -> int:
    t_start = time.monotonic()
    cfg = load_config(args.config)
    apply_overrides(cfg, args.set or [])

    circuit, thresholds, _ = _load_circuit(args)
    bits, labels, provenance = _encoded_split_for_circuit(
        args, circuit, thresholds, cfg
    )
    pred = predict(circuit, bits)
    acc = float(np.mean(pred == labels))
    k = circuit.num_classes
    confusion = np.zeros((k, k), dtype=np.int64)
    np.add.at(confusion, (labels, pred), 1)

    print(f"{args.split} accuracy {acc:.4f} on {len(labels)} samples")
    outputs = []
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        conf_path = os.path.join(args.out, "confusion.csv")
        with open(conf_path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["true_class"] + [f"pred_{i}" for i in range(k)])
            for i in range(k):
                w.writerow([i] + confusion[i].tolist())
        outputs.append(conf_path)
        manifest = RunManifest(
            command="eval",
            argv=list(sys.argv[1:]),
            config=cfg,
            seed=cfg["train"]["seed"],
            dataset_provenance=provenance,
            outputs=outputs,
            started_utc=_utcnow(),
            wall_s=time.monotonic() - t_start,
        )
        manifest.write(args.out)
    return EXIT_OK


def cmd_estimate_mem(args) -> int:
    est = estimate_interconnect_memory(args.G, args.I, args.k, args.C)
    print(
        f"full  interconnect: {est.bytes_full:>15d} B  "
        f"({format_bytes(est.bytes_full)})"
    )
    print(
        f"candidate sets:     {est.bytes_sparse:>15d} B  "
        f"({format_bytes(est.bytes_sparse)})"
    )
    print(f"ratio sparse/full:  {est.ratio:.6g}")
    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["G", "I", "k", "C", "bytes_full", "bytes_sparse"])
            w.writerow(
                [args.G, args.I, args.k, args.C, est.bytes_full,
                 est.bytes_sparse]
            )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="boolnet",
        description="Train, harden, prune, and evaluate Boolean gate networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="INI config file")
        p.add_argument(
            "--set", action="append", metavar="SECTION.KEY=VALUE",
            help="override a config value (repeatable)",
        )
        p.add_argument(
            "--data", help=f"dataset directory (or ${DATA_DIR_ENV})"
        )

    p = sub.add_parser("train", help="train a model and write a checkpoint")
    common(p)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--budget-seconds", type=float, default=None)
    p.add_argument("--quiet", action="store_true")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("prune", help="compress a hardened circuit")
    common(p)
    p.add_argument("--checkpoint", help="checkpoint.npz to harden and prune")
    p.add_argument("--netlist", help="netlist to prune")
    p.add_argument("--out", required=True)
    p.add_argument(
        "--passes", default="trivial,equivalence,greedy,similarity"
    )
    p.add_argument("--greedy-threshold", type=float, default=0.95)
    p.add_argument("--similarity-c", type=float, default=0.9)
    p.add_argument("--split", default="val", choices=["train", "val", "test"])
    p.add_argument("--limit", type=int, default=None,
                   help="cap profiling samples")
    p.set_defaults(func=cmd_prune)

    p = sub.add_parser("eval", help="evaluate a checkpoint or netlist")
    common(p)
    p.add_argument("--checkpoint")
    p.add_argument("--netlist")
    p.add_argument("--out", help="directory for confusion.csv + manifest")
    p.add_argument("--split", default="test", choices=["train", "val", "test"])
    p.add_argument("--limit", type=int, default=None)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser(
        "estimate-mem", help="interconnect memory for dense vs candidate sets"
    )
    p.add_argument("G", type=int, help="gates per layer")
    p.add_argument("I", type=int, help="fan-in signal count")
    p.add_argument("--k", type=int, default=2, help="inputs per gate")
    p.add_argument("--C", type=int, default=8, help="candidates per slot")
    p.add_argument("--csv", help="also write a CSV here")
    p.set_defaults(func=cmd_estimate_mem)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, UsageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except IngestionError as exc:
        print(f"ingestion error: {exc}", file=sys.stderr)
        return EXIT_INGESTION
    except (StructuralError, OversizedConeError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except BoolnetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
