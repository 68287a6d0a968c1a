"""Command-line surface: train, prune, eval, estimate-mem.

Every command that writes artifacts also writes a manifest.json capturing
argv, the resolved configuration, seeds, and library versions, so a run
can be reproduced from the manifest alone.

Exit codes: 0 success, 2 configuration, usage or path problems, 3
dataset ingestion problems, 4 internal structural errors.
"""

from __future__ import annotations

import argparse
import csv
import datetime
import json
import os
import sys
import time
from dataclasses import asdict

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
    estimate_interconnect_memory,
    format_bytes,
    group_logits,
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
from .training import Adam, EncodedSplits, MetricRow, evaluate_arrays, train

DATA_DIR_ENV = "BOOLNET_DATA_DIR"

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INGESTION = 3
EXIT_INTERNAL = 4


def _write_manifest(
    args, argv: list[str], cfg, provenance: str, outputs: list[str],
    started_utc: str, wall_s: float,
) -> None:
    adam = Adam()
    manifest = {
        "command": args.command,
        "argv": argv,
        "config": cfg,
        "seed": cfg["train"]["seed"],
        "package_version": __version__,
        "numpy_version": np.__version__,
        "adam": {k: getattr(adam, k) for k in ("beta1", "beta2", "eps")},
        "dataset_provenance": provenance,
        "outputs": outputs,
        "started_utc": started_utc,
        "wall_s": wall_s,
    }
    with open(os.path.join(args.out, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _load_dataset(cfg, args, split: str | None = None) -> Dataset:
    """The configured dataset; with `split`, a file-backed one reads only
    the files that hold that split, and keeps only its rows."""
    d = cfg["data"]
    if d["val_size"] < 0:
        raise ConfigError(f"data.val_size must be >= 0, got {d['val_size']}")
    name = d["dataset"]
    if name == "synth":
        for key in ("synth_features", "synth_samples"):
            if d[key] < 1:
                raise ConfigError(f"data.{key} must be >= 1, got {d[key]}")
        try:
            return synth_boolean_task(
                d["synth_kind"],
                d["synth_features"],
                d["synth_samples"],
                seed=cfg["train"]["seed"],
            )
        except StructuralError as exc:  # an unknown kind
            raise ConfigError(f"data.synth_kind: {exc}") from exc
    path = args.data or d["path"] or os.environ.get(DATA_DIR_ENV, "")
    if not path:
        raise ConfigError(
            f"dataset {name!r} needs --data, data.path, or ${DATA_DIR_ENV}"
        )
    loader = {"mnist": load_mnist_idx, "cifar10": load_cifar10}.get(name)
    if loader is None:
        raise ConfigError(f"unknown dataset {name!r}")
    try:
        return loader(path, d["val_size"], cfg["train"]["seed"], split)
    except OSError as exc:  # e.g. a directory, or a .gz that is not gzip
        raise IngestionError(f"cannot read dataset {path}: {exc}") from exc


def _limit(idx: np.ndarray, cap: int | None, seed: int) -> np.ndarray:
    if cap is None or cap >= idx.size:
        return idx
    rng = np.random.default_rng(seed)
    return np.sort(rng.permutation(idx)[:cap])


def _encode(
    encoder: ThermometerEncoder | None, features: np.ndarray, read=None
) -> BitMatrix:
    """Thermometer bits (rows outside `read` zero), or 0/1 features as is."""
    if encoder is not None:
        return encode(encoder, features, read)
    if features.size and features.max() > 1:
        raise ConfigError(
            "features are not 0/1 and no thermometer thresholds are given; "
            "use encoding.mode=thermometer, or a checkpoint that stores them"
        )
    return BitMatrix.from_array(features)


def _prepare(cfg, args):
    """Dataset -> (dataset, encoder, dict of encoded split arrays)."""
    d = cfg["data"]
    for key, least in (("limit_train", 1), ("limit_test", 0)):
        if d[key] is not None and d[key] < least:
            raise ConfigError(f"data.{key} must be >= {least}, got {d[key]}")
    mode, T = cfg["encoding"]["mode"], cfg["encoding"]["thresholds"]
    if mode not in ("thermometer", "binary"):
        raise ConfigError(f"unknown encoding mode {mode!r}")
    if mode == "thermometer" and T < 1:
        raise ConfigError(f"encoding.thresholds must be >= 1, got {T}")
    dataset = _load_dataset(cfg, args)
    seed = cfg["train"]["seed"]
    tr_idx = _limit(dataset.indices("train"), d["limit_train"], seed)
    te_idx = _limit(dataset.indices("test"), d["limit_test"], seed + 1)
    va_idx = dataset.indices("val")
    if tr_idx.size == 0:
        raise ConfigError(
            f"no training samples left (data.val_size={d['val_size']})"
        )

    encoder = (fit_thresholds(dataset.features[tr_idx], T)
               if mode == "thermometer" else None)

    splits = {}
    for name, idx in (("train", tr_idx), ("val", va_idx), ("test", te_idx)):
        splits[name] = (
            _encode(encoder, dataset.features[idx]).to_array(),
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


def cmd_train(args, cfg) -> tuple[str, list[str]]:
    dataset, encoder, splits = _prepare(cfg, args)
    tconf = train_config_from(cfg)
    input_width = splits["train"][0].shape[1]
    widths = cfg["model"]["layer_widths"]
    if not widths or min(widths) < 1 or widths[-1] % dataset.num_classes:
        raise ConfigError(f"model.layer_widths {widths} must be positive and "
                          f"end in a multiple of {dataset.num_classes} classes")
    if not 0 <= cfg["model"]["logit_scale"] < np.inf:  # NaN fails too
        raise ConfigError("model.logit_scale must be finite and >= 0")
    try:
        model = random_network(
            input_width,
            widths,
            dataset.num_classes,
            tconf.C,
            tau=tconf.tau,
            seed=tconf.seed,
            logit_scale=cfg["model"]["logit_scale"],
        )
    except StructuralError as exc:  # e.g. a layer narrower than train.c
        raise ConfigError(
            f"model.layer_widths {widths} with train.c={tconf.C}: {exc}"
        ) from exc

    enc_splits = EncodedSplits(*splits["train"], *splits["val"])

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
    print(f"test accuracy {test_acc:.4f} (loss {test_loss:.4f})")
    print(f"checkpoint written to {ck_path}")
    return dataset.provenance, [ck_path, metrics_path]


def _load_circuit(args) -> tuple[HardCircuit, np.ndarray | None]:
    """Circuit plus (optional) thermometer thresholds from the artifacts."""
    thresholds = None
    if args.checkpoint:
        model, thresholds, _ = load_checkpoint(args.checkpoint)
    if args.netlist:
        circuit = load_netlist(args.netlist)  # netlist wins; ckpt for encoder
    elif args.checkpoint:
        circuit = harden(model)
    else:
        raise ConfigError("need --checkpoint or --netlist")
    return circuit, thresholds


def _encoded_split_for_circuit(
    args, circuit: HardCircuit, thresholds, cfg
) -> tuple[BitMatrix, np.ndarray, str]:
    if args.limit is not None and args.limit < 1:
        raise ConfigError(f"--limit must be >= 1, got {args.limit}")
    dataset = _load_dataset(cfg, args, args.split)
    feats, labels = dataset.split_arrays(args.split)
    if not labels.size:  # checked before any pass, so nothing reports NaN
        raise ConfigError(
            f"the {args.split} split is empty "
            f"(data.val_size={cfg['data']['val_size']})"
        )
    if args.limit is not None:
        feats = feats[: args.limit]
        labels = labels[: args.limit]
    encoder = (
        None if thresholds is None
        else ThermometerEncoder(np.asarray(thresholds))
    )
    width = feats.shape[1] if encoder is None else encoder.output_width
    if width != circuit.input_width:
        raise ConfigError(
            f"encoded width {width} != circuit input {circuit.input_width}"
        )
    # Unread rows stay zero: no pruning pass adds a layer-0 read.
    bits = _encode(encoder, feats, circuit.read_inputs())
    if labels.size and labels.max() >= circuit.num_classes:
        raise ConfigError(
            f"the {args.split} split has labels up to {labels.max()}, the "
            f"circuit only {circuit.num_classes} classes"
        )
    return bits, labels, dataset.provenance


PASS_NAMES = ("trivial", "equivalence", "greedy", "similarity")


def cmd_prune(args, cfg) -> tuple[str, list[str]]:
    circuit, thresholds = _load_circuit(args)
    passes = [p.strip() for p in args.passes.split(",") if p.strip()]
    for p in passes:
        if p not in PASS_NAMES:
            raise ConfigError(
                f"unknown pass {p!r}; choose from {', '.join(PASS_NAMES)}"
            )
    # Checked before any pass runs, by comparisons that NaN fails.
    g, c = args.greedy_threshold, args.similarity_c
    if not 0.5 < g <= 1.0:
        raise ConfigError(f"--greedy-threshold must be in (0.5, 1], got {g}")
    if not 0 < c <= 1.0:
        raise ConfigError(f"--similarity-c must be in (0, 1], got {c}")

    needs_data = bool({"greedy", "similarity"} & set(passes)) or args.data
    bits = labels = None
    provenance = ""
    if needs_data:
        bits, labels, provenance = _encoded_split_for_circuit(
            args, circuit, thresholds, cfg
        )

    # After a pass, only the gates it affected are profiled again, and the
    # accuracy is recounted only when a final-layer row changed.
    profile = None if bits is None else profile_activations(circuit, bits)
    accuracy = None
    rows = []
    for name in passes:
        before = circuit
        if name == "trivial":
            circuit, report = trivial_prune(circuit)
        elif name == "equivalence":
            circuit, report = logic_equivalence_prune(circuit)
        elif name == "greedy":
            circuit, report = greedy_prune(
                circuit, profile, args.greedy_threshold
            )
        else:
            circuit, report = similarity_prune(
                circuit, profile, args.similarity_c
            )
        if bits is not None:
            profile = profile_activations(
                circuit, bits, (profile, before, report.kept)
            )
            if accuracy is None or profile.changed[-1].any():
                logits = group_logits(
                    profile.words[-1], bits.n_samples, circuit.num_classes,
                    circuit.tau,
                )
                accuracy = float(np.mean(np.argmax(logits, axis=1) == labels))
            report.accuracy_after = accuracy
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
    print(f"pruned netlist written to {netlist_path}")
    return provenance, [netlist_path, report_path]


def cmd_eval(args, cfg) -> tuple[str, list[str]]:
    circuit, thresholds = _load_circuit(args)
    bits, labels, provenance = _encoded_split_for_circuit(
        args, circuit, thresholds, cfg
    )
    pred = predict(circuit, bits)
    acc = float(np.mean(pred == labels))
    k = circuit.num_classes
    confusion = np.zeros((k, k), dtype=np.int64)
    np.add.at(confusion, (labels, pred), 1)

    print(f"{args.split} accuracy {acc:.4f} on {len(labels)} samples")
    if not args.out:
        return provenance, []
    conf_path = os.path.join(args.out, "confusion.csv")
    with open(conf_path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["true_class"] + [f"pred_{i}" for i in range(k)])
        for i in range(k):
            w.writerow([i] + confusion[i].tolist())
    return provenance, [conf_path]


def cmd_estimate_mem(args) -> int:
    try:
        est = estimate_interconnect_memory(args.G, args.I, args.k, args.C)
    except StructuralError as exc:  # the arguments are user input
        raise ConfigError(str(exc)) from exc
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

    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser().parse_args(argv)
    started_utc = datetime.datetime.now(datetime.timezone.utc).isoformat()
    t_start = time.monotonic()
    try:
        if args.command == "estimate-mem":
            return cmd_estimate_mem(args)
        cfg = load_config(args.config)
        apply_overrides(cfg, args.set or [])
        if args.out:
            try:
                os.makedirs(args.out, exist_ok=True)
            except OSError as exc:  # e.g. --out names a file
                raise ConfigError(f"--out: {exc}") from exc
        provenance, outputs = args.func(args, cfg)
        if args.out:
            _write_manifest(
                args, argv, cfg, provenance, outputs, started_utc,
                time.monotonic() - t_start,
            )
        return EXIT_OK
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
