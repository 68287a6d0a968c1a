"""On-disk formats: text netlists for hardened circuits, npz checkpoints
for trainable models (with optional encoder and run metadata)."""

from __future__ import annotations

import json
import os

import numpy as np

from .errors import StructuralError
from .model import HardCircuit, HardLayer, LayerParams, NetworkModel

NETLIST_MAGIC = "boolnet-netlist"
NETLIST_VERSION = 1
CHECKPOINT_VERSION = 1


def dump_netlist(circuit: HardCircuit) -> str:
    """Render a circuit as versioned text: a header, then one line per
    gate reading "layer gate table_code in0 in1"."""
    lines = [
        f"{NETLIST_MAGIC} v{NETLIST_VERSION}\n",
        f"input_width {circuit.input_width}\n",
        f"num_classes {circuit.num_classes}\n",
        f"tau {circuit.tau!r}\n",
        "layers " + " ".join(str(w) for w in circuit.layer_widths) + "\n",
    ]
    for li, lay in enumerate(circuit.layers):
        gates = zip(lay.code.tolist(), lay.in0.tolist(), lay.in1.tolist())
        lines += [f"{li} {g} {c} {a} {b}\n" for g, (c, a, b) in enumerate(gates)]
    return "".join(lines)


def parse_netlist(text: str) -> HardCircuit:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith(NETLIST_MAGIC):
        raise StructuralError("not a netlist: bad magic line")
    version = lines[0].split()[-1]
    if version != f"v{NETLIST_VERSION}":
        raise StructuralError(f"unsupported netlist version {version!r}")

    header: dict[str, str] = {}
    body_start = 1
    for ln in lines[1:]:
        key, _, rest = ln.partition(" ")
        if key in ("input_width", "num_classes", "tau", "layers"):
            header[key] = rest
            body_start += 1
        else:
            break
    try:
        input_width = int(header["input_width"])
        num_classes = int(header["num_classes"])
        tau = float(header["tau"])
        widths = [int(w) for w in header["layers"].split()]
    except (KeyError, ValueError) as exc:
        raise StructuralError(f"malformed netlist header: {exc}") from exc

    layers = [
        HardLayer(
            code=np.zeros(w, dtype=np.int32),
            in0=np.zeros(w, dtype=np.int32),
            in1=np.zeros(w, dtype=np.int32),
        )
        for w in widths
    ]
    seen = 0
    for ln in lines[body_start:]:
        parts = ln.split()
        if len(parts) != 5:
            raise StructuralError(f"malformed gate record: {ln!r}")
        li, gi, code, in0, in1 = (int(p) for p in parts)
        if not (0 <= li < len(layers)) or not (0 <= gi < widths[li]):
            raise StructuralError(f"gate record out of range: {ln!r}")
        layers[li].code[gi] = code
        layers[li].in0[gi] = in0
        layers[li].in1[gi] = in1
        seen += 1
    if seen != sum(widths):
        raise StructuralError(
            f"netlist lists {seen} gates, header promises {sum(widths)}"
        )
    circuit = HardCircuit(input_width, layers, num_classes, tau)
    circuit.validate()
    return circuit


def save_netlist(path: str | os.PathLike, circuit: HardCircuit) -> None:
    with open(path, "w") as fh:
        fh.write(dump_netlist(circuit))


def load_netlist(path: str | os.PathLike) -> HardCircuit:
    with open(path) as fh:
        return parse_netlist(fh.read())


def save_checkpoint(
    path: str | os.PathLike,
    model: NetworkModel,
    thresholds: np.ndarray | None = None,
    extra: dict | None = None,
) -> None:
    """Write model (and optional thermometer thresholds / metadata) as npz,
    uncompressed: loads skip zlib, for about twice the file size."""
    meta = {
        "version": CHECKPOINT_VERSION,
        "input_width": model.input_width,
        "num_classes": model.num_classes,
        "tau": model.tau,
        "n_layers": len(model.layers),
        "frozen_interconnect": [l.frozen_interconnect for l in model.layers],
        "frozen_gates": [l.frozen_gates for l in model.layers],
        "extra": extra or {},
    }
    arrays: dict[str, np.ndarray] = {
        "meta_json": np.frombuffer(
            json.dumps(meta).encode("utf-8"), dtype=np.uint8
        )
    }
    for i, lay in enumerate(model.layers):
        arrays[f"gate_logits_{i}"] = lay.gate_logits
        arrays[f"candidates_{i}"] = lay.candidates
        arrays[f"conn_weights_{i}"] = lay.conn_weights
    if thresholds is not None:
        arrays["thresholds"] = np.asarray(thresholds)
    np.savez(path, **arrays)


def load_checkpoint(
    path: str | os.PathLike,
) -> tuple[NetworkModel, np.ndarray | None, dict]:
    """Inverse of save_checkpoint: (model, thresholds or None, extra)."""
    with np.load(path) as data:
        try:
            meta = json.loads(bytes(data["meta_json"]).decode("utf-8"))
        except (KeyError, ValueError) as exc:
            raise StructuralError(f"malformed checkpoint: {exc}") from exc
        if meta.get("version") != CHECKPOINT_VERSION:
            raise StructuralError(
                f"unsupported checkpoint version {meta.get('version')!r}"
            )
        layers = []
        for i in range(meta["n_layers"]):
            layers.append(
                LayerParams(
                    gate_logits=data[f"gate_logits_{i}"],
                    candidates=data[f"candidates_{i}"],
                    conn_weights=data[f"conn_weights_{i}"],
                    frozen_interconnect=bool(meta["frozen_interconnect"][i]),
                    frozen_gates=bool(meta["frozen_gates"][i]),
                )
            )
        thresholds = data["thresholds"] if "thresholds" in data else None
        model = NetworkModel(
            meta["input_width"], layers, meta["num_classes"], meta["tau"]
        )
    model.validate()
    return model, thresholds, meta.get("extra", {})
