"""Training engine: hard-forward/soft-backward gate networks.

Forward passes use the hardened semantics (argmax gate table, argmax
connection choice). Backward treats each gate as a softmax mixture over
the 16 truth tables, extended multilinearly in its two inputs, and sends
gradients only through the hard-selected connections; candidate scores
get the connection gradient g[g,j,i] = sum_b (2x[b,i]-1) * dy[b,g,j]
restricted to the stored candidates.

The same backward code serves the finite-difference-checkable soft
surrogate: it is the exact gradient of forward_soft, and collapses to the
straight-through rule when the cached activations are binary.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .bitmatrix import BitMatrix, blocks
from .errors import ConfigError, StructuralError
from .interconnect import (
    GradientGuidedSampler,
    RandomSampler,
    refresh_candidates,
)
from .model import TABLE_BITS, NetworkModel, eval_circuit, harden, score

SAMPLING_MODES = ("random", "gradient_guided", "none")
INTERCONNECT_MODES = ("fixed", "learnable")


@dataclass
class TrainConfig:
    total_epochs: int = 100
    finetune_epochs: int = 0
    layers_to_learn: int = 1
    C: int = 8
    R: int | None = None  # defaults to C/2
    beta: int = 20
    tau: float = 30.0
    batch_size: int = 100
    lr_init: float = 1e-2
    lr_final: float = 1e-5
    sampling_mode: str = "random"
    interconnect_mode: str = "learnable"
    seed: int = 0

    def __post_init__(self):
        if self.R is None:
            self.R = max(1, self.C // 2)
        self.validate()

    def validate(self) -> None:
        if self.C < 1:
            raise ConfigError("C must be >= 1")
        if not 0 < self.R <= self.C:
            raise ConfigError(f"need 0 < R <= C, got R={self.R}, C={self.C}")
        if self.beta < 1:
            raise ConfigError("beta must be >= 1")
        # Written so that NaN fails each comparison.
        if not 0 < self.lr_final <= self.lr_init < np.inf:
            raise ConfigError("need 0 < lr_final <= lr_init < inf")
        if not 0 < self.tau < np.inf:
            raise ConfigError(f"need 0 < tau < inf, got {self.tau}")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if min(self.total_epochs, self.finetune_epochs) < 0:
            raise ConfigError("epoch counts cannot be negative")
        if self.layers_to_learn < 1:
            raise ConfigError("layers_to_learn must be >= 1")
        if self.sampling_mode not in SAMPLING_MODES:
            raise ConfigError(f"sampling_mode must be one of {SAMPLING_MODES}")
        if self.interconnect_mode not in INTERCONNECT_MODES:
            raise ConfigError(
                f"interconnect_mode must be one of {INTERCONNECT_MODES}"
            )


def softmax(z: np.ndarray, axis: int = -1) -> np.ndarray:
    # The max runs slice by slice along `axis` into one output: whole-slice
    # maxima instead of many short reductions, and no transposed copy of z.
    # Max does not depend on order, so the bits are those of z.max(axis).
    slices = np.moveaxis(z, axis, 0)
    zmax = slices[0].copy()
    for row in slices[1:]:
        np.maximum(zmax, row, out=zmax)
    e = z - np.expand_dims(zmax, axis)
    np.exp(e, out=e)
    e /= e.sum(axis=axis, keepdims=True)
    return e


def cross_entropy(logits: np.ndarray, labels: np.ndarray) -> float:
    shifted = logits - logits.max(axis=1, keepdims=True)
    logz = np.log(np.exp(shifted).sum(axis=1))
    return float(np.mean(logz - shifted[np.arange(len(labels)), labels]))


@dataclass
class ForwardCache:
    """Everything backward needs from one batch's forward pass."""

    x_layers: list[np.ndarray]  # [.., layer inputs ..] + final activations
    sel: list[np.ndarray]  # (G, 2) hard-selected indices per layer
    slot_in: list[tuple[np.ndarray, np.ndarray]]  # realized (a, b) per layer
    logits: np.ndarray  # (B, num_classes)
    soft: bool


@dataclass
class BatchGradients:
    d_logits: list[np.ndarray]  # (G, 16) per layer
    d_conn: list[np.ndarray]  # (G, 2, C) per layer
    # (B, G, 2) slot gradients of each layer whose connection gradient was
    # computed (the refresh reads them), else None.
    dy: list[np.ndarray | None]
    loss: float = 0.0


def _forward_arrays(
    model: NetworkModel, x0: np.ndarray, soft: bool = False
) -> ForwardCache:
    x = np.asarray(x0)
    if x.ndim != 2 or x.shape[1] != model.input_width:
        raise StructuralError(
            f"inputs must be (batch, {model.input_width})"
        )
    xs = [x]
    sels = []
    slot_in = []
    for layer in model.layers:
        sel = layer.selected_slots()
        # C-ordered, so the backward reads the slot inputs contiguously.
        a, b = (x.take(sel[:, j], axis=1) for j in (0, 1))
        if soft:
            p = softmax(layer.gate_logits.astype(np.float64), axis=1)
            c = p @ TABLE_BITS  # (G, 4) expected table values
            x = (
                c[:, 0] * (1 - a) * (1 - b)
                + c[:, 1] * (1 - a) * b
                + c[:, 2] * a * (1 - b)
                + c[:, 3] * a * b
            )
        else:
            code = layer.selected_codes().astype(np.uint8)
            a8, b8 = (v.astype(np.uint8, copy=False) for v in (a, b))
            x = (code >> (2 * a8 + b8)) & 1
        xs.append(x)
        sels.append(sel)
        slot_in.append((a, b))
    gs = model.group_size
    sums = x.reshape(x.shape[0], model.num_classes, gs).sum(axis=2)
    # softmax and cross_entropy sum an F-ordered array over the classes in
    # another order than a C-ordered one: trained bits need the F order.
    logits = np.asfortranarray(sums / float(model.tau))
    return ForwardCache(xs, sels, slot_in, logits, soft)


def forward_soft(model: NetworkModel, x0: np.ndarray) -> ForwardCache:
    """Fully smooth surrogate: gate outputs are mixture expectations,
    extended multilinearly to real-valued activations."""
    return _forward_arrays(model, np.asarray(x0, dtype=np.float64), soft=True)


def connection_gradient(
    x_prev: np.ndarray, candidates: np.ndarray, dslot: np.ndarray
) -> np.ndarray:
    """Candidate-score gradient, restricted to the stored candidate ids.

    d_conn[g,j,c] = sum_b (2 * x_prev[b, candidates[g,j,c]] - 1) * dslot[b,g,j]

    Computed as 2 * sum_b(x * dy) - sum_b(dy), which skips materializing
    the (B, G, 2, C) sign tensor. x_prev is transposed once to (I, B) in
    its own dtype (uint8 in training), so the candidate gather copies
    whole contiguous batch rows into a (gates, 2, C, B) array, and the sum
    over b runs along the last axis.

    Gates go in `blocks`, so the extra memory stays cache-sized whatever
    G. Each block's epilogue runs in place and is rounded once into the
    preallocated output. einsum sums each element over b in an order that
    does not depend on the block, so the bits are those of one whole gather.

    Accumulation is in float64. In training x is 0/1, so each product is
    0 or a float32 value of dy, exactly. A float64 sum of B float32
    values cannot round while their binary exponents span fewer than
    about 29 - log2(B) places (the argument of interconnect._exact_slots),
    so the result does not depend on summation order.
    """
    dtype = np.float64 if dslot.dtype == np.float64 else np.float32
    dslot = dslot.astype(dtype, copy=False)
    x_t = np.ascontiguousarray(np.asarray(x_prev).T)  # (I, B)
    dy = dslot.transpose(1, 2, 0)  # (G, 2, B)
    out = np.empty(candidates.shape, dtype=dtype)
    B, C = x_t.shape[1], candidates.shape[2]
    gate = 2 * (C * (x_t.itemsize * B + 8) + 8 * B)  # bits, float64 dy, sums
    for block in blocks(len(candidates), gate):
        xc = np.take(x_t, candidates[block], axis=0)  # (gates, 2, C, B)
        xdy = np.einsum("gjcb,gjb->gjc", xc, dy[block], dtype=np.float64)
        del xc
        xdy *= 2.0
        xdy -= dslot[:, block].sum(axis=0, dtype=np.float64)[:, :, None]
        out[block] = xdy
    return out


def _scatter_plan(sel: np.ndarray):
    """_scatter_slots' order for `sel`: each signal's first slot, the
    slots of each later rank (signals by descending slot count, so those
    with more than r slots are a prefix), and the signals' columns."""
    cols = sel.reshape(-1)
    order = np.argsort(cols, kind="stable")
    sorted_cols = cols[order]
    starts = np.flatnonzero(np.r_[True, sorted_cols[1:] != sorted_cols[:-1]])
    counts = np.diff(starts, append=cols.size)
    by_size = np.argsort(-counts, kind="stable")
    starts, counts = starts[by_size], counts[by_size]
    ranks = [
        order[starts[: np.count_nonzero(counts > r)] + r]
        for r in range(1, counts[0])
    ]
    return order[starts], ranks, sorted_cols[starts]


def _scatter_slots(
    dslot: np.ndarray, sel: np.ndarray, width: int, plan=None
) -> np.ndarray:
    """dy for the previous layer: add each slot's gradient onto the signal
    it hard-selected.

    A signal's slots a0, a1, ... (in slot order) sum as
    a0 + (((-0.0 + a1) + a2) + ...), signed zeros included, whatever
    their number. It runs rank by rank with whole-array adds, as `plan`
    (_scatter_plan(sel), built here if not given) lays out. Training
    builds a plan once per selection and reuses it while `sel` holds.
    """
    first, ranks, dest = _scatter_plan(sel) if plan is None else plan
    batch = dslot.shape[0]
    # Rows of the transposed layout are contiguous batch vectors.
    flat_t = np.ascontiguousarray(dslot.reshape(batch, -1).T)
    sums = np.full((first.size, batch), -0.0, dtype=dslot.dtype)
    for pos in ranks:
        sums[: pos.size] += flat_t[pos]
    sums += flat_t[first]
    out = np.zeros((batch, width), dtype=dslot.dtype)
    out[:, dest] = sums.T
    return out


def _gate_gradient(p, c, dy, a, b, t) -> np.ndarray:
    """(G, 16) gate-logit gradient from the table softmax p, c = p @
    TABLE_BITS, and (B, G) dy, a and b, through the (B, G) buffer t."""
    # Shared single-pass reductions. With binary a, b the per-entry
    # weights w_{AB} are one-hot, and in general (multilinear case)
    # s[:, 2A+B] = sum_b dy * w_{AB} decomposes into these four sums:
    t_a = np.multiply(dy, a, out=t).sum(axis=0)
    t *= b
    t_ab = t.sum(axis=0)
    t_b = np.multiply(dy, b, out=t).sum(axis=0)
    t_all = dy.sum(axis=0)
    s = np.stack(
        [t_all - t_a - t_b + t_ab, t_b - t_ab, t_a - t_ab, t_ab], axis=1
    )
    dl = s @ TABLE_BITS.T.astype(p.dtype)
    dl -= (s * c).sum(axis=1)[:, None]
    dl *= p
    return dl


def _slot_gradients(c, dy, a, b, t) -> np.ndarray:
    """(B, G, 2) gradients of the slot inputs a and b. Each goes through
    the (B, G) buffer t: strided passes over the result ran slower."""
    # d/da = (c10-c00) + b*((c11-c01)-(c10-c00)), then * dy; same for b.
    d20 = c[:, 2] - c[:, 0]
    d31_20 = (c[:, 3] - c[:, 1]) - d20
    d10 = c[:, 1] - c[:, 0]
    d32_10 = (c[:, 3] - c[:, 2]) - d10
    dslot = np.empty(dy.shape + (2,), dtype=dy.dtype)
    for j, (u, slope, base) in enumerate(
        ((b, d31_20, d20), (a, d32_10, d10))
    ):
        np.multiply(u, slope, out=t)
        t += base
        t *= dy
        dslot[:, :, j] = t
    return dslot


def backward(
    model: NetworkModel, cache: ForwardCache, labels: np.ndarray,
    phase: Phase | None = None, plans: dict | None = None,
) -> BatchGradients:
    """Gradients of mean softmax cross-entropy on the group logits. Given
    a training `phase`, the tensors it keeps fixed get zero gradients.
    `plans` holds each layer's (selection, scatter plan) across calls.

    A layer reads the uint8 slot inputs as they are and computes through
    one (B, G) buffer, with the softmax and dl in place; p, c, dy and the
    buffer are freed before connection_gradient.
    """
    labels = np.asarray(labels)
    batch = cache.logits.shape[0]
    if labels.shape != (batch,):
        raise StructuralError(f"labels must be ({batch},)")
    dtype = np.float64 if cache.soft else np.float32
    plans = {} if plans is None else plans

    logits = cache.logits.astype(dtype)
    loss = cross_entropy(logits, labels)
    dlogit = softmax(logits, axis=1)
    dlogit[np.arange(batch), labels] -= 1.0
    dlogit /= batch
    gs = model.group_size
    # Every gate in a class group contributes 1/tau to that class logit.
    dy = np.repeat(dlogit, gs, axis=1)
    dy /= dtype(model.tau)

    d_logits: list[np.ndarray] = []
    d_conn: list[np.ndarray] = []
    d_slots: list[np.ndarray] = []
    for li in range(len(model.layers) - 1, -1, -1):
        layer = model.layers[li]
        a, b = cache.slot_in[li]
        p = softmax(layer.gate_logits.astype(dtype, copy=False), axis=1)
        c = p @ TABLE_BITS.astype(dtype)  # (G, 4)

        t = np.empty_like(dy)  # the layer's one (B, G) buffer
        if phase is not None and not phase.trainable_gates[li]:
            dl = np.zeros_like(layer.gate_logits)
        else:
            dl = _gate_gradient(p, c, dy, a, b, t)
        del p
        dslot = _slot_gradients(c, dy, a, b, t)
        del c, dy, t  # free before connection_gradient

        if phase is not None and phase.active_interconnect != li:
            dc = np.zeros_like(layer.conn_weights)
            d_slots.append(None)
        else:
            dc = connection_gradient(
                cache.x_layers[li], layer.candidates, dslot
            )
            d_slots.append(dslot)
        d_logits.append(dl)
        d_conn.append(dc)

        if li > 0:
            sel = cache.sel[li]
            if li not in plans or not np.array_equal(plans[li][0], sel):
                plans[li] = (sel, _scatter_plan(sel))
            dy = _scatter_slots(
                dslot, sel, model.fan_in_width(li), plans[li][1]
            )

    d_logits.reverse()
    d_conn.reverse()
    d_slots.reverse()
    return BatchGradients(d_logits, d_conn, d_slots, loss)


class Adam:
    """Plain Adam with the canonical published defaults.

    A step updates each tensor in `blocks` of leading-axis rows, through
    a float32 and a float64 block buffer, so its extra memory does not
    grow with the parameters. Each element gets the operations of a
    whole-array pass, so the bits do not depend on blocks.
    """

    beta1 = 0.9
    beta2 = 0.999
    eps = 1e-8

    def __init__(self):
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}
        self.t: dict[str, int] = {}

    def step(
        self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray],
        lr: float,
    ) -> None:
        # The step takes lr's precision: cosine_lr returns a numpy float64,
        # so lr * mhat and the division are float64 and only the update of
        # p rounds to float32. Computing it in float32 would change trained
        # parameters in the last bit.
        step_dtype = np.result_type(np.float32, lr)
        buf = step = np.empty(0)
        for key, p in params.items():
            g = grads[key]
            if key not in self.m:
                self.m[key] = np.zeros_like(p, dtype=np.float32)
                self.v[key] = np.zeros_like(p, dtype=np.float32)
                self.t[key] = 0
            self.t[key] += 1
            t = self.t[key]
            m = self.m[key]
            v = self.v[key]
            row = math.prod(p.shape[1:])
            rows = blocks(len(p), 28 * row)  # p, m, v, g and both buffers
            size = rows[0].stop * row if rows else 0
            if buf.size < size:
                buf = np.empty(size, dtype=np.float32)
                step = np.empty(size, dtype=step_dtype)
            for block in rows:
                pb, mb, vb = p[block], m[block], v[block]
                gb = g[block].astype(np.float32, copy=False)
                bb = buf[: pb.size].reshape(pb.shape)
                sb = step[: pb.size].reshape(pb.shape)
                mb *= self.beta1
                mb += np.multiply(gb, 1 - self.beta1, out=bb)
                vb *= self.beta2
                np.multiply(gb, 1 - self.beta2, out=bb)
                vb += np.multiply(bb, gb, out=bb)
                np.divide(mb, 1 - self.beta1**t, out=bb)
                np.multiply(bb, lr, out=sb)
                np.divide(vb, 1 - self.beta2**t, out=bb)
                np.sqrt(bb, out=bb)
                bb += self.eps
                sb /= bb
                pb -= sb


def cosine_lr(
    step: int, total_steps: int, lr_init: float, lr_final: float
) -> float:
    """Cosine decay from lr_init (step 0) to lr_final (last step)."""
    if total_steps <= 1:
        return lr_init
    frac = step / (total_steps - 1)
    return lr_final + 0.5 * (lr_init - lr_final) * (1 + np.cos(np.pi * frac))


@dataclass(frozen=True)
class Phase:
    name: str
    epochs: int
    active_interconnect: int | None  # layer whose candidates may change
    trainable_gates: tuple[bool, ...]


def build_phases(config: TrainConfig, n_layers: int) -> list[Phase]:
    """Layer-wise protocol: floor(E/L) epochs per learnable layer with only
    that layer's interconnect learned and already-visited layers' gates
    fixed; then a fine-tune pass training all gates, interconnects fixed.
    The phases are the only record of what is fixed: `train` takes its
    optimized tensors and refreshed layer from them, `backward` zeroes
    the gradients of the rest. A model holds no training state."""
    if config.interconnect_mode == "fixed":
        total = config.total_epochs + config.finetune_epochs
        return [Phase("finetune", total, None, (True,) * n_layers)]
    L = config.layers_to_learn
    if L > n_layers:
        raise ConfigError(
            f"layers_to_learn={L} exceeds the {n_layers} model layers"
        )
    phases = []
    per_layer = config.total_epochs // L
    for li in range(L):
        gates = tuple(i >= li for i in range(n_layers))
        phases.append(Phase(f"interconnect-{li}", per_layer, li, gates))
    if config.finetune_epochs > 0:
        phases.append(
            Phase("finetune", config.finetune_epochs, None, (True,) * n_layers)
        )
    return phases


@dataclass
class EncodedSplits:
    """Binarized training inputs: 0/1 feature matrices plus labels, one
    label per row. The val split is given whole or not at all."""

    train_x: np.ndarray
    train_y: np.ndarray
    val_x: np.ndarray | None = None
    val_y: np.ndarray | None = None

    def __post_init__(self):
        if (self.val_x is None) != (self.val_y is None):
            raise StructuralError("the val split needs both inputs and labels")
        self.train_x = np.ascontiguousarray(self.train_x, dtype=np.uint8)
        self.train_y = np.asarray(self.train_y, dtype=np.int64)
        if self.val_x is not None:
            self.val_x = np.ascontiguousarray(self.val_x, dtype=np.uint8)
            self.val_y = np.asarray(self.val_y, dtype=np.int64)
        for name, x, y in (
            ("train", self.train_x, self.train_y),
            ("val", self.val_x, self.val_y),
        ):
            if x is not None and len(x) != len(y):
                raise StructuralError(
                    f"the {name} split has {len(x)} input rows "
                    f"but {len(y)} labels"
                )


@dataclass
class MetricRow:
    epoch: int
    split: str
    accuracy: float
    loss: float
    wall_clock_s: float
    phase: str


def evaluate_arrays(
    model: NetworkModel, x: np.ndarray, y: np.ndarray
) -> tuple[float, float]:
    """(accuracy, cross-entropy) of the hardened model on 0/1 inputs.

    Runs the argmax-hardened circuit on packed words and scores its final
    layer with `model.score`, whose logits equal the training forward's
    exactly.
    """
    circuit = harden(model)
    final = eval_circuit(circuit, BitMatrix.from_array(x))
    logits, _, accuracy = score(circuit, final.words, final.n_samples, y)
    return accuracy, cross_entropy(logits, y)


def train(
    model: NetworkModel,
    splits: EncodedSplits,
    config: TrainConfig,
    budget_seconds: float | None = None,
    progress=None,
) -> tuple[NetworkModel, list[MetricRow]]:
    """Run the layer-wise schedule and return the model plus metrics.

    The model is modified in place and also returned. A cosine lr restart
    and a fresh optimizer begin each phase; every `beta` optimizer steps
    the active layer's R weakest candidates per slot are resampled using
    the batch that was just processed.
    """
    config.validate()
    if not (budget_seconds is None or budget_seconds >= 0):
        raise ConfigError(f"budget_seconds must be >= 0, got {budget_seconds}")
    model.validate()
    if model.tau != config.tau:
        model.tau = config.tau
    rng = np.random.default_rng(config.seed)
    phases = build_phases(config, len(model.layers))
    n_train = len(splits.train_y)
    if n_train == 0:
        raise ConfigError("the training split is empty")
    steps_per_epoch = max(1, -(-n_train // config.batch_size))

    metrics: list[MetricRow] = []
    plans: dict = {}  # scatter plans, reused while a selection holds
    t0 = time.monotonic()
    global_step = 0
    epoch = 0
    stop = False

    for phase in phases:
        if stop or phase.epochs == 0:
            continue
        optimizer = Adam()
        params: dict[str, np.ndarray] = {}
        for i, layer in enumerate(model.layers):
            if phase.trainable_gates[i]:
                params[f"L{i}.gate_logits"] = layer.gate_logits
            if phase.active_interconnect == i:
                params[f"L{i}.conn_weights"] = layer.conn_weights
        phase_steps = phase.epochs * steps_per_epoch
        phase_step = 0

        for _ in range(phase.epochs):
            order = rng.permutation(n_train)
            seen = 0
            hits = 0
            loss_sum = 0.0
            for lo in range(0, n_train, config.batch_size):
                idx = order[lo : lo + config.batch_size]
                xb = splits.train_x[idx]
                yb = splits.train_y[idx]
                cache = _forward_arrays(model, xb)
                grads = backward(model, cache, yb, phase, plans)

                pred = np.argmax(cache.logits, axis=1)
                hits += int((pred == yb).sum())
                seen += len(yb)
                loss_sum += grads.loss * len(yb)

                lr = cosine_lr(
                    phase_step, phase_steps, config.lr_init, config.lr_final
                )
                phase_step += 1
                global_step += 1
                li = phase.active_interconnect
                refresh = (
                    li is not None
                    and config.sampling_mode != "none"
                    and global_step % config.beta == 0
                )
                # Only a guided refresh reads the layer's inputs and slot
                # gradients; the rest go before or right after the step.
                guided = refresh and config.sampling_mode == "gradient_guided"
                x_dy = (cache.x_layers[li], grads.dy[li]) if guided else None
                gdict = {}
                for i in range(len(model.layers)):
                    gdict[f"L{i}.gate_logits"] = grads.d_logits[i]
                    gdict[f"L{i}.conn_weights"] = grads.d_conn[i]
                del xb, cache, grads
                optimizer.step(params, gdict, lr)
                del gdict

                if refresh:
                    refresh_candidates(
                        model.layers[li],
                        GradientGuidedSampler(*x_dy)
                        if guided
                        else RandomSampler(rng),
                        config.R,
                        model.fan_in_width(li),
                    )
                del x_dy  # free before the next forward

            now = time.monotonic() - t0
            metrics.append(
                MetricRow(
                    epoch, "train", hits / seen, loss_sum / seen, now,
                    phase.name,
                )
            )
            if splits.val_x is not None and len(splits.val_x):
                acc, vloss = evaluate_arrays(model, splits.val_x, splits.val_y)
                metrics.append(
                    MetricRow(
                        epoch, "val", acc, vloss,
                        time.monotonic() - t0, phase.name,
                    )
                )
            epoch += 1
            if progress is not None:
                progress(metrics[-1])
            if budget_seconds is not None and (
                time.monotonic() - t0 > budget_seconds
            ):
                stop = True
                break
    return model, metrics
