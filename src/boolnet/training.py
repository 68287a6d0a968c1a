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

import time
from dataclasses import dataclass

import numpy as np

from .bitmatrix import BitMatrix
from .errors import ConfigError, StructuralError, UsageError
from .interconnect import (
    GradientGuidedSampler,
    RandomSampler,
    refresh_candidates,
)
from .model import TABLE_BITS, NetworkModel, circuit_logits, harden

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
    # The max runs over a contiguous copy with `axis` first, where it is an
    # elementwise max of whole rows instead of many short reductions. Max
    # does not depend on order, so the result is the same bit for bit.
    zmax = np.ascontiguousarray(np.moveaxis(z, axis, 0)).max(axis=0)
    z = z - np.expand_dims(zmax, axis)
    e = np.exp(z)
    return e / e.sum(axis=axis, keepdims=True)


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
    dy: list[np.ndarray]  # (B, G, 2) slot gradients per layer
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
        a = x[:, sel[:, 0]]
        b = x[:, sel[:, 1]]
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
            code = layer.selected_codes()
            x = ((code[None, :] >> (2 * a.astype(np.int32) + b)) & 1).astype(
                np.uint8
            )
        xs.append(x)
        sels.append(sel)
        slot_in.append((a, b))
    gs = model.group_size
    sums = x.reshape(x.shape[0], model.num_classes, gs).sum(axis=2)
    logits = sums / float(model.tau)
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
    whole contiguous batch rows into a (G, 2, C, B) array, and the sum
    over b runs along the last axis.

    Accumulation is in float64. In training x is 0/1, so each product is
    0 or a float32 value of dy, exactly. A float64 sum of B float32
    values cannot round while their binary exponents span fewer than
    about 29 - log2(B) places (the argument of interconnect._exact_slots),
    so the result does not depend on summation order.
    """
    dtype = np.float64 if dslot.dtype == np.float64 else np.float32
    dslot = dslot.astype(dtype, copy=False)
    x_t = np.ascontiguousarray(np.asarray(x_prev).T)  # (I, B)
    xc = np.take(x_t, candidates, axis=0)  # (G, 2, C, B)
    xdy = np.einsum(
        "gjcb,gjb->gjc", xc, dslot.transpose(1, 2, 0), dtype=np.float64
    )
    out = 2.0 * xdy - dslot.sum(axis=0, dtype=np.float64)[:, :, None]
    return out.astype(dtype, copy=False)


def _scatter_slots(
    dslot: np.ndarray, sel: np.ndarray, width: int
) -> np.ndarray:
    """dy for the previous layer: add each slot's gradient onto the signal
    it hard-selected.

    A signal's slots a0, a1, ... (in slot order) sum as
    a0 + (((-0.0 + a1) + a2) + ...), np.add.reduceat's order for up to 8
    addends (numpy 2.4), signed zeros included. It runs here rank by rank
    with whole-array adds. Signals with more than 8 slots, which reduceat
    sums pairwise, go to reduceat itself.
    """
    batch = dslot.shape[0]
    cols = sel.reshape(-1)
    order = np.argsort(cols, kind="stable")
    sorted_cols = cols[order]
    starts = np.flatnonzero(np.r_[True, sorted_cols[1:] != sorted_cols[:-1]])
    counts = np.diff(starts, append=cols.size)
    # By descending slot count, signals with more than r slots are a prefix.
    by_size = np.argsort(-counts, kind="stable")
    starts, counts = starts[by_size], counts[by_size]
    # Rows of the transposed layout are contiguous batch vectors.
    flat_t = np.ascontiguousarray(dslot.reshape(batch, -1).T[order])
    sums = np.full((starts.size, batch), -0.0, dtype=dslot.dtype)
    for r in range(1, min(counts[0], 8)):
        k = np.count_nonzero(counts > r)
        sums[:k] += flat_t[starts[:k] + r]
    sums += flat_t[starts]
    big = counts > 8
    if big.any():
        s, n = starts[big], counts[big]
        lead = np.cumsum(n) - n
        rows = flat_t[np.repeat(s - lead, n) + np.arange(n.sum())]
        sums[big] = np.add.reduceat(rows, lead, axis=0)
    out = np.zeros((batch, width), dtype=dslot.dtype)
    out[:, sorted_cols[starts]] = sums.T
    return out


def backward(
    model: NetworkModel, cache: ForwardCache, labels: np.ndarray,
    phase: Phase | None = None,
) -> BatchGradients:
    """Gradients of mean softmax cross-entropy on the group logits. Given
    a training `phase`, the tensors it keeps fixed get zero gradients."""
    if cache is None:
        raise UsageError("backward needs a forward cache")
    labels = np.asarray(labels)
    batch = cache.logits.shape[0]
    if labels.shape != (batch,):
        raise StructuralError(f"labels must be ({batch},)")
    dtype = np.float64 if cache.soft else np.float32

    probs = softmax(cache.logits.astype(dtype), axis=1)
    loss = cross_entropy(cache.logits.astype(dtype), labels)
    dlogit = probs
    dlogit[np.arange(batch), labels] -= 1.0
    dlogit /= batch
    gs = model.group_size
    # Every gate in a class group contributes 1/tau to that class logit.
    dy = np.repeat(dlogit, gs, axis=1) / dtype(model.tau)

    d_logits: list[np.ndarray] = []
    d_conn: list[np.ndarray] = []
    d_slots: list[np.ndarray] = []
    for li in range(len(model.layers) - 1, -1, -1):
        layer = model.layers[li]
        # The gathers x[:, sel] are F-ordered. Every pass below runs on
        # C-ordered arrays, and so do the sums over the batch axis.
        a, b = (
            np.ascontiguousarray(v, dtype=dtype) for v in cache.slot_in[li]
        )
        p = softmax(layer.gate_logits.astype(dtype), axis=1)
        c = p @ TABLE_BITS.astype(dtype)  # (G, 4)

        # Shared single-pass reductions. With binary a, b the per-entry
        # weights w_{AB} are one-hot, and in general (multilinear case)
        # s[:, 2A+B] = sum_b dy * w_{AB} decomposes into these four sums:
        dya = dy * a
        t_all = dy.sum(axis=0)
        t_a = dya.sum(axis=0)
        t_b = (dy * b).sum(axis=0)
        t_ab = (dya * b).sum(axis=0)

        if phase is not None and not phase.trainable_gates[li]:
            dl = np.zeros_like(layer.gate_logits)
        else:
            s = np.stack(
                [t_all - t_a - t_b + t_ab, t_b - t_ab, t_a - t_ab, t_ab],
                axis=1,
            )
            dl = p * (
                s @ TABLE_BITS.T.astype(dtype) - (s * c).sum(axis=1)[:, None]
            )

        # d/da = (c10-c00) + b*((c11-c01)-(c10-c00)), then * dy; same for b.
        d20 = c[:, 2] - c[:, 0]
        d31_20 = (c[:, 3] - c[:, 1]) - d20
        d10 = c[:, 1] - c[:, 0]
        d32_10 = (c[:, 3] - c[:, 2]) - d10
        # Both slot gradients pass through one C-ordered (B, G) buffer.
        dslot = np.empty(dy.shape + (2,), dtype=dtype)
        t = np.empty_like(dy)
        for j, (u, slope, base) in enumerate(
            ((b, d31_20, d20), (a, d32_10, d10))
        ):
            np.multiply(u, slope, out=t)
            t += base
            t *= dy
            dslot[:, :, j] = t
        del t, a, b  # free before connection_gradient, the step's peak

        if phase is not None and phase.active_interconnect != li:
            dc = np.zeros_like(layer.conn_weights)
        else:
            dc = connection_gradient(
                cache.x_layers[li], layer.candidates, dslot
            )
        d_logits.append(dl)
        d_conn.append(dc)
        d_slots.append(dslot)

        if li > 0:
            dy = _scatter_slots(dslot, cache.sel[li], model.fan_in_width(li))

    d_logits.reverse()
    d_conn.reverse()
    d_slots.reverse()
    return BatchGradients(d_logits, d_conn, d_slots, loss)


class Adam:
    """Plain Adam with the canonical published defaults."""

    def __init__(
        self,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ):
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}
        self.t: dict[str, int] = {}
        self._buf = np.empty(0, dtype=np.float32)

    def step(
        self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray],
        lr: float,
    ) -> None:
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
            g = g.astype(np.float32, copy=False)
            if self._buf.size < p.size:
                self._buf = np.empty(p.size, dtype=np.float32)
            buf = self._buf[: p.size].reshape(p.shape)
            m *= self.beta1
            m += np.multiply(g, 1 - self.beta1, out=buf)
            v *= self.beta2
            np.multiply(g, 1 - self.beta2, out=buf)
            v += np.multiply(buf, g, out=buf)
            # The step takes lr's precision: cosine_lr returns a numpy
            # float64, so lr * mhat and the division are float64 and only
            # the update of p rounds to float32. Computing it in float32
            # would change trained parameters in the last bit.
            step = np.multiply(np.divide(m, 1 - self.beta1**t, out=buf), lr)
            np.divide(v, 1 - self.beta2**t, out=buf)
            np.sqrt(buf, out=buf)
            buf += self.eps
            step /= buf
            p -= step


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
    """Binarized training inputs: 0/1 feature matrices plus labels."""

    train_x: np.ndarray
    train_y: np.ndarray
    val_x: np.ndarray | None = None
    val_y: np.ndarray | None = None

    def __post_init__(self):
        self.train_x = np.ascontiguousarray(self.train_x, dtype=np.uint8)
        self.train_y = np.asarray(self.train_y, dtype=np.int64)
        if self.val_x is not None:
            self.val_x = np.ascontiguousarray(self.val_x, dtype=np.uint8)
            self.val_y = np.asarray(self.val_y, dtype=np.int64)


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

    Runs the argmax-hardened circuit on packed words (`circuit_logits`),
    whose logits equal the training forward's exactly.
    """
    logits = circuit_logits(harden(model), BitMatrix.from_array(x))
    accuracy = float(np.mean(np.argmax(logits, axis=1) == y))
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
                grads = backward(model, cache, yb, phase)

                pred = np.argmax(cache.logits, axis=1)
                hits += int((pred == yb).sum())
                seen += len(yb)
                loss_sum += grads.loss * len(yb)

                lr = cosine_lr(
                    phase_step, phase_steps, config.lr_init, config.lr_final
                )
                gdict = {}
                for i in range(len(model.layers)):
                    gdict[f"L{i}.gate_logits"] = grads.d_logits[i]
                    gdict[f"L{i}.conn_weights"] = grads.d_conn[i]
                optimizer.step(params, gdict, lr)
                phase_step += 1
                global_step += 1

                li = phase.active_interconnect
                if (
                    li is not None
                    and config.sampling_mode != "none"
                    and global_step % config.beta == 0
                ):
                    if config.sampling_mode == "random":
                        sampler = RandomSampler(rng)
                    else:
                        sampler = GradientGuidedSampler(
                            cache.x_layers[li], grads.dy[li]
                        )
                    refresh_candidates(
                        model.layers[li],
                        sampler,
                        config.R,
                        model.fan_in_width(li),
                    )

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
