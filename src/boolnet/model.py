"""Network data model, gate truth-table semantics, and hardening.

A trained network is a stack of layers of 2-input Boolean gates. Each gate
carries 16 logits (one per possible truth table) and, per input slot, C
candidate source indices with a score each. Hardening takes the argmax of
both and yields a static circuit evaluable with pure bit operations. The
word kernel makes each gate a multiplexer of its table bits, so an input
the table ignores cancels out: eval and prune encode only the inputs that
layer 0 reads (`HardCircuit.read_inputs`).

Truth-table code convention: code n's 4-bit table is the binary expansion
of n over inputs (a, b) in order (0,0), (0,1), (1,0), (1,1), i.e.
eval(a, b) = (n >> (2a + b)) & 1.

    code  f(a,b)        code  f(a,b)
    0     0             8     a and b
    1     not (a or b)  9     not (a xor b)
    2     b and not a   10    b
    3     not a         11    (not a) or b
    4     a and not b   12    a
    5     not b         13    a or not b
    6     a xor b       14    a or b
    7     not (a and b) 15    1
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bitmatrix import WORD_BITS, BitMatrix
from .errors import StructuralError

N_CODES = 16
KERNEL_BLOCK_BYTES = 1 << 17  # a word-kernel gate block stays in L2 cache

# Named codes for the tables that pruning and tests refer to by function.
CONST0 = 0
NOR = 1
NOT_A = 3
NOT_B = 5
XOR = 6
NAND = 7
AND = 8
XNOR = 9
PROJ_B = 10
PROJ_A = 12
OR = 14
CONST1 = 15

# TABLE_BITS[n, 2a+b] = value of gate code n at inputs (a, b).
TABLE_BITS = np.array(
    [[(n >> j) & 1 for j in range(4)] for n in range(N_CODES)], dtype=np.uint8
)

# Which input slots a table actually reads: code n ignores `a` when its
# a=0 half equals its a=1 half (and symmetrically for `b`). Constants read
# neither; projections read one. Pruning uses this to find dead fan-ins.
DEPENDS_A = np.array([(n & 3) != ((n >> 2) & 3) for n in range(N_CODES)])
DEPENDS_B = np.array(
    [(n & 1, (n >> 2) & 1) != ((n >> 1) & 1, (n >> 3) & 1) for n in range(N_CODES)]
)


def eval_code(code, a, b):
    """Evaluate gate tables elementwise on 0/1 arrays."""
    code = np.asarray(code)
    idx = 2 * np.asarray(a, dtype=np.int64) + np.asarray(b, dtype=np.int64)
    return ((code >> idx) & 1).astype(np.uint8)


def _as_f32(x) -> np.ndarray:
    return np.ascontiguousarray(np.asarray(x, dtype=np.float32))


def _as_i32(x) -> np.ndarray:
    return np.ascontiguousarray(np.asarray(x, dtype=np.int32))


@dataclass
class LayerParams:
    """Trainable state of one gate layer."""

    gate_logits: np.ndarray  # (G, 16) float32
    candidates: np.ndarray  # (G, 2, C) int32, indices into previous layer
    conn_weights: np.ndarray  # (G, 2, C) float32

    def __post_init__(self):
        self.gate_logits = _as_f32(self.gate_logits)
        self.candidates = _as_i32(self.candidates)
        self.conn_weights = _as_f32(self.conn_weights)
        g = self.n_gates
        if self.gate_logits.shape != (g, N_CODES):
            raise StructuralError(
                f"gate_logits shape {self.gate_logits.shape}, expected ({g}, 16)"
            )
        if self.candidates.ndim != 3 or self.candidates.shape[1] != 2:
            raise StructuralError(
                f"candidates shape {self.candidates.shape}, expected (G, 2, C)"
            )
        if self.conn_weights.shape != self.candidates.shape:
            raise StructuralError(
                "conn_weights and candidates shapes differ: "
                f"{self.conn_weights.shape} vs {self.candidates.shape}"
            )

    @property
    def n_gates(self) -> int:
        return self.candidates.shape[0]

    @property
    def n_candidates(self) -> int:
        return self.candidates.shape[2]

    def validate(self, fan_in_width: int) -> None:
        if self.candidates.min(initial=0) < 0 or (
            self.candidates.max(initial=-1) >= fan_in_width
        ):
            raise StructuralError(
                f"candidate index out of range [0, {fan_in_width})"
            )
        # Pairwise-distinct candidates per slot.
        srt = np.sort(self.candidates, axis=2)
        if self.n_candidates > 1 and (srt[:, :, 1:] == srt[:, :, :-1]).any():
            raise StructuralError("duplicate candidate indices within a slot")
        if not np.isfinite(self.conn_weights).all():
            raise StructuralError("non-finite connection weights")
        if not np.isfinite(self.gate_logits).all():
            raise StructuralError("non-finite gate logits")

    def selected_slots(self) -> np.ndarray:
        """Hard interconnect choice: (G, 2) int32 of previous-layer indices.

        Argmax over candidate scores, first (lowest) index on ties.
        """
        best = np.argmax(self.conn_weights, axis=2)
        return np.take_along_axis(
            self.candidates, best[:, :, None], axis=2
        )[:, :, 0]

    def selected_codes(self) -> np.ndarray:
        """Hard gate choice: (G,) int32 of truth-table codes."""
        return np.argmax(self.gate_logits, axis=1).astype(np.int32)

    def copy(self) -> "LayerParams":
        return LayerParams(
            self.gate_logits.copy(),
            self.candidates.copy(),
            self.conn_weights.copy(),
        )


@dataclass
class _Network:
    """Gate layers plus the GroupSum head settings, trainable or hard."""

    input_width: int
    layers: list  # of LayerParams or of HardLayer
    num_classes: int
    tau: float = 30.0

    @property
    def layer_widths(self) -> list[int]:
        return [lay.n_gates for lay in self.layers]

    @property
    def output_width(self) -> int:
        return self.layers[-1].n_gates

    def fan_in_width(self, layer_index: int) -> int:
        if layer_index == 0:
            return self.input_width
        return self.layers[layer_index - 1].n_gates

    def validate(self) -> None:
        if not self.layers:
            raise StructuralError("network has no layers")
        if not 0 < self.tau < np.inf:
            raise StructuralError(f"need 0 < tau < inf, got {self.tau}")
        if self.num_classes < 1 or self.output_width % self.num_classes:
            raise StructuralError(
                f"final layer width {self.output_width} not divisible by "
                f"{self.num_classes} classes"
            )

    def copy(self):
        return type(self)(
            self.input_width,
            [lay.copy() for lay in self.layers],
            self.num_classes,
            self.tau,
        )


@dataclass
class NetworkModel(_Network):
    """Trainable network: layers of LayerParams."""

    @property
    def group_size(self) -> int:
        return self.output_width // self.num_classes

    def validate(self) -> None:
        super().validate()
        if self.input_width <= 0:
            raise StructuralError("input_width must be positive")
        for i, lay in enumerate(self.layers):
            lay.validate(self.fan_in_width(i))


def sample_distinct(
    rng: np.random.Generator, n_slots: int, width: int, count: int,
    kept: np.ndarray | None = None,
) -> np.ndarray:
    """Sample (n_slots, count) indices in [0, width), distinct within each
    row and outside that row of `kept` ((n_slots, k) distinct ids).

    With (count + k)**2 >= width each row sorts random keys, the kept ids
    keyed +inf; keys cannot collide. Below that threshold a row of uniform
    draws fails with probability < (count + k)**2 / (2 * width) < 1/2, so
    each round of redrawing the failed rows at least halves them in
    expectation.
    """
    k = 0 if kept is None else kept.shape[1]
    if count + k > width:
        raise StructuralError(
            f"cannot draw {count} distinct indices from a width of {width} "
            f"excluding {k} kept"
        )
    if (count + k) ** 2 >= width:
        keys = rng.random((n_slots, width))
        if k:
            np.put_along_axis(keys, kept, np.inf, axis=1)
        return np.argsort(keys, axis=1)[:, :count].astype(np.int32)
    out = rng.integers(0, width, size=(n_slots, count), dtype=np.int32)
    while True:
        srt = np.sort(out, axis=1)
        bad = (srt[:, 1:] == srt[:, :-1]).any(axis=1)
        if k:
            bad |= (out[:, :, None] == kept[:, None, :]).any(axis=(1, 2))
        if not bad.any():
            return out
        out[bad] = rng.integers(0, width, size=(int(bad.sum()), count))


def random_network(
    input_width: int,
    layer_widths: list[int],
    num_classes: int,
    candidates_per_slot: int,
    tau: float = 30.0,
    seed: int | np.random.Generator = 0,
    logit_scale: float = 0.1,
) -> NetworkModel:
    """Fresh model: candidates sampled uniformly without replacement per
    slot, connection weights zero, gate logits small-scale Gaussian."""
    rng = (
        seed
        if isinstance(seed, np.random.Generator)
        else np.random.default_rng(seed)
    )
    layers = []
    fan_in = input_width
    for g in layer_widths:
        cand = sample_distinct(rng, g * 2, fan_in, candidates_per_slot)
        layers.append(
            LayerParams(
                gate_logits=rng.normal(
                    scale=logit_scale, size=(g, N_CODES)
                ).astype(np.float32),
                candidates=cand.reshape(g, 2, candidates_per_slot),
                conn_weights=np.zeros(
                    (g, 2, candidates_per_slot), dtype=np.float32
                ),
            )
        )
        fan_in = g
    model = NetworkModel(input_width, layers, num_classes, tau)
    model.validate()
    return model


@dataclass
class HardLayer:
    """One hardened layer: per gate a truth-table code and two fan-ins."""

    code: np.ndarray  # (G,) int32 in [0, 16)
    in0: np.ndarray  # (G,) int32
    in1: np.ndarray  # (G,) int32

    def __post_init__(self):
        self.code = _as_i32(self.code)
        self.in0 = _as_i32(self.in0)
        self.in1 = _as_i32(self.in1)
        if not (self.code.shape == self.in0.shape == self.in1.shape):
            raise StructuralError("hard layer field shapes differ")
        if self.code.ndim != 1:
            raise StructuralError("hard layer fields must be 1-D")

    @property
    def n_gates(self) -> int:
        return self.code.shape[0]

    def copy(self) -> "HardLayer":
        return HardLayer(self.code.copy(), self.in0.copy(), self.in1.copy())


@dataclass
class HardCircuit(_Network):
    """Static layered circuit of HardLayers; inputs only ever reference the
    previous layer."""

    @property
    def n_gates(self) -> int:
        return sum(self.layer_widths)

    def read_inputs(self) -> np.ndarray:
        """Bool mask of the inputs that some layer-0 table depends on."""
        lay, read = self.layers[0], np.zeros(self.input_width, dtype=bool)
        read[lay.in0[DEPENDS_A[lay.code]]] = True
        read[lay.in1[DEPENDS_B[lay.code]]] = True
        return read

    def validate(self) -> None:
        super().validate()
        for i, lay in enumerate(self.layers):
            width = self.fan_in_width(i)
            if lay.code.min(initial=0) < 0 or lay.code.max(initial=0) >= N_CODES:
                raise StructuralError("gate code out of range")
            for arr in (lay.in0, lay.in1):
                if arr.size and (arr.min() < 0 or arr.max() >= width):
                    raise StructuralError(
                        f"fan-in index out of range [0, {width}) in layer {i}"
                    )


def harden(model: NetworkModel) -> HardCircuit:
    """Collapse logits and candidate scores to a fixed circuit by argmax.
    The model is not validated again: `load_checkpoint` and `train` do."""
    layers = []
    for lay in model.layers:
        sel = lay.selected_slots()
        layers.append(
            HardLayer(
                code=lay.selected_codes(),
                in0=sel[:, 0],
                in1=sel[:, 1],
            )
        )
    return HardCircuit(model.input_width, layers, model.num_classes, model.tau)


def _valid_words_mask(n_samples: int) -> np.ndarray:
    n_words = (n_samples + WORD_BITS - 1) // WORD_BITS
    mask = np.full(n_words, ~np.uint64(0), dtype=np.uint64)
    rem = n_samples % WORD_BITS
    if rem:
        mask[-1] = np.uint64((1 << rem) - 1)
    return mask


def _eval_layer_words(
    layer: HardLayer, sig_words: np.ndarray, valid: np.ndarray
) -> np.ndarray:
    """Gates as multiplexers of table-bit words t_j, a block at a time."""
    bits = (layer.code[:, None] >> np.arange(4)) & 1
    t0, t1, t2, t3 = (0 - bits.T[:, :, None]).astype(np.uint64)
    step = max(1, KERNEL_BLOCK_BYTES // (8 * max(1, valid.size)))
    out = np.empty((layer.n_gates, valid.size), np.uint64)
    scratch = np.empty((3, min(step, layer.n_gates), valid.size), np.uint64)
    for first in range(0, layer.n_gates, step):
        g = slice(first, first + step)
        o = out[g]
        a, b, x = scratch[:, : o.shape[0]]
        np.take(sig_words, layer.in0[g], axis=0, out=a)
        np.take(sig_words, layer.in1[g], axis=0, out=b)
        np.bitwise_and(b, t0[g] ^ t1[g], out=o)
        o ^= t0[g]  # lo = t0 ^ ((t0 ^ t1) & b)
        np.bitwise_and(b, t0[g] ^ t1[g] ^ t2[g] ^ t3[g], out=x)
        x ^= t0[g] ^ t2[g]  # lo ^ hi, for hi = t2 ^ ((t2 ^ t3) & b)
        x &= a
        o ^= x  # lo ^ ((lo ^ hi) & a)
        o &= valid  # keep padding bits zero for later popcounts
    return out


def eval_circuit_layers(
    circuit: HardCircuit, inputs: BitMatrix
) -> list[np.ndarray]:
    """Evaluate every layer. Entry i is layer i's activations as
    signal-major words (see `BitMatrix`), padding bits zero."""
    if inputs.n_signals != circuit.input_width:
        raise StructuralError(
            f"input width {inputs.n_signals} != circuit {circuit.input_width}"
        )
    valid = _valid_words_mask(inputs.n_samples)
    words = inputs.words
    outs = []
    for lay in circuit.layers:
        words = _eval_layer_words(lay, words, valid)
        outs.append(words)
    return outs


def eval_circuit(circuit: HardCircuit, inputs: BitMatrix) -> BitMatrix:
    """Final-layer activations for a batch of packed input vectors."""
    final = eval_circuit_layers(circuit, inputs)[-1]
    return BitMatrix(final, inputs.n_samples)


def group_logits(
    words: np.ndarray, n_samples: int, num_classes: int, tau: float
) -> np.ndarray:
    """GroupSum head on the final layer's signal-major words: per sample,
    the count of set bits in each contiguous group of gates, / tau.
    Returns (n_samples x num_classes) float64. An adder tree adds each
    group's first half of rows to its second half, a bit plane of packed
    words at a time; an odd last row passes on. Only sum planes unpack."""
    width = words.shape[0]
    if width % num_classes != 0:
        raise StructuralError(
            f"activation width {width} not divisible by {num_classes} classes"
        )
    planes = [words.reshape(num_classes, width // num_classes, words.shape[1])]
    while planes[0].shape[1] > 1:
        h, carry, summed = planes[0].shape[1] // 2, None, []
        for plane in planes:
            a, b = plane[:, :h], plane[:, h : 2 * h]
            total = np.empty_like(plane[:, h:])
            total[:, h:] = plane[:, 2 * h :]  # the odd last row, if any
            s = np.bitwise_xor(a, b, out=total[:, :h])
            c = a & b
            if carry is not None:
                c |= carry & s
                s ^= carry
            carry = c
            summed.append(total)
        planes = summed + [np.zeros_like(summed[0])]
        planes[-1][:, :h] = carry
    bits = np.unpackbits(  # (classes, planes, samples); no planes if G = 0
        np.concatenate(planes, axis=1).view(np.uint8),
        axis=-1, count=n_samples, bitorder="little",
    )
    weights = np.left_shift(1, np.arange(bits.shape[1]), dtype=np.int32)
    return np.einsum("kpn,p->nk", bits, weights) / float(tau)


def circuit_logits(circuit: HardCircuit, inputs: BitMatrix) -> np.ndarray:
    """Class logits of the hardened circuit: (samples x classes) float64,
    equal to the training forward's logits of the model it came from."""
    final = eval_circuit_layers(circuit, inputs)[-1]
    return group_logits(final, inputs.n_samples, circuit.num_classes, circuit.tau)


def predict(circuit: HardCircuit, inputs: BitMatrix) -> np.ndarray:
    return np.argmax(circuit_logits(circuit, inputs), axis=1).astype(np.int64)


def accuracy(circuit: HardCircuit, inputs: BitMatrix, labels) -> float:
    labels = np.asarray(labels)
    return float(np.mean(predict(circuit, inputs) == labels))


@dataclass(frozen=True)
class MemoryEstimate:
    bytes_full: int
    bytes_sparse: int

    @property
    def ratio(self) -> float:
        return self.bytes_sparse / self.bytes_full


def estimate_interconnect_memory(
    G: int, I: int, k: int = 2, C: int = 8
) -> MemoryEstimate:
    """Interconnect parameter memory: dense scores over all I sources vs
    the candidate-set form (C float32 scores + C int32 indices per slot)."""
    if min(G, I, k, C) <= 0:
        raise StructuralError("all memory-estimate arguments must be positive")
    return MemoryEstimate(
        bytes_full=k * G * I * 4,
        bytes_sparse=k * G * C * 4 * 2,
    )


def format_bytes(n: int) -> str:
    """Decimal SI rendering, e.g. 2949120000 -> '2.949 GB'."""
    units = ["B", "kB", "MB", "GB", "TB", "PB"]
    value = float(n)
    for unit in units:
        if value < 1000 or unit == units[-1]:
            if unit == "B":
                return f"{int(value)} B"
            return f"{value:.3f} {unit}"
        value /= 1000.0
    raise AssertionError("unreachable")
