"""Compression passes for hardened circuits.

Four passes: trivial (dead-gate removal), logic-equivalence (sound
merging of gates computing the same Boolean function over primary
inputs), greedy (lossy constant replacement of near-constant gates), and
similarity (lossy merging of highly correlated gates). The two lossy
passes consume an ActivationProfile gathered on a profiling split.

The classification head reads the final layer positionally, so merge
passes never delete final-layer gates; constant rewrites there are still
allowed (they preserve every output bit).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bitmatrix import BitMatrix
from .errors import ConfigError, OversizedConeError, StructuralError
from .model import (
    CONST0,
    CONST1,
    DEPENDS_A,
    DEPENDS_B,
    HardCircuit,
    HardLayer,
    eval_circuit_layers,
    eval_code,
)

SUPPORT_LIMIT = 24
SIGNATURE_WORDS = 16  # 1024 random vectors propose equivalence merges


@dataclass(frozen=True)
class ConeFunction:
    """A gate's exact Boolean function over primary inputs.

    `support` lists only variables the function genuinely depends on.
    `table` is flat with canonical bit order: entry r gives the value
    under the assignment where bit v of r is the value of support[v].
    Equality of (support, table) is therefore semantic equality.
    """

    support: tuple[int, ...]
    table: bytes  # 2^len(support) entries, one byte each, 0/1

    def __post_init__(self):
        if len(self.table) != 1 << len(self.support):
            raise StructuralError("cone table length != 2^|support|")

    @classmethod
    def constant(cls, bit: int) -> "ConeFunction":
        return cls((), bytes([bit & 1]))

    @classmethod
    def input_var(cls, i: int) -> "ConeFunction":
        return cls((i,), bytes([0, 1]))

    @classmethod
    def from_nd(cls, support: tuple[int, ...], nd: np.ndarray) -> "ConeFunction":
        flat = np.ravel(nd.astype(np.uint8), order="F")
        return cls(support, flat.tobytes())

    def nd(self) -> np.ndarray:
        arr = np.frombuffer(self.table, dtype=np.uint8)
        return arr.reshape((2,) * len(self.support), order="F")

    @property
    def is_constant(self) -> bool:
        return not self.support

    @property
    def constant_value(self) -> int:
        if not self.is_constant:
            raise StructuralError("cone is not constant")
        return self.table[0]

    def evaluate(self, assignment: dict[int, int]) -> int:
        r = 0
        for v, var in enumerate(self.support):
            r |= (assignment[var] & 1) << v
        return self.table[r]


def compose_cones(
    code: int, a: ConeFunction, b: ConeFunction, limit: int = SUPPORT_LIMIT
) -> ConeFunction:
    """Apply a gate table to two child cones and reduce the support."""
    union = tuple(sorted(set(a.support) | set(b.support)))
    if len(union) > limit:
        raise OversizedConeError(-1, -1, len(union), limit)
    sa = set(a.support)
    sb = set(b.support)
    nd_a = a.nd()[
        tuple(slice(None) if v in sa else np.newaxis for v in union)
    ]
    nd_b = b.nd()[
        tuple(slice(None) if v in sb else np.newaxis for v in union)
    ]
    out = eval_code(code, *np.broadcast_arrays(nd_a, nd_b))
    support = list(union)
    for axis in range(len(support) - 1, -1, -1):
        lo = out.take(0, axis=axis)
        hi = out.take(1, axis=axis)
        if np.array_equal(lo, hi):
            out = lo
            del support[axis]
    return ConeFunction.from_nd(tuple(support), out)


def _cone(
    circuit: HardCircuit, li: int, gi: int, memo: dict, limit: int
) -> ConeFunction:
    """Cone of gate gi of layer li (input gi when li < 0), memoized in
    `memo`. Slots the gate's table does not read are never visited."""
    if li < 0:
        return ConeFunction.input_var(gi)
    cone = memo.get((li, gi))
    if cone is None:
        lay = circuit.layers[li]
        code = int(lay.code[gi])
        if code in (CONST0, CONST1):
            cone = ConeFunction.constant(code & 1)
        else:
            a = b = None
            if DEPENDS_A[code]:
                a = _cone(circuit, li - 1, int(lay.in0[gi]), memo, limit)
            if DEPENDS_B[code]:
                b = _cone(circuit, li - 1, int(lay.in1[gi]), memo, limit)
            try:  # an unread slot takes the read one's cone
                cone = compose_cones(code, a or b, b or a, limit)
            except OversizedConeError as exc:
                raise OversizedConeError(
                    li, gi, exc.support_size, limit
                ) from None
        memo[(li, gi)] = cone
    return cone


def all_cones(
    circuit: HardCircuit, limit: int = SUPPORT_LIMIT
) -> list[list[ConeFunction]]:
    """Cone of every gate, layer by layer."""
    memo: dict = {}
    return [
        [_cone(circuit, li, gi, memo, limit) for gi in range(lay.n_gates)]
        for li, lay in enumerate(circuit.layers)
    ]


def cone_of(
    circuit: HardCircuit, layer: int, gate: int, limit: int = SUPPORT_LIMIT
) -> ConeFunction:
    """Exact support-reduced function of one gate over primary inputs."""
    if not (0 <= layer < len(circuit.layers)):
        raise StructuralError(f"no layer {layer}")
    if not (0 <= gate < circuit.layers[layer].n_gates):
        raise StructuralError(f"no gate {gate} in layer {layer}")
    return _cone(circuit, layer, gate, {}, limit)


@dataclass
class PruneReport:
    pass_name: str
    gates_before: list[int]
    gates_after: list[int]
    # (layer, old gate) -> ("gate", layer, survivor old-index)
    #                    | ("const", bit) | ("dropped", None)
    reroute: dict = field(default_factory=dict)
    accuracy_after: float | None = None

    @property
    def removed(self) -> int:
        return sum(self.gates_before) - sum(self.gates_after)

    def csv_rows(self) -> list[dict]:
        rows = []
        for li, (b, a) in enumerate(zip(self.gates_before, self.gates_after)):
            rows.append(
                {
                    "pass": self.pass_name,
                    "layer": li,
                    "before": b,
                    "after": a,
                    "accuracy": "" if self.accuracy_after is None
                    else self.accuracy_after,
                }
            )
        return rows


def _reads_slot(layer: HardLayer) -> tuple[np.ndarray, np.ndarray]:
    """Boolean masks: does each gate's table actually read slot 0 / 1."""
    return DEPENDS_A[layer.code], DEPENDS_B[layer.code]


def trivial_prune(circuit: HardCircuit) -> tuple[HardCircuit, PruneReport]:
    """Remove gates no downstream logic actually reads.

    A reference only counts when the reader's truth table depends on that
    slot, so gates feeding only constant or single-input tables are dead
    too. The final layer is the circuit's output and is never touched; a
    would-be-empty layer keeps its lowest-indexed gate as a placeholder.
    """
    circuit = circuit.copy()
    n_layers = len(circuit.layers)
    before = circuit.layer_widths
    keep: list[np.ndarray] = [None] * n_layers
    keep[n_layers - 1] = np.ones(circuit.layers[-1].n_gates, dtype=bool)
    for li in range(n_layers - 2, -1, -1):
        nxt = circuit.layers[li + 1]
        reads0, reads1 = _reads_slot(nxt)
        kept_next = keep[li + 1]
        used = np.zeros(circuit.layers[li].n_gates, dtype=bool)
        used[nxt.in0[kept_next & reads0]] = True
        used[nxt.in1[kept_next & reads1]] = True
        if not used.any():
            used[0] = True
        keep[li] = used

    report = PruneReport("trivial", before, [int(k.sum()) for k in keep])
    new_layers = []
    prev_new_of_old = None
    for li, layer in enumerate(circuit.layers):
        kept = keep[li]
        old_of_new = np.flatnonzero(kept)
        new_of_old = np.full(layer.n_gates, -1, dtype=np.int64)
        new_of_old[old_of_new] = np.arange(old_of_new.size)
        for gi in np.flatnonzero(~kept):
            report.reroute[(li, int(gi))] = ("dropped", None)

        in0 = layer.in0[kept].copy()
        in1 = layer.in1[kept].copy()
        code = layer.code[kept].copy()
        if li > 0:
            prev_map = prev_new_of_old  # filled on the previous iteration
            reads0, reads1 = DEPENDS_A[code], DEPENDS_B[code]
            in0 = prev_map[in0]
            in1 = prev_map[in1]
            # Unread slots may point at removed gates; park them on 0.
            in0[(in0 < 0) & ~reads0] = 0
            in1[(in1 < 0) & ~reads1] = 0
            if (in0 < 0).any() or (in1 < 0).any():
                raise StructuralError("kept gate reads a removed gate")
        new_layers.append(HardLayer(code=code, in0=in0, in1=in1))
        prev_new_of_old = new_of_old

    pruned = HardCircuit(
        circuit.input_width, new_layers, circuit.num_classes, circuit.tau
    )
    pruned.validate()
    return pruned, report


def _signature_inputs(width: int) -> BitMatrix:
    """Fixed-seed random inputs: SIGNATURE_WORDS words of 64 vectors."""
    words = np.random.default_rng(0).integers(
        0, 1 << 64, size=(width, SIGNATURE_WORDS), dtype=np.uint64
    )
    return BitMatrix.from_signal_words(words, 64 * SIGNATURE_WORDS)


def logic_equivalence_prune(
    circuit: HardCircuit, limit: int = SUPPORT_LIMIT
) -> tuple[HardCircuit, PruneReport]:
    """Merge gates whose cones are identical Boolean functions.

    Simulation proposes, cones prove. The circuit is evaluated once on
    fixed random inputs; equal functions give equal signature rows, so
    only gates that share a row, or whose row is all-0 or all-1, can
    merge or be constant, and only those get exact cones. Per layer,
    front to back, (support, table) is compared within a row's group,
    the lowest-indexed member of each class is kept and readers of the
    rest are rerouted to it. Gates with constant cones become literal
    constant gates; their duplicates reroute to the lowest-indexed one.
    Output bits are preserved on every input; a trivial pass then
    reclaims dead gates.
    """
    signatures = eval_circuit_layers(
        circuit, _signature_inputs(circuit.input_width)
    )
    original, circuit = circuit, circuit.copy()
    before = circuit.layer_widths
    reroute: dict = {}
    n_layers = len(circuit.layers)
    memo: dict = {}

    for li in range(n_layers):
        layer = circuit.layers[li]
        is_final = li == n_layers - 1
        sig = signatures[li]
        proposed = ~sig.any(axis=1) | ~(~sig).any(axis=1)
        group = np.zeros(layer.n_gates, dtype=np.int64)
        if not is_final:  # the final layer only rewrites constants
            _, group, sizes = np.unique(
                sig, axis=0, return_inverse=True, return_counts=True
            )
            group = group.ravel()
            proposed |= sizes[group] > 1

        # Canonical representative per distinct function: exact cone
        # comparison within each signature group, in index order.
        classes: dict[int, list[int]] = {}
        cones: dict[int, ConeFunction] = {}
        rep_of = np.arange(layer.n_gates, dtype=np.int64)
        for gi in np.flatnonzero(proposed).tolist():
            cone = cones[gi] = _cone(original, li, gi, memo, limit)
            members = classes.setdefault(int(group[gi]), [])
            for other in members:
                if cones[other] == cone:
                    rep_of[gi] = other
                    break
            else:
                members.append(gi)

        # Constant cones become literal constant gates. In the final
        # layer every such gate is rewritten (none can be merged away);
        # elsewhere only class representatives need the normal form.
        for gi, cone in cones.items():
            if cone.is_constant and (rep_of[gi] == gi or is_final):
                layer.code[gi] = CONST1 if cone.constant_value else CONST0
                layer.in0[gi] = 0
                layer.in1[gi] = 0

        if not is_final:
            merged = np.flatnonzero(rep_of != np.arange(layer.n_gates))
            for gi in merged.tolist():
                cone = cones[gi]
                reroute[(li, gi)] = (
                    ("const", cone.constant_value)
                    if cone.is_constant
                    else ("gate", li, int(rep_of[gi]))
                )
            nxt = circuit.layers[li + 1]
            nxt.in0[:] = rep_of[nxt.in0]
            nxt.in1[:] = rep_of[nxt.in1]

    pruned, trivial_report = trivial_prune(circuit)
    for key, val in trivial_report.reroute.items():
        reroute.setdefault(key, val)  # merge record beats "dropped"
    report = PruneReport(
        "logic-equivalence", before, pruned.layer_widths, reroute
    )
    return pruned, report


@dataclass
class ActivationProfile:
    """Per-gate activation statistics over a profiling set.

    `words[li]` is the signal-major (gates x words) activation matrix of
    layer li from `eval_circuit_layers`, one row per gate across all
    profiling samples, padding bits zero; `ones[li]` the corresponding
    popcounts.
    """

    words: list[np.ndarray]
    ones: list[np.ndarray]
    sample_count: int

    def frequency(self, layer: int, gate: int) -> float:
        return self.ones[layer][gate] / self.sample_count


def profile_activations(
    circuit: HardCircuit, data: BitMatrix
) -> ActivationProfile:
    words = eval_circuit_layers(circuit, data)
    ones = [
        np.bitwise_count(w).sum(axis=1).astype(np.int64) for w in words
    ]
    return ActivationProfile(words, ones, data.n_samples)


def greedy_prune(
    circuit: HardCircuit, profile: ActivationProfile, threshold: float
) -> tuple[HardCircuit, PruneReport]:
    """Replace near-constant gates by constants.

    A gate whose majority activation frequency reaches the threshold is
    rewritten to that constant; its former inputs become dead and a
    trivial pass reclaims them. Lossy for threshold < 1; at 1.0 only
    exactly-constant gates are touched, so profiling-set behavior is
    unchanged.
    """
    if not 0.5 < threshold <= 1.0:
        raise ConfigError(f"greedy threshold must be in (0.5, 1.0], got {threshold}")
    if profile.words[0].shape[0] != circuit.layers[0].n_gates:
        raise StructuralError("profile does not match circuit")
    circuit = circuit.copy()
    before = circuit.layer_widths
    reroute: dict = {}
    n = profile.sample_count
    for li, layer in enumerate(circuit.layers):
        ones = profile.ones[li]
        hi = ones / n >= threshold
        lo = (n - ones) / n >= threshold
        for gi in np.flatnonzero(hi | lo):
            bit = 1 if hi[gi] else 0
            layer.code[gi] = CONST1 if bit else CONST0
            layer.in0[gi] = 0
            layer.in1[gi] = 0
            reroute[(li, int(gi))] = ("const", bit)
    pruned, trivial_report = trivial_prune(circuit)
    for key, val in trivial_report.reroute.items():
        reroute.setdefault(key, val)
    return pruned, PruneReport("greedy", before, pruned.layer_widths, reroute)


def phi_from_counts(n: int, ni, nj, nij):
    """Correlation of two binary variables from joint popcounts.

    On binary data the rank-based correlation coefficient reduces to this
    closed form; inputs are exact integers so equality comparisons with
    1.0 are meaningful at profiling-set sizes.
    """
    ni = np.asarray(ni, dtype=np.float64)
    nj = np.asarray(nj, dtype=np.float64)
    nij = np.asarray(nij, dtype=np.float64)
    num = n * nij - ni * nj
    den = np.sqrt(ni * (n - ni)) * np.sqrt(nj * (n - nj))
    with np.errstate(divide="ignore", invalid="ignore"):
        out = num / den
    return out


def _pair_correlations(
    words: np.ndarray, ones: np.ndarray, n: int, c: float,
    block_bytes: int = 4 << 20,
) -> list[tuple[float, int, int]]:
    """Return (rho, i, j) for all i<j pairs with defined rho >= c.

    For counts n_i <= n_j, n_ij <= n_i bounds rho by
    phi_from_counts(n, n_i, n_j, n_i), which falls as n_j grows; rho >= c
    needs n_j <= n n_i / (n_i + c^2 (n - n_i)). With gates sorted by
    count, each row's possible partners are therefore a band of columns
    from its own. No pair is lost: in float64 the numerator is an exact
    integer and the denominator does not depend on n_ij, so a computed
    rho never exceeds its computed bound, and the band end has slack for
    rounding. Rows go in blocks whose AND temporary is at most about
    `block_bytes`, each block's columns ending at its widest band."""
    order = np.argsort(ones, kind="stable")
    words, ones = words[order], ones[order]
    g, w = words.shape
    with np.errstate(invalid="ignore"):  # n = 0 gives NaN: the whole row
        limit = n * ones / (ones + c * c * (n - ones))
    end = np.searchsorted(ones, limit * (1 + 1e-9), side="right")
    total = np.uint16 if n <= 0xFFFF else np.int64  # no count exceeds n
    block = max(1, block_bytes // max(1, g * w * 8))
    found = []
    for lo in range(0, g, block):
        hi = min(lo + block, g)
        e = end[lo:hi].max()
        # popcount of pairwise ANDs: (block, e - lo, W) -> (block, e - lo)
        inter = np.bitwise_count(
            words[lo:hi, None, :] & words[None, lo:e, :]
        ).sum(axis=2, dtype=total)
        rho = phi_from_counts(n, ones[lo:hi, None], ones[None, lo:e], inter)
        ii, jj = np.nonzero(rho >= c)
        upper = ii < jj
        ii, jj = ii[upper], jj[upper]
        a, b = order[ii + lo], order[jj + lo]  # back to layer indices
        found += zip(
            rho[ii, jj].tolist(),
            np.minimum(a, b).tolist(),
            np.maximum(a, b).tolist(),
        )
    return found


def similarity_prune(
    circuit: HardCircuit, profile: ActivationProfile, c: float
) -> tuple[HardCircuit, PruneReport]:
    """Merge gate pairs whose profiling activations correlate at >= c.

    Pairs are taken in descending correlation (ties by index) under
    greedy matching — each gate joins at most one merge per pass — and
    the higher-indexed gate's readers move to the lower-indexed one.
    Zero-variance gates are skipped; the final layer is left alone since
    the head reads it positionally. Lossy for c < 1. Only pairs whose
    activation counts allow rho >= c are popcounted, a band of the gates
    sorted by count; no pair at or above c is lost, as a computed rho
    never exceeds its computed count bound (see `_pair_correlations`).
    """
    if not 0 < c <= 1.0:
        raise ConfigError(f"similarity threshold must be in (0, 1], got {c}")
    if profile.words[0].shape[0] != circuit.layers[0].n_gates:
        raise StructuralError("profile does not match circuit")
    circuit = circuit.copy()
    before = circuit.layer_widths
    reroute: dict = {}
    n = profile.sample_count
    for li in range(len(circuit.layers) - 1):
        layer = circuit.layers[li]
        pairs = _pair_correlations(
            profile.words[li], profile.ones[li], n, c
        )
        pairs.sort(key=lambda t: (-t[0], t[1], t[2]))
        used = np.zeros(layer.n_gates, dtype=bool)
        mapping = np.arange(layer.n_gates, dtype=np.int64)
        for rho, i, j in pairs:
            if used[i] or used[j]:
                continue
            used[i] = used[j] = True
            mapping[j] = i
            reroute[(li, j)] = ("gate", li, i)
        nxt = circuit.layers[li + 1]
        nxt.in0[:] = mapping[nxt.in0]
        nxt.in1[:] = mapping[nxt.in1]
    pruned, trivial_report = trivial_prune(circuit)
    for key, val in trivial_report.reroute.items():
        reroute.setdefault(key, val)
    return pruned, PruneReport(
        "similarity", before, pruned.layer_widths, reroute
    )
