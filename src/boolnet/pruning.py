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

    def bucket_key(self) -> int:
        """Layer-local hash: sum of surviving variable indices."""
        return sum(self.support)

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


def _layer_cones(
    layer: HardLayer, prev: list[ConeFunction], layer_index: int, limit: int
) -> list[ConeFunction]:
    cones = []
    for gi in range(layer.n_gates):
        try:
            cones.append(
                compose_cones(
                    int(layer.code[gi]),
                    prev[layer.in0[gi]],
                    prev[layer.in1[gi]],
                    limit,
                )
            )
        except OversizedConeError as exc:
            raise OversizedConeError(
                layer_index, gi, exc.support_size, limit
            ) from None
    return cones


def all_cones(
    circuit: HardCircuit, limit: int = SUPPORT_LIMIT
) -> list[list[ConeFunction]]:
    """Cone of every gate, layer by layer."""
    prev = [ConeFunction.input_var(i) for i in range(circuit.input_width)]
    out = []
    for li, layer in enumerate(circuit.layers):
        prev = _layer_cones(layer, prev, li, limit)
        out.append(prev)
    return out


def cone_of(
    circuit: HardCircuit, layer: int, gate: int, limit: int = SUPPORT_LIMIT
) -> ConeFunction:
    """Exact support-reduced function of one gate over primary inputs."""
    memo: dict[tuple[int, int], ConeFunction] = {}

    def rec(li: int, gi: int) -> ConeFunction:
        if li < 0:
            return ConeFunction.input_var(gi)
        key = (li, gi)
        if key not in memo:
            lay = circuit.layers[li]
            try:
                memo[key] = compose_cones(
                    int(lay.code[gi]),
                    rec(li - 1, lay.in0[gi]),
                    rec(li - 1, lay.in1[gi]),
                    limit,
                )
            except OversizedConeError as exc:
                raise OversizedConeError(
                    li, gi, exc.support_size, limit
                ) from None
        return memo[key]

    if not (0 <= layer < len(circuit.layers)):
        raise StructuralError(f"no layer {layer}")
    if not (0 <= gate < circuit.layers[layer].n_gates):
        raise StructuralError(f"no gate {gate} in layer {layer}")
    return rec(layer, gate)


@dataclass
class PruneReport:
    pass_name: str
    gates_before: list[int]
    gates_after: list[int]
    # (layer, old gate) -> ("gate", layer, survivor old-index)
    #                    | ("const", bit) | ("dropped", None)
    reroute: dict = field(default_factory=dict)
    accuracy_before: float | None = None
    accuracy_after: float | None = None
    split: str | None = None

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


def logic_equivalence_prune(
    circuit: HardCircuit, limit: int = SUPPORT_LIMIT
) -> tuple[HardCircuit, PruneReport]:
    """Merge gates whose cones are identical Boolean functions.

    Per layer, front to back: bucket gates by the sum of their support
    indices, compare (support, table) exactly within buckets, keep the
    lowest-indexed member of each class and reroute readers of the rest
    to it. Gates with constant cones become literal constant gates; their
    duplicates reroute to the lowest-indexed one. Output bits are
    preserved on every input; a trivial pass then reclaims dead gates.
    """
    circuit = circuit.copy()
    before = circuit.layer_widths
    reroute: dict = {}
    n_layers = len(circuit.layers)
    prev = [ConeFunction.input_var(i) for i in range(circuit.input_width)]

    for li in range(n_layers):
        layer = circuit.layers[li]
        cones = _layer_cones(layer, prev, li, limit)
        is_final = li == n_layers - 1

        # Canonical representative per distinct function, via the
        # sum-of-support buckets (bucket collisions compare exactly).
        buckets: dict[int, list[int]] = {}
        rep_of: dict[int, int] = {}  # gate -> representative gate
        for gi, cone in enumerate(cones):
            bucket = buckets.setdefault(cone.bucket_key(), [])
            for other in bucket:
                if (
                    cones[other].support == cone.support
                    and cones[other].table == cone.table
                ):
                    rep_of[gi] = other
                    break
            else:
                bucket.append(gi)
                rep_of[gi] = gi

        # Constant cones become literal constant gates. In the final
        # layer every such gate is rewritten (none can be merged away);
        # elsewhere only class representatives need the normal form.
        for gi, cone in enumerate(cones):
            if cone.is_constant and (rep_of[gi] == gi or is_final):
                layer.code[gi] = CONST1 if cone.constant_value else CONST0
                layer.in0[gi] = 0
                layer.in1[gi] = 0

        if not is_final:
            mapping = np.arange(layer.n_gates, dtype=np.int64)
            for gi, rep in rep_of.items():
                if rep != gi:
                    mapping[gi] = rep
                    cone = cones[gi]
                    reroute[(li, gi)] = (
                        ("const", cone.constant_value)
                        if cone.is_constant
                        else ("gate", li, rep)
                    )
            nxt = circuit.layers[li + 1]
            nxt.in0[:] = mapping[nxt.in0]
            nxt.in1[:] = mapping[nxt.in1]

        prev = cones

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
    block_bytes: int = 32 << 20,
):
    """Yield (rho, i, j) for all i<j pairs with defined rho >= c."""
    g, w = words.shape
    block = max(1, block_bytes // max(1, g * w * 8))
    found = []
    for lo in range(0, g, block):
        hi = min(lo + block, g)
        # popcount of pairwise ANDs: (block, G, W) -> (block, G)
        inter = np.bitwise_count(
            words[lo:hi, None, :] & words[None, :, :]
        ).sum(axis=2, dtype=np.int64)
        rho = phi_from_counts(n, ones[lo:hi, None], ones[None, :], inter)
        ii, jj = np.nonzero(rho >= c)
        for a, b in zip(ii, jj):
            i = lo + int(a)
            j = int(b)
            if i < j:
                found.append((float(rho[a, b]), i, j))
    return found


def similarity_prune(
    circuit: HardCircuit, profile: ActivationProfile, c: float
) -> tuple[HardCircuit, PruneReport]:
    """Merge gate pairs whose profiling activations correlate at >= c.

    Pairs are taken in descending correlation (ties by index) under
    greedy matching — each gate joins at most one merge per pass — and
    the higher-indexed gate's readers move to the lower-indexed one.
    Zero-variance gates are skipped; the final layer is left alone since
    the head reads it positionally. Lossy for c < 1.
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
