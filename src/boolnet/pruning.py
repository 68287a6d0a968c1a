"""Compression passes for hardened circuits.

Four passes: trivial (dead-gate removal), logic-equivalence (sound
merging of gates computing the same Boolean function over primary
inputs), greedy (lossy constant replacement of near-constant gates), and
similarity (lossy merging of highly correlated gates). The two lossy
passes consume an ActivationProfile gathered on a profiling split.
The last three only decide: which gates become constants and which gate
stands in for which. Every pass then ends in the same rewrite
(`_rewrite`) and one trivial sweep of the gates left unread.

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
    _eval_layer_words,
    _valid_words_mask,
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
    kept: list[np.ndarray]  # per layer, the old index of each survivor
    # (layer, old gate) -> ("gate", layer, survivor old-index)
    #                    | ("const", bit) | ("dropped", None)
    reroute: dict = field(default_factory=dict)
    accuracy_after: float | None = None

    @property
    def gates_after(self) -> list[int]:
        return [k.size for k in self.kept]

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


def trivial_prune(circuit: HardCircuit) -> tuple[HardCircuit, PruneReport]:
    """Remove gates no downstream logic actually reads.

    A reference only counts when the reader's truth table depends on that
    slot, so gates feeding only constant or single-input tables are dead
    too. The final layer is the circuit's output and is never touched; a
    would-be-empty layer keeps its lowest-indexed gate as a placeholder.
    """
    n_layers = len(circuit.layers)
    keep: list[np.ndarray] = [None] * n_layers
    keep[n_layers - 1] = np.ones(circuit.layers[-1].n_gates, dtype=bool)
    for li in range(n_layers - 2, -1, -1):
        nxt = circuit.layers[li + 1]
        kept_next = keep[li + 1]
        used = np.zeros(circuit.layers[li].n_gates, dtype=bool)
        used[nxt.in0[kept_next & DEPENDS_A[nxt.code]]] = True
        used[nxt.in1[kept_next & DEPENDS_B[nxt.code]]] = True
        if not used.any():
            used[0] = True
        keep[li] = used

    report = PruneReport(
        "trivial", circuit.layer_widths, [np.flatnonzero(k) for k in keep]
    )
    new_layers = []
    new_of_old = None  # previous layer: old gate -> new index, -1 if gone
    for li, layer in enumerate(circuit.layers):
        kept = keep[li]
        for gi in np.flatnonzero(~kept).tolist():
            report.reroute[(li, gi)] = ("dropped", None)
        code, in0, in1 = layer.code[kept], layer.in0[kept], layer.in1[kept]
        if new_of_old is not None:
            in0, in1 = new_of_old[in0], new_of_old[in1]
            # Unread slots may point at removed gates; park them on 0.
            in0[(in0 < 0) & ~DEPENDS_A[code]] = 0
            in1[(in1 < 0) & ~DEPENDS_B[code]] = 0
            if (in0 < 0).any() or (in1 < 0).any():
                raise StructuralError("kept gate reads a removed gate")
        new_layers.append(HardLayer(code=code, in0=in0, in1=in1))
        new_of_old = np.full(layer.n_gates, -1, dtype=np.int64)
        new_of_old[kept] = np.arange(code.size)

    pruned = HardCircuit(
        circuit.input_width, new_layers, circuit.num_classes, circuit.tau
    )
    pruned.validate()
    return pruned, report


def _rewrite(
    circuit: HardCircuit, name: str, const: dict, rep: dict, reroute: dict
) -> tuple[HardCircuit, PruneReport]:
    """Turn a pass's verdicts into the smaller circuit and its report.

    Per layer li, the gates in `const[li] = (gates, bits)` become literal
    constant gates, and readers in layer li + 1 move to the survivor map
    `rep[li]` (old gate -> gate that stands for it). One trivial sweep
    follows; its drops join `reroute`, where the pass's own records win.
    """
    circuit = circuit.copy()
    for li, layer in enumerate(circuit.layers):
        if li - 1 in rep:
            layer.in0[:] = rep[li - 1][layer.in0]
            layer.in1[:] = rep[li - 1][layer.in1]
        if li in const:
            gates, bits = const[li]
            layer.code[gates] = np.where(bits, CONST1, CONST0)
            layer.in0[gates] = layer.in1[gates] = 0
    pruned, swept = trivial_prune(circuit)
    for key, val in swept.reroute.items():
        reroute.setdefault(key, val)
    return pruned, PruneReport(name, circuit.layer_widths, swept.kept, reroute)


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
    merge or be constant, and only those get exact cones. Per layer, a
    gate's class is its (signature group, cone) pair; the lowest-indexed
    member of each class is kept and readers of the rest move to it.
    Gates with constant cones become literal constant gates; their
    duplicates reroute to the lowest-indexed one. Output bits are
    preserved on every input; the shared rewrite's sweep then reclaims
    dead gates.
    """
    signatures = eval_circuit_layers(
        circuit, _signature_inputs(circuit.input_width)
    )
    const: dict = {}
    rep: dict = {}
    reroute: dict = {}
    memo: dict = {}
    for li, sig in enumerate(signatures):
        is_final = li == len(signatures) - 1
        proposed = ~sig.any(axis=1) | ~(~sig).any(axis=1)
        group = np.zeros(len(sig), dtype=np.int64)
        if not is_final:  # the final layer only rewrites constants
            _, group, sizes = np.unique(
                sig, axis=0, return_inverse=True, return_counts=True
            )
            group = group.ravel()
            proposed |= sizes[group] > 1

        # The representative of a distinct function is its lowest-indexed
        # gate: the first seen under its (signature group, cone) key.
        first: dict = {}
        cones: dict[int, ConeFunction] = {}
        rep_of = np.arange(len(sig), dtype=np.int64)
        for gi in np.flatnonzero(proposed).tolist():
            cone = cones[gi] = _cone(circuit, li, gi, memo, limit)
            rep_of[gi] = first.setdefault((int(group[gi]), cone), gi)

        # Constant cones become literal constant gates. In the final
        # layer every such gate is rewritten (none can be merged away);
        # elsewhere only class representatives need the normal form.
        gates = [
            gi for gi, cone in cones.items()
            if cone.is_constant and (rep_of[gi] == gi or is_final)
        ]
        const[li] = (gates, [cones[gi].constant_value for gi in gates])
        if not is_final:
            rep[li] = rep_of
            for gi, cone in cones.items():
                if rep_of[gi] != gi:
                    reroute[(li, gi)] = (
                        ("const", cone.constant_value) if cone.is_constant
                        else ("gate", li, int(rep_of[gi]))
                    )
    return _rewrite(circuit, "logic-equivalence", const, rep, reroute)


@dataclass
class ActivationProfile:
    """Per-gate activation statistics over a profiling set.

    `words[li]` is the signal-major (gates x words) activation matrix of
    layer li, one row per gate across all profiling samples, padding bits
    zero; `ones[li]` the corresponding popcounts. `changed[li]` marks the
    rows that differ from the prior's (see `profile_activations`).
    """

    words: list[np.ndarray]
    ones: list[np.ndarray]
    sample_count: int
    changed: list[np.ndarray]

    def frequency(self, layer: int, gate: int) -> float:
        return self.ones[layer][gate] / self.sample_count


def profile_activations(
    circuit: HardCircuit, data: BitMatrix, prior: tuple | None = None
) -> ActivationProfile:
    """Activations of every gate of `circuit` on `data`. With `prior =
    (profile, old_circuit, kept)` from the pass that made `circuit`,
    survivors take their old rows, and only gates whose table or read
    inputs changed, or that read a changed row, are evaluated again; a row
    equal to its old one is not changed, so the change stops spreading.
    A layer that keeps every gate and redoes none shares the prior's
    arrays. Without a prior every gate counts as changed."""
    valid = _valid_words_mask(data.n_samples)
    prev = data.to_signal_words()
    prev_changed = np.zeros(circuit.input_width, dtype=bool)
    layers = []
    for li, lay in enumerate(circuit.layers):
        redo = np.ones(lay.n_gates, dtype=bool)
        rows = np.empty((lay.n_gates, valid.size), dtype=np.uint64)
        ones = np.empty(lay.n_gates, dtype=np.int64)
        if prior is not None:
            k, was = prior[2][li], prior[1].layers[li]
            src = prior[2][li - 1] if li else np.arange(circuit.input_width)
            redo = (lay.code != was.code[k]) | DEPENDS_A[lay.code] & (
                (src[lay.in0] != was.in0[k]) | prev_changed[lay.in0]
            ) | DEPENDS_B[lay.code] & (
                (src[lay.in1] != was.in1[k]) | prev_changed[lay.in1]
            )
            rows, ones = prior[0].words[li], prior[0].ones[li]
            if redo.any() or k.size < was.n_gates:  # else `k` is the identity
                rows, ones = rows[k], ones[k]  # copies, free to overwrite
        idx = np.flatnonzero(redo)
        if idx.size:
            fresh = _eval_layer_words(
                HardLayer(lay.code[idx], lay.in0[idx], lay.in1[idx]), prev,
                valid,
            )
            if prior is not None:
                redo[idx] = (fresh != rows[idx]).any(axis=1)
            rows[idx], ones[idx] = fresh, np.bitwise_count(fresh).sum(axis=1)
        layers.append((rows, ones, redo))
        prev, prev_changed = rows, redo
    words, ones, changed = map(list, zip(*layers))
    return ActivationProfile(words, ones, data.n_samples, changed)


def greedy_prune(
    circuit: HardCircuit, profile: ActivationProfile, threshold: float
) -> tuple[HardCircuit, PruneReport]:
    """Replace near-constant gates by constants.

    A gate whose majority activation frequency reaches the threshold is
    rewritten to that constant; its former inputs become dead and the
    shared rewrite's sweep reclaims them. Lossy for threshold < 1; at
    1.0 only exactly-constant gates are touched, so profiling-set
    behavior is unchanged.
    """
    if not 0.5 < threshold <= 1.0:
        raise ConfigError(f"greedy threshold must be in (0.5, 1.0], got {threshold}")
    if [len(w) for w in profile.words] != circuit.layer_widths:
        raise StructuralError("profile does not match circuit")
    n = profile.sample_count
    const: dict = {}
    reroute: dict = {}
    for li, ones in enumerate(profile.ones):
        hi = ones / n >= threshold
        gates = np.flatnonzero(hi | ((n - ones) / n >= threshold))
        bits = hi[gates].astype(int)
        const[li] = (gates, bits)
        for gi, bit in zip(gates.tolist(), bits.tolist()):
            reroute[(li, gi)] = ("const", bit)
    return _rewrite(circuit, "greedy", const, {}, reroute)


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
    if [len(w) for w in profile.words] != circuit.layer_widths:
        raise StructuralError("profile does not match circuit")
    n = profile.sample_count
    rep: dict = {}
    reroute: dict = {}
    for li in range(len(circuit.layers) - 1):
        n_gates = circuit.layers[li].n_gates
        pairs = _pair_correlations(profile.words[li], profile.ones[li], n, c)
        pairs.sort(key=lambda t: (-t[0], t[1], t[2]))
        used = np.zeros(n_gates, dtype=bool)
        rep[li] = np.arange(n_gates, dtype=np.int64)
        for rho, i, j in pairs:
            if used[i] or used[j]:
                continue
            used[i] = used[j] = True
            rep[li][j] = i
            reroute[(li, j)] = ("gate", li, i)
    return _rewrite(circuit, "similarity", {}, rep, reroute)
