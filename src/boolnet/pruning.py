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

from .bitmatrix import BitMatrix, blocks
from .errors import ConfigError, StructuralError
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
)

SUPPORT_LIMIT = 24
SIGNATURE_WORDS = 16  # 1024 random vectors propose equivalence merges
PREFIX_WORDS = 32  # words of a row that bound a pair's count before popcounting all
# Bytes of ANDed prefix words per row block of the pair search. Some 25 numpy
# calls run per block, so WORK_BYTES blocks (3 of 1000 rows) ran the desk
# search 30% (c = 0.9) to 70% (c = 0.99) slower.
PAIR_BYTES = 4 << 20


@dataclass(frozen=True)
class ConeFunction:
    """A gate's exact Boolean function over primary inputs.

    `support` lists, in increasing order, only variables the function
    genuinely depends on. `bits` is the truth table as one int: bit r is
    the value under the assignment where bit v of r is the value of
    support[v], so a 24-input table is a 2 MB int. Equality of (support,
    bits) is therefore semantic equality; a constant's `bits` is its value.
    """

    support: tuple[int, ...]
    bits: int = field(repr=False)  # past 4300 digits, str(int) raises

    @classmethod
    def constant(cls, bit: int) -> "ConeFunction":
        return cls((), bit & 1)

    @classmethod
    def input_var(cls, i: int) -> "ConeFunction":
        return cls((i,), 0b10)

    @property
    def is_constant(self) -> bool:
        return not self.support


def _low(v: int, m: int) -> int:
    """Table over m inputs that is 1 where input v is 0 (v < m)."""
    t, width = (1 << (1 << v)) - 1, 2 << v
    while width < 1 << m:
        t |= t << width
        width <<= 1
    return t


def _widen(cone: ConeFunction, union: tuple[int, ...]) -> int:
    """Table of `cone` over `union`, a sorted superset of its support: at
    each missing input's position p, the 2^p-bit chunks spread to every
    other slot and then fill the slots between (mask-and-shift steps)."""
    t, m = cone.bits, len(cone.support)
    for p, var in enumerate(union):
        if var not in cone.support:
            for v in range(m - 1, p - 1, -1):
                t |= t << (1 << v)
                t &= _low(v, m + 1)
            t, m = t | t << (1 << p), m + 1
    return t


def _gate(code: int, a: int, b: int, k: int) -> int:
    """Gate `code` on int tables a, b over k inputs, in algebraic normal
    form; f_xy is the code's bit 2x + y, the value at a = x, b = y."""
    f00, f01, f10, f11 = (code >> j & 1 for j in range(4))
    t = ((1 << (1 << k)) - 1) * f00 ^ a * (f00 ^ f10) ^ b * (f00 ^ f01)
    return t ^ (a & b) if f00 ^ f01 ^ f10 ^ f11 else t


def compose_cones(
    code: int, a: ConeFunction, b: ConeFunction
) -> ConeFunction | None:
    """Apply a gate table to two child cones and reduce the support, or
    return None when the union support exceeds SUPPORT_LIMIT.

    Both child tables are widened to the union support, combined by
    bitwise ops on the ints, and every input the result does not read is
    dropped again."""
    union = tuple(sorted(set(a.support) | set(b.support)))
    k = len(union)
    if k > SUPPORT_LIMIT:
        return None
    t = _gate(code, _widen(a, union), _widen(b, union), k)
    support = list(union)
    for p in range(k - 1, -1, -1):
        m = len(support)
        low = _low(p, m)
        if not (t ^ t >> (1 << p)) & low:  # t does not read input p
            t &= low  # pack the chunks where input p is 0: _widen reversed
            for v in range(p + 1, m):
                t |= t >> (1 << (v - 1))
                t &= _low(v, m)
            del support[p]
    return ConeFunction(tuple(support), t)


def _cone(
    circuit: HardCircuit, li: int, gi: int, memo: dict
) -> ConeFunction | None:
    """Cone of gate gi of layer li (input gi when li < 0), memoized in
    `memo`, or None when it or a cone it reads is past SUPPORT_LIMIT.
    Slots the gate's table does not read are never visited."""
    if li < 0:
        return ConeFunction.input_var(gi)
    if (li, gi) in memo:  # None is a stored answer too
        return memo[(li, gi)]
    lay = circuit.layers[li]
    code = int(lay.code[gi])
    if code in (CONST0, CONST1):
        cone = ConeFunction.constant(code & 1)
    else:  # an unread slot takes the read one's cone
        read = [
            _cone(circuit, li - 1, int(src[gi]), memo)
            for src, depends in ((lay.in0, DEPENDS_A), (lay.in1, DEPENDS_B))
            if depends[code]
        ]
        cone = None if None in read else compose_cones(code, read[0], read[-1])
    memo[(li, gi)] = cone
    return cone


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
    return BitMatrix(words, 64 * SIGNATURE_WORDS)


def logic_equivalence_prune(
    circuit: HardCircuit,
) -> tuple[HardCircuit, PruneReport]:
    """Merge gates whose cones are identical Boolean functions.

    Simulation proposes, cones prove. The circuit is evaluated once on
    fixed random inputs; equal functions give equal signature rows, so
    only gates that share a row, or whose row is all-0 or all-1, can
    merge or be constant. Constant-coded proposals are settled from
    their codes, and only the others get exact cones (int truth tables,
    see `ConeFunction`). A proposal whose cone is past SUPPORT_LIMIT is
    unproved: it stays unmerged and non-constant, which is sound and
    only compresses less. Per layer, a gate's class is its (signature
    group, cone) pair; the lowest-indexed member of each class is kept
    and readers of the rest move to it. Each constant class is settled
    with array ops: its lowest-indexed member becomes a literal constant
    gate and the rest reroute to it. Output bits are preserved on every
    input; the shared rewrite's sweep then reclaims dead gates.
    """
    signatures = eval_circuit_layers(
        circuit, _signature_inputs(circuit.input_width)
    )
    const: dict = {}
    rep: dict = {}
    reroute: dict = {}
    memo: dict = {}
    for li, (sig, lay) in enumerate(zip(signatures, circuit.layers)):
        is_final = li == len(signatures) - 1
        proposed = ~sig.any(axis=1) | ~(~sig).any(axis=1)
        group = np.zeros(len(sig), dtype=np.int64)
        if not is_final:  # the final layer only rewrites constants
            # One opaque value per row: the partition np.unique(sig, axis=0)
            # gives, at a fraction of its cost.
            void = np.dtype((np.void, sig.shape[1] * sig.itemsize))
            rows = np.ascontiguousarray(sig).view(void)
            _, group, sizes = np.unique(
                rows[:, 0], return_inverse=True, return_counts=True
            )
            proposed |= sizes[group] > 1

        # The representative of a distinct function is its lowest-indexed
        # gate: the first seen under its (signature group, cone) key, or
        # in its constant class. Constant-coded gates need no cone.
        bit = np.select([lay.code == CONST0, lay.code == CONST1], [0, 1], -1)
        first: dict = {}
        rep_of = np.arange(len(sig), dtype=np.int64)
        for gi in np.flatnonzero(proposed & (bit < 0)).tolist():
            cone = _cone(circuit, li, gi, memo)
            if cone is None:  # unproved: stays unmerged and non-constant
                continue
            if cone.is_constant:
                bit[gi] = cone.bits
            else:
                rep_of[gi] = first.setdefault((int(group[gi]), cone), gi)
        gates = np.flatnonzero(bit >= 0)
        _, lead, cls = np.unique(bit[gates], return_index=True, return_inverse=True)
        rep_of[gates] = gates[lead][cls]

        # Constant cones become literal constant gates. In the final
        # layer every such gate is rewritten (none can be merged away);
        # elsewhere only class representatives need the normal form.
        if not is_final:
            gates = gates[lead]
            rep[li] = rep_of
            for gi in np.flatnonzero(rep_of != np.arange(len(sig))).tolist():
                reroute[(li, gi)] = (
                    ("const", int(bit[gi])) if bit[gi] >= 0
                    else ("gate", li, int(rep_of[gi]))
                )
        const[li] = (gates, bit[gates])
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
    prev = data.words
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
    closed form. The numerator is exact in float64. The denominator takes
    one square root of the whole product: for two identical rows that
    product is x * x with x the numerator, and a correctly rounded
    sqrt(x * x) is x, so identical rows read exactly 1.0 and `rho >= 1.0`
    finds them. For other pairs the denominator is rounded, and deciding
    rho >= c on integers for c < 1 is an open ROADMAP item ("Exact rho >= c
    decisions"); the count band and the prefix bound of
    `_pair_correlations` use this arithmetic too and must change with it.
    """
    ni = np.asarray(ni, dtype=np.float64)
    nj = np.asarray(nj, dtype=np.float64)
    nij = np.asarray(nij, dtype=np.float64)
    num = n * nij - ni * nj
    den = np.sqrt(ni * (n - ni) * (nj * (n - nj)))
    with np.errstate(divide="ignore", invalid="ignore"):
        out = num / den
    return out


def _pair_correlations(
    words: np.ndarray, ones: np.ndarray, n: int, c: float
) -> list[tuple[float, int, int]]:
    """Return (rho, i, j) for all i<j pairs with defined rho >= c.

    For counts n_i <= n_j, n_ij <= n_i bounds rho by
    phi_from_counts(n, n_i, n_j, n_i), which falls as n_j grows; rho >= c
    needs n_j <= n n_i / (n_i + c^2 (n - n_i)). With gates sorted by
    count, each row's possible partners are therefore a band of columns
    from its own. No pair is lost: in float64 the numerator is an exact
    integer and the denominator does not depend on n_ij, so a computed
    rho never exceeds its computed bound, and the band end has slack for
    rounding. Within the band, only pairs whose first PREFIX_WORDS words
    allow rho >= c are popcounted in full: with prefix counts p,
    n_ij <= p_ij + min(n_i - p_i, n_j - p_j), and a rho computed from that
    bound is no less than the true one, by the same argument. Both stages
    go in `blocks`, the first of PAIR_BYTES; a row block ends its columns
    at its widest band."""
    order = np.argsort(ones, kind="stable")
    words, ones = words[order], ones[order]
    g, w = words.shape
    with np.errstate(invalid="ignore"):  # n = 0 gives NaN: the whole row
        limit = n * ones / (ones + c * c * (n - ones))
    end = np.searchsorted(ones, limit * (1 + 1e-9), side="right")
    pre = min(PREFIX_WORDS, w)
    rest = ones - np.bitwise_count(words[:, :pre]).sum(axis=1, dtype=np.int64)
    pairs = [(np.empty(0, np.intp),) * 2]
    for b in blocks(g, g * pre * 8, PAIR_BYTES):
        lo, hi = b.start, b.stop
        e = end[lo:hi].max()
        # prefix popcount of pairwise ANDs: (block, e - lo, pre) -> (block, e - lo)
        bound = np.bitwise_count(
            words[lo:hi, None, :pre] & words[None, lo:e, :pre]
        ).sum(axis=2, dtype=np.uint16) + np.minimum(
            rest[lo:hi, None], rest[None, lo:e]
        )
        rho = phi_from_counts(n, ones[lo:hi, None], ones[None, lo:e], bound)
        ii, jj = np.nonzero(rho >= c)
        upper = ii < jj
        pairs.append((ii[upper] + lo, jj[upper] + lo))
    ii, jj = (np.concatenate(idx) for idx in zip(*pairs))
    total = np.uint16 if n <= 0xFFFF else np.int64  # no count exceeds n
    inter = np.empty(ii.size, dtype=total)
    for s in blocks(ii.size, 24 * w):  # three (pairs, w) temporaries
        both = words[ii[s]] & words[jj[s]]
        inter[s] = np.bitwise_count(both).sum(axis=1, dtype=total)
    rho = phi_from_counts(n, ones[ii], ones[jj], inter)
    keep = rho >= c
    a, b = order[ii[keep]], order[jj[keep]]  # back to layer indices
    return list(zip(
        rho[keep].tolist(), np.minimum(a, b).tolist(), np.maximum(a, b).tolist()
    ))


def similarity_prune(
    circuit: HardCircuit, profile: ActivationProfile, c: float
) -> tuple[HardCircuit, PruneReport]:
    """Merge gate pairs whose profiling activations correlate at >= c.

    Pairs are taken in descending correlation (ties by index) under
    greedy matching — each gate joins at most one merge per pass — and
    the higher-indexed gate's readers move to the lower-indexed one.
    Zero-variance gates are skipped; the final layer is left alone since
    the head reads it positionally. Lossy for c < 1. Only pairs whose
    activation counts, then prefix counts, allow rho >= c are popcounted
    in full; no pair at or above c is lost, as a computed rho never
    exceeds its computed count bound (see `_pair_correlations`).
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
