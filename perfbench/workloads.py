"""The workloads: set-up, the measured operations, and the output checks.

Every workload reports every end-to-end metric from one model. A run
sets up (writes, loads and encodes the data, builds the model) a few
times. Then, until the window ends, it interleaves three timed
operations: a training epoch from the same initial model, and ``boolnet
eval`` and ``boolnet prune`` through the CLI on a checkpoint of the
trained model. Each timing covers every repetition of its operation in
the run (work done over the time it took), and interleaving spreads every
operation over the shared host's quieter and busier spells alike: on a
2-vCPU host these lasted from seconds to minutes, and per-run totals
varied less across runs than per-run medians or minima. A traced run
repeats the whole sequence (epoch, checkpoint, eval, prune) as one
repetition.

All calls into the package go through module attributes (``training.train``,
not a name imported from it), so the tracer's patches see them.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
import tracemalloc
from dataclasses import dataclass

import numpy as np

from boolnet import bitmatrix, cli, data, encoding, model, serialize, training

import inputs
from tracing import Target, Tracer, layer_stats, replace_everywhere


@dataclass(frozen=True)
class Shape:
    dataset: str  # "mnist" or "cifar10"
    pixels: int
    thresholds: int  # thermometer bits per pixel
    widths: tuple[int, ...]
    n_train: int  # samples in the training epoch
    n_val: int  # profiling split of `boolnet prune`, and val_accuracy
    n_test: int  # split of `boolnet eval` and pruned_accuracy
    n_val_epoch: int  # prefix of val used by the per-epoch validation
    batch: int

    @property
    def input_width(self) -> int:
        return self.pixels * self.thresholds


DESK = Shape(
    dataset="mnist", pixels=inputs.MNIST_PIXELS, thresholds=3,
    widths=(1000, 1000, 1000), n_train=3000, n_val=10000, n_test=10000,
    n_val_epoch=2000, batch=100,
)
# Batch 20 at the wide shape: at 100 the per-step candidate gather (about
# 150 MB) ran 2.4x slower per sample and its speed drifted by +-25% within
# a minute on a shared 2-core host, too unsteady for the bounds.
# With a single gate layer nothing can be pruned (final-layer gates are
# never removed), so the wide compression figures are fixed by structure.
WIDE = Shape(
    dataset="cifar10", pixels=inputs.CIFAR_PIXELS, thresholds=10,
    widths=(12000,), n_train=600, n_val=2000, n_test=2000,
    n_val_epoch=500, batch=20,
)


@dataclass(frozen=True)
class Workload:
    name: str
    shape: Shape
    sampling_mode: str
    # Share of the window given to each timed operation; training comes
    # first, as eval and prune read the checkpoint of the trained model.
    shares: dict[str, float]


# No desk workload with random refresh: on a shared 2-vCPU host its epoch
# time moved by up to 1.6x between minute-long periods of contention, and
# its throughput spread across ten seeds reached 0.33 of the median, above
# the largest bound allowed. Refresh dominates the gradient-guided epoch
# and the wide epoch is bound by memory, and both stayed within about 0.1.
# At the wide shape one prune takes about 9 s, so it runs about once.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "desk", DESK, "gradient_guided",
            {"train": 0.6, "eval": 0.12, "prune": 0.28},
        ),
        Workload(
            "train-wide", WIDE, "random",
            {"train": 0.65, "eval": 0.1, "prune": 0.25},
        ),
    )
}
# Each timed operation runs at least this often, whatever the window.
MIN_COUNTS = {"train": 3, "eval": 3, "prune": 1}

CANDIDATES = 8  # C
REPLACED = 4  # R
BETA = 20
TAU = 30.0
# Model initialisation and training order are part of the workload, not
# of its inputs: with them drawn from --seed, accuracy after one epoch
# varied across seeds by far more than with the samples alone.
MODEL_SEED = 0
PASSES = "trivial,equivalence,greedy,similarity"
PASS_NAMES = {  # pass function -> pass name
    "pruning.trivial_prune": "trivial",
    "pruning.logic_equivalence_prune": "equivalence",
    "pruning.greedy_prune": "greedy",
    "pruning.similarity_prune": "similarity",
}
E2E_UNITS = {
    "setup_s": "s",
    "train_samples_per_s": "samples/s",
    "val_accuracy": "fraction",
    "eval_samples_per_s": "samples/s",
    "prune_s": "s",
    "pruned_gates": "count",
    "pruned_accuracy": "fraction",
    # The process peak; ingesting and encoding the splits set it, so a
    # change to training memory that stays below it does not show here.
    "peak_rss_mb": "MB",
    # What one training epoch allocates on top of the set-up's data. At the
    # wide shape it doubles with G and grows by about 0.5 MB per candidate.
    "train_peak_mb": "MB",
}
SETUP_REPEATS = 5
TRACE_PAIRS = 2  # untraced/traced repetition pairs in a traced run

TARGETS = [
    Target("training.train"),
    Target("training._forward_arrays"),
    Target("training.backward"),
    Target("training.connection_gradient"),
    Target("training._scatter_slots"),
    Target("training.Adam.step"),
    Target("training.evaluate_arrays"),
    Target("interconnect.refresh_candidates"),
    Target("interconnect.sample_gradient_guided"),
    Target("model.harden"),
    Target("model.eval_circuit_layers"),
    Target("model._eval_layer_words", per_parent_index=True),
    Target("model.group_logits"),
    Target("bitmatrix.BitMatrix.from_array"),
    Target("bitmatrix.BitMatrix.to_signal_words"),
    Target("bitmatrix.BitMatrix.from_signal_words"),
    Target("cli._circuit_accuracy"),
    Target("encoding.fit_thresholds"),
    Target("encoding.encode"),
    Target("data.load_mnist_idx"),
    Target("data.load_cifar10"),
    Target("pruning.trivial_prune"),
    Target("pruning.logic_equivalence_prune"),
    Target("pruning.greedy_prune"),
    Target("pruning.similarity_prune"),
    Target("pruning.profile_activations"),
    Target("serialize.save_checkpoint"),
    Target("serialize.load_checkpoint"),
    Target("serialize.save_netlist"),
    Target("serialize.load_netlist"),
]
GATE_LAYERS_REPORTED = 3
LAYER_NAMES = [
    name
    for t in TARGETS
    for name in (
        [f"{t.name}.L{i}" for i in range(GATE_LAYERS_REPORTED)]
        if t.per_parent_index
        else [t.name]
    )
]
# Set-up is reported per input stage.
SETUP_NAMES = [
    "data.load_mnist_idx",
    "data.load_cifar10",
    "encoding.fit_thresholds",
    "encoding.encode",
    "bitmatrix.BitMatrix.from_array",
]
P50_NAMES = [
    "training._forward_arrays",
    "training.backward",
    "training.connection_gradient",
    "training._scatter_slots",
    "training.Adam.step",
    "training.evaluate_arrays",
    "interconnect.refresh_candidates",
    "interconnect.sample_gradient_guided",
    "model.eval_circuit_layers",
    "bitmatrix.BitMatrix.to_signal_words",
    "encoding.encode",
    "pruning.logic_equivalence_prune",
    "pruning.profile_activations",
    "pruning.similarity_prune",
]


class Ops:
    """Counts attempted and failed operations; a failure never stops a run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def run(self, name: str, fn, *args):
        self.attempted += 1
        try:
            return fn(*args)
        except Exception:
            self.failed += 1
            self.failures.append(name)
            print(f"operation {name} failed:", file=sys.stderr)
            traceback.print_exc()
            return None

    def check(self, name: str, ok: bool) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(name)
            print(f"check {name} failed", file=sys.stderr)
        return ok


def param_digest(m) -> str:
    h = hashlib.sha256()
    for lay in m.layers:
        for arr in (lay.gate_logits, lay.candidates, lay.conn_weights):
            h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


@dataclass
class Prepared:
    data_dir: str
    encoder: encoding.ThermometerEncoder
    splits: training.EncodedSplits
    val_bits: bitmatrix.BitMatrix
    val_y: np.ndarray
    test_bits: bitmatrix.BitMatrix
    test_y: np.ndarray
    init: model.NetworkModel
    config: training.TrainConfig


def train_config(w: Workload) -> training.TrainConfig:
    return training.TrainConfig(
        total_epochs=1,
        layers_to_learn=1,
        C=CANDIDATES,
        R=REPLACED,
        beta=BETA,
        tau=TAU,
        batch_size=w.shape.batch,
        sampling_mode=w.sampling_mode,
        seed=MODEL_SEED,
    )


def setup(w: Workload, seed: int, workdir: str) -> Prepared:
    """Write the dataset files, ingest and encode them, build the model."""
    s = w.shape
    data_dir = os.path.join(workdir, "data")
    shutil.rmtree(data_dir, ignore_errors=True)
    tr_img, tr_lab, te_img, te_lab = inputs.make_split_data(
        seed, s.pixels, s.n_train + s.n_val, s.n_test
    )
    if s.dataset == "mnist":
        inputs.write_mnist_idx(data_dir, tr_img, tr_lab, te_img, te_lab)
        ds = data.load_mnist_idx(data_dir, s.n_val, seed=seed)
    else:
        inputs.write_cifar10(data_dir, tr_img, tr_lab, te_img, te_lab)
        ds = data.load_cifar10(data_dir, s.n_val, seed=seed)
    tr_x, tr_y = ds.split_arrays("train")
    va_x, va_y = ds.split_arrays("val")
    te_x, te_y = ds.split_arrays("test")
    enc = encoding.fit_thresholds(tr_x, s.thresholds)
    val_bits = encoding.encode(enc, va_x)
    splits = training.EncodedSplits(
        encoding.encode(enc, tr_x).to_array(),
        tr_y,
        val_bits.row_range(0, s.n_val_epoch).to_array(),
        va_y[: s.n_val_epoch],
    )
    return Prepared(
        data_dir=data_dir,
        encoder=enc,
        splits=splits,
        val_bits=val_bits,
        val_y=va_y,
        test_bits=encoding.encode(enc, te_x),
        test_y=te_y,
        init=model.random_network(
            s.input_width, list(s.widths), inputs.NUM_CLASSES, CANDIDATES,
            tau=TAU, seed=MODEL_SEED,
        ),
        config=train_config(w),
    )


def train_once(prep: Prepared):
    m = prep.init.copy()
    t0 = time.perf_counter()
    m, _ = training.train(m, prep.splits, prep.config)
    return time.perf_counter() - t0, m


def train_traced_memory(prep: Prepared):
    """One untimed epoch under tracemalloc, which numpy reports its arrays
    to: (peak MB allocated during the epoch, model). The set-up's data is
    live before it starts and is not counted, so the figure is the
    training's own working set: model copy, activations, candidate
    gathers, gradients and optimiser state."""
    tracemalloc.start()
    try:
        m, _ = training.train(prep.init.copy(), prep.splits, prep.config)
        return tracemalloc.get_traced_memory()[1] / 2**20, m
    finally:
        tracemalloc.stop()


@contextlib.contextmanager
def capture(names):
    """Record (name, args, result) of every call to the named package
    functions, whichever module makes it; names not found are skipped."""
    calls: list[tuple[str, tuple, object]] = []
    patches = []

    def recorder(name, fn):
        def wrapped(*args, **kwargs):
            result = fn(*args, **kwargs)
            calls.append((name, args, result))
            return result

        return wrapped

    for name in names:
        module_name, attr = name.split(".")
        original = getattr(sys.modules[f"boolnet.{module_name}"], attr, None)
        if original is not None:
            patches += replace_everywhere("boolnet", original, recorder(name, original))
    try:
        yield calls
    finally:
        for owner, attr, value in reversed(patches):
            setattr(owner, attr, value)


def cli_run(argv: list[str]) -> tuple[int, float, str]:
    """Run the CLI in-process; returns (exit code, wall seconds, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, time.perf_counter() - t0, err.getvalue()


def confusion_accuracy(path: str) -> float:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    counts = np.array([[int(v) for v in row[1:]] for row in rows])
    return float(np.trace(counts) / counts.sum())


@dataclass
class Pruned:
    """One `boolnet prune` run: its time, output and the pass calls."""

    seconds: float
    out_dir: str
    netlist_text: str
    calls: list  # (name, args, result) of pass and save_netlist calls

    def first_call(self, name: str):
        """(args, result) of the first call to ``name``; the prune command
        runs each pass once, and the lossy passes call trivial after it."""
        return next(((a, r) for n, a, r in self.calls if n == name), None)

    @property
    def gates_removed(self) -> dict[str, int]:
        out = {}
        for name, short in PASS_NAMES.items():
            call = self.first_call(name)
            if call is not None:
                out[short] = call[1][1].removed
        return out


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Session:
    """The measured operations of a run on one model, and the checks on
    their outputs. Operations only record what they produced; ``verify``
    checks it afterwards, outside any timing or traced span."""

    def __init__(self, w: Workload, prep: Prepared, seed: int, workdir: str, ops: Ops):
        self.w, self.prep, self.ops = w, prep, ops
        self.checkpoint = os.path.join(workdir, "checkpoint.npz")
        self.workdir = workdir
        self.cli_common = [
            "--data", prep.data_dir,
            "--set", f"data.dataset={w.shape.dataset}",
            "--set", f"data.val_size={w.shape.n_val}",
            "--set", f"train.seed={seed}",
        ]
        self.train_s: list[float] = []
        self.eval_s: list[float] = []
        self.prune_s: list[float] = []
        self.digests: list[str] = []
        self.trained: model.NetworkModel | None = None
        self.val_accuracy: float | None = None
        self.test_accuracy: float | None = None
        self.test_outputs = None  # hardened trained model on the test split
        self.first_prune: Pruned | None = None
        self.pruned_gates: int | None = None
        self.pruned_accuracy: float | None = None
        self._evals: list[float] = []  # accuracies not yet checked
        self._prunes: list[Pruned] = []  # runs not yet checked
        self._runs = 0
        self._trained_checked = False

    # -- measured operations ------------------------------------------
    def train(self) -> None:
        out = self.ops.run("train", train_once, self.prep)
        if out is not None:
            dt, m = out
            self.train_s.append(dt)
            self.digests.append(param_digest(m))
            if self.trained is None:
                self.trained = m
                self.save_checkpoint()  # eval and prune read it

    def save_checkpoint(self) -> None:
        if self.trained is not None:
            serialize.save_checkpoint(
                self.checkpoint, self.trained, self.prep.encoder.thresholds
            )

    def _cli(self, name: str, argv: list[str]) -> tuple[float, str] | None:
        """Run a CLI command writing to a fresh directory: (seconds, dir)."""
        self._runs += 1
        out_dir = os.path.join(self.workdir, f"{name}-{self._runs}")
        code, seconds, err = cli_run(
            [name, "--checkpoint", self.checkpoint, "--out", out_dir]
            + argv + self.cli_common
        )
        if not self.ops.check(f"cli-{name}-exit", code == 0):
            print(err, file=sys.stderr)
            shutil.rmtree(out_dir, ignore_errors=True)
            return None
        return seconds, out_dir

    def evaluate(self) -> None:
        """`boolnet eval --split test` on the checkpoint."""
        done = self._cli("eval", ["--split", "test"])
        if done is not None:
            self.eval_s.append(done[0])
            self._evals.append(
                confusion_accuracy(os.path.join(done[1], "confusion.csv"))
            )
            shutil.rmtree(done[1], ignore_errors=True)

    def prune(self) -> None:
        """`boolnet prune` with all four passes on the checkpoint."""
        with capture((*PASS_NAMES, "serialize.save_netlist")) as calls:
            done = self._cli("prune", ["--passes", PASSES])
        if done is not None:
            self.prune_s.append(done[0])
            with open(os.path.join(done[1], "pruned.netlist")) as fh:
                self._prunes.append(Pruned(*done, fh.read(), calls))

    # -- checks -------------------------------------------------------
    def verify(self) -> None:
        ops = self.ops
        for d in self.digests[1:]:
            ops.check("same-seed-parameters-bit-identical", d == self.digests[0])
        del self.digests[1:]
        if self.trained is not None and not self._trained_checked:
            self._trained_checked = True
            self.val_accuracy = ops.run("check-trained", self._check_trained)
        for acc in self._evals:
            ops.check("cli-eval-accuracy-equals-in-memory", acc == self.test_accuracy)
        self._evals.clear()
        for res in self._prunes:
            if self.first_prune is None:
                self.first_prune = res
                ops.run("verify-prune", self._verify_first_prune, res)
            else:
                ops.check(
                    "same-seed-pruned-netlist-identical",
                    res.netlist_text == self.first_prune.netlist_text,
                )
            shutil.rmtree(res.out_dir, ignore_errors=True)
        self._prunes.clear()

    def _check_trained(self) -> float:
        """Hardened val accuracy, checked against the training forward;
        also the hardened model's test accuracy and outputs."""
        prep, hardened = self.prep, model.harden(self.trained)
        val = model.accuracy(hardened, prep.val_bits, prep.val_y)
        forward, _ = training.evaluate_arrays(
            self.trained, prep.val_bits.to_array(), prep.val_y
        )
        self.ops.check("hardened-accuracy-equals-evaluate-arrays", val == forward)
        self.test_accuracy = model.accuracy(hardened, prep.test_bits, prep.test_y)
        self.test_outputs = model.eval_circuit(hardened, prep.test_bits)
        return val

    def _verify_first_prune(self, res: Pruned) -> None:
        """The pruned netlist's size and test accuracy; the exact passes
        and the netlist's save/reload keep every test output bit."""
        bits, ops = self.prep.test_bits, self.ops
        pruned = serialize.load_netlist(os.path.join(res.out_dir, "pruned.netlist"))
        self.pruned_gates = sum(pruned.layer_widths)
        self.pruned_accuracy = model.accuracy(pruned, bits, self.prep.test_y)
        for name in ("pruning.trivial_prune", "pruning.logic_equivalence_prune"):
            call = res.first_call(name)
            ops.check(
                f"{name}-keeps-test-outputs",
                call is not None
                and model.eval_circuit(call[1][0], bits) == self.test_outputs,
            )
        saved = res.first_call("serialize.save_netlist")
        ops.check(
            "reloaded-netlist-evaluates-identically",
            saved is not None
            and model.eval_circuit(pruned, bits) == model.eval_circuit(saved[0][1], bits),
        )


def median(values) -> float:
    return float(statistics.median(values))


def rate(samples: int, seconds: list[float]) -> float:
    """Samples per second over every repetition, each of ``samples``."""
    return samples * len(seconds) / sum(seconds)


@dataclass
class RunResult:
    metrics: dict[str, tuple[float, str]]
    extra: dict
    tracer: Tracer | None = None
    layers: dict[str, dict] | None = None  # traced repetitions
    setup_layers: dict[str, dict] | None = None  # traced set-up


def interleave(run_op: dict, shares: dict[str, float], end: float, after=None) -> None:
    """Run the operations of ``run_op`` until ``end``, each time the one
    furthest behind its share of the time spent (ties go to the first
    listed), then any still short of MIN_COUNTS. ``after`` runs, untimed,
    after each operation."""
    spent = dict.fromkeys(run_op, 0.0)
    counts = dict.fromkeys(run_op, 0)
    while True:
        due = list(run_op)
        if time.perf_counter() >= end:
            due = [name for name in due if counts[name] < MIN_COUNTS[name]]
            if not due:
                return
        name = min(due, key=lambda n: spent[n] / shares[n])
        t0 = time.perf_counter()
        run_op[name]()
        spent[name] += time.perf_counter() - t0
        counts[name] += 1
        if after is not None:
            after()


@contextlib.contextmanager
def traced(tracer: Tracer | None, name: str, roots: list[int]):
    """With a tracer: patch the package and record one root span."""
    if tracer is None:
        yield
        return
    tracer.install(TARGETS)
    try:
        with tracer.span(name) as root:
            roots.append(root)
            yield
    finally:
        tracer.uninstall()


def run_workload(
    w: Workload, seed: int, seconds: float, trace: bool, workdir: str, ops: Ops,
) -> RunResult:
    tracer = Tracer("boolnet") if trace else None
    setup_times: list[float] = []
    setup_roots: list[int] = []
    rep_roots: list[int] = []
    rss: dict[str, float] = {}

    # -- set-up -------------------------------------------------------
    prep = None
    for _ in range(1 if trace else SETUP_REPEATS):
        prep = None  # let the previous set-up's arrays go first
        t0 = time.perf_counter()
        with traced(tracer, "setup", setup_roots):
            prep = ops.run("setup", setup, w, seed, workdir)
        setup_times.append(time.perf_counter() - t0)
        if prep is None:
            raise RuntimeError("set-up failed")
    rss["setup"] = peak_rss_mb()

    # -- measured operations ------------------------------------------
    session = Session(w, prep, seed, workdir, ops)
    rep_times: dict[bool, list[float]] = {False: [], True: []}
    if trace:
        for i in range(2 * TRACE_PAIRS):
            on = i % 2 == 1
            t0 = time.perf_counter()
            with traced(tracer if on else None, "rep", rep_roots):
                session.train()
                session.save_checkpoint()
                session.evaluate()
                session.prune()
            rep_times[on].append(time.perf_counter() - t0)
            session.verify()
    else:
        run_op = {"train": session.train, "eval": session.evaluate, "prune": session.prune}
        end = time.perf_counter() + seconds
        interleave(run_op, w.shares, end, after=session.verify)
    rss["end"] = peak_rss_mb()
    traced_memory = ops.run("train-traced-memory", train_traced_memory, prep)
    if traced_memory is not None:
        train_peak_mb, m = traced_memory
        session.digests.append(param_digest(m))
        session.verify()
    if not (session.train_s and session.eval_s and session.prune_s) or (
        session.val_accuracy is None or session.pruned_gates is None
        or traced_memory is None
    ):
        raise RuntimeError("an operation produced no figures; see the failures")

    values = {
        "setup_s": median(setup_times),
        "train_samples_per_s": rate(w.shape.n_train, session.train_s),
        "val_accuracy": session.val_accuracy,
        "eval_samples_per_s": rate(w.shape.n_test, session.eval_s),
        "prune_s": statistics.mean(session.prune_s),
        "pruned_gates": float(session.pruned_gates),
        "pruned_accuracy": session.pruned_accuracy,
        "peak_rss_mb": rss["end"],
        "train_peak_mb": train_peak_mb,
    }
    metrics = {name: (values[name], unit) for name, unit in E2E_UNITS.items()}
    extra = {
        "setup_s_each": setup_times,
        "train_s_each": session.train_s,
        "eval_s_each": session.eval_s,
        "prune_s_each": session.prune_s,
        "peak_rss_mb_after": rss,
        "gates_removed": session.first_prune.gates_removed,
    }
    if not trace:
        return RunResult(metrics, extra=extra)

    untraced_s = median(rep_times[False])
    traced_s = median(rep_times[True])
    extra.update(
        traced_reps=len(rep_roots),
        absent=tracer.absent,
        overhead_ms=1e3 * (traced_s - untraced_s),
        untraced_rep_ms=1e3 * untraced_s,
        traced_rep_ms=1e3 * traced_s,
        n_spans=len(tracer.spans),
    )
    return RunResult(
        metrics,
        tracer=tracer,
        layers=layer_stats(tracer, LAYER_NAMES, rep_roots),
        setup_layers=layer_stats(tracer, LAYER_NAMES, setup_roots),
        extra=extra,
    )


def per_layer_metrics(result: RunResult) -> dict[str, tuple[float, str]]:
    out: dict[str, tuple[float, str]] = {}
    for name in LAYER_NAMES:
        row = result.layers[name]
        out[f"{name}.calls"] = (float(row["calls"]), "count")
        out[f"{name}.self_ms"] = (row["self_ms"], "ms")
        out[f"{name}.share"] = (row["share"], "fraction")
    for name in P50_NAMES:
        out[f"{name}.p50_ms"] = (result.layers[name]["p50_ms"], "ms")
    removed = result.extra["gates_removed"]
    for name in PASS_NAMES.values():
        out[f"pruning.{name}.gates_removed"] = (float(removed.get(name, 0)), "count")
    for name in SETUP_NAMES:
        out[f"setup.{name}.self_ms"] = (result.setup_layers[name]["self_ms"], "ms")
    out["trace.overhead_ms"] = (result.extra["overhead_ms"], "ms")
    out["trace.traced_rep_ms"] = (result.extra["traced_rep_ms"], "ms")
    return out
