"""boolnet benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is desk or train-wide (see workloads.py).

Run from the root of a source checkout; the package is imported from
``src/`` of that checkout and from nowhere else. With ``--trace 0`` the
last line of standard output is a JSON object with the end-to-end
metrics; with ``--trace 1`` it holds the per-layer metrics of a traced
run. Lines before it are a readable report, and the full record (machine
facts, every repetition, per-layer table, spans) is written to
``perfbench/out/BENCH_<workload>_seed<N>_trace<0|1>.json``.

BLAS is capped to one thread here, before numpy is imported: OpenBLAS
reads its thread count only when it is loaded.
"""

import os
import sys

BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS
NUMPY_PRELOADED = "numpy" in sys.modules
sys.dont_write_bytecode = True

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import tempfile  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# ROADMAP "Baseline measured at this re-anchor" rows covered here, with the
# per-layer metric (traced run) that reproduces each and its workload.
ROADMAP_ROWS = [
    ("training forward, hard, B=100", "desk", "training._forward_arrays.p50_ms"),
    ("backward, layer-0 interconnect live", "desk", "training.backward.p50_ms"),
    ("  of which connection_gradient", "desk", "training.connection_gradient.p50_ms"),
    ("  of which _scatter_slots", "desk", "training._scatter_slots.p50_ms"),
    ("Adam, all trained layers", "desk", "training.Adam.step.p50_ms"),
    ("refresh, random (wide shape here)", "train-wide", "interconnect.refresh_candidates.p50_ms"),
    ("refresh of layer 0, gradient-guided", "desk", "interconnect.refresh_candidates.p50_ms"),
    ("predict, 10k samples (circuit part)", "desk", "model.eval_circuit_layers.p50_ms"),
    ("  of which the word kernel, layer i", "desk", "model._eval_layer_words.L<i>.self_ms / calls"),
    ("  of which to_signal_words", "desk", "bitmatrix.BitMatrix.to_signal_words.p50_ms"),
    ("evaluate_arrays, per-epoch validation", "desk", "training.evaluate_arrays.p50_ms"),
    ("profile_activations, 10k samples", "desk", "pruning.profile_activations.p50_ms"),
    ("similarity_prune, c=0.9", "desk", "pruning.similarity_prune.p50_ms"),
    ("logic_equivalence_prune (3x1000 here)", "desk", "pruning.logic_equivalence_prune.p50_ms"),
]


def machine_facts() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_thread_cap": int(BLAS_THREADS),
        "numpy_loaded_before_cap": NUMPY_PRELOADED,
        "machine": platform.machine(),
    }


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_package():
    """Import boolnet from this checkout's src/, or exit with code 2."""
    if not os.path.isfile(os.path.join(SRC, "boolnet", "__init__.py")):
        print(f"error: no boolnet package under {SRC}; run from a checkout", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    import boolnet

    if not os.path.abspath(boolnet.__file__).startswith(SRC + os.sep):
        print(f"error: boolnet was imported from {boolnet.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)


def fmt(value: float) -> str:
    return f"{value:.6g}"


def main(argv=None) -> int:
    args = parse_args(argv)
    import_package()
    import workloads  # needs the package on the path

    if args.workload not in workloads.WORKLOADS:
        print(
            f"error: unknown workload {args.workload!r}; "
            f"choose from {', '.join(workloads.WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    w = workloads.WORKLOADS[args.workload]
    facts = machine_facts()
    work_root = os.path.join(HERE, ".work")
    os.makedirs(work_root, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{w.name}-{args.seed}-", dir=work_root)
    ops = workloads.Ops()
    try:
        result = workloads.run_workload(
            w, args.seed, args.seconds, bool(args.trace), workdir, ops
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(work_root)
        except OSError:
            pass  # another run is still using it

    if args.trace:
        metrics = workloads.per_layer_metrics(result)
    else:
        metrics = result.metrics

    print(f"workload {w.name}  seed {args.seed}  trace {args.trace}")
    print("machine " + "  ".join(f"{k}={v}" for k, v in facts.items()))
    for name, (value, unit) in result.metrics.items():
        print(f"  {name:<22} {fmt(value):>12} {unit}")
    print(
        f"  {'ops_failed_frac':<22} {fmt(ops.failed / max(1, ops.attempted)):>12} "
        f"fraction  ({ops.failed} failed of {ops.attempted} attempted)"
    )
    if ops.failures:
        print("  failed: " + ", ".join(ops.failures))

    record = {
        "workload": w.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": facts,
        "config": {
            **dataclasses.asdict(w),
            "C": workloads.CANDIDATES,
            "R": workloads.REPLACED,
            "beta": workloads.BETA,
            "tau": workloads.TAU,
            "model_seed": workloads.MODEL_SEED,
        },
        "attempted": ops.attempted,
        "failed": ops.failed,
        "failures": ops.failures,
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in result.metrics.items()},
        "repetitions": result.extra,
    }
    if args.trace:
        print_layers(result, metrics, w.name)
        record["per_layer"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
        record["layers"] = result.layers
        record["setup_layers"] = result.setup_layers
        record["roadmap_rows"] = [
            {"row": row, "metric": m} for row, wl, m in ROADMAP_ROWS if wl == w.name
        ]
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    stem = f"BENCH_{w.name}_seed{args.seed}_trace{args.trace}"
    with open(os.path.join(out_dir, stem + ".json"), "w") as fh:
        json.dump(record, fh, indent=1)
    if args.trace:
        result.tracer.dump(os.path.join(out_dir, stem + "_spans.json"))

    print(
        json.dumps(
            {
                "correct": ops.failed == 0,
                "attempted": ops.attempted,
                "failed": ops.failed,
                "metrics": {
                    k: {"value": v, "unit": u} for k, (v, u) in metrics.items()
                },
            }
        )
    )
    return 0


def print_layers(result, metrics, workload: str) -> None:
    extra = result.extra
    print(
        f"per-layer figures per repetition over {extra['traced_reps']} traced "
        f"repetitions; tracing overhead {fmt(extra['overhead_ms'])} ms per "
        f"repetition (traced {fmt(extra['traced_rep_ms'])} ms, untraced "
        f"{fmt(extra['untraced_rep_ms'])} ms); {extra['n_spans']} spans"
    )
    if extra["absent"]:
        print("absent (no longer in the package): " + ", ".join(extra["absent"]))
    for title, layers in (("repetition", result.layers), ("set-up", result.setup_layers)):
        print(f"  {title + ' layer':<40} {'calls':>6} {'self ms':>10} {'share':>7} {'p50 ms':>9}  tail")
        for name, row in sorted(layers.items(), key=lambda kv: -kv[1]["self_ms"]):
            if not row["calls"]:
                continue
            tail = row.get("tail")
            tail_text = f"p{tail['percentile']:g} {fmt(tail['ms'])} ms" if tail else "-"
            print(
                f"  {name:<40} {row['calls']:>6g} {row['self_ms']:>10.1f} "
                f"{row['share']:>7.3f} {row['p50_ms']:>9.3f}  {tail_text}"
            )
    rows = [r for r in ROADMAP_ROWS if r[1] == workload]
    if rows:
        print("ROADMAP baseline rows measured by this workload:")
        for row, _, metric in rows:
            value = f" = {fmt(metrics[metric][0])} ms" if metric in metrics else ""
            print(f"  {row:<40} -> {metric}{value}")


if __name__ == "__main__":
    sys.exit(main())
