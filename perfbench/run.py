"""modquant benchmark: quantize, decode and prefill workloads.

    python3 perfbench/run.py --workload prefill --seed 3 --seconds 40 --trace 0
    python3 perfbench/run.py            # every workload, untraced then traced

A run prints a table of its metrics, an environment line, and as its last
line one JSON object: {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are the end-to-end ones; with --trace 1 the hooks in
tracing.py are installed and the metrics are per layer, and the span tree
is written to .perfbench-out/. The package is imported from src/ of the
checkout this file sits in, never from anywhere else.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
# BENCHMARK.json lists quantize and prefill only: decode runs on request and
# in the all-workload run, but its timing is too unsteady on a shared host to
# gate on (see README.md).
WORKLOADS = ("quantize", "decode", "prefill")
KERNEL_WORKLOADS = ("decode", "prefill")
SECONDS = 40
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
COMPUTED = ("kernel.flops", "kernel.weight_bytes_computed", "kernel.ops_per_byte")


def reported_metrics() -> tuple[dict, dict]:
    """name -> unit of the end-to-end and per-layer metrics in BENCHMARK.json."""
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def blas_threads_wanted(workload: str) -> int:
    """BLAS threads: all cores for quantize; one under the kernel's workers."""
    return 1 if workload in KERNEL_WORKLOADS else nproc()


def import_package():
    sys.path.insert(0, str(SRC))
    try:
        import modquant
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import modquant from {SRC}: {exc}")
    if Path(modquant.__file__).resolve().parent != SRC / "modquant":
        sys.exit(f"perfbench: modquant resolved to {modquant.__file__}, not {SRC}")
    return modquant


def blas_info() -> dict:
    """Build-time BLAS name and version, and its thread count at run time."""
    import ctypes

    import numpy as np

    deps = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    threads = None
    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        so = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(so, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {"name": deps.get("name"), "version": deps.get("version"), "threads": threads}


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "modquant").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def tail(samples: list[float]) -> tuple[int, float, int] | None:
    """Highest whole percentile with at least ten samples above it.

    Nearest-rank: the p-th percentile is the ceil(p/100 * n)-th smallest.
    Returns (p, value, samples above) or None below eleven samples.
    """
    n = len(samples)
    if n < 11:
        return None
    p = (100 * (n - 10)) // n
    rank = math.ceil(p * n / 100)
    return p, sorted(samples)[rank - 1], n - rank


def end_to_end(wl, res) -> dict:
    """Every end-to-end value of the run: BENCHMARK.json's set plus extras."""
    ops = res.op_s
    m = {
        "setup_s": median(res.setup_s),
        "latency_ms_p50": median(ops) * 1e3,
        "tokens_per_s": wl.tokens_per_op / median(ops),
        **res.extra,
        "fail_ratio": len(res.failures) / len(ops),
    }
    if wl.name == "quantize":
        m["quantize_s_p50"] = median(ops)
    t = tail(ops)
    if t:
        m["latency_ms_tail"] = t[1] * 1e3
    return m


def print_end_to_end(wl, res, m: dict, units: dict) -> None:
    n, t = len(res.op_s), tail(res.op_s)
    notes = {
        "setup_s": f"median of {len(res.setup_s)} set-ups",
        "latency_ms_p50": f"per {'token' if wl.name == 'decode' else 'operation'}, n={n}",
        "quantize_s_p50": f"n={n}",
        "latency_ms_tail": f"p{t[0]}, n={n}, {t[2]} above" if t else "",
        "tokens_per_s": f"{wl.tokens_per_op} tokens per operation, at the median",
        "loss_ratio": "sum GPTQ / sum RTN proxy loss",
        "ckpt_bytes_ratio": "checkpoint file / f16 weights",
        "fail_ratio": f"{len(res.failures)}/{n}",
    }
    units = {**units, "quantize_s_p50": "s", "latency_ms_tail": "ms",
             "loss_ratio": "ratio", "fail_ratio": "ratio"}
    print(f"{'metric':<34}{'value':>16}  {'unit':<8}note")
    for key, value in m.items():
        print(f"{key:<34}{value:>16.6g}  {units[key]:<8}{notes[key]}")
    if not t:
        print(f"{'latency_ms_tail':<34}{'n/a':>16}  {'ms':<8}needs 11 samples, have {n}")


def print_per_layer(m: dict, units: dict) -> None:
    print(f"{'layer metric':<34}{'value':>16}  unit")
    for key, unit in units.items():
        label = " (computed)" if key in COMPUTED else ""
        print(f"{key:<34}{m[key]:>16.6g}  {unit}{label}")


def run_one(args) -> int:
    for var in THREAD_VARS:
        os.environ[var] = str(blas_threads_wanted(args.workload))
    modquant = import_package()
    e2e_units, layer_units = reported_metrics()

    import numpy as np

    import tracing
    import workloads

    cores = nproc()
    kernel_workers = cores if args.workload in KERNEL_WORKLOADS else 1
    blas = blas_info()
    budget = (blas["threads"] or blas_threads_wanted(args.workload)) * kernel_workers
    if budget > cores:
        sys.exit(f"perfbench: thread budget {budget} exceeds nproc {cores}; refusing to run")

    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        wl = workloads.make(args.workload, args.seed, workdir, kernel_workers)
        if args.trace:
            rec = tracing.Recorder()
            try:
                with tracing.installed(rec):
                    res = workloads.run(wl, args.seconds, rec)
            except tracing.HookError as exc:
                sys.exit(f"perfbench: {exc}")
        else:
            res = workloads.run(wl, args.seconds, tracing.NoRecorder())

    print(f"workload {wl.name}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    problems = list(res.problems)
    samples = {"setup_s": len(res.setup_s), "latency_ms": len(res.op_s)}
    if args.trace:
        layers = tracing.per_layer(rec, getattr(wl, "dense_ms", []))
        problems += [f"hook never fired: {h}" for h in tracing.silent_hooks(rec, wl.name)]
        problems += [f"count differs between operations: {k}" for k in layers.count_mismatch]
        metrics = layers.metrics
        samples["kernel.call_ms_p50"] = sum(s.label == "kernel.quant_matmul" for s in rec.spans)
        samples["kernel.dense_ref_ms_p50"] = len(getattr(wl, "dense_ms", []))
        trace_path = OUT / f"trace-{wl.name}-seed{args.seed}.json"
        rec.dump(trace_path, {"workload": wl.name, "seed": args.seed})
        print_per_layer(metrics, layer_units)
        print(f"coverage {wl.name}: wrapped layers cover "
              f"{100 * metrics['trace.coverage']:.1f}% of operation wall time")
        print(f"span tree -> {trace_path.relative_to(ROOT)}")
        reported = {k: {"value": metrics[k], "unit": u} for k, u in layer_units.items()}
    else:
        m = end_to_end(wl, res)
        print_end_to_end(wl, res, m, e2e_units)
        reported = {k: {"value": m[k], "unit": u} for k, u in e2e_units.items()}

    lines = res.failures + problems
    for line in lines[:10]:
        print(f"FAIL {line}")
    if len(lines) > 10:
        print(f"FAIL ... and {len(lines) - 10} more")
    env = {
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "modquant": modquant.__version__,
        "blas": blas,
        "nproc": cores,
        "kernel_workers": kernel_workers if args.workload in KERNEL_WORKLOADS else 0,
        "tile_config": (workloads.tile_config(kernel_workers).as_dict()
                        if args.workload in KERNEL_WORKLOADS else None),
        "seed": args.seed,
        "seconds": args.seconds,
        "samples": samples,
    }
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps({
        "correct": not lines,
        "attempted": len(res.op_s),
        "failed": len(res.failures),
        "metrics": reported,
    }))
    return 0


def run_all(args) -> int:
    """Every workload untraced then traced, each in its own process."""
    status = 0
    summary = []
    for name in WORKLOADS:
        last = {}
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
            sys.stdout.write(proc.stdout + "\n")
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0:
                status = 1
                continue
            last[trace] = json.loads(proc.stdout.strip().splitlines()[-1])
            status |= not last[trace]["correct"]
        if len(last) == 2:
            plain = last[0]["metrics"]["latency_ms_p50"]["value"]
            traced = last[1]["metrics"]["trace.op_ms_p50"]["value"]
            coverage = last[1]["metrics"]["trace.coverage"]["value"]
            summary.append(f"{name:<10}{plain:>14.2f}{traced:>14.2f}"
                           f"{100 * (traced / plain - 1):>+12.1f}%{100 * coverage:>11.1f}%")
    print(f"{'workload':<10}{'op ms p50':>14}{'traced ms':>14}{'overhead':>13}{'coverage':>12}")
    print("\n".join(summary))
    return status


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS,
                   help="run one workload (default: all, untraced then traced)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=SECONDS,
                   help="operation time to measure per run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return run_one(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main())
