"""Self-test of the benchmark's hooks, at small sizes (~10 s).

    python3 perfbench/selftest.py

Fails (exit 1) when a hook target no longer exists, when a hook never
fires on a workload it serves, or when an exact count differs between two
traced runs with the same seed. It also checks that both failure kinds are
detected, with a renamed target and a hook on a function the workload
never calls.
"""

from __future__ import annotations

import os
import sys
import tempfile

import run

SMALL = {"quantize": {"dim": 128, "samples": 2, "image_size": 56},
         "decode": {"dim": 512}, "prefill": {"dim": 512}}
# Exact per-operation counts at the SMALL sizes, from the tile loop:
# prefill has 256 rows, so block_m = 64 walks the weights 4 times.
EXPECTED = {
    "quantize": {"quantcore.gptq_calls": 9, "quantcore.proxy_loss_calls": 9,
                 "calibration.hessian_calls": 2, "calibration.rows": 2 * 2 * 17},
    "decode": {"kernel.calls": 2, "kernel.tiles": 4, "kernel.dequant_slabs": 8,
               "kernel.dequant_redundancy": 1},
    "prefill": {"kernel.calls": 2, "kernel.tiles": 16, "kernel.dequant_slabs": 32,
                "kernel.dequant_redundancy": 4},
}


def traced(tracing, workloads, name, seed, hooks):
    rec = tracing.Recorder()
    with tempfile.TemporaryDirectory(dir=run.OUT) as workdir:
        wl = workloads.make(name, seed, workdir, run.nproc(), **SMALL[name])
        with tracing.installed(rec, hooks):
            res = workloads.run(wl, 1e-9, rec)
    return rec, res, tracing.per_layer(rec, getattr(wl, "dense_ms", []))


def main() -> int:
    for var in run.THREAD_VARS:
        os.environ[var] = "1"
    run.import_package()
    import tracing
    import workloads

    run.OUT.mkdir(exist_ok=True)
    errors = []
    try:
        with tracing.installed(tracing.Recorder()):
            pass
    except tracing.HookError as exc:
        return report([str(exc)])

    renamed = tracing.Hook("modquant.pipeline", "gptq_quantize_renamed", "x", tracing.QUANTIZE)
    try:
        with tracing.installed(tracing.Recorder(), tracing.HOOKS + (renamed,)):
            errors.append("a renamed hook target was not detected")
    except tracing.HookError:
        pass

    uncalled = tracing.Hook("modquant.pipeline", "rtn_quantize", "x", tracing.QUANTIZE)
    for name in run.WORKLOADS:
        hooks = tracing.HOOKS + ((uncalled,) if name == "quantize" else ())
        first, res, layers = traced(tracing, workloads, name, 5, hooks)
        second = traced(tracing, workloads, name, 5, tracing.HOOKS)[2]
        errors += [f"{name}: {line}" for line in res.failures + res.problems]
        silent = tracing.silent_hooks(first, name, hooks)
        if name == "quantize":
            if uncalled.name not in silent:
                errors.append("a hook that never fires was not detected")
            silent.remove(uncalled.name)
        errors += [f"{name}: hook never fired: {h}" for h in silent]
        for key in tracing.COUNTS:
            a, b = layers.metrics.get(key), second.metrics.get(key)
            if a != b:
                errors.append(f"{name}: {key} differs between runs: {a} != {b}")
        for key, want in EXPECTED[name].items():
            if layers.metrics[key] != want:
                errors.append(f"{name}: {key} = {layers.metrics[key]}, expected {want}")
        print(f"{name}: {len(first.spans)} spans, hooks fired: {len(first.fired)}")

    return report(errors)


def report(errors: list[str]) -> int:
    for line in errors:
        print(f"FAIL {line}")
    print("selftest " + ("FAILED" if errors else "passed"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
