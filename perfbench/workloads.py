"""The three workloads and the closed-loop runner that drives them.

Each workload makes all of its inputs from the seed in `setup`, runs one
operation per `op` call (a single caller: the next operation starts when
the previous one has returned) and checks each output in `check`, outside
the timed region. A failed check counts the operation as failed and the
run goes on.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

import modquant.cli
import modquant.kernel
from modquant import (
    GROUP_ORDER,
    QuantConfig,
    QuantizedCheckpoint,
    TileConfig,
    capture_calibration,
    dequantize_packed,
    estimate_packed_size,
    generate_model,
    load_checkpoint,
    pack_linear,
    rtn_quantize,
    save_calibration,
    save_checkpoint,
    save_model,
    synthetic_activations,
    vision_seq_len,
)

SETUPS = 3           # set-ups per run; setup_s is their median
BITS, GROUPSIZE, DAMP = 4, 128, 0.01
# Kernel output vs. A @ dequantize_packed(layer): both accumulate in f32
# over K = 4096 in a different order; observed error is ~1e-6 of max|ref|.
KERNEL_RTOL = 1e-5


def tile_config(workers: int) -> TileConfig:
    return TileConfig(block_m=64, block_d=256, block_k=256, workers=workers)


class Quantize:
    """`modquant quantize` on a 1 vision + 1 cross-modal layer model."""

    name = "quantize"

    def __init__(self, seed: int, workdir: str, dim: int = 768, samples: int = 8,
                 image_size: int = 336, patch_size: int = 14):
        self.seed, self.dim, self.samples = seed, dim, samples
        self.seq = vision_seq_len(image_size, patch_size)
        # Calibration tokens per operation: the vision and the cross-modal set.
        self.tokens_per_op = 2 * samples * self.seq
        self.path = {k: os.path.join(workdir, f"{k}.bin")
                     for k in ("model", "calib_v", "calib_m", "ckpt", "rtn")}
        self.gptq_loss: dict[str, float] = {}
        self.rtn_loss: dict[str, float] = {}

    def setup(self) -> None:
        model = generate_model(1, 1, self.dim, self.seed)
        inputs = [synthetic_activations(self.seq, self.dim, self.seed * 1000 + 1 + i)
                  for i in range(self.samples)]
        save_model(model, self.path["model"])
        save_calibration(capture_calibration(model, inputs, "vision"), self.path["calib_v"])
        save_calibration(capture_calibration(model, inputs, "crossmodal"), self.path["calib_m"])
        self.model = model

    def _quantize(self, out: str, rtn: bool) -> None:
        argv = ["quantize", "--model", self.path["model"], "--calib-v", self.path["calib_v"],
                "--calib-m", self.path["calib_m"], "--bits", str(BITS),
                "--groupsize", str(GROUPSIZE), "--damp-ratio", str(DAMP), "--out", out]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = modquant.cli.main(argv + (["--rtn"] if rtn else []))
        if rc != 0:
            raise RuntimeError(f"modquant quantize exited {rc}: {err.getvalue().strip()}")

    def prepare(self) -> None:
        """RTN reference losses over the same Hessians, once per run."""
        self._quantize(self.path["rtn"], rtn=True)
        with open(self.path["rtn"] + ".report.json") as fh:
            self.rtn_loss = {e["name"]: e["proxy_loss"] for e in json.load(fh)["layers"]}
        m = self.model
        self.order = list(m.vision_layers) + [
            name for layer in m.crossmodal_layers for kind in GROUP_ORDER
            for g in layer.groups if g.group_kind == kind for name in g.members
        ]

    def op(self, i: int) -> None:
        self._quantize(self.path["ckpt"], rtn=False)

    def check(self, i: int, out) -> str | None:
        ckpt = load_checkpoint(self.path["ckpt"])
        if ckpt.report["processing_order"] != self.order:
            return "processing_order is not vision-first then GROUP_ORDER"
        if sorted(ckpt.layers) != sorted(self.order):
            return "checkpoint layers differ from the model's matrices"
        self.gptq_loss = {e["name"]: e["proxy_loss"] for e in ckpt.report["layers"]}
        worse = [n for n in self.order if not self.gptq_loss[n] <= self.rtn_loss[n]]
        if worse:
            return f"GPTQ proxy loss above RTN for {worse}"
        return None

    def finish(self) -> tuple[list[str], dict]:
        f16 = sum(w.size * 2 for w in self.model.weights.values())
        extra = {"ckpt_bytes_ratio": os.path.getsize(self.path["ckpt"]) / f16}
        if self.gptq_loss and self.rtn_loss:
            extra["loss_ratio"] = sum(self.gptq_loss.values()) / sum(self.rtn_loss.values())
        return [], extra


class Kernel:
    """Tokens through two chained 4-bit g128 layers with the tiled kernel.

    The layers are RTN-quantized: kernel speed does not depend on the
    quantizer, and GPTQ at this size would take minutes of set-up.
    """

    def __init__(self, name: str, seed: int, workdir: str, workers: int, tokens: int,
                 pool: int, dim: int = 4096):
        self.name, self.seed, self.dim = name, seed, dim
        self.tokens_per_op, self.pool = tokens, pool
        self.cfg = tile_config(workers)
        self.path = os.path.join(workdir, "ckpt.bin")
        self.dense_ms: list[float] = []
        self.verified: dict[int, tuple] = {}   # pool index -> checked (h, y)

    def setup(self) -> None:
        model = generate_model(2, 0, self.dim, self.seed)
        qcfg = QuantConfig(bits=BITS, groupsize=GROUPSIZE, damp_ratio=DAMP)
        names = list(model.vision_layers)
        layers = {n: pack_linear(rtn_quantize(model.weights[n], qcfg)) for n in names}
        report = {"bits": BITS, "groupsize": GROUPSIZE, "layers": [
            {"name": n, "in_features": self.dim, "out_features": self.dim} for n in names]}
        save_checkpoint(QuantizedCheckpoint(layers, report), self.path)
        ckpt = load_checkpoint(self.path)
        self.layers = [ckpt.layers[n] for n in names]
        rng = np.random.default_rng(self.seed)
        self.inputs = rng.standard_normal((self.pool, self.tokens_per_op, self.dim),
                                          dtype=np.float32)

    def prepare(self) -> None:
        self.dense = [dequantize_packed(layer) for layer in self.layers]

    def op(self, i: int):
        x = self.inputs[i % self.pool]
        h = modquant.kernel.quant_matmul(x, self.layers[0], self.cfg)
        return x, h, modquant.kernel.quant_matmul(h, self.layers[1], self.cfg)

    def check(self, i: int, out) -> str | None:
        x, h, y = out
        seen = self.verified.get(i % self.pool)
        if seen is not None:
            # The kernel is deterministic, so a repeated input must give the
            # bytes already checked against the dense product.
            if not (np.array_equal(h, seen[0]) and np.array_equal(y, seen[1])):
                return "output differs from the checked output for the same input"
            return None
        for n, (inp, got, w) in enumerate(((x, h, self.dense[0]), (h, y, self.dense[1]))):
            t0 = time.perf_counter()
            ref = inp @ w
            self.dense_ms.append((time.perf_counter() - t0) * 1e3)
            err = float(np.abs(got - ref).max())
            if not err <= KERNEL_RTOL * float(np.abs(ref).max()):
                return f"layer {n}: max |out - A @ W| = {err:g} exceeds rtol {KERNEL_RTOL:g}"
        self.verified[i % self.pool] = (h, y)
        return None

    def finish(self) -> tuple[list[str], dict]:
        problems = []
        x = self.inputs[0]
        one = modquant.kernel.quant_matmul(x, self.layers[0], tile_config(1))
        many = modquant.kernel.quant_matmul(x, self.layers[0], self.cfg)
        if one.tobytes() != many.tobytes():
            problems.append(f"workers=1 and workers={self.cfg.workers} outputs differ")
        expected = estimate_packed_size(self.dim, self.dim, BITS, GROUPSIZE)["total"]
        for n, layer in enumerate(self.layers):
            got = sum(a.nbytes for a in (layer.qweight, layer.scales, layer.qzeros, layer.g_idx))
            if got != expected:
                problems.append(f"layer {n}: {got} packed bytes, size law says {expected}")
        f16 = len(self.layers) * self.dim * self.dim * 2
        return problems, {"ckpt_bytes_ratio": os.path.getsize(self.path) / f16}


def make(name: str, seed: int, workdir: str, workers: int, **geometry):
    if name == "quantize":
        return Quantize(seed, workdir, **geometry)
    if name == "decode":
        return Kernel(name, seed, workdir, workers, tokens=1, pool=64, **geometry)
    if name == "prefill":
        return Kernel(name, seed, workdir, workers, tokens=256, pool=4, **geometry)
    raise ValueError(f"unknown workload {name!r}")


@dataclass
class RunResult:
    setup_s: list[float]
    op_s: list[float]
    failures: list[str] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)
    extra: dict = field(default_factory=dict)


def _describe(exc: BaseException) -> str:
    return "".join(traceback.format_exception_only(type(exc), exc)).strip()


def run(wl, seconds: float, rec) -> RunResult:
    """Set up SETUPS times, then run operations until `seconds` of them."""
    setup_s = []
    for j in range(SETUPS):
        with rec.scope(f"setup-{j}", "setup"):
            t0 = time.perf_counter()
            wl.setup()
            setup_s.append(time.perf_counter() - t0)
    result = RunResult(setup_s, [])
    try:
        wl.prepare()
    except Exception as exc:  # reported as a failed check; the run goes on
        traceback.print_exc()
        result.problems.append(f"reference for the checks: {_describe(exc)}")

    i = 0
    while sum(result.op_s) < seconds:
        out, err = None, None
        with rec.scope(f"op-{i}", wl.name):
            t0 = time.perf_counter()
            try:
                out = wl.op(i)
            except Exception as exc:  # a failed operation is counted, not fatal
                err = _describe(exc)
            result.op_s.append(time.perf_counter() - t0)
        if err is None:
            try:
                err = wl.check(i, out)
            except Exception as exc:
                err = f"check raised {_describe(exc)}"
        if err:
            result.failures.append(f"op {i}: {err}")
        i += 1

    try:
        problems, result.extra = wl.finish()
        result.problems += problems
    except Exception as exc:
        traceback.print_exc()
        result.problems.append(f"end-of-run checks: {_describe(exc)}")
    return result
