"""Tiled dequantize-and-multiply kernel, autotuner, and timing spans.

The kernel computes A (M x K) times a packed K x D layer by B_M x B_D
output tiles, each accumulating over B_K reduction slabs. Every slab of
the weight tile is unpacked and dequantized in f32 on the fly; reduction
tiles never split a 32-bit word because block_k is constrained to a
multiple of f_int. Tiles own disjoint output regions, so worker threads
need no locks and results are byte-identical for any worker count.
"""

from __future__ import annotations

import json
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from statistics import median

import numpy as np

from .errors import InvariantError
from .packfmt import PackedLinear, lanes_per_word, unpack_weights
from .tensorio import check_matrix, seeded_random_matrix

_TILE_RANGE = (8, 256)


def _pow2_in_range(v: int) -> bool:
    lo, hi = _TILE_RANGE
    return lo <= v <= hi and (v & (v - 1)) == 0


@dataclass(frozen=True)
class TileConfig:
    block_m: int
    block_d: int
    block_k: int
    workers: int = 1

    def validate(self, bits: int) -> None:
        for name, v in (("block_m", self.block_m), ("block_d", self.block_d),
                        ("block_k", self.block_k)):
            if not _pow2_in_range(v):
                raise InvariantError(
                    f"{name} = {v} must be a power of two in {_TILE_RANGE}"
                )
        f_int = lanes_per_word(bits)
        if self.block_k % f_int != 0:
            raise InvariantError(
                f"block_k = {self.block_k} must be a multiple of f_int = {f_int}"
            )
        if self.workers < 1:
            raise InvariantError("workers must be >= 1")

    def as_dict(self) -> dict:
        return {"block_m": self.block_m, "block_d": self.block_d,
                "block_k": self.block_k, "workers": self.workers}


@dataclass
class TimingSpan:
    span_id: int
    label: str
    start_ns: int
    end_ns: int = -1
    parent: int | None = None


class Tracer:
    """Collector of nested wall-clock spans; cheap enough to leave on."""

    def __init__(self, clock=time.monotonic_ns):
        self._clock = clock
        self.spans: list[TimingSpan] = []
        self._next_id = 0

    def open(self, label: str, parent: int | None = None) -> TimingSpan:
        if not label:
            raise InvariantError("span label must be non-empty")
        span = TimingSpan(self._next_id, label, self._clock(), parent=parent)
        self._next_id = self._next_id + 1
        self.spans.append(span)
        return span

    def close(self, span: TimingSpan) -> TimingSpan:
        span.end_ns = self._clock()
        return span

    @contextmanager
    def span(self, label: str, parent: int | None = None):
        s = self.open(label, parent)
        try:
            yield s
        finally:
            self.close(s)

    def merge(self, spans: list[TimingSpan], parent: int | None) -> None:
        """Adopt spans recorded on a worker-local tracer."""
        base = self._next_id
        for s in spans:
            s.span_id += base
            s.parent = parent if s.parent is None else s.parent + base
            self.spans.append(s)
        self._next_id += len(spans)

    def to_json(self) -> list[dict]:
        return [
            {"label": s.label, "start_ns": s.start_ns, "end_ns": s.end_ns,
             "parent": s.parent}
            for s in self.spans
        ]

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json(), fh, indent=2)


def _dequant_slab(layer: PackedLinear, k0: int, k1: int, d0: int, d1: int,
                  zeros: np.ndarray, scales: np.ndarray) -> np.ndarray:
    f_int = lanes_per_word(layer.bits)
    words = layer.qweight[k0 // f_int : k1 // f_int, d0:d1]
    qint = unpack_weights(words, layer.bits)
    g = layer.g_idx[k0:k1]
    qint -= zeros[g, d0:d1]
    # |q - z| < 2^8 converts to f32 exactly, and its f64 product with an f32
    # scale is exact, so one f32 product rounds as dequantize_packed does.
    slab = qint.astype(np.float32)
    slab *= scales[g, d0:d1]
    return slab


def quant_matmul(
    A: np.ndarray,
    layer: PackedLinear,
    cfg: TileConfig,
    tracer: Tracer | None = None,
) -> np.ndarray:
    """A (M x K) times the packed layer (K x D) plus bias, f32 accumulation."""
    A = check_matrix(A)
    cfg.validate(layer.bits)
    m, k = A.shape
    d = layer.out_features
    if k != layer.in_features:
        raise InvariantError(
            f"A has {k} columns but the layer expects {layer.in_features}"
        )
    f_int = lanes_per_word(layer.bits)
    if k % f_int != 0:
        raise InvariantError(f"K = {k} must be a multiple of f_int = {f_int}")

    zeros = layer.unpack_zero_codes()
    scales = layer.scales.astype(np.float32)
    out = np.zeros((m, d), dtype=np.float32)

    tiles = [
        (m0, min(m0 + cfg.block_m, m), d0, min(d0 + cfg.block_d, d))
        for m0 in range(0, m, cfg.block_m)
        for d0 in range(0, d, cfg.block_d)
    ]

    def run_tile(tile):
        m0, m1, d0, d1 = tile
        local = Tracer(tracer._clock) if tracer else None
        with local.span("tile") if local else nullcontext() as tspan:
            acc = np.zeros((m1 - m0, d1 - d0), dtype=np.float32)
            for k0 in range(0, k, cfg.block_k):
                k1 = min(k0 + cfg.block_k, k)
                with local.span("dequant", tspan.span_id) if local else nullcontext():
                    b_tile = _dequant_slab(layer, k0, k1, d0, d1, zeros, scales)
                acc += A[m0:m1, k0:k1] @ b_tile
            out[m0:m1, d0:d1] = acc
        return local.spans if local else []

    with tracer.span("forward") if tracer else nullcontext() as root:
        if cfg.workers > 1 and len(tiles) > 1:
            with ThreadPoolExecutor(max_workers=cfg.workers) as pool:
                worker_spans = list(pool.map(run_tile, tiles))
        else:
            worker_spans = [run_tile(t) for t in tiles]
        if tracer:
            for spans in worker_spans:
                tracer.merge(spans, root.span_id)
        if layer.bias is not None:
            with tracer.span("bias_add", root.span_id) if tracer else nullcontext():
                out += layer.bias
    return out


def autotune(
    m: int,
    k: int,
    d: int,
    layer: PackedLinear,
    candidates: list[TileConfig],
    runs: int = 3,
    clock=time.perf_counter_ns,
    seed: int = 0,
) -> tuple[TileConfig, dict[TileConfig, float]]:
    """Pick the candidate with the lowest median wall time.

    One warmup execution per candidate, then `runs` timed executions; the
    clock is injectable so selection is reproducible under test.
    """
    if not candidates:
        raise InvariantError("candidate list is empty")
    if runs < 3:
        raise InvariantError(f"runs must be >= 3, got {runs}")
    valid = []
    for c in candidates:
        try:
            c.validate(layer.bits)
        except InvariantError:
            continue
        valid.append(c)
    if not valid:
        raise InvariantError("no candidate satisfies the tile invariants")

    A = seeded_random_matrix(m, k, seed)
    table: dict[TileConfig, float] = {}
    for c in valid:
        quant_matmul(A, layer, c)  # warmup
        times = []
        for _ in range(runs):
            t0 = clock()
            quant_matmul(A, layer, c)
            times.append(clock() - t0)
        table[c] = float(median(times))
    best = min(valid, key=lambda c: table[c])
    return best, table
