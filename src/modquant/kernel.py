"""Tiled dequantize-and-multiply kernel, autotuner, and timing spans.

The kernel computes A (M x K) times a packed K x D layer by running
`tile_plan`: B_M x B_D output tiles, each accumulating over the B_K
reduction slabs. Every slab of the weight tile is unpacked and dequantized
in f32 on the fly; reduction slabs never split a 32-bit word because
`TileConfig.validate` requires block_k to be a multiple of f_int.

Slabs are decoded lane-major: the slab's packed words unpack as one plane
per lane, so row j * rows + r of a slab is input row r * f_int + j (lane j
of word row r). Each call puts A's columns in the same order once, so a
slab multiplies the matching columns of the reordered A. A slab's values
are bit-identical to the matching rows of `dequantize_packed`; only their
order, and so the f32 sum order of the product, differs.

Every call maps its tiles through a pool of `workers` threads; tiles own
disjoint output regions and each accumulates straight into its own, so
threads write without locks and results are byte-identical for any
worker count.
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
from .packfmt import PackedLinear, unpack_weights
from .quantcore import dequantize_codes, lanes_per_word
from .tensorio import check_matrix, seeded_random_matrix, typed_attr

_TILE_RANGE = (8, 256)


@dataclass(frozen=True)
class TileConfig:
    """B_M x B_D output tiles, B_K reduction slabs, and worker threads.
    Building one checks every field: an int by `typed_attr` (a bool is
    not), each block a power of two in _TILE_RANGE, workers in [1, 256]
    (_TILE_RANGE's top)."""

    block_m: int
    block_d: int
    block_k: int
    workers: int = 1

    def __post_init__(self):
        lo, hi = _TILE_RANGE
        for name in self.as_dict():
            v = typed_attr(vars(self), name, int)
            if name != "workers" and not (lo <= v <= hi and v & (v - 1) == 0):
                raise InvariantError(f"{name} = {v} must be a power of two in {_TILE_RANGE}")
        if not 1 <= self.workers <= hi:
            raise InvariantError(f"workers = {self.workers} must be in [1, {hi}]")

    def validate(self, bits: int) -> None:
        """The rule that needs the bit width: block_k splits no packed word."""
        f_int = lanes_per_word(bits)
        if self.block_k % f_int != 0:
            raise InvariantError(
                f"block_k = {self.block_k} must be a multiple of f_int = {f_int}"
            )

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
        with open(path, "w", encoding="utf-8") as fh:
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


def _dequant_slab(words: np.ndarray, bits: int, zeros: np.ndarray,
                  scales: np.ndarray) -> np.ndarray:
    """One k-slab of a weight tile in lane-major row order, in f32.

    `words` holds the slab's (rows, cols) packed words, `zeros` and
    `scales` its lane tables of shape (f_int or 1, rows, cols). Row
    j * rows + r of the result is lane j of word row r.
    """
    rows, cols = words.shape
    # A single row of words unpacks to f_int lane planes.
    codes = unpack_weights(words.reshape(1, -1), bits).reshape(-1, rows, cols)
    return dequantize_codes(codes, zeros, scales).reshape(-1, cols)


def _lane_groups(g_idx: np.ndarray, f_int: int) -> np.ndarray:
    """Group of lane j of word row r at [j, r]; one row when every lane of
    a word shares its group (groupsize a multiple of f_int, or -1)."""
    groups = g_idx.reshape(-1, f_int).T
    return groups[:1] if (groups == groups[:1]).all() else groups


def tile_plan(m: int, k: int, d: int, cfg: TileConfig):
    """The loop of an M x K times K x D `quant_matmul` under `cfg`: the
    output tiles (m0, m1, d0, d1) in pool-submission order, and the
    k-slabs (k0, k1) that each tile dequantizes and accumulates, in order."""
    tiles = [(m0, min(m0 + cfg.block_m, m), d0, min(d0 + cfg.block_d, d))
             for m0 in range(0, m, cfg.block_m) for d0 in range(0, d, cfg.block_d)]
    slabs = [(k0, min(k0 + cfg.block_k, k)) for k0 in range(0, k, cfg.block_k)]
    return tiles, slabs


def quant_matmul(
    A: np.ndarray,
    layer: PackedLinear,
    cfg: TileConfig,
    tracer: Tracer | None = None,
) -> np.ndarray:
    """A (M x K) times the packed layer (K x D) plus bias in f32, looping over `tile_plan`."""
    A = check_matrix(A)
    cfg.validate(layer.bits)
    m, k = A.shape
    d = layer.out_features
    if k != layer.in_features:
        raise InvariantError(
            f"A has {k} columns but the layer expects {layer.in_features}"
        )

    f_int = lanes_per_word(layer.bits)
    zeros = layer.unpack_zero_codes()
    scales = layer.scales.astype(np.float32)
    lane_groups = _lane_groups(layer.g_idx, f_int)
    tiles, slabs = tile_plan(m, k, d, cfg)
    # A's columns in each k-slab's lane-major row order.
    order = np.concatenate([np.arange(k0, k1).reshape(-1, f_int).T.ravel() for k0, k1 in slabs])
    a_lanes = np.take(A, order, axis=1)
    out = np.zeros((m, d), dtype=np.float32)

    trace = tracer or _UNTRACED
    with trace.span("forward") as root:
        def run_tile(tile):
            m0, m1, d0, d1 = tile
            with trace.span("tile", root.span_id) as tspan:
                words = np.ascontiguousarray(layer.qweight[:, d0:d1])
                tile_zeros = zeros[lane_groups, d0:d1]
                tile_scales = scales[lane_groups, d0:d1]
                acc = out[m0:m1, d0:d1]
                for k0, k1 in slabs:
                    w0, w1 = k0 // f_int, k1 // f_int
                    with trace.span("dequant", tspan.span_id):
                        slab = _dequant_slab(words[w0:w1], layer.bits,
                                             tile_zeros[:, w0:w1], tile_scales[:, w0:w1])
                    acc += a_lanes[m0:m1, k0:k1] @ slab

        with ThreadPoolExecutor(max_workers=cfg.workers) as pool:
            list(pool.map(run_tile, tiles))
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

    A candidate that does not fit the layer's bits raises before any is
    timed. One warmup execution per candidate, then `runs` timed
    executions; the clock is injectable so selection is reproducible.
    """
    if not candidates:
        raise InvariantError("candidate list is empty")
    if runs < 3:
        raise InvariantError(f"runs must be >= 3, got {runs}")
    for c in candidates:
        c.validate(layer.bits)

    A = seeded_random_matrix(m, layer.in_features, seed)
    table: dict[TileConfig, float] = {}
    for c in candidates:
        quant_matmul(A, layer, c)  # warmup
        times = []
        for _ in range(runs):
            t0 = clock()
            quant_matmul(A, layer, c)
            times.append(clock() - t0)
        table[c] = float(median(times))
    best = min(candidates, key=lambda c: table[c])
    return best, table
