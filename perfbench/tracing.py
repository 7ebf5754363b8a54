"""Span recording from outside the package.

A traced run replaces public functions of `modquant` with wrappers that
record one span per call; the untraced run installs nothing. Each hook is
patched where its caller looks the name up (for example
`modquant.pipeline.gptq_quantize`, not `modquant.quantcore.gptq_quantize`),
so only calls made along the measured paths are seen. The kernel's own
`Tracer` is passed to `quant_matmul` by its hook and its spans are merged
into the same tree.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import math
import os
import threading
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass, field
from statistics import median, median_low
from typing import Callable

QUANTIZE = frozenset({"quantize"})
KERNEL = frozenset({"decode", "prefill"})


class HookError(RuntimeError):
    """A hook target no longer exists."""


class Span:
    __slots__ = ("id", "label", "start", "end", "parent", "op", "attrs")

    def __init__(self, id, label, start, parent, op):
        self.id, self.label, self.start, self.parent, self.op = id, label, start, parent, op
        self.end = -1
        self.attrs = {}

    @property
    def dur_s(self) -> float:
        return (self.end - self.start) / 1e9

    def as_dict(self) -> dict:
        return {"id": self.id, "label": self.label, "start_ns": self.start,
                "end_ns": self.end, "parent": self.parent, "op": self.op,
                **self.attrs}


class Recorder:
    """In-memory span tree; spans are recorded only inside a scope.

    A scope is one set-up or one operation and gives every span opened in
    it, on any thread, the same `op` id. Spans opened on a worker thread
    with nothing open on that thread hang under the innermost span of the
    thread that opened the scope.
    """

    clock = staticmethod(time.perf_counter_ns)

    def __init__(self):
        self.spans: list[Span] = []
        self.fired: set[str] = set()
        self.op: str | None = None
        self._ids = itertools.count()
        self._local = threading.local()
        self._scope_stack: list[int] = []

    def _stack(self) -> list[int]:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def open(self, label: str) -> Span:
        # No lock: next() on a count and list.append are atomic under the GIL.
        stack = self._stack()
        parent = stack[-1] if stack else (
            self._scope_stack[-1] if self._scope_stack else None)
        span = Span(next(self._ids), label, self.clock(), parent, self.op)
        self.spans.append(span)
        stack.append(span.id)
        return span

    def close(self, span: Span) -> None:
        span.end = self.clock()
        self._stack().pop()

    def adopt(self, label: str, start: int, end: int, parent: int) -> int:
        """Add an already-closed span (from the kernel's Tracer)."""
        span = Span(next(self._ids), label, start, parent, self.op)
        span.end = end
        self.spans.append(span)
        return span.id

    @contextmanager
    def scope(self, op: str, label: str):
        self.op = op
        self._scope_stack = self._stack()
        span = self.open(label)
        try:
            yield span
        finally:
            self.close(span)
            self.op = None

    def dump(self, path, meta: dict) -> None:
        with open(path, "w") as fh:
            json.dump({**meta, "spans": [s.as_dict() for s in self.spans]}, fh)


class NoRecorder:
    """Stand-in for the untraced run: scopes record nothing."""

    @contextmanager
    def scope(self, op: str, label: str):
        yield None


# --- hooks -----------------------------------------------------------------

def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _rows(args, kwargs, result, span, rec):
    span.attrs["rows"] = sum(s.shape[0] for s in _arg(args, kwargs, 0, "samples"))


def _packed_bytes(args, kwargs, result, span, rec):
    arrays = (result.qweight, result.scales, result.qzeros, result.g_idx, result.bias)
    span.attrs["bytes"] = sum(a.nbytes for a in arrays if a is not None)


def _file_bytes(args, kwargs, result, span, rec):
    span.attrs["bytes"] = os.path.getsize(_arg(args, kwargs, 0, "path"))


def _start_tracemalloc(args, kwargs):
    tracemalloc.stop()  # drops the state of a load that raised
    tracemalloc.start()


def _read(args, kwargs, result, span, rec):
    span.attrs["peak_bytes"] = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    _file_bytes(args, kwargs, result, span, rec)


def _inject_tracer(args, kwargs):
    if len(args) < 4 and kwargs.get("tracer") is None:
        from modquant.kernel import Tracer
        kwargs["tracer"] = Tracer(clock=Recorder.clock)


def _kernel(args, kwargs, result, span, rec):
    a = _arg(args, kwargs, 0, "A")
    layer = _arg(args, kwargs, 1, "layer")
    cfg = _arg(args, kwargs, 2, "cfg")
    m, k = a.shape
    m_tiles = math.ceil(m / cfg.block_m)
    packed = sum(x.nbytes for x in (layer.qweight, layer.scales, layer.qzeros, layer.g_idx))
    span.attrs.update(
        flops=2 * m * k * layer.out_features,
        weight_bytes=m_tiles * packed,
        # Each (k-slab, d-tile) pair of the weight needs one dequantization.
        slab_pairs=math.ceil(k / cfg.block_k) * math.ceil(layer.out_features / cfg.block_d),
        workers=cfg.workers,
    )
    ids = {}
    for s in _arg(args, kwargs, 3, "tracer").spans:
        parent = span.id if s.parent is None else ids[s.parent]
        ids[s.span_id] = rec.adopt("kernel." + s.label, s.start_ns, s.end_ns, parent)


@dataclass(frozen=True)
class Hook:
    module: str
    attr: str            # "name" or "Class.name"
    label: str
    workloads: frozenset
    after: Callable | None = None
    before: Callable | None = None

    @property
    def name(self) -> str:
        return f"{self.module}.{self.attr}"


HOOKS = (
    Hook("modquant.cli", "quantize_model", "pipeline.quantize_model", QUANTIZE),
    Hook("modquant.pipeline", "hessian_from_samples", "calibration.hessian", QUANTIZE, _rows),
    Hook("modquant.pipeline", "gptq_quantize", "quantcore.gptq", QUANTIZE),
    Hook("modquant.pipeline", "proxy_loss", "quantcore.proxy_loss", QUANTIZE),
    Hook("modquant.pipeline", "pack_linear", "packfmt.pack", QUANTIZE, _packed_bytes),
    Hook("modquant.model", "SyntheticModel.forward_crossmodal_layer", "model.forward", QUANTIZE),
    Hook("modquant.model", "load_container", "tensorio.read", QUANTIZE, _read, _start_tracemalloc),
    Hook("modquant.calibration", "load_container", "tensorio.read", QUANTIZE, _read, _start_tracemalloc),
    Hook("modquant.pipeline", "load_container", "tensorio.read", KERNEL, _read, _start_tracemalloc),
    Hook("modquant.pipeline", "write_container", "tensorio.write", QUANTIZE | KERNEL, _file_bytes),
    Hook("modquant.kernel", "quant_matmul", "kernel.quant_matmul", KERNEL, _kernel, _inject_tracer),
    Hook("modquant.kernel", "unpack_weights", "packfmt.unpack", KERNEL),
    Hook("modquant.packfmt", "unpack_zeros", "packfmt.unpack", KERNEL),
    Hook("modquant.kernel", "check_matrix", "tensorio.check_matrix", KERNEL),
)


def _resolve(hook: Hook):
    owner = importlib.import_module(hook.module)
    *path, attr = hook.attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            raise HookError(f"hook target {hook.name} no longer exists")
    if not callable(getattr(owner, attr, None)):
        raise HookError(f"hook target {hook.name} no longer exists")
    return owner, attr


def _wrap(rec: Recorder, hook: Hook, original):
    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        if rec.op is None:
            return original(*args, **kwargs)
        if hook.before:
            hook.before(args, kwargs)
        span = rec.open(hook.label)
        try:
            result = original(*args, **kwargs)
        finally:
            rec.close(span)
        rec.fired.add(hook.name)
        if hook.after:
            hook.after(args, kwargs, result, span, rec)
        return result
    return wrapper


@contextmanager
def installed(rec: Recorder, hooks=HOOKS):
    """Patch every hook target for the duration; raise HookError if one is gone."""
    targets = [(hook, *_resolve(hook)) for hook in hooks]
    saved = []
    try:
        for hook, owner, attr in targets:
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, _wrap(rec, hook, original))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def silent_hooks(rec: Recorder, workload: str, hooks=HOOKS) -> list[str]:
    """Hooks that serve `workload` but never fired in the run."""
    return [h.name for h in hooks if workload in h.workloads and h.name not in rec.fired]


# --- per-layer metrics ------------------------------------------------------

# Exact counts: they must repeat between operations and between runs.
COUNTS = (
    "quantcore.gptq_calls", "quantcore.proxy_loss_calls", "calibration.hessian_calls",
    "calibration.rows", "packfmt.packed_bytes", "tensorio.write_bytes",
    "tensorio.read_bytes", "kernel.calls", "kernel.tiles", "kernel.dequant_slabs",
    "kernel.slab_pairs", "kernel.flops", "kernel.weight_bytes_computed",
)


def _scope_totals(spans: list[Span]) -> dict:
    """Additive per-layer totals of one set-up or one operation."""
    by_id = {s.id: s for s in spans}
    children: dict[int, list[Span]] = {}
    for s in spans:
        children.setdefault(s.parent, []).append(s)

    def spans_of(label):
        return [s for s in spans if s.label == label]

    def total(label, attr=None):
        return sum(s.attrs[attr] if attr else s.dur_s for s in spans_of(label))

    def self_s(label):
        return sum(s.dur_s - sum(c.dur_s for c in children.get(s.id, ())) for s in spans_of(label))

    reads = spans_of("tensorio.read")
    return {
        "quantcore.gptq_s": total("quantcore.gptq"),
        "quantcore.gptq_calls": len(spans_of("quantcore.gptq")),
        "quantcore.proxy_loss_s": total("quantcore.proxy_loss"),
        "quantcore.proxy_loss_calls": len(spans_of("quantcore.proxy_loss")),
        "calibration.hessian_s": total("calibration.hessian"),
        "calibration.hessian_calls": len(spans_of("calibration.hessian")),
        "calibration.rows": total("calibration.hessian", "rows"),
        "model.forward_s": total("model.forward"),
        "pipeline.self_s": self_s("pipeline.quantize_model"),
        "packfmt.pack_s": total("packfmt.pack"),
        "packfmt.packed_bytes": total("packfmt.pack", "bytes"),
        "tensorio.write_s": total("tensorio.write"),
        "tensorio.write_bytes": total("tensorio.write", "bytes"),
        "tensorio.read_s": total("tensorio.read"),
        "tensorio.read_bytes": total("tensorio.read", "bytes"),
        "tensorio.read_peak_bytes": max((s.attrs["peak_bytes"] for s in reads), default=0),
        "kernel.calls": len(spans_of("kernel.quant_matmul")),
        "kernel.tiles": len(spans_of("kernel.tile")),
        "kernel.tile_s": total("kernel.tile"),
        "kernel.forward_worker_s": sum(
            s.dur_s * by_id[s.parent].attrs["workers"] for s in spans_of("kernel.forward")),
        "kernel.dequant_s": total("kernel.dequant"),
        "kernel.gemm_s": self_s("kernel.tile"),
        "packfmt.unpack_s": total("packfmt.unpack"),
        "kernel.dequant_slabs": len(spans_of("kernel.dequant")),
        "kernel.slab_pairs": total("kernel.quant_matmul", "slab_pairs"),
        "tensorio.check_matrix_s": total("tensorio.check_matrix"),
        "kernel.flops": total("kernel.quant_matmul", "flops"),
        "kernel.weight_bytes_computed": total("kernel.quant_matmul", "weight_bytes"),
    }


def _coverage(spans: list[Span]) -> float:
    """Share of the scope's wall time covered by its direct child spans."""
    root = next(s for s in spans if s.parent is None)
    covered, reach = 0, root.start
    for s in sorted((s for s in spans if s.parent == root.id), key=lambda s: s.start):
        lo, hi = max(s.start, reach), min(s.end, root.end)
        if hi > lo:
            covered += hi - lo
            reach = hi
    return covered / (root.end - root.start)


@dataclass
class LayerReport:
    metrics: dict
    count_mismatch: list[str] = field(default_factory=list)


def per_layer(rec: Recorder, dense_ms: list[float]) -> LayerReport:
    """Per-layer values for one set-up plus one operation.

    Each additive value is the median over the run's set-ups plus the
    median over its operations; a layer that works only in set-up (the
    checkpoint load on decode/prefill) reads as its set-up cost. Ratios
    are formed from those medians.
    """
    scopes: dict[str, list[Span]] = {}
    for s in rec.spans:
        scopes.setdefault(s.op, []).append(s)
    setups = [v for k, v in scopes.items() if k.startswith("setup")]
    ops = [v for k, v in scopes.items() if k.startswith("op")]
    setup_totals = [_scope_totals(v) for v in setups]
    op_totals = [_scope_totals(v) for v in ops]

    mismatch = [
        key for key in COUNTS
        for group in (setup_totals, op_totals)
        if len({t[key] for t in group}) > 1
    ]

    def med(group, key):
        if not group:
            return 0
        return (median_low if key in COUNTS else median)(t[key] for t in group)

    m = {key: med(setup_totals, key) + med(op_totals, key) for key in op_totals[0]}
    m["tensorio.read_peak_bytes"] = max(
        med(setup_totals, "tensorio.read_peak_bytes"), med(op_totals, "tensorio.read_peak_bytes"))
    calls = [s.dur_s * 1e3 for s in rec.spans if s.label == "kernel.quant_matmul"]
    m["kernel.call_ms_p50"] = median(calls) if calls else 0.0
    m["kernel.dense_ref_ms_p50"] = median(dense_ms) if dense_ms else 0.0
    m["kernel.dequant_redundancy"] = (
        m["kernel.dequant_slabs"] / m["kernel.slab_pairs"] if m["kernel.slab_pairs"] else 0.0)
    m["kernel.parallel_efficiency"] = (
        m["kernel.tile_s"] / m["kernel.forward_worker_s"] if m["kernel.forward_worker_s"] else 0.0)
    m["kernel.ops_per_byte"] = (
        m["kernel.flops"] / m["kernel.weight_bytes_computed"] if m["kernel.weight_bytes_computed"] else 0.0)
    m["trace.coverage"] = median(_coverage(v) for v in ops)
    m["trace.op_ms_p50"] = median(
        (s.end - s.start) / 1e6 for v in ops for s in v if s.parent is None)
    return LayerReport(m, sorted(set(mismatch)))
