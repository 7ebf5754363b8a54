"""Command-line surface.

Exit codes: 0 ok, 2 usage, 3 malformed file or file contents, 4 invariant
violation, a path that cannot be opened or a size too large to allocate,
5 numeric failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .calibration import MODULES, CalibrationSet, load_calibration, save_calibration
from .errors import FormatError, InvariantError, NumericError
from .kernel import TileConfig, Tracer, autotune, quant_matmul
from .model import generate_model, load_model, save_model
from .packfmt import pack_linear
from .pipeline import circular_eval_accuracy, quantize_model, save_checkpoint, size_report
from .quantcore import QuantConfig, rtn_quantize
from .tensorio import file_invariants, parse_json, seeded_random_matrix

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_FORMAT = 3
EXIT_INVARIANT = 4
EXIT_NUMERIC = 5


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="modquant",
        description="Modality-partitioned weight quantization toolkit",
    )
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    q = sub.add_parser("quantize", help="quantize a synthetic model container")
    q.add_argument("--model", required=True)
    q.add_argument("--calib-v", required=True)
    q.add_argument("--calib-m", required=True)
    q.add_argument("--bits", type=int, required=True)
    q.add_argument("--groupsize", type=int, default=-1)
    q.add_argument("--damp-ratio", type=float, default=0.01)
    q.add_argument("--rtn", action="store_true",
                   help="round-to-nearest baseline instead of Hessian-weighted")
    q.add_argument("--out", required=True)

    b = sub.add_parser("bench", help="autotune and run the tiled kernel")
    b.add_argument("--m", type=int, required=True)
    b.add_argument("--k", type=int, required=True)
    b.add_argument("--d", type=int, required=True)
    b.add_argument("--bits", type=int, default=4)
    b.add_argument("--configs", required=True,
                   help="JSON array of tile configs")
    b.add_argument("--runs", type=int, default=3)
    b.add_argument("--seed", type=int, default=0)
    b.add_argument("--trace", default=None, help="write a span-tree JSON")

    s = sub.add_parser("size", help="analytic storage report for a model")
    s.add_argument("--model", required=True)
    s.add_argument("--bits", type=int, required=True)
    s.add_argument("--groupsize", type=int, default=-1)

    e = sub.add_parser("eval-circular", help="CircularEval accuracy of records")
    e.add_argument("--records", required=True)

    g = sub.add_parser("gen-model", help="emit a random synthetic model")
    g.add_argument("--vision-layers", type=int, required=True)
    g.add_argument("--crossmodal-layers", type=int, required=True)
    g.add_argument("--dim", type=int, required=True)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--misc-params", type=int, default=0)
    g.add_argument("--out", required=True)

    c = sub.add_parser("gen-calib", help="emit a random calibration container")
    c.add_argument("--module", choices=MODULES, required=True)
    c.add_argument("--dim", type=int, required=True)
    c.add_argument("--samples", type=int, default=4)
    c.add_argument("--seqlen", type=int, default=32)
    c.add_argument("--seed", type=int, default=0)
    c.add_argument("--out", required=True)
    return p


def _cmd_quantize(args) -> int:
    cfg = QuantConfig(bits=args.bits, groupsize=args.groupsize,
                      damp_ratio=args.damp_ratio)
    model = load_model(args.model)
    calib_v = load_calibration(args.calib_v)
    calib_m = load_calibration(args.calib_m)
    method = "rtn" if args.rtn else "gptq"
    ckpt = quantize_model(model, calib_v, calib_m, cfg, method=method)
    save_checkpoint(ckpt, args.out)
    with open(f"{args.out}.report.json", "w", encoding="utf-8") as fh:
        json.dump(ckpt.report, fh, indent=2, sort_keys=True)
    print(f"quantized {len(ckpt.layers)} layers -> {args.out}")
    return EXIT_OK


def _parse_configs(path, bits: int) -> list[TileConfig]:
    """A non-empty JSON array of objects, each a TileConfig that fits `bits`."""
    raw = parse_json(path, Path(path).read_bytes(), "tile configs")
    with file_invariants(path):
        if not isinstance(raw, list) or not raw or not all(isinstance(e, dict) for e in raw):
            raise InvariantError("expected a non-empty JSON array of tile config objects")
        try:
            configs = [TileConfig(**entry) for entry in raw]
        except TypeError as exc:
            raise InvariantError(f"bad tile config entry: {exc}") from exc
        for c in configs:
            c.validate(bits)
    return configs


def _cmd_bench(args) -> int:
    cfg = QuantConfig(bits=args.bits, groupsize=-1)
    candidates = _parse_configs(args.configs, args.bits)
    # A is rows [:m] of the seed's stream (what autotune and --trace draw), W rows after.
    w = seeded_random_matrix(args.m + args.d, args.k, args.seed)[args.m:].T
    layer = pack_linear(rtn_quantize(w, cfg))
    best, table = autotune(args.m, layer, candidates, runs=args.runs,
                           seed=args.seed)
    print(f"{'config':<50} median_ns")
    for c, t in table.items():
        mark = " *" if c == best else ""
        print(f"{json.dumps(c.as_dict()):<50} {int(t)}{mark}")
    if args.trace:
        tracer = Tracer()
        quant_matmul(seeded_random_matrix(args.m, args.k, args.seed),
                     layer, best, tracer=tracer)
        tracer.dump(args.trace)
        print(f"span trace -> {args.trace}")
    return EXIT_OK


def _cmd_size(args) -> int:
    report = size_report(load_model(args.model), args.bits, args.groupsize)
    print(json.dumps(report, indent=2, sort_keys=True))
    return EXIT_OK


def _cmd_eval_circular(args) -> int:
    records = parse_json(args.records, Path(args.records).read_bytes(), "records")
    with file_invariants(args.records):
        acc = circular_eval_accuracy(records)
    print(f"{acc:g}")
    return EXIT_OK


def _cmd_gen_model(args) -> int:
    model = generate_model(args.vision_layers, args.crossmodal_layers,
                           args.dim, args.seed, args.misc_params)
    save_model(model, args.out)
    n = len(model.weights)
    print(f"synthetic model with {n} weight matrices -> {args.out}")
    return EXIT_OK


def _cmd_gen_calib(args) -> int:
    if args.samples < 1 or args.seqlen < 1:
        raise InvariantError(f"samples and seqlen must be >= 1, got {args.samples} and "
                             f"{args.seqlen}")
    # One draw split by rows: seed s shares no sample with seed s + 1.
    rows = seeded_random_matrix(args.samples * args.seqlen, args.dim, args.seed)
    samples = np.split(rows, args.samples)
    save_calibration(CalibrationSet(args.module, samples), args.out)
    print(f"{args.samples} calibration samples -> {args.out}")
    return EXIT_OK


_COMMANDS = {
    "quantize": _cmd_quantize,
    "bench": _cmd_bench,
    "size": _cmd_size,
    "eval-circular": _cmd_eval_circular,
    "gen-model": _cmd_gen_model,
    "gen-calib": _cmd_gen_calib,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return _COMMANDS[args.command](args)
    except FormatError as exc:
        print(f"format error: {exc}", file=sys.stderr)
        return EXIT_FORMAT
    except (InvariantError, OSError, MemoryError) as exc:
        print(f"invariant error: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
