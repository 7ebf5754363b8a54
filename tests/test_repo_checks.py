"""Checks on the repository as a whole: the package's source rules, the
README's two examples run as written, and quantize determinism across
processes and BLAS thread counts.

Every subprocess runs this checkout's `src` with every warning an error.
"""

import ast
import json
import os
import re
import shlex
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from modquant import load_calibration, load_checkpoint, load_container, load_model
from modquant.cli import _COMMANDS, main

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "modquant").glob("*.py"))
README = (ROOT / "README.md").read_text(encoding="utf-8")
TIMEOUT_S = 300


def run(argv, cwd, **env):
    """Run `argv` in `cwd` on this checkout's src, with warnings as errors
    and `env` added; fail on a nonzero exit. The child leads its own process
    group, so a timeout also kills what a shell started."""
    env = {**os.environ, **env, "PYTHONWARNINGS": "error",
           "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                       os.environ.get("PYTHONPATH")]))}
    with subprocess.Popen(argv, cwd=cwd, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, encoding="utf-8",
                          start_new_session=True) as proc:
        try:
            out = proc.communicate(timeout=TIMEOUT_S)[0]
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            raise
    assert proc.returncode == 0, out


def parse(path):
    return ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path)))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_runtime_imports_are_stdlib_and_numpy_only(path):
    allowed = set(sys.stdlib_module_names) | {"numpy"}
    bad = []
    for node in parse(path):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        bad += [f"line {node.lineno}: import {name}" for name in names
                if name.split(".")[0] not in allowed]
    assert not bad


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_text_files_are_opened_with_an_encoding(path):
    # An open() whose mode is text (no "b", or no mode at all) or not a
    # literal, and that names no encoding, uses the locale's, not UTF-8.
    bad = []
    for node in parse(path):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "open"):
            continue
        kw = {k.arg: k.value for k in node.keywords}
        mode = node.args[1] if len(node.args) > 1 else kw.get("mode", ast.Constant("r"))
        binary = isinstance(mode, ast.Constant) and "b" in str(mode.value)
        if not binary and "encoding" not in kw and len(node.args) < 4:
            bad.append(f"line {node.lineno}: open() in text mode without an encoding")
    assert not bad


def test_readme_cli_round_trip(tmp_path):
    """The README's CLI block (its third sh block) runs every command once
    or more, as written, and its two modules calibrate on different data.
    The calibration files always differ in their module_id, so the samples
    are compared, not the files."""
    script = re.findall(r"^```sh\n(.*?)^```$", README, re.M | re.S)[2]
    assert set(re.findall(r"^modquant ([\w-]+)", script, re.M)) == set(_COMMANDS)
    modquant = f'modquant() {{ {shlex.quote(sys.executable)} -m modquant.cli "$@"; }}'
    run(["bash", "-c", f"set -euo pipefail\n{modquant}\n{script}"], tmp_path)
    v, m = ({(s.shape, s.tobytes()) for s in load_calibration(tmp_path / name).samples}
            for name in ("calib_v.bin", "calib_m.bin"))
    assert not v & m


def test_readme_library_sketch(tmp_path):
    [sketch] = re.findall(r"^## Library sketch$.*?^```python\n(.*?)^```$", README,
                          re.M | re.S)
    assert re.search(r"^layer = pack_linear", sketch, re.M)
    (tmp_path / "sketch.py").write_text(sketch, encoding="utf-8")
    run([sys.executable, "-W", "error", "sketch.py"], tmp_path)


@pytest.fixture(scope="module")
def models(tmp_path_factory):
    """`quantize` inputs for each model of the determinism cases: 2+2 layers
    at dim 128 (seeds 7, 8, 9), and the benchmark's quantize geometry, 1+1
    at dim 768 calibrated on 8 samples of 577 tokens (seeds 17, 18, 19)."""
    d = tmp_path_factory.mktemp("models")
    inputs = {}
    for dim, layers, seed, calib in (("128", "2", 7, []),
                                     ("768", "1", 17, ["--samples", "8", "--seqlen", "577"])):
        model, cv, cm = (str(d / f"{part}{dim}.bin") for part in ("model", "cv", "cm"))
        assert main(["gen-model", "--vision-layers", layers, "--crossmodal-layers", layers,
                     "--dim", dim, "--seed", str(seed), "--out", model]) == 0
        for module, path, offset in (("vision", cv, 1), ("crossmodal", cm, 2)):
            assert main(["gen-calib", "--module", module, "--dim", dim, *calib,
                         "--seed", str(seed + offset), "--out", path]) == 0
        inputs[dim] = ["--model", model, "--calib-v", cv, "--calib-m", cm]
    return inputs


@pytest.mark.parametrize("dim,args", [
    ("128", ["--bits", "4", "--groupsize", "32"]),
    ("128", ["--bits", "8", "--groupsize", "-1"]),
    ("128", ["--rtn", "--bits", "2", "--groupsize", "48"]),
    ("768", ["--bits", "4", "--groupsize", "128"]),
], ids=["gptq 4 g32", "gptq 8 g-1", "rtn 2 g48", "dim 768 gptq 4 g128"])
def test_quantize_is_deterministic(models, tmp_path, dim, args):
    """Runs write byte-equal checkpoints and reports: the first in this
    process, the others in fresh ones with BLAS at one thread and, for the
    dim-768 case, at four, so the bytes depend neither on the process nor on
    BLAS's thread count (the GPTQ sweep's f32 products may split their sums
    by thread count)."""
    first = str(tmp_path / "first.bin")
    assert main(["quantize", *models[dim], *args, "--out", first]) == 0
    for threads in ("1", "4") if dim == "768" else ("1",):
        second = str(tmp_path / f"threads{threads}.bin")
        run([sys.executable, "-m", "modquant.cli", "quantize", *models[dim], *args,
             "--out", second], tmp_path, OPENBLAS_NUM_THREADS=threads,
            OMP_NUM_THREADS=threads)
        for suffix in ("", ".report.json"):
            assert Path(first + suffix).read_bytes() == Path(second + suffix).read_bytes()
    # No CLI command reads a checkpoint, so load it back: what the writer
    # wrote must pass the loader, the report must be the checkpoint's only
    # manifest and equal the report file, and its processing order must be
    # the model's own matrix order.
    assert load_container(first)[1].keys() == {"schema", "report"}
    report = load_checkpoint(first).report
    assert report == json.loads(Path(first + ".report.json").read_text(encoding="utf-8"))
    assert report["processing_order"] == load_model(models[dim][1]).matrix_names()
