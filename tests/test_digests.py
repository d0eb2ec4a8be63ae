"""The digest ledger: the sha256 of every built-in op's output file, P5 and
P2, over a small parameter grid on seeded scenes, recorded in
``tests/digests.json``.

Every entry must come out of every engine the CLI runs (``_run_raster``):
the bytes forms at the default cut, numpy, numpy with strip seams inside
the image, and a cut on both sides of each bytes step, so that a chain of
stages leaves the bytes engine at each of its steps in turn. The cases come
from ``pipeline.OPS``, plus two chains. So any change to any output byte
shows as a changed entry; a change that is meant records each changed entry
and why in CHANGES.md, and then rewrites the ledger with
``PYTHONPATH=src python tests/test_digests.py``.
"""

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from grayfilt import Image, _swar, save_pgm
from grayfilt._bytes import pgm_chunks
from support import ENGINES, op_stages, run_stages, stage_label

LEDGER = Path(__file__).with_name("digests.json")
#: Seeded scenes: a random one, a single row and a single column, and a flat one.
SCENES = [np.random.default_rng(21).integers(0, 256, (9, 13), np.uint8),
          np.random.default_rng(22).integers(0, 256, (1, 7), np.uint8),
          np.random.default_rng(23).integers(0, 256, (6, 1), np.uint8),
          np.full((3, 4), 200, np.uint8)]
#: Kernel files: an integer one, a decimal row (ROADMAP item 16's example)
#: and a decimal 5x5 blur.
KERNELS = {
    "int3x3": "3 3\n1 -2 0\n0 4 -1\n2 0 -3\n",
    "real1x3": "1 3\n0.141 0.197 0.162\n",
    "real5x5": ("5 5\n0.000 0.020 0.033 0.012 0.000\n0.017 0.085 0.132 0.085 0.010\n"
                "0.032 0.126 0.174 0.122 0.046\n0.028 0.080 0.114 0.088 0.029\n"
                "0.000 0.019 0.026 0.023 0.000\n"),
}
#: Chains of stages: one of bytes steps of every cost, with tables between,
#: and one that leaves the bytes engine at unsharp.
CHAINS = {
    "bytes-chain": [{"op": "negate"}, {"op": "sharpen", "variant": "eight"},
                    {"op": "edges", "threshold": 100}, {"op": "shadow"},
                    {"op": "add", "image": "second"}, {"op": "stretch", "gamma": 0.5},
                    {"op": "laplacian"}],
    "mixed-chain": [{"op": "shadow", "invert": True}, {"op": "laplacian", "variant": "eight"},
                    {"op": "sharpen"}, {"op": "unsharp"}, {"op": "binarize"},
                    {"op": "convolve", "kernel": "int3x3", "border": "zero"}],
}


def _cases():
    """(label, stages) of every generated op stage, then of each chain."""
    for stage in op_stages({"table": ("lut",), "image": ("second",), "kernel": tuple(KERNELS)}):
        yield stage_label(stage), [stage]
    for name, stages in CHAINS.items():
        yield f"pipeline {name}", stages


def _files(tmp_path, scene):
    """Each file a stage names, by the name it gives: the table, the
    scene's seeded second image, and the kernels."""
    files = {"lut": tmp_path / "lut.txt", "second": tmp_path / f"second-{scene.shape}.pgm"}
    files["lut"].write_text(" ".join(str((7 * v + 3) % 256) for v in range(256)))
    save_pgm(files["second"], Image(np.random.default_rng(24).integers(0, 256, scene.shape,
                                                                        np.uint8)))
    for name, text in KERNELS.items():
        files[name] = tmp_path / f"{name}.txt"
        files[name].write_text(text)
    return {name: str(path) for name, path in files.items()}


def _step_work(stages, scene):
    """The work each bytes step of ``stages`` counts against the cut on
    ``scene``, as ``_swar._under_cut`` counts it."""
    work = []
    under_cut = _swar._under_cut

    def record(fields, cost, rows=0):
        work.append(fields * cost + rows * _swar._ROW_TAPS)
        return under_cut(fields, cost, rows)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_swar, "_under_cut", record)
        run_stages(stages, scene, cut=2**62)
    return work


def digests(tmp_path):
    """{(entry, engine): sha256} of every case on every scene and engine:
    each of ``support.ENGINES``, and "cut=N" at N and N − 1 for the work N
    of each bytes step."""
    found = {}
    for scene in SCENES:
        height, width = scene.shape
        files = _files(tmp_path, scene)
        for label, stages in _cases():
            stages = [{k: v if k == "op" else files.get(v, v) for k, v in stage.items()}
                      for stage in stages]
            engines = dict(ENGINES)
            for work in _step_work(stages, scene):
                engines.update({f"cut={n}": {"cut": n} for n in (work, work - 1)})
            for engine, patch in engines.items():
                raster = run_stages(stages, scene, **patch)
                for fmt in ("P5", "P2"):
                    data = b"".join(pgm_chunks(width, height, raster, fmt))
                    found[f"{label} {width}x{height} {fmt}", engine] = \
                        hashlib.sha256(data).hexdigest()
    return found


def test_every_engine_gives_the_recorded_digests(tmp_path):
    ledger = json.loads(LEDGER.read_text())
    found = digests(tmp_path)
    changed = sorted(key for key, digest in found.items() if ledger.get(key[0]) != digest)
    assert changed == []
    assert {entry for entry, _ in found} == set(ledger)


if __name__ == "__main__":
    # Rewrite the ledger from the bytes engine, once every engine agrees.
    with tempfile.TemporaryDirectory() as tmp:
        found = digests(Path(tmp))
    ledger = {entry: digest for (entry, engine), digest in found.items() if engine == "bytes"}
    split = sorted({entry for (entry, _), digest in found.items() if digest != ledger[entry]})
    if split:
        sys.exit("engines disagree on: " + ", ".join(split))
    LEDGER.write_text(json.dumps(ledger, indent=1, sort_keys=True) + "\n")
