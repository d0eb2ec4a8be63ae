"""Every filter op behaves the same as a CLI subcommand, as a one-stage
pipeline, and as the library calls it stands for."""

import argparse

import numpy as np
import pytest

from grayfilt import (
    FormatError,
    Image,
    PipelineSpec,
    apply_lut,
    binarize,
    bits_to_image,
    clamp_to_display,
    convolve,
    edge_points,
    gray_stretch,
    image_add,
    laplacian,
    laplacian_sharpen,
    load_pgm,
    negate,
    parse_kernel,
    run_pipeline,
    save_pgm,
    shadow_invert,
    shadow_ne,
    unsharp_mask,
)
from grayfilt.cli import build_parser
from grayfilt.pipeline import OPS

from support import run_cli

TABLE = [(i * 7) % 256 for i in range(256)]
KERNEL = "3 3\n1 2 0\n-2 4 2\n1 0 -1\n"

# (op, CLI flags, pipeline params, the same filter as library calls). Each op
# has a case with its defaults and, where it has a parameter with a default, a
# case that sets every such parameter to another value. "{table}", "{kernel}"
# and "{second}" stand for files the fixture writes; `f` holds their contents.
CASES = [
    ("negate", [], {}, lambda img, f: negate(img)),
    ("stretch", [], {}, lambda img, f: gray_stretch(img, 2.0)),
    ("stretch", ["--gamma", "0.5"], {"gamma": 0.5}, lambda img, f: gray_stretch(img, 0.5)),
    ("lut", ["--table", "{table}"], {"table": "{table}"},
     lambda img, f: apply_lut(img, f["table"])),
    ("laplacian", [], {}, lambda img, f: clamp_to_display(laplacian(img, "four"), "clamp")),
    ("laplacian", ["--variant", "eight", "--display", "rescale"],
     {"variant": "eight", "display": "rescale"},
     lambda img, f: clamp_to_display(laplacian(img, "eight"), "rescale")),
    ("sharpen", [], {}, lambda img, f: laplacian_sharpen(img, "four")),
    ("sharpen", ["--variant", "eight"], {"variant": "eight"},
     lambda img, f: laplacian_sharpen(img, "eight")),
    ("unsharp", [], {}, lambda img, f: unsharp_mask(img, 1, "clamp")),
    ("unsharp", ["--radius", "2", "--display", "rescale"], {"radius": 2, "display": "rescale"},
     lambda img, f: unsharp_mask(img, 2, "rescale")),
    ("convolve", ["--kernel", "{kernel}"], {"kernel": "{kernel}"},
     lambda img, f: clamp_to_display(convolve(img, f["kernel"], "replicate"), "clamp")),
    ("convolve", ["--kernel", "{kernel}", "--border", "zero", "--display", "rescale"],
     {"kernel": "{kernel}", "border": "zero", "display": "rescale"},
     lambda img, f: clamp_to_display(convolve(img, f["kernel"], "zero"), "rescale")),
    ("binarize", [], {}, lambda img, f: bits_to_image(binarize(img, 128))),
    ("binarize", ["--threshold", "90"], {"threshold": 90},
     lambda img, f: bits_to_image(binarize(img, 90))),
    ("edges", [], {}, lambda img, f: bits_to_image(edge_points(binarize(img, 128)))),
    ("edges", ["--threshold", "90"], {"threshold": 90},
     lambda img, f: bits_to_image(edge_points(binarize(img, 90)))),
    ("add", ["-j", "{second}"], {"image": "{second}"}, lambda img, f: image_add(img, f["second"])),
    ("add", ["--second", "{second}"], {"image": "{second}"},
     lambda img, f: image_add(img, f["second"])),
    ("shadow", [], {}, lambda img, f: shadow_ne(img)),
    ("shadow", ["--invert"], {"invert": True}, lambda img, f: shadow_invert(img)),
]

# (op, parameter, CLI text, pipeline value): rejected by both surfaces.
BAD_VALUES = [
    ("binarize", "threshold", "256", 256),
    ("edges", "threshold", "256", 256),
    ("stretch", "gamma", "0", 0),
    ("stretch", "gamma", "nan", float("nan")),
    ("stretch", "gamma", "inf", float("inf")),
    ("unsharp", "radius", "0", 0),
    ("laplacian", "variant", "sixteen", "sixteen"),
    ("sharpen", "variant", "sixteen", "sixteen"),
]


@pytest.fixture
def files(tmp_path):
    rng = np.random.default_rng(71)
    img = Image(rng.integers(0, 256, (11, 13), np.uint8))
    second = Image(rng.integers(0, 256, (11, 13), np.uint8))
    paths = {"input": tmp_path / "in.pgm", "second": tmp_path / "second.pgm",
             "table": tmp_path / "t.lut", "kernel": tmp_path / "k.txt"}
    save_pgm(paths["input"], img)
    save_pgm(paths["second"], second)
    paths["table"].write_text(" ".join(map(str, TABLE)))
    paths["kernel"].write_text(KERNEL)
    loaded = {"table": np.array(TABLE), "kernel": parse_kernel(KERNEL), "second": second}
    return img, {k: str(v) for k, v in paths.items()}, loaded


def test_every_op_has_cases():
    assert {case[0] for case in CASES} == set(OPS)


def test_cli_subcommands_are_the_ops_plus_three():
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert set(sub.choices) == set(OPS) | {"histogram", "pipeline", "bench"}


@pytest.mark.parametrize("op,flags,params,library", CASES,
                         ids=[f"{c[0]}-{'-'.join(c[1]) or 'defaults'}" for c in CASES])
def test_cli_pipeline_and_library_agree(files, tmp_path, op, flags, params, library):
    img, paths, loaded = files
    fill = lambda v: v.format(**paths) if isinstance(v, str) else v
    out = tmp_path / "out.pgm"
    argv = [op, "-i", paths["input"], "-o", str(out), *map(fill, flags)]
    assert run_cli(argv) == 0
    piped = run_pipeline(PipelineSpec([{"op": op, **{k: fill(v) for k, v in params.items()}}]), img)
    expected = library(img, loaded)
    assert load_pgm(out) == expected
    assert piped == expected


@pytest.mark.parametrize("op,name,text,value", BAD_VALUES)
def test_both_surfaces_reject_bad_values(files, tmp_path, op, name, text, value):
    img, paths, _ = files
    argv = [op, "-i", paths["input"], "-o", str(tmp_path / "out.pgm"), f"--{name}", text]
    assert run_cli(argv) == 1
    assert not (tmp_path / "out.pgm").exists()
    with pytest.raises(FormatError, match=rf"stage 1: .*\b{name}\b"):
        PipelineSpec([{"op": op, name: value}])
