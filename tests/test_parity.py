"""Every filter op behaves the same as a CLI subcommand, as a one-stage
pipeline, and as the library calls it stands for."""

import argparse
import json

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

# (op, parameter, CLI text, pipeline value, the library call given that value):
# rejected by the CLI, the pipeline and the library alike. bool is not a number.
BAD_VALUES = [
    ("binarize", "threshold", "256", 256, binarize),
    ("binarize", "threshold", "false", False, binarize),
    ("edges", "threshold", "256", 256, lambda img, v: edge_points(binarize(img, v))),
    ("stretch", "gamma", "0", 0, gray_stretch),
    ("stretch", "gamma", "nan", float("nan"), gray_stretch),
    ("stretch", "gamma", "inf", float("inf"), gray_stretch),
    ("stretch", "gamma", "true", True, gray_stretch),
    ("unsharp", "radius", "0", 0, unsharp_mask),
    ("unsharp", "radius", "true", True, unsharp_mask),
    ("unsharp", "display", "bogus", "bogus", lambda img, v: unsharp_mask(img, 1, v)),
    ("laplacian", "variant", "sixteen", "sixteen", laplacian),
    ("sharpen", "variant", "sixteen", "sixteen", laplacian_sharpen),
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


@pytest.mark.parametrize("op,name,text,value,library", BAD_VALUES,
                         ids=["-".join(map(str, case[:4])) for case in BAD_VALUES])
def test_both_surfaces_reject_bad_values(files, tmp_path, op, name, text, value, library):
    img, paths, _ = files
    argv = [op, "-i", paths["input"], "-o", str(tmp_path / "out.pgm"), f"--{name}", text]
    assert run_cli(argv) == 1
    assert not (tmp_path / "out.pgm").exists()
    with pytest.raises(FormatError, match=rf"stage 1: .*\b{name}\b"):
        PipelineSpec([{"op": op, name: value}])
    with pytest.raises(ValueError, match=rf"^{name} must be"):
        library(img, value)


# (op, its file key, contents of a bad file): each file is refused when the
# stage is built.
BAD_FILES = [
    ("lut", "table", b" ".join([b"0"] * 255)),
    ("convolve", "kernel", b"2 2\n1 1\n1 1\n"),
    ("add", "image", b"P9\nnot a pgm\n"),
]


@pytest.mark.parametrize("op,key,contents", BAD_FILES, ids=[case[0] for case in BAD_FILES])
def test_filter_and_its_pipeline_report_the_same_first_error(tmp_path, capsys, op, key,
                                                             contents):
    # The input is missing too: both surfaces build every stage first, so
    # both report the stage file, not the input.
    bad, spec = tmp_path / "bad", tmp_path / "spec.json"
    bad.write_bytes(contents)
    spec.write_text(json.dumps({"stages": [{"op": op, key: str(bad)}]}))
    flag = "-j" if op == "add" else f"--{key}"
    io = ["-i", str(tmp_path / "missing.pgm"), "-o", str(tmp_path / "out.pgm")]
    reports = []
    for argv in ([op, *io, flag, str(bad)], ["pipeline", *io, "--spec", str(spec)]):
        code = run_cli(argv)
        reports.append((code, capsys.readouterr().err.replace(f"stage 1 ({op}): ", "")))
    assert reports[0] == reports[1]
    assert reports[0][0] == 2
    assert "missing.pgm" not in reports[0][1]
    assert not (tmp_path / "out.pgm").exists()
