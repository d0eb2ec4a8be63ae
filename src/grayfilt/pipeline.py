"""The filter ops, declared once, and named chains of them.

:data:`OPS` declares each filter op once; the CLI subcommands and the
pipeline stages are both generated from it. A pipeline spec is an ordered
list of stages, each an op name plus its parameters. Every op name and
parameter is checked (and every referenced file loaded) before the first
stage executes, so a bad spec never half-processes an image. Running a spec
is bit-identical to composing the corresponding library calls by hand.
"""

from __future__ import annotations

import json
import sys
from typing import Callable, NamedTuple

from .convolution import clamp_to_display, convolve, laplacian
from .core import Image
from .edges import binarize, bits_to_image, edge_points, image_add, shadow_invert, shadow_ne
from .enhance import laplacian_sharpen, unsharp_mask
from .errors import DomainError, FormatError
from .imgio import load_pgm, load_text, parse_kernel, parse_lut
from .point_ops import apply_lut, gray_stretch, negate

class Kind(NamedTuple):
    """A parameter kind. ``check`` is its one validator: it takes a value
    (from JSON, or CLI text converted by ``parse``) and returns it canonical
    or raises FormatError. ``choices`` lists the values of a choice kind."""

    check: Callable[[object], object]
    parse: Callable[[str], object] = str
    choices: tuple = ()


def _must(ok: bool, what: str, value):
    if not ok:
        raise FormatError(f"must be {what}, got {value!r}")
    return value


POSITIVE_INT = Kind(lambda v: _must(type(v) is int and v >= 1, "a positive integer", v), int)
THRESHOLD = Kind(lambda v: _must(type(v) is int and 0 <= v <= 255, "an integer in [0, 255]", v),
                 int)
# The upper bound also rejects NaN and integers too large for a float.
POSITIVE_FLOAT = Kind(lambda v: float(_must(
    not isinstance(v, bool) and isinstance(v, (int, float)) and 0 < v <= sys.float_info.max,
    "a finite positive number", v)), float)
PATH = Kind(lambda v: _must(isinstance(v, str) and v != "", "a file path", v))
FLAG = Kind(lambda v: _must(isinstance(v, bool), "true or false", v))


def choice(*options: str) -> Kind:
    """The kind whose values are exactly ``options``."""
    return Kind(lambda v: _must(v in options, f"one of {options}", v), choices=options)


class Param(NamedTuple):
    """One op parameter. ``name`` is the JSON key and the CLI destination; a
    ``default`` of None makes it required; ``flags`` overrides the CLI
    spelling ``--<name>``."""

    name: str
    kind: Kind
    default: object = None
    help: str | None = None
    flags: tuple = ()
    metavar: str | None = None


class Op(NamedTuple):
    """A filter op: help line, parameters, and a builder that takes the
    canonical parameters, loads any referenced file, and returns the step."""

    help: str
    params: tuple
    build: Callable[[dict], Callable[[Image], Image]]


def _lut_step(p):
    table = parse_lut(load_text(p["table"]))
    return lambda img: apply_lut(img, table)


def _convolve_step(p):
    kern = parse_kernel(load_text(p["kernel"]))
    return lambda img: clamp_to_display(convolve(img, kern, p["border"]), p["display"])


def _add_step(p):
    second = load_pgm(p["image"])
    return lambda img: image_add(img, second)


_VARIANT = Param("variant", choice("four", "eight"), "four")
_DISPLAY = Param("display", choice("clamp", "rescale"), "clamp")

#: op name -> Op, in CLI listing order.
OPS = {
    "negate": Op("photographic negative (255 - pixel)", (), lambda p: negate),
    "stretch": Op(
        "power-law gray stretch: compress low end, expand high end",
        (Param("gamma", POSITIVE_FLOAT, 2.0, "exponent; > 1 darkens midtones (default 2.0)"),),
        lambda p: lambda img: gray_stretch(img, p["gamma"])),
    "lut": Op(
        "remap pixels through a 256-entry lookup table",
        (Param("table", PATH, help="text file with 256 whitespace-separated entries in [0, 255]",
               metavar="FILE"),),
        _lut_step),
    "laplacian": Op(
        "second-derivative filter (display-mapped)",
        (_VARIANT._replace(help="4- or 8-neighbor stencil (default four)"),
         _DISPLAY._replace(help="how to map signed output to gray levels (default clamp)")),
        lambda p: lambda img: clamp_to_display(laplacian(img, p["variant"]), p["display"])),
    "sharpen": Op(
        "Laplacian sharpening: clamp(f - laplacian(f))", (_VARIANT,),
        lambda p: lambda img: laplacian_sharpen(img, p["variant"])),
    "unsharp": Op(
        "unsharp masking: f minus a box-blurred copy of f",
        (Param("radius", POSITIVE_INT, 1, "blur window radius (default 1 = 3x3)"), _DISPLAY),
        lambda p: lambda img: unsharp_mask(img, p["radius"], p["display"])),
    "convolve": Op(
        "convolve with a kernel from a text file",
        (Param("kernel", PATH, help="kernel file: 'kheight kwidth' line, then coefficient rows",
               metavar="FILE"),
         Param("border", choice("replicate", "zero"), "replicate"), _DISPLAY),
        _convolve_step),
    "binarize": Op(
        "threshold to a 0/255 image",
        (Param("threshold", THRESHOLD, 128, "pixels >= threshold become 255 (default 128)"),),
        lambda p: lambda img: bits_to_image(binarize(img, p["threshold"]))),
    "edges": Op(
        "binary edge points (threshold, then XOR neighbor rule), rendered 0/255",
        (Param("threshold", THRESHOLD, 128),),
        lambda p: lambda img: bits_to_image(edge_points(binarize(img, p["threshold"])))),
    "add": Op(
        "saturating pixelwise sum of two images",
        (Param("image", PATH, help="second input image (same dimensions)",
               flags=("-j", "--second"), metavar="PGM"),),
        _add_step),
    "shadow": Op(
        "relief shadow on northeastern edge sides",
        (Param("invert", FLAG, False, "negate the shadow rendering"),),
        lambda p: shadow_invert if p["invert"] else shadow_ne),
}


class PipelineStage:
    """One validated stage: an op name and its canonical parameters."""

    __slots__ = ("op", "params")

    def __init__(self, op, params):
        if op not in OPS:
            raise FormatError(f"unknown op {op!r}; known ops: {', '.join(sorted(OPS))}")
        declared = OPS[op].params
        unknown = set(params) - {param.name for param in declared}
        if unknown:
            raise FormatError(f"op {op!r} does not take parameter(s) {sorted(unknown)}")
        canonical = {}
        for param in declared:
            if param.name not in params and param.default is None:
                raise FormatError(f"op {op!r} requires parameter {param.name!r}")
            try:
                canonical[param.name] = param.kind.check(params.get(param.name, param.default))
            except FormatError as exc:
                raise FormatError(f"op {op!r}: {param.name} {exc}") from None
        self.op = op
        self.params = canonical

    def __repr__(self):
        return f"PipelineStage({self.op!r}, {self.params!r})"


class PipelineSpec:
    """An ordered, non-empty list of stages built from stage mappings of the
    form {"op": name, <param>: <value>, ...}."""

    __slots__ = ("stages",)

    def __init__(self, stages):
        built = []
        for idx, raw in enumerate(stages, start=1):
            if not isinstance(raw, dict):
                raise FormatError(f"stage {idx}: expected an object, got {type(raw).__name__}")
            raw = dict(raw)
            op = raw.pop("op", None)
            if not isinstance(op, str):
                raise FormatError(f"stage {idx}: missing or non-string 'op'")
            try:
                built.append(PipelineStage(op, raw))
            except FormatError as exc:
                raise FormatError(f"stage {idx}: {exc}") from None
        if not built:
            raise FormatError("pipeline must have at least one stage")
        self.stages = tuple(built)

    def __len__(self):
        return len(self.stages)

    def __repr__(self):
        return f"PipelineSpec({[s.op for s in self.stages]})"


def parse_pipeline(text: str) -> PipelineSpec:
    """Parse the JSON spec format: {"stages": [{"op": ..., ...}, ...]}."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"pipeline spec is not valid JSON: {exc}") from None
    if not isinstance(doc, dict) or not isinstance(doc.get("stages"), list):
        raise FormatError('pipeline spec must be an object with a "stages" list')
    return PipelineSpec(doc["stages"])


def run_pipeline(spec: PipelineSpec, img: Image) -> Image:
    """Apply every stage in order. All stages are compiled (including any
    referenced files being loaded and parsed) before stage 1 runs; a domain
    error during execution is re-raised with its 1-based stage index."""
    compiled = []
    for idx, stage in enumerate(spec.stages, start=1):
        try:
            compiled.append(OPS[stage.op].build(stage.params))
        except FormatError as exc:
            raise FormatError(f"stage {idx} ({stage.op}): {exc}") from None
    current = img
    for idx, (stage, fn) in enumerate(zip(spec.stages, compiled), start=1):
        try:
            current = fn(current)
        except DomainError as exc:
            raise DomainError(f"stage {idx} ({stage.op}): {exc}") from None
    return current
