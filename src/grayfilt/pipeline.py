"""The filter ops, declared once, and named chains of them.

:data:`OPS` declares each filter op once; the CLI subcommands and the
pipeline stages are both generated from it. A pipeline spec is an ordered
list of stages, each an op name plus its parameters. Every op name and
parameter is checked (and every referenced file loaded) before the first
stage executes, so a bad spec never half-processes an image. Running a spec
is bit-identical to composing the corresponding library calls by hand.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, NamedTuple

# The builders reach the engine through the package's lazy exports (PEP 562),
# so the op table, and a CLI parser built from it, loads no numpy.
import grayfilt as api

from .errors import DomainError, FormatError
from .kinds import (
    BORDER,
    DISPLAY,
    FLAG,
    PATH,
    POSITIVE_FLOAT,
    POSITIVE_INT,
    THRESHOLD,
    VARIANT,
    Kind,
)

if TYPE_CHECKING:
    from .core import Image


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
    table = api.parse_lut(api.imgio.load_text(p["table"]))
    return lambda img: api.apply_lut(img, table)


def _convolve_step(p):
    kern = api.parse_kernel(api.imgio.load_text(p["kernel"]))
    return lambda img: api.convolution._convolve_display(img, kern, p["border"], p["display"])


def _add_step(p):
    second = api.load_pgm(p["image"])
    return lambda img: api.image_add(img, second)


_VARIANT = Param("variant", VARIANT, "four")
_DISPLAY = Param("display", DISPLAY, "clamp")

#: op name -> Op, in CLI listing order.
OPS = {
    "negate": Op("photographic negative (255 - pixel)", (), lambda p: api.negate),
    "stretch": Op(
        "power-law gray stretch: compress low end, expand high end",
        (Param("gamma", POSITIVE_FLOAT, 2.0, "exponent; > 1 darkens midtones (default 2.0)"),),
        lambda p: lambda img: api.gray_stretch(img, p["gamma"])),
    "lut": Op(
        "remap pixels through a 256-entry lookup table",
        (Param("table", PATH, help="text file with 256 whitespace-separated entries in [0, 255]",
               metavar="FILE"),),
        _lut_step),
    "laplacian": Op(
        "second-derivative filter (display-mapped)",
        (_VARIANT._replace(help="4- or 8-neighbor stencil (default four)"),
         _DISPLAY._replace(help="how to map signed output to gray levels (default clamp)")),
        lambda p: lambda img: api.convolution._laplacian_display(img, p["variant"], p["display"])),
    "sharpen": Op(
        "Laplacian sharpening: clamp(f - laplacian(f))", (_VARIANT,),
        lambda p: lambda img: api.laplacian_sharpen(img, p["variant"])),
    "unsharp": Op(
        "unsharp masking: f minus a box-blurred copy of f",
        (Param("radius", POSITIVE_INT, 1, "blur window radius (default 1 = 3x3)"), _DISPLAY),
        lambda p: lambda img: api.unsharp_mask(img, p["radius"], p["display"])),
    "convolve": Op(
        "convolve with a kernel from a text file",
        (Param("kernel", PATH, help="kernel file: 'kheight kwidth' line, then coefficient rows",
               metavar="FILE"),
         Param("border", BORDER, "replicate"), _DISPLAY),
        _convolve_step),
    "binarize": Op(
        "threshold to a 0/255 image",
        (Param("threshold", THRESHOLD, 128, "pixels >= threshold become 255 (default 128)"),),
        lambda p: lambda img: api.bits_to_image(api.binarize(img, p["threshold"]))),
    "edges": Op(
        "binary edge points (threshold, then XOR neighbor rule), rendered 0/255",
        (Param("threshold", THRESHOLD, 128),),
        lambda p: lambda img: api.bits_to_image(
            api.edge_points(api.binarize(img, p["threshold"])))),
    "add": Op(
        "saturating pixelwise sum of two images",
        (Param("image", PATH, help="second input image (same dimensions)",
               flags=("-j", "--second"), metavar="PGM"),),
        _add_step),
    "shadow": Op(
        "relief shadow on northeastern edge sides",
        (Param("invert", FLAG, False, "negate the shadow rendering"),),
        lambda p: api.shadow_invert if p["invert"] else api.shadow_ne),
}


class PipelineStage:
    """One validated stage: an op name and its canonical parameters."""

    __slots__ = ("op", "params")

    def __init__(self, op, params):
        if op not in OPS:
            raise FormatError(f"unknown op {op!r}; known ops: {', '.join(sorted(OPS))}")
        declared = OPS[op].params
        unknown = set(params) - {p.name for p in declared}
        if unknown:
            raise FormatError(f"op {op!r} does not take parameter(s) {sorted(unknown)}")
        canonical = {}
        for p in declared:
            if p.name not in params and p.default is None:
                raise FormatError(f"op {op!r} requires parameter {p.name!r}")
            try:
                canonical[p.name] = p.kind.check(params.get(p.name, p.default), p.name)
            except ValueError as exc:
                raise FormatError(f"op {op!r}: {exc}") from None
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
    import json  # here, not at module level: keeps it off CLI start-up

    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"pipeline spec is not valid JSON: {exc}") from None
    except RecursionError:
        raise FormatError("pipeline spec is nested too deeply to parse") from None
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
