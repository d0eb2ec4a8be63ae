"""The filter ops, declared once, and named chains of them.

:data:`OPS` declares each filter op once; the CLI subcommands and the
pipeline stages are both generated from it. A pipeline spec is an ordered
list of stages, each an op name plus its parameters. Every op name and
parameter is checked (and every referenced file loaded) before the first
stage executes, so a bad spec never half-processes an image. Running a spec
is bit-identical to composing the corresponding library calls by hand.

A point op builds a 256-byte table, and a run of them composes to one; any
other op a :class:`Step`. One builder, :func:`_kernel_step`, maps each kernel
op's stencil, bias, border and display to both engines; its clamp display of
a built-in stencil under the replicate border, ``edges`` and ``add`` also
have an exact numpy-free form (:mod:`grayfilt._swar`).
On numpy ``edges`` is the library chain ``binarize``, ``edge_points``, ``bits_to_image``.
This module alone knows both engines: :func:`run_pipeline` runs every stage
on numpy, and the CLI runs :func:`_run_raster` and :func:`_histogram`, bytes
first, which fall back to numpy above a bytes form's cut.
"""

from __future__ import annotations

from collections import namedtuple

# The builders reach the engine through the package's lazy exports (PEP 562),
# so the op table, and a CLI parser built from it, loads no numpy.
import grayfilt as api

from . import _bytes, _swar
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
)


class Param(namedtuple("Param", "name kind default help flags metavar",
                       defaults=(None, None, (), None))):
    """One op or CLI parameter. ``name`` is the JSON key and the CLI
    destination; a ``default`` of None makes it required, and a path that
    may be left out defaults to False; ``flags`` overrides the CLI spelling ``--<name>``."""

    __slots__ = ()

    @property
    def required(self) -> bool:
        return self.default is None

    @property
    def cli_flags(self) -> tuple:
        return self.flags or (f"--{self.name}",)


class Op(namedtuple("Op", "help params build")):
    """A filter op: help line, parameters, and a builder that takes the
    canonical parameters, loads any referenced file, and returns the step:
    its 256-byte table for a point op (:mod:`grayfilt._bytes`), else a :class:`Step`."""

    __slots__ = ()


class Step(namedtuple("Step", "image raster", defaults=(lambda width, height, raster: None,))):
    """A step with two forms: calling it runs ``image``, Image -> Image, on
    numpy; ``raster(width, height, raster)`` gives its output raster without
    numpy, or None above its cut (:mod:`grayfilt._swar`) or, by default, always."""

    __slots__ = ()

    def __call__(self, img: Image) -> Image:
        return self.image(img)


def _kernel_step(stencil, bias=0, border="replicate", display="clamp"):
    """The :class:`Step` of a kernel op, the ``display`` of ``bias`` plus the
    image correlated with ``stencil`` under ``border``. Only a clamp of a
    built-in stencil, an integer tuple, under the replicate border has a
    bytes form: a kernel file's float64 coefficients stay on numpy."""
    if display == "rescale":
        return Step(lambda img: api.clamp_to_display(
            api.convolution._correlate_strips(img, stencil, border), "rescale"))
    step = Step(lambda img: api.convolution._correlate_strips(img, stencil, border, bias))
    if isinstance(stencil, tuple) and border == "replicate":
        step = step._replace(raster=lambda width, height, raster: _swar.correlate_clamp(
            width, height, raster, stencil, bias))
    return step


def _add_step(p):
    # The second image is decoded now, as every stage's files are loaded
    # before the input is read, and wrapped for numpy only if numpy runs.
    second = _bytes.load_pgm(p["image"])
    return Step(lambda img: api.image_add(img, api.imgio._image(*second)),
                lambda width, height, raster: _swar.add(width, height, raster, second))


_VARIANT = Param("variant", VARIANT, "four")
_DISPLAY = Param("display", DISPLAY, "clamp")

#: op name -> Op, in CLI listing order.
OPS = {
    "negate": Op("photographic negative (255 - pixel)", (), lambda p: _bytes.NEGATE_TABLE),
    "stretch": Op(
        "power-law gray stretch: compress low end, expand high end",
        (Param("gamma", POSITIVE_FLOAT, 2.0, "exponent; > 1 darkens midtones (default 2.0)"),),
        lambda p: _bytes.stretch_table(p["gamma"])),
    "lut": Op(
        "remap pixels through a 256-entry lookup table",
        (Param("table", PATH, help="text file with 256 whitespace-separated entries in [0, 255]",
               metavar="FILE"),),
        lambda p: _bytes.parse_lut(_bytes.load_text(p["table"]))),
    "laplacian": Op(
        "second-derivative filter (display-mapped)",
        (_VARIANT._replace(help="4- or 8-neighbor stencil (default four)"),
         _DISPLAY._replace(help="how to map signed output to gray levels (default clamp)")),
        lambda p: _kernel_step(_swar.LAPLACIANS[p["variant"]], display=p["display"])),
    "sharpen": Op(
        "Laplacian sharpening: clamp(f - laplacian(f))", (_VARIANT,),
        lambda p: _kernel_step(_swar.SHARPEN[p["variant"]])),
    "unsharp": Op(
        "unsharp masking: f minus a box-blurred copy of f",
        (Param("radius", POSITIVE_INT, 1, "blur window radius (default 1 = 3x3)"), _DISPLAY),
        lambda p: Step(lambda img: api.unsharp_mask(img, p["radius"], p["display"]))),
    "convolve": Op(
        "convolve with a kernel from a text file",
        (Param("kernel", PATH, help="kernel file: 'kheight kwidth' line, then coefficient rows",
               metavar="FILE"),
         Param("border", BORDER, "replicate"), _DISPLAY),
        lambda p: _kernel_step(api.rot180(api.parse_kernel(_bytes.load_text(p["kernel"]))).coeffs,
                               border=p["border"], display=p["display"])),
    "binarize": Op(
        "threshold to a 0/255 image",
        (Param("threshold", THRESHOLD, 128, "pixels >= threshold become 255 (default 128)"),),
        lambda p: _bytes.binarize_table(p["threshold"])),
    "edges": Op(
        "binary edge points (threshold, then XOR neighbor rule), rendered 0/255",
        (Param("threshold", THRESHOLD, 128),),
        lambda p: Step(
            lambda img: api.bits_to_image(api.edge_points(api.binarize(img, p["threshold"]))),
            lambda width, height, raster: _swar.edge_points(width, height, raster,
                                                             p["threshold"]))),
    "add": Op(
        "saturating pixelwise sum of two images",
        (Param("image", PATH, help="second input image (same dimensions)",
               flags=("-j", "--second"), metavar="PGM"),),
        _add_step),
    "shadow": Op(
        "relief shadow on northeastern edge sides",
        (Param("invert", FLAG, False, "negate the shadow rendering"),),
        lambda p: (_kernel_step(_swar.SHADOW_SW, _swar.SHADOW_SW_BIAS) if p["invert"]
                   else _kernel_step(_swar.SHADOW_NE, _swar.SHADOW_BIAS))),
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
            if p.name not in params and p.required:
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
    except ValueError:  # int() refused a number past Python's digit limit
        raise FormatError("pipeline spec holds an integer with too many digits") from None
    except RecursionError:
        raise FormatError("pipeline spec is nested too deeply to parse") from None
    if not isinstance(doc, dict) or not isinstance(doc.get("stages"), list):
        raise FormatError('pipeline spec must be an object with a "stages" list')
    return PipelineSpec(doc["stages"])


def _compile(spec: PipelineSpec) -> list:
    """Build every stage, in order, as [(label, table or step)]. Each run of
    table stages becomes one composed table, which is exact."""
    compiled = []
    for idx, stage in enumerate(spec.stages, start=1):
        label = f"stage {idx} ({stage.op}): "
        try:
            built = OPS[stage.op].build(stage.params)
        except FormatError as exc:
            raise FormatError(f"{label}{exc}") from None
        if isinstance(built, bytes) and compiled and isinstance(compiled[-1][1], bytes):
            built = compiled.pop()[1].translate(built)
        compiled.append((label, built))
    return compiled


def _apply(compiled: list, img: Image) -> Image:
    """Run compiled stages on ``img`` with the numpy engine."""
    for label, built in compiled:
        try:
            img = api.point_ops._apply_table(img, built) if isinstance(built, bytes) else built(img)
        except DomainError as exc:
            raise DomainError(f"{label}{exc}") from None
    return img


def _run_raster(compiled: list, width: int, height: int, raster: bytes):
    """The output raster of compiled stages run on a decoded image, bytes
    first: a table is one ``bytes.translate`` and a :class:`Step` runs its
    numpy-free form. At the first stage whose form gives None (it has none,
    or its input is above its cut), the raster is wrapped once, without a
    copy, as an Image, and that stage and the rest run on numpy
    (:func:`_apply`); the output is then a memoryview of numpy's output
    pixels, not a copy. So a small image through table, sharpen, laplacian,
    shadow, edges and add stages loads no numpy at all."""
    for k, (label, built) in enumerate(compiled):
        try:
            out = (raster.translate(built) if isinstance(built, bytes) else
                   built.raster(width, height, raster))
        except DomainError as exc:
            raise DomainError(f"{label}{exc}") from None
        if out is None:
            return _apply(compiled[k:], api.imgio._image(width, height, raster)).pixels.ravel().data
        raster = out
    return raster


def _histogram(width: int, height: int, raster: bytes) -> list:
    """The count of each gray level of a decoded image, bytes first: above
    the cut of :func:`grayfilt._swar.histogram`, numpy counts the wrapped raster."""
    return (_swar.histogram(raster)
            or api.compute_histogram(api.imgio._image(width, height, raster)).bins.tolist())


def run_pipeline(spec: PipelineSpec, img: Image) -> Image:
    """Apply every stage in order. All stages are compiled (including any
    referenced files being loaded and parsed) before stage 1 runs; a domain
    error during execution is re-raised with its 1-based stage index."""
    return _apply(_compile(spec), img)
