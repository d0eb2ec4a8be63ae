"""grayfilt: spatial-domain filtering for 8-bit grayscale images.

Point transforms, kernel convolution, Laplacian and unsharp sharpening,
binary edge maps, saturating image arithmetic, shadow relief effects, and
gray-level histograms, with bit-exact PGM I/O and a composable CLI.

The public names below load on first use (PEP 562): ``import grayfilt``
imports no numpy, so the ``grayfilt`` command can set up the process
before numpy loads.
"""

import importlib

__version__ = "0.1.0"

#: submodule -> the public names it defines.
_EXPORTS = {
    "bench": ("BENCH_SEED", "bench_checksum", "bench_convolve", "bench_image"),
    "convolution": ("LAPLACIAN_EIGHT", "LAPLACIAN_FOUR", "clamp_to_display", "convolve",
                    "correlate", "laplacian", "rot180"),
    "core": ("GRAY_LEVELS", "MAX_GRAY", "BinaryImage", "Histogram", "Image", "Kernel",
             "SignedImage", "clamp_round", "round_half_away"),
    "edges": ("SHADOW_NE_KERNEL", "binarize", "bits_to_image", "edge_map", "edge_points",
              "image_add", "shadow_invert", "shadow_ne"),
    "enhance": ("box_blur", "laplacian_sharpen", "unsharp_mask"),
    "errors": ("DomainError", "FormatError"),
    "histogram": ("compute_histogram", "histogram_csv", "render_histogram"),
    "imgio": ("load_pgm", "parse_kernel", "parse_lut", "read_pgm", "save_pgm", "write_pgm"),
    "pipeline": ("PipelineSpec", "PipelineStage", "parse_pipeline", "run_pipeline"),
    "point_ops": ("apply_lut", "gray_stretch", "negate"),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_OWNER)


def __getattr__(name):
    """Import the submodule that defines ``name``, or the submodule itself,
    and cache the result on the package."""
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_OWNER[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_EXPORTS})
