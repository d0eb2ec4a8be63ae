"""Per-layer timings of grayfilt's public functions, measured in process.

Each figure is the median of three calls, or one call where a single call
takes longer than 0.3 s. Image-sized calls use the seeded 2048x2048 scene;
the P2 codec and the pipeline use a 512x512 scene, because a 4 MP P2 parse
alone takes seconds and the pipeline overhead does not grow with the image.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

import scenes


def _time(fn, *args) -> float:
    """Median seconds per call; a call over 0.3 s is measured once."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        fn(*args)
        times.append(time.perf_counter() - t0)
        if times[0] > 0.3:
            break
    return statistics.median(times)


def measure(g, seed: int, sizes: dict) -> tuple[dict, dict]:
    """({metric name: value} for the named per-layer metrics,
    {kernel name: problem or None} for the workers=1/workers=2 check)."""
    n, m = sizes["big"], sizes["medium"]
    img = g.Image(scenes.scene(scenes.rng_for(seed, 9, 0), n, n))
    other = g.Image(scenes.scene(scenes.rng_for(seed, 9, 1), n, n))
    med = g.Image(scenes.scene(scenes.rng_for(seed, 9, 2), m, m))
    real5 = g.Kernel(scenes.real_kernel(scenes.rng_for(seed, 9, 3))[1])
    table = scenes.lut_table(scenes.rng_for(seed, 9, 4))[1]
    out = {}
    ms = 1e3

    p5, p2 = g.write_pgm(img, "P5"), g.write_pgm(med, "P2")
    out["imgio.read_p5_ms"] = ms * _time(g.read_pgm, p5)
    out["imgio.write_p5_ms"] = ms * _time(g.write_pgm, img, "P5")
    out["imgio.read_p2_ms"] = ms * _time(g.read_pgm, p2)
    out["imgio.write_p2_ms"] = ms * _time(g.write_pgm, med, "P2")
    out["imgio.read_p2_us_per_px"] = out["imgio.read_p2_ms"] * 1e3 / (m * m)

    kernels = {"lap4": (g.LAPLACIAN_FOUR, "replicate"), "lap8_zero": (g.LAPLACIAN_EIGHT, "zero"),
               "shadow": (g.SHADOW_NE_KERNEL, "replicate"),
               "ones9": (g.Kernel(np.ones((9, 9))), "replicate"), "real5": (real5, "replicate")}
    taps = 0
    for name, (kern, border) in kernels.items():
        out[f"convolution.correlate.{name}_ms"] = ms * _time(g.correlate, img, kern, border, 1)
        taps += n * n * kern.coeffs.size
    disagree = {}
    for name in ("ones9", "real5"):
        kern, border = kernels[name]
        out[f"convolution.correlate.{name}_w2_ms"] = ms * _time(g.correlate, img, kern, border, 2)
        one, two = (g.correlate(img, kern, border, w).values.tobytes() for w in (1, 2))
        disagree[name] = None if one == two else "workers=1 and workers=2 outputs differ"
    one = sum(out[f"convolution.correlate.{k}_ms"] for k in ("ones9", "real5"))
    two = sum(out[f"convolution.correlate.{k}_w2_ms"] for k in ("ones9", "real5"))
    out["convolution.workers2_speedup"] = one / two
    w1_ms = sum(out[f"convolution.correlate.{k}_ms"] for k in kernels)
    out["convolution.mtaps_per_s"] = taps / (w1_ms / ms) / 1e6
    lap8 = g.correlate(img, g.LAPLACIAN_EIGHT, "zero")
    out["convolution.clamp_to_display.clamp_ms"] = ms * _time(g.clamp_to_display, lap8, "clamp")
    out["convolution.clamp_to_display.rescale_ms"] = ms * _time(g.clamp_to_display, lap8, "rescale")

    real = g.correlate(img, real5).values
    out["core.clamp_round_ms"] = ms * _time(g.clamp_round, real)
    out["core.round_half_away_ms"] = ms * _time(g.round_half_away, real)
    out["core.signed_image_ms"] = ms * _time(g.SignedImage, real)
    out["core.binary_image_ms"] = ms * _time(g.BinaryImage, (img.pixels >= 128).astype(np.uint8))

    out["enhance.laplacian_sharpen_ms"] = ms * _time(g.laplacian_sharpen, img, "four")
    out["enhance.box_blur_r1_ms"] = ms * _time(g.box_blur, img, 1)
    out["enhance.box_blur_r5_ms"] = ms * _time(g.box_blur, img, 5)
    out["enhance.unsharp_mask_ms"] = ms * _time(g.unsharp_mask, img, 1)
    out["enhance.blur_radius_cost_ratio"] = out["enhance.box_blur_r5_ms"] / out["enhance.box_blur_r1_ms"]

    bits = g.binarize(img, 128)
    out["edges.binarize_ms"] = ms * _time(g.binarize, img, 128)
    out["edges.edge_points_ms"] = ms * _time(g.edge_points, bits)
    out["edges.shadow_ne_ms"] = ms * _time(g.shadow_ne, img)
    out["edges.image_add_ms"] = ms * _time(g.image_add, img, other)

    out["point_ops.negate_ms"] = ms * _time(g.negate, img)
    out["point_ops.gray_stretch_ms"] = ms * _time(g.gray_stretch, img, 2.0)
    out["point_ops.apply_lut_ms"] = ms * _time(g.apply_lut, img, table)

    hist = g.compute_histogram(img)
    out["histogram.compute_ms"] = ms * _time(g.compute_histogram, img)
    out["histogram.csv_ms"] = ms * _time(g.histogram_csv, hist)
    out["histogram.render_ms"] = ms * _time(g.render_histogram, hist)

    text = scenes.pipeline_spec([{"op": "sharpen"}, {"op": "unsharp", "radius": 2},
                                 {"op": "edges", "threshold": 128}])
    spec = g.parse_pipeline(text)

    def by_hand(im):
        im = g.unsharp_mask(g.laplacian_sharpen(im, "four"), 2, "clamp")
        return g.bits_to_image(g.edge_points(g.binarize(im, 128)))

    out["pipeline.parse_ms"] = ms * _time(g.parse_pipeline, text)
    runs, diffs = [], []
    for _ in range(5):
        t0 = time.perf_counter()
        g.run_pipeline(spec, med)
        t1 = time.perf_counter()
        by_hand(med)
        t2 = time.perf_counter()
        runs.append(t1 - t0)
        diffs.append((t1 - t0) - (t2 - t1))
    out["pipeline.run_ms"] = ms * statistics.median(runs)
    out["pipeline.overhead_ms"] = ms * statistics.median(diffs)
    return out, disagree
