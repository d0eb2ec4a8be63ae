"""Micro-benchmark for the correlation engine.

The input image is regenerated from a fixed seed on every run and the report
carries an integer checksum of the final output, so any two runs with the
same parameters are directly comparable (and must agree exactly, regardless
of worker count).
"""

from __future__ import annotations

import time

import numpy as np

from .convolution import correlate
from .core import Image, Kernel, SignedImage
from .kinds import BENCH_ITERS, BENCH_KSIZE, BENCH_SIZE

#: Seed for the deterministic benchmark input.
BENCH_SEED = 0xC0FFEE


def bench_image(size: int) -> Image:
    """Deterministic pseudorandom size x size image from the fixed seed."""
    rng = np.random.default_rng(BENCH_SEED)
    return Image(rng.integers(0, 256, size=(size, size), dtype=np.uint8))


def bench_checksum(out: SignedImage) -> int:
    """Integer sum of all output values; exact for the ones-kernel bench.
    Integer values are summed in int64, which numpy 1.x on Windows would not
    choose for int32."""
    return int(out.values.sum(dtype=np.promote_types(out.values.dtype, np.int64)))


def bench_convolve(size: int, ksize: int, iters: int, workers: int = 1) -> str:
    """Correlate the seeded image with a ksize x ksize ones kernel `iters`
    times; report min/median wall time, throughput in millions of
    kernel-tap multiply-adds per second, and the output checksum."""
    size = BENCH_SIZE.check(size, "size")
    ksize = BENCH_KSIZE.check(ksize, "ksize")
    iters = BENCH_ITERS.check(iters, "iters")

    import statistics  # here, not at module level: keeps it off CLI start-up

    img = bench_image(size)
    kern = Kernel(np.ones((ksize, ksize)))
    times = []
    out = None
    for _ in range(iters):
        start = time.perf_counter()
        out = correlate(img, kern, "replicate", workers)
        times.append(time.perf_counter() - start)

    best = min(times)
    ops = size * size * ksize * ksize
    mkops = ops / max(best, 1e-9) / 1e6
    lines = [
        f"bench convolve: size={size} ksize={ksize} iters={iters} workers={workers}",
        f"min={best:.6f}s median={statistics.median(times):.6f}s throughput={mkops:.2f} Mkops/s",
        f"checksum={bench_checksum(out)}",
    ]
    return "\n".join(lines) + "\n"
