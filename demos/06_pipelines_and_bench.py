"""
Pipelines and the benchmark
===========================

Filter chains described as JSON, validated fully before anything runs, and
bit-identical to composing the library calls by hand. Plus the seeded
convolution micro-benchmark whose checksum pins down determinism.

    python3 demos/06_pipelines_and_bench.py

Every pipeline here has a CLI equivalent, e.g.:

    grayfilt pipeline -i scan.pgm -o out.pgm --spec chain.json
    grayfilt bench --size 256 --ksize 3 --iters 5
"""

import json
import os

import numpy as np

from grayfilt import (
    FormatError,
    Image,
    PipelineSpec,
    bench_convolve,
    binarize,
    bits_to_image,
    edge_points,
    image_add,
    parse_pipeline,
    run_pipeline,
    save_pgm,
)

OUT = os.path.join(os.path.dirname(__file__), "output")
os.makedirs(OUT, exist_ok=True)

rng = np.random.default_rng(7)
scan = Image(rng.integers(10, 220, size=(64, 64)).astype(np.uint8))
scan_path = os.path.join(OUT, "pipeline_input.pgm")
save_pgm(scan_path, scan)

# 1. The edge-overlay chain as a spec: threshold to bits, keep the dark-side
#    edge points rendered at 255, then saturating-add the original back in.
chain = {"stages": [
    {"op": "edges", "threshold": 128},
    {"op": "add", "image": scan_path},
]}
spec_path = os.path.join(OUT, "chain.json")
with open(spec_path, "w") as fh:
    json.dump(chain, fh, indent=2)

piped = run_pipeline(parse_pipeline(open(spec_path).read()), scan)
by_hand = image_add(bits_to_image(edge_points(binarize(scan, 128))), scan)
print("pipeline equals hand-written composition:", piped == by_hand)
save_pgm(os.path.join(OUT, "pipeline_output.pgm"), piped)

# 2. Validation is all-or-nothing: a bad stage anywhere rejects the spec
#    before stage 1 touches a pixel.
try:
    PipelineSpec([{"op": "negate"}, {"op": "sobel"}])
except FormatError as exc:
    print("rejected before running:", exc)

# 3. The benchmark: a seeded random image correlated with a ones kernel.
#    Same parameters always give the same checksum, whatever the timings
#    or the worker count, so regressions in numerics cannot hide. (Workers
#    share the rows in strips of 65536 pixels, so this 128x128 image is one
#    strip and runs on one thread; the checksum must agree either way.)
print()
print(bench_convolve(size=128, ksize=3, iters=3), end="")
print(bench_convolve(size=128, ksize=3, iters=3, workers=2), end="")
