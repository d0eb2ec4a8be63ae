"""Acceptance suite: every contract-level criterion as one timed test.

Each test prints an "ACCEPTANCE <n> PASS/FAIL" line (visible with -s) and
fails if its wall-clock budget is exceeded. All randomness is seeded, all
equality checks are exact.
"""

import functools
import os
import re
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

import grayfilt._bytes
from grayfilt import (
    Image,
    Kernel,
    PipelineSpec,
    apply_lut,
    bench_convolve,
    binarize,
    bits_to_image,
    box_blur,
    clamp_to_display,
    compute_histogram,
    convolve,
    correlate,
    edge_map,
    edge_points,
    gray_stretch,
    image_add,
    laplacian,
    laplacian_sharpen,
    negate,
    read_pgm,
    render_histogram,
    rot180,
    run_pipeline,
    save_pgm,
    shadow_invert,
    shadow_ne,
    unsharp_mask,
    write_pgm,
)

from support import (
    correlate_brute,
    edge_map_brute,
    edge_points_brute,
    laplacian_interior_brute,
    rand_bits,
    rand_image,
    rand_kernel,
)


def criterion(num, desc, budget_s):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                fn(*args, **kwargs)
            except BaseException:
                elapsed = time.perf_counter() - start
                print(f"ACCEPTANCE {num:2d} FAIL {desc} [{elapsed:.2f}s]")
                raise
            elapsed = time.perf_counter() - start
            in_budget = elapsed < budget_s
            verdict = "PASS" if in_budget else "FAIL"
            print(f"ACCEPTANCE {num:2d} {verdict} {desc} "
                  f"[{elapsed:.2f}s, budget {budget_s:g}s]")
            assert in_budget, f"criterion {num} took {elapsed:.2f}s, budget {budget_s:g}s"
        return wrapper
    return decorate


@criterion(1, "negate involution and negation-LUT equivalence", 5.0)
def test_criterion_01_involution_and_lut():
    rng = np.random.default_rng(1001)
    table = 255 - np.arange(256)
    for _ in range(1000):
        img = rand_image(rng, max_side=64)
        assert negate(negate(img)) == img
        assert apply_lut(img, table) == negate(img)


@criterion(2, "negation reverses the histogram", 1.0)
def test_criterion_02_histogram_reversal():
    rng = np.random.default_rng(1002)
    for _ in range(100):
        img = rand_image(rng, max_side=32)
        forward = compute_histogram(img).bins
        reversed_ = compute_histogram(negate(img)).bins
        assert np.array_equal(reversed_, forward[::-1])


@criterion(3, "convolve(f, w) == correlate(f, rot180(w)) bit-exactly", 10.0)
def test_criterion_03_rotation_identity():
    rng = np.random.default_rng(1003)
    for _ in range(1000):
        img = rand_image(rng, max_side=16)
        k = Kernel(rand_kernel(rng, sizes=(1, 3, 5)))
        assert convolve(img, k) == correlate(img, rot180(k))


@criterion(4, "Laplacian: zero on constants, stencil impulse, oracle match", 5.0)
def test_criterion_04_laplacian():
    rng = np.random.default_rng(1004)
    for variant in ("four", "eight"):
        for _ in range(10):
            value = int(rng.integers(0, 256))
            flat = Image(np.full((int(rng.integers(1, 20)), int(rng.integers(1, 20))),
                                 value, dtype=np.uint8))
            assert np.all(laplacian(flat, variant).values == 0.0)

    impulse = np.zeros((5, 5), dtype=np.uint8)
    impulse[2, 2] = 100
    four = laplacian(Image(impulse), "four").values
    assert four[2, 2] == -400
    assert four[1, 2] == four[3, 2] == four[2, 1] == four[2, 3] == 100
    assert four[1, 1] == 0
    eight = laplacian(Image(impulse), "eight").values
    assert eight[2, 2] == -800
    assert eight[1, 1] == eight[1, 3] == eight[3, 1] == eight[3, 3] == 100

    for _ in range(100):
        img = Image(rng.integers(0, 256, (16, 16), np.uint8))
        pixels = img.pixels.tolist()
        for variant in ("four", "eight"):
            out = laplacian(img, variant).values
            expected = laplacian_interior_brute(pixels, variant)
            for y in range(1, 15):
                for x in range(1, 15):
                    assert out[y, x] == expected[y][x]


@criterion(5, "f - laplacian(f) equals the composite sharpening kernel pre-clamp", 5.0)
def test_criterion_05_composite_identity():
    rng = np.random.default_rng(1005)
    composite = Kernel([[0, -1, 0], [-1, 5, -1], [0, -1, 0]])
    for _ in range(1000):
        img = rand_image(rng, max_side=16)
        direct = img.pixels.astype(np.float64) - laplacian(img, "four").values
        assert np.array_equal(direct, correlate(img, composite).values)


@criterion(6, "unsharp mask: constants to zero, worked 1x3 example", 1.0)
def test_criterion_06_unsharp():
    rng = np.random.default_rng(1006)
    for _ in range(50):
        value = int(rng.integers(0, 256))
        h, w = int(rng.integers(1, 12)), int(rng.integers(1, 12))
        flat = Image(np.full((h, w), value, dtype=np.uint8))
        assert np.all(unsharp_mask(flat, radius=1).pixels == 0)
    assert unsharp_mask(Image([[0, 255, 0]]), radius=1).pixels.tolist() == [[0, 170, 0]]


@criterion(7, "edge map and edge points match the brute-force scan", 5.0)
def test_criterion_07_edge_oracle():
    rng = np.random.default_rng(1007)
    for _ in range(1000):
        u = rand_bits(rng, max_side=16)
        bits = u.bits.tolist()
        assert edge_map(u).bits.tolist() == edge_map_brute(bits)
        assert edge_points(u).bits.tolist() == edge_points_brute(bits)


@criterion(8, "saturating addition: commutative, zero identity, clamped", 2.0)
def test_criterion_08_saturating_add():
    rng = np.random.default_rng(1008)
    for _ in range(1000):
        a = rand_image(rng, max_side=16)
        b = Image(rng.integers(0, 256, a.pixels.shape, np.uint8))
        zero = Image(np.zeros(a.pixels.shape, dtype=np.uint8))
        out = image_add(a, b)
        assert out == image_add(b, a)
        assert image_add(a, zero) == a
        expected = np.minimum(a.pixels.astype(np.uint16) + b.pixels, 255)
        assert np.array_equal(out.pixels, expected.astype(np.uint8))


@criterion(9, "shadow: constants to 128, invert equals negate of shadow", 2.0)
def test_criterion_09_shadow():
    rng = np.random.default_rng(1009)
    for _ in range(100):
        value = int(rng.integers(0, 256))
        h, w = int(rng.integers(1, 16)), int(rng.integers(1, 16))
        flat = Image(np.full((h, w), value, dtype=np.uint8))
        assert np.all(shadow_ne(flat).pixels == 128)
    for _ in range(100):
        img = rand_image(rng, max_side=16)
        assert shadow_invert(img) == negate(shadow_ne(img))


@criterion(10, "PGM round trips and canonical re-writes", 5.0)
def test_criterion_10_pgm_round_trips():
    rng = np.random.default_rng(1010)
    for _ in range(1000):
        img = rand_image(rng, max_side=32)
        for fmt in ("P2", "P5"):
            data = write_pgm(img, fmt)
            back = read_pgm(data)
            assert back == img
            assert write_pgm(back, fmt) == data


def _random_stage(rng, files):
    choice = rng.choice([
        "negate", "stretch", "laplacian", "sharpen", "unsharp",
        "binarize", "edges", "shadow", "lut", "convolve", "add",
    ])
    variant = str(rng.choice(["four", "eight"]))
    display = str(rng.choice(["clamp", "rescale"]))
    if choice == "negate":
        return {"op": "negate"}
    if choice == "stretch":
        return {"op": "stretch", "gamma": round(float(rng.uniform(0.2, 4.0)), 3)}
    if choice == "laplacian":
        return {"op": "laplacian", "variant": variant, "display": display}
    if choice == "sharpen":
        return {"op": "sharpen", "variant": variant}
    if choice == "unsharp":
        return {"op": "unsharp", "radius": int(rng.integers(1, 3)), "display": display}
    if choice == "binarize":
        return {"op": "binarize", "threshold": int(rng.integers(0, 256))}
    if choice == "edges":
        return {"op": "edges", "threshold": int(rng.integers(0, 256))}
    if choice == "shadow":
        return {"op": "shadow", "invert": bool(rng.integers(0, 2))}
    if choice == "lut":
        return {"op": "lut", "table": files["lut"]}
    if choice == "convolve":
        return {"op": "convolve", "kernel": files["kernel"],
                "border": str(rng.choice(["replicate", "zero"])), "display": display}
    return {"op": "add", "image": files["add"]}


def _apply_stage_by_hand(img, stage, loaded):
    op = stage["op"]
    if op == "negate":
        return negate(img)
    if op == "stretch":
        return gray_stretch(img, stage["gamma"])
    if op == "laplacian":
        return clamp_to_display(laplacian(img, stage["variant"]), stage["display"])
    if op == "sharpen":
        return laplacian_sharpen(img, stage["variant"])
    if op == "unsharp":
        return unsharp_mask(img, stage["radius"], stage["display"])
    if op == "binarize":
        return bits_to_image(binarize(img, stage["threshold"]))
    if op == "edges":
        return bits_to_image(edge_points(binarize(img, stage["threshold"])))
    if op == "shadow":
        return shadow_invert(img) if stage["invert"] else shadow_ne(img)
    if op == "lut":
        return apply_lut(img, loaded["lut"])
    if op == "convolve":
        return clamp_to_display(convolve(img, loaded["kernel"], stage["border"]),
                                stage["display"])
    return image_add(img, loaded["add"])


@criterion(11, "pipeline runs equal direct library composition", 10.0)
def test_criterion_11_pipeline_composition(tmp_path):
    rng = np.random.default_rng(1011)
    lut_path = tmp_path / "table.lut"
    lut_table = rng.integers(0, 256, 256)
    lut_path.write_text(" ".join(map(str, lut_table)))
    kernel_path = tmp_path / "k.txt"
    kernel_path.write_text("3 3\n1 2 1\n2 4 2\n1 2 1\n")
    second = Image(rng.integers(0, 256, (24, 24), np.uint8))
    add_path = tmp_path / "second.pgm"
    save_pgm(add_path, second)

    files = {"lut": str(lut_path), "kernel": str(kernel_path), "add": str(add_path)}
    loaded = {"lut": lut_table, "kernel": Kernel([[1, 2, 1], [2, 4, 2], [1, 2, 1]]),
              "add": second}

    for _ in range(50):
        depth = int(rng.integers(1, 6))
        stages = [_random_stage(rng, files) for _ in range(depth)]
        img = Image(rng.integers(0, 256, (24, 24), np.uint8))
        piped = run_pipeline(PipelineSpec(stages), img)
        manual = img
        for stage in stages:
            manual = _apply_stage_by_hand(manual, stage, loaded)
        assert piped == manual


@criterion(12, "bit-identical results across 1, 2, and max-core execution", 30.0)
def test_criterion_12_parallel_determinism(monkeypatch):
    # Strips of 256 pixels: 3 padded rows of 66 for a 3-wide kernel, 4 rows of
    # 64 elsewhere, so workers 2 and max share each image.
    monkeypatch.setattr(grayfilt._bytes, "_STRIP_PIXELS", 256)
    rng = np.random.default_rng(1012)
    max_workers = max(os.cpu_count() or 2, 2)
    worker_counts = (1, 2, max_workers)

    img = Image(rng.integers(0, 256, (64, 64), np.uint8))
    float_kernel = Kernel(rng.normal(size=(5, 3)))
    for op in (
        lambda w: correlate(img, float_kernel, workers=w),
        lambda w: convolve(img, float_kernel, border="zero", workers=w),
        lambda w: laplacian(img, "eight", workers=w),
    ):
        results = [op(w) for w in worker_counts]
        assert results[0] == results[1] == results[2]

    checksums = set()
    for w in worker_counts:
        report = bench_convolve(64, 3, 1, workers=w)
        checksums.add(int(re.search(r"checksum=(\d+)", report).group(1)))
    assert len(checksums) == 1

    second = Image(rng.integers(0, 256, (64, 64), np.uint8))
    table = rng.integers(0, 256, 256)
    filters = [
        negate,
        lambda i: apply_lut(i, table),
        lambda i: gray_stretch(i, 1.7),
        lambda i: clamp_to_display(laplacian(i, "four"), "rescale"),
        lambda i: laplacian_sharpen(i, "eight"),
        lambda i: unsharp_mask(i, 1),
        lambda i: box_blur(i, 2),
        lambda i: bits_to_image(binarize(i, 100)),
        lambda i: bits_to_image(edge_points(binarize(i, 100))),
        lambda i: image_add(i, second),
        shadow_ne,
        shadow_invert,
        lambda i: render_histogram(compute_histogram(i)),
    ]
    for fn in filters:
        serial = fn(img)
        for w in worker_counts:
            with ThreadPoolExecutor(max_workers=w) as pool:
                outcomes = list(pool.map(fn, [img] * (2 * w)))
            assert all(out == serial for out in outcomes)


def _vessel_image(side=64):
    """Bright curved stripe on a dark background."""
    pixels = np.full((side, side), 25, dtype=np.uint8)
    ys = np.arange(side)
    centers = (side / 2 + (side / 5) * np.sin(ys / 9.0)).astype(int)
    for y, cx in zip(ys, centers):
        lo, hi = max(cx - 1, 0), min(cx + 2, side)
        pixels[y, lo:hi] = 210
    return Image(pixels)


@criterion(13, "edge overlay adds bright mass to the histogram", 1.0)
def test_criterion_13_edge_overlay_smoke():
    img = _vessel_image()
    overlay = bits_to_image(edge_points(binarize(img, 128)))
    combined = image_add(img, overlay)
    before = compute_histogram(img).bins[255]
    after = compute_histogram(combined).bins[255]
    assert overlay.pixels.max() == 255   # the chain actually found edges
    assert after > before
