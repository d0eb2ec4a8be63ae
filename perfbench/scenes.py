"""Seeded inputs: synthetic scenes, kernel, LUT and pipeline-spec files.

Scenes are smooth gradients with step-edged shapes, saturated patches and
sensor-like noise, so thresholds, edge maps and display clipping behave as
on photographs rather than on uniform noise. Everything here is the
benchmark's own code: grayfilt only ever sees the files written from it.
"""

from __future__ import annotations

import json

import numpy as np


def rng_for(seed: int, *stream: int) -> np.random.Generator:
    """Independent generator per (seed, stream...) so inputs do not shift
    when another input is added."""
    return np.random.default_rng([seed, *stream])


def scene(rng: np.random.Generator, height: int, width: int) -> np.ndarray:
    """A uint8 scene: gradient + rectangles and disks + clipped patches + noise."""
    y = np.linspace(0.0, 1.0, height)[:, None]
    x = np.linspace(0.0, 1.0, width)[None, :]
    angle = rng.uniform(0.0, 2.0 * np.pi)
    img = rng.uniform(60.0, 110.0) + rng.uniform(50.0, 110.0) * (
        np.cos(angle) * x + np.sin(angle) * y)
    for _ in range(int(rng.integers(5, 10))):
        y0, x0 = int(rng.integers(0, height)), int(rng.integers(0, width))
        hh = int(rng.integers(max(1, height // 16), max(2, height // 3)))
        ww = int(rng.integers(max(1, width // 16), max(2, width // 3)))
        img[y0:y0 + hh, x0:x0 + ww] += rng.uniform(-90.0, 90.0)
    for _ in range(int(rng.integers(3, 7))):
        cy, cx = rng.uniform(0, height), rng.uniform(0, width)
        r = rng.uniform(min(height, width) / 20, min(height, width) / 6)
        y0, y1 = max(0, int(cy - r)), min(height, int(cy + r) + 1)
        x0, x1 = max(0, int(cx - r)), min(width, int(cx + r) + 1)
        yy = np.arange(y0, y1)[:, None]
        xx = np.arange(x0, x1)[None, :]
        inside = (yy - cy) ** 2 + (xx - cx) ** 2 <= r * r
        img[y0:y1, x0:x1] += np.where(inside, rng.uniform(-100.0, 100.0), 0.0)
    for level in (0.0, 255.0):
        y0, x0 = int(rng.integers(0, height)), int(rng.integers(0, width))
        img[y0:y0 + max(1, height // 10), x0:x0 + max(1, width // 10)] = level
    img += rng.normal(0.0, rng.uniform(3.0, 9.0), size=(height, width))
    return np.clip(np.rint(img), 0, 255).astype(np.uint8)


def encode_pgm(pixels: np.ndarray, fmt: str, comment: str | None = None) -> bytes:
    """Canonical PGM bytes as the README defines them; an optional comment
    line after the magic makes a valid but non-canonical file."""
    height, width = pixels.shape
    head = fmt.upper() + "\n"
    if comment is not None:
        head += f"# {comment}\n"
    head += f"{width} {height}\n255\n"
    if fmt.upper() == "P5":
        return head.encode("ascii") + pixels.astype(np.uint8).tobytes()
    body = "".join(" ".join(map(str, row)) + "\n" for row in pixels.tolist())
    return (head + body).encode("ascii")


def real_kernel(rng: np.random.Generator, size: int = 5) -> tuple[str, np.ndarray]:
    """A 5x5 real-coefficient kernel (3 decimals, zero corners) as file text
    and as the float64 values a text parser reads from that text."""
    ax = np.arange(size) - size // 2
    gauss = np.exp(-(ax[:, None] ** 2 + ax[None, :] ** 2) / (2.0 * 1.2 ** 2))
    coeffs = 1.6 * gauss / gauss.sum() - 0.6 * rng.uniform(0.0, 1.0, (size, size)) / size ** 2
    coeffs[[0, 0, -1, -1], [0, -1, 0, -1]] = 0.0
    rows = [" ".join(f"{c:.3f}" for c in row) for row in coeffs]
    text = f"{size} {size}\n" + "\n".join(rows) + "\n"
    values = np.array([[float(tok) for tok in row.split()] for row in rows])
    return text, values


def lut_table(rng: np.random.Generator) -> tuple[str, np.ndarray]:
    """A monotone tone curve with small random steps, as file text and array."""
    steps = rng.uniform(0.2, 1.8, 256)
    curve = np.cumsum(steps)
    table = np.clip(np.rint(255.0 * (curve - curve[0]) / (curve[-1] - curve[0])), 0, 255)
    table = table.astype(np.int64)
    text = "\n".join(" ".join(str(v) for v in table[i:i + 16]) for i in range(0, 256, 16)) + "\n"
    return text, table


def pipeline_spec(stages: list[dict]) -> str:
    return json.dumps({"stages": stages}, indent=1) + "\n"
