"""Gray-level histograms and their CSV / bar-chart renderings."""

from __future__ import annotations

import numpy as np

from ._swar import CHART_HEIGHT, histogram_csv as _csv
from .core import GRAY_LEVELS, Histogram, Image, round_half_away

#: Width of the rendered bar chart, one column per level; its height is CHART_HEIGHT.
CHART_WIDTH = GRAY_LEVELS


def compute_histogram(img: Image) -> Histogram:
    """Count pixels per gray level; counts always sum to width * height."""
    counts = np.bincount(img.pixels.ravel(), minlength=GRAY_LEVELS)
    return Histogram(counts)


def histogram_csv(hist: Histogram) -> str:
    """Serialize as 257 newline-terminated lines: a header plus one
    "level,count" line per gray level."""
    return _csv(hist.bins.tolist())


def render_histogram(hist: Histogram) -> Image:
    """Draw a 256x100 bar chart: white background, one black bar per
    occupied level, bar height proportional to count / max count."""
    bins = hist.bins
    max_bin = bins.max()
    if max_bin == 0:
        return Image(np.full((CHART_HEIGHT, CHART_WIDTH), 255, dtype=np.uint8))
    heights = round_half_away((CHART_HEIGHT * bins) / max_bin).astype(np.int64)
    heights[bins == 0] = 0
    rows = np.arange(CHART_HEIGHT).reshape(-1, 1)
    chart = np.where(rows >= CHART_HEIGHT - heights, 0, 255).astype(np.uint8)
    return Image(chart)
