"""Gray-level histograms and their CSV / bar-chart renderings, which are the
numpy-free ones of :mod:`grayfilt._swar` that the CLI writes."""

from __future__ import annotations

import numpy as np

from ._bytes import _row_strips
from ._swar import CHART_HEIGHT, histogram_chart, histogram_csv as _csv
from .core import GRAY_LEVELS, Histogram, Image
from .imgio import _image


def compute_histogram(img: Image) -> Histogram:
    """Count pixels per gray level; counts always sum to width * height.
    ``np.bincount`` widens what it counts to intp, so it counts a strip at a time."""
    return Histogram(sum(np.bincount(img.pixels[s0:s1].ravel(), minlength=GRAY_LEVELS)
                         for s0, s1 in _row_strips(img.height, img.width)))


def histogram_csv(hist: Histogram) -> str:
    """Serialize as 257 newline-terminated lines: a header plus one
    "level,count" line per gray level."""
    return _csv(hist.bins.tolist())


def render_histogram(hist: Histogram) -> Image:
    """Draw a 256x100 bar chart: white background, one black bar per
    occupied level, bar height round_half_away(100·count/max), exact in
    Python ints for counts of any size; a histogram of all zero counts draws
    all white."""
    return _image(GRAY_LEVELS, CHART_HEIGHT, histogram_chart(hist.bins.tolist()))
