"""Split-histogram contrast enhancement with multi-objective split selection.

The enhancement pipeline equalizes the two sub-histograms on either side of a
split intensity t, then picks t by exhaustively scoring every candidate with
three bounded objectives: brightness preservation (BPS), contrast gain (OCS)
and detail preservation (DPS), derived from the relative brightness
difference (RBD), relative contrast difference (RCD) and average structural
difference (ASD) between the input and the candidate.  Color images are
enhanced on the Y channel of YCrCb space only.

The split search never builds a candidate image.  Once per image it takes
the histogram, the input's mean and std and an edge-padded copy of the pixel
levels; each split then costs one 256-entry LUT and two gathers at the
pixels.  Its metrics equal those of `metrics` on the materialised candidate
bit for bit, so the brute force over `apply_lut` and `metrics` stays the
definition (see `optimize_split`).

All operations are pure functions over immutable images; the split search is
deterministic with ties broken toward the smaller t.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict
from typing import ClassVar

import numpy as np

from .errors import ConfigError, DataError

# Score shaping defaults: exponential falloff rates for the brightness and
# detail scores, and the contrast gain treated as "enough".
K_BRIGHTNESS = 20.0
K_DETAIL = 20.0
R_TARGET = 0.5
_STD_EPS = 1e-6


@dataclass(frozen=True, eq=False)
class _Image:
    """8-bit image with read-only pixels shaped (height, width, *_CHANNELS)."""

    width: int
    height: int
    pixels: np.ndarray

    _CHANNELS: ClassVar[tuple[int, ...]] = ()

    def __post_init__(self):
        p = np.asarray(self.pixels)
        shape = (self.height, self.width, *self._CHANNELS)
        if p.dtype != np.uint8 or p.shape != shape:
            raise DataError(
                f"{type(self).__name__} needs uint8 pixels shaped {shape}, "
                f"got {p.dtype} {p.shape}"
            )
        p = p.copy()
        p.setflags(write=False)
        object.__setattr__(self, "pixels", p)

    @classmethod
    def from_array(cls, arr: np.ndarray):
        arr = np.asarray(arr, dtype=np.uint8)
        return cls(width=arr.shape[1], height=arr.shape[0], pixels=arr)

    def __eq__(self, other) -> bool:
        return isinstance(other, type(self)) and np.array_equal(self.pixels, other.pixels)


class GrayImage(_Image):
    """8-bit grayscale image, pixels shaped (height, width)."""


class ColorImage(_Image):
    """8-bit RGB image, pixels shaped (height, width, 3)."""

    _CHANNELS = (3,)


@dataclass(frozen=True)
class EnhanceReport:
    """Metrics and scores for the selected histogram split."""

    t: int
    rbd: float
    rcd: float
    asd: float
    bps: float
    ocs: float
    dps: float
    aggregate: float

    def to_dict(self) -> dict:
        return asdict(self)


def _round_half_up(x: np.ndarray) -> np.ndarray:
    # All inputs are non-negative; avoids numpy's round-half-to-even.
    return np.floor(x + 0.5).astype(np.int64)


# ---------------------------------------------------------------------------
# Color space
# ---------------------------------------------------------------------------

def rgb_to_ycrcb(img: ColorImage) -> tuple[GrayImage, GrayImage, GrayImage]:
    """Full-range BT.601 RGB -> (Y, Cr, Cb), integer rounded per channel."""
    rgb = img.pixels.astype(np.float64)
    r, g, b = rgb[..., 0], rgb[..., 1], rgb[..., 2]
    y = 0.299 * r + 0.587 * g + 0.114 * b
    cr = 128.0 + 0.5 * r - 0.418688 * g - 0.081312 * b
    cb = 128.0 - 0.168736 * r - 0.331264 * g + 0.5 * b
    planes = []
    for plane in (y, cr, cb):
        q = np.clip(_round_half_up(plane), 0, 255).astype(np.uint8)
        planes.append(GrayImage.from_array(q))
    return planes[0], planes[1], planes[2]


def ycrcb_to_rgb(y: GrayImage, cr: GrayImage, cb: GrayImage) -> ColorImage:
    """Inverse of rgb_to_ycrcb; round trip differs by <= 2 per channel."""
    yf = y.pixels.astype(np.float64)
    crf = cr.pixels.astype(np.float64) - 128.0
    cbf = cb.pixels.astype(np.float64) - 128.0
    r = yf + 1.402 * crf
    g = yf - 0.714136 * crf - 0.344136 * cbf
    b = yf + 1.772 * cbf
    rgb = np.stack([r, g, b], axis=-1)
    q = np.clip(_round_half_up(rgb), 0, 255).astype(np.uint8)
    return ColorImage.from_array(q)


# ---------------------------------------------------------------------------
# Equalization LUTs
# ---------------------------------------------------------------------------

def classic_he(img: GrayImage) -> np.ndarray:
    """Classic histogram-equalization LUT: lut[v] = round(255 * cdf(v))."""
    hist = np.bincount(img.pixels.ravel(), minlength=256)
    cdf = np.cumsum(hist) / img.pixels.size
    return _round_half_up(255.0 * cdf)


def _split_lut(hist: np.ndarray, t: int) -> np.ndarray:
    """Split-histogram equalization LUT of a 256-bin histogram (see bi_he)."""
    lut = np.arange(256, dtype=np.int64)
    lo = hist[: t + 1]
    lo_total = lo.sum()
    if lo_total > 0:
        cdf_lo = np.cumsum(lo) / lo_total
        lut[: t + 1] = _round_half_up(t * cdf_lo)
    if t < 255:
        hi = hist[t + 1 :]
        hi_total = hi.sum()
        if hi_total > 0:
            cdf_hi = np.cumsum(hi) / hi_total
            lut[t + 1 :] = (t + 1) + _round_half_up((254 - t) * cdf_hi)
    return lut


def bi_he(img: GrayImage, t: int) -> np.ndarray:
    """Split-histogram equalization LUT with split intensity t.

    Pixels in [0, t] are equalized onto [0, t] and pixels in [t+1, 255] onto
    [t+1, 255], so no value crosses the split.  A sub-range holding no pixels
    keeps the identity mapping on its range.  t = 255 leaves the upper range
    empty and reduces exactly to classic_he.
    """
    if not (0 <= t <= 255):
        raise DataError(f"split level must be in 0..255, got {t}")
    return _split_lut(np.bincount(img.pixels.ravel(), minlength=256), t)


def apply_lut(img: GrayImage, lut: np.ndarray) -> GrayImage:
    return GrayImage.from_array(lut[img.pixels].astype(np.uint8))


# ---------------------------------------------------------------------------
# Metrics, scores and split search
# ---------------------------------------------------------------------------

def _laplacian(pixels: np.ndarray) -> np.ndarray:
    """3x3 Laplacian response with replicate borders."""
    x = pixels.astype(np.float64)
    p = np.pad(x, 1, mode="edge")
    return p[:-2, 1:-1] + p[2:, 1:-1] + p[1:-1, :-2] + p[1:-1, 2:] - 4.0 * x


def metrics(input_img: GrayImage, candidate: GrayImage) -> tuple[float, float, float]:
    """Brightness, contrast and structural differences (rbd, rcd, asd)."""
    if (input_img.width, input_img.height) != (candidate.width, candidate.height):
        raise DataError("metrics need images of identical dimensions")
    a = input_img.pixels.astype(np.float64)
    b = candidate.pixels.astype(np.float64)
    rbd = abs(float(b.mean()) - float(a.mean())) / 255.0
    std_a = float(a.std())
    rcd = (float(b.std()) - std_a) / max(std_a, _STD_EPS)
    asd = float(np.abs(_laplacian(b) - _laplacian(a)).mean()) / 255.0
    return rbd, rcd, asd


def scores(rbd: float, rcd: float, asd: float) -> tuple[float, float, float]:
    """Shape raw metrics into bounded [0, 1] scores (bps, ocs, dps)."""
    bps = float(np.exp(-K_BRIGHTNESS * rbd))
    ocs = min(max(rcd / R_TARGET, 0.0), 1.0)
    dps = float(np.exp(-K_DETAIL * asd))
    return bps, ocs, dps


def _split_metrics(img: GrayImage):
    """Yield (t, rbd, rcd, asd) for t in 0..254 without building candidates.

    Each triple equals metrics(img, apply_lut(img, bi_he(img, t))) bit for
    bit.  The candidate's pixel sum is the exact integer lut @ hist, so its
    mean is the same correctly rounded quotient np.mean takes.  Its squared
    deviations come from a 256-entry table gathered at the pixels and are
    summed over an array of the image's shape, in np.std's order.  ASD is the
    Laplacian of the integer difference lut[v] - v gathered at the padded
    pixels, as lap(b) - lap(a) = lap(b - a); every term is an integer below
    2**15, so int16 holds it and the int64 sum is exact.
    """
    n = img.pixels.size
    hist = np.bincount(img.pixels.ravel(), minlength=256)
    a = img.pixels.astype(np.float64)
    mean_a = float(a.mean())
    std_a = float(a.std())
    levels = np.arange(256)
    idx = img.pixels.astype(np.intp)
    padded = np.pad(idx, 1, mode="edge")
    for t in range(255):
        lut = _split_lut(hist, t)
        mean_b = int(lut @ hist) / n
        rbd = abs(mean_b - mean_a) / 255.0
        dev = lut - mean_b
        std_b = float(np.sqrt(np.add.reduce((dev * dev)[idx], axis=None) / n))
        rcd = (std_b - std_a) / max(std_a, _STD_EPS)
        d = (lut - levels).astype(np.int16)[padded]
        lap = d[:-2, 1:-1] + d[2:, 1:-1] + d[1:-1, :-2] + d[1:-1, 2:] - 4 * d[1:-1, 1:-1]
        asd = float(np.abs(lap).sum(dtype=np.int64)) / n / 255.0
        yield t, rbd, rcd, asd


def optimize_split(
    img: GrayImage,
    weights: tuple[float, float, float] = (1.0, 1.0, 1.0),
) -> tuple[int, EnhanceReport]:
    """Pick the split t in 0..254 maximizing the weighted score aggregate.

    The search is exhaustive over all 255 candidates, so the brute-force
    re-evaluation in the tests is the definition.  Ties go to the smaller t.
    The histogram, the input's mean and std and a padded copy of its pixels
    are computed once; per split, RBD comes from the LUT and the histogram,
    and RCD and ASD from one gather each at the pixels (`_split_metrics`).
    Every metric equals what `metrics` gives on the candidate image, bit for
    bit, so the chosen t and the report do too.
    """
    if not all(math.isfinite(w) and w >= 0 for w in weights) or not any(weights):
        raise ConfigError(
            f"weights must be finite, >= 0 and not all zero, got {weights}"
        )
    w_b, w_o, w_d = weights
    best: EnhanceReport | None = None
    for t, rbd, rcd, asd in _split_metrics(img):
        bps, ocs, dps = scores(rbd, rcd, asd)
        aggregate = w_b * bps + w_o * ocs + w_d * dps
        if best is None or aggregate > best.aggregate:
            best = EnhanceReport(t, rbd, rcd, asd, bps, ocs, dps, aggregate)
    assert best is not None
    return best.t, best


def enhance_image(
    img: GrayImage | ColorImage,
    weights: tuple[float, float, float] = (1.0, 1.0, 1.0),
) -> tuple[GrayImage | ColorImage, EnhanceReport]:
    """Enhance a gray image directly, or a color image through its Y channel."""
    if isinstance(img, GrayImage):
        t, report = optimize_split(img, weights)
        return apply_lut(img, bi_he(img, t)), report
    y, cr, cb = rgb_to_ycrcb(img)
    t, report = optimize_split(y, weights)
    y_out = apply_lut(y, bi_he(y, t))
    return ycrcb_to_rgb(y_out, cr, cb), report
