"""Tests for split-histogram equalization and the split search."""

import numpy as np
import pytest

from leakscan.errors import ConfigError, DataError
from leakscan.enhance import (
    ColorImage,
    EnhanceReport,
    GrayImage,
    R_TARGET,
    apply_lut,
    bi_he,
    classic_he,
    enhance_image,
    metrics,
    optimize_split,
    rgb_to_ycrcb,
    scores,
    ycrcb_to_rgb,
)
from leakscan.enhance import (
    _laplacian,
    _round_half_up,
    _split_luts,
    _split_metrics,
    _splits,
)


def random_gray(rng, w=32, h=32, lo=0, hi=256):
    return GrayImage.from_array(rng.integers(lo, hi, size=(h, w), dtype=np.uint8))


def test_image_types_validate_and_freeze():
    with pytest.raises(DataError, match="uint8"):
        GrayImage(width=2, height=2, pixels=np.zeros((2, 2), dtype=np.float32))
    with pytest.raises(DataError, match="uint8"):
        ColorImage(width=2, height=2, pixels=np.zeros((2, 2, 3), dtype=np.int32))
    img = GrayImage.from_array(np.zeros((2, 3), dtype=np.uint8))
    assert (img.width, img.height) == (3, 2)
    with pytest.raises(ValueError):
        img.pixels[0, 0] = 1


def test_apply_lut_identity():
    rng = np.random.default_rng(0)
    img = random_gray(rng)
    assert apply_lut(img, np.arange(256, dtype=np.int64)) == img


def test_classic_he_two_level_hand_case():
    arr = np.zeros((2, 4), dtype=np.uint8)
    arr[:, 2:] = 255
    lut = classic_he(GrayImage.from_array(arr))
    assert lut[0] == 128  # round-half-up of 255 * 0.5
    assert lut[255] == 255
    assert lut[100] == 128  # same cdf as 0 until the next occupied bin


def test_bi_he_keeps_levels_on_their_side():
    arr = np.zeros((2, 4), dtype=np.uint8)
    arr[:, 2:] = 255
    lut = bi_he(GrayImage.from_array(arr), 127)
    assert lut[0] == 127  # all lower-range mass maps to the top of [0, 127]
    assert lut[255] == 255


def test_luts_monotone_and_split_respected():
    rng = np.random.default_rng(1)
    for _ in range(10):
        img = random_gray(rng)
        lut_c = classic_he(img)
        assert np.all(np.diff(lut_c) >= 0)
        assert 0 <= lut_c.min() and lut_c.max() <= 255
        t = int(rng.integers(0, 255))
        lut = bi_he(img, t)
        assert np.all(np.diff(lut) >= 0)
        assert np.all(lut[: t + 1] <= t)
        assert np.all(lut[t + 1 :] >= t + 1)


def test_bi_he_degenerate_split_is_classic():
    rng = np.random.default_rng(2)
    for _ in range(10):
        img = random_gray(rng)
        np.testing.assert_array_equal(bi_he(img, 255), classic_he(img))


def test_bi_he_split_range():
    img = GrayImage.from_array(np.zeros((2, 2), dtype=np.uint8))
    with pytest.raises(DataError, match="split level"):
        bi_he(img, -1)
    with pytest.raises(DataError, match="split level"):
        bi_he(img, 256)


def test_bi_he_empty_subrange_keeps_identity():
    img = GrayImage.from_array(np.full((4, 4), 200, dtype=np.uint8))
    lut = bi_he(img, 100)  # lower sub-range holds no pixels
    np.testing.assert_array_equal(lut[:101], np.arange(101))


def test_metrics_hand_values():
    a = GrayImage.from_array(np.full((8, 8), 100, dtype=np.uint8))
    b = GrayImage.from_array(np.full((8, 8), 150, dtype=np.uint8))
    assert metrics(a, a) == (0.0, 0.0, 0.0)
    rbd, rcd, asd = metrics(a, b)
    assert rbd == pytest.approx(50.0 / 255.0)
    assert rcd == 0.0  # both constant; epsilon floor keeps this finite
    assert asd == 0.0
    with pytest.raises(DataError, match="identical dimensions"):
        metrics(a, GrayImage.from_array(np.zeros((4, 4), dtype=np.uint8)))


def test_scores_hand_values():
    assert scores(0.0, 0.0, 0.0) == (1.0, 0.0, 1.0)
    _, ocs, _ = scores(0.0, R_TARGET / 2, 0.0)
    assert ocs == pytest.approx(0.5)
    assert scores(0.0, 10.0, 0.0)[1] == 1.0  # gain beyond target saturates
    assert scores(0.0, -0.5, 0.0)[1] == 0.0  # contrast loss scores zero
    bps, _, dps = scores(0.1, 0.0, 0.2)
    assert bps == pytest.approx(np.exp(-2.0))
    assert dps == pytest.approx(np.exp(-4.0))


def test_optimize_split_matches_brute_force():
    rng = np.random.default_rng(3)
    for trial in range(6):
        img = random_gray(rng, w=24, h=24)
        weights = (1.0, 1.0, 1.0) if trial % 2 == 0 else tuple(rng.uniform(0.2, 2.0, 3))
        t_got, report = optimize_split(img, weights)
        aggs = []
        for t in range(255):
            cand = apply_lut(img, bi_he(img, t))
            bps, ocs, dps = scores(*metrics(img, cand))
            aggs.append(weights[0] * bps + weights[1] * ocs + weights[2] * dps)
        t_want = max(range(255), key=lambda t: (aggs[t], -t))  # ties -> smaller t
        assert t_got == t_want
        assert report.t == t_want
        assert report.aggregate == pytest.approx(aggs[t_want], abs=1e-12)


def _split_metrics_cases():
    rng = np.random.default_rng(8)
    color = ColorImage.from_array(rng.integers(60, 200, size=(21, 18, 3), dtype=np.uint8))
    two_level = np.zeros((6, 9), dtype=np.uint8)
    two_level[:, 4:] = 255
    yy, xx = np.mgrid[0:48, 0:40]
    return {
        "1x1": np.array([[77]], dtype=np.uint8),
        "1xN": rng.integers(0, 256, size=(1, 37), dtype=np.uint8),
        "Nx1": rng.integers(0, 256, size=(41, 1), dtype=np.uint8),
        "odd": rng.integers(0, 256, size=(13, 17), dtype=np.uint8),
        "flat": np.full((7, 5), 42, dtype=np.uint8),
        "two-level": two_level,
        "bright-only": rng.integers(200, 256, size=(15, 11), dtype=np.uint8),
        "dark-only": rng.integers(0, 40, size=(11, 15), dtype=np.uint8),
        "color-Y": rgb_to_ycrcb(color)[0].pixels,
        # Past numpy's 8192-element pairwise-summation block (metrics' ASD mean).
        "512x512": rng.integers(0, 256, size=(512, 512), dtype=np.uint8),
        "smooth": (60 + 2 * xx + yy).astype(np.uint8),
    }


SPLIT_METRICS_CASES = _split_metrics_cases()


def _split_lut(hist, t):
    """Split-histogram equalization LUT for one split, entry by entry (the oracle)."""
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


@pytest.mark.parametrize("name", list(SPLIT_METRICS_CASES))
def test_split_luts_match_per_split_oracle_exactly(name):
    img = GrayImage.from_array(SPLIT_METRICS_CASES[name])
    hist = np.bincount(img.pixels.ravel(), minlength=256)
    want = np.stack([_split_lut(hist, t) for t in range(256)])
    assert np.array_equal(_split_luts(hist, np.arange(256)), want)
    assert all(np.array_equal(bi_he(img, t), want[t]) for t in range(256))


@pytest.mark.parametrize("name", list(SPLIT_METRICS_CASES))
def test_split_metrics_equal_metrics_bit_for_bit(name):
    img = GrayImage.from_array(SPLIT_METRICS_CASES[name])
    s = _splits(img)
    for t in range(255):
        want = metrics(img, apply_lut(img, bi_he(img, t)))
        assert _split_metrics(s, t) == want, f"t={t}"


@pytest.mark.parametrize("name", list(SPLIT_METRICS_CASES))
def test_asd_bound_exact_lower_bound(name):
    # The bound is the per-level grouping of the Laplacian responses, exactly,
    # and never exceeds the candidate's summed |Laplacian difference|.
    img = GrayImage.from_array(SPLIT_METRICS_CASES[name])
    s = _splits(img)
    levels = img.pixels.ravel()
    for t in range(255):
        lap = _laplacian(s.luts[t][img.pixels]) - _laplacian(img.pixels)
        grouped = np.abs(np.bincount(levels, weights=lap.ravel(), minlength=256)).sum()
        assert s.lap_bound[t] == grouped <= np.abs(lap).sum(), f"t={t}"


@pytest.mark.parametrize("name", list(SPLIT_METRICS_CASES))
def test_pruned_split_search_matches_exhaustive(name):
    img = GrayImage.from_array(SPLIT_METRICS_CASES[name])
    s = _splits(img)
    exact = [_split_metrics(s, t) for t in range(255)]
    rng = np.random.default_rng(9)
    for weights in [(1.0, 1.0, 1.0), tuple(rng.uniform(0.0, 2.0, 3)),
                    (0.0, 0.0, 1.0), (0.0, 1.0, 0.0), (1.0, 0.0, 0.0)]:
        reports = []
        for t, m in enumerate(exact):
            bps, ocs, dps = scores(*m)
            aggregate = weights[0] * bps + weights[1] * ocs + weights[2] * dps
            reports.append(EnhanceReport(t, *m, bps, ocs, dps, aggregate))
        want = max(reports, key=lambda r: (r.aggregate, -r.t))  # ties -> smaller t
        assert optimize_split(img, weights) == (want.t, want), weights


def test_optimize_split_weight_validation():
    img = GrayImage.from_array(np.zeros((4, 4), dtype=np.uint8))
    with pytest.raises(ConfigError, match="weights"):
        optimize_split(img, (1.0, -0.5, 1.0))
    with pytest.raises(ConfigError, match="weights"):
        optimize_split(img, (0.0, 0.0, 0.0))
    for bad in [(float("nan"), 1.0, 1.0), (float("inf"), 1.0, 1.0), (1.0, 1.0, -float("inf"))]:
        with pytest.raises(ConfigError, match="finite"):
            optimize_split(img, bad)


def test_optimize_split_rejects_weights_whose_sum_overflows():
    # Each weight is finite, but the aggregate of a split could overflow.
    rng = np.random.default_rng(10)
    img = GrayImage.from_array(rng.integers(110, 146, size=(32, 32), dtype=np.uint8))
    with pytest.raises(ConfigError, match="finite sum"):
        optimize_split(img, (1e308, 1e308, 1e308))
    assert optimize_split(img, (1e307, 1e307, 1e307))[1].aggregate < float("inf")


def test_enhance_raises_low_contrast_std():
    rng = np.random.default_rng(4)
    arr = rng.integers(110, 146, size=(40, 40), dtype=np.uint8)  # narrow band
    img = GrayImage.from_array(arr)
    out, report = enhance_image(img)
    assert float(out.pixels.std()) > float(img.pixels.std())
    assert report.rcd > 0.0
    d = report.to_dict()
    assert set(d) == {"t", "rbd", "rcd", "asd", "bps", "ocs", "dps", "aggregate"}


def test_ycrcb_round_trip_tolerance():
    rng = np.random.default_rng(5)
    img = ColorImage.from_array(rng.integers(0, 256, size=(16, 16, 3), dtype=np.uint8))
    back = ycrcb_to_rgb(*rgb_to_ycrcb(img))
    diff = np.abs(back.pixels.astype(int) - img.pixels.astype(int))
    assert diff.max() <= 2


def test_color_enhancement_keeps_chroma():
    rng = np.random.default_rng(6)
    arr = rng.integers(90, 160, size=(24, 24, 3), dtype=np.uint8)
    img = ColorImage.from_array(arr)
    out, report = enhance_image(img)
    assert isinstance(out, ColorImage)
    assert (out.width, out.height) == (img.width, img.height)
    # The enhanced Y channel should match enhancing Y directly with the same t.
    y_in, _, _ = rgb_to_ycrcb(img)
    y_direct = apply_lut(y_in, bi_he(y_in, report.t))
    y_out, _, _ = rgb_to_ycrcb(out)
    diff = np.abs(y_out.pixels.astype(int) - y_direct.pixels.astype(int))
    assert diff.max() <= 2  # chroma round trip may shift Y by quantization only


def test_gray_enhancement_on_flat_image_is_stable():
    img = GrayImage.from_array(np.full((8, 8), 42, dtype=np.uint8))
    out, _ = enhance_image(img)
    assert out.pixels.min() == out.pixels.max()  # stays flat, no NaN blowups
