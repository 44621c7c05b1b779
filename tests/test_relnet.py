"""Tests for the pair-relation network: shapes, gradients, training, files."""

import dataclasses
import io
import json
import os
import struct
import subprocess
import sys
import tracemalloc
import zipfile
from pathlib import Path

import numpy as np
import pytest

from leakscan import relnet, scenegen
from leakscan.errors import ConfigError, DataError, NumericError
from leakscan.pipeline import COMPACT_RELNET_CONFIG
from leakscan.relnet import (
    EpochStats,
    PairBatch,
    PairSample,
    RELATION_ORDER,
    RelNetConfig,
    RelNetParams,
    RelationLabel,
    TrainConfig,
    forward,
    init_params,
    load_params,
    loss_and_grad,
    make_pair_sample,
    predict_batch,
    save_params,
    scene_pair_batch,
    train,
)
from leakscan.scene import BBox, ClassLabel, DetectedObject, MaskRaster, PolygonMask

TINY = RelNetConfig(grid=12, conv1_filters=3, conv2_filters=3, fc1_units=5, fc2_units=4)


def synth_sample(rng, config=TINY, labeled=True):
    """Random sample whose label is a simple function of its features."""
    values = rng.choice([0.0, 0.5, 1.0], size=(config.grid, config.grid))
    v_poi = rng.normal(size=config.pos_dim)
    v_cls = np.zeros(config.cls_dim)
    v_cls[rng.integers(0, config.cls_dim)] = 1.0
    label = None
    if labeled:
        dy = v_poi[-1]
        if dy < -0.4:
            label = RelationLabel.ABOVE
        elif dy < 0.4:
            label = RelationLabel.NEARBY
        else:
            label = RelationLabel.OTHER
    return PairSample(
        raster=MaskRaster(config.grid, config.grid, values),
        v_poi=v_poi,
        v_cls=v_cls,
        label=label,
    )


def synth_batch(rng, n, config=TINY, labeled=True):
    return [synth_sample(rng, config, labeled) for _ in range(n)]


def square_object(oid, label, x1, y1, size):
    return DetectedObject(
        id=oid,
        label=label,
        confidence=0.9,
        bbox=BBox(x1, y1, x1 + size, y1 + size),
        polygon=PolygonMask(
            ((x1, y1), (x1 + size, y1), (x1 + size, y1 + size), (x1, y1 + size))
        ),
    )


# ---------------------------------------------------------------------------
# Configuration and parameter containers
# ---------------------------------------------------------------------------

def test_default_config_shape_chain():
    cfg = RelNetConfig()
    assert cfg.grid == 28
    assert cfg.pool1_size == 14
    assert cfg.conv2_out == 6
    assert cfg.pool2_size == 3
    assert cfg.flat_dim == 3 * 3 * 256
    assert cfg.fc1_units == 1024 and cfg.fc2_units == 256
    shapes = cfg.tensor_shapes()
    assert shapes["conv1_w"] == (3, 3, 1, 256)
    assert shapes["conv2_w"] == (3, 3, 256, 256)
    assert shapes["fc1_w"] == (16, 1024)
    assert shapes["fc2_w"] == (1024 + 3 * 3 * 256, 256)
    assert shapes["head_w"] == (256, 3)


def test_config_validation():
    with pytest.raises(ConfigError, match="even"):
        RelNetConfig(grid=13)
    with pytest.raises(ConfigError, match="even"):
        RelNetConfig(grid=6)
    with pytest.raises(ConfigError, match="second pool"):
        RelNetConfig(grid=16)  # 16 -> pool 8 -> conv2 out 3, odd
    with pytest.raises(ConfigError, match="fc1_units"):
        RelNetConfig(fc1_units=0)


def test_init_params_deterministic_and_shaped():
    a = init_params(TINY, seed=3)
    b = init_params(TINY, seed=3)
    c = init_params(TINY, seed=4)
    for name, shape in TINY.tensor_shapes().items():
        assert a.tensors[name].shape == shape
        np.testing.assert_array_equal(a.tensors[name], b.tensors[name])
    assert any(
        not np.array_equal(a.tensors[k], c.tensors[k]) for k in a.tensors
    )
    assert a.tensors["conv1_b"].min() == a.tensors["conv1_b"].max() == 0.0


def test_params_validation_errors():
    good = init_params(TINY, seed=0)
    bad = {k: v.copy() for k, v in good.tensors.items()}
    bad["fc1_w"] = np.zeros((2, 2))
    with pytest.raises(DataError, match="tensor fc1_w: shape mismatch"):
        RelNetParams(TINY, bad)
    missing = {k: v.copy() for k, v in good.tensors.items()}
    del missing["head_b"]
    with pytest.raises(DataError, match="tensor set mismatch"):
        RelNetParams(TINY, missing)
    nan = {k: v.copy() for k, v in good.tensors.items()}
    nan["conv2_w"][0, 0, 0, 0] = np.nan
    with pytest.raises(DataError, match="tensor conv2_w: non-finite"):
        RelNetParams(TINY, nan)


def test_pair_sample_validation():
    with pytest.raises(DataError, match=r"\{0, 0.5, 1.0\}"):
        PairSample(
            raster=MaskRaster(2, 2, np.full((2, 2), 0.3)),
            v_poi=np.zeros(8),
            v_cls=np.zeros(8),
        )
    with pytest.raises(DataError, match="v_poi"):
        PairSample(
            raster=MaskRaster(2, 2, np.zeros((2, 2))),
            v_poi=np.array([np.inf] * 8),
            v_cls=np.zeros(8),
        )


def test_make_pair_sample_geometry():
    sub = square_object(0, ClassLabel.SUSPECTED_AREA, 40, 10, 20)  # higher up
    ref = square_object(1, ClassLabel.GROUND, 40, 60, 20)
    s = make_pair_sample(sub, ref, 100, 100, label=RelationLabel.ABOVE)
    vals = s.raster.values
    assert set(np.unique(vals)) <= {0.0, 0.5, 1.0}
    rows_subject = np.where((vals == 1.0).any(axis=1))[0]
    rows_reference = np.where((vals == 0.5).any(axis=1))[0]
    assert rows_subject.max() < rows_reference.min()  # subject drawn above
    assert s.label is RelationLabel.ABOVE
    assert s.feature_vector().shape == (16,)


def test_scene_pair_batch_rows_match_make_pair_sample():
    """Every row of a scene's pair batch is make_pair_sample's raster and
    feature vector of that ordered pair, byte for byte, subject outer and
    reference inner; scenes with fewer than two objects give an empty batch."""
    cfg = scenegen.GenConfig(tanks=(1, 2), blobs=(3, 6), distractor_prob=0.5, seed=4)
    for index in range(6):  # 5 to 10 objects
        scene = scenegen.gen_scene(cfg, index)
        objs = scene.objects
        pairs = [(s, r) for s in objs for r in objs if s is not r]
        for grid in (12, 28):
            got = scene_pair_batch(objs, scene.image_width, scene.image_height, grid)
            assert len(got) == len(pairs)
            assert got.rasters.shape == (len(pairs), grid, grid)
            for k, (s, r) in enumerate(pairs):
                want = make_pair_sample(s, r, scene.image_width, scene.image_height, grid=grid)
                assert got.rasters[k].tobytes() == want.raster.values.tobytes()
                assert got.vecs[k].tobytes() == want.feature_vector().tobytes()
    for few in (objs[:1], ()):
        for grid in (12, 28):
            empty = scene_pair_batch(few, 100, 100, grid)
            assert len(empty) == 0
            assert empty.rasters.shape == (0, grid, grid) and empty.vecs.shape == (0, 16)


def _joined(batches):
    """One PairBatch of the rows of several, in order."""
    return PairBatch(
        np.concatenate([b.rasters for b in batches]), np.concatenate([b.vecs for b in batches])
    )


def test_pair_batch_validation():
    rasters = np.zeros((2, 12, 12))
    vecs = np.zeros((2, 16))
    with pytest.raises(DataError, match=r"\{0, 0.5, 1.0\}"):
        PairBatch(np.full((2, 12, 12), 0.3), vecs)
    with pytest.raises(DataError, match="non-finite"):
        PairBatch(rasters, np.full((2, 16), np.nan))
    for bad_rasters, bad_vecs in ((rasters[0], vecs), (rasters, vecs[:1]), (rasters, vecs[:, :8])):
        with pytest.raises(DataError, match="shapes"):
            PairBatch(bad_rasters, bad_vecs)
    batch = PairBatch(rasters, vecs)
    assert len(batch) == 2 and len(batch[1:]) == 1
    assert not batch.rasters.flags.writeable and not batch.vecs.flags.writeable
    with pytest.raises(DataError, match="grid"):
        predict_batch(init_params(TINY, seed=0), PairBatch(np.zeros((1, 8, 8)), vecs[:1]))


def test_predict_batch_pair_batch_matches_sample_list_exactly():
    """A PairBatch and the list of the same samples give the same
    probabilities bit for bit, over more than one chunk."""
    cfg = scenegen.GenConfig(tanks=(1, 2), blobs=(3, 6), distractor_prob=0.5, seed=5)
    scenes = [scenegen.gen_scene(cfg, index) for index in range(8)]
    batch = _joined(
        [scene_pair_batch(sc.objects, sc.image_width, sc.image_height, 12) for sc in scenes]
    )
    assert len(batch) > relnet._PREDICT_CHUNK
    samples = [
        PairSample(MaskRaster(12, 12, raster), vec[:8], vec[8:])
        for raster, vec in zip(batch.rasters, batch.vecs)
    ]
    params = init_params(TINY, seed=3)
    labels, probs = predict_batch(params, batch)
    want_labels, want_probs = predict_batch(params, samples)
    assert labels == want_labels
    assert np.array_equal(probs, want_probs)


def test_train_config_lr_schedule():
    cfg = TrainConfig(lr_initial=0.01, lr_final=0.001, epochs=10)
    assert cfg.lr_at(0) == 0.01
    assert cfg.lr_at(9) == pytest.approx(0.001)
    assert cfg.lr_at(4) == pytest.approx(0.01 + (0.001 - 0.01) * 4 / 9)
    assert TrainConfig(epochs=1).lr_at(0) == TrainConfig().lr_initial
    with pytest.raises(ConfigError):
        TrainConfig(momentum=1.0)
    with pytest.raises(ConfigError):
        TrainConfig(lr_initial=-0.1)


# ---------------------------------------------------------------------------
# Forward / backward
# ---------------------------------------------------------------------------

def test_forward_shapes_and_probabilities():
    rng = np.random.default_rng(0)
    params = init_params(TINY, seed=1)
    act = forward(params, synth_sample(rng))
    assert act.m_ctr1.shape == (TINY.pool1_size, TINY.pool1_size, TINY.conv1_filters)
    assert act.m_ctr2.shape == (TINY.pool2_size, TINY.pool2_size, TINY.conv2_filters)
    assert act.v1.shape == (TINY.fc1_units,)
    assert act.v2.shape == (TINY.fc2_units,)
    assert act.logits.shape == (3,)
    assert act.y.shape == (3,)
    assert act.y.sum() == pytest.approx(1.0)
    assert act.y.min() >= 0.0


def test_batch_matches_single_forward():
    rng = np.random.default_rng(1)
    params = init_params(TINY, seed=2)
    samples = synth_batch(rng, 7)
    labels, probs = predict_batch(params, samples)
    for i, s in enumerate(samples):
        (lab,), (y,) = predict_batch(params, [s])
        assert labels[i] is lab
        # Batched matmul may re-associate sums; agreement is to float precision.
        np.testing.assert_allclose(probs[i], y, rtol=0, atol=1e-12)


def test_predict_tie_breaks_to_first_relation():
    params = init_params(TINY, seed=0)
    for name in params.tensors:
        params.tensors[name][...] = 0.0  # all logits identical
    rng = np.random.default_rng(2)
    (lab,), (y,) = predict_batch(params, [synth_sample(rng)])
    assert lab is RELATION_ORDER[0]
    np.testing.assert_allclose(y, [1 / 3] * 3)


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(3)
    params = init_params(TINY, seed=5)
    batch = synth_batch(rng, 4)
    loss0, grads = loss_and_grad(params, batch)
    assert np.isfinite(loss0)
    h = 1e-6
    worst = 0.0
    for name, g in grads.tensors.items():
        flat = params.tensors[name].ravel()
        gflat = g.ravel()
        for idx in rng.choice(flat.size, size=min(4, flat.size), replace=False):
            orig = flat[idx]
            flat[idx] = orig + h
            lp, _ = loss_and_grad(params, batch)
            flat[idx] = orig - h
            lm, _ = loss_and_grad(params, batch)
            flat[idx] = orig
            fd = (lp - lm) / (2 * h)
            denom = max(abs(fd), abs(gflat[idx]), 1e-8)
            worst = max(worst, abs(fd - gflat[idx]) / denom)
    assert worst < 1e-5


def test_loss_and_grad_input_checks():
    rng = np.random.default_rng(4)
    params = init_params(TINY, seed=0)
    with pytest.raises(DataError, match="empty"):
        loss_and_grad(params, [])
    with pytest.raises(DataError, match="labeled"):
        loss_and_grad(params, [synth_sample(rng, labeled=False)])
    wrong_grid = synth_sample(rng, RelNetConfig(grid=28, conv1_filters=2,
                                                conv2_filters=2, fc1_units=2,
                                                fc2_units=2))
    with pytest.raises(DataError, match="raster size"):
        loss_and_grad(params, [wrong_grid])



# ---------------------------------------------------------------------------
# Fused conv -> pool -> ReLU layer against the full-resolution reference
# ---------------------------------------------------------------------------

def _im2col(xp, kh, kw, stride, oh, ow):
    """im2col rows (batch*oh*ow, kh*kw*cin) of the padded input ``xp`` for
    output positions (i*stride, j*stride)."""
    batch, _, _, cin = xp.shape
    s0, s1, s2, s3 = xp.strides
    win = np.lib.stride_tricks.as_strided(
        xp,
        shape=(batch, oh, ow, kh, kw, cin),
        strides=(s0, s1 * stride, s2 * stride, s1, s2, s3),
    )
    return win.reshape(batch * oh * ow, kh * kw * cin)


def _conv_product(cols, w, b):
    """The conv output of im2col rows ``cols``: one K = 9 product for a
    one-channel input (conv1), else nine per-position K = cin products
    summed in kernel order (conv2); the bias is added last."""
    kh, kw, cin, filters = w.shape
    if cin == 1:
        return cols @ w.reshape(kh * kw, filters) + b
    cols = cols.reshape(len(cols), kh * kw, cin)
    w_k = w.reshape(kh * kw, cin, filters)
    y = cols[:, 0] @ w_k[0]
    for k in range(1, kh * kw):
        y += cols[:, k] @ w_k[k]
    return y + b


def _ref_conv_forward(x, w, b, stride, pad):
    batch, h, wd, _ = x.shape
    kh, kw, cin, filters = w.shape
    xp = np.pad(x, ((0, 0), (pad, pad), (pad, pad), (0, 0))) if pad else x
    oh = (h + 2 * pad - kh) // stride + 1
    ow = (wd + 2 * pad - kw) // stride + 1
    cols = _im2col(xp, kh, kw, stride, oh, ow)
    y = _conv_product(cols, w, b)
    return y.reshape(batch, oh, ow, filters), (cols, xp.shape, stride, pad)


def _ref_conv_backward(dy, w, cache):
    cols, xp_shape, stride, pad = cache
    batch, oh, ow, filters = dy.shape
    kh, kw, cin, _ = w.shape
    dy_mat = dy.reshape(batch * oh * ow, filters)
    dw = (cols.T @ dy_mat).reshape(w.shape)
    db = dy_mat.sum(axis=0)
    dcols = (dy_mat @ w.reshape(-1, filters).T).reshape(batch, oh, ow, kh, kw, cin)
    dxp = np.zeros(xp_shape)
    for i in range(kh):
        for j in range(kw):
            dxp[:, i : i + stride * oh : stride, j : j + stride * ow : stride, :] += (
                dcols[:, :, :, i, j, :]
            )
    dx = dxp[:, pad : xp_shape[1] - pad, pad : xp_shape[2] - pad, :] if pad else dxp
    return dx, dw, db


def _ref_pool_forward(x):
    # First maximum in row-major window order wins.
    batch, h, wd, c = x.shape
    oh, ow = h // 2, wd // 2
    xr = (
        x.reshape(batch, oh, 2, ow, 2, c)
        .transpose(0, 1, 3, 2, 4, 5)
        .reshape(batch, oh, ow, 4, c)
    )
    idx = xr.argmax(axis=3)
    y = np.take_along_axis(xr, idx[:, :, :, None, :], axis=3)[:, :, :, 0, :]
    return y, (idx, x.shape)


def _ref_pool_backward(dy, cache):
    idx, x_shape = cache
    batch, h, wd, c = x_shape
    oh, ow = h // 2, wd // 2
    dxr = np.zeros((batch, oh, ow, 4, c))
    np.put_along_axis(dxr, idx[:, :, :, None, :], dy[:, :, :, None, :], axis=3)
    return (
        dxr.reshape(batch, oh, ow, 2, 2, c)
        .transpose(0, 1, 3, 2, 4, 5)
        .reshape(batch, h, wd, c)
    )


def _conv_pool_forward(x, w, b, stride, pad):
    """3x3 conv -> 2x2 stride-2 max-pool -> ReLU, one _conv_product per pool
    phase: the layer both conv tables are checked against.

    Phase (di, dj) holds the conv outputs at rows 2i+di and columns 2j+dj,
    so the pool is an elementwise max over the four phase maps.  Adding the
    bias rounds monotonically and ReLU commutes with max, so the result is
    pool(relu(conv)) exactly, provided the GEMM gives each row the value it
    gets in the full-resolution GEMM.  BLAS may pick another kernel for the
    smaller row count, which moves a last bit at some shapes (see the TINY
    case of the conv2 table test).  Also returns each pooled value's
    recorded phase: the first phase attaining the max, or _NO_PHASE where
    the ReLU output is not positive.
    """
    batch, h, wd, _ = x.shape
    kh, kw, cin, filters = w.shape
    xp = np.pad(x, ((0, 0), (pad, pad), (pad, pad), (0, 0))) if pad else x
    ph = ((h + 2 * pad - kh) // stride + 1) // 2
    pw = ((wd + 2 * pad - kw) // stride + 1) // 2
    maps = np.stack([
        _conv_product(_im2col(xp[:, di * stride :, dj * stride :], kh, kw, 2 * stride, ph, pw),
                      w, b)
        for di, dj in relnet._POOL_PHASES
    ])
    pooled = np.maximum(maps.max(axis=0), 0.0)
    phases = np.where(pooled > 0, maps.argmax(axis=0), relnet._NO_PHASE)
    return pooled.reshape(batch, ph, pw, filters), phases.reshape(batch, ph, pw, filters)


def _ref_conv_pool_forward(x, w, b, stride, pad):
    """conv -> ReLU -> argmax pool at full resolution, as a drop-in layer."""
    c, conv_cache = _ref_conv_forward(x, w, b, stride, pad)
    pooled, pool_cache = _ref_pool_forward(np.maximum(c, 0.0))
    return pooled, (c, conv_cache, pool_cache)


def _ref_conv_pool_backward(dy, w, cache):
    c, conv_cache, pool_cache = cache
    dc = _ref_pool_backward(dy, pool_cache) * (c > 0)
    return _ref_conv_backward(dc, w, conv_cache)


def _per_table_row(table, cells, d):
    """The gradient of a table from ``d``, the gradient of its map
    ``table[cells]``: each cell's share summed into the row it reads."""
    dtable = np.zeros(table.shape)
    np.add.at(dtable, cells, d)
    return dtable


def _tie_heavy_case(rng, grid, cin, batch, filters=4):
    """Three-level one-channel rasters, and weights and biases on a coarse
    dyadic grid, so every sum is exact and equal window values are real
    ties; includes an all-zero raster, a constant raster, a zeroed filter
    and a filter negative everywhere."""
    x = rng.choice([0.0, 0.5, 1.0], size=(batch, grid, grid, 1))
    x[0] = 0.0
    x[1] = 0.5
    x[2, : grid // 2] = 1.0
    w = rng.integers(-2, 3, size=(3, 3, cin, filters)) / 4.0
    b = rng.integers(-2, 3, size=filters) / 4.0
    w[..., 0] = 0.0
    b[0] = 0.0
    w[..., 1] = -0.25
    b[1] = -0.5
    return x, w, b


def _signed_zeros(d):
    """Every other zero of ``d`` made -0.0: zero gradients of either sign."""
    signed = d[::2]
    signed[signed == 0] = -0.0
    return d


@pytest.mark.parametrize("stride,pad", [(1, 1), (2, 0)])
def test_conv_pool_matches_full_resolution_reference(stride, pad):
    """conv1 (stride 1) and conv2 on conv1's table (stride 2), forward and
    backward, match the full-resolution layer bit for bit on dyadic data
    with ties, zero signs included.  The full-resolution layer gives the
    gradient of the pooled map's input; summed over the cells that read
    each table row, it is the gradient of conv1's table."""
    rng = np.random.default_rng(20)
    for batch in (5, 5, 5, 3):
        if stride == 1:
            x, w, b = _tie_heavy_case(rng, 12, 1, batch)
            ref, ref_cache = _ref_conv_pool_forward(x, w, b, 1, 1)
            table, cells, cache = relnet._conv1_pool_forward(x, w, b)
            got = table[cells]
        else:
            x, w1, b1 = _tie_heavy_case(rng, 28, 1, batch, filters=3)
            table1, cells, _ = relnet._conv1_pool_forward(x, w1, b1)
            _, w, b = _tie_heavy_case(rng, 28, 3, batch)
            ref, ref_cache = _ref_conv_pool_forward(table1[cells], w, b, 2, 0)
            got, cache = relnet._conv2_pool_forward(table1, cells, w, b)
        assert np.array_equal(got, ref)
        assert (ref == 0).any() and (ref > 0).any()
        dy = _signed_zeros(rng.integers(-3, 4, size=ref.shape) / 8.0)
        dx, *want = _ref_conv_pool_backward(dy, w, ref_cache)
        if stride == 1:
            dtable = _signed_zeros(_per_table_row(table, cells, dy))
            got = relnet._conv1_pool_backward(dtable, w, cache)
        else:
            want.insert(0, _per_table_row(table1, cells, dx))
            got = relnet._conv2_pool_backward(dy, table1, w, cache)
        for g, r in zip(got, want, strict=True):
            assert g.tobytes() == r.tobytes()


def test_loss_and_grad_matches_reference_at_paper_size(monkeypatch):
    """The table-domain gradients equal the full-resolution layers' within
    1e-12 of each tensor's largest magnitude (measured: about 3e-15); the
    sums run in another order, so they are not bit for bit."""
    rng = np.random.default_rng(21)
    config = RelNetConfig()
    params = init_params(config, seed=22)
    batch = synth_batch(rng, 6, config)
    loss, grads = loss_and_grad(params, batch)

    def ref_conv1(x, w, b):
        # The pooled map as a table with one row per cell.
        m1, cache = _ref_conv_pool_forward(x, w, b, 1, 1)
        cells = np.arange(m1[..., 0].size).reshape(m1.shape[:3])
        return m1.reshape(-1, m1.shape[-1]), cells, (m1.shape, cache)

    def ref_conv2_backward(dy, table1, w, cache):
        dx, dw, db = _ref_conv_pool_backward(dy, w, cache)
        return dx.reshape(table1.shape), dw, db

    def ref_conv1_backward(dtable, w, cache):
        m1_shape, cache = cache
        return _ref_conv_pool_backward(dtable.reshape(m1_shape), w, cache)[1:]

    monkeypatch.setattr(relnet, "_conv1_pool_forward", ref_conv1)
    monkeypatch.setattr(
        relnet, "_conv2_pool_forward",
        lambda table1, cells, w, b: _ref_conv_pool_forward(table1[cells], w, b, 2, 0),
    )
    monkeypatch.setattr(relnet, "_conv2_pool_backward", ref_conv2_backward)
    monkeypatch.setattr(relnet, "_conv1_pool_backward", ref_conv1_backward)
    ref_loss, ref_grads = loss_and_grad(params, batch)
    assert loss == ref_loss
    for name, g in grads.tensors.items():
        ref = ref_grads.tensors[name]
        np.testing.assert_allclose(g, ref, rtol=0, atol=1e-12 * np.abs(ref).max(), err_msg=name)


def _three_level_masks(rng, grid, n):
    """n masks of the given grid: constants, checkerboards, real pair rasters
    from generated scenes, and random three-level masks, in a seeded order."""
    rows, cols = np.indices((grid, grid))
    masks = [np.full((grid, grid), v) for v in (0.0, 0.5, 1.0)]
    for lo, hi in ((0.0, 1.0), (0.0, 0.5), (0.5, 1.0), (1.0, 0.0)):
        for period in (1, 2, 3):
            masks.append(np.where((rows // period + cols // period) % 2, hi, lo))
    cfg = scenegen.GenConfig(seed=25)
    index = 0
    while len(masks) < n // 2:
        scene = scenegen.gen_scene(cfg, index)
        index += 1
        batch = scene_pair_batch(scene.objects, scene.image_width, scene.image_height, grid)
        masks += list(batch.rasters[:12])
    while len(masks) < n:
        p = rng.dirichlet(np.ones(3))
        masks.append(rng.choice([0.0, 0.5, 1.0], size=(grid, grid), p=p))
    order = rng.permutation(n)
    return np.stack(masks[:n])[order][..., None]


@pytest.mark.parametrize(
    "config", [TINY, COMPACT_RELNET_CONFIG, RelNetConfig()], ids=["tiny", "compact", "paper"]
)
def test_conv1_table_matches_conv_pool_bit_for_bit(config):
    """conv1's window table, gathered by its cell indices, gives the
    per-phase layer's pooled map and recorded phases bit for bit, on
    three-level masks at many batch sizes, and its cache holds each table
    row's window of the padded raster."""
    rng = np.random.default_rng(23)
    t = init_params(config, seed=24).tensors
    w = t["conv1_w"]
    b = rng.normal(scale=0.1, size=config.conv1_filters)  # biases move the ReLU cut
    masks = _three_level_masks(rng, config.grid, 256)
    for batch in (1, 2, 5, 32, 56, 97, 256):
        x = masks[:batch] if batch == 256 else masks[rng.integers(0, 256, size=batch)]
        want, want_phases = _conv_pool_forward(x, w, b, 1, 1)
        table, cells, (windows, recorded) = relnet._conv1_pool_forward(x, w, b)
        got = table[cells]
        assert np.array_equal(got, want), batch
        phases = recorded()
        assert phases.dtype == np.uint8
        assert np.array_equal(phases[cells], want_phases), batch
        xp = np.pad(x[..., 0], ((0, 0), (1, 1), (1, 1)))
        cell_windows = np.lib.stride_tricks.sliding_window_view(xp, (4, 4), axis=(1, 2))
        assert np.array_equal(windows[cells], cell_windows[:, ::2, ::2]), batch
    # The recorded phases take every value, "no phase" (ReLU inactive)
    # included, and the pooled map lies on both sides of the ReLU.
    assert set(np.unique(phases)) == {0, 1, 2, 3, relnet._NO_PHASE}
    assert (got == 0).any() and (got > 0).any()


def _dyadic(rng, shape):
    """Values in {-0.5, -0.25, 0, 0.25, 0.5}: sums of a few products of them
    and of three-level inputs are exact, and equal sums are real ties."""
    return rng.integers(-2, 3, size=shape) / 4.0


@pytest.mark.parametrize(
    "config", [TINY, COMPACT_RELNET_CONFIG, RelNetConfig()], ids=["tiny", "compact", "paper"]
)
def test_conv2_table_matches_conv_pool_bit_for_bit(config):
    """conv2's row table, read straight from conv1's table, gives the
    per-phase layer's pooled map and recorded phases bit for bit on conv1's
    pooled map ``table1[cells]`` of three-level masks at many batch sizes,
    and its cache names each phase's im2col rows.

    At compact and paper size the weights are the seeded init, so this also
    checks that the GEMM gives a row the same value whatever its row-mates.
    With 3 filters OpenBLAS rounds the last row of an odd row count
    differently, so at TINY size the per-phase layer itself moves with the
    batch; there the weights are dyadic, every sum is exact, and the test
    checks the keys, gathers and phase fold with real ties instead.
    """
    rng = np.random.default_rng(26)
    t = init_params(config, seed=27).tensors
    w1, w2 = t["conv1_w"], t["conv2_w"]
    b1 = rng.normal(scale=0.1, size=config.conv1_filters)  # biases move the ReLU cut
    b2 = rng.normal(scale=0.1, size=config.conv2_filters)
    if config is TINY:
        w1, w2 = _dyadic(rng, w1.shape), _dyadic(rng, w2.shape)
        b1, b2 = _dyadic(rng, b1.shape), _dyadic(rng, b2.shape)
    masks = _three_level_masks(rng, config.grid, 256)
    zeros = np.zeros((3, config.grid, config.grid, 1))  # one distinct conv2 row
    batches = [masks[:256], zeros[:1], zeros]
    batches += [masks[rng.integers(0, 256, size=n)] for n in (1, 2, 5, 32, 56, 97)]
    seen = set()
    for x in batches:
        table1, cells, _ = relnet._conv1_pool_forward(x, w1, b1)
        m1 = table1[cells]
        want, want_phases = _conv_pool_forward(m1, w2, b2, 2, 0)
        got, (rows, inverse, recorded) = relnet._conv2_pool_forward(table1, cells, w2, b2)
        assert np.array_equal(got, want), len(x)
        phases = recorded()
        assert phases.dtype == np.uint8
        assert np.array_equal(phases.reshape(want_phases.shape), want_phases), len(x)
        seen.update(np.unique(phases).tolist())
        # Each phase's rows, read from conv1's table, are its im2col rows.
        ph = want.shape[1]
        for phase, (di, dj) in enumerate(relnet._POOL_PHASES):
            cols = _im2col(m1[:, 2 * di :, 2 * dj :], 3, 3, 4, ph, ph)
            assert np.array_equal(table1[rows[inverse[phase]]].reshape(cols.shape), cols)
    # The recorded phases take every value, "no phase" (ReLU inactive)
    # included, and the pooled map lies on both sides of the ReLU.
    assert seen == {0, 1, 2, 3, relnet._NO_PHASE}
    assert (got == 0).any() and (got > 0).any()


@pytest.mark.parametrize(
    "config,step", [(COMPACT_RELNET_CONFIG, 1), (RelNetConfig(), 7)], ids=["compact", "paper"]
)
def test_pair_conv_maps_bit_identical_in_any_batch(config, step):
    """One pair's m1 and m2 are the same bits in batches of 1 to 64 masks
    (every step-th size), first, last and at a random place in between,
    with batch-mates drawn afresh, so its conv2 rows meet other row-mates
    and other chunk bounds each time."""
    rng = np.random.default_rng(28)
    t = init_params(config, seed=29).tensors
    masks = _three_level_masks(rng, config.grid, 257)
    pair, pool = masks[256:], masks[:256]

    def conv_maps(x):
        table1, cells, _ = relnet._conv1_pool_forward(x, t["conv1_w"], t["conv1_b"])
        m2, _ = relnet._conv2_pool_forward(table1, cells, t["conv2_w"], t["conv2_b"])
        return table1[cells], m2

    want1, want2 = conv_maps(pair)
    for size in range(1, 65, step):
        for pos in sorted({0, int(rng.integers(0, size)), size - 1}):
            mates = pool[rng.choice(256, size=size - 1, replace=False)]
            x = np.concatenate([mates[:pos], pair, mates[pos:]])
            m1, m2 = conv_maps(x)
            assert np.array_equal(m1[pos], want1[0]), (size, pos)
            assert np.array_equal(m2[pos], want2[0]), (size, pos)


def test_predict_batch_never_builds_conv1_pooled_map():
    """A full 256-pair chunk of paper-size scene pairs peaks below 60 MB of
    traced memory: conv2 reads conv1's table, and conv1's pooled map, 103 MB
    at this size, is never built."""
    cfg = scenegen.GenConfig(tanks=(1, 2), blobs=(3, 6), distractor_prob=0.5, seed=34)
    scenes = [scenegen.gen_scene(cfg, index) for index in range(40)]
    samples = _joined(
        [scene_pair_batch(sc.objects, sc.image_width, sc.image_height) for sc in scenes]
    )[:256]
    assert len(samples) == 256
    params = init_params(RelNetConfig(), seed=35)
    tracemalloc.start()
    try:
        predict_batch(params, samples)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 60e6, peak


def test_training_steps_add_under_7_mb_each(monkeypatch):
    """Every compact training step at batch 32, the first included, adds
    less than 7 MB to the traced memory: the backward pass works on conv1's
    and conv2's tables and builds nothing at full resolution."""
    step = relnet._loss_and_grad_batch
    added = []

    def traced_step(*args):
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        result = step(*args)
        added.append(tracemalloc.get_traced_memory()[1] - before)
        return result

    monkeypatch.setattr(relnet, "_loss_and_grad_batch", traced_step)
    pairs = [p.sample for p in scenegen.gen_pair_dataset(scenegen.GenConfig(seed=36), 118)]
    tracemalloc.start()
    try:
        train(init_params(COMPACT_RELNET_CONFIG, seed=37), pairs, TrainConfig(epochs=1, seed=38))
    finally:
        tracemalloc.stop()
    assert len(added) == 4  # batches of 32, 32, 32 and 22 pairs
    assert max(added) < 7e6, added


def test_distinct_rows_match_np_unique_near_2_31():
    """The key builder groups rows exactly when their values are near 2**31,
    where a base-(max + 1) key over all nine columns would overflow."""
    rng = np.random.default_rng(30)
    top = 2**31 - 1
    for cols in (1, 2, 9):
        base = rng.integers(top - 3, top + 1, size=(7, cols))
        base[1] = base[0]
        base[1, -1] -= 1  # rows that differ only in their last column
        base[2] = base[0]
        base[2, 0] -= 1  # ... or only in their first
        keys = base[rng.integers(0, 7, size=50)]
        first, inverse = relnet._distinct_rows(keys)
        want = np.unique(keys, axis=0)
        assert np.array_equal(keys[first], want)  # rows in lexicographic order
        assert np.array_equal(keys[first][inverse], keys)


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------

def test_training_reduces_loss_and_is_deterministic():
    rng = np.random.default_rng(5)
    data = synth_batch(rng, 60)
    cfg = TrainConfig(lr_initial=0.01, lr_final=0.005, epochs=8, batch_size=16, seed=9)
    p0 = init_params(TINY, seed=6)
    trained, hist = train(p0, data, cfg)
    assert [h.epoch for h in hist] == list(range(8))
    assert hist[-1].loss < hist[0].loss
    assert 0.0 <= hist[-1].train_acc <= 1.0
    # The input parameters are not mutated.
    np.testing.assert_array_equal(p0.tensors["fc1_w"], init_params(TINY, 6).tensors["fc1_w"])
    trained2, hist2 = train(p0, data, cfg)
    assert hist2 == hist
    for name in trained.tensors:
        np.testing.assert_array_equal(trained.tensors[name], trained2.tensors[name])


_TRAIN_AND_HASH = """
import hashlib
from leakscan import relnet, scenegen
from leakscan.pipeline import COMPACT_RELNET_CONFIG
pairs = [p.sample for p in scenegen.gen_pair_dataset(scenegen.GenConfig(seed=5), 150)]
params, _ = relnet.train(relnet.init_params(COMPACT_RELNET_CONFIG, seed=0), pairs,
                         relnet.TrainConfig(epochs=2, batch_size=32, seed=0))
digest = hashlib.sha256()
for name in sorted(params.tensors):
    digest.update(params.tensors[name].tobytes())
print(digest.hexdigest())
"""


def _hashes_at_1_2_4_blas_threads(script):
    """The stdout of ``script`` run twice at one BLAS thread, then at two
    and four, each in a fresh interpreter with this checkout's package."""
    src = str(Path(relnet.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    digests = []
    for threads in ("1", "1", "2", "4"):
        env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS=threads)
        run = subprocess.run([sys.executable, "-c", script], env=env,
                             capture_output=True, text=True, check=True)
        digests.append(run.stdout.strip())
    return digests


def test_trained_weights_bit_identical_at_1_2_4_blas_threads():
    """A compact net trained on 150 pairs (its last batch has 22) has the
    same weight bytes twice at one BLAS thread and at two and four.  Its
    conv2 weight gradient reduces over hundreds of table rows, more than
    OpenBLAS sums the same way at every thread count in one product."""
    digests = _hashes_at_1_2_4_blas_threads(_TRAIN_AND_HASH)
    assert len(digests[0]) == 64
    assert len(set(digests)) == 1, digests


_PREDICT_AND_HASH = """
import hashlib
import numpy as np
from leakscan import relnet, scenegen
cfg = scenegen.GenConfig(tanks=(1, 2), blobs=(3, 6), distractor_prob=0.5, seed=39)
rasters, vecs = [], []
index = 0
while sum(map(len, rasters)) < 260:
    scene = scenegen.gen_scene(cfg, index)
    batch = relnet.scene_pair_batch(scene.objects, scene.image_width, scene.image_height)
    rasters.append(batch.rasters)
    vecs.append(batch.vecs)
    index += 1
rng = np.random.default_rng(40)
# Random three-level masks repeat few windows.
rasters.append([rng.choice([0.0, 0.5, 1.0], size=(28, 28), p=rng.dirichlet(np.ones(3)))
                for _ in range(40)])
vecs.append(np.concatenate(vecs)[:40])
samples = relnet.PairBatch(np.concatenate(rasters), np.concatenate(vecs))
params = relnet.init_params(relnet.RelNetConfig(), seed=41)
print(hashlib.sha256(relnet.predict_batch(params, samples)[1].tobytes()).hexdigest())
"""


def test_inference_bit_identical_at_1_2_4_blas_threads():
    """Paper-size probabilities of 324 pairs (two chunks), 284 scene pairs
    and 40 random three-level masks, are the same bytes twice at one
    BLAS thread and at two and four: conv2's per-position products and the
    FC layers round alike at every thread count."""
    digests = _hashes_at_1_2_4_blas_threads(_PREDICT_AND_HASH)
    assert len(digests[0]) == 64
    assert len(set(digests)) == 1, digests


def test_zero_lr_leaves_pure_weight_decay():
    rng = np.random.default_rng(6)
    data = synth_batch(rng, 10)
    cfg = TrainConfig(
        lr_initial=0.0, lr_final=0.0, epochs=3, batch_size=4, weight_decay=1e-3, seed=0
    )
    p0 = init_params(TINY, seed=7)
    trained, _ = train(p0, data, cfg)
    steps_per_epoch = -(-len(data) // cfg.batch_size)
    n_steps = cfg.epochs * steps_per_epoch
    for name, p in p0.tensors.items():
        expect = p.copy()
        for _ in range(n_steps):
            expect *= 1.0 - cfg.weight_decay  # same op sequence, bit-identical
        np.testing.assert_array_equal(trained.tensors[name], expect)


def test_training_input_checks():
    rng = np.random.default_rng(7)
    params = init_params(TINY, seed=0)
    cfg = TrainConfig(epochs=1)
    with pytest.raises(DataError, match="empty"):
        train(params, [], cfg)
    one_class = [s for s in synth_batch(rng, 30) if s.label is RelationLabel.NEARBY]
    with pytest.raises(DataError, match="2 distinct labels"):
        train(params, one_class[:4], cfg)


def test_training_diverges_to_numeric_error():
    rng = np.random.default_rng(8)
    data = synth_batch(rng, 12)
    cfg = TrainConfig(lr_initial=1e9, lr_final=1e9, epochs=5, batch_size=4, seed=0)
    with pytest.raises(NumericError, match="non-finite loss"):
        with np.errstate(all="ignore"):
            train(init_params(TINY, seed=8), data, cfg)


# ---------------------------------------------------------------------------
# Weight files
# ---------------------------------------------------------------------------

def test_weight_file_round_trip_bit_exact(tmp_path):
    params = init_params(TINY, seed=11)
    path = tmp_path / "w.json"
    save_params(params, str(path))
    assert [p.name for p in tmp_path.iterdir()] == ["w.json"]  # no .npz suffix added
    again = load_params(str(path))
    assert again.config == params.config
    for name in params.tensors:
        np.testing.assert_array_equal(again.tensors[name], params.tensors[name])
        assert again.tensors[name].flags.writeable


def _npz_members(params, path) -> dict[str, np.ndarray]:
    """The members save_params writes, as a name -> array dict."""
    save_params(params, str(path))
    with np.load(path) as npz:
        return {name: npz[name] for name in npz.files}


def _npy(arr=None, header=None, data=b"") -> bytes:
    """.npy bytes of an array, or of a hand-made header followed by data."""
    buf = io.BytesIO()
    if header is None:
        np.save(buf, arr)
    else:
        np.lib.format.write_array_header_1_0(buf, header)
        buf.write(data)
    return buf.getvalue()


def _write_zip(path, members: dict, compression=zipfile.ZIP_STORED) -> str:
    with zipfile.ZipFile(path, "w", compression) as zf:
        for name, data in members.items():
            zf.writestr(name + ".npy", data)
    return str(path)


def test_weight_file_errors(tmp_path):
    members = _npz_members(init_params(TINY, seed=12), tmp_path / "w.npz")
    config = json.loads(str(members["config"]))
    fc2_w = members["fc2_w"]
    cases = [
        ("version", {"version": np.int64(99)}, "version mismatch: expected 1, got 99"),
        ("float_version", {"version": np.float64(1.0)}, "version: expected dtype <i8"),
        ("no_version", {"version": None}, "version: missing from weight file"),
        ("no_config", {"config": None}, "config: missing from weight file"),
        ("shape", {"fc2_w": np.zeros((1, 1))}, "tensor fc2_w: shape mismatch"),
        ("missing", {"head_w": None}, "tensor head_w: missing from weight file"),
        ("int", {"fc2_w": fc2_w.astype(np.int64)}, "tensor fc2_w: expected dtype <f8"),
        ("str", {"fc2_w": fc2_w.astype(str)}, "tensor fc2_w: expected dtype <f8"),
        ("complex", {"fc2_w": fc2_w.astype(complex)}, "tensor fc2_w: expected dtype"),
        ("float32", {"fc2_w": fc2_w.astype(np.float32)}, "tensor fc2_w: expected dtype"),
        ("fortran", {"fc2_w": np.asfortranarray(fc2_w)},
         "tensor fc2_w: expected C order, got Fortran order"),
        ("float_field", {"config": json.dumps({**config, "conv1_filters": 3.0})},
         "config field conv1_filters: expected an integer"),
        ("bool_field", {"config": json.dumps({**config, "fc1_units": True})},
         "config field fc1_units: expected an integer"),
        ("unknown_field", {"config": json.dumps({**config, "depth": 3})},
         "bad config in weight file"),
        ("bad_value", {"config": json.dumps({**config, "grid": 7})},
         "bad config in weight file: grid must be even"),
        ("pos_dim", {"config": json.dumps({**config, "pos_dim": 7})},
         "bad config in weight file: pos_dim must be 8, got 7"),
        ("cls_dim", {"config": json.dumps({**config, "cls_dim": 9})},
         "bad config in weight file: cls_dim must be 8, got 9"),
        ("n_classes", {"config": json.dumps({**config, "n_classes": 2})},
         "bad config in weight file: n_classes must be 3, got 2"),
        ("list_config", {"config": "[12]"}, "bad config in weight file"),
        ("text_config", {"config": "{not json"}, "corrupt weight file"),
        ("deep_config", {"config": "[" * 100_000}, "corrupt weight file .*recursion"),
        ("array_config", {"config": np.array(["{}", "{}"])}, "config: shape mismatch"),
        ("nan", {"head_b": np.full(3, np.nan)}, "tensor head_b: non-finite values"),
    ]
    for tag, changes, message in cases:
        doc = {k: v for k, v in {**members, **changes}.items() if v is not None}
        p = tmp_path / f"{tag}.npz"
        with open(p, "wb") as f:
            np.savez(f, **doc)
        with pytest.raises(DataError, match=message):
            load_params(str(p))

    raw = {name: _npy(arr) for name, arr in members.items()}
    with pytest.raises(DataError, match="compressed or encrypted member"):
        load_params(_write_zip(tmp_path / "deflated.npz", raw, zipfile.ZIP_DEFLATED))

    old = tmp_path / "old.json"  # a weight file in the earlier JSON format
    old.write_text(json.dumps({"version": 1, "config": config, "tensors": {}}))
    with pytest.raises(DataError, match="corrupt weight file .*: not a .npz archive"):
        load_params(str(old))
    with pytest.raises(FileNotFoundError):
        load_params(str(tmp_path / "absent.npz"))


def test_weight_file_fuzz_raises_only_data_error(tmp_path):
    """Truncated, byte-flipped and cut archives load unchanged or raise DataError."""
    params = init_params(TINY, seed=13)
    path = tmp_path / "w.npz"
    save_params(params, str(path))
    good = path.read_bytes()
    rng = np.random.default_rng(14)
    loaded = 0
    for trial in range(600):
        data = bytearray(good)
        at = int(rng.integers(0, len(data)))
        if trial % 3 == 0:
            del data[at:]
        elif trial % 3 == 1:
            for _ in range(int(rng.integers(1, 4))):
                data[int(rng.integers(0, len(data)))] ^= int(rng.integers(1, 256))
        else:
            del data[at : at + int(rng.integers(1, 64))]
        path.write_bytes(data)
        try:
            again = load_params(str(path))
        except DataError:
            continue
        loaded += 1  # the flips hit bytes nothing checks, such as timestamps
        assert again.config == TINY
        for name, t in params.tensors.items():
            assert np.array_equal(again.tensors[name], t)
    assert loaded < 60

    # 200 bytes whose header claims 2**37 floats (1 TiB), which np.load would
    # try to allocate.
    with np.load(io.BytesIO(good)) as npz:
        raw = {name: _npy(npz[name]) for name in npz.files}
    huge = {"descr": "<f8", "fortran_order": False, "shape": (2**37,)}
    raw["fc2_b"] = _npy(header=huge, data=bytes(72))
    with pytest.raises(DataError, match=r"tensor fc2_b: shape mismatch.*\(137438953472,\)"):
        load_params(_write_zip(path, raw))


def test_weight_file_memory_bounded_by_archive(tmp_path):
    """A config implying 19 GB of conv1 weights and a zip directory claiming a
    4 GB member fail without allocating either."""
    big = RelNetConfig(conv1_filters=2**28)
    header = {
        "descr": "<f8",
        "fortran_order": False,
        "shape": big.tensor_shapes()["conv1_w"],
    }
    members = {
        "version": _npy(np.int64(1)),
        "config": _npy(np.array(json.dumps(dataclasses.asdict(big)))),
        "conv1_w": _npy(header=header, data=bytes(200)),
    }
    path = tmp_path / "w.npz"
    data = bytearray(Path(_write_zip(path, members)).read_bytes())
    entry = data.rindex(b"PK\x01\x02")  # central directory entry of conv1_w
    struct.pack_into("<II", data, entry + 20, 0xFFFFFFF0, 0xFFFFFFF0)
    path.write_bytes(data)
    tracemalloc.start()
    try:
        with pytest.raises(DataError, match="corrupt weight file"):
            load_params(str(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**24


def test_epoch_stats_is_plain_record():
    s = EpochStats(epoch=0, loss=1.0, train_acc=0.5)
    assert s == EpochStats(epoch=0, loss=1.0, train_acc=0.5)
