"""Spatial-relation classifier for object pairs, trained from scratch.

The network maps a rasterized pair mask (subject drawn at 1.0, reference at
0.5, on a shared union-box frame) plus a position vector and a class vector
to a distribution over {above, nearby, other}.  Two conv+pool stages reduce
the mask 28x28x1 -> 14x14xF -> 3x3xF; one fully-connected layer embeds the
position/class vectors, a second mixes that embedding with the flattened
mask features, and a linear head feeds softmax.

Each conv+pool stage is one fused layer that runs conv -> max over pool
phases -> ReLU: the 3x3 convolution (im2col + GEMM) is evaluated separately
for each of the four 2x2 pool phases, the phase maps are folded with an
elementwise max, and ReLU is applied to the pooled map.  This equals
conv -> ReLU -> max-pool without building the full-resolution conv output.
Each pooled gradient goes to the first phase in row-major window order that
attains the max, so ties go to the first phase, and to no phase where ReLU
is inactive.  That phase, or none, is the recorded phase of a pooled
value, as Caffe's max-pooling layer records its argmax; the forward pass
returns a function that finds it, which only the backward pass calls, so
inference does not pay for it.

conv1 reads a one-channel raster with only three levels (0, 0.5, 1), and
each of its pooled cells depends only on one 4x4 window of the padded
raster, so it is computed from a table: the layer runs once per distinct
window and a gather spreads the rows over the batch.  This is exact on
three-level input: every product of an input level and a weight is exact,
and the GEMM gives a row the same value whatever the other rows are (the
tests check this bit for bit against the per-phase layer), so each row is a
function of its window alone; bias, max, ReLU and the recorded phase are
elementwise on those values.  Pair samples and pair batches only admit
three-level rasters, which is what makes the table safe.

conv2 extends the table one layer up and reads conv1's table directly.
Each conv1 cell is a row of conv1's table, so each conv2 im2col row, a 3x3
window of conv1 cells, is named by the nine table indices it reads.  Rows
with equal indices hold equal inputs; the layer keys the rows of all four
pool phases by those indices and computes each distinct row once, by kernel
position: for each position k, every distinct table index in column k of
the distinct rows is multiplied once by the position's cin x filters slice
of the weights, and each row's value is the sum of its nine products in
kernel order, gathered and added in fixed blocks so the working set stays
small, plus the bias.  Background margins and polygon interiors repeat
across the pairs of a batch, so on scene rasters about half of the rows are
repeats, and a table index recurs at one position in many distinct rows:
the products number about a quarter of the distinct rows' nine slices.
This is exact for the same reason: the GEMM gives a row the same value
whatever its row-mates, as long as it has at least one (BLAS hands a
one-row product to a matrix-vector kernel that sums in another order), and
the tests check both tables bit for bit against the per-phase layer at the
network's sizes.  No pass builds conv1's pooled map (batch, 14, 14, F), the
largest array of the forward pass; only ``forward``, which returns it,
gathers it.

The backward pass works on the same tables, since the adjoint of a gather
is a sum by index.  Each pooled gradient of conv2 goes to the distinct row
its recorded phase read; summed per row, that gives G, and the weight
gradient is the rows' transpose times G.  The gradient of conv1's table is
G times conv2's weights transposed, its nine slices summed by the table
index each read.  A table row's recorded phases are its cells' phases, so
conv1's weight gradient is, per phase, that phase's windows of the table's
representatives times the table gradient where the row recorded the phase.
Nothing is built at full resolution, so a step allocates only table-sized
arrays.  A weight gradient sums over a data-dependent number of rows, and
OpenBLAS sums a long product differently at different thread counts, so
every weight-gradient product runs in fixed blocks of at most 256 rows,
added in order; the tests check that training gives the same weight bytes
at 1, 2 and 4 threads.

A scene's ordered pairs are built in one batched pass, scene_pair_batch:
the frames of all unordered pairs are computed as arrays, one
rasterize_rings call draws every object in every frame it belongs to, and
the position and class vectors are computed as arrays too.  The result is a
PairBatch, the stacked arrays predict_batch reads, so no per-pair object is
made.  Its rows are make_pair_sample's bytes, because each step repeats the
same elementwise arithmetic and both share the rasterizer.

Everything is plain numpy with hand-written backpropagation; gradients are
verified against central finite differences in the tests.  All computation
is float64 and deterministic: fixed seeds reproduce bit-identical parameters
and training histories.  Weights are saved as an uncompressed numpy .npz
archive with members version, config (JSON) and one array per tensor name.
"""

from __future__ import annotations

import enum
import json
import math
import zipfile
from collections.abc import Sequence
from dataclasses import asdict, dataclass
from functools import partial

import numpy as np

from .errors import ConfigError, DataError, NumericError, check_field_types
from .scene import (
    CLASS_DIM,
    CLASS_ORDER,
    PAIR_MARGIN,
    POSITION_DIM,
    DetectedObject,
    MaskRaster,
    class_vector,
    pair_frame,
    position_vector,
    rasterize,
    rasterize_rings,
    vertex_rings,
)

PAIR_GRID = 28
_WEIGHT_FILE_VERSION = 1


class RelationLabel(enum.Enum):
    """Pairwise spatial relation; above is directional, nearby is not."""

    ABOVE = "above"
    NEARBY = "nearby"
    OTHER = "other"

    @classmethod
    def parse(cls, s: str) -> "RelationLabel":
        for member in cls:
            if member.value == s:
                return member
        raise DataError(f"unknown relation label {s!r}")


# Ties in argmax break toward the first label in this order.
RELATION_ORDER = (RelationLabel.ABOVE, RelationLabel.NEARBY, RelationLabel.OTHER)


@dataclass(frozen=True)
class RelNetConfig:
    """Architecture hyperparameters; defaults give the full-size network.

    Both conv kernels are 3x3.  conv1 is stride 1 with same padding followed
    by a 2x2 max-pool; conv2 is stride 2 valid followed by a 2x2 max-pool,
    which takes the default 28 grid through 14x14 to 3x3 feature maps.
    """

    grid: int = PAIR_GRID
    conv1_filters: int = 256
    conv2_filters: int = 256
    fc1_units: int = 1024
    fc2_units: int = 256
    pos_dim: int = POSITION_DIM
    cls_dim: int = CLASS_DIM
    n_classes: int = len(RELATION_ORDER)

    def __post_init__(self):
        check_field_types(self)
        if self.grid < 8 or self.grid % 2:
            raise ConfigError(f"grid must be even and >= 8, got {self.grid}")
        if self.conv2_out < 2 or self.conv2_out % 2:
            raise ConfigError(
                f"grid {self.grid} gives odd conv2 output {self.conv2_out}; "
                "the second pool needs an even size"
            )
        for name in ("conv1_filters", "conv2_filters", "fc1_units", "fc2_units"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        for name, want in (("pos_dim", POSITION_DIM), ("cls_dim", CLASS_DIM),
                           ("n_classes", len(RELATION_ORDER))):
            if getattr(self, name) != want:  # fixed by the sample encoding and labels
                raise ConfigError(f"{name} must be {want}, got {getattr(self, name)}")

    @property
    def pool1_size(self) -> int:
        return self.grid // 2

    @property
    def conv2_out(self) -> int:
        return (self.pool1_size - 3) // 2 + 1

    @property
    def pool2_size(self) -> int:
        return self.conv2_out // 2

    @property
    def flat_dim(self) -> int:
        return self.pool2_size * self.pool2_size * self.conv2_filters

    @property
    def vec_dim(self) -> int:
        return self.pos_dim + self.cls_dim

    @property
    def fc2_in(self) -> int:
        return self.fc1_units + self.flat_dim

    def tensor_shapes(self) -> dict[str, tuple[int, ...]]:
        return {
            "conv1_w": (3, 3, 1, self.conv1_filters),
            "conv1_b": (self.conv1_filters,),
            "conv2_w": (3, 3, self.conv1_filters, self.conv2_filters),
            "conv2_b": (self.conv2_filters,),
            "fc1_w": (self.vec_dim, self.fc1_units),
            "fc1_b": (self.fc1_units,),
            "fc2_w": (self.fc2_in, self.fc2_units),
            "fc2_b": (self.fc2_units,),
            "head_w": (self.fc2_units, self.n_classes),
            "head_b": (self.n_classes,),
        }


@dataclass
class RelNetParams:
    """All learnable tensors of the network, keyed to a config."""

    config: RelNetConfig
    tensors: dict[str, np.ndarray]

    def __post_init__(self):
        expected = self.config.tensor_shapes()
        if set(self.tensors) != set(expected):
            raise DataError(
                f"tensor set mismatch: {sorted(self.tensors)} vs {sorted(expected)}"
            )
        for name, shape in expected.items():
            t = np.ascontiguousarray(self.tensors[name], dtype=np.float64)
            if t.shape != shape:
                raise DataError(
                    f"tensor {name}: shape mismatch, expected {shape}, got {t.shape}"
                )
            if not np.all(np.isfinite(t)):
                raise DataError(f"tensor {name}: non-finite values")
            self.tensors[name] = t

    def copy(self) -> "RelNetParams":
        return RelNetParams(self.config, {k: v.copy() for k, v in self.tensors.items()})


@dataclass(frozen=True)
class RelNetActivations:
    """Intermediate results of one forward pass."""

    m_ctr1: np.ndarray  # after conv1 + pool
    m_ctr2: np.ndarray  # after conv2 + pool
    v1: np.ndarray
    v2: np.ndarray
    logits: np.ndarray
    y: np.ndarray


@dataclass(frozen=True, eq=False)
class PairSample:
    """One relation-classification unit: pair raster + feature vectors."""

    raster: MaskRaster
    v_poi: np.ndarray
    v_cls: np.ndarray
    label: RelationLabel | None = None

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PairSample)
            and self.raster == other.raster
            and np.array_equal(self.v_poi, other.v_poi)
            and np.array_equal(self.v_cls, other.v_cls)
            and self.label is other.label
        )

    def __post_init__(self):
        if not np.isin(self.raster.values, (0.0, 0.5, 1.0)).all():
            raise DataError("pair raster values must be in {0, 0.5, 1.0}")
        for name, vec in (("v_poi", self.v_poi), ("v_cls", self.v_cls)):
            v = np.asarray(vec, dtype=np.float64)
            if not np.all(np.isfinite(v)):
                raise DataError(f"{name} contains non-finite values")
            v.setflags(write=False)
            object.__setattr__(self, name, v)

    def feature_vector(self) -> np.ndarray:
        return np.concatenate([self.v_poi, self.v_cls])


@dataclass(frozen=True)
class TrainConfig:
    """SGD settings: linear lr decay, momentum, decoupled weight decay."""

    lr_initial: float = 0.01
    lr_final: float = 0.001
    epochs: int = 30
    batch_size: int = 32
    momentum: float = 0.9
    weight_decay: float = 1e-4
    seed: int = 0

    def __post_init__(self):
        check_field_types(self)
        if self.lr_initial < 0 or self.lr_final < 0:
            raise ConfigError("learning rates must be >= 0")
        if self.epochs < 1 or self.batch_size < 1:
            raise ConfigError("epochs and batch_size must be >= 1")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        if not (0.0 <= self.momentum < 1.0):
            raise ConfigError("momentum must be in [0, 1)")
        if self.weight_decay < 0:
            raise ConfigError("weight_decay must be >= 0")

    def lr_at(self, epoch: int) -> float:
        if self.epochs == 1:
            return self.lr_initial
        frac = epoch / (self.epochs - 1)
        return self.lr_initial + (self.lr_final - self.lr_initial) * frac


@dataclass(frozen=True)
class EpochStats:
    epoch: int
    loss: float
    train_acc: float


# ---------------------------------------------------------------------------
# Pair construction
# ---------------------------------------------------------------------------

def make_pair_sample(
    subject: DetectedObject,
    reference: DetectedObject,
    img_w: float,
    img_h: float,
    label: RelationLabel | None = None,
    grid: int = PAIR_GRID,
) -> PairSample:
    """Render an ordered object pair into one channel plus feature vectors.

    Subject cells are 1.0, reference cells 0.5, overlap 1.0, background 0.0;
    both polygons are rasterized in their union bbox grown by a 10% margin.
    """
    frame = pair_frame(subject.bbox, reference.bbox)
    sub = rasterize(subject.polygon, frame, grid, grid)
    ref = rasterize(reference.polygon, frame, grid, grid)
    return PairSample(
        raster=MaskRaster(grid, grid, np.maximum(sub.values, 0.5 * ref.values)),
        v_poi=position_vector(subject, reference, img_w, img_h),
        v_cls=class_vector(subject.label, reference.label),
        label=label,
    )


@dataclass(frozen=True, eq=False)
class PairBatch:
    """Unlabeled pair samples stacked as arrays, as predict_batch reads them.

    ``rasters`` is (n, grid, grid) with values in {0, 0.5, 1.0} and ``vecs``
    is (n, 16), each row a sample's v_poi followed by its v_cls; ``len()``
    is n.  Both are read-only after construction.
    """

    rasters: np.ndarray
    vecs: np.ndarray

    def __post_init__(self):
        rasters = np.asarray(self.rasters, dtype=np.float64)
        vecs = np.asarray(self.vecs, dtype=np.float64)
        if rasters.ndim != 3 or vecs.shape != (len(rasters), POSITION_DIM + CLASS_DIM):
            raise DataError(
                f"pair batch shapes {rasters.shape} and {vecs.shape} do not "
                f"match (n, grid, grid) and (n, {POSITION_DIM + CLASS_DIM})"
            )
        if not np.isin(rasters, (0.0, 0.5, 1.0)).all():
            raise DataError("pair raster values must be in {0, 0.5, 1.0}")
        if not np.all(np.isfinite(vecs)):
            raise DataError("pair feature vectors contain non-finite values")
        for name, v in (("rasters", rasters), ("vecs", vecs)):
            v.setflags(write=False)
            object.__setattr__(self, name, v)

    def __len__(self) -> int:
        return len(self.rasters)

    def __getitem__(self, rows: slice) -> "PairBatch":
        return PairBatch(self.rasters[rows], self.vecs[rows])


_LEVELS = np.array([0.0, 0.5, 1.0, 1.0])  # pair raster value by 2 * subject + reference


def scene_pair_batch(
    objects: Sequence[DetectedObject], img_w: float, img_h: float, grid: int = PAIR_GRID
) -> PairBatch:
    """make_pair_sample for every ordered pair of distinct objects, unlabeled,
    as one PairBatch with the same bytes row for row.

    The order is subject outer, reference inner: (0, 1), (0, 2), ...,
    (1, 0), (1, 2), ...  pair_frame is symmetric, so each unordered pair's
    frame is computed once, with pair_frame's elementwise arithmetic on
    arrays, and both objects are drawn in it by one rasterize_rings call
    over all frames.  The position vectors are position_vector's arithmetic
    on arrays; each log ratio is a math.log call, as there, since np.log
    may round differently.
    """
    n = len(objects)
    if n < 2:
        return PairBatch(np.zeros((0, grid, grid)), np.zeros((0, POSITION_DIM + CLASS_DIM)))
    if img_w <= 0 or img_h <= 0:
        raise DataError("image dimensions must be positive")
    boxes = np.array([[o.bbox.x1, o.bbox.y1, o.bbox.x2, o.bbox.y2] for o in objects])
    # Frames of the unordered pairs i < j, as pair_frame computes them.
    i, j = np.triu_indices(n, 1)
    lo = np.minimum(boxes[i, :2], boxes[j, :2])
    hi = np.maximum(boxes[i, 2:], boxes[j, 2:])
    margin = PAIR_MARGIN * (hi - lo)
    frames = np.concatenate([lo - margin, hi + margin], axis=1)
    # Mask slot[a, b] is object a drawn in the frame of {a, b}.
    masks = rasterize_rings(
        vertex_rings([o.polygon for o in objects])[np.concatenate([i, j])],
        np.concatenate([frames, frames]),
        grid,
        grid,
    )
    slot = np.zeros((n, n), dtype=np.intp)
    slot[i, j] = np.arange(len(i))
    slot[j, i] = len(i) + np.arange(len(i))
    s, r = np.nonzero(~np.eye(n, dtype=bool))  # subject outer, reference inner
    masks = masks.view(np.uint8)
    rasters = _LEVELS[2 * masks[slot[s, r]] + masks[slot[r, s]]]
    # Position vectors: centers, log size ratios and center offsets.
    centers = 0.5 * (boxes[:, :2] + boxes[:, 2:])
    sizes = boxes[:, 2:] - boxes[:, :2]
    scale = np.array([img_w, img_h])
    ratios = (sizes[s] / sizes[r]).tolist()
    vecs = np.zeros((len(s), POSITION_DIM + CLASS_DIM))
    vecs[:, 0:2] = centers[s] / scale
    vecs[:, 2:4] = centers[r] / scale
    vecs[:, 4:6] = [[math.log(x), math.log(y)] for x, y in ratios]
    vecs[:, 6:8] = (centers[s] - centers[r]) / scale
    if not np.all(np.isfinite(vecs)):
        raise DataError("non-finite position vector")
    # Class vectors: the two one-hot blocks.
    labels = np.array([CLASS_ORDER.index(o.label) for o in objects])
    rows = np.arange(len(s))
    vecs[rows, POSITION_DIM + labels[s]] = 1.0
    vecs[rows, POSITION_DIM + len(CLASS_ORDER) + labels[r]] = 1.0
    return PairBatch(rasters, vecs)


# ---------------------------------------------------------------------------
# Layers (batched, NHWC)
# ---------------------------------------------------------------------------

_POOL_PHASES = ((0, 0), (0, 1), (1, 0), (1, 1))  # (di, dj), row-major
_NO_PHASE = 4  # recorded where ReLU is inactive: no phase gets the gradient


def _phase_max_relu(rows, filters, fill_phase):
    """ReLU of the max over the four pool phases of the conv output.

    ``fill_phase(phase, out)`` writes the (rows, filters) map of phase
    (di, dj) = _POOL_PHASES[phase], bias included, into ``out``; one buffer
    serves phases 1 to 3.
    """
    pooled = np.empty((rows, filters))
    phase_out = np.empty_like(pooled)
    for phase in range(len(_POOL_PHASES)):
        out = pooled if phase == 0 else phase_out
        fill_phase(phase, out)
        if phase:
            np.maximum(pooled, phase_out, out=pooled)
    np.maximum(pooled, 0.0, out=pooled)
    return pooled


def _recorded_phases(pooled, fill_phase):
    """Per value of ``pooled``, which _phase_max_relu made with
    ``fill_phase``, the phase that gets its gradient: the first phase in
    row-major window order that attains the max, or _NO_PHASE where the
    ReLU output is not positive.  There the pooled value is the max itself
    and ``fill_phase`` gives the same bits again, so the phase is the number
    of phases before the first whose map equals it; only the last phase is
    left when no other matched."""
    settled = ~(pooled > 0)
    phases = settled * np.uint8(_NO_PHASE)
    phase_out = np.empty_like(pooled)
    for phase in range(len(_POOL_PHASES) - 1):
        fill_phase(phase, phase_out)
        settled |= phase_out == pooled
        phases += ~settled
    return phases


def _distinct_rows(keys):
    """``(first, inverse)`` of the distinct rows of ``keys``, an int64
    (rows, k) array of values in [0, 2**31): ``keys[first]`` are the
    distinct rows, once each, and ``keys[first][inverse]`` is ``keys``.

    Columns are merged two at a time, ``rank * (col.max() + 1) + col``, and
    the merged key is re-ranked after each step, so a key stays below
    max(2**62, rows * 2**31) whatever the number of columns.
    """
    rank = keys[:, 0]
    for k in range(1, keys.shape[1]):
        col = keys[:, k]
        rank = rank * (int(col.max()) + 1) + col
        if k < keys.shape[1] - 1:
            rank = np.unique(rank, return_inverse=True)[1]
    _, first, inverse = np.unique(rank, return_index=True, return_inverse=True)
    return first, inverse


def _segment_sum(index, values, n):
    """(n, f) sums of the entries of ``values`` (m, f) by row index, which
    ``index`` gives per row (m, 1) or per entry (m, f).  Each sum adds in
    the entries' order from +0.0, so no sum is -0.0."""
    f = values.shape[1]
    flat = (index * f + np.arange(f)).ravel()
    return np.bincount(flat, values.ravel(), n * f).reshape(n, f)


def _weight_grad(a, g, index=None):
    """``a.T @ g``, or with an index ``a[index].T @ g`` with the rows of
    ``a[index]`` flattened, summed over in-order blocks of _GRAD_BLOCK rows:
    a fixed split whatever the thread count (see the module docstring)."""
    total = None
    for lo in range(0, len(g), _GRAD_BLOCK):
        hi = min(lo + _GRAD_BLOCK, len(g))
        block = a[lo:hi] if index is None else a[index[lo:hi]].reshape(hi - lo, -1)
        part = block.T @ g[lo:hi]
        if total is None:
            total = part
        else:
            total += part
    return total


def _conv1_pool_forward(x, w, b):
    """conv1 -> pool -> ReLU (3x3, stride 1, same padding) for three-level
    rasters, evaluated once per distinct input window.

    Pooled cell (i, j) reads only the 4x4 window of the padded raster at
    rows 2i..2i+3 and columns 2j..2j+3.  Every window is coded in base 3
    (16 digits of 2x) and the per-phase layer runs on one representative of
    each distinct code.  Returns that table, each cell's table index (an
    int64 (batch, h/2, w/2) array of values below 3**16, equal for two cells
    exactly when their windows are) and the cache ``(windows, phases)`` that
    _conv1_pool_backward reads: the representative windows and a function
    that returns each table row's recorded phases.  The pooled map is
    ``table[cells]``.
    """
    batch, h, wd, _ = x.shape
    filters = w.shape[-1]
    xp = np.pad(x, ((0, 0), (1, 1), (1, 1), (0, 0)))
    ph, pw = h // 2, wd // 2
    # A window is 2x2 aligned blocks of 2x2 cells: code the blocks (base 81),
    # then each window from its four blocks.
    d = (2.0 * xp[..., 0]).astype(np.int32)
    blocks = 27 * d[:, 0::2, 0::2] + 9 * d[:, 0::2, 1::2]
    blocks += 3 * d[:, 1::2, 0::2] + d[:, 1::2, 1::2]
    codes = ((81 * blocks[:, :-1, :-1] + blocks[:, :-1, 1:]) * 81 + blocks[:, 1:, :-1]) * 81
    codes += blocks[:, 1:, 1:]
    _, first, inverse = np.unique(codes.ravel(), return_index=True, return_inverse=True)
    s0, s1, s2, s3 = xp.strides
    windows = np.lib.stride_tricks.as_strided(
        xp, shape=(batch, ph, pw, 4, 4), strides=(s0, 2 * s1, 2 * s2, s1, s2)
    )
    rep = windows[np.unravel_index(first, (batch, ph, pw))]
    w_mat = w.reshape(9, filters)

    def fill_phase(phase, out):
        di, dj = _POOL_PHASES[phase]
        np.matmul(rep[:, di : di + 3, dj : dj + 3].reshape(len(first), 9), w_mat, out=out)
        out += b

    table = _phase_max_relu(len(first), filters, fill_phase)
    phases = partial(_recorded_phases, table, fill_phase)
    return table, inverse.reshape(batch, ph, pw), (rep, phases)


def _conv1_pool_backward(dtable, w, cache):
    """Gradients of conv1's weights and bias from ``dtable``, the gradient of
    its table.  A table row's recorded phases are its cells' phases, so each
    phase's share of ``dtable`` meets that phase's 3x3 windows of the table's
    representatives in one product."""
    rep, recorded = cache
    phases = recorded()
    dw = db = 0.0
    for phase, (di, dj) in enumerate(_POOL_PHASES):
        g = np.where(phases == phase, dtable, 0.0)
        dw = dw + _weight_grad(rep[:, di : di + 3, dj : dj + 3].reshape(len(rep), 9), g)
        db = db + g.sum(axis=0)
    return dw.reshape(w.shape), db


_CONV2_CHUNK = 1024  # conv2 table rows per block of the per-position adds
_GRAD_BLOCK = 256  # table rows per weight-gradient product
_PREDICT_CHUNK = 256  # samples per predict_batch forward pass


def _conv2_pool_forward(table1, cells, w, b):
    """conv2 -> pool -> ReLU (3x3, stride 2, no padding), evaluated once per
    distinct im2col row, by kernel position.

    ``table1`` and ``cells`` are conv1's table and per-cell table index from
    _conv1_pool_forward, so conv1's pooled map is ``table1[cells]``.  Pool
    phase (di, dj) puts conv output (2i + di, 2j + dj) at pooled cell
    (i, j); its im2col row is the 3x3 window of that map there, so it is
    named by the nine table indices of that window.  The rows of all four
    phases are keyed by those indices alone, and each phase map is a gather
    from the table of distinct rows.  That table is the sum over kernel
    positions k = 0..8, in that order, of ``table1[u] @ w[k]`` over the
    distinct indices u in column k of the rows, each multiplied once and
    gathered back to the rows in blocks of _CONV2_CHUNK; the bias is added
    last.  No product has a single row: BLAS hands that to a matrix-vector
    kernel, which sums in another order than the matrix kernel.
    Returns the pooled map and the cache ``(rows, inverse, phases)`` that
    _conv2_pool_backward reads: the distinct rows as table indices, each
    phase's row per pooled cell and a function that returns each cell's
    recorded phases.
    """
    batch, h, wd = cells.shape
    filters = w.shape[-1]
    ph, pw = ((h - 3) // 2 + 1) // 2, ((wd - 3) // 2 + 1) // 2
    # keys[di, dj, n, i, j, ki, kj]: table index of cell (n, 4i + 2di + ki, 4j + 2dj + kj).
    c0, c1, c2 = cells.strides
    keys = np.lib.stride_tricks.as_strided(
        cells,
        shape=(2, 2, batch, ph, pw, 3, 3),
        strides=(2 * c1, 2 * c2, c0, 4 * c1, 4 * c2, c1, c2),
    ).reshape(-1, 9)
    first, inverse = _distinct_rows(keys)
    # A lone distinct row is kept twice, so that no product of the
    # backward pass has a single row either.
    rows = keys[np.resize(first, max(len(first), 2))]
    w_k = w.reshape(9, -1, filters)
    table = np.empty((len(rows), filters))
    used = np.zeros(len(table1), dtype=np.intp)
    for k in range(9):
        # The distinct indices of column k and each row's place among them.
        col = rows[:, k]
        used[col] = 1
        distinct = np.flatnonzero(used)
        place = (np.cumsum(used) - 1)[col]
        used[distinct] = 0
        # A lone index is multiplied twice: see the docstring.
        term = table1[np.resize(distinct, max(len(distinct), 2))] @ w_k[k]
        if k == 0:
            np.take(term, place, axis=0, out=table)
        else:
            for lo in range(0, len(rows), _CONV2_CHUNK):
                table[lo : lo + _CONV2_CHUNK] += term[place[lo : lo + _CONV2_CHUNK]]
    table += b
    inverse = inverse.reshape(4, batch * ph * pw)

    def fill_phase(phase, out):
        np.take(table, inverse[phase], axis=0, out=out, mode="clip")

    pooled = _phase_max_relu(batch * ph * pw, filters, fill_phase)
    phases = partial(_recorded_phases, pooled, fill_phase)
    return pooled.reshape(batch, ph, pw, filters), (rows, inverse, phases)


def _conv2_pool_backward(dy, table1, w, cache):
    """Gradients of conv2's weights and bias and of conv1's table ``table1``
    from the pooled gradient ``dy`` and the forward pass's cache.

    Each pooled gradient goes to the distinct row its recorded phase read,
    none where ReLU was inactive; summed per row, that is G (rows, filters).
    The weight gradient is rows.T @ G, with the rows gathered from
    ``table1`` block by block, and the gradient of conv1's table sums the
    nine cin-wide slices of G @ w.T, each by the table index it read.
    """
    rows, inverse, recorded = cache
    phases = recorded()
    cin, filters = table1.shape[1], w.shape[-1]
    # The row each cell's recorded phase read; _NO_PHASE reads a dropped row.
    read = np.vstack([inverse, np.full_like(inverse[:1], len(rows))])
    read = np.take_along_axis(read, phases.T, axis=0).T
    g = _segment_sum(read, dy.reshape(phases.shape), len(rows) + 1)[:-1]
    drows = g @ w.reshape(9 * cin, filters).T
    dtable1 = _segment_sum(rows.reshape(-1, 1), drows.reshape(-1, cin), len(table1))
    return dtable1, _weight_grad(table1, g, rows).reshape(w.shape), g.sum(axis=0)


def _softmax(logits):
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def _forward_batch(params: RelNetParams, rasters: np.ndarray, vecs: np.ndarray):
    t = params.tensors
    table1, cells, cache1 = _conv1_pool_forward(rasters, t["conv1_w"], t["conv1_b"])
    m2, cache2 = _conv2_pool_forward(table1, cells, t["conv2_w"], t["conv2_b"])
    flat = m2.reshape(m2.shape[0], -1)
    z1 = vecs @ t["fc1_w"] + t["fc1_b"]
    v1 = np.maximum(z1, 0.0)
    z = np.concatenate([v1, flat], axis=1)
    z2 = z @ t["fc2_w"] + t["fc2_b"]
    v2 = np.maximum(z2, 0.0)
    logits = v2 @ t["head_w"] + t["head_b"]
    y = _softmax(logits)
    cache = {
        "vecs": vecs,
        "table1": table1,
        "cache1": cache1,
        "cache2": cache2,
        "m2_shape": m2.shape,
        "z1": z1,
        "z": z,
        "z2": z2,
        "v2": v2,
    }
    return table1, cells, m2, v1, v2, logits, y, cache


def _backward_batch(params: RelNetParams, cache: dict, dlogits: np.ndarray):
    t = params.tensors
    grads: dict[str, np.ndarray] = {}
    grads["head_w"] = _weight_grad(cache["v2"], dlogits)
    grads["head_b"] = dlogits.sum(axis=0)
    dv2 = dlogits @ t["head_w"].T
    dz2 = dv2 * (cache["z2"] > 0)
    grads["fc2_w"] = _weight_grad(cache["z"], dz2)
    grads["fc2_b"] = dz2.sum(axis=0)
    dz = dz2 @ t["fc2_w"].T
    n_fc1 = params.config.fc1_units
    dv1 = dz[:, :n_fc1]
    dflat = dz[:, n_fc1:]
    dz1 = dv1 * (cache["z1"] > 0)
    grads["fc1_w"] = _weight_grad(cache["vecs"], dz1)
    grads["fc1_b"] = dz1.sum(axis=0)
    dm2 = dflat.reshape(cache["m2_shape"])
    dtable1, grads["conv2_w"], grads["conv2_b"] = _conv2_pool_backward(
        dm2, cache["table1"], t["conv2_w"], cache["cache2"]
    )
    grads["conv1_w"], grads["conv1_b"] = _conv1_pool_backward(
        dtable1, t["conv1_w"], cache["cache1"]
    )
    return grads


def _stack_batch(config: RelNetConfig, batch: list[PairSample] | PairBatch):
    if isinstance(batch, PairBatch):
        rasters, vecs = batch.rasters[..., None], batch.vecs
    else:
        rasters = np.stack([s.raster.values for s in batch])[..., None]
        vecs = np.stack([s.feature_vector() for s in batch])
    if rasters.shape[1:3] != (config.grid, config.grid):
        raise DataError(
            f"raster size {rasters.shape[1:3]} does not match config grid "
            f"{config.grid}"
        )
    if vecs.shape[1] != config.vec_dim:
        raise DataError(
            f"feature vector length {vecs.shape[1]} does not match config "
            f"{config.vec_dim}"
        )
    return rasters, vecs


# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------

def init_params(config: RelNetConfig, seed: int) -> RelNetParams:
    """He fan-in scaled normal init for weights, zero biases; seeded."""
    rng = np.random.default_rng(seed)
    tensors: dict[str, np.ndarray] = {}
    for name, shape in config.tensor_shapes().items():
        if name.endswith("_b"):
            tensors[name] = np.zeros(shape)
        else:
            fan_in = int(np.prod(shape[:-1]))
            tensors[name] = rng.standard_normal(shape) * np.sqrt(2.0 / fan_in)
    return RelNetParams(config, tensors)


def forward(params: RelNetParams, sample: PairSample) -> RelNetActivations:
    """Full forward pass for one sample."""
    rasters, vecs = _stack_batch(params.config, [sample])
    table1, cells, m2, v1, v2, logits, y, _ = _forward_batch(params, rasters, vecs)
    return RelNetActivations(
        m_ctr1=table1[cells[0]], m_ctr2=m2[0], v1=v1[0], v2=v2[0], logits=logits[0], y=y[0]
    )


def _loss_and_grad_batch(params: RelNetParams, batch: list[PairSample]):
    labels = np.array([RELATION_ORDER.index(s.label) for s in batch])
    rasters, vecs = _stack_batch(params.config, batch)
    *_, logits, y, cache = _forward_batch(params, rasters, vecs)
    n = len(batch)
    loss = float(-np.log(y[np.arange(n), labels]).mean())
    dlogits = y.copy()
    dlogits[np.arange(n), labels] -= 1.0
    dlogits /= n
    grads = _backward_batch(params, cache, dlogits)
    correct = int((y.argmax(axis=1) == labels).sum())
    return loss, grads, correct


def loss_and_grad(
    params: RelNetParams, batch: list[PairSample]
) -> tuple[float, RelNetParams]:
    """Mean cross-entropy over a batch and its exact parameter gradients."""
    if not batch:
        raise DataError("empty batch")
    if any(s.label is None for s in batch):
        raise DataError("loss needs labeled samples")
    loss, grads, _ = _loss_and_grad_batch(params, batch)
    return loss, RelNetParams(params.config, grads)


def train(
    params: RelNetParams,
    dataset: list[PairSample],
    cfg: TrainConfig,
) -> tuple[RelNetParams, list[EpochStats]]:
    """SGD with momentum and decoupled weight decay over a labeled dataset.

    Weight decay shrinks parameters by (1 - weight_decay) every step
    independently of the learning rate.  Shuffling, and therefore the whole
    run, is determined by cfg.seed and the dataset order.
    """
    if not dataset:
        raise DataError("empty training dataset")
    label_set = {s.label for s in dataset}
    if None in label_set:
        raise DataError("training needs labeled samples")
    if len(label_set) < 2:
        raise DataError("training needs at least 2 distinct labels")
    rng = np.random.default_rng(cfg.seed)
    work = params.copy()
    velocity = {k: np.zeros_like(v) for k, v in work.tensors.items()}
    history: list[EpochStats] = []
    n = len(dataset)
    for epoch in range(cfg.epochs):
        lr = cfg.lr_at(epoch)
        order = rng.permutation(n)
        loss_sum = 0.0
        correct_sum = 0
        for start in range(0, n, cfg.batch_size):
            batch = [dataset[i] for i in order[start : start + cfg.batch_size]]
            loss, grads, correct = _loss_and_grad_batch(work, batch)
            if not np.isfinite(loss):
                raise NumericError(
                    f"non-finite loss at epoch {epoch}; learning rate too high?"
                )
            loss_sum += loss * len(batch)
            correct_sum += correct
            for name, p in work.tensors.items():
                p *= 1.0 - cfg.weight_decay
                v = velocity[name]
                v *= cfg.momentum
                v += grads[name]
                p -= lr * v
        history.append(
            EpochStats(epoch=epoch, loss=loss_sum / n, train_acc=correct_sum / n)
        )
    return work, history


def predict_batch(
    params: RelNetParams, samples: list[PairSample] | PairBatch
) -> tuple[list[RelationLabel], np.ndarray]:
    """Most probable relation and the probabilities of each sample, in
    chunks of _PREDICT_CHUNK; ties break toward above < nearby < other.

    ``samples`` is a list of pair samples or a PairBatch, which is already
    stacked: a scene's pairs come as one, so no per-pair objects are built.
    Both give the forward pass the same arrays, so equal samples give the
    same probabilities bit for bit whichever form they come in.

    The conv layers give each sample the same values whatever its
    batch-mates, but the fully connected GEMMs may round a last bit
    differently with the batch's size and content, so a sample's
    probabilities agree with a batch of one to within about 1e-15 (the
    tests use atol=1e-12), not bit for bit.
    """
    probs = []
    for start in range(0, len(samples), _PREDICT_CHUNK):
        rasters, vecs = _stack_batch(params.config, samples[start : start + _PREDICT_CHUNK])
        probs.append(_forward_batch(params, rasters, vecs)[-2])  # y; the rest is freed
    y = np.concatenate(probs) if probs else np.zeros((0, params.config.n_classes))
    labels = [RELATION_ORDER[i] for i in y.argmax(axis=1)]
    return labels, y


# ---------------------------------------------------------------------------
# Weight files
# ---------------------------------------------------------------------------

def save_params(params: RelNetParams, path: str) -> None:
    """Write a versioned weight file, an uncompressed numpy ``.npz`` archive.

    Members: ``version`` (0-d int64), ``config`` (the RelNetConfig fields as
    a JSON string) and one C-order float64 array per name in
    ``RelNetConfig.tensor_shapes()``.  Floats round-trip bit-exactly.
    """
    version = np.int64(_WEIGHT_FILE_VERSION)
    config = json.dumps(asdict(params.config))
    with open(path, "wb") as f:  # np.savez appends .npz to a bare path
        np.savez(f, version=version, config=config, **params.tensors)


def _read_member(zf: zipfile.ZipFile, label: str, name: str, shape, dtype: str):
    """Array in stored member ``name``.npy, read only once its header gives
    ``shape``, C order and a dtype string starting with ``dtype``; reading in
    chunks bounds memory by that array, whatever the zip directory claims."""
    try:
        info = zf.getinfo(name + ".npy")
    except KeyError:
        raise DataError(f"{label}: missing from weight file") from None
    if info.compress_type != zipfile.ZIP_STORED or info.flag_bits & 1:
        raise DataError(f"{label}: compressed or encrypted member")
    with zf.open(info) as f:
        np.lib.format.read_magic(f)
        got, fortran_order, got_dtype = np.lib.format.read_array_header_1_0(f)
        if got != shape:
            raise DataError(f"{label}: shape mismatch, expected {shape}, got {got}")
        if fortran_order:
            raise DataError(f"{label}: expected C order, got Fortran order")
        if not got_dtype.str.startswith(dtype):
            raise DataError(f"{label}: expected dtype {dtype}, got {got_dtype.str}")
        nbytes = math.prod(shape) * got_dtype.itemsize
        data = bytearray()
        while len(data) < nbytes and (chunk := f.read(min(nbytes - len(data), 2**20))):
            data += chunk
    if len(data) != nbytes:
        raise DataError(f"{label}: data ends early")
    return np.frombuffer(data, dtype=got_dtype).reshape(shape)


def load_params(path: str) -> RelNetParams:
    """Read a weight file written by save_params; a malformed one raises a
    DataError that names the file."""
    with open(path, "rb") as fh:
        if not zipfile.is_zipfile(fh):
            raise DataError(f"corrupt weight file {path}: not a .npz archive")
        try:
            with zipfile.ZipFile(fh) as zf:
                version = _read_member(zf, "version", "version", (), "<i8")
                if version != _WEIGHT_FILE_VERSION:
                    raise DataError(f"version mismatch: expected {_WEIGHT_FILE_VERSION}, got {version}")
                doc = json.loads(str(_read_member(zf, "config", "config", (), "<U")))
                try:
                    config = RelNetConfig(**doc)
                except (TypeError, ConfigError) as e:
                    raise DataError(f"bad config in weight file: {e}") from None
                shapes = config.tensor_shapes().items()
                tensors = {n: _read_member(zf, f"tensor {n}", n, s, "<f8") for n, s in shapes}
        # DataError is a ValueError, so this also puts the path on the errors above
        except (zipfile.BadZipFile, EOFError, NotImplementedError, OSError,
                RecursionError, ValueError) as e:
            raise DataError(f"corrupt weight file {path}: {e}") from None
    return RelNetParams(config, tensors)
