"""Scene data model: detections, JSON ingestion and shared geometry helpers.

A Scene is the output of an upstream instance-segmentation stage: a list of
detected objects, each with a class, a confidence score, a bounding box and a
polygon outline.  Everything downstream (relation classification, rule
inference, evaluation) consumes these records.  All types are immutable after
construction and safe to share across threads.

Image coordinates follow the raster convention: x grows right, y grows down,
so "above" means smaller y.
"""

from __future__ import annotations

import enum
import json
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import DataError


class ClassLabel(enum.Enum):
    """Closed set of object classes produced by the segmentation stage."""

    SUSPECTED_AREA = "suspected_area"
    GROUND = "ground"
    OIL_STORAGE_DEVICE = "oil_storage_device"
    OTHER = "other"

    @classmethod
    def parse(cls, s: str) -> "ClassLabel":
        """Map a JSON class string to a label; unknown strings are an error."""
        for member in cls:
            if member.value == s:
                return member
        raise DataError(f"unknown class string {s!r}")


# Index of each label inside a one-hot block, fixed for reproducibility.
CLASS_ORDER = (
    ClassLabel.SUSPECTED_AREA,
    ClassLabel.GROUND,
    ClassLabel.OIL_STORAGE_DEVICE,
    ClassLabel.OTHER,
)


@dataclass(frozen=True)
class BBox:
    """Axis-aligned box in pixel coordinates, x1 < x2 and y1 < y2."""

    x1: float
    y1: float
    x2: float
    y2: float

    def __post_init__(self):
        if not (self.x1 < self.x2 and self.y1 < self.y2):
            raise DataError(
                f"degenerate bbox ({self.x1}, {self.y1}, {self.x2}, {self.y2})"
            )

    @property
    def width(self) -> float:
        return self.x2 - self.x1

    @property
    def height(self) -> float:
        return self.y2 - self.y1

    @property
    def center(self) -> tuple[float, float]:
        return (0.5 * (self.x1 + self.x2), 0.5 * (self.y1 + self.y2))

    def area(self) -> float:
        return self.width * self.height


@dataclass(frozen=True)
class PolygonMask:
    """Object outline as an ordered ring of (x, y) pixel vertices."""

    vertices: tuple[tuple[float, float], ...]

    def __post_init__(self):
        if len(self.vertices) < 3:
            raise DataError(f"polygon needs >= 3 vertices, got {len(self.vertices)}")
        for i in range(len(self.vertices)):
            if self.vertices[i] == self.vertices[i - 1]:
                raise DataError(f"polygon has repeated consecutive vertex at index {i}")

    def bbox(self) -> BBox:
        xs = [v[0] for v in self.vertices]
        ys = [v[1] for v in self.vertices]
        return BBox(min(xs), min(ys), max(xs), max(ys))


@dataclass(frozen=True, eq=False)
class MaskRaster:
    """Row-major grid of values in [0, 1]; shape (height, width)."""

    width: int
    height: int
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.shape != (self.height, self.width):
            raise DataError(
                f"raster shape {v.shape} does not match {self.height}x{self.width}"
            )
        # Written so that NaN, which fails every comparison, is rejected too.
        if v.size and not (v.min() >= 0.0 and v.max() <= 1.0):
            raise DataError("raster values outside [0, 1]")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MaskRaster)
            and self.width == other.width
            and self.height == other.height
            and np.array_equal(self.values, other.values)
        )

    def filled_fraction(self) -> float:
        return float(self.values.mean()) if self.values.size else 0.0


@dataclass(frozen=True)
class DetectedObject:
    """One segmentation detection: class, confidence, box and outline."""

    id: int
    label: ClassLabel
    confidence: float
    bbox: BBox
    polygon: PolygonMask

    def __post_init__(self):
        if not (0.0 <= self.confidence <= 1.0):
            raise DataError(f"confidence out of range: {self.confidence}")


@dataclass(frozen=True)
class Scene:
    """A full inspected frame: dimensions, detections, optional leak truth."""

    image_width: int
    image_height: int
    objects: tuple[DetectedObject, ...]
    image_path: str | None = None
    leak_label: bool | None = None

    def __post_init__(self):
        if self.image_width <= 0 or self.image_height <= 0:
            raise DataError(
                f"image dimensions must be positive, got "
                f"{self.image_width}x{self.image_height}"
            )
        seen: set[int] = set()
        for i, obj in enumerate(self.objects):
            if obj.id in seen:
                raise DataError(f"objects[{i}]: duplicate object id {obj.id}")
            seen.add(obj.id)
            for j, (x, y) in enumerate(obj.polygon.vertices):
                if not (-1.0 <= x <= self.image_width + 1.0) or not (
                    -1.0 <= y <= self.image_height + 1.0
                ):
                    raise DataError(
                        f"objects[{i}].polygon[{j}]: vertex ({x}, {y}) outside "
                        f"image bounds {self.image_width}x{self.image_height}"
                    )

    def object_by_id(self, object_id: int) -> DetectedObject:
        for obj in self.objects:
            if obj.id == object_id:
                return obj
        raise KeyError(object_id)


# ---------------------------------------------------------------------------
# JSON ingestion / serialization
# ---------------------------------------------------------------------------

def _expect(cond: bool, path: str, msg: str) -> None:
    if not cond:
        raise DataError(f"{path}: {msg}")


def _is_coordinate(v) -> bool:
    """A JSON number that is a finite float: not a bool, a string, NaN, an
    infinity (1e999 parses as one) or an integer too large for a float."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        return False
    try:
        return math.isfinite(v)
    except OverflowError:
        return False


def _parse_object(data, path: str) -> DetectedObject:
    _expect(isinstance(data, dict), path, "expected an object record")
    for key in ("id", "class", "score", "bbox", "polygon"):
        _expect(key in data, path, f"missing field {key!r}")
    _expect(type(data["id"]) is int, f"{path}.id", "expected an integer")  # not a bool
    _expect(isinstance(data["class"], str), f"{path}.class", "expected a string")
    try:
        label = ClassLabel.parse(data["class"])
    except DataError as e:
        raise DataError(f"{path}.class: {e}") from None
    score = data["score"]
    _expect(
        isinstance(score, (int, float)) and not isinstance(score, bool),
        f"{path}.score",
        "expected a number",
    )
    _expect(0.0 <= score <= 1.0, f"{path}.score", "confidence out of range")
    bbox = data["bbox"]
    _expect(isinstance(bbox, list) and len(bbox) == 4, f"{path}.bbox", "expected [x1, y1, x2, y2]")
    _expect(all(map(_is_coordinate, bbox)), f"{path}.bbox", "coordinates must be finite numbers")
    try:
        box = BBox(*(float(v) for v in bbox))
    except DataError as e:
        raise DataError(f"{path}.bbox: {e}") from None
    poly = data["polygon"]
    _expect(isinstance(poly, list), f"{path}.polygon", "expected a list of points")
    verts = []
    for j, pt in enumerate(poly):
        # One test on the common path: this loop runs for every vertex.
        if not (isinstance(pt, list) and len(pt) == 2 and all(map(_is_coordinate, pt))):
            shaped = isinstance(pt, list) and len(pt) == 2
            msg = "coordinates must be finite numbers" if shaped else "expected [x, y]"
            raise DataError(f"{path}.polygon[{j}]: {msg}")
        verts.append((float(pt[0]), float(pt[1])))
    try:
        polygon = PolygonMask(tuple(verts))
    except DataError as e:
        raise DataError(f"{path}.polygon: {e}") from None
    # Not polygon.bbox(): a collinear outline is a valid polygon but no valid BBox.
    xs, ys = zip(*verts)
    extent = [min(xs), min(ys), max(xs), max(ys)]
    if not (box.x1 <= extent[0] and box.y1 <= extent[1]
            and extent[2] <= box.x2 and extent[3] <= box.y2):
        raise DataError(f"{path}.bbox: does not contain the polygon's bounding box {extent}")
    return DetectedObject(
        id=data["id"], label=label, confidence=float(score), bbox=box, polygon=polygon
    )


def parse_scene_json(text: str) -> Scene:
    """Parse one scene from its JSON document.

    Raises DataError with the offending field path for malformed JSON,
    unknown class strings, out-of-range confidences, degenerate geometry or
    a bbox that does not contain its polygon's bounding box.
    """
    try:
        data = json.loads(text)
    except ValueError as e:  # also an integer literal too long to convert
        raise DataError(f"malformed JSON: {e}") from None
    _expect(isinstance(data, dict), "$", "expected a JSON object")
    for key in ("width", "height", "objects"):
        _expect(key in data, "$", f"missing field {key!r}")
    _expect(
        all(isinstance(data[k], int) and _is_coordinate(data[k]) for k in ("width", "height")),
        "$.width/height",
        "expected integers",
    )
    image = data.get("image")
    _expect(image is None or isinstance(image, str), "$.image", "expected string or null")
    leak = data.get("leak_label")
    _expect(
        leak is None or isinstance(leak, bool), "$.leak_label", "expected bool or null"
    )
    _expect(isinstance(data["objects"], list), "$.objects", "expected a list")
    objects = tuple(
        _parse_object(o, f"$.objects[{i}]") for i, o in enumerate(data["objects"])
    )
    return Scene(
        image_width=data["width"],
        image_height=data["height"],
        objects=objects,
        image_path=image,
        leak_label=leak,
    )


def serialize_scene(scene: Scene) -> str:
    """Serialize a scene to the JSON schema; parse(serialize(s)) == s."""
    doc = {
        "image": scene.image_path,
        "width": scene.image_width,
        "height": scene.image_height,
        "leak_label": scene.leak_label,
        "objects": [
            {
                "id": o.id,
                "class": o.label.value,
                "score": o.confidence,
                "bbox": [o.bbox.x1, o.bbox.y1, o.bbox.x2, o.bbox.y2],
                "polygon": [[x, y] for x, y in o.polygon.vertices],
            }
            for o in scene.objects
        ],
    }
    return json.dumps(doc, indent=2)


# ---------------------------------------------------------------------------
# Geometry
# ---------------------------------------------------------------------------

def rasterize(polygon: PolygonMask, bbox_frame: BBox, out_w: int, out_h: int) -> MaskRaster:
    """Rasterize a polygon into an out_h x out_w grid mapped over bbox_frame.

    A cell is 1.0 iff its center lies inside the polygon under the even-odd
    rule, else 0.0.  No anti-aliasing: masks are crisp by design so they can
    be checked against a brute-force point-in-polygon oracle.  This is
    rasterize_rings on one frame.
    """
    frame = np.array([[bbox_frame.x1, bbox_frame.y1, bbox_frame.x2, bbox_frame.y2]])
    inside = rasterize_rings(vertex_rings([polygon]), frame, out_w, out_h)[0]
    return MaskRaster(width=out_w, height=out_h, values=inside.astype(np.float64))


def vertex_rings(polygons: Sequence[PolygonMask]) -> np.ndarray:
    """(n, v, 2) vertex array of n polygons, v the largest vertex count.

    A shorter ring is padded by repeating its last vertex.  The padding adds
    zero-length edges, which no row crosses, and the closing edge still runs
    from the last vertex to the first, so the padded ring draws the same
    cells as the polygon.
    """
    rings = np.empty((len(polygons), max(len(p.vertices) for p in polygons), 2))
    for ring, polygon in zip(rings, polygons):
        k = len(polygon.vertices)
        ring[:k] = polygon.vertices
        ring[k:] = polygon.vertices[-1]
    return rings


def rasterize_rings(rings: np.ndarray, frames: np.ndarray, out_w: int, out_h: int) -> np.ndarray:
    """Even-odd masks of n polygons, polygon k drawn in frame k: a bool
    (n, out_h, out_w) array.

    ``rings`` is a (n, v, 2) vertex array as vertex_rings makes it and
    ``frames`` a (n, 4) array of (x1, y1, x2, y2) boxes.  Cell centers are
    ``x1 + (col + 0.5) * ((x2 - x1) / out_w)`` and likewise in y.  A cell
    is inside iff the ray from its center toward +x crosses an odd number
    of edges.  Edge (x1, y1) -> (x2, y2) crosses the row at height y iff
    ``(y1 > y) != (y2 > y)``, at ``(x2 - x1) * (y - y1) / (y2 - y1) + x1``;
    only crossing edges are divided, so no division is by zero.

    Crossings are counted per row, not per cell, and this is exact.  Each
    step of the center formula is correctly rounded and monotone, so
    centers never decrease along a row: a crossing at x lies right of
    exactly the first ``count`` centers, those below x, and ``count`` is
    found by bisection, for all crossings at once.  A cell is inside iff an
    odd number of its row's crossings have ``count > col``.  A closed ring
    crosses every row an even number of times, so that parity equals the
    parity of the crossings with ``count <= col``: a running XOR along the
    row of where each crossing's count falls.  The test compares the same
    center and crossing values as a per-cell test, so the masks are equal.
    """
    if out_w < 1 or out_h < 1:
        raise DataError(f"raster size must be >= 1, got {out_w}x{out_h}")
    n, v = rings.shape[:2]
    fx1, fy1, fx2, fy2 = frames.T
    cx = fx1[:, None] + (np.arange(out_w) + 0.5) * ((fx2 - fx1) / out_w)[:, None]
    cy = fy1[:, None] + (np.arange(out_h) + 0.5) * ((fy2 - fy1) / out_h)[:, None]
    # Edge e of ring k runs from vertex e to vertex e + 1; the last closes it.
    x1, y1 = rings.transpose(2, 0, 1)
    x2, y2 = np.roll(rings, -1, axis=1).transpose(2, 0, 1)
    crosses = (y1[:, None, :] > cy[:, :, None]) != (y2[:, None, :] > cy[:, :, None])
    # Each crossing's line, k * out_h + row, and its edge, k * v + e.
    line, e = np.divmod(np.flatnonzero(crosses), v)
    k = line // out_h
    edge = k * v + e
    x1, y1, x2, y2 = (a.ravel()[edge] for a in (x1, y1, x2, y2))
    xint = (x2 - x1) * (cy.ravel()[line] - y1) / (y2 - y1) + x1
    # count: the centers below xint.  A probe moves it up to ``probe`` iff
    # center probe - 1 is below xint; steps halve from the largest power of
    # two <= out_w.
    centers, before = cx.ravel(), k * out_w - 1
    count = np.zeros(len(xint), dtype=np.intp)
    step = 1 << (out_w.bit_length() - 1)
    while step:
        probe = np.minimum(count + step, out_w)
        count = np.where(centers[before + probe] < xint, probe, count)
        step >>= 1
    # toggles[col, line]: how many crossings of the line have count col,
    # mod 256, which keeps the parity; count out_w toggles no cell.
    lines = n * out_h
    toggles = np.bincount(count * lines + line, minlength=(out_w + 1) * lines)
    toggles = toggles[: out_w * lines].astype(np.uint8).reshape(out_w, lines)
    for col in range(1, out_w):
        toggles[col] ^= toggles[col - 1]
    toggles &= 1
    return np.ascontiguousarray(toggles.view(bool).T).reshape(n, out_h, out_w)


def bbox_iou(a: BBox, b: BBox) -> float:
    """Intersection-over-union of two boxes, in [0, 1]."""
    ix = min(a.x2, b.x2) - max(a.x1, b.x1)
    iy = min(a.y2, b.y2) - max(a.y1, b.y1)
    if ix <= 0.0 or iy <= 0.0:
        return 0.0
    inter = ix * iy
    return inter / (a.area() + b.area() - inter)


def union_bbox(a: BBox, b: BBox) -> BBox:
    return BBox(
        min(a.x1, b.x1), min(a.y1, b.y1), max(a.x2, b.x2), max(a.y2, b.y2)
    )


PAIR_MARGIN = 0.1  # pair_frame's default margin


def pair_frame(a: BBox, b: BBox, margin: float = PAIR_MARGIN) -> BBox:
    """Rasterization frame for an object pair: union box grown by a margin.

    The margin is a fraction of the union box's width/height added on each
    side, so the pair keeps its relative geometry at any raster size.
    """
    u = union_bbox(a, b)
    mx = margin * u.width
    my = margin * u.height
    return BBox(u.x1 - mx, u.y1 - my, u.x2 + mx, u.y2 + my)


def position_vector(
    subject: DetectedObject,
    reference: DetectedObject,
    img_w: float,
    img_h: float,
) -> np.ndarray:
    """Eight position features for an ordered object pair.

    Layout: normalized subject center (2), normalized reference center (2),
    log width/height ratios (2), normalized signed center offsets (2).  The
    vector is invariant under joint uniform rescaling of all coordinates and
    image dimensions.
    """
    if img_w <= 0 or img_h <= 0:
        raise DataError("image dimensions must be positive")
    sb, rb = subject.bbox, reference.bbox
    if sb.width <= 0 or sb.height <= 0 or rb.width <= 0 or rb.height <= 0:
        raise DataError("zero-size bbox")
    scx, scy = sb.center
    rcx, rcy = rb.center
    vec = np.array(
        [
            scx / img_w,
            scy / img_h,
            rcx / img_w,
            rcy / img_h,
            math.log(sb.width / rb.width),
            math.log(sb.height / rb.height),
            (scx - rcx) / img_w,
            (scy - rcy) / img_h,
        ],
        dtype=np.float64,
    )
    if not np.all(np.isfinite(vec)):
        raise DataError("non-finite position vector")
    return vec


POSITION_DIM = 8
CLASS_DIM = 2 * len(CLASS_ORDER)


def class_vector(subject: ClassLabel, reference: ClassLabel) -> np.ndarray:
    """Concatenated one-hot encodings of the two class labels (length 8)."""
    vec = np.zeros(CLASS_DIM, dtype=np.float64)
    vec[CLASS_ORDER.index(subject)] = 1.0
    vec[len(CLASS_ORDER) + CLASS_ORDER.index(reference)] = 1.0
    return vec
