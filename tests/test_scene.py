"""Tests for the scene data model, JSON schema and geometry helpers."""

import math

import numpy as np
import pytest

from leakscan.errors import ConfigError, DataError
from leakscan.scene import (
    BBox,
    CLASS_DIM,
    CLASS_ORDER,
    ClassLabel,
    DetectedObject,
    MaskRaster,
    POSITION_DIM,
    PolygonMask,
    Scene,
    bbox_iou,
    class_vector,
    pair_frame,
    parse_scene_json,
    position_vector,
    rasterize,
    rasterize_rings,
    serialize_scene,
    union_bbox,
    vertex_rings,
)
from leakscan.scenegen import GenConfig, gen_scene


def make_object(
    oid=0,
    label=ClassLabel.SUSPECTED_AREA,
    confidence=0.9,
    box=(10.0, 10.0, 30.0, 30.0),
):
    x1, y1, x2, y2 = box
    return DetectedObject(
        id=oid,
        label=label,
        confidence=confidence,
        bbox=BBox(x1, y1, x2, y2),
        polygon=PolygonMask(((x1, y1), (x2, y1), (x2, y2), (x1, y2))),
    )


def make_scene(objects, w=100, h=100, **kw):
    return Scene(image_width=w, image_height=h, objects=tuple(objects), **kw)


# ---------------------------------------------------------------------------
# Core types
# ---------------------------------------------------------------------------

def test_class_label_parse():
    assert ClassLabel.parse("suspected_area") is ClassLabel.SUSPECTED_AREA
    assert ClassLabel.parse("oil_storage_device") is ClassLabel.OIL_STORAGE_DEVICE
    with pytest.raises(DataError, match="unknown class"):
        ClassLabel.parse("oil")


def test_bbox_properties():
    b = BBox(10.0, 20.0, 30.0, 60.0)
    assert b.width == 20.0
    assert b.height == 40.0
    assert b.center == (20.0, 40.0)
    assert b.area() == 800.0


@pytest.mark.parametrize("box", [(5, 5, 5, 10), (5, 5, 4, 10), (0, 9, 10, 9)])
def test_bbox_degenerate(box):
    with pytest.raises(DataError, match="degenerate bbox"):
        BBox(*box)


def test_polygon_validation():
    with pytest.raises(DataError, match=">= 3 vertices"):
        PolygonMask(((0.0, 0.0), (1.0, 1.0)))
    with pytest.raises(DataError, match="repeated consecutive"):
        PolygonMask(((0.0, 0.0), (1.0, 0.0), (1.0, 0.0), (0.0, 1.0)))
    # Wrap-around duplicates (last == first) are also consecutive.
    with pytest.raises(DataError, match="repeated consecutive"):
        PolygonMask(((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 0.0)))


def test_polygon_bbox():
    p = PolygonMask(((3.0, 7.0), (9.0, 2.0), (5.0, 11.0)))
    assert p.bbox() == BBox(3.0, 2.0, 9.0, 11.0)


def test_mask_raster_validation():
    with pytest.raises(DataError, match="shape"):
        MaskRaster(width=3, height=2, values=np.zeros((3, 3)))
    with pytest.raises(DataError, match="outside"):
        MaskRaster(width=2, height=2, values=np.full((2, 2), 1.5))
    for bad in (np.nan, np.inf, -np.inf):  # NaN fails every comparison
        values = np.array([[0.0, 1.0], [0.5, bad]])
        with pytest.raises(DataError, match="outside"):
            MaskRaster(width=2, height=2, values=values)
    m = MaskRaster(width=2, height=2, values=np.array([[0.0, 1.0], [0.5, 1.0]]))
    assert m.filled_fraction() == pytest.approx(0.625)
    assert m == MaskRaster(width=2, height=2, values=np.array([[0.0, 1.0], [0.5, 1.0]]))
    assert m != MaskRaster(width=2, height=2, values=np.zeros((2, 2)))
    with pytest.raises(ValueError):
        m.values[0, 0] = 0.3  # frozen storage


def test_detected_object_confidence_range():
    with pytest.raises(DataError, match="confidence"):
        make_object(confidence=1.2)
    with pytest.raises(DataError, match="confidence"):
        make_object(confidence=-0.1)


def test_scene_duplicate_ids():
    with pytest.raises(DataError, match=r"objects\[1\].*duplicate object id 7"):
        make_scene([make_object(oid=7), make_object(oid=7, box=(40, 40, 60, 60))])


def test_scene_vertex_out_of_bounds():
    with pytest.raises(DataError, match=r"objects\[0\].polygon\[1\].*outside"):
        make_scene([make_object(box=(10, 10, 150, 30))], w=100, h=100)


def test_scene_object_by_id():
    s = make_scene([make_object(oid=3), make_object(oid=5, box=(40, 40, 60, 60))])
    assert s.object_by_id(5).id == 5
    with pytest.raises(KeyError):
        s.object_by_id(99)


# ---------------------------------------------------------------------------
# JSON round trip and error paths
# ---------------------------------------------------------------------------

def test_scene_json_round_trip_exact():
    rng = np.random.default_rng(11)
    for _ in range(20):
        objs = []
        for i in range(int(rng.integers(0, 5))):
            x1, y1 = rng.uniform(0, 50, size=2)
            w, h = rng.uniform(1, 40, size=2)
            n = int(rng.integers(3, 9))
            ang = np.sort(rng.uniform(0, 2 * np.pi, size=n))
            cx, cy = x1 + w / 2, y1 + h / 2
            verts = tuple(
                (cx + 0.5 * w * math.cos(a), cy + 0.5 * h * math.sin(a)) for a in ang
            )
            objs.append(
                DetectedObject(
                    id=i,
                    label=CLASS_ORDER[int(rng.integers(0, 4))],
                    confidence=float(rng.uniform(0.5, 1.0)),
                    bbox=BBox(x1, y1, x1 + w, y1 + h),
                    polygon=PolygonMask(verts),
                )
            )
        scene = make_scene(
            objs, leak_label=bool(rng.integers(0, 2)), image_path="frames/a.ppm"
        )
        again = parse_scene_json(serialize_scene(scene))
        assert again == scene  # bit-exact float round trip via repr


def test_scene_json_fuzz_raises_only_located_errors(text_mutator):
    """Corrupted scene documents parse to a scene that round-trips, or raise
    DataError or ConfigError."""
    cfg = GenConfig(tanks=(1, 2), blobs=(2, 4), distractor_prob=0.5, seed=12)
    docs = [serialize_scene(gen_scene(cfg, i)) for i in range(4)]
    rng = np.random.default_rng(13)
    outcomes = {"parsed": 0, "rejected": 0}
    for trial in range(1200):
        text = text_mutator(rng, docs[trial % len(docs)])
        try:
            scene = parse_scene_json(text)
        except (DataError, ConfigError):
            outcomes["rejected"] += 1
            continue
        assert parse_scene_json(serialize_scene(scene)) == scene
        outcomes["parsed"] += 1
    assert min(outcomes.values()) > 50, outcomes  # both outcomes are exercised


def test_scene_json_optional_fields_default():
    s = parse_scene_json('{"width": 10, "height": 10, "objects": []}')
    assert s.image_path is None and s.leak_label is None and s.objects == ()


@pytest.mark.parametrize(
    "text, path",
    [
        ("[1, 2]", r"\$: expected a JSON object"),
        ('{"width": 10, "objects": []}', r"\$: missing field 'height'"),
        ('{"width": 10.5, "height": 4, "objects": []}', r"\$.width"),
        ('{"width": 10, "height": 4, "objects": 3}', r"\$.objects: expected a list"),
        (
            '{"width": 10, "height": 10, "objects": [{"id": 0}]}',
            r"\$.objects\[0\]: missing field 'class'",
        ),
        (
            '{"width": 10, "height": 10, "objects": [{"id": 0, "class": "lake",'
            ' "score": 0.5, "bbox": [0, 0, 5, 5],'
            ' "polygon": [[0, 0], [5, 0], [5, 5]]}]}',
            r"\$.objects\[0\].class: unknown class string 'lake'",
        ),
        (
            '{"width": 10, "height": 10, "objects": [{"id": 0, "class": "ground",'
            ' "score": 1.5, "bbox": [0, 0, 5, 5],'
            ' "polygon": [[0, 0], [5, 0], [5, 5]]}]}',
            r"\$.objects\[0\].score: confidence out of range",
        ),
        (
            '{"width": 10, "height": 10, "objects": [{"id": 0, "class": "ground",'
            ' "score": 0.5, "bbox": [5, 0, 5, 5],'
            ' "polygon": [[0, 0], [5, 0], [5, 5]]}]}',
            r"\$.objects\[0\].bbox: degenerate",
        ),
        (
            '{"width": 10, "height": 10, "objects": [{"id": 0, "class": "ground",'
            ' "score": 0.5, "bbox": [0, 0, 5, 5],'
            ' "polygon": [[0, 0], [5, 0], [5, 5.5]]}]}',
            r"\$.objects\[0\].bbox: does not contain the polygon's bounding box"
            r" \[0.0, 0.0, 5.0, 5.5\]",
        ),
        (
            '{"width": 10, "height": 10, "objects": [{"id": 0, "class": "ground",'
            ' "score": 0.5, "bbox": [1, 0, 5, 5],'
            ' "polygon": [[0, 0], [5, 0], [5, 5]]}]}',
            r"\$.objects\[0\].bbox: does not contain",
        ),
        (
            '{"width": 10, "height": 10, "objects": [{"id": 0, "class": "ground",'
            ' "score": 0.5, "bbox": [0, 0, 5, 5], "polygon": [[0, 0], [5], [5, 5]]}]}',
            r"\$.objects\[0\].polygon\[1\]: expected \[x, y\]",
        ),
        # 1e999 parses as inf, and a bbox reaching to infinity contains any polygon.
        pytest.param(
            '{"width": 10, "height": 10, "objects": [{"id": 0, "class": "ground",'
            ' "score": 0.5, "bbox": [0, 0, 1e999, 5],'
            ' "polygon": [[0, 0], [5, 0], [5, 5]]}]}',
            r"\$.objects\[0\].bbox: coordinates must be finite numbers",
            id="bbox-inf",
        ),
        pytest.param(
            '{"width": 10, "height": 10, "objects": [{"id": 0, "class": "ground",'
            ' "score": 0.5, "bbox": [-Infinity, 0, 5, 5],'
            ' "polygon": [[0, 0], [5, 0], [5, 5]]}]}',
            r"\$.objects\[0\].bbox: coordinates must be finite numbers",
            id="bbox-minus-inf",
        ),
        pytest.param(
            '{"width": 10, "height": 10, "objects": [{"id": 0, "class": "ground",'
            ' "score": 0.5, "bbox": [0, 0, 5, 5],'
            ' "polygon": [[0, 0], [5, NaN], [5, 5]]}]}',
            r"\$.objects\[0\].polygon\[1\]: coordinates must be finite numbers",
            id="polygon-nan",
        ),
        pytest.param(
            '{"width": 10, "height": 10, "objects": [{"id": 0, "class": "ground",'
            ' "score": 0.5, "bbox": [0, 0, 5, 5],'
            ' "polygon": [[0, 0], [5, 0], [1' + "0" * 400 + ', 5]]}]}',
            r"\$.objects\[0\].polygon\[2\]: coordinates must be finite numbers",
            id="polygon-int-beyond-float",
        ),
        pytest.param(
            '{"width": 1' + "0" * 400 + ', "height": 4, "objects": []}', r"\$.width",
            id="width-beyond-float",
        ),
        pytest.param('{"width": true, "height": 4, "objects": []}', r"\$.width", id="width-bool"),
        pytest.param(
            '{"width": 10, "height": 10, "objects": [{"id": true, "class": "ground",'
            ' "score": 0.5, "bbox": [0, 0, 5, 5], "polygon": [[0, 0], [5, 0], [5, 5]]}]}',
            r"\$.objects\[0\].id: expected an integer",
            id="id-bool",
        ),
        pytest.param(
            '{"width": 1' + "0" * 5000 + ', "height": 4, "objects": []}', "malformed JSON",
            id="width-too-many-digits",
        ),
    ],
)
def test_scene_json_error_paths(text, path):
    with pytest.raises(DataError, match=path):
        parse_scene_json(text)


def test_scene_json_malformed():
    with pytest.raises(DataError, match="malformed JSON"):
        parse_scene_json("{not json")


# ---------------------------------------------------------------------------
# Geometry
# ---------------------------------------------------------------------------

def _inside_slow(x, y, verts):
    """Scalar even-odd crossing test, written independently of the library."""
    inside = False
    j = len(verts) - 1
    for i in range(len(verts)):
        xi, yi = verts[i]
        xj, yj = verts[j]
        if (yi > y) != (yj > y):
            if x < (xj - xi) * (y - yi) / (yj - yi) + xi:
                inside = not inside
        j = i
    return inside


_EDGE_BLOCK = 64  # polygon edges per points_in_polygon pass


def points_in_polygon(px, py, polygon):
    """Even-odd (ray crossing) inside test, vectorized over points and
    edges, one point at a time rather than one row: a grid oracle for
    rasterize_rings.

    px and py broadcast against each other, so a row of x and a column of y
    give a grid, and the result has their broadcast shape.  A point is
    inside iff the ray from it toward +x crosses an odd number of edges.
    Edges go in blocks of _EDGE_BLOCK.
    """
    shape = np.broadcast_shapes(np.shape(px), np.shape(py))
    ring = np.asarray(polygon.vertices, dtype=np.float64)
    # Edge k runs from vertex k to vertex k + 1; the last one closes the ring.
    edges = np.concatenate([ring, np.roll(ring, -1, axis=0)], axis=1)
    edges = edges.reshape(edges.shape + (1,) * len(shape))
    inside = np.zeros(shape, dtype=bool)
    for k in range(0, len(edges), _EDGE_BLOCK):
        x1, y1, x2, y2 = edges[k : k + _EDGE_BLOCK].swapaxes(0, 1)
        crosses = (y1 > py) != (y2 > py)
        # Intersection of each edge with the horizontal ray through each point.
        xint = np.full(crosses.shape, np.inf)
        np.divide((x2 - x1) * (py - y1), (y2 - y1), out=xint, where=crosses)
        inside ^= np.logical_xor.reduce(crosses & (px < xint + x1), axis=0)
    return inside


def test_points_in_polygon_matches_slow_oracle():
    rng = np.random.default_rng(5)
    for _ in range(10):
        n = int(rng.integers(3, 10))
        ang = np.sort(rng.uniform(0, 2 * np.pi, size=n))
        rad = rng.uniform(2.0, 10.0, size=n)  # star polygons, concave allowed
        verts = tuple(
            (10 + r * math.cos(a), 10 + r * math.sin(a)) for r, a in zip(rad, ang)
        )
        poly = PolygonMask(verts)
        px = rng.uniform(-2, 22, size=50)
        py = rng.uniform(-2, 22, size=50)
        got = points_in_polygon(px, py, poly)
        want = [_inside_slow(x, y, verts) for x, y in zip(px, py)]
        assert got.tolist() == want


def test_rasterize_matches_cell_center_oracle():
    rng = np.random.default_rng(6)
    for _ in range(5):
        n = int(rng.integers(3, 8))
        ang = np.sort(rng.uniform(0, 2 * np.pi, size=n))
        rad = rng.uniform(3.0, 12.0, size=n)
        verts = tuple(
            (15 + r * math.cos(a), 15 + r * math.sin(a)) for r, a in zip(rad, ang)
        )
        poly = PolygonMask(verts)
        frame = BBox(0.0, 0.0, 30.0, 30.0)
        out_w, out_h = 12, 9
        m = rasterize(poly, frame, out_w, out_h)
        assert (m.width, m.height) == (out_w, out_h)
        for row in range(out_h):
            for col in range(out_w):
                cx = frame.x1 + (col + 0.5) * frame.width / out_w
                cy = frame.y1 + (row + 0.5) * frame.height / out_h
                assert m.values[row, col] == float(_inside_slow(cx, cy, verts))


def _points_in_polygon_per_edge(px, py, polygon):
    """The former one-edge-at-a-time points_in_polygon, kept as reference."""
    verts = polygon.vertices
    inside = np.zeros(np.shape(px), dtype=bool)
    n = len(verts)
    for k in range(n):
        x1, y1 = verts[k]
        x2, y2 = verts[(k + 1) % n]
        crosses = (y1 > py) != (y2 > py)
        if not np.any(crosses):
            continue
        xint = np.full(np.shape(px), np.inf)
        np.divide((x2 - x1) * (py - y1), (y2 - y1), out=xint, where=crosses)
        inside ^= crosses & (px < xint + x1)
    return inside


def _random_ring(rng, n):
    """n vertices, no two consecutive equal: on a coarse integer lattice
    (horizontal and vertical edges, vertices on cell centres, crossings) or
    uniform (self-intersecting in general)."""
    while True:
        if rng.integers(0, 2):
            pts = rng.integers(0, 7, size=(n, 2)) * 2.0 + 0.5
        else:
            pts = rng.uniform(-1.0, 15.0, size=(n, 2))
        verts = tuple((float(x), float(y)) for x, y in pts)
        if all(verts[i] != verts[i - 1] for i in range(n)):
            return PolygonMask(verts)


def test_points_in_polygon_matches_per_edge_reference():
    rng = np.random.default_rng(7)
    frame = BBox(0.0, 0.0, 14.0, 14.0)  # 14x14 cells: centres at k + 0.5
    saw_horizontal = saw_on_centre = False
    for trial in range(300):
        n = int(rng.integers(3, 12)) if trial % 10 else int(rng.integers(60, 200))
        poly = _random_ring(rng, n)
        verts = np.array(poly.vertices)
        saw_horizontal |= bool((verts[:, 1] == np.roll(verts[:, 1], -1)).any())
        saw_on_centre |= bool((verts % 1.0 == 0.5).all(axis=1).any())
        cx = frame.x1 + (np.arange(14) + 0.5) * (frame.width / 14)
        cy = frame.y1 + (np.arange(14) + 0.5) * (frame.height / 14)
        px, py = np.meshgrid(cx, cy)
        want = _points_in_polygon_per_edge(px, py, poly)
        assert np.array_equal(points_in_polygon(px, py, poly), want)
        got = points_in_polygon(cx[None, :], cy[:, None], poly)
        assert got.shape == want.shape and np.array_equal(got, want)
        assert np.array_equal(rasterize(poly, frame, 14, 14).values, want.astype(np.float64))
        qx, qy = rng.uniform(-2.0, 16.0, size=(2, 40))
        assert np.array_equal(
            points_in_polygon(qx, qy, poly), _points_in_polygon_per_edge(qx, qy, poly)
        )
    assert saw_horizontal and saw_on_centre


def _cell_centers(frame, out_w, out_h):
    """Cell-center x (out_w,) and y (out_h,) of a frame, as rasterize_rings
    defines them."""
    cx = frame.x1 + (np.arange(out_w) + 0.5) * (frame.width / out_w)
    cy = frame.y1 + (np.arange(out_h) + 0.5) * (frame.height / out_h)
    return cx, cy


def _oracle_mask(poly, frame, out_w, out_h):
    """The polygon's mask by the per-edge reference, checked against the
    scalar per-point test at every cell."""
    cx, cy = _cell_centers(frame, out_w, out_h)
    px, py = np.meshgrid(cx, cy)
    want = _points_in_polygon_per_edge(px, py, poly)
    slow = [[_inside_slow(x, y, poly.vertices) for x in cx] for y in cy]
    assert want.tolist() == slow
    return want


def _rasterize_all(cases, out_w, out_h):
    """rasterize_rings over (polygon, frame) cases in one batch."""
    rings = vertex_rings([poly for poly, _ in cases])
    frames = np.array([[f.x1, f.y1, f.x2, f.y2] for _, f in cases])
    return rasterize_rings(rings, frames, out_w, out_h)


def _edge_cases():
    """(name, polygon, frame) cases on a 14x14 frame with cell centers at
    k + 0.5, or on shifted, scaled and partial frames."""
    unit = BBox(0.0, 0.0, 14.0, 14.0)
    star = tuple(
        (7.0 + (6.0 if k % 2 else 3.0) * math.cos(2 * math.pi * k / 100),
         7.0 + (6.0 if k % 2 else 3.0) * math.sin(2 * math.pi * k / 100))
        for k in range(100)
    )
    cases = [
        # A vertex on the center row y = 3.5 and one on the center (9.5, 9.5).
        ("vertex on a center row", ((2.0, 3.5), (11.0, 1.0), (9.5, 9.5)), unit),
        # At y = 6.5 the edge (2.5, 4.5) -> (6.5, 8.5) meets x = 4.5, a center.
        ("crossing at a center", ((2.5, 4.5), (6.5, 8.5), (12.0, 2.0)), unit),
        ("axis-aligned rectangle", ((2.5, 3.5), (9.5, 3.5), (9.5, 10.5), (2.5, 10.5)), unit),
        ("L shape", ((1.0, 1.0), (8.0, 1.0), (8.0, 5.0), (4.0, 5.0), (4.0, 12.0), (1.0, 12.0)), unit),
        ("bow-tie", ((2.0, 2.0), (12.0, 12.0), (12.0, 2.0), (2.0, 12.0)), unit),
        ("partly outside", ((-5.0, 4.0), (9.0, -3.0), (20.0, 9.5), (6.5, 18.0)), unit),
        ("wholly outside", ((20.0, 20.0), (30.0, 21.0), (25.0, 29.0)), unit),
        ("covers the frame", ((-1.0, -1.0), (15.0, -1.0), (15.0, 15.0), (-1.0, 15.0)), unit),
        ("100-vertex star", star, unit),
        ("shifted frame", ((2.0, 3.5), (11.0, 1.0), (9.5, 9.5)), BBox(-0.7, 1.3, 12.9, 10.1)),
    ]
    return [(name, PolygonMask(verts), frame) for name, verts, frame in cases]


@pytest.mark.parametrize("out_w, out_h", [(14, 14), (12, 9), (1, 1)])
def test_rasterize_rings_matches_oracle_on_edge_cases(out_w, out_h):
    """Every edge case equals the brute-force oracles, drawn in one batch of
    mixed vertex counts (3 to 100) and alone."""
    cases = _edge_cases()
    masks = _rasterize_all([(poly, frame) for _, poly, frame in cases], out_w, out_h)
    assert masks.shape == (len(cases), out_h, out_w) and masks.dtype == bool
    for (name, poly, frame), got in zip(cases, masks):
        want = _oracle_mask(poly, frame, out_w, out_h)
        assert np.array_equal(got, want), name
        alone = rasterize(poly, frame, out_w, out_h).values
        assert np.array_equal(alone, want.astype(np.float64)), name


def test_rasterize_rings_matches_oracle_on_random_batches():
    """Random rings, lattice (horizontal and vertical edges, vertices on
    centers) or uniform (self-intersecting), 3 to 200 vertices, in random
    frames, one batch per grid size, equal the per-edge reference."""
    rng = np.random.default_rng(8)
    for out_w, out_h in ((14, 14), (12, 9), (28, 28)):
        cases = []
        for trial in range(60):
            n = int(rng.integers(3, 12)) if trial % 10 else int(rng.integers(65, 200))
            x1, y1 = rng.uniform(-4.0, 4.0, size=2)
            w, h = rng.uniform(2.0, 20.0, size=2)
            frame = BBox(0.0, 0.0, 14.0, 14.0) if trial % 3 == 0 else BBox(x1, y1, x1 + w, y1 + h)
            cases.append((_random_ring(rng, n), frame))
        masks = _rasterize_all(cases, out_w, out_h)
        for (poly, frame), got in zip(cases, masks):
            cx, cy = _cell_centers(frame, out_w, out_h)
            px, py = np.meshgrid(cx, cy)
            assert np.array_equal(got, _points_in_polygon_per_edge(px, py, poly))


def test_rasterize_rings_matches_oracle_at_rounding_boundaries():
    """A cell center equal to a crossing to the last bit is not left of it.
    Crossings and centers are computed as the docstring writes them; either
    formula reassociated moves its value by one ulp here and flips a cell."""
    # The edge (x1, y1) -> (x2, y2) crosses the row y at xint, one ulp away
    # from x1 + (x2 - x1) / (y2 - y1) * (y - y1).  One cell, centered there.
    x1, y1, x2, y2, y = 0.903, 5.368, 2.893, 2.536, 3.179
    xint = (x2 - x1) * (y - y1) / (y2 - y1) + x1
    assert xint != x1 + (x2 - x1) / (y2 - y1) * (y - y1)
    on_crossing = BBox(xint - 0.5, y - 0.5, xint + 0.5, y + 0.5)
    assert [c.tolist() for c in _cell_centers(on_crossing, 1, 1)] == [[xint], [y]]
    tri = PolygonMask(((x1, y1), (x2, y2), (10.0, 4.0)))
    # Center 13 of 15 over [0, 16.71] is one ulp above 13.5 * 16.71 / 15;
    # a vertical edge stands on it.
    x = 13.5 * (16.71 / 15)
    assert x != 13.5 * 16.71 / 15
    on_center = BBox(0.0, 0.0, 16.71, 1.0)
    assert _cell_centers(on_center, 15, 1)[0][13] == x
    rect = PolygonMask(((x, -1.0), (20.0, -1.0), (20.0, 2.0), (x, 2.0)))
    for poly, frame, out_w, want in (
        (tri, on_crossing, 1, [True]),
        (rect, on_center, 15, [False] * 13 + [True] * 2),
    ):
        (got,) = _rasterize_all([(poly, frame)], out_w, 1)
        assert got.tolist() == [want]
        cx, cy = _cell_centers(frame, out_w, 1)
        px, py = np.meshgrid(cx, cy)
        assert np.array_equal(got, _points_in_polygon_per_edge(px, py, poly))


def test_vertex_rings_pad_with_the_last_vertex():
    tri = PolygonMask(((0.0, 0.0), (4.0, 0.0), (0.0, 3.0)))
    quad = PolygonMask(((1.0, 1.0), (2.0, 1.0), (2.0, 2.0), (1.0, 2.0)))
    rings = vertex_rings([tri, quad])
    assert rings.shape == (2, 4, 2)
    assert rings[0].tolist() == [[0.0, 0.0], [4.0, 0.0], [0.0, 3.0], [0.0, 3.0]]
    assert rings[1].tolist() == [list(v) for v in quad.vertices]


def test_rasterize_full_cover_and_size_validation():
    poly = PolygonMask(((0.0, 0.0), (30.0, 0.0), (30.0, 30.0), (0.0, 30.0)))
    m = rasterize(poly, BBox(5.0, 5.0, 25.0, 25.0), 8, 8)
    assert m.filled_fraction() == 1.0
    with pytest.raises(DataError, match="raster size"):
        rasterize(poly, BBox(0.0, 0.0, 30.0, 30.0), 0, 8)


def test_bbox_iou_hand_values():
    a = BBox(0.0, 0.0, 2.0, 2.0)
    assert bbox_iou(a, a) == 1.0
    assert bbox_iou(a, BBox(5.0, 5.0, 6.0, 6.0)) == 0.0
    assert bbox_iou(a, BBox(2.0, 0.0, 4.0, 2.0)) == 0.0  # touching edges
    assert bbox_iou(a, BBox(1.0, 1.0, 3.0, 3.0)) == pytest.approx(1.0 / 7.0)


def test_union_and_pair_frame():
    a = BBox(0.0, 0.0, 10.0, 10.0)
    b = BBox(20.0, 20.0, 30.0, 30.0)
    assert union_bbox(a, b) == BBox(0.0, 0.0, 30.0, 30.0)
    assert pair_frame(a, b) == BBox(-3.0, -3.0, 33.0, 33.0)
    assert pair_frame(a, b, margin=0.0) == BBox(0.0, 0.0, 30.0, 30.0)


def test_position_vector_hand_values():
    s = make_object(oid=0, box=(10.0, 20.0, 30.0, 60.0))
    r = make_object(oid=1, box=(50.0, 10.0, 90.0, 30.0))
    v = position_vector(s, r, 100.0, 100.0)
    assert v.shape == (POSITION_DIM,)
    np.testing.assert_allclose(
        v,
        [0.2, 0.4, 0.7, 0.2, math.log(0.5), math.log(2.0), -0.5, 0.2],
        rtol=0,
        atol=1e-15,
    )


def test_position_vector_scale_invariant():
    rng = np.random.default_rng(7)
    for _ in range(20):
        x1, y1 = rng.uniform(0, 40, size=2)
        w1, h1 = rng.uniform(1, 30, size=2)
        x2, y2 = rng.uniform(0, 40, size=2)
        w2, h2 = rng.uniform(1, 30, size=2)
        k = float(rng.uniform(0.5, 8.0))
        a = make_object(oid=0, box=(x1, y1, x1 + w1, y1 + h1))
        b = make_object(oid=1, box=(x2, y2, x2 + w2, y2 + h2))
        a2 = make_object(oid=0, box=(k * x1, k * y1, k * (x1 + w1), k * (y1 + h1)))
        b2 = make_object(oid=1, box=(k * x2, k * y2, k * (x2 + w2), k * (y2 + h2)))
        np.testing.assert_allclose(
            position_vector(a, b, 100.0, 80.0),
            position_vector(a2, b2, k * 100.0, k * 80.0),
            atol=1e-12,
        )


def test_position_vector_rejects_bad_dims():
    s = make_object(oid=0)
    r = make_object(oid=1, box=(40, 40, 60, 60))
    with pytest.raises(DataError, match="positive"):
        position_vector(s, r, 0.0, 100.0)


def test_class_vector_layout():
    v = class_vector(ClassLabel.SUSPECTED_AREA, ClassLabel.GROUND)
    assert v.shape == (CLASS_DIM,)
    assert v.sum() == 2.0
    assert v[0] == 1.0 and v[len(CLASS_ORDER) + 1] == 1.0
    w = class_vector(ClassLabel.OTHER, ClassLabel.OIL_STORAGE_DEVICE)
    assert w[3] == 1.0 and w[len(CLASS_ORDER) + 2] == 1.0
