"""Deterministic synthetic scenes and labeled relation pairs.

Scenes are built from four templates — blob resting on the ground band,
blob on the band plus a distant storage tank, blob hovering beside a tank,
and a free-floating blob — whose pairwise relation histograms are known.
Template probabilities are solved per config so that, over a corpus, the
relation labels of all ordered object pairs approximate the configured mix.

The geometric relation oracle defined here is the ground-truth contract for
the whole package: "above" needs horizontal bbox overlap of at least 25% of
the narrower box, a subject bottom edge within [-0.05, +0.15] image heights
of the reference top edge, and a strictly higher subject center; "nearby"
is a center-distance test against a quarter of the image diagonal.

Every scene is a pure function of (config, index): each one derives its own
random stream from that pair, so corpora are reproducible element-wise and
parallel generation would match serial generation exactly.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, check_field_types
from .relnet import PairSample, RelationLabel, make_pair_sample
from .scene import BBox, ClassLabel, DetectedObject, MaskRaster, PolygonMask, Scene

_BLOB_RADIUS_FRAC = (0.05, 0.10)  # base radius as a fraction of min(W, H)
_RADIUS_JITTER = 0.4
_MAX_COMPOSE_ATTEMPTS = 40

# Templates, in order: blob on ground; blob on ground + far tank; blob
# beside a tank; floating blob.  Rows of _TEMPLATE_HIST are the ordered-pair
# label counts (above, nearby, other) each template realizes.
_T_ON_GROUND, _T_ON_GROUND_TANK, _T_NEAR_TANK, _T_FLOATING = range(4)
_TEMPLATE_HIST = np.array(
    [[1.0, 1.0, 0.0], [2.0, 1.0, 3.0], [1.0, 2.0, 3.0], [0.0, 0.0, 2.0]]
)
_TEMPLATE_PAIRS = _TEMPLATE_HIST.sum(axis=1)


@dataclass(frozen=True)
class GenConfig:
    """Scene-generator settings; all randomness is derived from seed."""

    width: int = 256
    height: int = 256
    tanks: tuple[int, int] = (0, 1)
    blobs: tuple[int, int] = (1, 1)
    blob_vertices: tuple[int, int] = (8, 16)
    band_frac: tuple[float, float] = (0.10, 0.20)
    distractor_prob: float = 0.0
    mix: tuple[float, float, float] = (0.33, 0.33, 0.34)
    confidence_jitter: float = 0.1
    seed: int = 0

    def __post_init__(self):
        check_field_types(self)
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        if self.width < 32 or self.height < 32:
            raise ConfigError("canvas must be at least 32x32")
        for name in ("tanks", "blobs", "blob_vertices", "band_frac"):
            lo, hi = getattr(self, name)
            if lo > hi:
                raise ConfigError(f"{name} range is empty: {lo}..{hi}")
        if self.tanks[0] < 0 or self.blobs[0] < 0:
            raise ConfigError("object counts must be >= 0")
        if self.blob_vertices[0] < 3:
            raise ConfigError("blobs need at least 3 vertices")
        if not (0.05 <= self.band_frac[0] and self.band_frac[1] <= 0.35):
            raise ConfigError("band_frac must lie within [0.05, 0.35]")
        if not (0.0 <= self.distractor_prob <= 1.0):
            raise ConfigError("distractor_prob must be in [0, 1]")
        if any(f < 0 for f in self.mix):
            raise ConfigError("mix needs 3 non-negative fractions")
        if abs(sum(self.mix) - 1.0) > 1e-9:
            raise ConfigError(f"mix fractions must sum to 1, got {sum(self.mix)}")
        if self.confidence_jitter < 0:
            raise ConfigError("confidence_jitter must be >= 0")


@dataclass(frozen=True)
class LabeledPair:
    """A relation-training sample plus where it came from."""

    sample: PairSample
    scene: str
    subject_id: int
    reference_id: int

    def provenance(self) -> tuple[str, int, int]:
        return (self.scene, self.subject_id, self.reference_id)


def label_relation_oracle(
    subject: DetectedObject,
    reference: DetectedObject,
    img_w: float,
    img_h: float,
) -> RelationLabel:
    """Ground-truth relation of an ordered object pair.

    Above is directional (subject over reference); nearby is symmetric.
    """
    s, r = subject.bbox, reference.bbox
    overlap = min(s.x2, r.x2) - max(s.x1, r.x1)
    narrower = min(s.width, r.width)
    gap = s.y2 - r.y1  # signed: positive when the subject overhangs the top
    if (
        overlap >= 0.25 * narrower
        and -0.05 * img_h <= gap <= 0.15 * img_h
        and s.center[1] < r.center[1]
    ):
        return RelationLabel.ABOVE
    sx, sy = s.center
    rx, ry = r.center
    if math.hypot(sx - rx, sy - ry) <= 0.25 * math.hypot(img_w, img_h):
        return RelationLabel.NEARBY
    return RelationLabel.OTHER


# ---------------------------------------------------------------------------
# Geometry helpers
# ---------------------------------------------------------------------------

def _star_vertices(rng: np.random.Generator, n_verts: int, r_base: float) -> np.ndarray:
    """Random star-convex polygon around the origin, radius jitter +-40%."""
    step = 2.0 * math.pi / n_verts
    angles = step * np.arange(n_verts) + rng.uniform(-0.3 * step, 0.3 * step, n_verts)
    radii = r_base * (1.0 + rng.uniform(-_RADIUS_JITTER, _RADIUS_JITTER, n_verts))
    return np.stack([radii * np.cos(angles), radii * np.sin(angles)], axis=1)


def _place(verts: np.ndarray, *, cx: float | None = None, bottom: float | None = None,
           cy: float | None = None, right: float | None = None) -> np.ndarray:
    """Translate a vertex cloud so its bbox hits the given anchors."""
    x1, y1 = verts.min(axis=0)
    x2, y2 = verts.max(axis=0)
    dx = dy = 0.0
    if cx is not None:
        dx = cx - 0.5 * (x1 + x2)
    if right is not None:
        dx = right - x2
    if cy is not None:
        dy = cy - 0.5 * (y1 + y2)
    if bottom is not None:
        dy = bottom - y2
    return verts + np.array([dx, dy])


def _polygon(verts: np.ndarray) -> PolygonMask:
    return PolygonMask(tuple((float(x), float(y)) for x, y in verts))


def _rect(x1: float, y1: float, x2: float, y2: float) -> PolygonMask:
    return PolygonMask(((x1, y1), (x2, y1), (x2, y2), (x1, y2)))


def _solve_template_probs(mix: tuple[float, float, float], allow_tanks: bool) -> np.ndarray:
    """Template probabilities whose expected pair-label mix matches `mix`."""
    fa, fn, fo = mix
    if not allow_tanks:
        p = np.array([fa + fn, 0.0, 0.0, fo])
        return p / p.sum() if p.sum() > 0 else np.full(4, 0.25)
    r1 = _TEMPLATE_HIST[:, 0] - fa * _TEMPLATE_PAIRS
    r2 = _TEMPLATE_HIST[:, 1] - fn * _TEMPLATE_PAIRS
    for p_near in (0.15, 0.10, 0.05, 0.0):
        a = np.array(
            [
                [r1[0], r1[1], r1[3]],
                [r2[0], r2[1], r2[3]],
                [1.0, 1.0, 1.0],
            ]
        )
        b = np.array([-r1[2] * p_near, -r2[2] * p_near, 1.0 - p_near])
        try:
            p1, p2, p4 = np.linalg.solve(a, b)
        except np.linalg.LinAlgError:
            continue
        p = np.array([p1, p2, p_near, p4])
        if (p > -1e-12).all():
            return np.clip(p, 0.0, None) / np.clip(p, 0.0, None).sum()
    p = np.array([fa + fn, 0.0, 0.0, fo])  # best effort for extreme mixes
    return p / p.sum() if p.sum() > 0 else np.full(4, 0.25)


# ---------------------------------------------------------------------------
# Scene composition
# ---------------------------------------------------------------------------

def _compose(cfg: GenConfig, rng: np.random.Generator, template: int):
    """One placement attempt; returns (object specs, expected core labels)."""
    w, h = float(cfg.width), float(cfg.height)
    m = min(w, h)
    band_top = h * (1.0 - rng.uniform(*cfg.band_frac))
    specs: list[tuple[ClassLabel, PolygonMask]] = [
        (ClassLabel.GROUND, _rect(0.0, band_top, w, h))
    ]
    ground_i = 0
    expected: list[tuple[int, int, RelationLabel]] = []

    n_blobs = int(rng.integers(cfg.blobs[0], cfg.blobs[1] + 1))
    wants_tank = template in (_T_ON_GROUND_TANK, _T_NEAR_TANK)
    n_tanks = int(rng.integers(cfg.tanks[0], cfg.tanks[1] + 1))
    if wants_tank and cfg.tanks[1] >= 1:
        n_tanks = max(n_tanks, 1)
    if n_blobs >= 1 and not wants_tank:
        n_tanks = min(n_tanks, cfg.tanks[0])
    side = 1.0 if rng.random() < 0.5 else -1.0  # mirror placements

    def edge_x(frac: float) -> float:
        return w / 2 + side * (frac - 0.5) * w

    tank_is: list[int] = []
    for k in range(n_tanks):
        tw = rng.uniform(0.08, 0.12) * w
        th = rng.uniform(0.20, 0.26) * h
        cx = edge_x(rng.uniform(0.84, 0.90)) - side * k * 1.25 * tw
        x1 = min(max(cx - tw / 2, 1.0), w - 1.0 - tw)
        specs.append((ClassLabel.OIL_STORAGE_DEVICE, _rect(x1, band_top - th, x1 + tw, band_top)))
        tank_is.append(len(specs) - 1)
        if k == 0 and wants_tank:
            expected.append((tank_is[0], ground_i, RelationLabel.ABOVE))
            expected.append((ground_i, tank_is[0], RelationLabel.OTHER))

    blob_is: list[int] = []
    for k in range(n_blobs):
        r_base = rng.uniform(*_BLOB_RADIUS_FRAC) * m
        verts = _star_vertices(
            rng, int(rng.integers(cfg.blob_vertices[0], cfg.blob_vertices[1] + 1)), r_base
        )
        if template == _T_ON_GROUND and k == 0:
            verts = _place(verts, cx=w / 2 + rng.uniform(-0.15, 0.15) * w,
                           bottom=band_top + 0.04 * h)
        elif template == _T_ON_GROUND_TANK and k == 0:
            verts = _place(verts, cx=edge_x(rng.uniform(0.30, 0.42)),
                           bottom=band_top + 0.04 * h)
        elif template == _T_NEAR_TANK and k == 0 and tank_is:
            tank_box = specs[tank_is[0]][1].bbox()
            anchor = tank_box.x1 if side > 0 else tank_box.x2
            verts = _place(verts, cy=tank_box.y1 + 0.15 * tank_box.height)
            if side > 0:
                verts = _place(verts, right=anchor - 0.015 * w, cy=tank_box.y1 + 0.15 * tank_box.height)
            else:
                x1v = verts[:, 0].min()
                verts = verts + np.array([anchor + 0.015 * w - x1v, 0.0])
        elif template in (_T_ON_GROUND, _T_ON_GROUND_TANK):  # extra blobs join the band
            verts = _place(verts, cx=rng.uniform(0.20, 0.80) * w, bottom=band_top + 0.04 * h)
        else:  # floating, far from everything
            verts = _place(verts, cx=rng.uniform(0.18, 0.82) * w,
                           cy=rng.uniform(0.15, 0.38) * h)
        if verts[:, 0].min() < 1 or verts[:, 0].max() > w - 1 or verts[:, 1].min() < 1:
            verts = _place(verts, cx=np.clip(verts[:, 0].mean(), 0.18 * w, 0.82 * w))
            verts[:, 1] = np.clip(verts[:, 1], 1.0, h - 1.0)
        specs.append((ClassLabel.SUSPECTED_AREA, _polygon(verts)))
        blob_is.append(len(specs) - 1)

    if blob_is:
        b0 = blob_is[0]
        if template in (_T_ON_GROUND, _T_ON_GROUND_TANK):
            expected.append((b0, ground_i, RelationLabel.ABOVE))
            expected.append((ground_i, b0, RelationLabel.NEARBY))
        else:
            expected.append((b0, ground_i, RelationLabel.OTHER))
            expected.append((ground_i, b0, RelationLabel.OTHER))
        if tank_is and wants_tank:
            t0 = tank_is[0]
            want = RelationLabel.NEARBY if template == _T_NEAR_TANK else RelationLabel.OTHER
            expected.append((b0, t0, want))
            expected.append((t0, b0, want))

    if rng.random() < cfg.distractor_prob:
        for _ in range(int(rng.integers(1, 3))):
            r_base = rng.uniform(0.03, 0.06) * m
            verts = _star_vertices(rng, int(rng.integers(5, 9)), r_base)
            for _try in range(20):
                cand = _place(verts, cx=rng.uniform(0.10, 0.90) * w,
                              cy=rng.uniform(0.08, 0.70) * h)
                box = BBox(cand[:, 0].min(), cand[:, 1].min(), cand[:, 0].max(), cand[:, 1].max())
                others = (s[1].bbox() for s in specs)
                if all(
                    box.x2 <= o.x1 or o.x2 <= box.x1 or box.y2 <= o.y1 or o.y2 <= box.y1
                    for o in others
                ):
                    specs.append((ClassLabel.OTHER, _polygon(cand)))
                    break
    return specs, expected


def _confidence(rng: np.random.Generator, jitter: float) -> float:
    return float(np.clip(1.0 - abs(rng.normal(0.0, jitter)), 0.5, 1.0))


def scene_id(cfg: GenConfig, index: int) -> str:
    return f"{cfg.seed}:{index}"


def gen_scene(cfg: GenConfig, index: int) -> Scene:
    """Generate one scene; deterministic in (cfg, index)."""
    rng = np.random.default_rng((cfg.seed, index))
    probs = _solve_template_probs(cfg.mix, allow_tanks=cfg.tanks[1] >= 1)
    template = int(rng.choice(4, p=probs))
    w, h = float(cfg.width), float(cfg.height)

    specs, expected = _compose(cfg, rng, template)
    for _ in range(_MAX_COMPOSE_ATTEMPTS - 1):
        objs = [
            DetectedObject(i + 1, lbl, 1.0, poly.bbox(), poly)
            for i, (lbl, poly) in enumerate(specs)
        ]
        if all(
            label_relation_oracle(objs[si], objs[ri], w, h) == want
            for si, ri, want in expected
        ):
            break
        specs, expected = _compose(cfg, rng, template)

    objects = tuple(
        DetectedObject(i + 1, lbl, _confidence(rng, cfg.confidence_jitter), poly.bbox(), poly)
        for i, (lbl, poly) in enumerate(specs)
    )
    grounds = [o for o in objects if o.label is ClassLabel.GROUND]
    tanks = [o for o in objects if o.label is ClassLabel.OIL_STORAGE_DEVICE]
    leak = any(
        any(label_relation_oracle(b, g, w, h) is RelationLabel.ABOVE for g in grounds)
        or any(label_relation_oracle(b, t, w, h) is RelationLabel.NEARBY for t in tanks)
        for b in objects
        if b.label is ClassLabel.SUSPECTED_AREA
    )
    return Scene(
        image_width=cfg.width,
        image_height=cfg.height,
        objects=objects,
        leak_label=leak,
    )


def gen_scenes(cfg: GenConfig, n: int) -> list[Scene]:
    return [gen_scene(cfg, i) for i in range(n)]


# ---------------------------------------------------------------------------
# Pair datasets
# ---------------------------------------------------------------------------

def _quotas(n_pairs: int, mix: tuple[float, float, float]) -> list[int]:
    raw = [n_pairs * f for f in mix]
    counts = [int(math.floor(x)) for x in raw]
    rema = sorted(range(3), key=lambda i: raw[i] - counts[i], reverse=True)
    for i in range(n_pairs - sum(counts)):
        counts[rema[i % 3]] += 1
    return counts


def gen_pair_dataset(
    cfg: GenConfig, n_pairs: int, max_scenes: int | None = None
) -> list[LabeledPair]:
    """Labeled pairs balanced to cfg.mix, harvested from generated scenes.

    Scans scenes in index order, labeling every ordered object pair with the
    oracle and keeping pairs until each relation's quota (largest-remainder
    split of n_pairs by the mix) is filled.
    """
    if n_pairs < 1:
        raise ConfigError("n_pairs must be >= 1")
    if max_scenes is None:
        max_scenes = 50 + 20 * n_pairs
    need = _quotas(n_pairs, cfg.mix)
    out: list[LabeledPair] = []
    w, h = float(cfg.width), float(cfg.height)
    for index in range(max_scenes):
        if sum(need) == 0:
            break
        scene = gen_scene(cfg, index)
        sid = scene_id(cfg, index)
        for subject in scene.objects:
            for reference in scene.objects:
                if subject.id == reference.id:
                    continue
                label = label_relation_oracle(subject, reference, w, h)
                k = (RelationLabel.ABOVE, RelationLabel.NEARBY, RelationLabel.OTHER).index(label)
                if need[k] == 0:
                    continue
                need[k] -= 1
                out.append(
                    LabeledPair(
                        sample=make_pair_sample(subject, reference, w, h, label),
                        scene=sid,
                        subject_id=subject.id,
                        reference_id=reference.id,
                    )
                )
    if sum(need) > 0:
        names = [
            lbl.value
            for lbl, n in zip(
                (RelationLabel.ABOVE, RelationLabel.NEARBY, RelationLabel.OTHER), need
            )
            if n > 0
        ]
        raise DataError(
            f"pair classes unreachable with this config: {', '.join(names)} "
            f"(scanned {max_scenes} scenes)"
        )
    return out


def write_pairs_jsonl(pairs: list[LabeledPair], path: str) -> None:
    """One LabeledPair per line; floats round-trip exactly."""
    with open(path, "w", encoding="utf-8") as f:
        for p in pairs:
            s = p.sample
            doc = {
                "scene": p.scene,
                "subject": p.subject_id,
                "reference": p.reference_id,
                "label": s.label.value if s.label else None,
                "grid": s.raster.width,
                "raster": s.raster.values.ravel().tolist(),
                "v_poi": s.v_poi.tolist(),
                "v_cls": s.v_cls.tolist(),
            }
            f.write(json.dumps(doc) + "\n")


#: Exact types of a pair record's fields: a bool is no id, 28.0 no grid.
_PAIR_TYPES = {
    "scene": (str,), "subject": (int,), "reference": (int,), "grid": (int,),
    "label": (str, type(None)),
}


def _pair_vectors(doc) -> list[np.ndarray]:
    """Check a decoded pair record's field types; return its raster, v_poi
    and v_cls, each a flat list of JSON numbers, as float64 arrays."""
    for key, kinds in _PAIR_TYPES.items():
        if type(doc[key]) not in kinds:
            raise TypeError(f"{key}: expected {' or '.join(k.__name__ for k in kinds)}, "
                            f"got {doc[key]!r:.40}")
    vectors = []
    for key in ("raster", "v_poi", "v_cls"):
        v = doc[key]
        if type(v) is not list or not set(map(type, v)) <= {int, float}:
            raise TypeError(f"{key}: expected a list of numbers")
        vectors.append(np.asarray(v, dtype=np.float64))
    return vectors


def read_pairs_jsonl(path: str) -> list[LabeledPair]:
    """Read a file written by write_pairs_jsonl.  A malformed or retyped
    record raises a DataError naming the file, the line and the field."""
    pairs: list[LabeledPair] = []
    with open(path, "rb") as f:  # decoded per line, so bad bytes get a line number
        for line_no, line in enumerate(f, start=1):
            if not line.strip():
                continue
            try:
                doc = json.loads(line.decode("utf-8"))
                raster, v_poi, v_cls = _pair_vectors(doc)
                grid = doc["grid"]
                sample = PairSample(
                    raster=MaskRaster(grid, grid, raster.reshape(grid, grid)),
                    v_poi=v_poi,
                    v_cls=v_cls,
                    label=None if doc["label"] is None else RelationLabel.parse(doc["label"]),
                )
                pairs.append(
                    LabeledPair(
                        sample=sample,
                        scene=doc["scene"],
                        subject_id=doc["subject"],
                        reference_id=doc["reference"],
                    )
                )
            except (KeyError, ValueError, TypeError, OverflowError) as e:
                raise DataError(f"{path}:{line_no}: bad pair record: {e}") from None
    return pairs
