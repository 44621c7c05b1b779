"""Tests for the synthetic scene generator and pair-dataset harvesting."""

import collections
import re
from dataclasses import replace

import numpy as np
import pytest

from leakscan.errors import ConfigError, DataError
from leakscan.relnet import RelationLabel, make_pair_sample
from leakscan.scene import BBox, ClassLabel, DetectedObject, MaskRaster, PolygonMask
from leakscan.scenegen import (
    GenConfig,
    gen_pair_dataset,
    gen_scene,
    gen_scenes,
    label_relation_oracle,
    read_pairs_jsonl,
    scene_id,
    write_pairs_jsonl,
)


def box_object(oid, label, x1, y1, x2, y2):
    return DetectedObject(
        id=oid,
        label=label,
        confidence=1.0,
        bbox=BBox(x1, y1, x2, y2),
        polygon=PolygonMask(((x1, y1), (x2, y1), (x2, y2), (x1, y2))),
    )


# ---------------------------------------------------------------------------
# Config validation
# ---------------------------------------------------------------------------

def test_gen_config_validation():
    with pytest.raises(ConfigError, match="sum to 1"):
        GenConfig(mix=(0.5, 0.5, 0.5))
    with pytest.raises(ConfigError, match="range is empty"):
        GenConfig(tanks=(2, 1))
    with pytest.raises(ConfigError, match="band_frac"):
        GenConfig(band_frac=(0.01, 0.2))
    with pytest.raises(ConfigError, match="32x32"):
        GenConfig(width=16)
    with pytest.raises(ConfigError, match="distractor_prob"):
        GenConfig(distractor_prob=1.5)
    with pytest.raises(ConfigError, match="3 vertices"):
        GenConfig(blob_vertices=(2, 5))


# ---------------------------------------------------------------------------
# Relation oracle
# ---------------------------------------------------------------------------

def test_oracle_above_hand_cases():
    w = h = 100.0
    ground = box_object(1, ClassLabel.GROUND, 0, 80, 100, 100)
    resting = box_object(2, ClassLabel.SUSPECTED_AREA, 40, 66, 60, 82)
    assert label_relation_oracle(resting, ground, w, h) is RelationLabel.ABOVE
    # Directional: the ground is not "above" the blob.
    assert label_relation_oracle(ground, resting, w, h) is not RelationLabel.ABOVE

    hovering = box_object(3, ClassLabel.SUSPECTED_AREA, 40, 50, 60, 70)
    # Bottom edge 10 units over the ground top: outside the resting window
    # (bottom must be within [-5, +15] of the reference top), but the centers
    # are 30 apart, inside the nearby radius 0.25 * hypot(100, 100) ~ 35.4.
    assert label_relation_oracle(hovering, ground, w, h) is RelationLabel.NEARBY

    offset = box_object(4, ClassLabel.SUSPECTED_AREA, 0, 66, 4, 82)
    near_edge = box_object(5, ClassLabel.GROUND, 5, 80, 100, 100)
    # Horizontal overlap is negative; never above regardless of height.
    assert label_relation_oracle(offset, near_edge, w, h) is not RelationLabel.ABOVE


def test_oracle_nearby_and_other_hand_cases():
    w = h = 100.0
    a = box_object(1, ClassLabel.SUSPECTED_AREA, 10, 10, 20, 20)
    b = box_object(2, ClassLabel.OIL_STORAGE_DEVICE, 30, 10, 40, 20)
    # Centers 20 apart; threshold is 0.25 * hypot(100, 100) ~ 35.36.
    assert label_relation_oracle(a, b, w, h) is RelationLabel.NEARBY
    assert label_relation_oracle(b, a, w, h) is RelationLabel.NEARBY
    far = box_object(3, ClassLabel.OIL_STORAGE_DEVICE, 80, 80, 95, 95)
    assert label_relation_oracle(a, far, w, h) is RelationLabel.OTHER


def test_oracle_above_is_antisymmetric():
    rng = np.random.default_rng(0)
    for _ in range(300):
        x1, y1 = rng.uniform(0, 70, 2)
        a = box_object(1, ClassLabel.SUSPECTED_AREA, x1, y1,
                       x1 + rng.uniform(2, 25), y1 + rng.uniform(2, 25))
        x2, y2 = rng.uniform(0, 70, 2)
        b = box_object(2, ClassLabel.GROUND, x2, y2,
                       x2 + rng.uniform(2, 25), y2 + rng.uniform(2, 25))
        fwd = label_relation_oracle(a, b, 100, 100)
        rev = label_relation_oracle(b, a, 100, 100)
        if fwd is RelationLabel.ABOVE:
            assert rev is not RelationLabel.ABOVE
        # Nearby is symmetric whenever neither direction is above.
        if RelationLabel.ABOVE not in (fwd, rev):
            assert fwd is rev


# ---------------------------------------------------------------------------
# Scene generation
# ---------------------------------------------------------------------------

def test_gen_scene_deterministic_and_index_pure():
    cfg = GenConfig(seed=3)
    a = gen_scene(cfg, 5)
    b = gen_scene(cfg, 5)
    assert a == b
    # Generating other indices in between changes nothing.
    gen_scenes(cfg, 4)
    assert gen_scene(cfg, 5) == a
    assert gen_scene(GenConfig(seed=4), 5) != a


def test_gen_scene_structure():
    cfg = GenConfig(seed=1)
    for scene in gen_scenes(cfg, 20):
        assert scene.image_width == cfg.width
        assert scene.leak_label is not None
        ids = [o.id for o in scene.objects]
        assert len(set(ids)) == len(ids)
        assert min(ids) >= 1
        labels = [o.label for o in scene.objects]
        assert labels.count(ClassLabel.GROUND) == 1
        assert all(0.5 <= o.confidence <= 1.0 for o in scene.objects)


def test_all_above_mix_always_leaks():
    cfg = GenConfig(seed=7, tanks=(0, 0), mix=(1.0, 0.0, 0.0))
    scenes = gen_scenes(cfg, 25)
    assert all(s.leak_label for s in scenes)
    for s in scenes:
        blobs = [o for o in s.objects if o.label is ClassLabel.SUSPECTED_AREA]
        ground = next(o for o in s.objects if o.label is ClassLabel.GROUND)
        assert any(
            label_relation_oracle(b, ground, s.image_width, s.image_height)
            is RelationLabel.ABOVE
            for b in blobs
        )


def test_all_other_mix_never_leaks():
    cfg = GenConfig(seed=8, tanks=(0, 0), mix=(0.0, 0.0, 1.0))
    assert not any(s.leak_label for s in gen_scenes(cfg, 25))


def test_zero_blobs_never_leak():
    cfg = GenConfig(seed=9, blobs=(0, 0), mix=(0.0, 0.0, 1.0))
    scenes = gen_scenes(cfg, 15)
    assert not any(s.leak_label for s in scenes)
    assert not any(
        o.label is ClassLabel.SUSPECTED_AREA for s in scenes for o in s.objects
    )


def test_leak_label_matches_oracle_definition():
    cfg = GenConfig(seed=2, distractor_prob=0.3)
    for scene in gen_scenes(cfg, 40):
        w, h = scene.image_width, scene.image_height
        blobs = [o for o in scene.objects if o.label is ClassLabel.SUSPECTED_AREA]
        grounds = [o for o in scene.objects if o.label is ClassLabel.GROUND]
        tanks = [o for o in scene.objects if o.label is ClassLabel.OIL_STORAGE_DEVICE]
        want = any(
            any(label_relation_oracle(b, g, w, h) is RelationLabel.ABOVE for g in grounds)
            or any(label_relation_oracle(b, t, w, h) is RelationLabel.NEARBY for t in tanks)
            for b in blobs
        )
        assert scene.leak_label == want


def test_distractors_present_and_disjoint():
    cfg = GenConfig(seed=4, distractor_prob=1.0)
    scenes = gen_scenes(cfg, 15)
    n_distractors = 0
    for s in scenes:
        others = [o for o in s.objects if o.label is ClassLabel.OTHER]
        n_distractors += len(others)
        rest = [o for o in s.objects if o.label is not ClassLabel.OTHER]
        for d in others:
            for o in rest:
                b, ob = d.bbox, o.bbox
                assert (
                    b.x2 <= ob.x1 or ob.x2 <= b.x1 or b.y2 <= ob.y1 or ob.y2 <= b.y1
                )
    assert n_distractors >= 5


def test_corpus_mix_matches_config():
    cfg = GenConfig(seed=0)
    counts = collections.Counter()
    for i in range(400):
        scene = gen_scene(cfg, i)
        for s in scene.objects:
            for r in scene.objects:
                if s.id != r.id:
                    counts[
                        label_relation_oracle(s, r, scene.image_width, scene.image_height)
                    ] += 1
    total = sum(counts.values())
    fractions = [
        counts[RelationLabel.ABOVE] / total,
        counts[RelationLabel.NEARBY] / total,
        counts[RelationLabel.OTHER] / total,
    ]
    for got, want in zip(fractions, cfg.mix):
        assert abs(got - want) < 0.05


# ---------------------------------------------------------------------------
# Pair datasets
# ---------------------------------------------------------------------------

def test_pair_dataset_exact_quotas():
    cfg = GenConfig(seed=5)
    pairs = gen_pair_dataset(cfg, 30)
    assert len(pairs) == 30
    counts = collections.Counter(p.sample.label for p in pairs)
    assert counts[RelationLabel.ABOVE] == 10
    assert counts[RelationLabel.NEARBY] == 10
    assert counts[RelationLabel.OTHER] == 10


def test_pair_dataset_regenerates_from_provenance():
    cfg = GenConfig(seed=6)
    pairs = gen_pair_dataset(cfg, 24)
    for p in pairs[:12]:
        sid, sep, index = p.scene.partition(":")
        assert sep and int(sid) == cfg.seed
        scene = gen_scene(cfg, int(index))
        assert scene_id(cfg, int(index)) == p.scene
        subject = scene.object_by_id(p.subject_id)
        reference = scene.object_by_id(p.reference_id)
        w, h = scene.image_width, scene.image_height
        assert label_relation_oracle(subject, reference, w, h) is p.sample.label
        rebuilt = make_pair_sample(subject, reference, w, h, p.sample.label)
        assert rebuilt == p.sample


def test_pair_dataset_seeds_are_disjoint():
    a = gen_pair_dataset(GenConfig(seed=20), 10)
    b = gen_pair_dataset(GenConfig(seed=21), 10)
    assert {p.scene for p in a}.isdisjoint({p.scene for p in b})


def test_pair_dataset_unreachable_class_error():
    cfg = GenConfig(seed=0, blobs=(0, 0), tanks=(0, 0), mix=(0.4, 0.3, 0.3))
    with pytest.raises(DataError, match="unreachable.*above, nearby, other"):
        gen_pair_dataset(cfg, 6, max_scenes=5)


def test_pair_dataset_validates_n_pairs():
    with pytest.raises(ConfigError, match="n_pairs"):
        gen_pair_dataset(GenConfig(), 0)


def test_pairs_jsonl_round_trip(tmp_path):
    cfg = GenConfig(seed=12)
    pairs = gen_pair_dataset(cfg, 18)
    path = str(tmp_path / "pairs.jsonl")
    write_pairs_jsonl(pairs, path)
    again = read_pairs_jsonl(path)
    assert again == pairs


def test_pairs_jsonl_fuzz_raises_only_located_errors(tmp_path, text_mutator):
    """Corrupted pair files read to pairs that write and read back
    unchanged, or raise DataError or ConfigError."""
    path = tmp_path / "pairs.jsonl"
    # 8x8 crops of the rasters, so that a mutation lands in the other fields
    # about as often as in the raster.
    pairs = [
        replace(p, sample=replace(p.sample, raster=MaskRaster(8, 8, p.sample.raster.values[10:18, 10:18])))
        for p in gen_pair_dataset(GenConfig(seed=13), 3)
    ]
    write_pairs_jsonl(pairs, str(path))
    text = path.read_text(encoding="utf-8")
    again = tmp_path / "again.jsonl"
    rng = np.random.default_rng(16)
    outcomes = {"read": 0, "rejected": 0}
    for _ in range(1200):
        path.write_text(text_mutator(rng, text), encoding="utf-8")
        try:
            pairs = read_pairs_jsonl(str(path))
        except (DataError, ConfigError):
            outcomes["rejected"] += 1
            continue
        write_pairs_jsonl(pairs, str(again))
        assert read_pairs_jsonl(str(again)) == pairs
        outcomes["read"] += 1
    assert min(outcomes.values()) > 50, outcomes  # both outcomes are exercised


def test_pairs_jsonl_bad_line_reports_location(tmp_path):
    path = tmp_path / "pairs.jsonl"
    path.write_text('{"scene": "0:0"}\n')
    with pytest.raises(DataError, match=r"pairs.jsonl:1"):
        read_pairs_jsonl(str(path))
    write_pairs_jsonl(gen_pair_dataset(GenConfig(seed=12), 2), str(path))
    first, second = path.read_text().splitlines()
    # Numbers no float or int can hold: 1e999 reads as inf, then a grid or an
    # object id cannot convert it; a 400-digit integer overflows a float.
    # Retyped fields are rejected, not coerced: a float id or grid, a null
    # scene, a boolean label, a string or a boolean inside a vector.
    for bad in (
        second.replace('"grid": 28', '"grid": 1e999'),
        second.replace('"subject": ', '"subject": 1e999, "x": '),
        second.replace('"raster": [', '"raster": [1' + "0" * 400 + ", ", 1),
        second.replace('"subject": ', '"subject": 1.9, "x": '),
        second.replace('"grid": 28', '"grid": 28.0'),
        second.replace('"scene": ', '"scene": null, "x": '),
        re.sub(r'"label": "[a-z]+"', '"label": false', second),
        *(
            re.sub(rf'"{key}": \[([^,\]]+)', rf'"{key}": [{value}', second, count=1)
            for key in ("raster", "v_poi", "v_cls")
            for value in (r'"\1"', "true", "false")
        ),
    ):
        assert bad != second
        path.write_text(first + "\n" + bad + "\n")
        with pytest.raises(DataError, match=r"pairs.jsonl:2: bad pair record"):
            read_pairs_jsonl(str(path))
