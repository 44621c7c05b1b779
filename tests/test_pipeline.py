"""Tests for metrics, AP, pipeline loading, inference and evaluation."""

import dataclasses
import functools
import json

import numpy as np
import pytest

from leakscan import logic
from leakscan import relnet as rn
from leakscan.errors import ConfigError, DataError
from leakscan.logic import RuleParams, parse_rules, save_rule_params
from leakscan.pipeline import (
    ABLATION_VARIANTS,
    COMPACT_RELNET_CONFIG,
    DEFAULT_IOU_GRID,
    DEFAULT_RULES_TEXT,
    Pipeline,
    PipelineConfig,
    ablate_sample,
    ap_at_iou,
    baseline_score,
    config_hash,
    f1,
    load_pipeline,
    load_pipeline_config,
    mean_ap,
    multiclass_f1,
    relation_ablation_table,
    relation_eval,
    render_table,
    run_eval,
    run_inference,
    scene_classification_report,
    scene_pair_probs,
)
from leakscan.scene import BBox, ClassLabel, DetectedObject, PolygonMask, Scene
from leakscan.scenegen import GenConfig, gen_scenes

TINY = rn.RelNetConfig(grid=12, conv1_filters=4, conv2_filters=4, fc1_units=8, fc2_units=8)


def box_object(oid, label, x1, y1, x2, y2, confidence=0.9):
    return DetectedObject(
        id=oid,
        label=label,
        confidence=confidence,
        bbox=BBox(x1, y1, x2, y2),
        polygon=PolygonMask(((x1, y1), (x2, y1), (x2, y2), (x1, y2))),
    )


def unit_box(x):
    return BBox(x, 0.0, x + 10.0, 10.0)


def write_pipeline_files(tmp_path, *, inline=False, net_config=TINY, seed=0):
    """A loadable rules + weights + params trio; returns the PipelineConfig."""
    rules_path = str(tmp_path / "rules.txt")
    weights_path = str(tmp_path / "relnet.json")
    params_path = str(tmp_path / "rule_params.json")
    if inline:
        text = (
            "OilArea(A) <- SuspectedArea(A) & Ground(B) & On(A,B)"
            " : [0.645, 0.181, 0.162, 0.012].\n"
            "OilArea(A) <- SuspectedArea(A) & OilStorageDevice(B) & Around(A,B)"
            " : [0.39, 0.323, 0.247, 0.04].\n"
        )
        with open(rules_path, "w") as fh:
            fh.write(text)
        params_arg = None
    else:
        with open(rules_path, "w") as fh:
            fh.write(DEFAULT_RULES_TEXT)
        save_rule_params(
            [
                RuleParams(weights=(0.645, 0.181, 0.162), bias=0.012),
                RuleParams(weights=(0.39, 0.323, 0.247), bias=0.04),
                RuleParams(
                    weights=(0.417, 0.08, 0.297, 0.062, 0.124), bias=0.02
                ),
            ],
            params_path,
        )
        params_arg = params_path
    rn.save_params(rn.init_params(net_config, seed), weights_path)
    return PipelineConfig(
        rules_path=rules_path,
        relnet_weights_path=weights_path,
        rule_params_path=params_arg,
    )


# ---------------------------------------------------------------------------
# Scalar metrics
# ---------------------------------------------------------------------------

def test_f1_hand_values():
    assert f1(0.0, 0.0) == 0.0
    assert f1(1.0, 1.0) == 1.0
    assert f1(0.8, 0.6) == pytest.approx(0.685714285714, abs=1e-12)
    assert f1(1.0, 0.0) == 0.0


def test_multiclass_f1_hand_values():
    macro, per = multiclass_f1([0, 0, 1, 2], [0, 1, 1, 2], 3)
    assert per[0] == pytest.approx(2 / 3)
    assert per[1] == pytest.approx(2 / 3)
    assert per[2] == 1.0
    assert macro == pytest.approx(7 / 9)
    macro_empty, per_empty = multiclass_f1([0, 0], [0, 0], 3)
    assert per_empty == [1.0, 0.0, 0.0]  # absent classes score 0, not NaN


def test_scene_classification_report_hand_values():
    r = scene_classification_report([True, True, False, False], [True, False, True, False])
    assert r["confusion"] == {"tp": 1, "fp": 1, "tn": 1, "fn": 1}
    assert r["leak"]["f1"] == r["normal"]["f1"] == r["total"]["f1"] == 0.5
    assert r["leak"]["precision"] == 0.5
    assert list(r) == ["leak", "normal", "total", "confusion"]
    assert all(list(r[c]) == ["precision", "recall", "f1"] for c in ("leak", "normal", "total"))


def test_scene_classification_report_degenerate_is_zero_safe():
    r = scene_classification_report([False, False], [False, False])
    assert r["leak"]["f1"] == 0.0
    assert r["normal"]["f1"] == 1.0
    assert r["total"]["f1"] == 0.5
    perfect = scene_classification_report([True, False], [True, False])
    assert perfect["total"]["f1"] == 1.0


# ---------------------------------------------------------------------------
# Average precision
# ---------------------------------------------------------------------------

def test_ap_hand_case():
    gts = [(0, unit_box(0)), (0, unit_box(20)), (0, unit_box(40))]
    preds = [
        (0, 0.9, unit_box(0)),    # hit
        (0, 0.8, unit_box(60)),   # miss
        (0, 0.7, unit_box(20)),   # hit
        (0, 0.6, unit_box(40)),   # hit
    ]
    # Precisions 1, 1/2, 2/3, 3/4 at recalls 1/3, 1/3, 2/3, 1; the envelope
    # raises the tail to 3/4.
    assert ap_at_iou(preds, gts, 0.5) == pytest.approx(1 / 3 + 0.75 * 2 / 3)


def test_ap_duplicate_detection_counts_as_false_positive():
    gts = [(0, unit_box(0)), (0, unit_box(20))]
    preds = [
        (0, 0.9, unit_box(0)),
        (0, 0.8, unit_box(0)),   # duplicate on the first object
        (0, 0.7, unit_box(20)),
    ]
    assert ap_at_iou(preds, gts, 0.5) == pytest.approx(0.5 + 0.5 * 2 / 3)


def test_ap_edge_conventions():
    gts = [(0, unit_box(0))]
    assert ap_at_iou([], gts, 0.5) == 0.0
    assert ap_at_iou([], [], 0.5) == 1.0
    assert ap_at_iou([(0, 0.9, unit_box(0))], [], 0.5) == 0.0
    assert ap_at_iou([(0, 0.9, unit_box(0))], gts, 0.5) == 1.0
    # Image ids partition the matching.
    assert ap_at_iou([(1, 0.9, unit_box(0))], gts, 0.5) == 0.0


def test_ap_matches_highest_iou_ground_truth():
    gts = [(0, BBox(0.0, 0.0, 10.0, 10.0)), (0, BBox(8.0, 0.0, 18.0, 10.0))]
    preds = [
        (0, 0.9, BBox(7.0, 0.0, 17.0, 10.0)),  # overlaps both, closer to gt2
        (0, 0.8, BBox(8.0, 0.0, 18.0, 10.0)),  # exactly gt2, now taken
    ]
    # First pred consumes gt2 (higher IoU); second finds gt2 used and gt1
    # under threshold, so it is a false positive.
    assert ap_at_iou(preds, gts, 0.5) == pytest.approx(0.5)


def _slow_every_point_ap(preds, gts, thr):
    """Independent AP: greedy matching plus sum of recall-step rectangles."""
    from leakscan.scene import bbox_iou as iou

    remaining = {}
    for img, box in gts:
        remaining.setdefault(img, []).append(box)
    ranked = sorted(preds, key=lambda p: -p[1])
    hits = []
    for img, _score, box in ranked:
        cands = remaining.get(img, [])
        best = max(range(len(cands)), key=lambda j: iou(box, cands[j]), default=None)
        if best is not None and iou(box, cands[best]) >= thr:
            del cands[best]
            hits.append(1)
        else:
            hits.append(0)
    precs = [sum(hits[: k + 1]) / (k + 1) for k in range(len(hits))]
    ap = 0.0
    for k, h in enumerate(hits):
        if h:
            ap += max(precs[k:]) / len(gts)
    return ap


def test_ap_matches_independent_oracle_on_random_corpora():
    rng = np.random.default_rng(1)
    for _ in range(15):
        gts = []
        preds = []
        for img in range(3):
            for _ in range(int(rng.integers(0, 5))):
                x, y = rng.uniform(0, 80, 2)
                gt = BBox(x, y, x + rng.uniform(5, 15), y + rng.uniform(5, 15))
                gts.append((img, gt))
                if rng.random() < 0.8:  # jittered detection of this object
                    dx, dy = rng.uniform(-4, 4, 2)
                    preds.append(
                        (
                            img,
                            float(rng.random()),
                            BBox(gt.x1 + dx, gt.y1 + dy, gt.x2 + dx, gt.y2 + dy),
                        )
                    )
            for _ in range(int(rng.integers(0, 3))):  # pure noise
                x, y = rng.uniform(0, 80, 2)
                preds.append(
                    (img, float(rng.random()), BBox(x, y, x + 8, y + 8))
                )
        if not gts:
            continue
        for thr in (0.5, 0.75):
            got = ap_at_iou(preds, gts, thr)
            assert got == pytest.approx(_slow_every_point_ap(preds, gts, thr), abs=1e-12)
        # Raising the IoU bar can only lower AP.
        aps = [ap_at_iou(preds, gts, t) for t in DEFAULT_IOU_GRID]
        assert all(a >= b - 1e-12 for a, b in zip(aps, aps[1:]))
        assert mean_ap(preds, gts) == pytest.approx(sum(aps) / len(aps))


# ---------------------------------------------------------------------------
# Configuration and loading
# ---------------------------------------------------------------------------

def test_pipeline_config_validation():
    with pytest.raises(ConfigError, match="threshold"):
        PipelineConfig(rules_path="r", relnet_weights_path="w", threshold=0.0)
    with pytest.raises(ConfigError, match="threshold"):
        PipelineConfig(rules_path="r", relnet_weights_path="w", threshold=1.0)


def test_config_hash_tracks_content():
    a = PipelineConfig(rules_path="r", relnet_weights_path="w")
    b = PipelineConfig(rules_path="r", relnet_weights_path="w")
    c = PipelineConfig(rules_path="r", relnet_weights_path="w", threshold=0.6)
    assert config_hash(a) == config_hash(b)
    assert config_hash(a) != config_hash(c)
    assert len(config_hash(a)) == 64


def test_load_pipeline_config_resolves_relative_paths(tmp_path):
    (tmp_path / "models").mkdir()
    cfg_path = tmp_path / "pipeline.json"
    cfg_path.write_text(
        json.dumps(
            {
                "rules": "models/rules.txt",
                "relnet_weights": "/abs/net.json",
                "threshold": 0.7,
            }
        )
    )
    cfg = load_pipeline_config(str(cfg_path))
    assert cfg.rules_path == str(tmp_path / "models" / "rules.txt")
    assert cfg.relnet_weights_path == "/abs/net.json"
    assert cfg.rule_params_path is None
    assert cfg.threshold == 0.7


def test_load_pipeline_config_errors(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_pipeline_config(str(tmp_path / "missing.json"))
    p = tmp_path / "bad.json"
    p.write_text("{oops")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_pipeline_config(str(p))
    p.write_text(json.dumps({"rules": "r", "relnet_weights": "w", "color": "red"}))
    with pytest.raises(ConfigError, match="unknown pipeline config keys: color"):
        load_pipeline_config(str(p))
    # AP is scored against the corpus's own detections, so no grid is read.
    p.write_text(json.dumps({"rules": "r", "relnet_weights": "w", "iou_grid": [0.5]}))
    with pytest.raises(ConfigError, match="unknown pipeline config keys: iou_grid"):
        load_pipeline_config(str(p))
    p.write_text(json.dumps({"rules": "r"}))
    with pytest.raises(ConfigError, match="missing required key 'relnet_weights'"):
        load_pipeline_config(str(p))
    p.write_text(json.dumps([1]))
    with pytest.raises(ConfigError, match="JSON object"):
        load_pipeline_config(str(p))
    for doc in ({"rules": None, "relnet_weights": "w"}, {"rules": "r", "relnet_weights": ["w"]},
                {"rules": "r", "relnet_weights": "w", "rule_params": 3}):
        p.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match="paths must be strings"):
            load_pipeline_config(str(p))
    p.write_text('{"rules": "r", "relnet_weights": "w", "threshold": 1%s}' % ("0" * 400))
    with pytest.raises(ConfigError, match=r"value at threshold: int too large"):
        load_pipeline_config(str(p))
    p.write_text('{"rules": "r", "relnet_weights": "w", "threshold": 1%s}' % ("0" * 5000))
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_pipeline_config(str(p))
    # Only JSON numbers are numbers: strings and booleans are rejected with
    # the key, not converted.
    for bad in ("0.5", True, False, None, [0.5], {"value": 0.5}):
        p.write_text(json.dumps({"rules": "r", "relnet_weights": "w", "threshold": bad}))
        with pytest.raises(ConfigError, match="bad pipeline config value at threshold"):
            load_pipeline_config(str(p))
    p.write_text(json.dumps({"rules": "r", "relnet_weights": "w", "threshold": 1}))
    with pytest.raises(ConfigError, match="threshold must be in"):  # an int is a number
        load_pipeline_config(str(p))


def test_load_pipeline_config_fuzz_raises_only_located_errors(tmp_path, text_mutator):
    """Corrupted config files load to a config that writes and loads back
    unchanged, or raise DataError or ConfigError; a string or a boolean in
    place of a number is always rejected."""
    path = tmp_path / "pipeline.json"
    doc = {
        "rules": "models/rules.txt",
        "relnet_weights": "/abs/net.npz",
        "rule_params": "params.json",
        "threshold": 0.7,
    }
    text = json.dumps(doc, indent=2)
    again = tmp_path / "again.json"
    rng = np.random.default_rng(18)
    outcomes = {"loaded": 0, "rejected": 0}
    # Every fourth case puts a string or a boolean in place of the
    # threshold, which must be rejected.
    typed = ("0.7", "0.5", "", "1e999", True, False)
    for i in range(1200):
        retyped = i % 4 == 3
        if retyped:
            bad = typed[int(rng.integers(0, len(typed)))]
            mutated = json.dumps(dict(doc, threshold=bad), indent=2)
        else:
            mutated = text_mutator(rng, text)
        path.write_text(mutated, encoding="utf-8")
        try:
            cfg = load_pipeline_config(str(path))
        except (DataError, ConfigError):
            outcomes["rejected"] += 1
            continue
        assert not retyped, mutated
        again.write_text(json.dumps(cfg.to_dict()), encoding="utf-8")
        assert load_pipeline_config(str(again)) == cfg
        outcomes["loaded"] += 1
    assert min(outcomes.values()) > 50, outcomes  # both outcomes are exercised


def test_load_pipeline_happy_paths(tmp_path):
    cfg = write_pipeline_files(tmp_path)
    pipe = load_pipeline(cfg)
    assert len(pipe.rules) == 3
    assert len(pipe.rule_params) == 3
    assert pipe.hash == config_hash(cfg)
    inline_cfg = write_pipeline_files(tmp_path, inline=True)
    pipe2 = load_pipeline(inline_cfg)
    assert len(pipe2.rules) == 2
    assert pipe2.rule_params[0] == RuleParams(weights=(0.645, 0.181, 0.162), bias=0.012)


def test_load_pipeline_error_paths(tmp_path):
    cfg = write_pipeline_files(tmp_path)
    missing_rules = PipelineConfig(
        rules_path=str(tmp_path / "nope.txt"),
        relnet_weights_path=cfg.relnet_weights_path,
        rule_params_path=cfg.rule_params_path,
    )
    with pytest.raises(ConfigError, match="rules file not found"):
        load_pipeline(missing_rules)
    missing_net = PipelineConfig(
        rules_path=cfg.rules_path,
        relnet_weights_path=str(tmp_path / "nope.json"),
        rule_params_path=cfg.rule_params_path,
    )
    with pytest.raises(ConfigError, match="weight file not found"):
        load_pipeline(missing_net)
    # Params count mismatch with the rules file.
    save_rule_params([RuleParams(weights=(0.5, 0.3, 0.1), bias=0.1)],
                     str(tmp_path / "one.json"))
    mismatch = PipelineConfig(
        rules_path=cfg.rules_path,
        relnet_weights_path=cfg.relnet_weights_path,
        rule_params_path=str(tmp_path / "one.json"),
    )
    with pytest.raises(DataError, match="1 parameter sets for 3 rules"):
        load_pipeline(mismatch)
    # Per-rule weight arity cross-check.
    save_rule_params(
        [
            RuleParams(weights=(0.5,), bias=0.1),
            RuleParams(weights=(0.39, 0.323, 0.247), bias=0.04),
            RuleParams(weights=(0.417, 0.08, 0.297, 0.062, 0.124), bias=0.02),
        ],
        str(tmp_path / "arity.json"),
    )
    arity = PipelineConfig(
        rules_path=cfg.rules_path,
        relnet_weights_path=cfg.relnet_weights_path,
        rule_params_path=str(tmp_path / "arity.json"),
    )
    with pytest.raises(DataError, match="rule 0 has 3 premises but 1 weights"):
        load_pipeline(arity)
    # Inline mode requires every rule to carry weights.
    bare_rules = tmp_path / "bare.txt"
    bare_rules.write_text("OilArea(A) <- SuspectedArea(A) & Ground(B) & On(A,B).\n")
    bare = PipelineConfig(
        rules_path=str(bare_rules),
        relnet_weights_path=cfg.relnet_weights_path,
        rule_params_path=None,
    )
    with pytest.raises(ConfigError, match="no inline weights"):
        load_pipeline(bare)


def test_pipeline_count_invariant():
    rules = [ast for ast, _ in parse_rules(DEFAULT_RULES_TEXT)]
    with pytest.raises(ConfigError, match="parameter sets"):
        Pipeline(
            config=PipelineConfig(rules_path="r", relnet_weights_path="w"),
            rules=rules,
            rule_params=[],
            relnet_params=rn.init_params(TINY, 0),
        )


# ---------------------------------------------------------------------------
# Inference
# ---------------------------------------------------------------------------

def scene_with_leak(confidence=0.9):
    return Scene(
        image_width=100,
        image_height=100,
        objects=(
            box_object(1, ClassLabel.SUSPECTED_AREA, 40, 66, 60, 82, confidence),
            box_object(2, ClassLabel.GROUND, 0, 80, 100, 100),
            box_object(3, ClassLabel.OIL_STORAGE_DEVICE, 70, 50, 90, 80),
        ),
        leak_label=True,
    )


def test_scene_pair_probs_matches_direct_prediction():
    params = rn.init_params(TINY, seed=1)
    scene = scene_with_leak()
    lookup = scene_pair_probs(params, scene)
    for s in scene.objects:
        for r in scene.objects:
            if s.id == r.id:  # an object is neither on nor near itself
                assert lookup(s, r).tolist() == [0.0, 0.0, 1.0]
                assert not lookup(s, r).flags.writeable
                continue
            sample = rn.make_pair_sample(
                s, r, scene.image_width, scene.image_height, grid=TINY.grid
            )
            _labels, (y,) = rn.predict_batch(params, [sample])
            np.testing.assert_allclose(lookup(s, r), y, rtol=0, atol=1e-12)


@pytest.mark.parametrize("config", [TINY, rn.RelNetConfig(grid=28, conv1_filters=4,
                                     conv2_filters=4, fc1_units=8, fc2_units=8)])
def test_scene_pair_probs_exactly_match_predict_batch_over_pair_samples(config):
    """scene_pair_probs gives every ordered pair exactly the probabilities
    predict_batch gives the list of make_pair_sample of all pairs, also on
    a scene of more than one 256-pair chunk."""
    params = rn.init_params(config, seed=2)
    crowded = GenConfig(tanks=(2, 2), blobs=(15, 16), distractor_prob=0.5, seed=7)
    scenes = gen_scenes(GenConfig(seed=6), 4) + [scene_with_leak(), gen_scenes(crowded, 1)[0]]
    assert len(scenes[-1].objects) * (len(scenes[-1].objects) - 1) > 256
    for scene in scenes:
        lookup = scene_pair_probs(params, scene)
        pairs = [(s, r) for s in scene.objects for r in scene.objects if s.id != r.id]
        samples = [
            rn.make_pair_sample(s, r, scene.image_width, scene.image_height, grid=config.grid)
            for s, r in pairs
        ]
        _labels, want = rn.predict_batch(params, samples)
        for (s, r), y in zip(pairs, want):
            assert np.array_equal(lookup(s, r), y)


def test_run_inference_report_structure(tmp_path):
    pipe = load_pipeline(write_pipeline_files(tmp_path))
    scene = scene_with_leak()
    report = run_inference(pipe, scene)
    assert set(report) == {
        "config_hash",
        "leak_probability",
        "threshold",
        "decision",
        "fired_rule",
        "rule_scores",
        "pair_relations",
    }
    assert report["config_hash"] == pipe.hash
    assert len(report["rule_scores"]) == 3
    assert report["leak_probability"] == max(report["rule_scores"])
    assert report["decision"] == (report["leak_probability"] >= 0.5)
    assert report["fired_rule"]["index"] == int(np.argmax(report["rule_scores"]))
    assert report["fired_rule"]["rule"].startswith("OilArea(A) <- ")
    assert set(report["fired_rule"]["binding"]) <= {"A", "B", "C"}
    assert len(report["pair_relations"]) == 6
    for row in report["pair_relations"]:
        assert row["above"] + row["nearby"] + row["other"] == pytest.approx(1.0)


def test_run_inference_is_deterministic(tmp_path):
    pipe = load_pipeline(write_pipeline_files(tmp_path))
    scene = scene_with_leak()
    a = run_inference(pipe, scene)
    b = run_inference(pipe, scene)
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_run_inference_without_suspected_area_is_zero(tmp_path):
    pipe = load_pipeline(write_pipeline_files(tmp_path))
    scene = Scene(
        image_width=100,
        image_height=100,
        objects=(
            box_object(1, ClassLabel.GROUND, 0, 80, 100, 100),
            box_object(2, ClassLabel.OIL_STORAGE_DEVICE, 70, 50, 90, 80),
        ),
        leak_label=False,
    )
    report = run_inference(pipe, scene)
    assert report["leak_probability"] == 0.0
    assert report["decision"] is False
    assert report["fired_rule"] is None
    assert report["rule_scores"] == [0.0, 0.0, 0.0]


def test_baseline_score():
    assert baseline_score(scene_with_leak(confidence=0.77)) == 0.77
    no_suspect = Scene(
        image_width=50,
        image_height=50,
        objects=(box_object(1, ClassLabel.GROUND, 0, 40, 50, 50),),
    )
    assert baseline_score(no_suspect) == 0.0


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

def test_run_eval_structure_and_self_identity_ap(tmp_path):
    pipe = load_pipeline(write_pipeline_files(tmp_path))
    scenes = gen_scenes(GenConfig(seed=50), 12)
    out = run_eval(pipe, scenes)
    assert out["n_scenes"] == 12
    assert set(out["detection_ap"]) == {"ap50", "ap75", "map"}
    # The corpus is its own detection ground truth: every suspected box
    # matches itself with IoU 1 at every threshold.
    assert out["detection_ap"]["ap50"] == 1.0
    assert out["detection_ap"]["map"] == 1.0
    assert out["table"][0]["model"] == "confidence-threshold baseline"
    assert out["table"][1]["model"] == "relations + rules pipeline"
    assert "total_f1" in out["table_text"]
    again = run_eval(pipe, scenes)
    assert json.dumps(out, sort_keys=True) == json.dumps(again, sort_keys=True)


def test_run_eval_input_checks(tmp_path):
    pipe = load_pipeline(write_pipeline_files(tmp_path))
    with pytest.raises(DataError, match="empty"):
        run_eval(pipe, [])
    unlabeled = Scene(image_width=64, image_height=64, objects=())
    with pytest.raises(DataError, match="scene 0 has no leak label"):
        run_eval(pipe, [unlabeled])


def test_corpus_scores_match_per_scene_inference_bit_for_bit(tmp_path):
    """The corpus scorer eval uses gives every scene run_inference's leak
    probability bit for bit, whatever other scenes the corpus holds; the
    eval report counts the decisions those probabilities make."""
    pipe = load_pipeline(write_pipeline_files(tmp_path))
    gen = GenConfig(tanks=(0, 2), blobs=(0, 3), distractor_prob=0.5, seed=52)
    scenes = gen_scenes(gen, 40)
    scenes.insert(7, Scene(image_width=64, image_height=64, objects=(), leak_label=False))
    scenes.insert(20, Scene(
        image_width=100, image_height=100, leak_label=False,
        objects=(box_object(1, ClassLabel.GROUND, 0, 80, 100, 100),
                 box_object(2, ClassLabel.OIL_STORAGE_DEVICE, 70, 50, 90, 80)),
    ))
    factory = functools.partial(scene_pair_probs, pipe.relnet_params)
    stacked = logic._ground_corpus(pipe.rules, scenes, factory)
    for gr in stacked:  # scenes without a binding, and blocks of equal and of unequal sizes
        assert len(gr.scene) < len(scenes)
        assert 1 < len(set(gr.sizes.tolist())) < len(gr.sizes)
    rng = np.random.default_rng(53)
    dyadic = [RuleParams.from_vector(rng.integers(-4, 9, len(r.body) + 1) / 8.0) for r in pipe.rules]
    for params in (pipe.rule_params, dyadic):  # dyadic weights tie bindings and rules exactly
        case = dataclasses.replace(pipe, rule_params=params)
        want = np.array([run_inference(case, s)["leak_probability"] for s in scenes])
        got = logic.ruleset_scores(case.rules, case.rule_params, scenes, factory)
        assert got.tobytes() == want.tobytes()
        decisions = [bool(p >= case.config.threshold) for p in want]
        assert run_eval(case, scenes)["pipeline"]["confusion"] == {
            "tp": sum(d and s.leak_label for d, s in zip(decisions, scenes)),
            "fp": sum(d and not s.leak_label for d, s in zip(decisions, scenes)),
            "tn": sum(not d and not s.leak_label for d, s in zip(decisions, scenes)),
            "fn": sum(not d and s.leak_label for d, s in zip(decisions, scenes)),
        }


def test_render_table_formatting():
    rows = [
        {"model": "a", "x": 0.5, "y": 1.0},
        {"model": "longer-name", "x": 0.123456, "y": 0.0},
    ]
    text = render_table(rows, ["model", "x", "y"])
    lines = text.splitlines()
    assert lines[0].startswith("model")
    assert set(lines[1]) <= {"-", " "}
    assert "0.1235" in lines[3]
    assert len({len(line) for line in lines}) == 1  # all rows aligned


# ---------------------------------------------------------------------------
# Ablations
# ---------------------------------------------------------------------------

def test_ablate_sample_zeroes_the_right_branches():
    rng = np.random.default_rng(2)
    values = rng.choice([0.0, 0.5, 1.0], size=(12, 12))
    sample = rn.PairSample(
        raster=rn.MaskRaster(12, 12, values),
        v_poi=rng.normal(size=8),
        v_cls=np.eye(8)[3],
        label=rn.RelationLabel.NEARBY,
    )
    pos = ablate_sample(sample, "position")
    assert pos.raster.values.sum() == 0.0
    assert pos.v_cls.sum() == 0.0
    np.testing.assert_array_equal(pos.v_poi, sample.v_poi)
    assert pos.label is sample.label
    ptype = ablate_sample(sample, "position+type")
    assert ptype.raster.values.sum() == 0.0
    np.testing.assert_array_equal(ptype.v_cls, sample.v_cls)
    full = ablate_sample(sample, "position+type+contour")
    assert full == sample
    with pytest.raises(ConfigError, match="unknown ablation variant"):
        ablate_sample(sample, "contour")


def test_relation_eval_constant_predictor_hand_case():
    params = rn.init_params(TINY, seed=0)
    for name in params.tensors:
        params.tensors[name][...] = 0.0  # ties -> everything predicts "above"
    rng = np.random.default_rng(3)
    labels = [rn.RelationLabel.ABOVE] * 4 + [rn.RelationLabel.NEARBY] * 2 + [
        rn.RelationLabel.OTHER
    ] * 2
    samples = [
        rn.PairSample(
            raster=rn.MaskRaster(12, 12, rng.choice([0.0, 0.5, 1.0], size=(12, 12))),
            v_poi=rng.normal(size=8),
            v_cls=np.eye(8)[0],
            label=lab,
        )
        for lab in labels
    ]
    acc, macro, per_class = relation_eval(params, samples)
    assert acc == 0.5
    assert per_class[0] == pytest.approx(2 / 3)  # above: p=0.5, r=1
    assert per_class[1] == 0.0
    assert per_class[2] == 0.0
    assert macro == pytest.approx(2 / 9)
    with pytest.raises(DataError, match="labeled"):
        relation_eval(params, [samples[0].__class__(
            raster=samples[0].raster, v_poi=samples[0].v_poi, v_cls=samples[0].v_cls
        )])


def test_relation_ablation_table_shape(tmp_path):
    rng = np.random.default_rng(4)

    def batch(n):
        out = []
        for _ in range(n):
            dy = rng.normal()
            lab = (
                rn.RelationLabel.ABOVE
                if dy < -0.4
                else rn.RelationLabel.NEARBY
                if dy < 0.4
                else rn.RelationLabel.OTHER
            )
            v = rng.normal(size=8)
            v[-1] = dy
            out.append(
                rn.PairSample(
                    raster=rn.MaskRaster(
                        12, 12, rng.choice([0.0, 0.5, 1.0], size=(12, 12))
                    ),
                    v_poi=v,
                    v_cls=np.eye(8)[int(rng.integers(0, 8))],
                    label=lab,
                )
            )
        return out

    rows = relation_ablation_table(
        batch(40),
        batch(20),
        TINY,
        rn.TrainConfig(lr_initial=0.01, lr_final=0.01, epochs=2, batch_size=8, seed=5),
    )
    assert [r["input"] for r in rows] == list(ABLATION_VARIANTS)
    for row in rows:
        assert 0.0 <= row["accuracy"] <= 1.0
        assert 0.0 <= row["macro_f1"] <= 1.0
        assert row["seed"] == 5
        assert set(row) == {
            "input",
            "accuracy",
            "macro_f1",
            "f1_above",
            "f1_nearby",
            "f1_other",
            "seed",
        }


def test_compact_config_keeps_published_geometry():
    assert COMPACT_RELNET_CONFIG.grid == 28
    assert COMPACT_RELNET_CONFIG.pool1_size == 14
    assert COMPACT_RELNET_CONFIG.pool2_size == 3
