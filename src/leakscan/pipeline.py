"""End-to-end leak assessment and evaluation.

A pipeline bundle is a rules file, a relation-classifier weight file, and
per-rule conjunction weights.  Inference takes a scene (instance-detection
JSON), scores every ordered object pair with the relation classifier, runs
fuzzy rule inference, and reports the leak probability, the thresholded
decision, and the rule and object binding that produced the score.

Evaluation compares two scene classifiers on a labeled corpus — the
no-logic baseline (max suspected-area confidence against the threshold)
and the full pipeline — in a normal / leak / total table, reports
detection AP over an IoU grid (scored against the corpus's own detections,
so 1.0), and can produce the relation-classifier input-ablation table
(position / +type / +contour), each variant retrained from scratch on
identically ablated data.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
from dataclasses import dataclass, field

import numpy as np

from . import relnet as rn
from .errors import ConfigError, DataError
from .logic import (
    RuleAST,
    RuleParams,
    evaluate_rules,
    load_rule_params,
    parse_rules,
    ruleset_scores,
)
from .scene import BBox, ClassLabel, DetectedObject, Scene, bbox_iou

DEFAULT_IOU_GRID = tuple(round(0.50 + 0.05 * i, 2) for i in range(10))

#: The three leak rules in DSL form: oil on the ground, oil beside a
#: storage device, and the conjunction of both situations.
DEFAULT_RULES_TEXT = """\
# A suspected region resting on the ground.
OilArea(A) <- SuspectedArea(A) & Ground(B) & On(A,B).
# A suspected region beside an oil storage device.
OilArea(A) <- SuspectedArea(A) & OilStorageDevice(B) & Around(A,B).
# Both situations at once.
OilArea(A) <- SuspectedArea(A) & Ground(B) & On(A,B) & OilStorageDevice(C) & Around(A,C).
"""

ABLATION_VARIANTS = ("position", "position+type", "position+type+contour")

#: Width-reduced relation classifier with the full-size layer geometry
#: (28 -> 14x14 -> 3x3 feature maps) but fewer filters and units, for
#: training runs that must finish in seconds rather than hours.
COMPACT_RELNET_CONFIG = rn.RelNetConfig(
    conv1_filters=32, conv2_filters=32, fc1_units=256, fc2_units=64
)


# ---------------------------------------------------------------------------
# Scalar metrics
# ---------------------------------------------------------------------------

def f1(precision: float, recall: float) -> float:
    """Harmonic mean of precision and recall, 0 when both are 0."""
    if precision + recall == 0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def _prf(tp: int, fp: int, fn: int) -> tuple[float, float, float]:
    p = tp / (tp + fp) if tp + fp else 0.0
    r = tp / (tp + fn) if tp + fn else 0.0
    return p, r, f1(p, r)


def multiclass_f1(y_true, y_pred, n_classes: int) -> tuple[float, list[float]]:
    """Macro F1 over one-vs-rest per-class F1 scores, plus the per-class list."""
    per_class = []
    for c in range(n_classes):
        tp = sum(1 for t, p in zip(y_true, y_pred) if t == c and p == c)
        fp = sum(1 for t, p in zip(y_true, y_pred) if t != c and p == c)
        fn = sum(1 for t, p in zip(y_true, y_pred) if t == c and p != c)
        per_class.append(_prf(tp, fp, fn)[2])
    return sum(per_class) / n_classes, per_class


# ---------------------------------------------------------------------------
# Detection average precision
# ---------------------------------------------------------------------------

def ap_at_iou(
    predictions: list[tuple[int, float, BBox]],
    ground_truths: list[tuple[int, BBox]],
    iou_threshold: float,
) -> float:
    """Average precision with greedy score-ordered matching.

    Predictions are (image id, score, box); each ground truth (image id,
    box) can match at most one prediction, the highest-scored one whose IoU
    clears the threshold.  The PR curve is integrated with the every-point
    precision envelope.  With no ground truths, an empty prediction set is
    vacuously perfect (1.0) and any prediction is a false positive (0.0).
    """
    if not ground_truths:
        return 1.0 if not predictions else 0.0
    by_img: dict[int, list[BBox]] = {}
    for img, box in ground_truths:
        by_img.setdefault(img, []).append(box)
    used = {img: [False] * len(boxes) for img, boxes in by_img.items()}
    order = sorted(range(len(predictions)), key=lambda i: -predictions[i][1])
    tp = np.zeros(len(order))
    for rank, i in enumerate(order):
        img, _score, box = predictions[i]
        best_iou, best_j = 0.0, -1
        for j, gt_box in enumerate(by_img.get(img, ())):
            if used[img][j]:
                continue
            iou = bbox_iou(box, gt_box)
            if iou > best_iou:
                best_iou, best_j = iou, j
        if best_j >= 0 and best_iou >= iou_threshold:
            used[img][best_j] = True
            tp[rank] = 1.0
    if not len(tp):
        return 0.0
    cum_tp = np.cumsum(tp)
    precision = cum_tp / np.arange(1, len(tp) + 1)
    recall = cum_tp / len(ground_truths)
    envelope = np.maximum.accumulate(precision[::-1])[::-1]
    prev_r = 0.0
    ap = 0.0
    for p, r in zip(envelope, recall):
        if r > prev_r:
            ap += (r - prev_r) * p
            prev_r = r
    return float(ap)


def mean_ap(predictions, ground_truths, grid=DEFAULT_IOU_GRID) -> float:
    return sum(ap_at_iou(predictions, ground_truths, t) for t in grid) / len(grid)


# ---------------------------------------------------------------------------
# Configuration and model loading
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PipelineConfig:
    rules_path: str
    relnet_weights_path: str
    rule_params_path: str | None = None  # None: weights inline in the rules file
    threshold: float = 0.5

    def __post_init__(self):
        if not (0.0 < self.threshold < 1.0):
            raise ConfigError(f"threshold must be in (0, 1), got {self.threshold}")

    def to_dict(self) -> dict:
        return {
            "rules": self.rules_path,
            "relnet_weights": self.relnet_weights_path,
            "rule_params": self.rule_params_path,
            "threshold": self.threshold,
        }


def config_hash(cfg: PipelineConfig) -> str:
    # Configs once carried an AP grid; its default stays in the hashed form,
    # so every config hashes as it did then.
    canon = json.dumps({**cfg.to_dict(), "iou_grid": list(DEFAULT_IOU_GRID)}, sort_keys=True)
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def load_pipeline_config(path: str) -> PipelineConfig:
    """Read a pipeline config JSON; relative paths resolve against the file.

    ``threshold`` must be a JSON number, not a string or a boolean; a bad
    value raises a ConfigError naming the key."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except ValueError as e:  # bad JSON or UTF-8, or an integer too long to read
        raise ConfigError(f"config file {path} is not valid JSON: {e}") from None
    if not isinstance(doc, dict):
        raise ConfigError("pipeline config must be a JSON object")
    base = os.path.dirname(os.path.abspath(path))

    def resolve(p):
        if p is None:
            return None
        return p if os.path.isabs(p) else os.path.join(base, p)

    known = {"rules", "relnet_weights", "rule_params", "threshold"}
    unknown = set(doc) - known
    if unknown:
        raise ConfigError(f"unknown pipeline config keys: {', '.join(sorted(unknown))}")
    for req in ("rules", "relnet_weights"):
        if req not in doc:
            raise ConfigError(f"pipeline config missing required key {req!r}")
    if not (isinstance(doc["rules"], str) and isinstance(doc["relnet_weights"], str)
            and isinstance(doc.get("rule_params"), (str, type(None)))):
        raise ConfigError("pipeline config paths must be strings (rule_params may be null)")

    threshold = doc.get("threshold", 0.5)
    # JSON numbers only: a string or a boolean is not read as one.
    if isinstance(threshold, bool) or not isinstance(threshold, (int, float)):
        raise ConfigError(
            f"bad pipeline config value at threshold: expected a number, got {threshold!r:.40}"
        )
    try:
        threshold = float(threshold)
    except OverflowError as e:  # an integer beyond the float range
        raise ConfigError(f"bad pipeline config value at threshold: {e}") from None
    return PipelineConfig(
        rules_path=resolve(doc["rules"]),
        relnet_weights_path=resolve(doc["relnet_weights"]),
        rule_params_path=resolve(doc.get("rule_params")),
        threshold=threshold,
    )


@dataclass
class Pipeline:
    """Loaded, ready-to-run model bundle."""

    config: PipelineConfig
    rules: list[RuleAST]
    rule_params: list[RuleParams]
    relnet_params: rn.RelNetParams
    hash: str = field(init=False)

    def __post_init__(self):
        if len(self.rules) != len(self.rule_params):
            raise ConfigError(
                f"{len(self.rules)} rules but {len(self.rule_params)} parameter sets"
            )
        self.hash = config_hash(self.config)


def load_pipeline(cfg: PipelineConfig) -> Pipeline:
    """Load and cross-check all model files named by the config."""
    try:
        with open(cfg.rules_path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except FileNotFoundError:
        raise ConfigError(f"rules file not found: {cfg.rules_path}") from None
    except UnicodeDecodeError as e:
        raise DataError(f"rules file {cfg.rules_path}: {e}") from None
    parsed = parse_rules(text)
    rules = [ast for ast, _ in parsed]
    if not rules:
        raise DataError(f"rules file {cfg.rules_path} contains no rules")
    if cfg.rule_params_path is not None:
        try:
            params = load_rule_params(cfg.rule_params_path)
        except FileNotFoundError:
            raise ConfigError(
                f"rule parameter file not found: {cfg.rule_params_path}"
            ) from None
        if len(params) != len(rules):
            raise DataError(
                f"{len(params)} parameter sets for {len(rules)} rules"
            )
    else:
        params = []
        for i, (ast, inline) in enumerate(parsed):
            if inline is None:
                raise ConfigError(
                    f"rule {i} has no inline weights and no rule_params file is "
                    "configured"
                )
            params.append(inline)
    for i, (ast, p) in enumerate(zip(rules, params)):
        if len(p.weights) != len(ast.body):
            raise DataError(
                f"rule {i} has {len(ast.body)} premises but {len(p.weights)} weights"
            )
    try:
        net = rn.load_params(cfg.relnet_weights_path)
    except FileNotFoundError:
        raise ConfigError(
            f"relation-classifier weight file not found: {cfg.relnet_weights_path}"
        ) from None
    return Pipeline(config=cfg, rules=rules, rule_params=params, relnet_params=net)


# ---------------------------------------------------------------------------
# Inference
# ---------------------------------------------------------------------------

_SELF_PAIR_PROBS = np.array([0.0, 0.0, 1.0])  # (above, nearby, other)
_SELF_PAIR_PROBS.setflags(write=False)


def scene_pair_probs(params: rn.RelNetParams, scene: Scene):
    """Callable (subject, reference) -> (above, nearby, other) probabilities.

    All ordered pairs of distinct objects are classified once, in a single
    batch, and served from a cache keyed by object ids.  A self-pair is not
    classified: an object is neither on nor near itself, so it gets a
    constant, read-only crisp "other".
    """
    pairs = [
        (s, r) for s in scene.objects for r in scene.objects if s.id != r.id
    ]
    cache: dict[tuple[int, int], np.ndarray] = {}
    if pairs:
        batch = rn.scene_pair_batch(
            scene.objects, scene.image_width, scene.image_height, grid=params.config.grid
        )
        _labels, probs = rn.predict_batch(params, batch)
        for (s, r), p in zip(pairs, probs):
            cache[(s.id, r.id)] = p

    def lookup(subject: DetectedObject, reference: DetectedObject) -> np.ndarray:
        if subject.id == reference.id:
            return _SELF_PAIR_PROBS
        return cache[(subject.id, reference.id)]

    return lookup


def run_inference(pipe: Pipeline, scene: Scene) -> dict:
    """Score one scene; the report is a plain JSON-ready dictionary.

    The leak probability is exactly the fuzzy-or of the rule scores — the
    decision just compares it with the configured threshold.
    """
    probs_fn = scene_pair_probs(pipe.relnet_params, scene)
    per_rule = evaluate_rules(pipe.rules, pipe.rule_params, scene, probs_fn)
    scores = [s for s, _ in per_rule]
    best = int(np.argmax(scores)) if scores else 0
    probability = float(scores[best])
    binding = per_rule[best][1]
    fired = None
    if binding is not None:
        fired = {
            "index": best,
            "rule": str(pipe.rules[best]),
            "score": probability,
            "binding": dict(sorted(binding.items())),
        }
    pair_relations = []
    for s in scene.objects:
        for r in scene.objects:
            if s.id == r.id:
                continue
            p = probs_fn(s, r)
            pair_relations.append(
                {
                    "subject": s.id,
                    "reference": r.id,
                    "above": float(p[0]),
                    "nearby": float(p[1]),
                    "other": float(p[2]),
                }
            )
    return {
        "config_hash": pipe.hash,
        "leak_probability": probability,
        "threshold": pipe.config.threshold,
        "decision": probability >= pipe.config.threshold,
        "fired_rule": fired,
        "rule_scores": [float(s) for s in scores],
        "pair_relations": pair_relations,
    }


def baseline_score(scene: Scene) -> float:
    """No-logic reference: the best suspected-area confidence, 0 if none."""
    confs = [
        o.confidence for o in scene.objects if o.label is ClassLabel.SUSPECTED_AREA
    ]
    return max(confs) if confs else 0.0


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

def scene_classification_report(y_true: list[bool], y_pred: list[bool]) -> dict:
    """Per-class and macro-averaged metrics for leak-vs-normal decisions."""
    tp = sum(1 for t, p in zip(y_true, y_pred) if t and p)
    fp = sum(1 for t, p in zip(y_true, y_pred) if not t and p)
    tn = sum(1 for t, p in zip(y_true, y_pred) if not t and not p)
    fn = sum(1 for t, p in zip(y_true, y_pred) if t and not p)
    leak = _prf(tp, fp, fn)
    normal = _prf(tn, fn, fp)  # the normal class swaps the error roles
    total = tuple((a + b) / 2 for a, b in zip(leak, normal))
    report = {
        name: dict(zip(("precision", "recall", "f1"), prf))
        for name, prf in (("leak", leak), ("normal", normal), ("total", total))
    }
    report["confusion"] = {"tp": tp, "fp": fp, "tn": tn, "fn": fn}
    return report


def _detections_for_ap(scenes: list[Scene]):
    """(scene index, confidence, box) of every suspected area, in scene order."""
    preds = []
    for i, scene in enumerate(scenes):
        for o in scene.objects:
            if o.label is ClassLabel.SUSPECTED_AREA:
                preds.append((i, o.confidence, o.bbox))
    return preds


def run_eval(pipe: Pipeline, scenes: list[Scene]) -> dict:
    """Score a labeled corpus with the baseline and the full pipeline.

    The pipeline's scores are run_inference's leak probabilities, bit for
    bit.  The AP block takes the corpus's own objects as ground truth
    (exact for synthetic corpora, where detections are the generator's
    output), so it reads 1.0.
    """
    if not scenes:
        raise DataError("evaluation corpus is empty")
    labels = []
    for i, s in enumerate(scenes):
        if s.leak_label is None:
            raise DataError(f"scene {i} has no leak label; evaluation needs labels")
        labels.append(s.leak_label)
    tau = pipe.config.threshold
    pipe_scores = ruleset_scores(
        pipe.rules, pipe.rule_params, scenes,
        functools.partial(scene_pair_probs, pipe.relnet_params),
    )
    base_scores = [baseline_score(s) for s in scenes]
    base_report = scene_classification_report(labels, [b >= tau for b in base_scores])
    pipe_report = scene_classification_report(labels, [p >= tau for p in pipe_scores])
    preds = _detections_for_ap(scenes)
    gt = [(i, box) for i, _conf, box in preds]
    ap = {
        "ap50": ap_at_iou(preds, gt, 0.50),
        "ap75": ap_at_iou(preds, gt, 0.75),
        "map": mean_ap(preds, gt),
    }
    rows = [
        {"model": model, "normal_f1": report["normal"]["f1"],
         "leak_f1": report["leak"]["f1"], "total_f1": report["total"]["f1"]}
        for model, report in (("confidence-threshold baseline", base_report),
                              ("relations + rules pipeline", pipe_report))
    ]
    return {
        "config_hash": pipe.hash,
        "n_scenes": len(scenes),
        "threshold": tau,
        "baseline": base_report,
        "pipeline": pipe_report,
        "detection_ap": ap,
        "table": rows,
        "table_text": render_table(
            rows, ["model", "normal_f1", "leak_f1", "total_f1"]
        ),
    }


def render_table(rows: list[dict], columns: list[str]) -> str:
    """Aligned plain-text table with 4-decimal floats."""

    def fmt(v):
        return f"{v:.4f}" if isinstance(v, float) else str(v)

    cells = [[fmt(r.get(c, "")) for c in columns] for r in rows]
    widths = [
        max(len(c), *(len(row[i]) for row in cells)) for i, c in enumerate(columns)
    ]
    lines = ["  ".join(c.ljust(w) for c, w in zip(columns, widths))]
    lines.append("  ".join("-" * w for w in widths))
    for row in cells:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Relation-classifier input ablations
# ---------------------------------------------------------------------------

def ablate_sample(sample: rn.PairSample, variant: str) -> rn.PairSample:
    """Zero the input branches a variant excludes; geometry stays intact."""
    if variant not in ABLATION_VARIANTS:
        raise ConfigError(
            f"unknown ablation variant {variant!r}; known: {ABLATION_VARIANTS}"
        )
    raster = sample.raster
    v_cls = sample.v_cls
    if variant != "position+type+contour":
        raster = type(raster)(
            raster.width, raster.height, np.zeros_like(raster.values)
        )
    if variant == "position":
        v_cls = np.zeros_like(sample.v_cls)
    return rn.PairSample(
        raster=raster, v_poi=sample.v_poi, v_cls=v_cls, label=sample.label
    )


def relation_eval(
    params: rn.RelNetParams, samples: list[rn.PairSample]
) -> tuple[float, float, list[float]]:
    """(accuracy, macro F1, per-class F1) of a classifier on labeled pairs."""
    if any(s.label is None for s in samples):
        raise DataError("relation evaluation needs labeled pairs")
    truth = [rn.RELATION_ORDER.index(s.label) for s in samples]
    pred_labels, _probs = rn.predict_batch(params, samples)
    pred = [rn.RELATION_ORDER.index(lab) for lab in pred_labels]
    acc = sum(1 for t, p in zip(truth, pred) if t == p) / len(truth)
    macro, per_class = multiclass_f1(truth, pred, len(rn.RELATION_ORDER))
    return acc, macro, per_class


def relation_ablation_table(
    train_samples: list[rn.PairSample],
    eval_samples: list[rn.PairSample],
    net_config: rn.RelNetConfig,
    train_config: rn.TrainConfig,
) -> list[dict]:
    """Retrain the relation classifier per input variant and evaluate each.

    Returns one row per variant with accuracy and macro F1, in increasing
    input-richness order, training every variant from the same seed on the
    same pairs (with the excluded branches zeroed in both splits).
    """
    rows = []
    for variant in ABLATION_VARIANTS:
        tr = [ablate_sample(s, variant) for s in train_samples]
        ev = [ablate_sample(s, variant) for s in eval_samples]
        params0 = rn.init_params(net_config, train_config.seed)
        trained, _history = rn.train(params0, tr, train_config)
        acc, macro, per_class = relation_eval(trained, ev)
        rows.append(
            {
                "input": variant,
                "accuracy": acc,
                "macro_f1": macro,
                "f1_above": per_class[0],
                "f1_nearby": per_class[1],
                "f1_other": per_class[2],
                "seed": train_config.seed,
            }
        )
    return rows
