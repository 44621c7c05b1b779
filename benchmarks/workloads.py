"""The benchmark's three workloads: inputs, set-up, operations and checks.

Each workload is a closed loop with one client.  Its operations come in
blocks with a fixed mix of input sizes, and the loop only stops between
blocks, so every run measures the same mix whatever the seed.  Inputs are
generated from the seed and written with leakscan's own writers
(``serialize_scene``, ``write_pairs_jsonl``, ``relnet.save_params``,
``write_pnm``), so a change to a file format is measured on both sides.

A workload class provides:

- ``generate(work, seed, smoke)``: write the inputs (run in a child
  process, so neither its time nor its memory is measured);
- ``setup()``: the timed load step that precedes the operations;
- ``warmup()``: untimed work that lets the allocator and caches reach
  steady state: the first operation on the largest inputs runs slower;
- ``block(b)``: the operation inputs of block ``b``;
- ``run_op(item)``: one timed operation, returning its output;
- ``check(item, out)``: raise ``CheckFailed`` on a wrong output, else
  return the bytes that go into the output digest;
- ``corrupt(out)``: a deliberately wrong copy of an output (self-test);
- ``summary(op_s)``: the workload's own end-to-end metrics.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import itertools
import json
import statistics
import time
from pathlib import Path

import numpy as np

from leakscan import enhance, logic, pipeline, pnm, relnet, scenegen
from leakscan import scene as scene_mod

#: Relative tolerance for recomputed probabilities and scores.  Batching
#: pairs differently may change BLAS summation order, never more than this.
TOL = 1e-9


class CheckFailed(Exception):
    """An operation's output broke one of the benchmark's checks."""


def _expect(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def sub_seed(seed: int, *role: int) -> int:
    """Independent non-negative seed for one use of the run seed."""
    return int(np.random.SeedSequence([seed, *role]).generate_state(1)[0])


def default_rules():
    return [ast for ast, _ in logic.parse_rules(pipeline.DEFAULT_RULES_TEXT)]


def _write_pipeline_config(path: Path) -> None:
    path.write_text(
        json.dumps(
            {
                "rules": "rules.txt",
                "relnet_weights": "relnet.json",
                "rule_params": "rule_params.json",
                "threshold": 0.5,
            }
        ),
        encoding="utf-8",
    )


def _report_bytes(report: dict) -> bytes:
    # config_hash covers absolute paths, which differ between checkouts.
    doc = {k: v for k, v in report.items() if k != "config_hash"}
    return json.dumps(doc, sort_keys=True).encode()


# ---------------------------------------------------------------------------
# screen: `leakscan infer` over scene files, paper-size relation net
# ---------------------------------------------------------------------------

class Screen:
    name = "screen"
    setup_repeats = 5
    #: Object counts of one block.  Pairs per scene run from 6 to 272, so
    #: the 17-object scene needs two 256-pair predict_batch chunks.
    BLOCK = (3,) * 7 + (4,) * 5 + (5,) * 3 + (6,) * 2 + (8, 10, 17)
    SMOKE_BLOCK = (3, 4, 6)
    N_BLOCKS = 8  # distinct blocks written; the loop cycles through them

    def __init__(self, work: Path, seed: int, smoke: bool):
        self.work = work
        self.files = sorted((work / "scenes").glob("*.json"))
        self.block_len = len(self.SMOKE_BLOCK if smoke else self.BLOCK)
        self.n_blocks = len(self.files) // self.block_len
        # One scene per block is re-scored by brute force.
        rng = np.random.default_rng(sub_seed(seed, 3))
        self.brute_slot = rng.integers(self.block_len, size=self.n_blocks)
        self.pipe = None

    @classmethod
    def generate(cls, work: Path, seed: int, smoke: bool) -> None:
        net_cfg = pipeline.COMPACT_RELNET_CONFIG if smoke else relnet.RelNetConfig()
        relnet.save_params(relnet.init_params(net_cfg, sub_seed(seed, 0)), str(work / "relnet.json"))
        (work / "rules.txt").write_text(pipeline.DEFAULT_RULES_TEXT, encoding="utf-8")
        logic.save_rule_params(
            logic.init_rule_params(default_rules(), sub_seed(seed, 1)),
            str(work / "rule_params.json"),
        )
        _write_pipeline_config(work / "pipeline.json")
        block = cls.SMOKE_BLOCK if smoke else cls.BLOCK
        streams = {n: _scenes_with_objects(seed, n) for n in set(block)}
        rng = np.random.default_rng(sub_seed(seed, 4))
        (work / "scenes").mkdir()
        for b in range(cls.N_BLOCKS):
            for slot, k in enumerate(rng.permutation(len(block))):
                scene = next(streams[block[k]])
                (work / "scenes" / f"scene_{b:02d}_{slot:02d}.json").write_text(
                    scene_mod.serialize_scene(scene), encoding="utf-8"
                )

    def setup(self) -> None:
        self.pipe = None  # at most one loaded pipeline at a time
        cfg = pipeline.load_pipeline_config(str(self.work / "pipeline.json"))
        self.pipe = pipeline.load_pipeline(cfg)

    def warmup(self) -> None:
        largest = max(self.block(0), key=lambda item: item[0].stat().st_size)
        self.run_op(largest)

    def block(self, b: int):
        i = b % self.n_blocks
        files = self.files[i * self.block_len : (i + 1) * self.block_len]
        return [(f, slot == self.brute_slot[i]) for slot, f in enumerate(files)]

    def run_op(self, item):
        path, _brute = item
        scene = scene_mod.parse_scene_json(path.read_text(encoding="utf-8"))
        return scene, pipeline.run_inference(self.pipe, scene)

    def check(self, item, out) -> bytes:
        _path, brute = item
        scene, report = out
        scores = report["rule_scores"]
        p = report["leak_probability"]
        _expect(p == max(scores), "leak_probability != max(rule_scores)")
        _expect(report["decision"] == (p >= self.pipe.config.threshold), "decision != p >= threshold")
        n = len(scene.objects)
        rows = report["pair_relations"]
        _expect(len(rows) == n * (n - 1), f"{len(rows)} pair rows for {n} objects")
        _expect(
            len({(r["subject"], r["reference"]) for r in rows}) == len(rows),
            "duplicate pair rows",
        )
        for r in rows:
            total = r["above"] + r["nearby"] + r["other"]
            _expect(abs(total - 1.0) <= TOL, f"pair probabilities sum to {total}")
        if brute:
            probs, expected = brute_force_leak(self.pipe, scene)
            _expect(abs(p - expected) <= TOL, f"leak_probability {p} != brute force {expected}")
            for r in rows:
                want = probs[(r["subject"], r["reference"])]
                got = (r["above"], r["nearby"], r["other"])
                _expect(np.allclose(got, want, rtol=TOL, atol=TOL), "pair probabilities differ")
        return _report_bytes(report)

    def corrupt(self, out):
        scene, report = out
        return scene, {**report, "leak_probability": report["leak_probability"] + 0.125}

    def summary(self, op_s) -> dict:
        ms = [1e3 * s for s in op_s]
        return {
            "infer_ms_p50": (statistics.median(ms), "ms"),
            "infer_ms_p90": (statistics.quantiles(ms, n=10)[8] if len(ms) > 1 else ms[0], "ms"),
            "scenes_per_s": (len(op_s) / sum(op_s), "1/s"),
        }


def _scenes_with_objects(seed: int, n: int):
    """Endless stream of generated scenes holding exactly n objects."""
    cfg = scenegen.GenConfig(
        tanks=(0, 2),
        blobs=(max(1, n - 5), max(1, n - 1)),
        distractor_prob=0.5,
        seed=sub_seed(seed, 2, n),
    )
    for index in itertools.count():
        scene = scenegen.gen_scene(cfg, index)
        if len(scene.objects) == n:
            yield scene


def brute_force_leak(pipe, scene):
    """Relation probabilities of every pair and the leak probability they
    give, by predict_batch over all pairs and enumeration of every binding."""
    objs = scene.objects
    pairs = [(s, r) for s in objs for r in objs if s.id != r.id]
    samples = [
        relnet.make_pair_sample(
            s, r, scene.image_width, scene.image_height, grid=pipe.relnet_params.config.grid
        )
        for s, r in pairs
    ]
    _labels, y = relnet.predict_batch(pipe.relnet_params, samples)
    probs = {(s.id, r.id): row for (s, r), row in zip(pairs, y)}
    unary = {
        "SuspectedArea": scene_mod.ClassLabel.SUSPECTED_AREA,
        "Ground": scene_mod.ClassLabel.GROUND,
        "OilStorageDevice": scene_mod.ClassLabel.OIL_STORAGE_DEVICE,
    }
    relation = {"On": 0, "Around": 1}
    best = 0.0
    for rule, params in zip(pipe.rules, pipe.rule_params):
        names = rule.variables()
        for combo in itertools.product(objs, repeat=len(names)):
            env = dict(zip(names, combo))
            z = params.bias
            for atom, w in zip(rule.body, params.weights):
                if atom.predicate in unary:
                    obj = env[atom.args[0]]
                    match = obj.label is unary[atom.predicate]
                    if not match and not atom.negated:
                        break  # a positive class premise on the wrong object
                    x = obj.confidence if match else 0.0
                else:
                    a, b = env[atom.args[0]], env[atom.args[1]]
                    x = min(max(float(probs[(a.id, b.id)][relation[atom.predicate]]), 0.0), 1.0)
                z += w * (1.0 - x if atom.negated else x)
            else:
                best = max(best, min(max(z, 0.0), 1.0))
    return probs, best


# ---------------------------------------------------------------------------
# train-round: train-rel -> train-rules -> eval on the compact net
# ---------------------------------------------------------------------------

@dataclasses.dataclass
class Round:
    trained: relnet.RelNetParams
    loaded: relnet.RelNetParams
    rule_params: list
    report: dict


class TrainRound:
    name = "train-round"
    setup_repeats = 5
    FULL = {"pairs": 600, "heldout": 300, "epochs": 6, "fit": 100, "steps": 400, "eval": 100}
    SMOKE = {"pairs": 60, "heldout": 30, "epochs": 1, "fit": 12, "steps": 10, "eval": 12}
    WARMUP = {"pairs": 64, "epochs": 1, "fit": 8, "steps": 5, "eval": 8}
    #: Quality floor of the relation classifier, as in the acceptance gate.
    MIN_RELATION_F1 = 0.80

    def __init__(self, work: Path, seed: int, smoke: bool):
        self.work = work
        self.sizes = self.SMOKE if smoke else self.FULL
        self.smoke = smoke
        self.rules = default_rules()
        self.first_digest = None
        self.relation_f1 = self.leak_f1 = None
        self.phase_s: list[tuple[float, float, float]] = []  # train, fit, eval

    @classmethod
    def generate(cls, work: Path, seed: int, smoke: bool) -> None:
        sizes = cls.SMOKE if smoke else cls.FULL
        for name, role, n in (("pairs", 0, sizes["pairs"]), ("heldout", 1, sizes["heldout"])):
            pairs = scenegen.gen_pair_dataset(scenegen.GenConfig(seed=sub_seed(seed, 10, role)), n)
            scenegen.write_pairs_jsonl(pairs, str(work / f"{name}.jsonl"))
        (work / "rules.txt").write_text(pipeline.DEFAULT_RULES_TEXT, encoding="utf-8")
        _write_pipeline_config(work / "pipeline.json")
        for name, role in (("fit", 2), ("eval", 3)):
            gen = scenegen.GenConfig(
                distractor_prob=0.3, mix=(0.2, 0.2, 0.6), seed=sub_seed(seed, 10, role)
            )
            (work / name).mkdir()
            for i in range(sizes[name]):
                (work / name / f"scene_{i:05d}.json").write_text(
                    scene_mod.serialize_scene(scenegen.gen_scene(gen, i)), encoding="utf-8"
                )

    def _read_scene_dir(self, name: str):
        return [
            scene_mod.parse_scene_json(f.read_text(encoding="utf-8"))
            for f in sorted((self.work / name).glob("*.json"))
        ]

    def setup(self) -> None:
        self.pairs = [p.sample for p in scenegen.read_pairs_jsonl(str(self.work / "pairs.jsonl"))]
        self.heldout = [p.sample for p in scenegen.read_pairs_jsonl(str(self.work / "heldout.jsonl"))]
        self.fit_scenes = self._read_scene_dir("fit")
        self.eval_scenes = self._read_scene_dir("eval")

    def warmup(self) -> None:
        self._round(self.WARMUP)

    def block(self, b: int):
        return [b]

    def run_op(self, item) -> Round:
        out, phase_s = self._round(self.sizes)
        self.phase_s.append(phase_s)
        return out

    def _round(self, sizes: dict):
        w = self.work
        t0 = time.perf_counter()
        params0 = relnet.init_params(pipeline.COMPACT_RELNET_CONFIG, 0)
        trained, _history = relnet.train(
            params0, self.pairs[: sizes["pairs"]], relnet.TrainConfig(epochs=sizes["epochs"], seed=0)
        )
        t1 = time.perf_counter()
        relnet.save_params(trained, str(w / "relnet.json"))
        loaded = relnet.load_params(str(w / "relnet.json"))
        factory = functools.partial(pipeline.scene_pair_probs, loaded)
        t2 = time.perf_counter()
        rule_params, _history = logic.train_rule_params(
            self.rules, self.fit_scenes[: sizes["fit"]], factory,
            logic.RuleTrainConfig(lr=0.1, steps=sizes["steps"], seed=0),
        )
        t3 = time.perf_counter()
        logic.save_rule_params(rule_params, str(w / "rule_params.json"))
        pipe = pipeline.load_pipeline(pipeline.load_pipeline_config(str(w / "pipeline.json")))
        t4 = time.perf_counter()
        report = pipeline.run_eval(pipe, self.eval_scenes[: sizes["eval"]])
        t5 = time.perf_counter()
        return Round(trained, loaded, rule_params, report), (t1 - t0, t3 - t2, t5 - t4)

    def check(self, item, out: Round) -> bytes:
        for name, t in out.trained.tensors.items():
            _expect(np.array_equal(t, out.loaded.tensors[name]), f"weight file round trip changed {name}")
        _acc, relation_f1, _per_class = pipeline.relation_eval(out.trained, self.heldout)
        leak_f1 = out.report["pipeline"]["total"]["f1"]
        baseline_f1 = out.report["baseline"]["total"]["f1"]
        _expect(0.0 <= leak_f1 <= 1.0 and 0.0 <= relation_f1 <= 1.0, "F1 outside [0, 1]")
        if not self.smoke:  # the smoke sizes are too small to learn anything
            _expect(relation_f1 >= self.MIN_RELATION_F1, f"relation macro-F1 {relation_f1}")
            _expect(leak_f1 >= baseline_f1, f"pipeline F1 {leak_f1} < baseline {baseline_f1}")
        h = hashlib.sha256()
        for name in sorted(out.trained.tensors):
            h.update(out.trained.tensors[name].tobytes())
        h.update(json.dumps([dataclasses.asdict(p) for p in out.rule_params]).encode())
        h.update(_report_bytes(out.report))
        h.update(repr(relation_f1).encode())
        digest = h.digest()
        if self.first_digest is None:
            self.first_digest, self.relation_f1, self.leak_f1 = digest, relation_f1, leak_f1
        _expect(digest == self.first_digest, "round output differs from the first round")
        return digest

    def corrupt(self, out: Round) -> Round:
        loaded = out.loaded.copy()
        loaded.tensors["head_b"] += 1.0
        return dataclasses.replace(out, loaded=loaded)

    def summary(self, op_s) -> dict:
        train_s, fit_s, eval_s = zip(*self.phase_s)
        s = self.sizes
        return {
            "relnet_train_pairs_per_s": (
                statistics.median([s["pairs"] * s["epochs"] / t for t in train_s]), "1/s"),
            "rule_fit_s": (statistics.median(fit_s), "s"),
            "eval_scenes_per_s": (statistics.median([s["eval"] / t for t in eval_s]), "1/s"),
            "relation_macro_f1": (self.relation_f1, "1"),
            "leak_f1": (self.leak_f1, "1"),
        }


# ---------------------------------------------------------------------------
# enhance: `leakscan enhance` over PGM/PPM files
# ---------------------------------------------------------------------------

class Enhance:
    name = "enhance"
    setup_repeats = 21  # one set-up takes about a millisecond
    WEIGHTS = (1.0, 1.0, 1.0)
    KINDS = ("low-contrast", "bimodal", "dark-blob")
    #: One block: a 512^2 gray image of each histogram kind, and one 256^2
    #: colour image whose kind rotates from block to block.
    SIDE, COLOUR_SIDE = 512, 256
    SMOKE_SIDE = 64
    N_BLOCKS = 3
    N_OTHER_SPLITS = 3  # seeded splits the chosen one must score at least as well as

    def __init__(self, work: Path, seed: int, smoke: bool):
        self.work = work
        self.inputs = sorted((work / "images").iterdir())
        self.n_blocks = len(self.inputs) // 4
        self.rng = np.random.default_rng(sub_seed(seed, 21))
        self.pixels = 0

    @classmethod
    def generate(cls, work: Path, seed: int, smoke: bool) -> None:
        side = cls.SMOKE_SIDE if smoke else cls.SIDE
        colour_side = cls.SMOKE_SIDE if smoke else cls.COLOUR_SIDE
        (work / "images").mkdir()
        (work / "out").mkdir()
        for b in range(cls.N_BLOCKS):
            specs = [(kind, side, 1) for kind in cls.KINDS]
            specs.append((cls.KINDS[b % 3], colour_side, 3))
            for slot, (kind, n, channels) in enumerate(specs):
                rng = np.random.default_rng(sub_seed(seed, 20, b, slot))
                ext = "pgm" if channels == 1 else "ppm"
                pnm.write_pnm(str(work / "images" / f"img_{b:02d}_{slot}.{ext}"),
                              synth_image(kind, n, channels, rng))

    def setup(self) -> None:
        # Load the whole input batch, as a batch job would before its loop.
        self.loaded = [_image(pnm.read_pnm(str(p))) for p in self.inputs]

    def warmup(self) -> None:
        pass  # no first-operation slowdown was measured

    def block(self, b: int):
        i = b % self.n_blocks
        return self.inputs[4 * i : 4 * i + 4]

    def run_op(self, path):
        img = _image(pnm.read_pnm(str(path)))
        out, report = enhance.enhance_image(img, self.WEIGHTS)
        out_path = self.work / "out" / path.name
        pnm.write_pnm(str(out_path), out.pixels)
        self.pixels += img.width * img.height
        return img, out, report, out_path

    def check(self, path, out) -> bytes:
        img, result, report, out_path = out
        t = report.t
        _expect(0 <= t <= 254, f"split {t} outside 0..254")
        _expect(np.array_equal(pnm.read_pnm(str(out_path)), result.pixels), "written file differs")
        if isinstance(img, enhance.GrayImage):
            y_in, y_out = img, result
        else:
            y_in, cr, cb = enhance.rgb_to_ycrcb(img)
            y_out = enhance.apply_lut(y_in, enhance.bi_he(y_in, t))
            _expect(
                np.array_equal(enhance.ycrcb_to_rgb(y_out, cr, cb).pixels, result.pixels),
                "colour output is not the equalized Y channel",
            )
        low = y_in.pixels <= t
        _expect(bool((y_out.pixels[low] <= t).all() and (y_out.pixels[~low] > t).all()),
                f"a pixel crossed the split {t}")
        again = split_score(y_in, t, self.WEIGHTS)
        _expect(abs(again - report.aggregate) <= TOL, f"aggregate {report.aggregate} != {again} at t={t}")
        others = [u for u in range(255) if u != t]
        for u in self.rng.choice(others, size=self.N_OTHER_SPLITS, replace=False):
            other = split_score(y_in, int(u), self.WEIGHTS)
            _expect(other <= report.aggregate + TOL, f"split {u} scores {other} > {report.aggregate}")
        h = hashlib.sha256(json.dumps(report.to_dict(), sort_keys=True).encode())
        h.update(result.pixels.tobytes())
        return h.digest()

    def corrupt(self, out):
        img, result, report, out_path = out
        return img, result, dataclasses.replace(report, aggregate=report.aggregate + 0.5), out_path

    def summary(self, op_s) -> dict:
        return {
            "enhance_ms_p50": (1e3 * statistics.median(op_s), "ms"),
            "enhance_mpix_per_s": (self.pixels / 1e6 / sum(op_s), "Mpx/s"),
        }


def _image(pixels):
    # As `leakscan enhance` does: PGM -> GrayImage, PPM -> ColorImage.
    return (enhance.GrayImage if pixels.ndim == 2 else enhance.ColorImage).from_array(pixels)


def split_score(img, t: int, weights) -> float:
    """Weighted score aggregate of split t, recomputed from the public parts."""
    candidate = enhance.apply_lut(img, enhance.bi_he(img, t))
    bps, ocs, dps = enhance.scores(*enhance.metrics(img, candidate))
    w_b, w_o, w_d = weights
    return w_b * bps + w_o * ocs + w_d * dps


def synth_image(kind: str, n: int, channels: int, rng) -> np.ndarray:
    """Seeded test image with a low-contrast, bimodal or dark-blob histogram."""
    yy, xx = np.mgrid[0:n, 0:n] / n
    if kind == "low-contrast":
        base = 105 + 30 * (0.6 * xx + 0.4 * yy) + rng.normal(0, 4, (n, n))
    elif kind == "bimodal":
        fx, fy = rng.uniform(1.5, 4.0, 2)
        px, py = rng.uniform(0, 2 * np.pi, 2)
        dark = np.sin(2 * np.pi * fx * xx + px) * np.sin(2 * np.pi * fy * yy + py) > 0
        base = np.where(dark, 70.0, 185.0) + rng.normal(0, 12, (n, n))
    else:
        base = 200 + 20 * yy + rng.normal(0, 6, (n, n))
        for _ in range(int(rng.integers(3, 7))):
            cx, cy = rng.uniform(0.15, 0.85, 2)
            rx, ry = rng.uniform(0.04, 0.15, 2)
            blob = ((xx - cx) / rx) ** 2 + ((yy - cy) / ry) ** 2 <= 1.0
            base[blob] = 40 + rng.normal(0, 8, int(blob.sum()))
    if channels == 3:
        tint = rng.uniform(0.8, 1.1, 3)
        base = base[..., None] * tint + rng.normal(0, 3, (n, n, 3))
    return np.clip(np.rint(base), 0, 255).astype(np.uint8)


WORKLOADS = {w.name: w for w in (Screen, TrainRound, Enhance)}
