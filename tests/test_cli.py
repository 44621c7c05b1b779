"""End-to-end tests of the command-line surface and its exit codes."""

import dataclasses
import itertools
import json
from pathlib import Path

import numpy as np
import pytest

from leakscan import cli
from leakscan.cli import main
from leakscan.errors import ConfigError
from leakscan.logic import RuleTrainConfig, parse_rules
from leakscan.pipeline import DEFAULT_RULES_TEXT
from leakscan.pnm import read_pnm, write_pnm
from leakscan.relnet import RelNetConfig, load_params
from leakscan.scenegen import GenConfig
from leakscan.scene import BBox, ClassLabel, DetectedObject, PolygonMask, Scene, serialize_scene

TRAIN_REL_CONFIG = {
    "net": {"conv1_filters": 4, "conv2_filters": 4, "fc1_units": 16, "fc2_units": 8},
    "train": {
        "lr_initial": 0.01,
        "lr_final": 0.005,
        "epochs": 2,
        "batch_size": 16,
        "seed": 0,
    },
}


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One full CLI round: scenes -> pairs -> both trainers -> pipeline config."""
    ws = tmp_path_factory.mktemp("cli")
    (ws / "gen.json").write_text(json.dumps({"seed": 60}))
    assert main(
        ["gen", "scenes", "--config", str(ws / "gen.json"),
         "--out", str(ws / "scenes"), "--count", "30"]
    ) == 0
    assert main(
        ["gen", "pairs", "--config", str(ws / "gen.json"),
         "--out", str(ws / "pairs.jsonl"), "--count", "45"]
    ) == 0
    (ws / "rel.json").write_text(json.dumps(TRAIN_REL_CONFIG))
    assert main(
        ["train-rel", "--pairs", str(ws / "pairs.jsonl"),
         "--config", str(ws / "rel.json"),
         "--out", str(ws / "relnet.json"), "--log", str(ws / "rel_log.csv")]
    ) == 0
    (ws / "rules.txt").write_text(DEFAULT_RULES_TEXT)
    (ws / "rules_cfg.json").write_text(json.dumps({"steps": 60, "lr": 0.1}))
    assert main(
        ["train-rules", "--rules", str(ws / "rules.txt"),
         "--scenes", str(ws / "scenes"), "--relnet", str(ws / "relnet.json"),
         "--config", str(ws / "rules_cfg.json"),
         "--out", str(ws / "rule_params.json"), "--log", str(ws / "rules_log.csv")]
    ) == 0
    (ws / "pipeline.json").write_text(
        json.dumps(
            {
                "rules": "rules.txt",
                "relnet_weights": "relnet.json",
                "rule_params": "rule_params.json",
            }
        )
    )
    return ws


def test_generated_artifacts_exist(workspace):
    scenes = sorted((workspace / "scenes").glob("*.json"))
    assert len(scenes) == 30
    assert scenes[0].name == "scene_00000.json"
    assert (workspace / "pairs.jsonl").read_text().count("\n") == 45
    weights = load_params(str(workspace / "relnet.json"))
    assert weights.config == RelNetConfig(**TRAIN_REL_CONFIG["net"])
    params = json.loads((workspace / "rule_params.json").read_text())
    assert set(params) == {"0", "1", "2"}


def test_training_logs_are_csv(workspace):
    rel = (workspace / "rel_log.csv").read_text().splitlines()
    assert rel[0] == "epoch,loss,train_acc"
    assert len(rel) == 1 + TRAIN_REL_CONFIG["train"]["epochs"]
    rules = (workspace / "rules_log.csv").read_text().splitlines()
    assert rules[0] == "step,loss,train_acc"
    assert len(rules) == 1 + 60


def test_infer_prints_deterministic_json(workspace, capsys):
    argv = [
        "infer",
        "--config", str(workspace / "pipeline.json"),
        "--scene", str(workspace / "scenes" / "scene_00000.json"),
    ]
    assert main(argv) == 0
    first = capsys.readouterr().out
    report = json.loads(first)
    assert set(report) >= {
        "config_hash",
        "leak_probability",
        "decision",
        "fired_rule",
        "rule_scores",
        "pair_relations",
    }
    assert 0.0 <= report["leak_probability"] <= 1.0
    assert main(argv) == 0
    assert capsys.readouterr().out == first


def test_eval_writes_report(workspace, capsys):
    out_path = workspace / "eval.json"
    assert main(
        ["eval", "--config", str(workspace / "pipeline.json"),
         "--scenes", str(workspace / "scenes"), "--out", str(out_path)]
    ) == 0
    shown = capsys.readouterr().out
    assert "confidence-threshold baseline" in shown
    assert "relations + rules pipeline" in shown
    assert "detection AP:" in shown
    report = json.loads(out_path.read_text())
    assert report["n_scenes"] == 30
    assert set(report["detection_ap"]) == {"ap50", "ap75", "map"}
    assert report["baseline"]["total"]["f1"] >= 0.0


def test_eval_with_tiny_ablation_table(workspace, capsys):
    abl = workspace / "abl.json"
    abl.write_text(
        json.dumps(
            {
                "gen": {"seed": 61},
                "net": TRAIN_REL_CONFIG["net"],
                "train": TRAIN_REL_CONFIG["train"],
                "n_train": 30,
                "n_eval": 15,
            }
        )
    )
    out_path = workspace / "eval_abl.json"
    assert main(
        ["eval", "--config", str(workspace / "pipeline.json"),
         "--scenes", str(workspace / "scenes"),
         "--ablations", "--ablation-config", str(abl),
         "--out", str(out_path)]
    ) == 0
    shown = capsys.readouterr().out
    assert "position+type+contour" in shown
    report = json.loads(out_path.read_text())
    assert [r["input"] for r in report["relation_ablations"]] == [
        "position",
        "position+type",
        "position+type+contour",
    ]


def test_enhance_round_trip(tmp_path, capsys):
    rng = np.random.default_rng(0)
    src = tmp_path / "in.pgm"
    write_pnm(str(src), rng.integers(100, 150, size=(32, 32), dtype=np.uint8))
    out = tmp_path / "out.pgm"
    report = tmp_path / "report.json"
    assert main(
        ["enhance", str(src), "--out", str(out), "--report", str(report)]
    ) == 0
    assert capsys.readouterr().out.startswith("split t=")
    enhanced = read_pnm(str(out))
    assert enhanced.shape == (32, 32)
    doc = json.loads(report.read_text())
    assert {"t", "rbd", "rcd", "asd", "aggregate"} <= set(doc)
    assert doc["input"] == str(src)


def test_enhance_color_image(tmp_path):
    rng = np.random.default_rng(1)
    src = tmp_path / "in.ppm"
    write_pnm(str(src), rng.integers(0, 256, size=(16, 16, 3), dtype=np.uint8))
    out = tmp_path / "out.ppm"
    assert main(["enhance", str(src), "--out", str(out)]) == 0
    assert read_pnm(str(out)).shape == (16, 16, 3)


# ---------------------------------------------------------------------------
# Exit codes
# ---------------------------------------------------------------------------

def test_usage_errors_exit_1(capsys):
    assert main(["no-such-command"]) == 1
    assert "error:" in capsys.readouterr().err
    assert main(["infer", "--config"]) == 1  # missing value
    assert main([]) == 1  # subcommand required


def test_enhance_weights_with_overflowing_sum_exit_1(tmp_path, capsys):
    # Each weight is finite, but their sum is not: an aggregate could overflow
    # and the report would hold Infinity, which is not JSON.
    src = tmp_path / "lc.pgm"
    rng = np.random.default_rng(11)
    write_pnm(str(src), rng.integers(110, 146, size=(32, 32), dtype=np.uint8))
    report = tmp_path / "r.json"
    assert main(
        ["enhance", str(src), "--out", str(tmp_path / "o.pgm"),
         "--weights", "1e308,1e308,1e308", "--report", str(report)]
    ) == 1
    assert "weights must be finite" in capsys.readouterr().err
    assert not report.exists()


def test_config_errors_exit_1(tmp_path, capsys):
    assert main(
        ["infer", "--config", str(tmp_path / "missing.json"), "--scene", "s.json"]
    ) == 1
    assert "not found" in capsys.readouterr().err
    bad_gen = tmp_path / "gen.json"
    bad_gen.write_text(json.dumps({"sed": 1}))
    assert main(
        ["gen", "scenes", "--config", str(bad_gen), "--out", str(tmp_path / "s")]
    ) == 1
    assert "unknown generator config keys: sed" in capsys.readouterr().err
    src = tmp_path / "img.pgm"
    write_pnm(str(src), np.zeros((4, 4), dtype=np.uint8))
    assert main(
        ["enhance", str(src), "--out", str(tmp_path / "o.pgm"), "--weights", "1,2"]
    ) == 1
    assert "exactly three" in capsys.readouterr().err
    for bad in ("nan,1,1", "inf,1,1"):
        assert main(
            ["enhance", str(src), "--out", str(tmp_path / "o.pgm"), "--weights", bad]
        ) == 1
        assert "weights must be finite" in capsys.readouterr().err
    old_enhance = tmp_path / "pipeline.json"
    old_enhance.write_text(json.dumps({"rules": "r", "relnet_weights": "w", "enhance": 3}))
    assert main(["infer", "--config", str(old_enhance), "--scene", "s.json"]) == 1
    assert "unknown pipeline config keys: enhance" in capsys.readouterr().err
    float_net = tmp_path / "rel.json"
    float_net.write_text(json.dumps({"net": {"conv1_filters": 3.0}}))
    assert main(
        ["train-rel", "--pairs", str(tmp_path / "p.jsonl"), "--config", str(float_net),
         "--out", str(tmp_path / "w.npz")]
    ) == 1
    assert "config field conv1_filters: expected an integer" in capsys.readouterr().err
    not_utf8 = tmp_path / "latin1.json"
    not_utf8.write_bytes(b"\xff")
    assert main(["infer", "--config", str(not_utf8), "--scene", "s.json"]) == 1
    assert main(
        ["gen", "scenes", "--config", str(not_utf8), "--out", str(tmp_path / "s")]
    ) == 1
    assert capsys.readouterr().err.count("is not valid JSON") == 2


@pytest.mark.parametrize(
    "command,doc,message",
    [
        ("train-rel", {"train": {"batch_size": 2.5}}, "field batch_size: expected an integer"),
        ("train-rel", {"train": {"epochs": 1e999}}, "field epochs: expected an integer, got inf"),
        ("train-rel", {"train": {"epochs": True}}, "field epochs: expected an integer, got True"),
        ("train-rel", {"train": {"seed": 1.5}}, "field seed: expected an integer, got 1.5"),
        ("train-rel", {"train": {"seed": -1}}, "seed must be >= 0"),
        ("train-rel", {"train": {"lr_initial": float("nan")}}, "field lr_initial: expected a finite"),
        ("train-rel", {"train": {"weight_decay": float("nan")}}, "field weight_decay: expected a"),
        ("train-rules", {"steps": 2.5}, "field steps: expected an integer, got 2.5"),
        ("train-rules", {"steps": True}, "field steps: expected an integer, got True"),
        ("train-rules", {"seed": 1.5}, "field seed: expected an integer, got 1.5"),
        ("train-rules", {"seed": -3}, "seed must be >= 0"),
        ("gen", {"seed": 1.5}, "field seed: expected an integer, got 1.5"),
        ("gen", {"tanks": [0, 2.5]}, "field tanks[1]: expected an integer, got 2.5"),
        ("gen", {"tanks": [0]}, "field tanks: expected a list of 2 numbers"),
        ("gen", {"confidence_jitter": float("nan")}, "field confidence_jitter: expected a finite"),
        ("ablation", {"n_train": "abc"}, "n_train: expected an integer >= 1, got 'abc'"),
        ("ablation", {"n_eval": 0}, "n_eval: expected an integer >= 1, got 0"),
        ("ablation", {"gen": {"seed": -1}}, "seed must be >= 0"),
    ],
)
def test_bad_config_values_exit_1(workspace, tmp_path, capsys, command, doc, message):
    """A bad value in a train-rel, train-rules, generator or ablation config
    exits 1 with an error that names its field, before any work is done."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    argv = {
        "train-rel": ["train-rel", "--pairs", str(workspace / "pairs.jsonl"),
                      "--out", str(tmp_path / "w.npz")],
        "train-rules": ["train-rules", "--rules", str(workspace / "rules.txt"),
                        "--scenes", str(workspace / "scenes"),
                        "--relnet", str(workspace / "relnet.json"),
                        "--out", str(tmp_path / "p.json")],
        "gen": ["gen", "scenes", "--out", str(tmp_path / "s")],
        "ablation": ["eval", "--config", str(workspace / "pipeline.json"),
                     "--scenes", str(workspace / "scenes"), "--ablations",
                     "--ablation-config", str(cfg)],
    }[command]
    if command != "ablation":
        argv += ["--config", str(cfg)]
    assert main(argv) == 1
    assert not (tmp_path / "w.npz").exists() and not (tmp_path / "p.json").exists()
    assert not (tmp_path / "s").exists()
    out, err = capsys.readouterr()
    assert out == ""  # eval printed no table
    assert err.startswith("error: ")
    assert message in err, err


def _leaf_paths(doc, path=()):
    """Paths to every value in a config document that is not an object,
    lists and their entries included."""
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from _leaf_paths(value, path + (key,))
        return
    yield path
    if isinstance(doc, list):
        for i, value in enumerate(doc):
            yield from _leaf_paths(value, path + (i,))


def _doc(value):
    """The config document of a read config value."""
    return dataclasses.asdict(value) if dataclasses.is_dataclass(value) else value


def test_config_readers_fuzz_raise_only_config_errors(tmp_path, text_mutator):
    """Corrupted train-rel, train-rules, generator and ablation config files
    read to configs that write and read back unchanged, or raise a
    ConfigError; a wrong type, NaN or an infinity in any field is always
    rejected."""
    train = {"lr_initial": 0.02, "lr_final": 0.002, "epochs": 3, "batch_size": 8,
             "momentum": 0.8, "weight_decay": 0.001, "seed": 4}
    net = dataclasses.asdict(RelNetConfig(conv1_filters=4, conv2_filters=4))
    gen = dataclasses.asdict(GenConfig(tanks=(1, 2), distractor_prob=0.25, seed=5))
    readers = {
        "train-rel": (cli._read_train_rel_config, {"net": net, "train": train}),
        "train-rules": (
            lambda p: cli._read_config(RuleTrainConfig, p, "rule training config"),
            {"lr": 0.05, "steps": 30, "seed": 6, "init_jitter": 0.02},
        ),
        "gen": (lambda p: cli._read_config(GenConfig, p, "generator config"), gen),
        "ablation": (
            cli._read_ablation_config,
            {"gen": gen, "net": net, "train": train, "n_train": 40, "n_eval": 20},
        ),
    }
    path = tmp_path / "config.json"
    rng = np.random.default_rng(39)
    bad_values = ("1", "", True, False, None, [], {}, float("nan"), float("inf"), -float("inf"))
    for name, (read, doc) in readers.items():
        text = json.dumps(doc, indent=2)
        leaves = list(_leaf_paths(doc))
        outcomes = {"loaded": 0, "rejected": 0}
        for i in range(400):
            # Every fourth case puts a value of the wrong type, NaN or an
            # infinity at a random field, list or list entry; every fourth
            # puts a random value of the right type at a number.
            if i % 4 < 2:
                mutated = text_mutator(rng, text)
            else:
                changed = json.loads(text)
                *parents, last = leaves[int(rng.integers(0, len(leaves)))]
                target = changed
                for key in parents:
                    target = target[key]
                old = target[last]
                if i % 4 == 3:
                    bad = bad_values + ((2.5,) if type(old) is int else ())
                    target[last] = bad[int(rng.integers(0, len(bad)))]
                elif type(old) is int:
                    target[last] = int(rng.integers(-2, 2 * old + 3))
                elif type(old) is float:
                    target[last] = float(rng.uniform(-0.5, 2 * old + 0.5))
                mutated = json.dumps(changed, indent=2)
            path.write_text(mutated, encoding="utf-8")
            try:
                got = read(str(path))
            except ConfigError:
                outcomes["rejected"] += 1
                continue
            assert i % 4 != 3, mutated
            again = dict(zip(doc, map(_doc, got))) if isinstance(got, tuple) else _doc(got)
            path.write_text(json.dumps(again), encoding="utf-8")
            assert read(str(path)) == got
            outcomes["loaded"] += 1
        assert min(outcomes.values()) > 40, (name, outcomes)  # both outcomes are exercised


def test_data_errors_exit_2(workspace, tmp_path, capsys):
    bad_scene = tmp_path / "scene.json"
    bad_scene.write_text('{"width": 10}')
    assert main(
        ["infer", "--config", str(workspace / "pipeline.json"),
         "--scene", str(bad_scene)]
    ) == 2
    assert "data error:" in capsys.readouterr().err
    empty = tmp_path / "empty_dir"
    empty.mkdir()
    assert main(
        ["eval", "--config", str(workspace / "pipeline.json"),
         "--scenes", str(empty)]
    ) == 2
    assert "no scene JSON files" in capsys.readouterr().err


def _pipeline_config(d, ws, **paths) -> str:
    doc = {
        "rules": str(ws / "rules.txt"),
        "relnet_weights": str(ws / "relnet.json"),
        "rule_params": str(ws / "rule_params.json"),
        **paths,
    }
    (d / "pipeline.json").write_text(json.dumps(doc))
    return str(d / "pipeline.json")


# argv per text reader, given the workspace, the bad file and its directory.
NON_UTF8_ARGV = {
    "infer-scene": lambda ws, bad, d: [
        "infer", "--config", str(ws / "pipeline.json"), "--scene", bad],
    "scene-dir": lambda ws, bad, d: [
        "eval", "--config", str(ws / "pipeline.json"), "--scenes", str(d)],
    "train-rules-rules": lambda ws, bad, d: [
        "train-rules", "--rules", bad, "--scenes", str(ws / "scenes"),
        "--relnet", str(ws / "relnet.json"), "--out", str(d / "o.json")],
    "pipeline-rules": lambda ws, bad, d: [
        "infer", "--config", _pipeline_config(d, ws, rules=bad),
        "--scene", str(ws / "scenes" / "scene_00000.json")],
    "rule-params": lambda ws, bad, d: [
        "infer", "--config", _pipeline_config(d, ws, rule_params=bad),
        "--scene", str(ws / "scenes" / "scene_00000.json")],
    "pairs-jsonl": lambda ws, bad, d: [
        "train-rel", "--pairs", bad, "--out", str(d / "w.npz")],
}


@pytest.mark.parametrize("reader", list(NON_UTF8_ARGV))
def test_non_utf8_input_exits_2(workspace, tmp_path, capsys, reader):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff")
    assert main(NON_UTF8_ARGV[reader](workspace, str(bad), tmp_path)) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error:") and "bad.json" in err and "0xff" in err


# argv per input, given the workspace and a directory passed where a file belongs.
DIRECTORY_ARGV = {
    "scene": lambda ws, d: [
        "infer", "--config", str(ws / "pipeline.json"), "--scene", str(d)],
    "pipeline-config": lambda ws, d: [
        "infer", "--config", str(d), "--scene", str(ws / "scenes" / "scene_00000.json")],
    "weights": lambda ws, d: [
        "infer", "--config", _pipeline_config(d, ws, relnet_weights=str(d)),
        "--scene", str(ws / "scenes" / "scene_00000.json")],
    "pairs-jsonl": lambda ws, d: [
        "train-rel", "--pairs", str(d), "--out", str(d / "w.npz")],
    "enhance-input": lambda ws, d: [
        "enhance", str(d), "--out", str(d / "o.pgm")],
}


@pytest.mark.parametrize("reader", list(DIRECTORY_ARGV))
def test_directory_as_input_exits_2(workspace, tmp_path, capsys, reader):
    assert main(DIRECTORY_ARGV[reader](workspace, tmp_path)) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error:") and str(tmp_path) in err


SELF_PAIR_RULES = """\
OilArea(A) <- SuspectedArea(A) & SuspectedArea(B) & On(A,B) : [0.25, 0.25, 0.5, 0.0].
OilArea(A) <- SuspectedArea(A) & !Ground(B) & Around(A,B) : [0.25, 0.25, 0.5, 0.0].
Self(A) <- !On(A,A) & Around(A,A) : [0.5, 0.5, 0.125].
"""

_CLASS_OF = {
    "SuspectedArea": ClassLabel.SUSPECTED_AREA,
    "Ground": ClassLabel.GROUND,
    "OilStorageDevice": ClassLabel.OIL_STORAGE_DEVICE,
}


def _brute_rule_score(rule, params, scene, probs):
    """Best clamped score over every assignment; a self-pair is crisp other."""
    best = 0.0
    for combo in itertools.product(scene.objects, repeat=len(rule.variables())):
        env = dict(zip(rule.variables(), combo))
        z = 0.0
        for w, a in zip(params.weights, rule.body):
            objs = [env[v] for v in a.args]
            if a.predicate in _CLASS_OF:
                if objs[0].label is not _CLASS_OF[a.predicate] and not a.negated:
                    break
                x = objs[0].confidence if objs[0].label is _CLASS_OF[a.predicate] else 0.0
            else:
                s, r = (o.id for o in objs)
                rel = probs[(s, r)] if s != r else {"above": 0.0, "nearby": 0.0}
                x = rel["above" if a.predicate == "On" else "nearby"]
            z += w * (1.0 - x if a.negated else x)
        else:
            best = max(best, min(max(z + params.bias, 0.0), 1.0))
    return best


def test_infer_scores_self_pair_rules(workspace, tmp_path, capsys):
    scene = Scene(
        image_width=100,
        image_height=100,
        objects=tuple(
            DetectedObject(
                id=i, label=label, confidence=conf, bbox=BBox(x1, y1, x2, y2),
                polygon=PolygonMask(((x1, y1), (x2, y1), (x2, y2), (x1, y2))),
            )
            for i, label, conf, (x1, y1, x2, y2) in (
                (1, ClassLabel.SUSPECTED_AREA, 0.9, (20, 40, 50, 62)),
                (2, ClassLabel.SUSPECTED_AREA, 0.7, (55, 45, 70, 60)),
                (3, ClassLabel.GROUND, 0.8, (0, 60, 99, 99)),
                (4, ClassLabel.OIL_STORAGE_DEVICE, 0.6, (70, 30, 90, 60)),
            )
        ),
    )
    (tmp_path / "scene.json").write_text(serialize_scene(scene))
    (tmp_path / "rules.txt").write_text(SELF_PAIR_RULES)
    (tmp_path / "pipeline.json").write_text(
        json.dumps({"rules": "rules.txt", "relnet_weights": str(workspace / "relnet.json")})
    )
    assert main(
        ["infer", "--config", str(tmp_path / "pipeline.json"),
         "--scene", str(tmp_path / "scene.json")]
    ) == 0
    report = json.loads(capsys.readouterr().out)
    probs = {(p["subject"], p["reference"]): p for p in report["pair_relations"]}
    assert len(probs) == 12  # self-pairs are not classified or reported
    want = [_brute_rule_score(r, p, scene, probs) for r, p in parse_rules(SELF_PAIR_RULES)]
    assert report["rule_scores"] == want
    assert report["rule_scores"][2] == 0.625  # !On(A,A) = 1, Around(A,A) = 0


def test_numeric_failure_exits_3(workspace, tmp_path, capsys):
    cfg = tmp_path / "hot.json"
    doc = json.loads(json.dumps(TRAIN_REL_CONFIG))
    doc["train"]["lr_initial"] = 1e9
    doc["train"]["lr_final"] = 1e9
    doc["train"]["epochs"] = 4
    cfg.write_text(json.dumps(doc))
    with np.errstate(all="ignore"):
        code = main(
            ["train-rel", "--pairs", str(workspace / "pairs.jsonl"),
             "--config", str(cfg), "--out", str(tmp_path / "w.json")]
        )
    assert code == 3
    assert "numeric failure:" in capsys.readouterr().err
