"""Command-line surface.

Subcommands: enhance, gen scenes, gen pairs, train-rel, train-rules,
infer, eval.  Exit codes: 0 success, 1 usage or configuration error,
2 bad data, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import json
import sys
from pathlib import Path

from . import logic, pipeline, relnet, scenegen
from .enhance import ColorImage, GrayImage, enhance_image
from .errors import ConfigError, DataError, NumericError
from .pnm import read_pnm, write_pnm
from .scene import Scene, parse_scene_json, serialize_scene


class _ArgumentParser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage; this project reserves 2
    # for data errors, so usage problems are rerouted through ConfigError.
    def error(self, message):
        raise ConfigError(message)


def _dataclass_from_doc(cls, doc: dict, what: str):
    if not isinstance(doc, dict):
        raise ConfigError(f"{what} must be a JSON object")
    names = {f.name for f in dataclasses.fields(cls)}
    unknown = set(doc) - names
    if unknown:
        raise ConfigError(f"unknown {what} keys: {', '.join(sorted(unknown))}")
    kwargs = {k: tuple(v) if isinstance(v, list) else v for k, v in doc.items()}
    try:
        return cls(**kwargs)
    except TypeError as e:
        raise ConfigError(f"bad {what}: {e}") from None


def _load_json(path: str, what: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except FileNotFoundError:
        raise ConfigError(f"{what} file not found: {path}") from None
    except ValueError as e:  # bad JSON or UTF-8, or an integer too long to read
        raise ConfigError(f"{what} file {path} is not valid JSON: {e}") from None


def _read_config(cls, path: str | None, what: str):
    """The config dataclass ``cls`` read from a JSON file, or its defaults
    without one; every bad value raises a ConfigError."""
    doc = _load_json(path, what) if path else {}
    return _dataclass_from_doc(cls, doc, what)


def _read_train_rel_config(path: str | None):
    """``(net config, train config)`` from a train-rel config file."""
    doc = _load_json(path, "training config") if path else {}
    if not isinstance(doc, dict):
        raise ConfigError("training config must be a JSON object")
    unknown = set(doc) - {"net", "train"}
    if unknown:
        raise ConfigError(f"unknown training config keys: {', '.join(sorted(unknown))}")
    net_cfg = _dataclass_from_doc(relnet.RelNetConfig, doc.get("net", {}), "net config")
    train_cfg = _dataclass_from_doc(relnet.TrainConfig, doc.get("train", {}), "train config")
    return net_cfg, train_cfg


def _read_ablation_config(path: str | None):
    """``(gen config, net config, train config, n_train, n_eval)`` from an
    ablation config file; the net defaults to the compact one."""
    doc = _load_json(path, "ablation config") if path else {}
    if not isinstance(doc, dict):
        raise ConfigError("ablation config must be a JSON object")
    unknown = set(doc) - {"gen", "net", "train", "n_train", "n_eval"}
    if unknown:
        raise ConfigError(f"unknown ablation config keys: {', '.join(sorted(unknown))}")
    gen_cfg = _dataclass_from_doc(scenegen.GenConfig, doc.get("gen", {}), "gen config")
    net_cfg = (
        _dataclass_from_doc(relnet.RelNetConfig, doc["net"], "net config")
        if "net" in doc
        else pipeline.COMPACT_RELNET_CONFIG
    )
    train_cfg = _dataclass_from_doc(relnet.TrainConfig, doc.get("train", {}), "train config")
    counts = []
    for key, default in (("n_train", 2000), ("n_eval", 500)):
        n = doc.get(key, default)
        if type(n) is not int or n < 1:  # bool is an int subclass
            raise ConfigError(f"ablation config {key}: expected an integer >= 1, got {n!r:.40}")
        counts.append(n)
    return gen_cfg, net_cfg, train_cfg, *counts


def _read_scene_dir(path: str) -> list[Scene]:
    files = sorted(Path(path).glob("*.json"))
    if not files:
        raise DataError(f"no scene JSON files in {path}")
    scenes = []
    for f in files:
        try:
            scenes.append(parse_scene_json(f.read_text(encoding="utf-8")))
        except (DataError, UnicodeDecodeError) as e:
            raise DataError(f"{f}: {e}") from None
    return scenes


def _write_history_csv(path: str, rows) -> None:
    if not rows:
        return
    fields = list(dataclasses.asdict(rows[0]).keys())
    with open(path, "w", encoding="utf-8", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=fields)
        writer.writeheader()
        for r in rows:
            writer.writerow(dataclasses.asdict(r))


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_enhance(args) -> int:
    try:
        weights = tuple(float(w) for w in args.weights.split(","))
    except ValueError:
        raise ConfigError(f"--weights must be wb,wo,wd numbers, got {args.weights!r}")
    if len(weights) != 3:
        raise ConfigError("--weights needs exactly three values wb,wo,wd")
    pixels = read_pnm(args.input)
    img = GrayImage.from_array(pixels) if pixels.ndim == 2 else ColorImage.from_array(pixels)
    out, report = enhance_image(img, weights)
    write_pnm(args.out, out.pixels)
    if args.report:
        doc = {"input": args.input, "output": args.out, "weights": list(weights)}
        doc.update(report.to_dict())
        with open(args.report, "w", encoding="utf-8") as f:
            json.dump(doc, f, indent=2, sort_keys=True)
    print(
        f"split t={report.t}  aggregate={report.aggregate:.4f}  "
        f"(brightness {report.bps:.4f}, contrast {report.ocs:.4f}, "
        f"detail {report.dps:.4f})"
    )
    return 0


def _cmd_gen_scenes(args) -> int:
    cfg = _read_config(scenegen.GenConfig, args.config, "generator config")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for i in range(args.count):
        scene = scenegen.gen_scene(cfg, i)
        (out_dir / f"scene_{i:05d}.json").write_text(
            serialize_scene(scene), encoding="utf-8"
        )
    print(f"wrote {args.count} scenes to {out_dir}")
    return 0


def _cmd_gen_pairs(args) -> int:
    cfg = _read_config(scenegen.GenConfig, args.config, "generator config")
    pairs = scenegen.gen_pair_dataset(cfg, args.count)
    scenegen.write_pairs_jsonl(pairs, args.out)
    print(f"wrote {len(pairs)} labeled pairs to {args.out}")
    return 0


def _cmd_train_rel(args) -> int:
    net_cfg, train_cfg = _read_train_rel_config(args.config)
    dataset = [p.sample for p in scenegen.read_pairs_jsonl(args.pairs)]
    params = relnet.init_params(net_cfg, train_cfg.seed)
    trained, history = relnet.train(params, dataset, train_cfg)
    relnet.save_params(trained, args.out)
    if args.log:
        _write_history_csv(args.log, history)
    last = history[-1]
    print(
        f"trained {len(dataset)} pairs, {train_cfg.epochs} epochs: "
        f"loss={last.loss:.4f} acc={last.train_acc:.4f} -> {args.out}"
    )
    return 0


def _cmd_train_rules(args) -> int:
    try:
        text = Path(args.rules).read_text(encoding="utf-8")
    except FileNotFoundError:
        raise ConfigError(f"rules file not found: {args.rules}") from None
    except UnicodeDecodeError as e:
        raise DataError(f"rules file {args.rules}: {e}") from None
    rules = [ast for ast, _ in logic.parse_rules(text)]
    if not rules:
        raise DataError(f"rules file {args.rules} contains no rules")
    scenes = _read_scene_dir(args.scenes)
    try:
        net = relnet.load_params(args.relnet)
    except FileNotFoundError:
        raise ConfigError(f"weight file not found: {args.relnet}") from None
    cfg = _read_config(logic.RuleTrainConfig, args.config, "rule training config")
    factory = functools.partial(pipeline.scene_pair_probs, net)
    params, history = logic.train_rule_params(rules, scenes, factory, cfg)
    logic.save_rule_params(params, args.out)
    if args.log:
        _write_history_csv(args.log, history)
    last = history[-1] if history else None
    tail = f"loss={last.loss:.4f} acc={last.train_acc:.4f}" if last else "no steps"
    print(f"trained {len(rules)} rules on {len(scenes)} scenes: {tail} -> {args.out}")
    return 0


def _cmd_infer(args) -> int:
    cfg = pipeline.load_pipeline_config(args.config)
    pipe = pipeline.load_pipeline(cfg)
    try:
        text = Path(args.scene).read_text(encoding="utf-8")
    except FileNotFoundError:
        raise DataError(f"scene file not found: {args.scene}") from None
    except UnicodeDecodeError as e:
        raise DataError(f"scene file {args.scene}: {e}") from None
    scene = parse_scene_json(text)
    report = pipeline.run_inference(pipe, scene)
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0


def _cmd_eval(args) -> int:
    if args.ablations:  # read before the evaluation, so a bad value fails fast
        gen_cfg, net_cfg, train_cfg, n_train, n_eval = _read_ablation_config(
            args.ablation_config
        )
    cfg = pipeline.load_pipeline_config(args.config)
    pipe = pipeline.load_pipeline(cfg)
    scenes = _read_scene_dir(args.scenes)
    report = pipeline.run_eval(pipe, scenes)
    print(report["table_text"])
    ap = report["detection_ap"]
    print(
        f"\ndetection AP: ap50={ap['ap50']:.4f} ap75={ap['ap75']:.4f} "
        f"map={ap['map']:.4f}   ({report['n_scenes']} scenes)"
    )
    if args.ablations:
        train_pairs = [
            p.sample for p in scenegen.gen_pair_dataset(gen_cfg, n_train)
        ]
        eval_gen = dataclasses.replace(gen_cfg, seed=gen_cfg.seed + 1)
        eval_pairs = [p.sample for p in scenegen.gen_pair_dataset(eval_gen, n_eval)]
        rows = pipeline.relation_ablation_table(
            train_pairs, eval_pairs, net_cfg, train_cfg
        )
        report["relation_ablations"] = rows
        print()
        print(pipeline.render_table(rows, ["input", "accuracy", "macro_f1"]))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            json.dump(report, f, indent=2, sort_keys=True)
    return 0


# ---------------------------------------------------------------------------
# Parser wiring
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="leakscan",
        description="Oil-leak region assessment: enhancement, spatial "
        "relations, and fuzzy rule inference over detection output.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enhance", help="split-histogram equalization of a PGM/PPM image")
    p.add_argument("input", help="input image (binary PGM or PPM, 8-bit)")
    p.add_argument("--out", required=True, help="output image path")
    p.add_argument("--weights", default="1,1,1", help="score weights wb,wo,wd")
    p.add_argument("--report", help="write the metric report JSON here")
    p.set_defaults(func=_cmd_enhance)

    gen = sub.add_parser("gen", help="generate synthetic data")
    gen_sub = gen.add_subparsers(dest="what", required=True)
    p = gen_sub.add_parser("scenes", help="write a labeled scene corpus")
    p.add_argument("--config", help="generator config JSON")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--count", type=int, default=100)
    p.set_defaults(func=_cmd_gen_scenes)
    p = gen_sub.add_parser("pairs", help="write a labeled relation-pair dataset")
    p.add_argument("--config", help="generator config JSON")
    p.add_argument("--out", required=True, help="output JSONL path")
    p.add_argument("--count", type=int, default=1000)
    p.set_defaults(func=_cmd_gen_pairs)

    p = sub.add_parser("train-rel", help="train the relation classifier")
    p.add_argument("--pairs", required=True, help="labeled pair JSONL")
    p.add_argument("--config", help='JSON {"net": {...}, "train": {...}}')
    p.add_argument("--out", required=True, help="output weight file")
    p.add_argument("--log", help="write per-epoch CSV here")
    p.set_defaults(func=_cmd_train_rel)

    p = sub.add_parser("train-rules", help="learn rule conjunction weights")
    p.add_argument("--rules", required=True, help="rule DSL file")
    p.add_argument("--scenes", required=True, help="directory of labeled scene JSON")
    p.add_argument("--relnet", required=True, help="relation-classifier weights")
    p.add_argument("--config", help="rule training config JSON")
    p.add_argument("--out", required=True, help="output rule parameter file")
    p.add_argument("--log", help="write per-step CSV here")
    p.set_defaults(func=_cmd_train_rules)

    p = sub.add_parser("infer", help="score one scene")
    p.add_argument("--config", required=True, help="pipeline config JSON")
    p.add_argument("--scene", required=True, help="scene JSON file")
    p.set_defaults(func=_cmd_infer)

    p = sub.add_parser("eval", help="evaluate baseline and pipeline on a corpus")
    p.add_argument("--config", required=True, help="pipeline config JSON")
    p.add_argument("--scenes", required=True, help="directory of labeled scene JSON")
    p.add_argument("--ablations", action="store_true",
                   help="also retrain and score relation-input ablations")
    p.add_argument("--ablation-config", help="ablation settings JSON")
    p.add_argument("--out", help="write the full report JSON here")
    p.set_defaults(func=_cmd_eval)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except DataError as e:
        print(f"data error: {e}", file=sys.stderr)
        return 2
    except NumericError as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return 3
    except OSError as e:  # e.g. a directory or unreadable file given as input
        print(f"data error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
