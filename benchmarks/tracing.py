"""Span tracing around leakscan's public entry points, for the traced run.

The tracer replaces each listed function with a timing wrapper in every
leakscan module that holds it, so calls are caught where their callers look
them up (``pipeline`` imports ``evaluate_rules`` by name, ``relnet`` imports
``rasterize``).  Spans (name, start, end, parent, operation id) and counters
stay in memory; ``write_spans`` dumps them when the run ends.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("scene", "relnet", "logic", "enhance", "pipeline", "pnm")

#: (span name, defining module, function).  The span name's first part is
#: the layer.  ``scenegen`` builds inputs only and ``cli`` parses arguments,
#: so neither is wrapped.
SPANS = (
    ("scene.parse_scene_json", "leakscan.scene", "parse_scene_json"),
    ("scene.rasterize", "leakscan.scene", "rasterize"),
    ("relnet.make_pair_sample", "leakscan.relnet", "make_pair_sample"),
    ("relnet.predict_batch", "leakscan.relnet", "predict_batch"),
    ("relnet.train", "leakscan.relnet", "train"),
    ("relnet.load_params", "leakscan.relnet", "load_params"),
    ("relnet.save_params", "leakscan.relnet", "save_params"),
    ("logic.evaluate_rules", "leakscan.logic", "evaluate_rules"),
    ("logic.ground_rule", "leakscan.logic", "ground_rule"),
    ("logic.train_rule_params", "leakscan.logic", "train_rule_params"),
    ("logic.save_rule_params", "leakscan.logic", "save_rule_params"),
    ("pipeline.load_pipeline_config", "leakscan.pipeline", "load_pipeline_config"),
    ("pipeline.load_pipeline", "leakscan.pipeline", "load_pipeline"),
    ("pipeline.run_inference", "leakscan.pipeline", "run_inference"),
    ("pipeline.scene_pair_probs", "leakscan.pipeline", "scene_pair_probs"),
    ("pipeline.run_eval", "leakscan.pipeline", "run_eval"),
    ("enhance.enhance_image", "leakscan.enhance", "enhance_image"),
    ("enhance.optimize_split", "leakscan.enhance", "optimize_split"),
    ("enhance.bi_he", "leakscan.enhance", "bi_he"),
    ("enhance.apply_lut", "leakscan.enhance", "apply_lut"),
    ("enhance.metrics", "leakscan.enhance", "metrics"),
    ("enhance.rgb_to_ycrcb", "leakscan.enhance", "rgb_to_ycrcb"),
    ("enhance.ycrcb_to_rgb", "leakscan.enhance", "ycrcb_to_rgb"),
    ("pnm.read_pnm", "leakscan.pnm", "read_pnm"),
    ("pnm.write_pnm", "leakscan.pnm", "write_pnm"),
)

#: Functions too small to time; only their calls are counted.
COUNTED = (("enhance.candidates_scored", "leakscan.enhance", "scores"),)

#: Per-layer metric names and units, in the order they are printed.
PER_LAYER_UNITS = {
    "relnet.predict_batch_s": "s",
    "relnet.predict_batch_share": "1",
    "relnet.predict_ms_per_pair": "ms",
    "relnet.pairs_classified": "count",
    "relnet.make_pair_sample_s": "s",
    "relnet.make_pair_sample_calls": "count",
    "relnet.train_s": "s",
    "relnet.train_ms_per_batch": "ms",
    "relnet.load_params_s": "s",
    "scene.parse_scene_json_s": "s",
    "scene.rasterize_s": "s",
    "scene.rasterize_calls": "count",
    "logic.evaluate_rules_s": "s",
    "logic.ground_s": "s",
    "logic.fit_steps_s": "s",
    "logic.bindings.r0": "count",
    "logic.bindings.r1": "count",
    "logic.bindings.r2": "count",
    "logic.pairs_read": "count",
    "logic.pairs_read_ratio": "1",
    "pipeline.load_pipeline_s": "s",
    "pipeline.run_inference_self_s": "s",
    "pipeline.scene_pair_probs_self_s": "s",
    "pipeline.run_eval_self_s": "s",
    "enhance.optimize_split_s": "s",
    "enhance.candidates_scored": "count",
    "enhance.apply_lut_s": "s",
    "enhance.metrics_s": "s",
    "enhance.bi_he_s": "s",
    "enhance.color_convert_s": "s",
    "pnm.read_s": "s",
    "pnm.write_s": "s",
    "pnm.bytes": "count",
    **{f"{layer}.busy_s": "s" for layer in LAYERS},
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "trace.overhead_frac": "1",
}


class Tracer:
    """Records spans and counters while ``recording`` is true.

    Every recorded call adds one to the counter named after its span; the
    hooks in ``_HOOKS`` add work counts taken from arguments or results.
    """

    def __init__(self, rule_index: dict):
        # rule AST -> position in the benchmark's rule list, for the
        # per-rule binding counters.
        self.rule_index = rule_index
        self.spans: list[list] = []  # [name, start, end, parent, op]
        self.stack: list[int] = []
        self.counters: Counter = Counter()
        self.read_sets: list[set] = []
        self.op = -1
        self.recording = False
        self._patched: list[tuple] = []

    # -- wrapping -----------------------------------------------------------

    def _span(self, name, fn):
        hook = _HOOKS.get(name)

        def wrapper(*args, **kwargs):
            if not self.recording:
                return fn(*args, **kwargs)
            self.counters[name] += 1
            span = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, self.op]
            self.stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self.stack.pop()
            if hook is not None:
                result = hook(self, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count(self, name, fn):
        def wrapper(*args, **kwargs):
            if self.recording:
                self.counters[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Wrap every listed function in each leakscan module that holds it."""
        modules = [m for k, m in list(sys.modules.items()) if k.startswith("leakscan")]
        targets = [(n, d, a, self._span) for n, d, a in SPANS]
        targets += [(n, d, a, self._count) for n, d, a in COUNTED]
        for name, defining, attr, make in targets:
            original = getattr(sys.modules[defining], attr, None)
            if original is None:  # gone from this version: its metrics read 0
                continue
            wrapper = make(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._patched.append((mod, key, original))
        try:
            yield self
        finally:
            for mod, key, original in reversed(self._patched):
                setattr(mod, key, original)
            self._patched.clear()

    def inside(self, layer: str) -> bool:
        """Whether a span of the given layer is open."""
        return any(self.spans[i][0].startswith(layer + ".") for i in self.stack)

    # -- results ------------------------------------------------------------

    def per_layer(self, loop_s: float, traced_s: float, untraced_s: float) -> dict[str, float]:
        """Per-layer metrics from the recorded spans and counters.

        loop_s is the traced operation time; traced_s and untraced_s also
        include one set-up each.
        """
        busy: dict[str, float] = defaultdict(float)  # outermost span per name
        self_s: dict[str, float] = defaultdict(float)
        layer_busy: dict[str, float] = defaultdict(float)
        layer_self: dict[str, float] = defaultdict(float)
        child_s = [0.0] * len(self.spans)
        for name, start, end, parent, _op in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        for i, (name, start, end, parent, _op) in enumerate(self.spans):
            dur = end - start
            layer = name.split(".", 1)[0]
            ancestors = []
            p = parent
            while p >= 0:
                ancestors.append(self.spans[p][0])
                p = self.spans[p][3]
            if name not in ancestors:
                busy[name] += dur
            if not any(a.split(".", 1)[0] == layer for a in ancestors):
                layer_busy[layer] += dur
            self_s[name] += dur - child_s[i]
            layer_self[layer] += dur - child_s[i]
        c = self.counters
        pairs = c["relnet.pairs_classified"]
        m = {
            "relnet.predict_batch_s": busy["relnet.predict_batch"],
            "relnet.predict_batch_share": busy["relnet.predict_batch"] / loop_s,
            "relnet.predict_ms_per_pair": _ratio(1e3 * busy["relnet.predict_batch"], pairs),
            "relnet.pairs_classified": pairs,
            "relnet.make_pair_sample_s": busy["relnet.make_pair_sample"],
            "relnet.make_pair_sample_calls": c["relnet.make_pair_sample"],
            "relnet.train_s": busy["relnet.train"],
            "relnet.train_ms_per_batch": _ratio(
                1e3 * busy["relnet.train"], c["relnet.train_batches"]
            ),
            "relnet.load_params_s": busy["relnet.load_params"],
            "scene.parse_scene_json_s": busy["scene.parse_scene_json"],
            "scene.rasterize_s": busy["scene.rasterize"],
            "scene.rasterize_calls": c["scene.rasterize"],
            "logic.evaluate_rules_s": busy["logic.evaluate_rules"],
            "logic.ground_s": busy["logic.ground_rule"],
            "logic.fit_steps_s": self_s["logic.train_rule_params"],
            **{f"logic.bindings.r{i}": c[f"logic.bindings.r{i}"] for i in range(3)},
            "logic.pairs_read": sum(len(s) for s in self.read_sets),
            "pipeline.load_pipeline_s": busy["pipeline.load_pipeline"],
            "pipeline.run_inference_self_s": self_s["pipeline.run_inference"],
            "pipeline.scene_pair_probs_self_s": self_s["pipeline.scene_pair_probs"],
            "pipeline.run_eval_self_s": self_s["pipeline.run_eval"],
            "enhance.optimize_split_s": busy["enhance.optimize_split"],
            "enhance.candidates_scored": c["enhance.candidates_scored"],
            "enhance.apply_lut_s": busy["enhance.apply_lut"],
            "enhance.metrics_s": busy["enhance.metrics"],
            "enhance.bi_he_s": busy["enhance.bi_he"],
            "enhance.color_convert_s": busy["enhance.rgb_to_ycrcb"]
            + busy["enhance.ycrcb_to_rgb"],
            "pnm.read_s": busy["pnm.read_pnm"],
            "pnm.write_s": busy["pnm.write_pnm"],
            "pnm.bytes": c["pnm.bytes"],
            **{f"{layer}.busy_s": layer_busy[layer] for layer in LAYERS},
            **{f"{layer}.self_s": layer_self[layer] for layer in LAYERS},
            "trace.overhead_frac": traced_s / untraced_s - 1.0,
        }
        m["logic.pairs_read_ratio"] = _ratio(m["logic.pairs_read"], pairs)
        return {name: float(m[name]) for name in PER_LAYER_UNITS}

    def write_spans(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as f:
            for name, start, end, parent, op in self.spans:
                f.write(
                    json.dumps(
                        {"name": name, "start": start - t0, "end": end - t0,
                         "parent": parent, "op": op}
                    )
                    + "\n"
                )


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# ---------------------------------------------------------------------------
# Counter hooks: run after a recorded call returns, may wrap its result
# ---------------------------------------------------------------------------

def _predict_batch(tr, args, kwargs, result):
    tr.counters["relnet.pairs_classified"] += len(args[1])
    return result


def _train(tr, args, kwargs, result):
    dataset, cfg = args[1], args[2]
    tr.counters["relnet.train_batches"] += math.ceil(len(dataset) / cfg.batch_size) * cfg.epochs
    return result


def _ground_rule(tr, args, kwargs, result):
    tr.counters[f"logic.bindings.r{tr.rule_index[args[0]]}"] += result[0].shape[0]
    return result


def _scene_pair_probs(tr, args, kwargs, lookup):
    # Record which distinct ordered pairs the rules read; run_inference also
    # reads every pair to build its report, so reads outside logic spans are
    # not counted.
    read: set = set()
    tr.read_sets.append(read)

    def traced_lookup(subject, reference):
        if tr.recording and tr.inside("logic"):
            read.add((subject.id, reference.id))
        return lookup(subject, reference)

    return traced_lookup


def _pnm_bytes(tr, args, kwargs, result):
    tr.counters["pnm.bytes"] += os.path.getsize(args[0])
    return result


_HOOKS = {
    "relnet.predict_batch": _predict_batch,
    "relnet.train": _train,
    "logic.ground_rule": _ground_rule,
    "pipeline.scene_pair_probs": _scene_pair_probs,
    "pnm.read_pnm": _pnm_bytes,
    "pnm.write_pnm": _pnm_bytes,
}
