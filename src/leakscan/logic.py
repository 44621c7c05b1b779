"""Rule DSL, fuzzy grounding over scenes, and conjunction-weight learning.

Rules look like::

    # leak on the ground
    OilArea(A) <- SuspectedArea(A) & Ground(B) & On(A,B).

One statement per rule, '.' terminated, '#' starts a comment.  Body
predicates come from a fixed registry — unary SuspectedArea / Ground /
OilStorageDevice (matched against detection classes) and binary On / Around
(read from the relation classifier's above / nearby probabilities).  The
head may use any predicate name; its variable must occur in the body.  A
rule may carry its conjunction weights inline, written before the period::

    OilArea(A) <- SuspectedArea(A) & Ground(B) & On(A,B) : [0.645, 0.181, 0.162, 0.012].

The fuzzy connectives are: not x = 1 - x, or = max, and = the clamped
affine form  clamp(sum_i b_i x_i + c, 0, 1)  with one weight per premise
plus a bias.  A rule meets a scene existentially: every assignment of scene
objects to the rule's variables is scored and the best one wins.

Grounding is a gather.  Each variable draws from a pool, the objects that
pass its positive unary premises (such a premise on the wrong class is
crisply false), so a rule whose subject class is absent scores exactly 0
rather than its bare bias.  The bindings are the pools' product in
row-major order (variables in first-occurrence order, objects in scene
order), and ties between equally scored bindings go to the first.  A
unary atom gathers from a per-pool confidence vector, a binary atom from a
pool x pool table with one pair_probs call per ordered pair.  A binary
atom may bind one object to both arguments; the pipeline's relation lookup
gives such a self-pair a crisp "other" (0, 0, 1), as an object is neither
on nor near itself.

One scorer serves inference, evaluation and weight learning, with tensor
grounding as in Logic Tensor Networks: a corpus is grounded once, per rule
the scenes' binding matrices are concatenated in scene order, every
binding's affine value is fuzzy_and's own sum, a segment max finds each
scene's first best binding, and one argmax over rules per scene finds the
winner.  A binding's value depends on its own row only, so evaluate_rules
(a one-scene corpus), ruleset_scores and the fit step agree bit for bit
with each other and with fuzzy_and.

Weight learning is joint gradient descent on binary cross-entropy between
the ruleset score and the scene leak label, with subgradients routed
through the max picks and zeroed outside the clamp range.  Each step
scores the whole corpus with that scorer; the loss and the gradients are
summed in scene order.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, NumericError, check_field_types
from .scene import ClassLabel, Scene

# Body predicates and their arities; unary ones assert a detection class.
PREDICATES: dict[str, int] = {
    "SuspectedArea": 1,
    "Ground": 1,
    "OilStorageDevice": 1,
    "On": 2,
    "Around": 2,
}
_PRED_CLASS = {
    "SuspectedArea": ClassLabel.SUSPECTED_AREA,
    "Ground": ClassLabel.GROUND,
    "OilStorageDevice": ClassLabel.OIL_STORAGE_DEVICE,
}
# Index into the relation classifier's (above, nearby, other) probabilities.
_PRED_RELATION = {"On": 0, "Around": 1}

MAX_BODY_ATOMS = 16
_P_EPS = 1e-7  # cross-entropy probability clip

#: Assignment of rule variables to object ids within one scene.
GroundingContext = dict[str, int]


@dataclass(frozen=True)
class Atom:
    predicate: str
    args: tuple[str, ...]
    negated: bool = False

    def __str__(self) -> str:
        bang = "!" if self.negated else ""
        return f"{bang}{self.predicate}({','.join(self.args)})"


@dataclass(frozen=True)
class RuleAST:
    head: Atom
    body: tuple[Atom, ...]

    def __post_init__(self):
        if len(self.head.args) != 1 or self.head.negated:
            raise DataError("rule head must be a positive unary atom")
        if not (1 <= len(self.body) <= MAX_BODY_ATOMS):
            raise DataError(f"rule body must have 1..{MAX_BODY_ATOMS} atoms")
        body_vars = {v for atom in self.body for v in atom.args}
        if self.head.args[0] not in body_vars:
            raise DataError(
                f"head variable {self.head.args[0]} does not appear in the body"
            )

    def variables(self) -> tuple[str, ...]:
        """Distinct variables in first-occurrence order, head first."""
        seen: list[str] = []
        for atom in (self.head, *self.body):
            for v in atom.args:
                if v not in seen:
                    seen.append(v)
        return tuple(seen)

    def __str__(self) -> str:
        return f"{self.head} <- {' & '.join(str(a) for a in self.body)}"


@dataclass(frozen=True)
class RuleParams:
    """Conjunction weights, one per body atom, plus the bias."""

    weights: tuple[float, ...]
    bias: float

    def __post_init__(self):
        if not self.weights:
            raise DataError("RuleParams needs at least one weight")
        vals = (*self.weights, self.bias)
        if not all(math.isfinite(v) for v in vals):
            raise DataError("RuleParams values must be finite")

    def vector(self) -> np.ndarray:
        """Flat [b1..bn, c] layout."""
        return np.array([*self.weights, self.bias], dtype=np.float64)

    @classmethod
    def from_vector(cls, vec: np.ndarray) -> "RuleParams":
        v = [float(x) for x in vec]
        return cls(weights=tuple(v[:-1]), bias=v[-1])


# ---------------------------------------------------------------------------
# Fuzzy connectives
# ---------------------------------------------------------------------------

def _unit(x: float) -> float:
    return min(max(float(x), 0.0), 1.0)


def fuzzy_not(x: float) -> float:
    return 1.0 - _unit(x)


def fuzzy_or(xs) -> float:
    vals = [_unit(x) for x in xs]
    if not vals:
        raise DataError("fuzzy_or needs at least one input")
    return max(vals)


def fuzzy_and(xs, params: RuleParams) -> float:
    """clamp(sum_i b_i x_i + c, 0, 1) over inputs clamped to [0, 1].

    The sum starts at +0.0 and adds b_i x_i in premise order, then c; the
    rule scorer adds in the same order.  It is a loop, not sum(), which
    compensates float rounding from Python 3.12 on.
    """
    vals = [_unit(x) for x in xs]
    if len(vals) != len(params.weights):
        raise DataError(
            f"fuzzy_and arity mismatch: {len(vals)} inputs, "
            f"{len(params.weights)} weights"
        )
    z = 0.0
    for b, x in zip(params.weights, vals):
        z += b * x
    return _unit(z + params.bias)


# ---------------------------------------------------------------------------
# DSL parsing and printing
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>\#[^\n]*)
  | (?P<arrow><-)
  | (?P<number>[-+]?(\d+\.\d*|\.\d+|\d+)([eE][-+]?\d+)?)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<punct>[()&,.!:\[\]])
    """,
    re.VERBOSE,
)

_VAR_RE = re.compile(r"[A-Z][A-Za-z0-9_]*$")


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    line: int
    col: int


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise DataError(f"line {line}, column {col}: unexpected character {text[pos]!r}")
        kind = m.lastgroup
        lexeme = m.group()
        if kind not in ("ws", "comment"):
            tokens.append(_Token(kind, lexeme, line, col))
        newlines = lexeme.count("\n")
        if newlines:
            line += newlines
            col = len(lexeme) - lexeme.rfind("\n")
        else:
            col += len(lexeme)
        pos = m.end()
    tokens.append(_Token("eof", "", line, col))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def _fail(self, msg: str):
        t = self.peek()
        raise DataError(f"line {t.line}, column {t.col}: {msg}")

    def expect(self, kind: str, text: str | None = None) -> _Token:
        t = self.peek()
        if t.kind != kind or (text is not None and t.text != text):
            want = text if text is not None else kind
            got = t.text if t.kind != "eof" else "end of input"
            self._fail(f"expected {want!r}, got {got!r}")
        self.i += 1
        return t

    def parse(self) -> list[tuple[RuleAST, RuleParams | None]]:
        rules: list[tuple[RuleAST, RuleParams | None]] = []
        while self.peek().kind != "eof":
            rules.append(self.rule())
        return rules

    def rule(self) -> tuple[RuleAST, RuleParams | None]:
        head = self.atom(is_head=True)
        self.expect("arrow")
        body = [self.atom()]
        while self.peek().text == "&":
            self.i += 1
            body.append(self.atom())
        params: RuleParams | None = None
        if self.peek().text == ":":
            self.i += 1
            params = self.params_vector()
        self.expect("punct", ".")
        try:
            ast = RuleAST(head, tuple(body))
        except DataError as e:
            self._fail(str(e))
        if params is not None and len(params.weights) != len(body):
            self._fail(
                f"weight vector has {len(params.weights) + 1} entries, rule "
                f"needs {len(body) + 1} (one per premise plus bias)"
            )
        return ast, params

    def atom(self, is_head: bool = False) -> Atom:
        negated = False
        if self.peek().text == "!":
            if is_head:
                self._fail("rule head cannot be negated")
            negated = True
            self.i += 1
        name_tok = self.expect("ident")
        if not is_head and name_tok.text not in PREDICATES:
            raise DataError(
                f"line {name_tok.line}, column {name_tok.col}: unknown predicate "
                f"{name_tok.text!r} (known: {', '.join(sorted(PREDICATES))})"
            )
        self.expect("punct", "(")
        args = [self.variable()]
        if self.peek().text == ",":
            self.i += 1
            args.append(self.variable())
        self.expect("punct", ")")
        if not is_head:
            arity = PREDICATES[name_tok.text]
            if len(args) != arity:
                raise DataError(
                    f"line {name_tok.line}, column {name_tok.col}: predicate "
                    f"{name_tok.text} takes {arity} argument(s), got {len(args)}"
                )
        return Atom(name_tok.text, tuple(args), negated)

    def variable(self) -> str:
        t = self.expect("ident")
        if not _VAR_RE.match(t.text):
            raise DataError(
                f"line {t.line}, column {t.col}: variable must be an uppercase "
                f"identifier, got {t.text!r}"
            )
        return t.text

    def params_vector(self) -> RuleParams:
        self.expect("punct", "[")
        nums = [float(self.expect("number").text)]
        while self.peek().text == ",":
            self.i += 1
            nums.append(float(self.expect("number").text))
        self.expect("punct", "]")
        if len(nums) < 2:
            self._fail("weight vector needs at least one weight and a bias")
        return RuleParams(weights=tuple(nums[:-1]), bias=nums[-1])


def parse_rules(text: str) -> list[tuple[RuleAST, RuleParams | None]]:
    """Parse a rules file into (AST, optional inline weights) pairs."""
    return _Parser(text).parse()


def print_rules(rules: list[tuple[RuleAST, RuleParams | None]]) -> str:
    """Canonical text form; parse_rules(print_rules(r)) == r."""
    lines = []
    for ast, params in rules:
        stmt = str(ast)
        if params is not None:
            vec = ", ".join(repr(v) for v in (*params.weights, params.bias))
            stmt += f" : [{vec}]"
        lines.append(stmt + ".")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Grounding and inference
# ---------------------------------------------------------------------------

def ground_rule(
    rule: RuleAST, scene: Scene, pair_probs
) -> tuple[np.ndarray, np.ndarray]:
    """All admissible bindings, in the module docstring's order, and their truth.

    Returns (X, ids): ids[i] holds the object ids binding i gives to
    rule.variables(), and X[i, j] is the truth of body atom j under it.
    """
    variables = rule.variables()
    pools = {
        v: [
            o for o in scene.objects
            if all(o.label is _PRED_CLASS[a.predicate]
                   for a in rule.body if a.args == (v,) and not a.negated)
        ]
        for v in variables
    }
    sizes = [len(pools[v]) for v in variables]
    if 0 in sizes:
        return np.zeros((0, len(rule.body))), np.zeros((0, len(variables)), dtype=np.int64)
    idx = dict(zip(variables, np.indices(sizes).reshape(len(variables), -1)))
    ids = np.stack(
        [np.array([o.id for o in pools[v]], dtype=np.int64)[idx[v]] for v in variables],
        axis=1,
    )
    tables: dict[tuple[str, ...], np.ndarray] = {}
    cols = []
    for atom in rule.body:
        if len(atom.args) == 1:
            (v,) = atom.args
            cls = _PRED_CLASS[atom.predicate]
            conf = np.array([o.confidence if o.label is cls else 0.0 for o in pools[v]])
            col = conf[idx[v]]
        else:
            s, r = atom.args
            if atom.args not in tables:
                tables[atom.args] = np.array(
                    [[pair_probs(a, b) for b in pools[r]] for a in pools[s]],
                    dtype=np.float64,
                )
            rel = _PRED_RELATION[atom.predicate]
            col = np.clip(tables[atom.args][idx[s], idx[r], rel], 0.0, 1.0)
        cols.append(1.0 - col if atom.negated else col)
    return np.stack(cols, axis=1), ids


@dataclass(frozen=True)
class _StackedGroundings:
    """One rule's groundings over a corpus, for the scorer.

    Block k is the non-empty ground_rule matrix of scene scene[k], in scene
    order.  rows holds all their rows, block k from row starts[k] on,
    sizes[k] of them, and ids the object ids each row binds to
    rule.variables().
    """

    rows: np.ndarray
    ids: np.ndarray
    scene: np.ndarray
    starts: np.ndarray
    sizes: np.ndarray


def _ground_corpus(rules, scenes, pair_probs_factory) -> list[_StackedGroundings]:
    per_scene = []
    for scene in scenes:
        fn = pair_probs_factory(scene)
        per_scene.append([ground_rule(rule, scene, fn) for rule in rules])
    stacked = []
    for r, rule in enumerate(rules):
        sizes = np.array([len(g[r][0]) for g in per_scene], dtype=np.intp)
        scene = np.flatnonzero(sizes)
        stacked.append(_StackedGroundings(
            rows=np.concatenate([np.zeros((0, len(rule.body))), *(g[r][0] for g in per_scene)]),
            ids=np.concatenate(
                [np.zeros((0, len(rule.variables())), np.int64), *(g[r][1] for g in per_scene)]
            ),
            scene=scene,
            starts=(np.cumsum(sizes) - sizes)[scene],
            sizes=sizes[scene],
        ))
    return stacked


def _ground_and_check(rules, params, scenes, pair_probs_factory):
    """The corpus groundings and the flat weight vectors, once every rule
    with a binding has one weight per premise."""
    if len(rules) != len(params):
        raise DataError("one RuleParams per rule required")
    stacked = _ground_corpus(rules, scenes, pair_probs_factory)
    for rule, p, gr in zip(rules, params, stacked):
        if len(gr.scene) and len(rule.body) != len(p.weights):
            raise DataError(
                f"rule has {len(rule.body)} premises but params carry "
                f"{len(p.weights)} weights"
            )
    return stacked, [p.vector() for p in params]


def _score(stacked: list[_StackedGroundings], vecs, n_scenes: int):
    """Every rule's best clamped affine binding in every scene: (scores, z,
    rows), each (n_scenes, n_rules), with the score, its affine value and
    its row in the rule's stacked rows; no binding scores 0.

    Each row's affine value is fuzzy_and's sum, elementwise over all rows:
    +0.0, plus b_i x_i in premise order, plus c.  The best binding is the
    first row at its block's maximum, or its first NaN, as np.argmax picks
    it; the score is that row's own value.
    """
    scores = np.zeros((n_scenes, len(vecs)))
    z_best = np.zeros((n_scenes, len(vecs)))
    row_best = np.zeros((n_scenes, len(vecs)), dtype=np.intp)
    for r, (gr, v) in enumerate(zip(stacked, vecs)):
        if not len(gr.scene):
            continue
        z = np.zeros(len(gr.rows))
        for b, x in zip(v[:-1], gr.rows.T):
            z += b * x
        z += v[-1]
        y = np.clip(z, 0.0, 1.0)
        top = np.repeat(np.maximum.reduceat(y, gr.starts), gr.sizes)
        at_top = np.where((y == top) | np.isnan(y), np.arange(len(y)), len(y))
        first = np.minimum.reduceat(at_top, gr.starts)
        scores[gr.scene, r] = y[first]
        z_best[gr.scene, r] = z[first]
        row_best[gr.scene, r] = first
    return scores, z_best, row_best


def evaluate_rule(
    rule: RuleAST,
    params: RuleParams,
    scene: Scene,
    pair_probs,
) -> tuple[float, GroundingContext | None]:
    """Best fuzzy conjunction over all admissible bindings, with the winner.

    No admissible binding (the subject class is absent, or the scene is
    empty) scores 0 with no context.
    """
    return evaluate_rules([rule], [params], scene, pair_probs)[0]


def evaluate_rules(
    rules: list[RuleAST],
    params: list[RuleParams],
    scene: Scene,
    pair_probs,
) -> list[tuple[float, GroundingContext | None]]:
    """evaluate_rule for each rule, scoring the scene as a one-scene corpus."""
    stacked, vecs = _ground_and_check(rules, params, [scene], lambda _scene: pair_probs)
    scores, _z, rows = _score(stacked, vecs, 1)
    results = []
    for r, (rule, gr) in enumerate(zip(rules, stacked)):
        context = None
        if len(gr.scene):  # the scene has a binding
            context = {v: int(oid) for v, oid in zip(rule.variables(), gr.ids[rows[0, r]])}
        results.append((float(scores[0, r]), context))
    return results


def ruleset_scores(
    rules: list[RuleAST],
    params: list[RuleParams],
    scenes: list[Scene],
    pair_probs_factory,
) -> np.ndarray:
    """Each scene's ruleset score, the first best of its evaluate_rules
    scores; pair_probs_factory maps a scene to its pair_probs callable."""
    stacked, vecs = _ground_and_check(rules, params, scenes, pair_probs_factory)
    scores, _z, _rows = _score(stacked, vecs, len(scenes))
    return scores[np.arange(len(scenes)), scores.argmax(axis=1)]


# ---------------------------------------------------------------------------
# Weight learning
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RuleTrainConfig:
    lr: float = 0.1
    steps: int = 500
    seed: int = 0
    init_jitter: float = 0.01

    def __post_init__(self):
        check_field_types(self)
        if self.lr < 0:
            raise ConfigError("lr must be >= 0")
        if self.steps < 0:
            raise ConfigError("steps must be >= 0")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        if self.init_jitter < 0:
            raise ConfigError("init_jitter must be >= 0")


@dataclass(frozen=True)
class RuleTrainStats:
    step: int
    loss: float
    train_acc: float


def _fit_step(stacked: list[_StackedGroundings], vecs, labels):
    """Loss, per-rule gradients and accuracy for flat [b1..bn, c] vectors.

    The whole corpus is scored by _score, the scorer infer and eval use;
    then
      * each scene's best rule is the first attaining the scene maximum,
        as np.argmax picks it;
      * the loss is summed in Python in scene order, with math.log;
      * each rule's gradient adds its scenes' contributions in scene order
        to a zero start (np.cumsum adds in sequence; np.sum may pair up).
    Subgradients follow the winning rule and binding and vanish outside the
    clamp range or where the cross-entropy clip is active.
    """
    n_scenes = len(labels)
    scores, z_best, row_best = _score(stacked, vecs, n_scenes)
    scene = np.arange(n_scenes)
    best = scores.argmax(axis=1)
    p = scores[scene, best]
    loss = 0.0
    for p_s, label in zip(p.tolist(), labels):
        p_hat = min(max(p_s, _P_EPS), 1.0 - _P_EPS)
        y_true = 1.0 if label else 0.0
        loss += -(y_true * math.log(p_hat) + (1.0 - y_true) * math.log(1.0 - p_hat))
    y_true = np.array(labels, dtype=np.float64)
    correct = int(np.count_nonzero((p >= 0.5) == (y_true == 1.0)))
    # p >= _P_EPS > 0 also means the best rule has a binding in the scene.
    fires = (p >= _P_EPS) & (p <= 1.0 - _P_EPS)
    fires &= (z_best[scene, best] >= 0.0) & (z_best[scene, best] <= 1.0)
    g_all = np.zeros(n_scenes)
    g_all[fires] = (
        -y_true[fires] / p[fires] + (1.0 - y_true[fires]) / (1.0 - p[fires])
    ) / n_scenes
    grads = []
    for r, (gr, v) in enumerate(zip(stacked, vecs)):
        mine = np.flatnonzero(fires & (best == r))
        terms = np.zeros((len(mine) + 1, v.size))
        terms[1:, :-1] = g_all[mine, None] * gr.rows[row_best[mine, r]]
        terms[1:, -1] = g_all[mine]
        grads.append(np.cumsum(terms, axis=0)[-1])
    return loss / n_scenes, grads, correct / n_scenes


def ruleset_loss_and_grad(
    rules: list[RuleAST],
    params_list: list[RuleParams],
    scenes: list[Scene],
    pair_probs_factory,
) -> tuple[float, list[np.ndarray]]:
    """Mean cross-entropy of the ruleset on labeled scenes and its gradient.

    pair_probs_factory maps a scene to its (subject, reference) -> relation
    probabilities callable.  Gradients are exact subgradients: they follow
    the winning rule and winning binding and vanish outside the clamp
    range.  Returned per rule in the flat [b1..bn, c] layout.
    """
    labels = _require_labels(scenes)
    stacked, vecs = _ground_and_check(rules, params_list, scenes, pair_probs_factory)
    loss, grads, _acc = _fit_step(stacked, vecs, labels)
    return loss, grads


def _require_labels(scenes: list[Scene]) -> list[bool]:
    if not scenes:
        raise DataError("training needs labeled scenes, got an empty scene list")
    labels = []
    for i, s in enumerate(scenes):
        if s.leak_label is None:
            raise DataError(f"scene {i} has no leak label")
        labels.append(s.leak_label)
    return labels


def init_rule_params(
    rules: list[RuleAST], seed: int, jitter: float = 0.01
) -> list[RuleParams]:
    """Near-uniform simplex start: weights about 0.8/n each, bias about 0.1."""
    rng = np.random.default_rng(seed)
    out = []
    for rule in rules:
        n = len(rule.body)
        w = 0.8 / n + jitter * rng.standard_normal(n)
        c = 0.1 + jitter * float(rng.standard_normal())
        out.append(RuleParams(weights=tuple(float(v) for v in w), bias=c))
    return out


def train_rule_params(
    rules: list[RuleAST],
    scenes: list[Scene],
    pair_probs_factory,
    cfg: RuleTrainConfig,
    init: list[RuleParams] | None = None,
) -> tuple[list[RuleParams], list[RuleTrainStats]]:
    """Jointly learn all rule weight vectors by full-batch gradient descent.

    Atom probabilities are fixed by the scenes and the relation classifier,
    so they are grounded once up front; each step only re-runs the cheap
    affine/clamp/max part, over the whole corpus at once, with the scorer
    that infer and eval use.  lr = 0 reproduces the initial parameters.
    """
    if not rules:
        raise DataError("ruleset must contain at least one rule")
    labels = _require_labels(scenes)
    if len(set(labels)) < 2:
        raise DataError("training needs both leak and non-leak scenes")
    if init is not None and len(init) != len(rules):
        raise DataError("one initial RuleParams per rule required")
    params = init if init is not None else init_rule_params(rules, cfg.seed, cfg.init_jitter)
    stacked, vecs = _ground_and_check(rules, params, scenes, pair_probs_factory)
    history: list[RuleTrainStats] = []
    for step in range(cfg.steps):
        loss, grads, acc = _fit_step(stacked, vecs, labels)
        if not math.isfinite(loss):
            raise NumericError(f"non-finite rule-training loss at step {step}")
        for v, g in zip(vecs, grads):
            v -= cfg.lr * g
        history.append(RuleTrainStats(step=step, loss=loss, train_acc=acc))
    return [RuleParams.from_vector(v) for v in vecs], history


# ---------------------------------------------------------------------------
# Parameter files
# ---------------------------------------------------------------------------

def save_rule_params(params_list: list[RuleParams], path: str) -> None:
    """JSON mapping rule index -> {weights, bias}; floats round-trip exactly."""
    doc = {
        str(i): {"weights": list(p.weights), "bias": p.bias}
        for i, p in enumerate(params_list)
    }
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=2)


def load_rule_params(path: str) -> list[RuleParams]:
    """Read a file written by save_rule_params.  Each entry needs a list of
    numbers for weights and a number for bias (JSON numbers, not strings or
    booleans); a malformed file raises a DataError naming the file and, for
    a bad entry, the rule index."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except ValueError as e:  # bad JSON or UTF-8, or an integer too long to read
        raise DataError(f"corrupt rule parameter file {path}: {e}") from None
    if not isinstance(doc, dict):
        raise DataError(f"rule parameter file {path} must be a JSON object")
    out: list[RuleParams] = []
    for i in range(len(doc)):
        key = str(i)
        if key not in doc:
            raise DataError(f"rule parameter file {path} missing index {i}")
        entry = doc[key]
        where = f"rule parameter file {path}: rule {i}: bad parameter entry"
        if not (isinstance(entry, dict) and "weights" in entry and "bias" in entry):
            raise DataError(f"{where}: expected an object with weights and bias")
        weights, bias = entry["weights"], entry["bias"]
        if not (isinstance(weights, list) and all(map(_is_number, weights))):
            raise DataError(f"{where}: weights must be a list of numbers")
        if not _is_number(bias):
            raise DataError(f"{where}: bias must be a number")
        try:
            out.append(RuleParams(weights=tuple(map(float, weights)), bias=float(bias)))
        except (DataError, OverflowError) as e:  # no weights, non-finite or huge values
            raise DataError(f"{where}: {e}") from None
    return out


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)
