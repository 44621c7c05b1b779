"""Tests for the rule DSL, fuzzy semantics, grounding and weight learning."""

import itertools
import json
import math
import re
from dataclasses import replace

import numpy as np
import pytest

from leakscan import logic
from leakscan.errors import ConfigError, DataError
from leakscan.logic import (
    Atom,
    MAX_BODY_ATOMS,
    RuleAST,
    RuleParams,
    RuleTrainConfig,
    RuleTrainStats,
    evaluate_rule,
    evaluate_rules,
    fuzzy_and,
    fuzzy_not,
    fuzzy_or,
    ground_rule,
    init_rule_params,
    load_rule_params,
    parse_rules,
    print_rules,
    ruleset_loss_and_grad,
    ruleset_scores,
    save_rule_params,
    train_rule_params,
)
from leakscan.scene import BBox, ClassLabel, DetectedObject, PolygonMask, Scene
from leakscan.scenegen import GenConfig, gen_scenes, label_relation_oracle
from leakscan.relnet import RelationLabel

RULES_TEXT = """
# leak resting on the ground band
OilArea(A) <- SuspectedArea(A) & Ground(B) & On(A,B).
OilArea(A) <- SuspectedArea(A) & OilStorageDevice(B) & Around(A,B).
OilArea(A) <- SuspectedArea(A) & Ground(B) & On(A,B) & OilStorageDevice(C) & Around(A,C).
"""


def box_object(oid, label, x1, y1, x2, y2, confidence=1.0):
    return DetectedObject(
        id=oid,
        label=label,
        confidence=confidence,
        bbox=BBox(x1, y1, x2, y2),
        polygon=PolygonMask(((x1, y1), (x2, y1), (x2, y2), (x1, y2))),
    )


def make_scene(objects, leak=None):
    return Scene(image_width=100, image_height=100, objects=tuple(objects), leak_label=leak)


def hash_probs(subject, reference):
    """Deterministic pseudo-random relation probabilities per ordered pair."""
    rng = np.random.default_rng((subject.id, reference.id, 99))
    p = rng.random(3) + 0.05
    return p / p.sum()


def hash_factory(scene):
    return hash_probs


def oracle_factory(scene):
    """Near-crisp relation probabilities straight from the geometric oracle."""
    w, h = scene.image_width, scene.image_height
    table = {
        RelationLabel.ABOVE: np.array([0.9, 0.05, 0.05]),
        RelationLabel.NEARBY: np.array([0.05, 0.9, 0.05]),
        RelationLabel.OTHER: np.array([0.05, 0.05, 0.9]),
    }

    def probs(subject, reference):
        return table[label_relation_oracle(subject, reference, w, h)]

    return probs


# ---------------------------------------------------------------------------
# Fuzzy connectives
# ---------------------------------------------------------------------------

def test_fuzzy_not_involution_sampled():
    rng = np.random.default_rng(0)
    for x in rng.random(1000):
        assert fuzzy_not(fuzzy_not(x)) == x
    assert fuzzy_not(0.0) == 1.0 and fuzzy_not(1.0) == 0.0
    assert fuzzy_not(1.7) == 0.0  # inputs clamp to the unit interval
    assert fuzzy_not(-0.3) == 1.0


def test_fuzzy_or_algebra_sampled():
    rng = np.random.default_rng(1)
    for _ in range(1000):
        a, b, c = rng.random(3)
        assert fuzzy_or([a, b]) == fuzzy_or([b, a])
        assert fuzzy_or([fuzzy_or([a, b]), c]) == fuzzy_or([a, fuzzy_or([b, c])])
        assert fuzzy_or([a, a]) == a
        assert 0.0 <= fuzzy_or([a, b, c]) <= 1.0
    assert fuzzy_or([1.4, 0.2]) == 1.0
    with pytest.raises(DataError, match="at least one"):
        fuzzy_or([])


def test_fuzzy_and_monotone_sampled():
    rng = np.random.default_rng(2)
    for _ in range(1000):
        n = int(rng.integers(1, 6))
        params = RuleParams(
            weights=tuple(rng.uniform(0.0, 1.5, n)), bias=float(rng.uniform(-0.5, 0.5))
        )
        xs = rng.random(n)
        i = int(rng.integers(0, n))
        ys = xs.copy()
        ys[i] = min(1.0, xs[i] + rng.uniform(0.0, 0.5))
        assert fuzzy_and(ys, params) >= fuzzy_and(xs, params)
        assert 0.0 <= fuzzy_and(xs, params) <= 1.0


def test_fuzzy_and_hand_values():
    p = RuleParams(weights=(0.39, 0.323, 0.247), bias=0.04)
    assert fuzzy_and([1.0, 1.0, 1.0], p) == pytest.approx(1.0, abs=1e-12)
    assert fuzzy_and([0.0, 0.0, 0.0], p) == pytest.approx(0.04, abs=1e-15)
    assert fuzzy_and([5.0, 5.0, 5.0], p) == pytest.approx(1.0)  # clamped inputs
    with pytest.raises(DataError, match="arity mismatch"):
        fuzzy_and([0.5, 0.5], p)


def test_rule_params_validation_and_vector():
    with pytest.raises(DataError, match="at least one weight"):
        RuleParams(weights=(), bias=0.1)
    with pytest.raises(DataError, match="finite"):
        RuleParams(weights=(0.5, math.nan), bias=0.0)
    p = RuleParams(weights=(0.25, 0.5), bias=-0.125)
    assert RuleParams.from_vector(p.vector()) == p


# ---------------------------------------------------------------------------
# DSL parsing and printing
# ---------------------------------------------------------------------------

def test_parse_basic_rule():
    rules = parse_rules(RULES_TEXT)
    assert len(rules) == 3
    ast, params = rules[0]
    assert params is None
    assert ast.head == Atom("OilArea", ("A",))
    assert ast.body == (
        Atom("SuspectedArea", ("A",)),
        Atom("Ground", ("B",)),
        Atom("On", ("A", "B")),
    )
    assert ast.variables() == ("A", "B")
    assert rules[2][0].variables() == ("A", "B", "C")


def test_parse_inline_weights_and_negation():
    text = "Dry(A) <- !On(A,B) & Ground(B) : [0.7, -0.2, 0.1].\n"
    (ast, params), = parse_rules(text)
    assert ast.body[0] == Atom("On", ("A", "B"), negated=True)
    assert params == RuleParams(weights=(0.7, -0.2), bias=0.1)
    assert str(ast) == "Dry(A) <- !On(A,B) & Ground(B)"


def test_print_rules_round_trip():
    rules = parse_rules(RULES_TEXT)
    assert parse_rules(print_rules(rules)) == rules
    with_params = [
        (rules[0][0], RuleParams(weights=(0.645, 0.181, 0.162), bias=0.012)),
        (rules[1][0], RuleParams(weights=(0.39, -0.323, 0.247), bias=0.04)),
    ]
    assert parse_rules(print_rules(with_params)) == with_params


@pytest.mark.parametrize(
    "text, message",
    [
        (
            "OilArea(A) <- Wetness(A).",
            r"line 1, column 15: unknown predicate 'Wetness' \(known: Around, "
            r"Ground, OilStorageDevice, On, SuspectedArea\)",
        ),
        (
            "# comment\nOilArea(A) <- On(A).",
            r"line 2, column 15: predicate On takes 2 argument\(s\), got 1",
        ),
        ("!OilArea(A) <- Ground(A).", r"line 1, column 1: rule head cannot be negated"),
        (
            "OilArea(a) <- Ground(a).",
            r"line 1, column 9: variable must be an uppercase identifier, got 'a'",
        ),
        ("OilArea(A) <- Ground(B).", r"head variable A does not appear in the body"),
        (
            "OilArea(A) <- Ground(A) : [0.5, 0.5, 0.1].",
            r"weight vector has 3 entries, rule needs 2",
        ),
        ("OilArea(A) <- Ground(A)", r"expected '.', got 'end of input'"),
        ("OilArea(A) <- Ground(A) @ .", r"line 1, column 25: unexpected character '@'"),
        ("OilArea(A) <- Ground(A) : [0.5].", r"at least one weight and a bias"),
    ],
)
def test_parse_errors_report_position(text, message):
    with pytest.raises(DataError, match=message):
        parse_rules(text)


def test_rule_dsl_fuzz_raises_only_located_errors(text_mutator):
    """Corrupted rule texts parse to rules that print and parse back
    unchanged, or raise DataError or ConfigError."""
    rules = parse_rules(RULES_TEXT)
    weighted = [
        (ast, RuleParams(weights=tuple(0.25 * (k + 1) for k in range(len(ast.body))), bias=-0.5))
        for ast, _ in rules
    ]
    texts = [RULES_TEXT, print_rules(weighted)]
    rng = np.random.default_rng(15)
    outcomes = {"parsed": 0, "rejected": 0}
    for trial in range(1200):
        text = text_mutator(rng, texts[trial % 2])
        try:
            parsed = parse_rules(text)
        except (DataError, ConfigError):
            outcomes["rejected"] += 1
            continue
        assert parse_rules(print_rules(parsed)) == parsed
        outcomes["parsed"] += 1
    assert min(outcomes.values()) > 50, outcomes  # both outcomes are exercised


def test_rule_ast_validation():
    with pytest.raises(DataError, match="positive unary"):
        RuleAST(Atom("OilArea", ("A", "B")), (Atom("Ground", ("A",)),))
    with pytest.raises(DataError, match=f"1..{MAX_BODY_ATOMS}"):
        RuleAST(Atom("OilArea", ("A",)), ())
    with pytest.raises(DataError, match=f"1..{MAX_BODY_ATOMS}"):
        RuleAST(
            Atom("OilArea", ("A",)),
            tuple(Atom("Ground", ("A",)) for _ in range(MAX_BODY_ATOMS + 1)),
        )


# ---------------------------------------------------------------------------
# Atom probabilities and grounding
# ---------------------------------------------------------------------------

def test_ground_rule_atom_columns():
    blob = box_object(1, ClassLabel.SUSPECTED_AREA, 10, 10, 20, 20, confidence=0.8)
    ground = box_object(2, ClassLabel.GROUND, 0, 80, 100, 100, confidence=0.9)
    scene = make_scene([blob, ground])
    probs = lambda s, r: np.array([0.7, 0.2, 0.1])
    (ast, _), = parse_rules(
        "Leak(A) <- SuspectedArea(A) & Ground(B) & !Ground(B) & !Ground(A) "
        "& On(A,B) & Around(A,B) & !On(A,B) & !Around(A,B)."
    )
    x, ids = ground_rule(ast, scene, probs)
    assert ids.tolist() == [[1, 2]]
    assert x[0, 0] == 0.8 and x[0, 1] == 0.9  # confidences pass through
    assert x[0, 2] == pytest.approx(0.1)  # negated class premise
    assert x[0, 3] == 1.0  # a wrong class under negation is crisply true
    assert x[0, 4] == 0.7 and x[0, 5] == 0.2  # On reads above, Around nearby
    assert x[0, 6] == pytest.approx(0.3) and x[0, 7] == pytest.approx(0.8)


def test_ground_rule_pools_and_shape():
    objs = [
        box_object(1, ClassLabel.SUSPECTED_AREA, 10, 10, 20, 20),
        box_object(2, ClassLabel.SUSPECTED_AREA, 30, 10, 40, 20),
        box_object(3, ClassLabel.GROUND, 0, 80, 100, 100),
        box_object(4, ClassLabel.OIL_STORAGE_DEVICE, 70, 50, 90, 80),
    ]
    scene = make_scene(objs)
    (ast, _), = parse_rules("OilArea(A) <- SuspectedArea(A) & Ground(B) & On(A,B).")
    x, ids = ground_rule(ast, scene, hash_probs)
    assert x.shape == (2, 3)  # two blob choices for A, one ground for B
    assert ids.tolist() == [[1, 3], [2, 3]]
    assert ids.dtype == np.int64
    # Negated unary atoms do not restrict the pool.
    (ast2, _), = parse_rules("OilArea(A) <- !Ground(A) & On(A,B).")
    x2, ids2 = ground_rule(ast2, scene, hash_probs)
    assert x2.shape == (16, 2) and ids2.shape == (16, 2)
    # Impossible class pairs leave an empty pool and no bindings.
    (ast3, _), = parse_rules("OilArea(A) <- SuspectedArea(A) & Ground(A) & On(A,B).")
    x3, ids3 = ground_rule(ast3, scene, hash_probs)
    assert x3.shape == (0, 3) and ids3.shape == (0, 2)


def test_evaluate_rule_absent_class_scores_zero():
    scene = make_scene([box_object(1, ClassLabel.GROUND, 0, 80, 100, 100)])
    (ast, _), = parse_rules("OilArea(A) <- SuspectedArea(A) & Ground(B) & On(A,B).")
    params = RuleParams(weights=(0.645, 0.181, 0.162), bias=0.012)
    assert evaluate_rule(ast, params, scene, hash_probs) == (0.0, None)
    empty = make_scene([])
    assert evaluate_rule(ast, params, empty, hash_probs) == (0.0, None)


# Independent class map for the brute-force oracle below.
_CLASS_OF = {
    "SuspectedArea": ClassLabel.SUSPECTED_AREA,
    "Ground": ClassLabel.GROUND,
    "OilStorageDevice": ClassLabel.OIL_STORAGE_DEVICE,
}


def _slow_atom(atom, lookup, pair_probs):
    if atom.predicate in _CLASS_OF:
        obj = lookup[atom.args[0]]
        p = obj.confidence if obj.label is _CLASS_OF[atom.predicate] else 0.0
    else:
        idx = 0 if atom.predicate == "On" else 1
        p = float(pair_probs(lookup[atom.args[0]], lookup[atom.args[1]])[idx])
        p = min(max(p, 0.0), 1.0)
    return 1.0 - p if atom.negated else p


def _slow_best_score(rule, params, scene, pair_probs):
    """Exhaustive scoring over every variable assignment, no pool pruning."""
    names = rule.variables()
    best = None
    for combo in itertools.product(scene.objects, repeat=len(names)):
        lookup = dict(zip(names, combo))
        if any(
            not a.negated
            and a.predicate in _CLASS_OF
            and lookup[a.args[0]].label is not _CLASS_OF[a.predicate]
            for a in rule.body
        ):
            continue
        z = 0.0
        for w, a in zip(params.weights, rule.body):
            z += w * _slow_atom(a, lookup, pair_probs)
        score = min(max(z + params.bias, 0.0), 1.0)
        if best is None or score > best:
            best = score
    return 0.0 if best is None else best


def random_scene(rng, max_objects=4):
    labels = [
        ClassLabel.SUSPECTED_AREA,
        ClassLabel.GROUND,
        ClassLabel.OIL_STORAGE_DEVICE,
        ClassLabel.OTHER,
    ]
    objs = []
    for i in range(int(rng.integers(0, max_objects + 1))):
        x1, y1 = rng.uniform(0, 70, 2)
        objs.append(
            box_object(
                i + 1,
                labels[int(rng.integers(0, 4))],
                x1,
                y1,
                x1 + rng.uniform(2, 25),
                y1 + rng.uniform(2, 25),
                confidence=float(rng.uniform(0.5, 1.0)),
            )
        )
    return make_scene(objs)


def _product_grounding(rule, scene, pair_probs):
    """Reference grounding: itertools.product over the class pools, one binding at a time."""
    names = rule.variables()
    pools = [
        [
            o for o in scene.objects
            if all(o.label is _CLASS_OF[a.predicate]
                   for a in rule.body if a.args == (v,) and not a.negated)
        ]
        for v in names
    ]
    rows, ids = [], []
    for combo in itertools.product(*pools):
        lookup = dict(zip(names, combo))
        rows.append([_slow_atom(a, lookup, pair_probs) for a in rule.body])
        ids.append([o.id for o in combo])
    return (
        np.array(rows, dtype=np.float64).reshape(len(rows), len(rule.body)),
        np.array(ids, dtype=np.int64).reshape(len(ids), len(names)),
    )


def tie_probs(subject, reference):
    """Relation probabilities from {0, 0.5, 1}, so many bindings tie."""
    rng = np.random.default_rng((subject.id, reference.id, 7))
    return rng.choice([0.0, 0.5, 1.0], size=3)


GROUNDING_RULES = [
    "OilArea(A) <- SuspectedArea(A) & Ground(B) & On(A,B).",
    "OilArea(A) <- SuspectedArea(A) & Ground(B) & On(A,B) & OilStorageDevice(C) & Around(A,C).",
    "Near(A) <- Around(A,B) & !Ground(A).",
    "Self(A) <- On(A,A) & !Around(A,A).",
    "Dry(A) <- SuspectedArea(A) & !On(A,B) & Ground(B) & !Around(B,A).",
    "Pair(A) <- SuspectedArea(A) & SuspectedArea(B) & On(A,B) & On(B,A).",
    "Never(A) <- SuspectedArea(A) & Ground(A) & On(A,B).",
]


def test_ground_rule_matches_product_reference_and_first_max():
    rules = [ast for ast, _ in parse_rules("\n".join(GROUNDING_RULES))]
    rng = np.random.default_rng(12)
    tied = 0
    for trial in range(60):
        scene = random_scene(rng, max_objects=5)
        scene = make_scene(
            [replace(o, confidence=float(rng.choice([0.5, 1.0]))) for o in scene.objects]
        )
        for rule in rules:
            x, ids = ground_rule(rule, scene, tie_probs)
            x_ref, ids_ref = _product_grounding(rule, scene, tie_probs)
            assert np.array_equal(x, x_ref) and np.array_equal(ids, ids_ref)
            assert x.dtype == np.float64 and x.flags.c_contiguous
            # Dyadic weights keep every score exact, so ties are real ties.
            params = RuleParams(
                weights=tuple(rng.choice([-0.25, 0.25, 0.5], len(rule.body))),
                bias=float(rng.choice([0.0, 0.25])),
            )
            got, ctx = evaluate_rule(rule, params, scene, tie_probs)
            if len(ids_ref) == 0:
                assert (got, ctx) == (0.0, None)
                continue
            scores = [
                min(max(params.bias + sum(w * v for w, v in zip(params.weights, row)), 0.0), 1.0)
                for row in x_ref.tolist()
            ]
            first = scores.index(max(scores))
            tied += scores.count(max(scores)) > 1
            assert got == scores[first]
            assert ctx == dict(zip(rule.variables(), ids_ref[first].tolist()))
            assert all(type(i) is int for i in ctx.values())  # JSON-serializable
    assert tied > 50


def test_evaluate_rule_matches_exhaustive_brute_force():
    texts = [
        "OilArea(A) <- SuspectedArea(A) & Ground(B) & On(A,B).",
        "OilArea(A) <- SuspectedArea(A) & OilStorageDevice(B) & Around(A,B).",
        "OilArea(A) <- SuspectedArea(A) & Ground(B) & On(A,B) & OilStorageDevice(C) & Around(A,C).",
        "Near(A) <- Around(A,B) & !Ground(A).",
        "Self(A) <- On(A,A).",
        "Dry(A) <- SuspectedArea(A) & !On(A,B) & Ground(B).",
    ]
    rules = [ast for ast, _ in parse_rules("\n".join(texts))]
    rng = np.random.default_rng(10)
    for trial in range(40):
        scene = random_scene(rng)
        for rule in rules:
            n = len(rule.body)
            params = RuleParams(
                weights=tuple(rng.uniform(-0.3, 0.8, n)), bias=float(rng.uniform(-0.2, 0.3))
            )
            got, ctx = evaluate_rule(rule, params, scene, hash_probs)
            want = _slow_best_score(rule, params, scene, hash_probs)
            assert got == want
            if ctx is not None:
                # The reported binding really achieves the reported score.
                lookup = {v: scene.object_by_id(i) for v, i in ctx.items()}
                z = 0.0
                for w, a in zip(params.weights, rule.body):
                    z += w * _slow_atom(a, lookup, hash_probs)
                assert min(max(z + params.bias, 0.0), 1.0) == got
            else:
                assert got == 0.0


def _random_rule(rng, n_premises):
    """A rule over up to three variables, about a third of its premises negated."""
    names = sorted(logic.PREDICATES)
    body = []
    for _ in range(n_premises):
        pred = names[int(rng.integers(0, len(names)))]
        args = tuple(rng.choice(["A", "B", "C"], logic.PREDICATES[pred]).tolist())
        body.append(Atom(pred, args, negated=bool(rng.random() < 0.35)))
    return RuleAST(Atom("OilArea", (body[0].args[0],)), tuple(body))


def _bits(value):
    return np.float64(value).tobytes()


def test_rule_scores_match_fuzzy_and_bit_for_bit_in_any_corpus():
    """Every rule score is the max of fuzzy_and over ground_rule's rows, bit
    for bit, and a scene's ruleset score has the same bytes alone and inside
    a shuffled corpus."""
    rng = np.random.default_rng(91)
    arities = set()
    diff_from_gemv = 0
    for _ in range(12):
        rules = [_random_rule(rng, int(rng.integers(1, 7))) for _ in range(5)]
        params = [
            RuleParams(
                weights=tuple(rng.uniform(-0.5, 1.0, len(r.body)).tolist()),
                bias=float(rng.uniform(-0.3, 0.5)),
            )
            for r in rules
        ]
        scenes = [random_scene(rng, max_objects=6) for _ in range(25)]
        for scene in scenes:
            got = evaluate_rules(rules, params, scene, hash_probs)
            for rule, p, (score, _ctx) in zip(rules, params, got):
                x, _ids = ground_rule(rule, scene, hash_probs)
                want = max((fuzzy_and(row, p) for row in x.tolist()), default=0.0)
                assert _bits(score) == _bits(want)
                arities.add(len(rule.body))
                if len(x):  # the data must tell this sum from a BLAS product
                    gemv = np.clip(x @ p.vector()[:-1] + p.bias, 0.0, 1.0)
                    diff_from_gemv += _bits(gemv.max()) != _bits(want)
        alone = [ruleset_scores(rules, params, [s], hash_factory)[0] for s in scenes]
        perm = rng.permutation(len(scenes))
        corpus = ruleset_scores(rules, params, [scenes[i] for i in perm], hash_factory)
        assert [_bits(v) for v in corpus] == [_bits(alone[i]) for i in perm]
    assert arities == {1, 2, 3, 4, 5, 6}
    assert diff_from_gemv > 10


def test_ruleset_is_max_and_monotone():
    rules = [ast for ast, _ in parse_rules(RULES_TEXT)]
    rng = np.random.default_rng(11)
    params = [
        RuleParams(weights=tuple(rng.uniform(0, 0.5, len(r.body))), bias=0.05)
        for r in rules
    ]
    for _ in range(20):
        scene = random_scene(rng)
        per_rule = evaluate_rules(rules, params, scene, hash_probs)
        # Each rule is scored on its own: dropping or reordering rules leaves
        # the other scores, and so their max, unchanged.
        assert evaluate_rules(rules[:2], params[:2], scene, hash_probs) == per_rule[:2]
        assert evaluate_rules(rules[::-1], params[::-1], scene, hash_probs) == per_rule[::-1]
    with pytest.raises(DataError, match="one RuleParams per rule"):
        evaluate_rules(rules, params[:1], random_scene(rng), hash_probs)


def test_evaluate_rule_params_arity_check():
    (ast, _), = parse_rules("OilArea(A) <- SuspectedArea(A) & Ground(B) & On(A,B).")
    scene = make_scene(
        [
            box_object(1, ClassLabel.SUSPECTED_AREA, 10, 10, 20, 20),
            box_object(2, ClassLabel.GROUND, 0, 80, 100, 100),
        ]
    )
    with pytest.raises(DataError, match="3 premises"):
        evaluate_rule(ast, RuleParams(weights=(0.5,), bias=0.1), scene, hash_probs)


# ---------------------------------------------------------------------------
# Weight learning
# ---------------------------------------------------------------------------

def test_ruleset_gradients_match_finite_differences():
    rules = [ast for ast, _ in parse_rules(RULES_TEXT)]
    scenes = gen_scenes(GenConfig(seed=30), 12)
    params = init_rule_params(rules, seed=1)
    loss0, grads = ruleset_loss_and_grad(rules, params, scenes, hash_factory)
    assert math.isfinite(loss0)
    h = 1e-6
    worst = 0.0
    for r, p in enumerate(params):
        vec = p.vector()
        for j in range(vec.size):
            shifted = [q for q in params]
            up = vec.copy()
            up[j] += h
            shifted[r] = RuleParams.from_vector(up)
            lp, _ = ruleset_loss_and_grad(rules, shifted, scenes, hash_factory)
            dn = vec.copy()
            dn[j] -= h
            shifted[r] = RuleParams.from_vector(dn)
            lm, _ = ruleset_loss_and_grad(rules, shifted, scenes, hash_factory)
            fd = (lp - lm) / (2 * h)
            denom = max(abs(fd), abs(grads[r][j]), 1e-8)
            worst = max(worst, abs(fd - grads[r][j]) / denom)
    assert worst < 1e-5


def _per_scene_loss_and_grad(vecs, groundings, labels, seen=None):
    """Reference rule-fit step, one scene and one rule at a time.

    groundings[i][r] is ground_rule's matrix for rule r in scene i.  When
    given, seen counts the cases the step must get right.
    """
    n_scenes = len(labels)
    grads = [np.zeros_like(v) for v in vecs]
    loss = 0.0
    correct = 0
    for scene_i, label in enumerate(labels):
        scores = np.zeros(len(vecs))
        winners: list[int | None] = []
        zs: list[float] = []
        for r, x in enumerate(groundings[scene_i]):
            if x.shape[0] == 0:
                winners.append(None)
                zs.append(0.0)
                continue
            z = np.zeros(len(x))
            for j in range(x.shape[1]):
                z += vecs[r][j] * x[:, j]
            z += vecs[r][-1]
            y = np.clip(z, 0.0, 1.0)
            i = int(np.argmax(y))
            scores[r] = float(y[i])
            winners.append(i)
            zs.append(float(z[i]))
            if seen is not None:
                seen["tied bindings"] += len(np.unique(x[y == y[i]], axis=0)) > 1
                seen["z < 0"] += zs[-1] < 0.0
        best = int(np.argmax(scores))
        p = float(scores[best])
        p_hat = min(max(p, 1e-7), 1.0 - 1e-7)
        y_true = 1.0 if label else 0.0
        loss += -(y_true * math.log(p_hat) + (1.0 - y_true) * math.log(1.0 - p_hat))
        correct += int((p >= 0.5) == bool(label))
        if seen is not None:
            seen["no binding"] += all(w is None for w in winners)
            seen["p at clip"] += p in (1e-7, 1.0 - 1e-7)
            seen["z > 1"] += winners[best] is not None and zs[best] > 1.0
        if 1e-7 <= p <= 1.0 - 1e-7 and winners[best] is not None:
            g = (-y_true / p + (1.0 - y_true) / (1.0 - p)) / n_scenes
            if 0.0 <= zs[best] <= 1.0:
                x_best = groundings[scene_i][best][winners[best]]
                grads[best][:-1] += g * x_best
                grads[best][-1] += g
    return loss / n_scenes, grads, correct / n_scenes


def _fit_cases(rng):
    """(rules, scenes, factory, param vectors) covering the step's edge cases."""
    rules = [ast for ast, _ in parse_rules("\n".join(GROUNDING_RULES) + RULES_TEXT)]
    # A duplicate rule ties with its original in every scene.
    rules.append(rules[0])
    factories = {"tie": lambda s: tie_probs, "hash": hash_factory}
    for trial in range(36):
        n_scenes = (1, 7, 60)[trial % 3]
        scenes = []
        for _ in range(n_scenes):
            scene = random_scene(rng, max_objects=int(rng.integers(0, 7)))
            objs = [
                replace(o, confidence=float(rng.choice([0.25, 0.5, 0.75, 1.0])))
                for o in scene.objects
            ]
            scenes.append(make_scene(objs, leak=bool(rng.integers(0, 2))))
        kind = ("dyadic", "wide", "clip low", "clip high")[trial % 4]
        vecs = []
        for rule in rules:
            n = len(rule.body) + 1
            if kind == "dyadic":  # exact scores, so equal scores are real ties
                v = rng.integers(-4, 9, n) / 8.0
            elif kind == "wide":  # scores far below 0 and above 1
                v = rng.normal(0.0, 2.0, n)
            else:  # every binding scores exactly at the cross-entropy clip
                v = np.zeros(n)
                v[-1] = 1e-7 if kind == "clip low" else 1.0 - 1e-7
            vecs.append(v)
        yield rules, scenes, factories[("tie", "hash")[trial % 2]], vecs


def test_rule_fit_step_matches_per_scene_reference():
    """The whole-corpus fit step equals the per-scene loop bit for bit:
    loss, gradients and accuracy at every step, and trained parameters and
    history after many steps."""
    rng = np.random.default_rng(44)
    seen = {k: 0 for k in ("tied bindings", "no binding", "p at clip", "z < 0", "z > 1")}
    trained = 0
    for rules, scenes, factory, vecs in _fit_cases(rng):
        labels = [s.leak_label for s in scenes]
        groundings = [[ground_rule(r, s, factory(s))[0] for r in rules] for s in scenes]
        stacked = logic._ground_corpus(rules, scenes, factory)
        want = _per_scene_loss_and_grad(vecs, groundings, labels, seen)
        got = logic._fit_step(stacked, vecs, labels)
        assert got[0] == want[0] and got[2] == want[2]
        assert [g.tobytes() for g in got[1]] == [g.tobytes() for g in want[1]]
        if len(set(labels)) < 2:
            continue
        init = [RuleParams.from_vector(v) for v in vecs]
        cfg = RuleTrainConfig(lr=0.5, steps=40)
        params, history = train_rule_params(rules, scenes, factory, cfg, init=init)
        ref_vecs = [v.copy() for v in vecs]
        ref_history = []
        for step in range(cfg.steps):
            loss, grads, acc = _per_scene_loss_and_grad(ref_vecs, groundings, labels)
            for v, g in zip(ref_vecs, grads):
                v -= cfg.lr * g
            ref_history.append(RuleTrainStats(step=step, loss=loss, train_acc=acc))
        assert history == ref_history
        assert params == [RuleParams.from_vector(v) for v in ref_vecs]
        trained += 1
    assert trained >= 20
    assert min(seen.values()) > 10, seen  # every edge case is exercised


def test_training_converges_on_separable_corpus():
    rules = [ast for ast, _ in parse_rules(RULES_TEXT)]
    scenes = gen_scenes(GenConfig(seed=40), 60)
    labels = [s.leak_label for s in scenes]
    assert True in labels and False in labels  # corpus covers both outcomes
    cfg = RuleTrainConfig(lr=0.1, steps=400, seed=0)
    trained, history = train_rule_params(rules, scenes, oracle_factory, cfg)
    assert len(history) == 400
    assert history[-1].loss < 0.1
    assert history[-1].loss < history[0].loss
    assert history[-1].train_acc >= 0.95
    assert len(trained) == 3


def test_training_zero_lr_returns_init():
    rules = [ast for ast, _ in parse_rules(RULES_TEXT)]
    scenes = gen_scenes(GenConfig(seed=41), 20)
    init = init_rule_params(rules, seed=5)
    cfg = RuleTrainConfig(lr=0.0, steps=10, seed=0)
    trained, history = train_rule_params(rules, scenes, oracle_factory, cfg, init=init)
    assert trained == init
    assert len({h.loss for h in history}) == 1  # loss is frozen too


def test_training_is_deterministic():
    rules = [ast for ast, _ in parse_rules(RULES_TEXT)]
    scenes = gen_scenes(GenConfig(seed=42), 30)
    cfg = RuleTrainConfig(lr=0.1, steps=50, seed=7)
    a_params, a_hist = train_rule_params(rules, scenes, oracle_factory, cfg)
    b_params, b_hist = train_rule_params(rules, scenes, oracle_factory, cfg)
    assert a_params == b_params
    assert a_hist == b_hist


def test_training_input_checks():
    rules = [ast for ast, _ in parse_rules(RULES_TEXT)]
    cfg = RuleTrainConfig(steps=1)
    leaky = gen_scenes(GenConfig(seed=7, tanks=(0, 0), mix=(1.0, 0.0, 0.0)), 6)
    with pytest.raises(DataError, match="both leak and non-leak"):
        train_rule_params(rules, leaky, oracle_factory, cfg)
    unlabeled = [
        Scene(image_width=64, image_height=64, objects=(), leak_label=None)
    ]
    with pytest.raises(DataError, match="no leak label"):
        train_rule_params(rules, unlabeled, oracle_factory, cfg)
    params = init_rule_params(rules, 0)
    for train_on_nothing in (
        lambda: train_rule_params(rules, [], oracle_factory, cfg),
        lambda: ruleset_loss_and_grad(rules, params, [], oracle_factory),
    ):
        with pytest.raises(DataError, match="empty scene list"):
            train_on_nothing()
    floats = gen_scenes(GenConfig(seed=8, tanks=(0, 0), mix=(0.0, 0.0, 1.0)), 6)
    mixed = leaky + floats  # guaranteed to contain both outcomes
    with pytest.raises(DataError, match="at least one rule"):
        train_rule_params([], mixed, oracle_factory, cfg)
    with pytest.raises(DataError, match="one initial RuleParams"):
        train_rule_params(rules, mixed, oracle_factory, cfg, init=init_rule_params(rules[:1], 0))
    with pytest.raises(ConfigError):
        RuleTrainConfig(lr=-1.0)


# ---------------------------------------------------------------------------
# Parameter files
# ---------------------------------------------------------------------------

def test_rule_params_file_round_trip(tmp_path):
    params = [
        RuleParams(weights=(0.645, 0.181, 0.162), bias=0.012),
        RuleParams(weights=(0.1, -0.25), bias=1.0 / 3.0),
    ]
    path = str(tmp_path / "params.json")
    save_rule_params(params, path)
    assert load_rule_params(path) == params


def test_rule_params_file_fuzz_raises_only_located_errors(tmp_path, text_mutator):
    """Corrupted rule parameter files load to parameters that save and load
    back unchanged, or raise DataError or ConfigError."""
    path = tmp_path / "params.json"
    save_rule_params(init_rule_params([ast for ast, _ in parse_rules(RULES_TEXT)], 3), str(path))
    text = path.read_text(encoding="utf-8")
    again = str(tmp_path / "again.json")
    rng = np.random.default_rng(17)
    outcomes = {"loaded": 0, "rejected": 0}
    for _ in range(1200):
        path.write_text(text_mutator(rng, text), encoding="utf-8")
        try:
            params = load_rule_params(str(path))
        except (DataError, ConfigError):
            outcomes["rejected"] += 1
            continue
        save_rule_params(params, again)
        assert load_rule_params(again) == params
        outcomes["loaded"] += 1
    assert min(outcomes.values()) > 50, outcomes  # both outcomes are exercised


def test_rule_params_file_errors(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{oops")
    with pytest.raises(DataError, match="corrupt"):
        load_rule_params(str(p))
    p.write_text(json.dumps({"0": {"weights": [0.5], "bias": 0.1}, "2": {}}))
    with pytest.raises(DataError, match="missing index 1"):
        load_rule_params(str(p))
    p.write_text(json.dumps({"0": {"weights": [0.5]}}))
    with pytest.raises(DataError, match="rule 0: bad parameter entry"):
        load_rule_params(str(p))
    p.write_text(json.dumps([1, 2]))
    with pytest.raises(DataError, match="JSON object"):
        load_rule_params(str(p))
    good = {"weights": [0.5, 0.25], "bias": 0.1}
    for entry, message in (
        ({"weights": "12", "bias": 0.1}, "weights must be a list of numbers"),
        ({"weights": [True, 0.5], "bias": 0.1}, "weights must be a list of numbers"),
        ({"weights": ["0.5"], "bias": 0.1}, "weights must be a list of numbers"),
        ({"weights": [0.5], "bias": "0.1"}, "bias must be a number"),
        ({"weights": [0.5], "bias": False}, "bias must be a number"),
        ({"weights": [0.5], "bias": None}, "bias must be a number"),
        ({"weights": [], "bias": 0.1}, "RuleParams needs at least one weight"),
        ([0.5, 0.1], "expected an object with weights and bias"),
    ):
        p.write_text(json.dumps({"0": good, "1": entry}))
        with pytest.raises(DataError, match=re.escape(f"{p}: rule 1: bad parameter entry: {message}")):
            load_rule_params(str(p))
    for text in ("NaN", "1e999", "-Infinity", "1" + "0" * 400):
        p.write_text('{"0": {"weights": [0.5, %s], "bias": 0.1}}' % text)
        with pytest.raises(DataError, match="rule 0: bad parameter entry"):
            load_rule_params(str(p))
    p.write_text('{"0": {"weights": [1%s], "bias": 0.1}}' % ("0" * 5000))
    with pytest.raises(DataError, match="corrupt"):
        load_rule_params(str(p))
