import random

import pytest

from mdpcompose.errors import EvaluationError, MissingFeatureError, RuleSyntaxError
from mdpcompose.rules import parse_equation, parse_rule

BLOOD_PRESSURE = "SystolicBloodPressure >= 140 ⊓ DiastolicBloodPressure >= 80"


def test_simple_equality():
    rule = parse_rule("IsWalk_living_room_1 == 1")
    assert rule.evaluate({"IsWalk_living_room_1": 1})
    assert not rule.evaluate({"IsWalk_living_room_1": 0})


def test_threshold_conjunction_with_square_cap():
    rule = parse_rule(BLOOD_PRESSURE)
    assert rule.evaluate({"SystolicBloodPressure": 150, "DiastolicBloodPressure": 85})
    assert not rule.evaluate({"SystolicBloodPressure": 120, "DiastolicBloodPressure": 85})


def test_and_binds_tighter_than_or():
    rule = parse_rule("A == 1 AND B == 1 OR C == 1")
    assert rule.evaluate({"A": 0, "B": 0, "C": 1})
    assert rule.evaluate({"A": 1, "B": 1, "C": 0})
    assert not rule.evaluate({"A": 1, "B": 0, "C": 0})


def test_all_comparison_operators():
    values = {"X": 5}
    for op, expected in [("==", False), ("!=", True), ("<", True), ("<=", True), (">", False), (">=", False)]:
        assert parse_rule(f"X {op} 7").evaluate(values) is expected


def test_string_constants():
    rule = parse_rule('Room == "kitchen"')
    assert rule.evaluate({"Room": "kitchen"})
    assert not rule.evaluate({"Room": "garage"})
    assert not rule.evaluate({"Room": 3})


def test_dangling_operator_is_syntax_error():
    with pytest.raises(RuleSyntaxError):
        parse_rule("A == 1 AND")


def test_empty_expression():
    with pytest.raises(RuleSyntaxError):
        parse_rule("   ")


def test_error_carries_position():
    with pytest.raises(RuleSyntaxError) as err:
        parse_rule("A == == 1")
    assert err.value.position == 5


def test_missing_feature_raises():
    rule = parse_rule("A == 1")
    with pytest.raises(MissingFeatureError):
        rule.evaluate({})


def test_ordered_comparison_against_string_feature_fails():
    with pytest.raises(EvaluationError):
        parse_rule("A < 3").evaluate({"A": "word"})


def test_pinned_values():
    assert parse_rule("A == 1 AND B == 0").pinned_values() == {"A": 1.0, "B": 0.0}
    assert parse_rule("A == 1 OR B == 0").pinned_values() == {}
    assert parse_rule("A >= 1").pinned_values() == {}


def test_feature_names():
    assert parse_rule(BLOOD_PRESSURE).feature_names() == {
        "SystolicBloodPressure",
        "DiastolicBloodPressure",
    }


# --- equations ---------------------------------------------------------


def test_equation_basics():
    assert parse_equation("a * x").evaluate({"a": 2, "x": 3}) == 6
    assert parse_equation("x + 0").evaluate({"x": 11.5}) == 11.5
    assert parse_equation("-(x + 1) / 2").evaluate({"x": 3}) == -2
    assert parse_equation("2 * (3 + 4)").evaluate({}) == 14


def test_equation_unbound_symbol():
    with pytest.raises(EvaluationError) as err:
        parse_equation("a * x").evaluate({"a": 2})
    assert "x" in str(err.value)


def test_equation_division_by_zero():
    with pytest.raises(EvaluationError):
        parse_equation("1 / x").evaluate({"x": 0})


def test_equation_syntax_errors():
    for bad in ["", "1 +", "(1", "a b", "* 3"]:
        with pytest.raises(RuleSyntaxError):
            parse_equation(bad)


def _random_tree(rng, depth):
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.5:
            return ("num", round(rng.uniform(-9, 9), 3))
        return ("sym", rng.choice("abc"))
    op = rng.choice(["+", "-", "*", "/"])
    return (op, _random_tree(rng, depth - 1), _random_tree(rng, depth - 1))


def _render(node):
    if node[0] == "num":
        value = node[1]
        return f"({value})" if value < 0 else str(value)
    if node[0] == "sym":
        return node[1]
    return f"({_render(node[1])} {node[0]} {_render(node[2])})"


def _eval_tree(node, env):
    # independent recursive evaluator over the tree, never the parser
    if node[0] == "num":
        return node[1]
    if node[0] == "sym":
        return env[node[1]]
    left, right = _eval_tree(node[1], env), _eval_tree(node[2], env)
    if left is None or right is None:
        return None
    if node[0] == "+":
        return left + right
    if node[0] == "-":
        return left - right
    if node[0] == "*":
        return left * right
    return left / right if right != 0 else None


def test_random_expressions_match_independent_evaluator():
    rng = random.Random(99)
    env = {"a": 1.5, "b": -2.25, "c": 4.0}
    checked = 0
    while checked < 60:
        tree = _random_tree(rng, 4)
        expected = _eval_tree(tree, env)
        if expected is None:  # division by zero in the oracle; skip
            continue
        got = parse_equation(_render(tree)).evaluate(env)
        assert got == pytest.approx(expected, abs=1e-12)
        checked += 1


# --- property tests ------------------------------------------------------

from hypothesis import given, settings
from hypothesis import strategies as st

_comparison = st.tuples(
    st.sampled_from(["Alpha", "Beta", "Gamma"]),
    st.sampled_from(["==", "!=", "<", "<=", ">", ">="]),
    st.integers(min_value=-3, max_value=3),
)
_env = st.fixed_dictionaries(
    {"Alpha": st.integers(-3, 3), "Beta": st.integers(-3, 3), "Gamma": st.integers(-3, 3)}
)

_PY_OPS = {
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}


@settings(max_examples=60, deadline=None)
@given(st.lists(_comparison, min_size=1, max_size=5), _env)
def test_conjunction_matches_naive_all(comparisons, env):
    text = " AND ".join(f"{f} {op} {v}" for f, op, v in comparisons)
    expected = all(_PY_OPS[op](env[f], v) for f, op, v in comparisons)
    assert parse_rule(text).evaluate(env) is expected


@settings(max_examples=60, deadline=None)
@given(st.lists(_comparison, min_size=1, max_size=5), _env)
def test_disjunction_matches_naive_any(comparisons, env):
    text = " OR ".join(f"{f} {op} {v}" for f, op, v in comparisons)
    expected = any(_PY_OPS[op](env[f], v) for f, op, v in comparisons)
    assert parse_rule(text).evaluate(env) is expected


# --- the equality pairs against the comparisons they stand for ---------

_FEATURES = ["A", "B", "C"]
_CONSTANTS = ["0", "1", "2", "0.5", "-1", "1e3", '"on"', '"1"']
_any_clause = st.lists(
    st.tuples(
        st.sampled_from(_FEATURES),
        st.sampled_from(["==", "==", "!=", "<", ">="]),
        st.sampled_from(_CONSTANTS),
    ),
    min_size=1,
    max_size=3,
)
# one clause of numeric equalities, with repeated features now and then
_equality_clause = st.lists(
    st.tuples(st.sampled_from(_FEATURES), st.just("=="), st.sampled_from(_CONSTANTS[:6])),
    min_size=1,
    max_size=4,
)
_rule_shapes = st.one_of(
    st.lists(_any_clause, min_size=1, max_size=3), _equality_clause.map(lambda c: [c])
)
_feature_maps = st.dictionaries(
    st.sampled_from(_FEATURES),
    st.sampled_from([0, 1, 2, -1, 1000, 0.5, 1.0, True, False, "on", "1", float("nan"), None]),
)


def _general_evaluate(rule, features):
    """``RuleExpr.evaluate`` without the equality pairs."""
    return any(all(cmp.evaluate(features) for cmp in clause) for clause in rule.clauses)


def _reference_pinned(rule):
    """The pinned values as each call once rebuilt them."""
    if len(rule.clauses) != 1:
        return {}
    pinned = {}
    for cmp in rule.clauses[0]:
        if cmp.op != "==" or cmp.feature in pinned:
            return {}
        pinned[cmp.feature] = cmp.value
    return pinned


def _outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except Exception as exc:  # the exception type is part of the answer
        return "raised", type(exc)


@settings(max_examples=400, deadline=None)
@given(_rule_shapes, _feature_maps)
def test_equality_pairs_answer_as_the_comparisons_do(clauses, features):
    text = " OR ".join(" AND ".join(f"{f} {op} {v}" for f, op, v in clause) for clause in clauses)
    rule = parse_rule(text)
    numeric_equalities = len(clauses) == 1 and all(
        op == "==" and not v.startswith('"') for _f, op, v in clauses[0]
    )
    assert (rule.equalities is not None) is numeric_equalities
    assert _outcome(rule.evaluate, features) == _outcome(_general_evaluate, rule, features)
    assert rule.pinned_values() == _reference_pinned(rule)
    assert rule.pinned_values() is rule.pinned_values()  # built once, at parse time


def test_equality_pairs_stop_at_the_first_failing_pair():
    rule = parse_rule("a == 1 AND b == 2")
    assert rule.equalities == (("a", 1.0), ("b", 2.0))
    assert rule.evaluate({"a": 0}) is False  # b is never read
    with pytest.raises(MissingFeatureError):
        rule.evaluate({"a": True})
    assert rule.evaluate({"a": True, "b": 2}) is True
    assert rule.evaluate({"a": "1", "b": 2}) is False
