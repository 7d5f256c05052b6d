import dataclasses
import json
import os
import random
import subprocess
import sys
from enum import Enum
from pathlib import Path

import pytest

from conftest import WATCH_TV_49_TTL, make_random_graph
from mdpcompose.errors import GraphValidationError, SchemaError, UnknownEntityError
from mdpcompose.json_io import from_json, to_json
from mdpcompose.kg import (
    Activity,
    CommunicationType,
    Concept,
    PROPERTIES,
    KnowledgeGraph,
    Parameter,
    State,
    new_entity,
)
from mdpcompose.turtle_io import parse_turtle


@pytest.fixture(scope="module")
def watch_tv():
    return parse_turtle(WATCH_TV_49_TTL)


# The annotation of a field that holds a plain literal of each kind.
_PLAIN_KINDS = {"bool": "bool", "int": "int", "double": "float", "string": "str"}


def test_the_schema_covers_each_dataclass_field_with_a_known_kind():
    """Every spec names a field of its concept's dataclass, once, with a
    kind of an allowed form whose values the field's annotation holds, and
    every field but the name is covered."""
    assert list(PROPERTIES) == list(Concept)
    for concept, specs in PROPERTIES.items():
        fields = {f.name: f for f in dataclasses.fields(type(new_entity(concept, "x")))}
        covered = sorted(attr for attr, _kind, _multi, _required in specs.values())
        assert covered == sorted(set(fields) - {"name"}), concept
        for prop, (attr, kind, multi, required) in specs.items():
            if isinstance(kind, Concept):
                item = "str"  # a reference holds the target's name
            elif isinstance(kind, type) and issubclass(kind, Enum) and kind is not Concept:
                item = kind.__name__
            else:
                assert kind in _PLAIN_KINDS, (concept.value, prop, kind)
                item = _PLAIN_KINDS[kind]
            want = f"list[{item}]" if multi else f"{item} | None"
            assert fields[attr].type == want, (concept.value, prop)
            assert isinstance(required, bool), (concept.value, prop)


def test_get_unknown_entity(watch_tv):
    with pytest.raises(UnknownEntityError):
        watch_tv.get("Missing_Thing")


def test_count_is_the_length_of_each_concept_list(watch_tv):
    for concept in Concept:
        assert watch_tv.count(concept) == len(watch_tv.by_concept(concept))
    assert watch_tv.count(Concept.STATE) == 9
    assert KnowledgeGraph().count(Concept.STATE) == 0


def test_frozen_after_validation(watch_tv):
    with pytest.raises(RuntimeError):
        watch_tv.add(Parameter(name="p", parameter_name="p", value=1.0))


def test_duplicate_entity_name_rejected():
    g = KnowledgeGraph()
    g.add(Parameter(name="p", parameter_name="a", value=1.0))
    with pytest.raises(GraphValidationError):
        g.add(Parameter(name="p", parameter_name="b", value=2.0))


def test_activity_requires_exactly_one_initial():
    g = KnowledgeGraph()
    g.add(Parameter(name="dummy", parameter_name="d", value=0.0))
    activity = Activity(
        name="Act",
        is_sequential=True,
        number_of_actors=1,
        communication_type=CommunicationType.ASYNCHRONOUS,
        states=["S"],
        actions=["A"],
        observation_features=["F"],
    )
    g.add(activity)
    with pytest.raises(GraphValidationError) as err:
        g.validate()
    text = str(err.value)
    assert "dangling reference" in text
    assert "initial state" in text


def test_expression_feature_must_be_declared():
    g = KnowledgeGraph()
    g.add(
        State(
            name="S",
            is_initial_state=True,
            is_final_state=True,
            is_goal=True,
            reward=0.0,
            expression="Mystery == 1",
            observation_features=["Mystery"],
        )
    )
    with pytest.raises(GraphValidationError) as err:
        g.validate()
    assert "dangling reference" in str(err.value)


def test_validation_collects_multiple_problems():
    g = KnowledgeGraph()
    g.add(State(name="S1", expression="A =="))
    with pytest.raises(GraphValidationError) as err:
        g.validate()
    problems = err.value.problems
    assert any("missing mandatory property isGoal" in p for p in problems)
    assert any("missing mandatory property hasReward" in p for p in problems)
    assert any("does not parse" in p for p in problems)


def test_empty_state_expression_rejected_in_turtle():
    # an empty rule used to freeze and then fail recognition at request time
    text = WATCH_TV_49_TTL.replace(
        'property:hasExpression "IsSit_couch_1 == 1"^^xsd:string;',
        'property:hasExpression ""^^xsd:string;',
    )
    assert text != WATCH_TV_49_TTL
    with pytest.raises(GraphValidationError) as err:
        parse_turtle(text)
    assert any(
        "State 'Sit_couch_1_Done'" in p and "hasExpression" in p
        for p in err.value.problems
    )


def test_empty_state_expression_rejected_in_json(watch_tv):
    document = json.loads(to_json(watch_tv))
    state = next(e for e in document["entities"] if e["name"] == "Sit_couch_1_Done")
    state["properties"]["hasExpression"] = ""
    with pytest.raises(GraphValidationError) as err:
        from_json(json.dumps(document))
    assert any(
        "State 'Sit_couch_1_Done'" in p and "hasExpression" in p
        for p in err.value.problems
    )


MANDATORY_CASES = [
    ("Activity", "isSequential"),
    ("Activity", "hasNumberOfActors"),
    ("Activity", "hasCommunicationType"),
    ("Activity", "hasState"),
    ("Activity", "hasAction"),
    ("Activity", "hasObservationFeature"),
    ("State", "isGoal"),
    ("State", "isFinalState"),
    ("State", "isInitialState"),
    ("State", "hasExpression"),
    ("State", "hasReward"),
    ("State", "hasObservationFeature"),
    ("ObservationFeature", "hasRangeStart"),
    ("ObservationFeature", "hasRangeEnd"),
    ("ObservationFeature", "hasFeatureType"),
    ("Transition", "hasPreviousState"),
    ("Transition", "hasNextState"),
    ("Transition", "hasAction"),
    ("Transition", "hasTransitionProbability"),
    ("Action", "hasEffect"),
    ("Effect", "hasObservationFeature"),
    ("Effect", "hasImpactType"),
    ("Equation", "hasExpression"),
    ("Equation", "hasParameter"),
    ("Parameter", "hasName"),
    ("Parameter", "hasValue"),
]


@pytest.mark.parametrize("concept,prop", MANDATORY_CASES)
def test_dropping_mandatory_property_is_rejected_naming_it(concept, prop):
    # find a fuzzed graph containing the concept, surgically remove the
    # property from its JSON form, and expect an error naming the property
    rng = random.Random(hash((concept, prop)) % 100_000)
    for _ in range(40):
        g = make_random_graph(rng)
        document = json.loads(to_json(g))
        victims = [
            e
            for e in document["entities"]
            if e["concept"] == concept and prop in e["properties"]
        ]
        if not victims:
            continue
        del victims[0]["properties"][prop]
        with pytest.raises((SchemaError, GraphValidationError)) as err:
            from_json(json.dumps(document))
        assert prop in str(err.value)
        return
    pytest.fail(f"no fuzzed graph contained {concept}.{prop}")


def test_transition_group_must_sum_to_one():
    rng = random.Random(7)
    g = make_random_graph(rng)
    document = json.loads(to_json(g))
    for entity in document["entities"]:
        if entity["concept"] == "Transition":
            entity["properties"]["hasTransitionProbability"] = 0.5
            break
    with pytest.raises(GraphValidationError) as err:
        from_json(json.dumps(document))
    assert "sum to" in str(err.value)


def test_rule_and_equation_caches(watch_tv):
    rule = watch_tv.rule("InitialState_Watch_TV_49")
    assert rule is watch_tv.rule("InitialState_Watch_TV_49")
    assert rule.evaluate({f: 0 for f in rule.feature_names()})


@pytest.mark.parametrize("reward", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_state_reward_rejected(watch_tv, reward):
    document = json.loads(to_json(watch_tv))
    state = next(e for e in document["entities"] if e["name"] == "Sit_couch_1_Done")
    state["properties"]["hasReward"] = reward
    with pytest.raises(GraphValidationError) as err:
        from_json(json.dumps(document))
    assert any(
        "State 'Sit_couch_1_Done'" in p and "hasReward" in p and "not finite" in p
        for p in err.value.problems
    )


# Watch_TV_49 whose final state lists none of the 7 features its expression reads
_UNLISTED_FEATURES_TTL = WATCH_TV_49_TTL.replace(
    """property:hasObservationFeature entity:IsWalk_living_room_1, entity:IsWalk_couch_1,
    entity:IsFind_couch_1, entity:IsSit_couch_1, entity:IsFind_remote_control_1,
    entity:IsFind_television_1, entity:IsTurnTo_television_1;
property:hasAction entity:TurnTo_television_1 .""",
    "property:hasAction entity:TurnTo_television_1 .",
)


def test_unlisted_feature_problems_come_in_name_order():
    with pytest.raises(GraphValidationError) as info:
        parse_turtle(_UNLISTED_FEATURES_TTL)
    unlisted = [p for p in info.value.problems if "not listed under" in p]
    assert len(unlisted) == 7
    assert unlisted == sorted(unlisted)


def test_validation_message_does_not_depend_on_the_hash_seed():
    root = Path(__file__).resolve().parents[1]
    script = (
        "import sys\n"
        "from mdpcompose.errors import GraphValidationError\n"
        "from mdpcompose.turtle_io import parse_turtle\n"
        "try:\n"
        "    parse_turtle(sys.stdin.read())\n"
        "except GraphValidationError as err:\n"
        "    print(err)\n"
    )
    messages = set()
    for seed in ("1", "2", "3", "4"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-c", script],
            input=_UNLISTED_FEATURES_TTL,
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        messages.add(done.stdout)
    assert len(messages) == 1
    assert "IsWalk_living_room_1" in messages.pop()
