import json
import random

import pytest

from conftest import WATCH_TV_49_TTL, make_random_graph
from mdpcompose.errors import SchemaError
from mdpcompose.json_io import from_json, to_json
from mdpcompose.kg import KnowledgeGraph, isomorphic
from mdpcompose.turtle_io import parse_turtle


def test_empty_graph_exact_string():
    assert to_json(KnowledgeGraph()) == '{"entities":[]}'


def test_watch_tv_round_trip():
    g = parse_turtle(WATCH_TV_49_TTL)
    assert isomorphic(from_json(to_json(g)), g)


def test_missing_mandatory_expression_names_field():
    g = parse_turtle(WATCH_TV_49_TTL)
    document = json.loads(to_json(g))
    state = next(
        e for e in document["entities"]
        if e["concept"] == "State" and e["name"] == "Walk_couch_1_Done"
    )
    del state["properties"]["hasExpression"]
    with pytest.raises(SchemaError) as err:
        from_json(json.dumps(document))
    assert "hasExpression" in str(err.value)
    assert "Walk_couch_1_Done" in str(err.value)


def test_malformed_json():
    with pytest.raises(SchemaError) as err:
        from_json("{not json")
    assert "malformed" in str(err.value)


def test_top_level_shape_enforced():
    with pytest.raises(SchemaError):
        from_json('{"things": []}')
    with pytest.raises(SchemaError):
        from_json('{"entities": {}}')


def test_unknown_concept_rejected():
    with pytest.raises(SchemaError) as err:
        from_json('{"entities":[{"name":"x","concept":"Widget","properties":{}}]}')
    assert "Widget" in str(err.value)


def test_unknown_property_rejected():
    doc = {
        "entities": [
            {"name": "p", "concept": "Parameter",
             "properties": {"hasName": "p", "hasValue": 1.0, "hasColor": "red"}}
        ]
    }
    with pytest.raises(SchemaError) as err:
        from_json(json.dumps(doc))
    assert "hasColor" in str(err.value)


def test_bad_value_type_reported():
    doc = {
        "entities": [
            {"name": "p", "concept": "Parameter",
             "properties": {"hasName": "p", "hasValue": "not-a-number"}}
        ]
    }
    with pytest.raises(SchemaError) as err:
        from_json(json.dumps(doc))
    assert "hasValue" in str(err.value)


@pytest.mark.parametrize("properties", [[1], "ab", 5, None])
def test_properties_must_be_an_object(properties):
    row = {"name": "p", "concept": "Parameter", "properties": properties}
    with pytest.raises(SchemaError) as err:
        from_json(json.dumps({"entities": [row]}))
    assert str(err.value) == 'entities[0]: "properties" must be an object'


@pytest.mark.parametrize("triples", [5, None, "abc", {"a": 1}])
def test_x_triples_must_be_a_list(triples):
    with pytest.raises(SchemaError) as err:
        from_json(json.dumps({"entities": [], "x-triples": triples}))
    assert str(err.value) == '"x-triples" must be a list'


def test_fuzzed_round_trips():
    rng = random.Random(515)
    for _ in range(25):
        g = make_random_graph(rng)
        assert isomorphic(from_json(to_json(g)), g)
