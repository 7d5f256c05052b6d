import random

import pytest

from conftest import WATCH_TV_49_TTL, make_random_graph, watch_tv_49_graph
from mdpcompose.errors import GraphValidationError, TurtleSyntaxError
from mdpcompose.kg import KnowledgeGraph, Parameter, isomorphic
from mdpcompose.turtle_io import parse_turtle, write_turtle

PREFIX_ONLY = """\
@prefix entity: <http://example.org/Entity/> .
@prefix property: <http://example.org/Property/> .
@prefix concept: <http://example.org/Concept/> .
@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .
"""


def test_parse_watch_tv_counts():
    g = parse_turtle(WATCH_TV_49_TTL)
    assert len(g.activities) == 1
    assert g.activities[0].name == "Watch_TV_49"
    assert len(g.states) == 9
    done = [s for s in g.states if s.name.endswith("_Done")]
    assert len(done) == 7
    assert len(g.actions) == 7
    assert len(g.features) == 7
    activity = g.activities[0]
    assert activity.is_sequential is True
    assert activity.number_of_actors == 1


def test_parse_matches_generated_graph():
    assert isomorphic(parse_turtle(WATCH_TV_49_TTL), watch_tv_49_graph())


def test_prefix_only_document_is_empty_graph():
    g = parse_turtle(PREFIX_ONLY)
    assert len(g) == 0
    assert g.triples() == []


def test_empty_document():
    assert len(parse_turtle("")) == 0


def test_probability_out_of_range_names_transition():
    text = WATCH_TV_49_TTL.replace(
        'property:HasTransitionProbability "1"^^xsd:double.\n\nentity:76675629',
        'property:HasTransitionProbability "1.5"^^xsd:double.\n\nentity:76675629',
        1,
    )
    with pytest.raises(GraphValidationError) as err:
        parse_turtle(text)
    assert "72a984e7-8a0a-5031-826f-be10eb86c197" in str(err.value)
    assert "outside [0,1]" in str(err.value)


def test_unknown_prefix_is_reported():
    text = PREFIX_ONLY + "entity:Thing a mystery:Concept .\n"
    with pytest.raises(TurtleSyntaxError) as err:
        parse_turtle(text)
    assert "unknown prefix" in str(err.value)
    assert "mystery" in str(err.value)


def test_syntax_error_carries_position_and_expectation():
    text = PREFIX_ONLY + "entity:Thing a concept:Parameter\n"  # missing dot
    with pytest.raises(TurtleSyntaxError) as err:
        parse_turtle(text)
    assert err.value.line >= 5
    assert err.value.expected is not None


def test_unexpected_character_position():
    with pytest.raises(TurtleSyntaxError) as err:
        parse_turtle("@prefix entity: <x> .\n!")
    assert err.value.line == 2
    assert err.value.column == 1


def test_write_empty_graph_is_prefix_block_only():
    text = write_turtle(KnowledgeGraph())
    assert "@prefix entity:" in text
    body = [
        line
        for line in text.splitlines()
        if line.strip() and not line.startswith("@prefix")
    ]
    assert body == []


def test_single_parameter_graph_round_trip():
    g = KnowledgeGraph()
    g.add(Parameter(name="a_param", parameter_name="a", value=2.0))
    g.validate()
    text = write_turtle(g)
    assert 'property:hasName "a"^^xsd:string' in text
    assert 'property:hasValue "2.0"^^xsd:double' in text
    assert isomorphic(parse_turtle(text), g)


def test_watch_tv_round_trip_isomorphic():
    g = parse_turtle(WATCH_TV_49_TTL)
    assert isomorphic(parse_turtle(write_turtle(g)), g)


def test_unknown_properties_survive_round_trip():
    text = WATCH_TV_49_TTL + (
        '\nentity:Watch_TV_49 property:hasAuthor "somebody"^^xsd:string .\n'
        "entity:Watch_TV_49 property:relatesTo entity:Walk_couch_1 .\n"
    )
    g = parse_turtle(text)
    assert len(g.extra_triples) == 2
    again = parse_turtle(write_turtle(g))
    assert isomorphic(again, g)
    assert sorted(again.extra_triples) == sorted(g.extra_triples)


def test_unknown_concept_preserved_opaquely():
    text = PREFIX_ONLY + (
        "entity:Oddity a concept:Gadget;\n"
        'property:hasColor "red"^^xsd:string .\n'
    )
    g = parse_turtle(text)
    assert ("Oddity", "a", "Gadget") in g.triples()
    assert isomorphic(parse_turtle(write_turtle(g)), g)


def test_fuzzed_round_trips():
    rng = random.Random(2024)
    for _ in range(25):
        g = make_random_graph(rng)
        assert isomorphic(parse_turtle(write_turtle(g)), g)
