import hashlib
import random

import pytest

from conftest import WATCH_TV_49_TTL, make_random_graph, watch_tv_49_graph
from mdpcompose.errors import GraphValidationError, TurtleSyntaxError
from mdpcompose.kg import KnowledgeGraph, Parameter, isomorphic
from mdpcompose.sample_corpus import corpus_graphs
from mdpcompose.store import save_store
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


# One document per place the reader raises a TurtleSyntaxError, with the
# message, line, column and expectation each must keep.
P = PREFIX_ONLY
SYNTAX_ERRORS = {
    "character": ("@prefix entity: <x> .\n!", "unexpected character '!'", 2, 1, None),
    "end-after-prefix": ("@prefix", "unexpected end of document", 1, 1, "prefix:"),
    "end-after-name": ("@prefix e:", "unexpected end of document", 1, 9, "<iri>"),
    "end-after-iri": ("@prefix e: <x>", "unexpected end of document", 1, 12, "."),
    "prefix-name": ("@prefix <x> .", "unexpected token '<x>'", 1, 9, "prefix:"),
    "iri": ("@prefix e: e:x .", "unexpected token 'e:x'", 1, 12, "<iri>"),
    "prefix-dot-token": ("@prefix e: <x> e:y", "unexpected token 'e:y'", 1, 16, "."),
    "prefix-dot": ("@prefix e: <x> ;", "unexpected ';'", 1, 16, "."),
    "subject": (P + "<x> a concept:S .", "unexpected token '<x>'", 5, 1, "subject"),
    "predicate": (P + 'entity:X "l" concept:S .', "unexpected token '\"l\"'", 5, 10,
                  "predicate"),
    "object": (P + "entity:X a ; .", "unexpected token ';'", 5, 12, "object"),
    "separator": (P + "entity:X a concept:S entity:Y .", "unexpected token 'entity:Y'",
                  5, 22, "';' or '.'"),
    "end-after-subject": (P + "entity:X", "unexpected end of statement", 5, 1,
                          "predicate"),
    "end-after-predicate": (P + "entity:X a", "unexpected end of statement", 5, 10,
                            "object"),
    "end-at-separator": (P + "entity:X a concept:State", "unexpected end of document",
                         5, 12, "';' or '.'"),
    "subject-prefix": (P + "x:X a concept:S .", "unknown prefix 'x'", 5, 1, None),
    "predicate-prefix": (P + "entity:X x:p concept:S .", "unknown prefix 'x'",
                         5, 10, None),
    "object-prefix": (P + "entity:X a x:S .", "unknown prefix 'x'", 5, 12, None),
    "datatype-prefix": (P + 'entity:X property:p "a"^^nope:string .', "unknown prefix 'nope'",
                        5, 21, None),
    "after-multiline-literal": (P + '# c\nentity:X property:p "a\nb"^^xsd:string ;\n ?',
                                "unexpected character '?'", 8, 2, None),
    "after-crlf-comment": ("\t@prefix e: <x> .\n# c\r\n e:s a e:t ;\n e:p ,",
                           "unexpected token ','", 4, 6, "object"),
}


@pytest.mark.parametrize(
    "text, message, line, column, expected",
    list(SYNTAX_ERRORS.values()),
    ids=list(SYNTAX_ERRORS),
)
def test_syntax_errors_are_pinned(text, message, line, column, expected):
    with pytest.raises(TurtleSyntaxError) as err:
        parse_turtle(text)
    detail = f"line {line}, column {column}: {message}"
    if expected:
        detail += f" (expected {expected})"
    assert (str(err.value), err.value.line, err.value.column, err.value.expected) == (
        detail, line, column, expected
    )


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


# The bytes save_store writes for the mini-corpus: the writer's property
# order, datatypes and escaping. A change here changes every stored graph.
DESK_STORE_SHA256 = {
    "Clean_bathroom.ttl": "5cc483c486464f123c953182822f1183c095a3c7a6a1bf10506ae80e9dbb523d",
    "Clean_kitchen.ttl": "620603214b5f12a699c9f9cddca30c8698b2d8602ea229308825ded3c03f3f9a",
    "Do_laundry.ttl": "48cd4fa87c7aadd49199e15a704a03e16e2fc681dc32d3e587eb89330e04bb6c",
    "Feed_cat.ttl": "80c15f6ab307a965417fc1e4b2ce808ac84ab7e0c753c95d2f14d89d1b7e3bf0",
    "Make_coffee.ttl": "99daee3c200e4630ed12c0f1dafb4ff7ab79effa895faf6d0bcdb94c748b2d65",
    "Morning_routine.ttl": "19189a3fe3e29995b97f821b47e499c9d9e6595a2345da9fd2ccdfcc13219ba8",
    "Prepare_dinner.ttl": "ab874be91a31d2fdd2367c7d6b7ad737e2f686db9fa498b129a47ab0e67bfef8",
    "Read_book.ttl": "49099bf3a277fc5b0f5bb09b8472fd847ab3346b1a3d3d9f8c897057a1785dab",
    "Wash_dishes.ttl": "0a5cc2db1f76081686a44462ed0cfdd4a36f1a73300eba38268d18f06d654d33",
    "Wash_hands.ttl": "a91db6cfcae9574a1515fff6f20b4e985cea3c3d80a897cfb22f2449df24d73a",
    "Watch_TV_49.ttl": "782b460451908371aa843c4d110415b7a2b57b0e708e9bdbd8b04989031af1a3",
    "Water_plants.ttl": "4ad3ea5f5cb94a9437624d8f1e2911ba07b2a06f68d182d8a5157f1efd7a275f",
}


def test_saved_desk_store_bytes_are_pinned(tmp_path):
    written = save_store(corpus_graphs(), tmp_path)
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in written}
    assert digests == DESK_STORE_SHA256


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


def test_literal_datatype_prefix_may_hold_digits_and_underscores():
    text = PREFIX_ONLY + (
        "@prefix xsd_1: <http://www.w3.org/2001/XMLSchema#> .\n"
        'entity:p a concept:Parameter; property:hasName "a"^^xsd_1:string;\n'
        '    property:hasValue "2.0"^^xsd:double;\n'
        '    property:hasColor "red"^^xsd_1:string .\n'
    )
    g = parse_turtle(text)
    assert g.get("p").parameter_name == "a"
    # kept under the prefix the writer declares, so the round trip parses
    assert g.extra_triples == [("p", "hasColor", '"red"^^xsd:string')]
    assert isomorphic(parse_turtle(write_turtle(g)), g)


@pytest.mark.parametrize(
    "obj, problem",
    [
        ('"0.0"^^xsd:boolean', "hasReward is xsd:boolean, expected xsd:double"),
        ('"0.0"', "hasReward is xsd:string, expected xsd:double"),
        ("entity:Zero", "hasReward is an entity reference, expected xsd:double"),
    ],
)
def test_a_known_property_with_another_datatype_is_reported(obj, problem):
    text = WATCH_TV_49_TTL.replace(
        'entity:Walk_couch_1_Done a concept:State;\nproperty:isGoal "false"^^xsd:boolean;',
        f"entity:Walk_couch_1_Done a concept:State;\nproperty:hasReward {obj};\n"
        'property:isGoal "false"^^xsd:boolean;',
    )
    with pytest.raises(GraphValidationError) as err:
        parse_turtle(text)
    assert err.value.problems == [f"State 'Walk_couch_1_Done': {problem}"]


def test_a_literal_on_a_reference_property_is_reported():
    text = PREFIX_ONLY + 'entity:t a concept:Transition; property:hasAction "Walk"^^xsd:string .\n'
    with pytest.raises(GraphValidationError) as err:
        parse_turtle(text)
    assert "Transition 't': hasAction is xsd:string, expected an entity reference" in err.value.problems


PARAMETER_BODY = (
    'property:hasName "a"^^xsd:string; property:hasValue "2.0"^^xsd:double .\n'
)


@pytest.mark.parametrize(
    "types, named",
    [
        ("concept:Equation, concept:Parameter", "Equation and Parameter"),
        ("concept:Parameter, concept:Equation", "Parameter and Equation"),
        ("concept:Parameter; a concept:Gadget", "Parameter and Gadget"),
    ],
)
def test_a_subject_with_two_types_is_reported(types, named):
    with pytest.raises(GraphValidationError) as err:
        parse_turtle(PREFIX_ONLY + f"entity:p a {types}; {PARAMETER_BODY}")
    assert f"entity 'p': typed as {named}" in err.value.problems


def test_a_repeated_type_is_one_type():
    types = "concept:Parameter, concept:Parameter"
    text = PREFIX_ONLY + f"entity:p a {types}; {PARAMETER_BODY}"
    assert parse_turtle(text).get("p").parameter_name == "a"
