import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import NAME_ALPHABETS
from mdpcompose.errors import GraphValidationError
from mdpcompose.kg import isomorphic
from mdpcompose.sample_corpus import WATCH_TV_TEXT
from mdpcompose.simulation import SimState, initial_features, make_simulation
from mdpcompose.store import save_store
from mdpcompose.turtle_io import parse_turtle, write_turtle
from mdpcompose.vhome import (
    VhScript,
    VhStep,
    action_sequence,
    dedupe_activity_names,
    load_corpus,
    parse_script,
    script_to_kg,
)


def test_parse_watch_tv_sample():
    script = parse_script(WATCH_TV_TEXT)
    assert script.activity_name == "Watch TV 49"
    assert len(script.steps) == 7
    assert script.steps[0] == VhStep("Walk", "living_room", 1)
    assert script.steps[-1] == VhStep("TurnTo", "television", 1)
    assert script.description.startswith("walk to living room")


def test_single_step_script():
    script = parse_script("Tiny\ndo one thing\n\n[Walk] <door> (1)\n")
    assert len(script.steps) == 1


def test_malformed_step_line_reports_line_number():
    text = "Bad\ndesc\n\n[Walk] living_room (1)\n"
    with pytest.raises(ValueError) as err:
        parse_script(text)
    assert "line 4" in str(err.value)


def test_missing_name_line():
    with pytest.raises(ValueError):
        parse_script("\n\n[Walk] <x> (1)")


def test_empty_step_list_rejected():
    with pytest.raises(ValueError):
        parse_script("Name\ndescription only\n\n")


def test_script_to_kg_structure_matches_turtle_fixture():
    script = parse_script(WATCH_TV_TEXT)
    g = script_to_kg(script)
    assert len(g.states) == 9
    assert len(g.actions) == 7
    assert len(g.features) == 7
    assert "IsWalk_living_room_1" in g
    assert g.get("Walk_living_room_1_Done").expression == "IsWalk_living_room_1 == 1"


def test_one_step_chain_counts():
    script = parse_script("Mini\nx\n\n[Walk] <door> (1)\n")
    g = script_to_kg(script)
    assert len(g.states) == 3
    assert len(g.actions) == 1
    assert len(g.transitions) == 2
    previous = {(t.previous_state, t.next_state) for t in g.transitions}
    assert ("InitialState_Mini", "Walk_door_1_Done") in previous
    assert ("Walk_door_1_Done", "FinalState_Mini") in previous


def test_duplicate_steps_get_occurrence_suffixes():
    text = "Rep\nx\n\n[Walk] <door> (1)\n[Walk] <door> (1)\n"
    script = parse_script(text)
    assert action_sequence(script) == ["Walk_door_1", "Walk_door_1_2"]
    g = script_to_kg(script)
    state_names = {s.name for s in g.states}
    assert "Walk_door_1_Done" in state_names
    assert "Walk_door_1_2_Done" in state_names
    # replaying the chain visits each state exactly once
    sim = make_simulation(
        g, SimState(feature_values=initial_features(g, "Rep"), state_label="InitialState_Rep")
    )
    seen = []
    for action in action_sequence(script):
        seen.append(sim(action).state_label)
    assert len(set(seen)) == len(seen)


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(["Walk", "Find", "Grab", "Open"]),
            st.sampled_from(["door", "cup", "sink", "towel"]),
            st.integers(min_value=1, max_value=3),
        ),
        min_size=1,
        max_size=8,
    )
)
def test_entity_count_invariant(steps):
    script = VhScript("Fuzzed Act", "fuzz", [VhStep(*s) for s in steps])
    g = script_to_kg(script)
    n = len(steps)
    assert len(g.states) == n + 2
    assert len(g.actions) == n
    assert len(g.transitions) == n + 1
    assert len(g.features) == n


@settings(max_examples=20, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(["Walk", "Find"]),
            st.sampled_from(["door", "cup", "sink"]),
            st.integers(min_value=1, max_value=2),
        ),
        min_size=1,
        max_size=6,
    )
)
def test_replay_reaches_final_state(steps):
    script = VhScript("Replay Act", "fuzz", [VhStep(*s) for s in steps])
    g = script_to_kg(script)
    sim = make_simulation(
        g,
        SimState(
            feature_values=initial_features(g, "Replay_Act"),
            state_label="InitialState_Replay_Act",
        ),
    )
    state = None
    for k, action in enumerate(action_sequence(script), start=1):
        state = sim(action)
        assert state.reward == pytest.approx(0.25 * k)
    assert state.is_final and state.is_goal


def test_dedupe_only_renames_duplicate_groups():
    scripts = [
        VhScript("Watch TV", "a", [VhStep("Walk", "door", 1)]),
        VhScript("Watch TV", "b", [VhStep("Find", "cup", 1)]),
        VhScript("Solo Act", "c", [VhStep("Grab", "cup", 1)]),
    ]
    renamed = dedupe_activity_names(scripts)
    assert [s.activity_name for s in renamed] == ["Watch_TV_1", "Watch_TV_2", "Solo_Act"]


def test_dedupe_never_gives_a_name_another_script_has():
    scripts = [
        VhScript("A", "a", [VhStep("Walk", "door", 1)]),
        VhScript("A", "b", [VhStep("Find", "cup", 1)]),
        VhScript("A 1", "c", [VhStep("Grab", "cup", 1)]),
        VhScript("A_2", "d", [VhStep("Sit", "couch", 1)]),
    ]
    renamed = dedupe_activity_names(scripts)
    assert [s.activity_name for s in renamed] == ["A_3", "A_4", "A_1", "A_2"]


def test_load_corpus(tmp_path):
    (tmp_path / "a.txt").write_text("Watch TV\nx\n\n[Walk] <door> (1)\n")
    (tmp_path / "b.txt").write_text("Watch TV\nx\n\n[Find] <cup> (1)\n[Walk] <door> (1)\n")
    (tmp_path / "c.txt").write_text("Cook\nx\n\n[Open] <fridge> (1)\n[Grab] <egg> (1)\n[Find] <pan> (2)\n[Find] <pan> (3)\n[Walk] <stove> (1)\n")
    (tmp_path / "broken.txt").write_text("Broken\nno steps follow\n\n")
    corpus = load_corpus(tmp_path)
    names = [s.activity_name for s in corpus.scripts]
    assert names == ["Watch_TV_1", "Watch_TV_2", "Cook"]
    assert corpus.skipped_files == ["broken.txt"]
    assert corpus.length_histogram() == {1: 1, 2: 1, 5: 1}


def test_histogram_counts_lengths():
    scripts = [
        VhScript("A", "x", [VhStep("Walk", "a", 1)] * 2),
        VhScript("B", "x", [VhStep("Walk", "a", 1)] * 2),
        VhScript("C", "x", [VhStep("Walk", "a", 1)] * 5),
    ]
    from mdpcompose.vhome import VhCorpus

    assert VhCorpus(scripts=scripts).length_histogram() == {2: 2, 5: 1}


def test_empty_directory(tmp_path):
    corpus = load_corpus(tmp_path)
    assert corpus.scripts == []
    assert corpus.length_histogram() == {}


@pytest.mark.parametrize(
    "text, line",
    [
        ("../evil\nx\n\n[Walk] <door> (1)\n", "line 1"),
        ("Watch TV (evening)!\nx\n\n[Walk] <door> (1)\n", "line 1"),
        ("Watch TV\nx\n\n[Walk] <door> (1)\n[Walk] <living.room> (2)\n", "line 5"),
        ("Watch TV\nx\n\n[Turn-to] <door> (1)\n", "line 4"),
    ],
)
def test_names_that_cannot_round_trip_are_refused(text, line):
    with pytest.raises(ValueError, match=line):
        parse_script(text)


def test_colliding_step_identifiers_fail_validation():
    script = parse_script("Walks\nx\n\n[Walk] <x> (1)\n[Walk] <x> (1)\n[Walk] <x_1> (2)\n")
    with pytest.raises(GraphValidationError, match="Walk_x_1_2"):
        script_to_kg(script)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(NAME_ALPHABETS), st.data())
def test_script_names_round_trip_or_are_refused(alphabet, data):
    names = st.text(alphabet=alphabet, min_size=1, max_size=8)
    name = data.draw(names)
    steps = data.draw(st.lists(st.tuples(names, names), min_size=1, max_size=3))
    # distinct step indices: repeated steps are test_duplicate_steps_get_occurrence_suffixes
    lines = [f"[{verb}] <{obj}> ({k + 1})" for k, (verb, obj) in enumerate(steps)]
    text = "\n".join([name, "description", ""] + lines) + "\n"
    try:
        script = parse_script(text)
    except ValueError:
        return
    try:
        graph = script_to_kg(script)
    except GraphValidationError as err:
        # names that are each valid can still coincide, as in
        # test_colliding_step_identifiers_fail_validation
        assert all(p.startswith("duplicate entity name") for p in err.problems)
        return
    assert isomorphic(parse_turtle(write_turtle(graph)), graph)
    with tempfile.TemporaryDirectory() as root:
        store = Path(root) / "store"
        written = save_store({script.activity_name: graph}, store)
        assert [p.parent for p in written] == [store]
        assert sorted(Path(root).rglob("*")) == [store, *written]
