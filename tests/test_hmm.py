import hashlib
import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import NAME_ALPHABETS
from mdpcompose.errors import UnknownSituationError
from mdpcompose.hmm import (
    Gaussian,
    LogRow,
    fit_hmm,
    hmm_to_kg,
    most_likely_next,
    read_log_csv,
    viterbi_path,
)


def row(state, action, next_state, reward=0.0, **observations):
    return LogRow(state, action, observations, reward, next_state)


COUNTING_ROWS = [
    row("S1", "a", "S2"),
    row("S1", "a", "S2"),
    row("S1", "a", "S3"),
]


def test_transition_frequencies_match_counting_oracle():
    model = fit_hmm(COUNTING_ROWS)
    dist = model.transition_prob[("S1", "a")]
    assert dist["S2"] == pytest.approx(2 / 3)
    assert dist["S3"] == pytest.approx(1 / 3)
    assert model.action_prob["S1"] == {"a": 1.0}


def test_single_row_degenerate_probabilities():
    model = fit_hmm([row("A", "go", "B", reward=1.0, x=2.0)])
    assert model.transition_prob[("A", "go")] == {"B": 1.0}
    assert model.action_prob["A"] == {"go": 1.0}
    assert model.state_prob == {"A": 1.0}


def test_reward_mean_and_median():
    rows = [row("S", "a", "S", reward=r) for r in (1.0, 2.0, 9.0)]
    model = fit_hmm(rows)
    assert model.state_reward["S"]["mean"] == pytest.approx(4.0)
    assert model.state_reward["S"]["median"] == pytest.approx(2.0)


def test_empty_input_rejected():
    with pytest.raises(ValueError):
        fit_hmm([])


def test_mixed_feature_values_error_names_feature():
    rows = [row("S", "a", "S", temp=1.0), row("S", "a", "S", temp="warm")]
    with pytest.raises(ValueError) as err:
        fit_hmm(rows)
    assert "temp" in str(err.value)


def test_distributions_normalize():
    rows = [
        row("S1", "a", "S2", color="red"),
        row("S1", "a", "S3", color="blue"),
        row("S1", "b", "S1", color="red"),
        row("S2", "a", "S1", color="red"),
    ]
    model = fit_hmm(rows)
    for dist in model.transition_prob.values():
        assert sum(dist.values()) == pytest.approx(1.0, abs=1e-9)
    for dist in model.action_prob.values():
        assert sum(dist.values()) == pytest.approx(1.0, abs=1e-9)
    pmf = model.observation_prob[("S1", "color")]
    assert sum(pmf.values()) == pytest.approx(1.0, abs=1e-9)


@settings(max_examples=25, deadline=None)
@given(st.permutations(list(range(len(COUNTING_ROWS) * 2))))
def test_fit_is_permutation_invariant(order):
    rows = (COUNTING_ROWS * 2)
    shuffled = [rows[i] for i in order]
    a = fit_hmm(rows)
    b = fit_hmm(shuffled)
    assert a.transition_prob == b.transition_prob
    assert a.action_prob == b.action_prob
    assert a.state_reward == b.state_reward


def test_most_likely_next():
    model = fit_hmm(COUNTING_ROWS)
    assert most_likely_next(model, "S1", "a") == ("S2", pytest.approx(2 / 3))


def test_most_likely_next_deterministic_chain():
    model = fit_hmm([row("A", "go", "B"), row("B", "go", "C")])
    assert most_likely_next(model, "A", "go") == ("B", 1.0)


def test_most_likely_next_tie_breaks_lexicographically():
    model = fit_hmm([row("S", "a", "B"), row("S", "a", "A")])
    assert most_likely_next(model, "S", "a") == ("A", 0.5)


def test_unseen_pair_is_unknown_situation():
    model = fit_hmm(COUNTING_ROWS)
    with pytest.raises(UnknownSituationError):
        most_likely_next(model, "S1", "never_seen")


def test_gaussian_moment_fit():
    rows = [row("S", "a", "S", x=v) for v in (1.0, 1.0, 1.0)]
    model = fit_hmm(rows)
    gaussian = model.observation_prob[("S", "x")]
    assert gaussian == Gaussian(mean=1.0, stdev=0.0)


# --- viterbi ------------------------------------------------------------


def _emission_prob(model, state, obs):
    logp = 0.0
    for feature, value in obs.items():
        dist = model.observation_prob.get((state, feature))
        if dist is None:
            return 0.0
        if isinstance(dist, Gaussian):
            logp += dist.log_pdf(value)
        else:
            p = dist.get(value, 0.0)
            if p == 0.0:
                return 0.0
            logp += math.log(p)
    return math.exp(logp)


def _brute_force_viterbi(model, observations):
    from mdpcompose.hmm import _marginal_transitions

    marginal = _marginal_transitions(model)
    best_path, best_score = None, -1.0
    for path in itertools.product(model.states, repeat=len(observations)):
        score = model.state_prob.get(path[0], 0.0) * _emission_prob(
            model, path[0], observations[0]
        )
        for t in range(1, len(path)):
            score *= marginal.get(path[t - 1], {}).get(path[t], 0.0)
            score *= _emission_prob(model, path[t], observations[t])
        if score > best_score or (score == best_score and (best_path is None or path < best_path)):
            best_path, best_score = path, score
    return list(best_path), best_score


TOY_ROWS = [
    row("Rainy", "walk", "Rainy", humidity="high"),
    row("Rainy", "walk", "Sunny", humidity="high"),
    row("Rainy", "shop", "Rainy", humidity="high"),
    row("Sunny", "walk", "Sunny", humidity="low"),
    row("Sunny", "walk", "Rainy", humidity="low"),
    row("Sunny", "shop", "Sunny", humidity="low"),
    row("Sunny", "shop", "Sunny", humidity="high"),
]


def test_viterbi_single_step_single_state():
    model = fit_hmm([row("Only", "a", "Only", x=1.0)])
    assert viterbi_path(model, [{"x": 1.0}]) == ["Only"]


def test_viterbi_unambiguous_emissions():
    model = fit_hmm(TOY_ROWS)
    path = viterbi_path(model, [{"humidity": "high"}, {"humidity": "low"}, {"humidity": "low"}])
    assert path[0] == "Rainy"
    assert path[1] == "Sunny"


def test_viterbi_matches_exhaustive_enumeration():
    model = fit_hmm(TOY_ROWS)
    sequences = [
        [{"humidity": "high"}],
        [{"humidity": "low"}, {"humidity": "high"}],
        [{"humidity": "high"}, {"humidity": "high"}, {"humidity": "low"}],
        [{"humidity": "low"}] * 4,
        [{"humidity": "high"}, {"humidity": "low"}, {"humidity": "high"}, {"humidity": "low"}, {"humidity": "high"}],
    ]
    for seq in sequences:
        expected, score = _brute_force_viterbi(model, seq)
        assert score > 0
        assert viterbi_path(model, seq) == expected


def test_viterbi_numeric_emissions_match_enumeration():
    rows = [
        row("Low", "a", "Low", level=1.0),
        row("Low", "a", "High", level=1.2),
        row("High", "a", "High", level=5.0),
        row("High", "a", "Low", level=4.8),
    ]
    model = fit_hmm(rows)
    for seq in [[{"level": 1.1}, {"level": 4.9}], [{"level": 5.0}, {"level": 5.0}, {"level": 1.0}]]:
        expected, score = _brute_force_viterbi(model, seq)
        assert score > 0
        assert viterbi_path(model, seq) == expected


def test_viterbi_unknown_feature_names_it():
    model = fit_hmm(TOY_ROWS)
    with pytest.raises(ValueError) as err:
        viterbi_path(model, [{"wind": "strong"}])
    assert "wind" in str(err.value)


@pytest.mark.parametrize(
    "sequence",
    [[{"humidity": "medium", "wind": "x"}], [{"humidity": "high"}, {"humidity": "medium", "wind": "x"}]],
)
def test_viterbi_reports_an_unknown_feature_before_a_zero_likelihood(sequence):
    # no state emits "medium", so an emission read before the feature check
    # made the whole sequence read as zero likelihood
    model = fit_hmm(TOY_ROWS)
    with pytest.raises(ValueError, match="unknown feature 'wind'"):
        viterbi_path(model, sequence)


def test_viterbi_zero_likelihood_is_error_not_nan():
    model = fit_hmm(TOY_ROWS)
    with pytest.raises(ValueError) as err:
        viterbi_path(model, [{"humidity": "medium"}])
    assert "zero likelihood" in str(err.value)


def test_viterbi_empty_sequence():
    model = fit_hmm(TOY_ROWS)
    with pytest.raises(ValueError):
        viterbi_path(model, [])


# --- lowering to a knowledge graph --------------------------------------


def test_deterministic_model_to_graph():
    model = fit_hmm([row("A", "go", "B", reward=0.5), row("B", "stop", "C", reward=1.0)])
    g = hmm_to_kg(model, activity_name="Derived")
    assert {s.name for s in g.states} == {"A", "B", "C"}
    assert all(t.probability == 1.0 for t in g.transitions)
    assert g.get("A").is_initial_state
    assert g.get("C").is_final_state and g.get("C").is_goal
    assert g.get("A").reward == pytest.approx(0.5)


def test_counting_model_transition_probabilities_in_graph():
    model = fit_hmm(COUNTING_ROWS)
    g = hmm_to_kg(model)
    probs = sorted(
        t.probability for t in g.transitions if t.previous_state == "S1"
    )
    assert probs == [pytest.approx(1 / 3), pytest.approx(2 / 3)]


def test_zero_variance_feature_lowered_as_gaussian():
    rows = [row("S", "a", "T", x=1.0), row("T", "a", "S", x=1.0), row("S", "a", "T", x=1.0)]
    model = fit_hmm(rows)
    g = hmm_to_kg(model)
    feature = g.get("x")
    assert feature.distribution.value == "GAUSSIAN"
    assert feature.mean == pytest.approx(1.0)
    assert feature.standard_deviation == pytest.approx(0.0)


def test_categorical_feature_lowered_with_mode():
    rows = [
        row("S", "a", "T", color="red"),
        row("T", "a", "S", color="red"),
        row("S", "a", "T", color="blue"),
    ]
    g = hmm_to_kg(fit_hmm(rows))
    feature = g.get("color")
    assert feature.distribution.value == "NONE"
    assert feature.mode is None  # string mode cannot be stored numerically


def test_lowered_graph_passes_validation_and_round_trips():
    from mdpcompose.json_io import from_json, to_json
    from mdpcompose.kg import isomorphic
    from mdpcompose.turtle_io import parse_turtle, write_turtle

    model = fit_hmm(TOY_ROWS + [row("Rainy", "walk", "Rainy", humidity="high")])
    g = hmm_to_kg(model, activity_name="Weather")
    assert isomorphic(parse_turtle(write_turtle(g)), g)
    assert isomorphic(from_json(to_json(g)), g)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(NAME_ALPHABETS), st.data())
def test_derived_names_round_trip_or_are_refused(alphabet, data):
    from mdpcompose.kg import isomorphic
    from mdpcompose.turtle_io import parse_turtle, write_turtle

    names = st.text(alphabet=alphabet, min_size=1, max_size=6)
    name = data.draw(names)
    states = data.draw(st.lists(names, min_size=1, max_size=3))
    actions = data.draw(st.lists(names, min_size=1, max_size=2))
    features = data.draw(st.lists(names, max_size=2, unique=True))
    rows = [
        LogRow(state, actions[k % len(actions)], dict.fromkeys(features, float(k)), 0.0, nxt)
        for k, (state, nxt) in enumerate(zip(states, states[1:] + states[:1]))
    ]
    try:
        graph = hmm_to_kg(fit_hmm(rows), activity_name=name)
    except ValueError as err:
        # names that are each valid can still coincide, say a state and an action
        assert "is not a Turtle local name" in str(err) or "share the name" in str(err)
        return
    assert isomorphic(parse_turtle(write_turtle(graph)), graph)


@pytest.mark.parametrize(
    "rows, message",
    [
        ([row("A", "B", "B", reward=0.5, temp=1.0)], "state and action share the name 'B'"),
        (
            [row("A", "go", "B", state_label=1.0)],
            "generated feature and feature share the name 'state_label'",
        ),
        (
            [row("Keep_state_label_go", "go", "B")],
            "state and generated effect share the name 'Keep_state_label_go'",
        ),
    ],
    ids=["action-named-like-a-state", "state-label-column", "state-named-like-an-effect"],
)
def test_a_name_two_entities_would_share_is_refused_before_building(rows, message):
    with pytest.raises(ValueError) as err:
        hmm_to_kg(fit_hmm(rows))
    assert str(err.value) == message


def test_lowered_graph_simulates():
    from mdpcompose.simulation import SimState, make_simulation

    model = fit_hmm([row("A", "go", "B", reward=0.5), row("B", "stop", "C", reward=1.0)])
    g = hmm_to_kg(model, activity_name="Derived")
    sim = make_simulation(
        g, SimState(feature_values={"state_label": 0.0}, state_label="A")
    )
    state = sim("go")
    assert state.state_label == "B"
    assert state.reward == pytest.approx(1.0)  # non-sequential: stored reward of B


def test_read_log_csv(tmp_path):
    path = tmp_path / "log.csv"
    path.write_text(
        "state,action,reward,next_state,temp,room\n"
        "S1,a,0.5,S2,21.5,kitchen\n"
        "S2,b,-0.25,S1,19.0,hall\n"
    )
    rows = read_log_csv(path)
    assert len(rows) == 2
    assert rows[0].observations == {"temp": 21.5, "room": "kitchen"}
    assert rows[1].reward == -0.25


def test_read_log_csv_header_enforced(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("foo,bar\n1,2\n")
    with pytest.raises(ValueError):
        read_log_csv(path)


def test_read_log_csv_bad_reward(tmp_path):
    path = tmp_path / "bad2.csv"
    path.write_text("state,action,reward,next_state\nS,a,uh,T\n")
    with pytest.raises(ValueError) as err:
        read_log_csv(path)
    assert "line 2" in str(err.value)


# --- derive's output, pinned --------------------------------------------

# A log with a repeated transition (shares of 1/3 and 2/3), a numeric and
# a categorical feature, a state (Hot) with no outgoing row, and rows whose
# first-seen order differs from the sorted one.
PINNED_LOG = (
    "state,action,reward,next_state,temp,room\n"
    "Warm,heat,1.0,Hot,22.0,kitchen\n"
    "Cold,wait,0.0,Cold,12.0,hall\n"
    "Cold,heat,0.5,Warm,15.0,hall\n"
    "Warm,cool,-0.5,Cold,21.0,hall\n"
    "Cold,heat,0.5,Warm,14.0,kitchen\n"
    "Cold,heat,0.25,Cold,13.5,hall\n"
    "Warm,heat,1.0,Hot,23.5,kitchen\n"
)
PINNED_TURTLE_SHA256 = "55ea32c22525437abd6904f7e136d1fdf7a8d4b9ab4a040fdd68f4db5d749d44"
PINNED_REPRS = {
    "transition_prob": (
        "{('Warm', 'heat'): {'Hot': 1.0}, ('Cold', 'wait'): {'Cold': 1.0}, "
        "('Cold', 'heat'): {'Cold': 0.3333333333333333, 'Warm': 0.6666666666666666}, "
        "('Warm', 'cool'): {'Cold': 1.0}}"
    ),
    "action_prob": (
        "{'Warm': {'cool': 0.3333333333333333, 'heat': 0.6666666666666666}, "
        "'Cold': {'heat': 0.75, 'wait': 0.25}}"
    ),
    "state_prob": "{'Cold': 0.5714285714285714, 'Warm': 0.42857142857142855}",
    "observation_prob": (
        "{('Warm', 'temp'): Gaussian(mean=22.166666666666668, stdev=1.0274023338281628), "
        "('Warm', 'room'): {'hall': 0.3333333333333333, 'kitchen': 0.6666666666666666}, "
        "('Cold', 'temp'): Gaussian(mean=13.625, stdev=1.0825317547305484), "
        "('Cold', 'room'): {'hall': 0.75, 'kitchen': 0.25}}"
    ),
}


def test_derive_output_is_pinned(tmp_path):
    from mdpcompose.turtle_io import write_turtle

    path = tmp_path / "log.csv"
    path.write_text(PINNED_LOG)
    model = fit_hmm(read_log_csv(path))
    turtle = write_turtle(hmm_to_kg(model, "Derived"))
    assert hashlib.sha256(turtle.encode("utf-8")).hexdigest() == PINNED_TURTLE_SHA256
    for name, expected in PINNED_REPRS.items():
        assert repr(getattr(model, name)) == expected, name
    assert viterbi_path(model, [{"temp": 14.5, "room": "hall"}]) == ["Cold"]
    assert viterbi_path(
        model, [{"temp": 14.0, "room": "kitchen"}, {"temp": 22.5, "room": "kitchen"}]
    ) == ["Cold", "Warm"]
    assert viterbi_path(
        model, [{"room": "hall"}, {"temp": 21.0}, {"temp": 13.0, "room": "hall"}]
    ) == ["Cold", "Warm", "Cold"]
