import multiprocessing
import random

import pytest

from mdpcompose.embedding import DESK_SCALE, TrainConfig, build_vocabulary, train
from mdpcompose.kg import (
    Action,
    Activity,
    CommunicationType,
    Distribution,
    Effect,
    Equation,
    FeatureType,
    ImpactType,
    KnowledgeGraph,
    ObservationFeature,
    Parameter,
    State,
    Transition,
)
from mdpcompose.sample_corpus import corpus_graphs, mini_corpus
from mdpcompose.space import space_from_table
from mdpcompose.store import Store
from mdpcompose.vhome import VhScript, script_to_kg

# Hand-written Turtle document for the Watch_TV_49 activity, in the style
# real dataset exports use: mixed-case property names, terse numeric
# literals and comment lines. Parsing it must give exactly the graph that
# the script converter generates for the same activity.
WATCH_TV_49_TTL = """\
# Prefix, i.e. Namespace, Definitions
@prefix entity: <http://example.org/Entity/> .
@prefix property: <http://example.org/Property/> .
@prefix concept: <http://example.org/Concept/> .
@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .
@prefix rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#> .
@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .

# Activity Entity
entity:Watch_TV_49 a concept:Activity;
property:isSequential "true"^^xsd:boolean;
property:hasNumberOfActors "1"^^xsd:integer;
property:hasCommunicationType "Asynchronised"^^xsd:string;
property:hasState entity:Walk_living_room_1_Done, entity:Walk_couch_1_Done,
    entity:Find_couch_1_Done, entity:Sit_couch_1_Done,
    entity:Find_remote_control_1_Done, entity:Find_television_1_Done,
    entity:TurnTo_television_1_Done;
property:hasState entity:InitialState_Watch_TV_49;
property:hasState entity:FinalState_Watch_TV_49;
property:hasObservationFeature entity:IsWalk_living_room_1;
property:hasObservationFeature entity:IsWalk_couch_1;
property:hasObservationFeature entity:IsFind_couch_1;
property:hasObservationFeature entity:IsSit_couch_1;
property:hasObservationFeature entity:IsFind_remote_control_1;
property:hasObservationFeature entity:IsFind_television_1;
property:hasObservationFeature entity:IsTurnTo_television_1;
property:hasAction entity:Walk_living_room_1;
property:hasAction entity:Walk_couch_1;
property:hasAction entity:Find_couch_1;
property:hasAction entity:Sit_couch_1;
property:hasAction entity:Find_remote_control_1;
property:hasAction entity:Find_television_1;
property:hasAction entity:TurnTo_television_1 .

# State Entities
entity:Walk_living_room_1_Done a concept:State;
property:isGoal "false"^^xsd:boolean;
property:isFinalState "false"^^xsd:boolean;
property:isInitialState "false"^^xsd:boolean;
property:hasExpression "IsWalk_living_room_1 == 1"^^xsd:string;
property:hasReward "0"^^xsd:double;
property:hasObservationFeature entity:IsWalk_living_room_1;
property:hasAction entity:Walk_living_room_1 .

entity:Walk_couch_1_Done a concept:State;
property:isGoal "false"^^xsd:boolean;
property:isFinalState "false"^^xsd:boolean;
property:isInitialState "false"^^xsd:boolean;
property:hasExpression "IsWalk_couch_1 == 1"^^xsd:string;
property:hasReward "0"^^xsd:double;
property:hasObservationFeature entity:IsWalk_couch_1;
property:hasAction entity:Walk_couch_1 .

entity:Find_couch_1_Done a concept:State;
property:isGoal "false"^^xsd:boolean;
property:isFinalState "false"^^xsd:boolean;
property:isInitialState "false"^^xsd:boolean;
property:hasExpression "IsFind_couch_1 == 1"^^xsd:string;
property:hasReward "0"^^xsd:double;
property:hasObservationFeature entity:IsFind_couch_1;
property:hasAction entity:Find_couch_1 .

entity:Sit_couch_1_Done a concept:State;
property:isGoal "false"^^xsd:boolean;
property:isFinalState "false"^^xsd:boolean;
property:isInitialState "false"^^xsd:boolean;
property:hasExpression "IsSit_couch_1 == 1"^^xsd:string;
property:hasReward "0"^^xsd:double;
property:hasObservationFeature entity:IsSit_couch_1;
property:hasAction entity:Sit_couch_1 .

entity:Find_remote_control_1_Done a concept:State;
property:isGoal "false"^^xsd:boolean;
property:isFinalState "false"^^xsd:boolean;
property:isInitialState "false"^^xsd:boolean;
property:hasExpression "IsFind_remote_control_1 == 1"^^xsd:string;
property:hasReward "0"^^xsd:double;
property:hasObservationFeature entity:IsFind_remote_control_1;
property:hasAction entity:Find_remote_control_1 .

entity:Find_television_1_Done a concept:State;
property:isGoal "false"^^xsd:boolean;
property:isFinalState "false"^^xsd:boolean;
property:isInitialState "false"^^xsd:boolean;
property:hasExpression "IsFind_television_1 == 1"^^xsd:string;
property:hasReward "0"^^xsd:double;
property:hasObservationFeature entity:IsFind_television_1;
property:hasAction entity:Find_television_1 .

entity:TurnTo_television_1_Done a concept:State;
property:isGoal "true"^^xsd:boolean;
property:isFinalState "true"^^xsd:boolean;
property:isInitialState "false"^^xsd:boolean;
property:hasExpression "IsTurnTo_television_1 == 1"^^xsd:string;
property:hasReward "0"^^xsd:double;
property:hasObservationFeature entity:IsTurnTo_television_1;
property:hasAction entity:TurnTo_television_1 .

entity:InitialState_Watch_TV_49 a concept:State;
property:isGoal "false"^^xsd:boolean;
property:isFinalState "false"^^xsd:boolean;
property:isInitialState "true"^^xsd:boolean;
property:hasExpression "IsWalk_living_room_1 == 0 AND IsWalk_couch_1 == 0 AND IsFind_couch_1 == 0 AND IsSit_couch_1 == 0 AND IsFind_remote_control_1 == 0 AND IsFind_television_1 == 0 AND IsTurnTo_television_1 == 0"^^xsd:string;
property:hasReward "0"^^xsd:double;
property:hasObservationFeature entity:IsWalk_living_room_1, entity:IsWalk_couch_1,
    entity:IsFind_couch_1, entity:IsSit_couch_1, entity:IsFind_remote_control_1,
    entity:IsFind_television_1, entity:IsTurnTo_television_1 .

entity:FinalState_Watch_TV_49 a concept:State;
property:isGoal "true"^^xsd:boolean;
property:isFinalState "true"^^xsd:boolean;
property:isInitialState "false"^^xsd:boolean;
property:hasExpression "IsWalk_living_room_1 == 1 AND IsWalk_couch_1 == 1 AND IsFind_couch_1 == 1 AND IsSit_couch_1 == 1 AND IsFind_remote_control_1 == 1 AND IsFind_television_1 == 1 AND IsTurnTo_television_1 == 1"^^xsd:string;
property:hasReward "0"^^xsd:double;
property:hasObservationFeature entity:IsWalk_living_room_1, entity:IsWalk_couch_1,
    entity:IsFind_couch_1, entity:IsSit_couch_1, entity:IsFind_remote_control_1,
    entity:IsFind_television_1, entity:IsTurnTo_television_1;
property:hasAction entity:TurnTo_television_1 .

# Observation Feature Entities
entity:IsWalk_living_room_1 a concept:ObservationFeature;
property:hasRangeStart "0"^^xsd:double;
property:hasRangeEnd "1"^^xsd:double;
property:hasFeatureType "NOMINAL"^^xsd:string;
property:hasUnit ""^^xsd:string .

entity:IsWalk_couch_1 a concept:ObservationFeature;
property:hasRangeStart "0"^^xsd:double;
property:hasRangeEnd "1"^^xsd:double;
property:hasFeatureType "NOMINAL"^^xsd:string;
property:hasUnit ""^^xsd:string .

entity:IsFind_couch_1 a concept:ObservationFeature;
property:hasRangeStart "0"^^xsd:double;
property:hasRangeEnd "1"^^xsd:double;
property:hasFeatureType "NOMINAL"^^xsd:string;
property:hasUnit ""^^xsd:string .

entity:IsSit_couch_1 a concept:ObservationFeature;
property:hasRangeStart "0"^^xsd:double;
property:hasRangeEnd "1"^^xsd:double;
property:hasFeatureType "NOMINAL"^^xsd:string;
property:hasUnit ""^^xsd:string .

entity:IsFind_remote_control_1 a concept:ObservationFeature;
property:hasRangeStart "0"^^xsd:double;
property:hasRangeEnd "1"^^xsd:double;
property:hasFeatureType "NOMINAL"^^xsd:string;
property:hasUnit ""^^xsd:string .

entity:IsFind_television_1 a concept:ObservationFeature;
property:hasRangeStart "0"^^xsd:double;
property:hasRangeEnd "1"^^xsd:double;
property:hasFeatureType "NOMINAL"^^xsd:string;
property:hasUnit ""^^xsd:string .

entity:IsTurnTo_television_1 a concept:ObservationFeature;
property:hasRangeStart "0"^^xsd:double;
property:hasRangeEnd "1"^^xsd:double;
property:hasFeatureType "NOMINAL"^^xsd:string;
property:hasUnit ""^^xsd:string .

# Action Entities
entity:Walk_living_room_1 a concept:Action;
property:HasTransition entity:72a984e7-8a0a-5031-826f-be10eb86c197;
property:HasEffect entity:SetWalk_living_room_1 .

entity:Walk_couch_1 a concept:Action;
property:HasTransition entity:76675629-4eca-5a3c-823e-3fba224729a9;
property:HasEffect entity:SetWalk_couch_1 .

entity:Find_couch_1 a concept:Action;
property:HasTransition entity:a6561afb-6059-5168-9256-2a3d8e8f1133;
property:HasEffect entity:SetFind_couch_1 .

entity:Sit_couch_1 a concept:Action;
property:HasTransition entity:0f0ce1e9-864c-5fa3-9648-adadd50756c3;
property:HasEffect entity:SetSit_couch_1 .

entity:Find_remote_control_1 a concept:Action;
property:HasTransition entity:da81018f-4402-51dc-b9ac-2736d857283a;
property:HasEffect entity:SetFind_remote_control_1 .

entity:Find_television_1 a concept:Action;
property:HasTransition entity:8c3b1e7e-62bd-5a53-868c-d97755e49986;
property:HasEffect entity:SetFind_television_1 .

entity:TurnTo_television_1 a concept:Action;
property:HasTransition entity:35fb0fcd-9db7-5f5a-9dbb-43f12b3fba4b;
property:HasTransition entity:f7432725-2c01-5392-bcb3-99df7f3aa728;
property:HasEffect entity:SetTurnTo_television_1 .

# Transition Entities
entity:72a984e7-8a0a-5031-826f-be10eb86c197 a concept:Transition;
property:HasPreviousState entity:InitialState_Watch_TV_49;
property:HasNextState entity:Walk_living_room_1_Done;
property:HasAction entity:Walk_living_room_1;
property:HasTransitionProbability "1"^^xsd:double.

entity:76675629-4eca-5a3c-823e-3fba224729a9 a concept:Transition;
property:HasPreviousState entity:Walk_living_room_1_Done;
property:HasNextState entity:Walk_couch_1_Done;
property:HasAction entity:Walk_couch_1;
property:HasTransitionProbability "1"^^xsd:double.

entity:a6561afb-6059-5168-9256-2a3d8e8f1133 a concept:Transition;
property:HasPreviousState entity:Walk_couch_1_Done;
property:HasNextState entity:Find_couch_1_Done;
property:HasAction entity:Find_couch_1;
property:HasTransitionProbability "1"^^xsd:double.

entity:0f0ce1e9-864c-5fa3-9648-adadd50756c3 a concept:Transition;
property:HasPreviousState entity:Find_couch_1_Done;
property:HasNextState entity:Sit_couch_1_Done;
property:HasAction entity:Sit_couch_1;
property:HasTransitionProbability "1"^^xsd:double.

entity:da81018f-4402-51dc-b9ac-2736d857283a a concept:Transition;
property:HasPreviousState entity:Sit_couch_1_Done;
property:HasNextState entity:Find_remote_control_1_Done;
property:HasAction entity:Find_remote_control_1;
property:HasTransitionProbability "1"^^xsd:double.

entity:8c3b1e7e-62bd-5a53-868c-d97755e49986 a concept:Transition;
property:HasPreviousState entity:Find_remote_control_1_Done;
property:HasNextState entity:Find_television_1_Done;
property:HasAction entity:Find_television_1;
property:HasTransitionProbability "1"^^xsd:double.

entity:35fb0fcd-9db7-5f5a-9dbb-43f12b3fba4b a concept:Transition;
property:HasPreviousState entity:Find_television_1_Done;
property:HasNextState entity:TurnTo_television_1_Done;
property:HasAction entity:TurnTo_television_1;
property:HasTransitionProbability "1"^^xsd:double.

entity:f7432725-2c01-5392-bcb3-99df7f3aa728 a concept:Transition;
property:HasPreviousState entity:TurnTo_television_1_Done;
property:HasNextState entity:FinalState_Watch_TV_49;
property:HasAction entity:TurnTo_television_1;
property:HasTransitionProbability "1"^^xsd:double.

# Effect Entities
entity:SetWalk_living_room_1 a concept:Effect;
property:hasImpactType "ON"^^xsd:string;
property:hasObservationFeature entity:IsWalk_living_room_1 .

entity:SetWalk_couch_1 a concept:Effect;
property:hasImpactType "ON"^^xsd:string;
property:hasObservationFeature entity:IsWalk_couch_1 .

entity:SetFind_couch_1 a concept:Effect;
property:hasImpactType "ON"^^xsd:string;
property:hasObservationFeature entity:IsFind_couch_1 .

entity:SetSit_couch_1 a concept:Effect;
property:hasImpactType "ON"^^xsd:string;
property:hasObservationFeature entity:IsSit_couch_1 .

entity:SetFind_remote_control_1 a concept:Effect;
property:hasImpactType "ON"^^xsd:string;
property:hasObservationFeature entity:IsFind_remote_control_1 .

entity:SetFind_television_1 a concept:Effect;
property:hasImpactType "ON"^^xsd:string;
property:hasObservationFeature entity:IsFind_television_1 .

entity:SetTurnTo_television_1 a concept:Effect;
property:hasImpactType "ON"^^xsd:string;
property:hasObservationFeature entity:IsTurnTo_television_1 .
"""

DESK_TRAIN = dict(dimension=50, **DESK_SCALE, rng_seed=7)


@pytest.fixture(autouse=True)
def no_leaked_worker_processes():
    """Fail a test that leaves child processes running, as pyproject's
    ``error::ResourceWarning`` filter fails one that leaks a socket or file."""
    yield
    leaked = multiprocessing.active_children()
    if leaked:
        pytest.fail(f"test left worker processes running: {leaked}")


@pytest.fixture(scope="session")
def corpus():
    return mini_corpus()


@pytest.fixture(scope="session")
def graphs(corpus):
    return corpus_graphs(corpus)


@pytest.fixture(scope="session")
def graph_list(corpus, graphs):
    return [graphs[s.activity_name] for s in corpus.scripts]


@pytest.fixture(scope="session")
def desk_store(graph_list):
    return Store(graph_list)


@pytest.fixture(scope="session")
def vocab(graph_list):
    return build_vocabulary(graph_list)


@pytest.fixture(scope="session")
def desk_table(graph_list, vocab):
    return train(graph_list, vocab, TrainConfig(**DESK_TRAIN))


@pytest.fixture(scope="session")
def desk_space(vocab, desk_table):
    return space_from_table(vocab, desk_table)


def watch_tv_49_script() -> VhScript:
    return next(s for s in mini_corpus().scripts if s.activity_name == "Watch_TV_49")


def watch_tv_49_graph() -> KnowledgeGraph:
    return script_to_kg(watch_tv_49_script())


_OPS = ["==", "!=", "<", "<=", ">", ">="]
_CONSTANTS = ["0", "1", "0.5", "2", '"on"']


def random_rule(rng: random.Random, features: list[str]) -> str:
    """A disjunction of conjunctions over ``features`` with every operator
    and both constant kinds, so rules can hold through a later clause and
    can raise EvaluationError."""
    return " OR ".join(
        " AND ".join(
            f"{rng.choice(features)} {rng.choice(_OPS)} {rng.choice(_CONSTANTS)}"
            for _ in range(rng.randint(1, 3))
        )
        for _ in range(rng.randint(1, 3))
    )


def make_random_graph(rng: random.Random) -> KnowledgeGraph:
    """A random valid activity graph: a step chain with optional stochastic
    branch, mixed feature statistics, an equation effect and sometimes an
    opaque extra triple."""
    g = KnowledgeGraph()
    tag = rng.randrange(10_000)
    n = rng.randint(1, 6)
    name = f"Fuzz_{tag}"
    feats = [f"F{tag}_{k}" for k in range(n)]
    states = [f"S{tag}_{k}_Done" for k in range(n)]
    actions = [f"A{tag}_{k}" for k in range(n)]
    initial, final = f"InitialState_{name}", f"FinalState_{name}"

    extra_feat = None
    if rng.random() < 0.6:
        extra_feat = f"Extra{tag}"
        dist = rng.choice(
            [None, Distribution.GAUSSIAN, Distribution.POISSON, Distribution.BINOMIAL]
        )
        kwargs = {}
        if dist is Distribution.GAUSSIAN:
            kwargs = dict(mean=rng.uniform(-5, 5), standard_deviation=rng.uniform(0, 3))
        elif dist is Distribution.POISSON:
            kwargs = dict(lambda_=rng.uniform(0.1, 4.0))
        elif dist is Distribution.BINOMIAL:
            kwargs = dict(success_rate=rng.random(), number_experiments=rng.randint(1, 9))
        g.add(
            ObservationFeature(
                name=extra_feat,
                range_start=0.0,
                range_end=rng.uniform(1.0, 10.0),
                feature_type=rng.choice(list(FeatureType)),
                unit=rng.choice([None, "", "cm", "s"]),
                distribution=dist,
                median=rng.choice([None, rng.uniform(-2, 2)]),
                **kwargs,
            )
        )

    for k in range(n):
        g.add(
            ObservationFeature(
                name=feats[k],
                range_start=0.0,
                range_end=1.0,
                feature_type=FeatureType.NOMINAL,
                unit="",
            )
        )
        g.add(
            State(
                name=states[k],
                is_initial_state=False,
                is_final_state=(k == n - 1),
                is_goal=(k == n - 1),
                reward=rng.choice([0.0, rng.uniform(-1, 1)]),
                expression=f"{feats[k]} == 1",
                observation_features=[feats[k]],
                actions=[actions[k]],
            )
        )
        g.add(
            Effect(
                name=f"Set_{actions[k]}",
                target_features=[feats[k]],
                impact_type=ImpactType.ON,
            )
        )

    g.add(
        State(
            name=initial,
            is_initial_state=True,
            is_final_state=False,
            is_goal=False,
            reward=0.0,
            expression=" AND ".join(f"{f} == 0" for f in feats),
            observation_features=list(feats),
        )
    )
    g.add(
        State(
            name=final,
            is_initial_state=False,
            is_final_state=True,
            is_goal=True,
            reward=0.0,
            expression=" AND ".join(f"{f} == 1" for f in feats),
            observation_features=list(feats),
        )
    )

    chain = [initial] + states + [final]
    chain_actions = actions + [actions[-1]]
    action_transitions = {a: [] for a in actions}
    for k in range(n + 1):
        t = f"T{tag}_{k}"
        g.add(
            Transition(
                name=t,
                previous_state=chain[k],
                next_state=chain[k + 1],
                action=chain_actions[k],
                probability=1.0,
            )
        )
        action_transitions[chain_actions[k]].append(t)

    # optional stochastic branch action out of the initial state
    if n >= 2 and rng.random() < 0.5:
        branch = f"A{tag}_branch"
        p = round(rng.uniform(0.1, 0.9), 3)
        g.add(
            Effect(
                name=f"Set_{branch}",
                target_features=[feats[0]],
                impact_type=rng.choice([ImpactType.CONSTANT, ImpactType.CONVERT]),
            )
        )
        g.add(
            Transition(
                name=f"T{tag}_b0",
                previous_state=initial,
                next_state=states[0],
                action=branch,
                probability=p,
            )
        )
        g.add(
            Transition(
                name=f"T{tag}_b1",
                previous_state=initial,
                next_state=states[1],
                action=branch,
                probability=1.0 - p,
            )
        )
        g.add(Action(name=branch, effects=[f"Set_{branch}"], transitions=[f"T{tag}_b0", f"T{tag}_b1"]))
        actions_all = actions + [branch]
    else:
        actions_all = list(actions)

    equation_effect = None
    if extra_feat is not None and rng.random() < 0.5:
        g.add(Parameter(name=f"P{tag}", parameter_name="gain", value=rng.uniform(0.5, 2)))
        g.add(
            Equation(
                name=f"Eq{tag}",
                expression=f"gain * {extra_feat} + 1",
                parameters=[f"P{tag}"],
            )
        )
        equation_effect = f"Compute_{tag}"
        g.add(
            Effect(
                name=equation_effect,
                target_features=[extra_feat],
                impact_type=ImpactType.COMPUTE,
                equation=f"Eq{tag}",
            )
        )

    for k, a in enumerate(actions):
        effects = [f"Set_{a}"]
        if equation_effect and k == 0:
            effects.append(equation_effect)
        g.add(
            Action(
                name=a,
                effects=effects,
                transitions=action_transitions[a],
                duration=rng.choice([None, rng.uniform(0.5, 10)]),
                frequency=rng.choice([None, rng.randint(1, 5)]),
            )
        )

    all_feats = feats + ([extra_feat] if extra_feat else [])
    g.add(
        Activity(
            name=name,
            is_sequential=True,
            number_of_actors=rng.randint(1, 3),
            communication_type=rng.choice(list(CommunicationType)),
            states=chain[:],
            actions=actions_all,
            observation_features=all_feats,
        )
    )

    if rng.random() < 0.4:
        g.add_extra_triple(name, "customNote", '"fuzzed"^^xsd:string')

    g.validate()
    return g
