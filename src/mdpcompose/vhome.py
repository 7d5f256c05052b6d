"""Parsing of household activity scripts and their translation to MDP graphs.

Script format: a name line, one or more description lines, a blank
separator, then one ``[Verb] <object> (index)`` line per step. Each script
becomes one sequential activity whose states chain through the step actions
with probability one.

Every name a script gives ends up in entity names, so ``parse_script``
refuses the names that would not round-trip: an activity name whose
underscored form is not a Turtle local name, and a verb or object with a
character outside ``[A-Za-z0-9_]``, since both go into feature names that
state rules read.
"""

from __future__ import annotations

import logging
import re
from collections import Counter
from dataclasses import dataclass, field, replace
from pathlib import Path

from .kg import (
    Action,
    Activity,
    CommunicationType,
    Effect,
    FeatureType,
    ImpactType,
    KnowledgeGraph,
    ObservationFeature,
    State,
    Transition,
    transition_name,
)
from .turtle_io import is_local_name

log = logging.getLogger(__name__)

_STEP_LINE = re.compile(r"^\s*\[([^\]\s]+)\]\s*<([^>\s]+)>\s*\((\d+)\)\s*$")
_STEP_WORD = re.compile(r"[A-Za-z0-9_]+")


@dataclass(frozen=True)
class VhStep:
    verb: str
    object: str
    index: int


@dataclass
class VhScript:
    activity_name: str
    description: str
    steps: list[VhStep]


@dataclass
class VhCorpus:
    scripts: list[VhScript] = field(default_factory=list)
    skipped_files: list[str] = field(default_factory=list)

    def length_histogram(self) -> dict[int, int]:
        hist: dict[int, int] = {}
        for script in self.scripts:
            hist[len(script.steps)] = hist.get(len(script.steps), 0) + 1
        return hist


def parse_script(text: str) -> VhScript:
    """Parse one activity script; raises ValueError with the line number."""
    lines = text.splitlines()
    if not lines or not lines[0].strip():
        raise ValueError("line 1: missing activity name")
    name = lines[0].strip()
    if not is_local_name(name.replace(" ", "_")):
        raise ValueError(f"line 1: activity name {name!r} is not a Turtle local name")

    description_lines = []
    i = 1
    while i < len(lines) and lines[i].strip():
        description_lines.append(lines[i].strip())
        i += 1

    steps: list[VhStep] = []
    for lineno in range(i, len(lines)):
        line = lines[lineno]
        if not line.strip():
            continue
        m = _STEP_LINE.match(line)
        if not m:
            raise ValueError(f"line {lineno + 1}: malformed step line {line.strip()!r}")
        verb, obj, index = m.group(1), m.group(2), int(m.group(3))
        for word in (verb, obj):
            if not _STEP_WORD.fullmatch(word):
                raise ValueError(
                    f"line {lineno + 1}: {word!r} has a character outside [A-Za-z0-9_]"
                )
        if index < 1:
            raise ValueError(f"line {lineno + 1}: step index must be positive")
        steps.append(VhStep(verb, obj, index))
    if not steps:
        raise ValueError("script contains no step lines")
    return VhScript(name, " ".join(description_lines), steps)


def step_identifiers(script: VhScript) -> list[str]:
    """Unique per-step identifiers ``Verb_object_index``; repeated steps in
    one script get ``_2``, ``_3``, ... occurrence suffixes."""
    seen: dict[str, int] = {}
    out = []
    for step in script.steps:
        base = f"{step.verb}_{step.object}_{step.index}"
        count = seen.get(base, 0) + 1
        seen[base] = count
        out.append(base if count == 1 else f"{base}_{count}")
    return out


def action_sequence(script: VhScript) -> list[str]:
    """The ground-truth action names for replaying the script in order."""
    return step_identifiers(script)


def activity_entity_name(script: VhScript) -> str:
    return script.activity_name.replace(" ", "_")


def script_to_kg(script: VhScript) -> KnowledgeGraph:
    """Build the sequential activity graph for one script.

    For n steps: n actions, n features, n+2 states (step states plus an
    initial and a final state) and n+1 probability-one transitions chaining
    initial -> step1 -> ... -> stepN -> final. The last step state carries
    the goal and final flags so that replaying the script terminates the
    activity after exactly n actions.
    """
    graph = KnowledgeGraph()
    name = activity_entity_name(script)
    ids = step_identifiers(script)
    n = len(ids)

    feature_names = [f"Is{i}" for i in ids]
    state_names = [f"{i}_Done" for i in ids]
    initial_name = f"InitialState_{name}"
    final_name = f"FinalState_{name}"

    activity = Activity(
        name=name,
        is_sequential=True,
        number_of_actors=1,
        communication_type=CommunicationType.ASYNCHRONOUS,
        states=state_names + [initial_name, final_name],
        actions=list(ids),
        observation_features=list(feature_names),
    )
    graph.add(activity)

    for k, ident in enumerate(ids):
        graph.add(
            State(
                name=state_names[k],
                is_initial_state=False,
                is_final_state=(k == n - 1),
                is_goal=(k == n - 1),
                reward=0.0,
                expression=f"{feature_names[k]} == 1",
                observation_features=[feature_names[k]],
                actions=[ident],
            )
        )
        graph.add(
            ObservationFeature(
                name=feature_names[k],
                range_start=0.0,
                range_end=1.0,
                feature_type=FeatureType.NOMINAL,
                unit="",
            )
        )
        graph.add(
            Effect(
                name=f"Set{ident}",
                target_features=[feature_names[k]],
                impact_type=ImpactType.ON,
            )
        )

    graph.add(
        State(
            name=initial_name,
            is_initial_state=True,
            is_final_state=False,
            is_goal=False,
            reward=0.0,
            expression=" AND ".join(f"{f} == 0" for f in feature_names),
            observation_features=list(feature_names),
        )
    )
    graph.add(
        State(
            name=final_name,
            is_initial_state=False,
            is_final_state=True,
            is_goal=True,
            reward=0.0,
            expression=" AND ".join(f"{f} == 1" for f in feature_names),
            observation_features=list(feature_names),
            actions=[ids[-1]],
        )
    )

    chain = [initial_name] + state_names + [final_name]
    chain_actions = list(ids) + [ids[-1]]
    transition_names: dict[str, list[str]] = {i: [] for i in ids}
    for k in range(n + 1):
        t_name = transition_name(chain[k], chain_actions[k], chain[k + 1])
        graph.add(
            Transition(
                name=t_name,
                previous_state=chain[k],
                next_state=chain[k + 1],
                action=chain_actions[k],
                probability=1.0,
            )
        )
        transition_names[chain_actions[k]].append(t_name)

    for ident in ids:
        graph.add(
            Action(
                name=ident,
                effects=[f"Set{ident}"],
                transitions=transition_names[ident],
            )
        )

    graph.validate()
    return graph


def dedupe_activity_names(scripts: list[VhScript]) -> list[VhScript]:
    """Rename scripts so activity names are unique: members of a duplicate
    name group get consecutive ``_1``, ``_2``, ... suffixes, skipping every
    name that another script has or that an earlier rename gave."""
    keys = [activity_entity_name(script) for script in scripts]
    group_sizes = Counter(keys)
    taken = set(keys)
    counters: dict[str, int] = {}
    out = []
    for script, key in zip(scripts, keys):
        name = key
        if group_sizes[key] > 1:
            while name in taken:
                counters[key] = counters.get(key, 0) + 1
                name = f"{key}_{counters[key]}"
            taken.add(name)
        out.append(replace(script, activity_name=name))
    return out


def load_corpus(directory) -> VhCorpus:
    """Parse every script file in a directory (sorted by filename).

    Unreadable or malformed files are skipped with a warning and counted in
    ``skipped_files``.
    """
    corpus = VhCorpus()
    paths = sorted(p for p in Path(directory).iterdir() if p.is_file())
    scripts = []
    for path in paths:
        try:
            scripts.append(parse_script(path.read_text(encoding="utf-8")))
        except (OSError, ValueError, UnicodeDecodeError) as exc:
            log.warning("skipping %s: %s", path.name, exc)
            corpus.skipped_files.append(path.name)
    corpus.scripts = dedupe_activity_names(scripts)
    return corpus
