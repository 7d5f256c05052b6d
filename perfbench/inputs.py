"""Workload inputs, all derived from the workload seed.

The desk corpus is the bundled mini-corpus. The scaled corpus is 200
synthetic scripts of lengths 2 to 8 whose verb/object offsets come from the
seed. Request sequences are fixed-count: every pass sends the same multiset
of bodies, and the seed decides their order and which activities supply
the unknown-state and malformed bodies.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

from mdpcompose import sample_corpus, vhome

# Training budget and seed of scripts/run_benchmark.py at desk scale; the
# pipeline's pinned output digests were recorded with exactly these.
DESK_TRAIN = dict(iterations=200, epochs_per_iteration=5, batch_size=256)
FIXED_SEED = 42
CAPS = [1, 10, 100]

SCALED_ACTIVITIES = 200
# Body kinds of a scaled pass per 20 activities: mostly featureValues.
SCALED_KINDS = (
    ["features-initial"] * 7 + ["features-mid"] * 7
    + ["name-initial"] * 3 + ["name-mid"] * 3
)
DESK_UNKNOWN = 4


def desk_texts() -> list[str]:
    return sample_corpus.script_texts()


def scaled_texts(seed: int) -> list[str]:
    rng = random.Random(f"scaled-corpus:{seed}")
    return [
        sample_corpus.synthetic_script_text(
            f"Scaled routine {i:03d}", 2 + i % 7, rng.randrange(1 << 30)
        )
        for i in range(SCALED_ACTIVITIES)
    ]


def parse_corpus(texts: list[str]):
    """Scripts in store order (the store sorts its files by activity name)."""
    scripts = vhome.dedupe_activity_names([vhome.parse_script(t) for t in texts])
    return sorted(scripts, key=lambda s: s.activity_name)


@dataclass(frozen=True)
class Request:
    kind: str
    body: bytes


def _json(document) -> bytes:
    return json.dumps(document, separators=(",", ":")).encode("utf-8")


def _states(script):
    """(initial, mid) as (state name, feature map) pairs. The mid state is
    the one after the first half of the steps; its feature map pins that
    step's feature to 1 over range-start defaults, as the graph's rule
    for the state reads."""
    ids = vhome.step_identifiers(script)
    features = [f"Is{i}" for i in ids]
    k = (len(ids) - 1) // 2
    initial = (f"InitialState_{script.activity_name}", {f: 0 for f in features})
    mid = (f"{ids[k]}_Done", {f: int(j == k) for j, f in enumerate(features)})
    return initial, mid


def _body(kind: str, script) -> bytes:
    form, _, which = kind.partition("-")
    initial, mid = _states(script)
    name, features = initial if which == "initial" else mid
    if form == "name":
        return _json({"stateName": name})
    return _json({"featureValues": features})


def _unknown(script) -> Request:
    # Every feature of one activity at a value no rule accepts: no state of
    # any graph matches, so recognition scans the whole store.
    _initial, (_name, features) = _states(script)
    return Request("unknown", _json({"featureValues": {f: 0.5 for f in features}}))


def _malformed(rng: random.Random, bodies: list[bytes]) -> Request:
    body = rng.choice(bodies)
    return Request("malformed", body[: rng.randrange(1, len(body) - 1)])


def request_sequence(workload: str, scripts, seed: int) -> list[Request]:
    """One pass of the closed-loop load, in send order."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "serve-desk":
        # initial and mid states of every activity, in both body forms
        valid = [
            Request(kind, _body(kind, s))
            for s in scripts
            for kind in ("name-initial", "name-mid", "features-initial", "features-mid")
        ]
        unknown = [_unknown(s) for s in rng.sample(scripts, DESK_UNKNOWN)]
    else:
        # one body per activity, mostly featureValues; every store position
        # is covered, so featureValues recognition scans to every depth
        kinds = [SCALED_KINDS[i % len(SCALED_KINDS)] for i in range(len(scripts))]
        rng.shuffle(kinds)
        valid = [Request(kind, _body(kind, s)) for kind, s in zip(kinds, scripts)]
        # 18 per 100 activities: about 15% of the pass
        unknown = [_unknown(s) for s in rng.sample(scripts, len(scripts) * 18 // 100)]
    malformed = [
        _malformed(rng, [r.body for r in valid]) for _ in range(max(2, len(valid) // 50))
    ]
    sequence = valid + unknown + malformed
    rng.shuffle(sequence)
    return sequence
