"""Bundled desk-scale corpus: the Watch_TV_49 activity plus synthetic
household scripts spanning sequence lengths 2 to 30.

The synthetic scripts draw verb/object steps from fixed pools through a
deterministic slice of the verb x object product, so step names overlap
across activities the way real household data does.
"""

from __future__ import annotations

from .kg import KnowledgeGraph
from .vhome import VhCorpus, dedupe_activity_names, parse_script, script_to_kg

WATCH_TV_TEXT = """\
Watch TV 49
walk to living room, find couch, sit on couch, find remote control,
turn on tv by pressing button


[Walk] <living_room> (1)
[Walk] <couch> (1)
[Find] <couch> (1)
[Sit] <couch> (1)
[Find] <remote_control> (1)
[Find] <television> (1)
[TurnTo] <television> (1)
"""

_VERBS = [
    "Walk", "Find", "Grab", "Open", "Close", "Push", "Pull", "Sit", "StandUp",
    "Wash", "Rinse", "Wipe", "Fill", "Pour", "Touch", "PointAt", "SwitchOn",
    "SwitchOff", "PutBack", "LookAt", "Squeeze", "Type", "Drink", "Cut",
    "Read", "TurnTo", "Run", "Climb", "Lie", "Cover",
]

_OBJECTS = [
    "kitchen", "living_room", "bathroom", "bedroom", "hallway", "garage",
    "sink", "faucet", "towel", "cup", "plate", "bowl", "coffee_maker",
    "kettle", "fridge", "freezer", "cabinet", "drawer", "table", "chair",
    "couch", "bed", "lamp", "window", "door", "washing_machine", "detergent",
    "basket", "plant", "watering_can", "food_bowl", "cat", "vacuum", "shelf",
    "box", "keyboard", "book", "toilet", "shower", "soap",
]

_SYNTHETIC = [
    ("Make coffee", 2, 17),
    ("Wash hands", 3, 52),
    ("Water plants", 4, 101),
    ("Feed cat", 5, 160),
    ("Read book", 6, 233),
    ("Wash dishes", 8, 310),
    ("Do laundry", 10, 401),
    ("Clean bathroom", 12, 515),
    ("Prepare dinner", 16, 640),
    ("Clean kitchen", 22, 777),
    ("Morning routine", 30, 905),
]


def synthetic_script_text(name: str, length: int, offset: int) -> str:
    pairs = [(v, o) for v in _VERBS for o in _OBJECTS]
    lines = [name, f"synthetic household routine with {length} steps", ""]
    for k in range(length):
        verb, obj = pairs[(offset + k) % len(pairs)]
        lines.append(f"[{verb}] <{obj}> (1)")
    return "\n".join(lines) + "\n"


def script_texts() -> list[str]:
    return [WATCH_TV_TEXT] + [
        synthetic_script_text(name, length, offset)
        for name, length, offset in _SYNTHETIC
    ]


def mini_corpus() -> VhCorpus:
    scripts = [parse_script(text) for text in script_texts()]
    return VhCorpus(scripts=dedupe_activity_names(scripts))


def corpus_graphs(corpus: VhCorpus | None = None) -> dict[str, KnowledgeGraph]:
    corpus = corpus or mini_corpus()
    return {s.activity_name: script_to_kg(s) for s in corpus.scripts}
