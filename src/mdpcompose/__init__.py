"""Activity knowledge graphs, entity embeddings and on-demand policy
composition by agent ensembles, with a DQN training baseline."""

from .composer import PolicyTable, compose, policy_table_json
from .embedding import TrainConfig, build_vocabulary, export_tsv, train
from .hmm import HmmModel, LogRow, fit_hmm, hmm_to_kg, most_likely_next, viterbi_path
from .json_io import from_json, to_json
from .kg import KnowledgeGraph
from .simulation import SimState, make_simulation, recognize_state
from .space import EmbeddingSpace, load_tsv
from .turtle_io import parse_turtle, write_turtle
from .vhome import VhCorpus, VhScript, load_corpus, parse_script, script_to_kg

__version__ = "0.1.0"

__all__ = [
    "EmbeddingSpace",
    "HmmModel",
    "KnowledgeGraph",
    "LogRow",
    "PolicyTable",
    "SimState",
    "TrainConfig",
    "VhCorpus",
    "VhScript",
    "build_vocabulary",
    "compose",
    "export_tsv",
    "fit_hmm",
    "from_json",
    "hmm_to_kg",
    "load_corpus",
    "load_tsv",
    "make_simulation",
    "most_likely_next",
    "parse_script",
    "parse_turtle",
    "policy_table_json",
    "recognize_state",
    "script_to_kg",
    "to_json",
    "train",
    "viterbi_path",
    "write_turtle",
    "__version__",
]
