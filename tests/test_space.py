import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from mdpcompose.embedding import Vocabulary
from mdpcompose.errors import UnknownEntityError, UnknownSituationError
from mdpcompose.kg import Concept
from mdpcompose.space import EmbeddingSpace, load_tsv


def _space(names_concepts, matrix):
    vocab = Vocabulary()
    for name, concept in names_concepts:
        vocab.add(name, concept)
    return EmbeddingSpace(vocab, np.asarray(matrix, dtype=float))


def _basic_space():
    return _space(
        [
            ("S", Concept.STATE),
            ("A1", Concept.ACTION),
            ("A2", Concept.ACTION),
            ("A3", Concept.ACTION),
            ("Other", Concept.ACTIVITY),
        ],
        [
            [1.0, 0.0],
            [1.0, 0.0],
            [0.0, 1.0],
            [-1.0, 0.0],
            [1.0, 0.0],
        ],
    )


def _distances_from(space, name):
    """The distance from ``name`` to every action, read from the search."""
    return dict(space.find_closest_actions(name, np.inf))


def test_identical_vectors_distance_zero():
    assert _distances_from(_basic_space(), "S")["A1"] == pytest.approx(0.0)


def test_orthogonal_vectors_distance_one():
    assert _distances_from(_basic_space(), "S")["A2"] == pytest.approx(1.0)


def test_antipodal_vectors_distance_two():
    assert _distances_from(_basic_space(), "S")["A3"] == pytest.approx(2.0)


def test_distance_symmetric():
    space = _basic_space()
    assert _distances_from(space, "A1")["A2"] == _distances_from(space, "A2")["A1"]


def test_unknown_entity_errors():
    # the vocabulary lookup the search builds on, and the search itself,
    # which rejects the unknown query on every call: nothing is kept
    space = _basic_space()
    with pytest.raises(UnknownEntityError):
        space.vocab.index("Nope")
    for _ in range(2):
        with pytest.raises(UnknownSituationError):
            space.find_closest_actions("Nope", 1.0)


def test_zero_norm_vector_errors():
    space = _space([("S", Concept.STATE), ("A", Concept.ACTION)], [[0.0, 0.0], [1.0, 0.0]])
    for _ in range(2):
        with pytest.raises(ValueError):
            space.find_closest_actions("S", 1.0)


def test_find_closest_full_radius_returns_all_actions_sorted():
    space = _basic_space()
    hits = space.find_closest_actions("S", radius=2.0)
    assert [name for name, _ in hits] == ["A1", "A2", "A3"]
    assert [d for _, d in hits] == sorted(d for _, d in hits)


def test_find_closest_excludes_non_actions():
    hits = _basic_space().find_closest_actions("S", radius=2.0)
    assert "Other" not in [n for n, _ in hits]
    assert "S" not in [n for n, _ in hits]


def test_radius_zero_keeps_only_coincident():
    hits = _basic_space().find_closest_actions("S", radius=0.0)
    assert [n for n, _ in hits] == ["A1"]


def test_radius_zero_empty_when_nothing_coincides():
    space = _space(
        [("S", Concept.STATE), ("A", Concept.ACTION)], [[1.0, 0.0], [0.9, 0.1]]
    )
    assert space.find_closest_actions("S", radius=0.0) == []


def test_unknown_state_is_unknown_situation():
    with pytest.raises(UnknownSituationError):
        _basic_space().find_closest_actions("Missing", radius=1.0)


def test_tie_break_is_lexicographic():
    space = _space(
        [("S", Concept.STATE), ("B", Concept.ACTION), ("A", Concept.ACTION)],
        [[1.0, 0.0], [0.0, 1.0], [0.0, 1.0]],
    )
    hits = space.find_closest_actions("S", radius=1.5)
    assert [n for n, _ in hits] == ["A", "B"]


def _brute_force(space, state, radius):
    # deliberately unoptimized reference: python loops, no vectorization
    out = []
    sv = space.matrix[space.vocab.index(state)]
    for idx in range(len(space.vocab)):
        if space.vocab.concept(idx) is not Concept.ACTION:
            continue
        av = space.matrix[idx]
        na = float(np.sqrt((sv**2).sum()))
        nb = float(np.sqrt((av**2).sum()))
        if nb == 0.0:
            continue
        d = 1.0 - float((sv * av).sum()) / (na * nb)
        if d <= radius:
            out.append((space.vocab.name(idx), d))
    out.sort(key=lambda pair: (pair[1], pair[0]))
    return out


def assert_same_hits(fast, slow):
    """Same actions in the same order; distances equal to float noise."""
    assert [n for n, _ in fast] == [n for n, _ in slow]
    for (_, df), (_, ds) in zip(fast, slow):
        assert df == pytest.approx(ds, abs=1e-9)


def test_find_closest_matches_brute_force_on_random_fixtures():
    rng = np.random.default_rng(77)
    for _trial in range(30):
        n = int(rng.integers(3, 20))
        vocab_rows = [("State_0", Concept.STATE)]
        vocab_rows += [
            (f"Act_{k}", Concept.ACTION if rng.random() < 0.7 else Concept.ACTIVITY)
            for k in range(n)
        ]
        matrix = rng.normal(size=(n + 1, int(rng.integers(2, 8))))
        space = _space(vocab_rows, matrix)
        radius = float(rng.uniform(0.1, 2.0))
        assert_same_hits(
            space.find_closest_actions("State_0", radius),
            _brute_force(space, "State_0", radius),
        )


def test_load_tsv_row_count_mismatch(tmp_path):
    (tmp_path / "v.tsv").write_text("1.0\t2.0\n3.0\t4.0\n5.0\t6.0\n")
    (tmp_path / "m.tsv").write_text("name\tindex\tconcept\nA\t0\tAction\nB\t1\tAction\n")
    with pytest.raises(ValueError) as err:
        load_tsv(tmp_path / "v.tsv", tmp_path / "m.tsv")
    assert "mismatch" in str(err.value)


def test_load_tsv_non_numeric_reports_line(tmp_path):
    (tmp_path / "v.tsv").write_text("1.0\t2.0\noops\t4.0\n")
    (tmp_path / "m.tsv").write_text("name\tindex\tconcept\nA\t0\tAction\nB\t1\tAction\n")
    with pytest.raises(ValueError) as err:
        load_tsv(tmp_path / "v.tsv", tmp_path / "m.tsv")
    assert "line 2" in str(err.value)


def test_load_tsv_empty_files(tmp_path):
    (tmp_path / "v.tsv").write_text("")
    (tmp_path / "m.tsv").write_text("name\tindex\tconcept\n")
    space = load_tsv(tmp_path / "v.tsv", tmp_path / "m.tsv")
    assert len(space.vocab) == 0
    with pytest.raises(UnknownSituationError):
        space.find_closest_actions("anything", 1.0)


def test_load_tsv_missing_header(tmp_path):
    (tmp_path / "v.tsv").write_text("")
    (tmp_path / "m.tsv").write_text("nope\n")
    with pytest.raises(ValueError):
        load_tsv(tmp_path / "v.tsv", tmp_path / "m.tsv")


def test_watch_tv_space_matches_brute_force():
    # the 17-entity activity space: production scan equals the naive one
    from conftest import WATCH_TV_49_TTL
    from mdpcompose.embedding import build_vocabulary
    from mdpcompose.turtle_io import parse_turtle

    vocab = build_vocabulary([parse_turtle(WATCH_TV_49_TTL)])
    assert len(vocab) == 17
    rng = np.random.default_rng(123)
    space = EmbeddingSpace(vocab, rng.normal(size=(17, 6)))
    for radius in (0.1, 0.5, 1.0, 2.0):
        assert_same_hits(
            space.find_closest_actions("InitialState_Watch_TV_49", radius),
            _brute_force(space, "InitialState_Watch_TV_49", radius),
        )


# --- the array search against the comprehension it replaced ---------------

from hypothesis import given, settings
from hypothesis import strategies as st


def _comprehension_reference(space, state_name, radius):
    """``find_closest_actions`` as a per-call gather and a list
    comprehension over every action, sorted on (distance, name)."""
    try:
        idx = space.vocab.index(state_name)
    except UnknownEntityError:
        raise UnknownSituationError(state_name) from None
    action_indices = np.array(space.vocab.indices_of(Concept.ACTION), dtype=np.int64)
    if len(action_indices) == 0:
        return []
    all_norms = np.linalg.norm(space.matrix, axis=1)
    query = space.matrix[idx]
    rows = space.matrix[action_indices]
    qn = all_norms[idx]
    if qn == 0.0:
        raise ValueError("cosine distance is undefined for zero-norm vectors")
    norms = all_norms[action_indices]
    with np.errstate(divide="ignore", invalid="ignore"):
        distances = 1.0 - (rows @ query) / (norms * qn)
    distances[norms == 0.0] = np.inf
    hits = [
        (space.vocab.name(int(ai)), float(d))
        for ai, d in zip(action_indices, distances)
        if d <= radius
    ]
    hits.sort(key=lambda pair: (pair[1], pair[0]))
    return hits


@st.composite
def _fuzzed_spaces(draw):
    """Spaces whose action names sort differently from vocabulary order,
    with duplicated rows (tied distances), zero rows, NaN rows and a zero
    query."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    names = draw(
        st.lists(st.text(alphabet="aAbZ_9é", min_size=1, max_size=3), max_size=14, unique=True)
    )
    concepts = [
        draw(st.sampled_from([Concept.ACTION, Concept.ACTION, Concept.STATE, Concept.ACTIVITY]))
        for _ in names
    ]
    rows = [["Query", Concept.STATE]] + [[n, c] for n, c in zip(names, concepts) if n != "Query"]
    dimension = draw(st.integers(1, 5))
    matrix = rng.normal(size=(len(rows), dimension))
    for k in range(1, len(rows)):
        kind = draw(st.sampled_from(["random", "duplicate", "query", "zero", "nan"]))
        if kind == "duplicate":
            matrix[k] = matrix[draw(st.integers(1, len(rows) - 1))]
        elif kind == "query":
            matrix[k] = matrix[0]
        elif kind == "zero":
            matrix[k] = 0.0
        elif kind == "nan":
            matrix[k, 0] = np.nan
    if draw(st.integers(0, 3)) == 0:
        matrix[0] = 0.0
    return _space(rows, matrix)


_RADII = st.one_of(
    st.sampled_from([0.0, -0.5, -1e-300, np.inf, np.nan]),
    st.floats(min_value=0.0, max_value=6.0),
)


@settings(max_examples=300, deadline=None)
@given(_fuzzed_spaces(), _RADII)
def test_array_search_equals_the_comprehension_exactly(space, radius):
    try:
        expected = _comprehension_reference(space, "Query", radius)
    except ValueError as exc:
        with pytest.raises(ValueError, match=str(exc)):
            space.find_closest_actions("Query", radius)
        return
    assert space.find_closest_actions("Query", radius) == expected


def test_array_search_equals_the_comprehension_on_ties_and_name_order():
    # vocabulary order a, B, A_2, C; string order A_2, B, C, a; a and B tie,
    # A_2 and C are the zero row and a copy of the query
    rows = [
        ("S", Concept.STATE),
        ("a", Concept.ACTION),
        ("B", Concept.ACTION),
        ("A_2", Concept.ACTION),
        ("Other", Concept.ACTIVITY),
        ("C", Concept.ACTION),
    ]
    matrix = [[1.0, 1.0], [0.0, 1.0], [0.0, 1.0], [0.0, 0.0], [1.0, 1.0], [1.0, 1.0]]
    space = _space(rows, matrix)
    # growing, then shrinking and repeated radii: later ones read a kept row
    for radius in (0.0, 0.5, 1.0, 1.5, 2.0, np.inf, 1.0, 0.0, 0.0, 1e308):
        expected = _comprehension_reference(space, "S", radius)
        assert space.find_closest_actions("S", radius) == expected
    assert [n for n, _ in space.find_closest_actions("S", np.inf)] == ["C", "B", "a", "A_2"]
    assert space.find_closest_actions("S", -1.0) == []
    assert space.find_closest_actions("S", np.nan) == []


def test_zero_norm_query_is_rejected_only_with_actions():
    with_actions = _space([("S", Concept.STATE), ("A", Concept.ACTION)], [[0.0, 0.0], [1.0, 0.0]])
    with pytest.raises(ValueError):
        with_actions.find_closest_actions("S", 1.0)
    without = _space([("S", Concept.STATE), ("X", Concept.ACTIVITY)], [[0.0, 0.0], [1.0, 0.0]])
    assert without.find_closest_actions("S", 1.0) == []


# --- the kept row: later searches from a state read what the first built ---

_RADIUS_SEQUENCES = st.lists(
    st.one_of(st.sampled_from([0.0, -0.5, np.inf, np.nan, 0.25, 1.0]), st.floats(0.0, 6.0)),
    min_size=2,
    max_size=12,
)


@settings(max_examples=200, deadline=None)
@given(_fuzzed_spaces(), _RADIUS_SEQUENCES)
def test_a_warm_row_equals_the_comprehension_at_every_radius(space, radii):
    # growing, shrinking and repeated radii against one space and state
    for radius in radii + sorted(r for r in radii if r == r) + radii[::-1]:
        try:
            expected = _comprehension_reference(space, "Query", radius)
        except ValueError as exc:
            with pytest.raises(ValueError, match=str(exc)):
                space.find_closest_actions("Query", radius)
            continue
        assert space.find_closest_actions("Query", radius) == expected


def test_mutating_a_result_leaves_the_next_search_unchanged():
    space = _basic_space()
    first = space.find_closest_actions("S", 2.0)
    expected = list(first)
    first.clear()
    space.find_closest_actions("S", 0.5).append(("X", -1.0))
    assert space.find_closest_actions("S", 2.0) == expected
    assert space.find_closest_actions("S", 2.0) is not space.find_closest_actions("S", 2.0)


def test_threads_searching_one_cold_state_all_get_the_reference():
    rng = np.random.default_rng(11)
    rows = [("S", Concept.STATE)] + [(f"A{k:03d}", Concept.ACTION) for k in range(300)]
    space = _space(rows, rng.normal(size=(301, 8)))
    expected = _comprehension_reference(space, "S", 1.0)
    barrier = threading.Barrier(8)

    def search():
        barrier.wait()
        return space.find_closest_actions("S", 1.0)

    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(lambda _: search(), range(8)))
    assert all(result == expected for result in results)
    assert space.find_closest_actions("S", 1.0) == expected


def test_the_row_is_built_once_per_state(monkeypatch):
    built = []
    sorted_row = EmbeddingSpace._sorted_row

    def counting(self, state_name):
        built.append(state_name)
        return sorted_row(self, state_name)

    monkeypatch.setattr(EmbeddingSpace, "_sorted_row", counting)
    space = _basic_space()
    for radius in (0.25, 0.5, 2.0, 0.0, np.nan, np.inf, 0.5):
        space.find_closest_actions("S", radius)
        space.find_closest_actions("A2", radius)
    assert built == ["S", "A2"]
    with pytest.raises(UnknownSituationError):
        space.find_closest_actions("Nope", 1.0)
    with pytest.raises(UnknownSituationError):
        space.find_closest_actions("Nope", 1.0)
    assert built == ["S", "A2", "Nope", "Nope"]  # a failed build keeps nothing
