
import dataclasses
import json
import math
import sys
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import ecpo.errors
import ecpo.store
from ecpo.context import DriverProfile, ParameterBound, PerceptionSummary, VehicleProfile
from ecpo.errors import ConfigError, InputError, shown
from ecpo.policy import ActionType, compile_lexicon
from ecpo.store import (
    Assertions,
    ConstraintSnippet,
    LexicalScorer,
    RetrievalQuery,
    build_query,
    compress,
    empty_store,
    load_store,
    retrieve,
    snippet_from_dict,
    snippet_to_dict,
    update_store,
)
from ecpo.textnorm import TEXT_BREAK, tokenize, tokenize_texts
from conftest import bench_inputs
from oracles import (lexical_index_reference, lexical_ranking_reference, lexical_survivors_reference,
                     snippet_fields_reference, snippet_from_dict_reference, term_counts)


def snippet(snippet_id: str, text: str, layer: str = "legal", **kwargs) -> ConstraintSnippet:
    return ConstraintSnippet(
        snippet_id=snippet_id, layer=layer, clause_id=f"C-{snippet_id}", text=text, **kwargs
    )


# --- types -------------------------------------------------------------------


def test_snippet_validation():
    with pytest.raises(InputError):
        snippet("s1", "")
    with pytest.raises(InputError):
        snippet("s1", "text", layer="weather")
    with pytest.raises(InputError):
        ConstraintSnippet(snippet_id="", layer="legal", clause_id="c", text="t")


def test_parameter_bound_and_keyword_validation():
    with pytest.raises(InputError):
        ParameterBound(ActionType.HVAC, "fan", 5.0, 1.0)
    with pytest.raises(InputError):
        Assertions(forbidden_keywords=("ok", "broken(",))
    # compiles alone, but not inside the whole-word group the checks wrap it in
    with pytest.raises(InputError):
        Assertions(forbidden_keywords=("(?i)horn",))


def test_query_requires_terms():
    with pytest.raises(InputError) as err:
        RetrievalQuery("EU", "assist", (), ())
    assert err.value.code == "EMPTY_QUERY"


# --- versioned store ------------------------------------------------------------


def test_store_versioning_and_snapshots():
    store = empty_store()
    assert store.version == 0
    assert store.snapshot() == ()

    v1 = update_store(store, additions=[snippet("a", "keep right"), snippet("b", "yield at merge")])
    assert v1.version == 1
    assert {s.snippet_id for s in v1.snapshot()} == {"a", "b"}
    assert all(s.version == 1 for s in v1.snapshot())

    v2 = update_store(v1, additions=[snippet("c", "night speed cap")], removals=["a"])
    assert v2.version == 2
    assert {s.snippet_id for s in v2.snapshot()} == {"b", "c"}
    assert {s.snippet_id for s in v2.snapshot(1)} == {"a", "b"}
    assert next(s.version for s in v2.snapshot() if s.snippet_id == "c") == 2
    with pytest.raises(InputError):
        v2.snapshot(9)


def test_store_update_errors():
    store = update_store(empty_store(), additions=[snippet("a", "keep right")])
    with pytest.raises(InputError) as err:
        update_store(store, additions=[snippet("a", "duplicate")])
    assert err.value.code == "DUPLICATE_ID"
    with pytest.raises(InputError) as err:
        update_store(store, removals=["zz"])
    assert err.value.code == "UNKNOWN_REMOVAL_ID"


def test_load_store_is_single_update():
    store = load_store([snippet("a", "keep right")])
    assert store.version == 1
    assert store.snapshot()[0].version == 1


def versioned_snippets() -> list[ConstraintSnippet]:
    return [
        snippet("b", "yield at merge", jurisdiction="EU", assertions=Assertions(forbidden_keywords=("horn",))),
        snippet("a", "cabin fan quiet", layer="driver", vehicle_config="suv", version=7),
    ]


def test_load_store_snapshot_equals_replaced_snippets():
    snips = versioned_snippets()
    assert list(load_store(snips).snapshot()) == [dataclasses.replace(s, version=1) for s in snips]


def test_update_store_leaves_input_snippets_unchanged():
    snips = versioned_snippets()
    store = update_store(load_store(snips[:1]), additions=snips[1:])
    assert [s.version for s in store.snapshot()] == [1, 2]
    assert [s.version for s in snips] == [0, 7]
    assert snips == versioned_snippets()


# --- query construction -----------------------------------------------------------


def test_build_query_fields():
    z = PerceptionSummary(
        driver_labels=("anxiety",),
        scene_labels=("traffic jam", "parking"),
        summary_initial="dense traffic in the rain",
    )
    driver = DriverProfile(
        alert_modality_preference="visual only",
        style_preference="gentle",
        sensitivities={"noise": "high", "light": "low", "motion_sickness": "medium"},
    )
    vehicle = VehicleProfile(jurisdiction="EU", operating_mode="assist")
    query = build_query(z, driver, vehicle)
    assert query.jurisdiction == "EU"
    assert query.operating_mode == "assist"
    # medium-or-higher sensitivity keys plus preference tokens
    assert set(query.sensitivity_terms) == {"noise", "motion_sickness", "visual", "only", "gentle"}
    assert "light" not in query.sensitivity_terms
    # labels first (driver then scene), then summary tokens, deduplicated
    assert query.situation_terms[:4] == ("anxiety", "traffic", "jam", "parking")
    assert "rain" in query.situation_terms
    assert len(query.situation_terms) == len(set(query.situation_terms))


def test_build_query_fallback_term():
    query = build_query(PerceptionSummary(), DriverProfile(), VehicleProfile())
    assert query.situation_terms == ("general",)


# --- retrieval ----------------------------------------------------------------------


def query_for(text: str) -> RetrievalQuery:
    return RetrievalQuery("", "", (), tuple(text.split()))


def test_duplicate_text_ranks_first_with_full_score():
    store = load_store(
        [
            snippet("far", "unrelated clause about lighting zones"),
            snippet("dup", "slow in dense traffic"),
        ]
    )
    result = retrieve(store, query_for("slow in dense traffic"), top_k=2)
    assert result.ranked[0].snippet_id == "dup"
    assert result.ranked[0].score == 1.0


def test_disjoint_vocabulary_scores_zero():
    store = load_store([snippet("a", "cabin lighting theme")])
    result = retrieve(store, query_for("merge yield junction"), top_k=1)
    assert result.ranked[0].score == 0.0


def test_ties_break_by_snippet_id():
    store = load_store([snippet("b", "yield at junction"), snippet("a", "yield at junction")])
    result = retrieve(store, query_for("yield at junction"), top_k=2)
    assert [entry.snippet_id for entry in result.ranked] == ["a", "b"]


def test_retrieve_top_k_and_errors():
    store = load_store([snippet("a", "keep right"), snippet("b", "keep left")])
    assert len(retrieve(store, query_for("keep"), top_k=1).ranked) == 1
    assert len(retrieve(store, query_for("keep"), top_k=10).ranked) == 2
    with pytest.raises(ConfigError):
        retrieve(store, query_for("keep"), top_k=0)
    with pytest.raises(InputError) as err:
        retrieve(empty_store(), query_for("keep"), top_k=1)
    assert err.value.code == "EMPTY_STORE"


@pytest.mark.parametrize("top_k", [0, -1])
def test_scores_rejects_top_k_below_one(top_k):
    store = load_store([snippet("a", "keep right"), snippet("b", "keep left")])
    with pytest.raises(ConfigError) as err:
        LexicalScorer().scores(store.lexical_index(), query_for("keep"), top_k)
    assert err.value.code == "BAD_TOP_K"


def test_pinned_version_retrieval_unchanged_after_update():
    store = load_store([snippet("a", "rain distance rule"), snippet("b", "fog lamp rule")])
    before = retrieve(store, query_for("rain distance"), top_k=2, version=1)
    grown = update_store(store, additions=[snippet("c", "rain distance rule strict")])
    after = retrieve(grown, query_for("rain distance"), top_k=2, version=1)
    assert before == after
    assert retrieve(grown, query_for("rain distance"), top_k=1).store_version == 2


# Words drawn for random stores: content words, stopwords, and words that never
# occur in a snippet (so some queries overlap nothing).
SNIPPET_WORDS = ("rain", "fog", "lane", "merge", "yield", "speed", "cabin", "the", "and", "of")
QUERY_WORDS = SNIPPET_WORDS + ("zebra", "quartz")

texts = st.lists(st.sampled_from(SNIPPET_WORDS), min_size=1, max_size=8).map(" ".join)


@st.composite
def stores_and_queries(draw):
    # A small pool of texts makes duplicate texts common.
    pool = draw(st.lists(texts, min_size=1, max_size=4))
    ids = draw(st.lists(st.integers(0, 30), min_size=1, max_size=12, unique=True))
    first = [snippet(f"s{i}", draw(st.sampled_from(pool) | texts)) for i in ids]
    later_ids = draw(st.lists(st.integers(31, 40), max_size=4, unique=True))
    later = [snippet(f"s{i}", draw(st.sampled_from(pool) | texts)) for i in later_ids]
    removals = draw(st.lists(st.sampled_from([s.snippet_id for s in first]), unique=True))
    words = draw(st.lists(st.sampled_from(QUERY_WORDS), min_size=1, max_size=6))
    top_k = draw(st.integers(1, len(ids) + len(later_ids) + 3))
    return first, later, removals, query_for(" ".join(words)), top_k


def ranking(result):
    return tuple((entry.snippet_id, entry.score) for entry in result.ranked)


@settings(max_examples=200, deadline=None)
@given(stores_and_queries())
def test_lexical_retrieval_equals_brute_force(case):
    first, later, removals, query, top_k = case
    store = load_store(first)
    expected_v1 = lexical_ranking_reference(store.snapshot(1), query, top_k)
    assert ranking(retrieve(store, query, top_k)) == expected_v1
    grown = update_store(store, additions=later, removals=removals)
    if grown.snapshot():
        expected_v2 = lexical_ranking_reference(grown.snapshot(), query, top_k)
        assert ranking(retrieve(grown, query, top_k)) == expected_v2
    # pinned to the older version, on the old store object and on the grown one
    assert ranking(retrieve(grown, query, top_k, version=1)) == expected_v1
    assert ranking(retrieve(store, query, top_k, version=1)) == expected_v1


# Stores of 40-120 snippets: a token gets a packed column when at least 2-4
# snippets hold it, so the pool words pack and most rare words do not.
RARE_WORDS = tuple(f"rare{i}" for i in range(60))


@st.composite
def mid_size_stores_and_queries(draw):
    # Texts come from a small pool, so duplicate texts (exact ties) are common.
    pool = draw(st.lists(texts, min_size=1, max_size=6))
    size = draw(st.integers(40, 120))
    rare = st.sampled_from(RARE_WORDS) | st.just("")
    first = [snippet(f"s{i}", f"{draw(st.sampled_from(pool))} {draw(rare)}") for i in range(size)]
    later = [snippet(f"t{i}", f"{draw(st.sampled_from(pool))} {draw(rare)}") for i in range(draw(st.integers(0, 4)))]
    removals = draw(st.lists(st.sampled_from([s.snippet_id for s in first]), max_size=4, unique=True))
    held = sorted({word for s in first + later for word in s.text.split()} & set(RARE_WORDS))
    words = draw(st.lists(st.sampled_from(QUERY_WORDS + tuple(held)), min_size=1, max_size=8))
    top_k = draw(st.integers(1, 8) | st.integers(size, size + 8))
    return first, later, removals, query_for(" ".join(words)), top_k


@settings(max_examples=100, deadline=None)
@given(mid_size_stores_and_queries())
def test_mid_size_lexical_retrieval_equals_brute_force(case):
    first, later, removals, query, top_k = case
    store = load_store(first)
    expected_v1 = lexical_ranking_reference(store.snapshot(1), query, top_k)
    assert ranking(retrieve(store, query, top_k)) == expected_v1
    grown = update_store(store, additions=later, removals=removals)
    assert ranking(retrieve(grown, query, top_k)) == lexical_ranking_reference(grown.snapshot(), query, top_k)
    assert ranking(retrieve(grown, query, top_k, version=1)) == expected_v1


def test_query_mixing_packed_and_rare_tokens_equals_brute_force():
    store = load_store(
        [snippet(f"s{i:02d}", f"lane merge clause{i}" + " fog" * (i % 3)) for i in range(64)]
        + [snippet("x", "fog lane rare lane")]
    )
    columns = store.lexical_index().columns
    assert {"lane", "merge", "fog"} <= set(columns)
    assert "rare" not in columns and "clause7" not in columns
    query = query_for("lane fog rare clause7 clause7")
    for top_k in (1, 3, 70):
        assert ranking(retrieve(store, query, top_k)) == lexical_ranking_reference(store.snapshot(), query, top_k)
    # with top_k at the store size, every snippet sharing a query token is scored
    expected = lexical_ranking_reference(store.snapshot(), query, 65)
    ids = store.lexical_index().snippet_ids
    hits = LexicalScorer().scores(store.lexical_index(), query, 65)
    assert sorted((ids[position], score) for position, score in hits.items()) == sorted(expected)


@pytest.mark.parametrize(
    "repeats, query_repeats",
    [
        (300, 300),  # a dot product of 90,000 would carry out of its 16-bit slot
        (70_000, 1),  # a term frequency that no 16-bit slot holds
    ],
)
def test_dot_products_past_the_slot_width_equal_brute_force(repeats, query_repeats):
    store = load_store(
        [snippet("a", "lane " * repeats), snippet("b", "lane merge"), snippet("c", "merge fog"), snippet("d", "fog")]
    )
    query = query_for("lane " * query_repeats + "merge fog")
    for top_k in (1, 2, 4):
        assert ranking(retrieve(store, query, top_k)) == lexical_ranking_reference(store.snapshot(), query, top_k)


def test_all_stopword_snippet_scores_zero():
    store = load_store([snippet("a", "the of and"), snippet("b", "lane merge"), snippet("c", "fog")])
    index = store.lexical_index()
    assert index.snippet_ids == ("a", "c", "b") and list(index.squared_norms) == [0, 1, 2]
    # the stopword-only snippet belongs to no norm group
    assert index.groups == ((1, 2, 1.0), (2, 3, 1 / math.sqrt(2)))
    query = query_for("lane")
    expected = (("b", 1 / math.sqrt(2)), ("a", 0.0), ("c", 0.0))
    assert ranking(retrieve(store, query, top_k=3)) == lexical_ranking_reference(store.snapshot(), query, 3)
    assert ranking(retrieve(store, query, top_k=3)) == expected


def test_near_tie_one_ulp_apart_ranks_by_exact_cosine():
    # 5/sqrt(29) is one ulp above 25/sqrt(725), while 5 * (1/sqrt(29)) is one
    # ulp below 25 * (1/sqrt(725)): the preselection order is the reverse of
    # the exact one.
    store = load_store(
        [snippet("a", "lane " * 25 + "fog " * 10), snippet("b", "lane " * 5 + "fog fog"), snippet("c", "merge")]
    )
    query = query_for("lane")
    result = retrieve(store, query, top_k=1)
    assert ranking(result) == (("b", 5 / math.sqrt(29)),)
    assert ranking(result) == lexical_ranking_reference(store.snapshot(), query, 1)
    assert 5 / math.sqrt(29) > 25 / math.sqrt(725)
    assert 5 * (1 / math.sqrt(29)) < 25 * (1 / math.sqrt(725))


def scored_ids(store, query, top_k):
    """``LexicalScorer.scores`` of the store's latest version, keyed by snippet_id."""
    index = store.lexical_index()
    hits = LexicalScorer().scores(index, query, top_k)
    return {index.snippet_ids[position]: score for position, score in hits.items()}


# Texts of one to three words from four: few distinct squared norms, so
# every norm group holds many snippets; "the of" is stopwords only.
SHARED_NORM_TEXTS = st.lists(st.sampled_from(("lane", "fog", "merge", "rain")), min_size=1, max_size=3).map(
    " ".join
) | st.just("the of")


@st.composite
def shared_norm_stores_and_queries(draw):
    texts_drawn = draw(st.lists(SHARED_NORM_TEXTS, min_size=1, max_size=70))
    ids = draw(st.permutations(range(len(texts_drawn))))
    snippets = [snippet(f"s{i:02d}", text) for i, text in zip(ids, texts_drawn)]
    words = draw(st.lists(st.sampled_from(("lane", "fog", "merge", "rain", "zebra")), min_size=1, max_size=5))
    top_k = draw(st.integers(1, len(snippets) + 3))
    return snippets, query_for(" ".join(words)), top_k


@settings(max_examples=200, deadline=None)
@given(shared_norm_stores_and_queries())
def test_survivors_equal_brute_force(case):
    snippets, query, top_k = case
    store = load_store(snippets)
    assert scored_ids(store, query, top_k) == lexical_survivors_reference(store.snapshot(), query, top_k)


def test_survivor_margin_keeps_a_near_tie_at_the_kth_place():
    # at k = 2 the k-th largest product is a's, one ulp above b's, while b's exact cosine is one ulp above
    # a's: only the margin under the k-th product keeps b for the exact rescoring
    store = load_store([snippet("a", "lane " * 25 + "fog " * 10), snippet("b", "lane " * 5 + "fog fog"),
                        snippet("c", "merge"), snippet("d", "lane")])
    query = query_for("lane")
    expected = {"a": 25 / math.sqrt(725), "b": 5 / math.sqrt(29), "d": 1.0}
    assert scored_ids(store, query, 2) == lexical_survivors_reference(store.snapshot(), query, 2) == expected
    assert ranking(retrieve(store, query, top_k=2)) == (("d", 1.0), ("b", 5 / math.sqrt(29)))
    assert ranking(retrieve(store, query, top_k=2)) == lexical_ranking_reference(store.snapshot(), query, 2)


def test_exact_tie_across_norm_groups_breaks_by_snippet_id():
    store = load_store([snippet("a", "lane lane lane"), snippet("b", "lane lane"), snippet("c", "merge")])
    # norm order (1, 4, 9) is the reverse of snippet_id order
    assert store.lexical_index().snippet_ids == ("c", "b", "a")
    query = query_for("lane")
    assert ranking(retrieve(store, query, top_k=1)) == (("a", 1.0),)
    assert ranking(retrieve(store, query, top_k=2)) == (("a", 1.0), ("b", 1.0))


def test_zero_score_fill_follows_snippet_id_order():
    store = load_store(
        [snippet("a", "fog fog fog"), snippet("b", "merge merge"), snippet("c", "exit"), snippet("d", "lane")]
    )
    index = store.lexical_index()
    assert index.snippet_ids == ("c", "d", "b", "a")
    assert [index.snippet_ids[position] for position in index.id_order] == ["a", "b", "c", "d"]
    expected = (("d", 1.0), ("a", 0.0), ("b", 0.0), ("c", 0.0))
    assert ranking(retrieve(store, query_for("lane"), top_k=4)) == expected
    assert ranking(retrieve(store, query_for("zebra"), top_k=3)) == (("a", 0.0), ("b", 0.0), ("c", 0.0))


def test_overflow_fallback_survivors_equal_brute_force():
    shared_norms = ["lane merge", "merge fog", "fog lane", "lane", "fog", "merge"] * 2
    store = load_store([snippet("a", "lane " * 300)] + [snippet(f"s{i}", text) for i, text in enumerate(shared_norms)])
    query = query_for("lane " * 300 + "merge fog")
    # a dot product of 90,000 could carry out of a 16-bit slot: every token goes through its postings
    assert isinstance(ecpo.store._dot_products(store.lexical_index(), term_counts(query.tokens())), list)
    size = len(store.snapshot())
    for top_k in range(2, size):
        assert scored_ids(store, query, top_k) == lexical_survivors_reference(store.snapshot(), query, top_k)
        assert ranking(retrieve(store, query, top_k)) == lexical_ranking_reference(store.snapshot(), query, top_k)


def test_load_store_builds_no_index(monkeypatch):
    builds = []
    real = ecpo.store._build_lexical_index

    def counting(snippets):
        builds.append(len(snippets))
        return real(snippets)

    monkeypatch.setattr(ecpo.store, "_build_lexical_index", counting)
    store = load_store([snippet("a", "keep right"), snippet("b", "yield at merge")])
    assert store._lexical_indexes == {} and builds == []
    retrieve(store, query_for("merge"), top_k=1)
    assert list(store._lexical_indexes) == [1] and builds == [2]
    columns = store._lexical_indexes[1].columns
    assert set(columns) == {"keep", "right", "yield", "merge"}
    retrieve(store, query_for("merge"), top_k=1)
    assert builds == [2] and store._lexical_indexes[1].columns is columns

    grown = update_store(store, additions=[snippet("c", "merge lane")])
    assert grown._lexical_indexes == {} and builds == [2]
    retrieve(grown, query_for("merge"), top_k=1, version=1)
    retrieve(grown, query_for("merge"), top_k=1)
    assert sorted(grown._lexical_indexes) == [1, 2] and builds == [2, 2, 3]
    assert "lane" in grown._lexical_indexes[2].columns and "lane" not in grown._lexical_indexes[1].columns
    assert grown._lexical_indexes[1].columns is not columns


def test_repeat_query_does_not_retokenize_snippets(monkeypatch):
    store = load_store([snippet(f"s{i}", f"clause {i} about lane merge") for i in range(20)])
    batched, single = [], []
    real_batched, real_single = ecpo.store.tokenize_texts, ecpo.store.content_tokens

    def counting_batched(texts):
        texts = list(texts)
        batched.extend(texts)
        return real_batched(texts)

    def counting_single(text):
        single.append(text)
        return real_single(text)

    monkeypatch.setattr(ecpo.store, "tokenize_texts", counting_batched)
    monkeypatch.setattr(ecpo.store, "content_tokens", counting_single)
    query = query_for("lane merge")
    snippet_texts = sorted(s.text for s in store.snapshot())
    first = retrieve(store, query, top_k=3)
    # the first query tokenizes every snippet text exactly once, in one batch per chunk
    assert sorted(batched) == snippet_texts
    assert single and not set(snippet_texts) & set(single)
    columns = store.lexical_index().columns
    assert {"lane", "merge"} <= set(columns)
    batched.clear()
    single.clear()
    assert retrieve(store, query, top_k=3) == first
    # a repeat tokenizes only the query
    assert batched == [] and single and not set(snippet_texts) & set(single)
    assert store.lexical_index().columns is columns


# The chunked build tokenizes many texts joined by "\x00" with one casefold: texts holding "\x00", casefold
# expanders (sharp s, the fi ligature, the Kelvin sign, dotted capital I), stopword-only texts and every
# position of a text relative to the chunk boundaries must index as one text at a time does.
INDEX_PIECES = ("rain", "LANE", "merge", "the", "and", "of", "\x00", "a\x00b", "\x00\x00", "Stra\u00dfe",
                "\ufb01eld", "\u212aelvin", "\u0130stanbul", "x1", "42", "-", " ", "\t", "\u00a0")
index_texts = st.lists(st.sampled_from(INDEX_PIECES), min_size=1, max_size=10).map("".join).filter(str.strip)
INDEX_FIELDS = ("snippet_ids", "id_order", "squared_norms", "groups", "postings", "peaks", "columns")


def assert_index_equals_reference(snippets):
    index, expected = ecpo.store._build_lexical_index(snippets), lexical_index_reference(snippets)
    for name in INDEX_FIELDS:
        assert getattr(index, name) == getattr(expected, name), name
    assert list(index.postings) == list(expected.postings)


@settings(max_examples=300, deadline=None)
@given(st.lists(index_texts, max_size=14), st.integers(1, 5) | st.just(ecpo.store._TOKENIZE_CHUNK))
def test_chunked_index_equals_per_text_reference(texts, chunk):
    snippets = [snippet(f"s{i:02d}", text) for i, text in enumerate(texts)]
    with mock.patch.object(ecpo.store, "_TOKENIZE_CHUNK", chunk):
        assert_index_equals_reference(snippets)


@pytest.mark.parametrize("offset", [-1, 0, 1, ecpo.store._TOKENIZE_CHUNK + 1])
def test_index_across_the_chunk_size_equals_per_text_reference(offset):
    words = ("rain", "lane", "merge", "fog", "the", "\u212a", "a\x00b", "Stra\u00dfe")
    size = ecpo.store._TOKENIZE_CHUNK + offset
    assert_index_equals_reference(
        [snippet(f"s{i:04d}", " ".join(words[(i * j) % len(words)] for j in range(1 + i % 5))) for i in range(size)])


def test_tokenize_texts_breaks_after_each_text():
    texts = ["Lane \u212aeep", "", "a\x00b", "Stra\u00dfe \ufb01x"]
    flat = tokenize_texts(texts)
    assert flat.count(TEXT_BREAK) == len(texts) and flat[-1] == TEXT_BREAK
    per_text = " ".join(flat).split(TEXT_BREAK)[:-1]
    assert [part.split() for part in per_text] == [tokenize(text) for text in texts]


# --- compression ----------------------------------------------------------------------


def test_compress_orders_by_layer_and_respects_budget():
    ranked = [
        snippet("d1", "driver prefers quiet cabin prompts", layer="driver"),
        snippet("l1", "obey posted speed limits", layer="legal"),
        snippet("v1", "fan range one to five", layer="vehicle"),
    ]
    entries = compress(ranked, token_budget=100)
    assert [e.layer for e in entries] == ["legal", "vehicle", "driver"]

    # budget 9: legal (4 tokens) + vehicle (5 tokens) fit; driver would overflow
    entries = compress(ranked, token_budget=9)
    assert [e.snippet_id for e in entries] == ["l1", "v1"]


def test_compress_stops_at_first_overflow():
    ranked = [
        snippet("l1", "one two three four five", layer="legal"),
        snippet("l2", "six seven eight nine ten eleven", layer="legal"),
        snippet("l3", "tiny", layer="legal"),
    ]
    # l2 overflows an 8-token budget; l3 would fit but inclusion stops at l2
    entries = compress(ranked, token_budget=8)
    assert [e.snippet_id for e in entries] == ["l1"]
    with pytest.raises(ConfigError):
        compress(ranked, token_budget=0)


def test_compress_is_stable_within_layers():
    ranked = [
        snippet("l2", "second legal clause", layer="legal"),
        snippet("l1", "first legal clause", layer="legal"),
    ]
    entries = compress(ranked, token_budget=100)
    assert [e.snippet_id for e in entries] == ["l2", "l1"]


# --- serialization ----------------------------------------------------------------------


def test_snippet_round_trip(layered_snippets):
    for original in layered_snippets:
        assert snippet_from_dict(snippet_to_dict(original)) == original


def test_snippet_from_dict_rejects_garbage():
    with pytest.raises(InputError):
        snippet_from_dict({"snippet_id": "a"})


@pytest.mark.parametrize(
    "change",
    [
        {"version": "x"},
        {"version": 1.5},
        {"version": True},
        {"version": -1},
        {"snippet_id": 7},
        {"text": ["keep", "right"]},
        {"jurisdiction": 3},
        {"assertions": {"parameter_bounds": [["Hvac", "temp", "a", "1"]]}},
        {"assertions": {"parameter_bounds": [["Hvac", "temp", 1, float("nan")]]}},
        {"assertions": {"parameter_bounds": [["Hvac", "temp", False, 1]]}},
        {"assertions": {"parameter_bounds": [["Hvac", 5, 1, 2]]}},
        {"assertions": {"parameter_bounds": 5}},
        {"assertions": {"forbidden_keywords": [3]}},
        {"assertions": {"required_modalities": "visual"}},
    ],
)
def test_snippet_decoders_reject_mistyped_fields(change):
    raw = {"snippet_id": "a", "layer": "legal", "clause_id": "c", "text": "keep right", **change}
    with pytest.raises(InputError) as err:
        snippet_from_dict(raw)
    assert err.value.code == "BAD_SNIPPET"


# --- the decoder fault table -------------------------------------------------------------
# snippet_from_dict checks string fields in place and sets fields on a bare instance; the field-by-field
# reader it replaced (oracles.snippet_from_dict_reference) fixes every code, message and decoded value.

BASE = {"snippet_id": "a", "layer": "legal", "clause_id": "c", "text": "keep right"}
FULL_ASSERTIONS = {"forbidden_action_types": ["AmbientLight", "hvac"],
                   "parameter_bounds": [["Hvac", "temperature", 16, 28.5], ["hmi prompt", "volume", 0.5, 3]],
                   "required_modalities": ["visual", "audio"], "forbidden_keywords": ["loud music", "race"]}
FULL = {**BASE, "jurisdiction": "EU", "vehicle_config": None, "assertions": FULL_ASSERTIONS, "version": 2}
LONG = "x" * 300
MISTYPED = [None, True, 0, -1, 1.5, float("nan"), float("inf"), "", "x", LONG, [], ["x"], [1], [LONG], {}, {"a": 1}]
BOUND = ["Hvac", "temperature", 16, 28]


def with_assertions(**change):
    return {**BASE, "assertions": {**FULL_ASSERTIONS, **change}}


DECODER_CASES = [
    # records that decode
    BASE, FULL, {**BASE, "assertions": {}}, {**BASE, "assertions": None}, {**BASE, "jurisdiction": None},
    dict(reversed(list(FULL.items()))), {**BASE, "version": 0}, {**BASE, "assertions": {"required_modalities": []}},
    # not a record, or a required field missing
    None, [], "x", 5, *({k: v for k, v in BASE.items() if k != key} for key in BASE),
    # each field mistyped
    *({**FULL, key: value} for key in FULL for value in MISTYPED),
    *(with_assertions(**{key: value}) for key in FULL_ASSERTIONS for value in MISTYPED),
    *(with_assertions(parameter_bounds=[BOUND[:at] + [value] + BOUND[at + 1:]])
      for at in range(4) for value in MISTYPED + [float("-inf"), 10 ** 400, "Bogus"]),
    with_assertions(parameter_bounds=[BOUND[:3]]), with_assertions(parameter_bounds=[BOUND + [1]]),
    with_assertions(parameter_bounds=[[5, 5, float("nan"), 1]]), with_assertions(parameter_bounds=[[5, LONG, 1, 2]]),
    with_assertions(parameter_bounds=[["Hvac", LONG, float("nan"), 1]]),
    # an unknown key before a bad value, and after one
    {"zz": 1, **BASE, "text": 5}, {**BASE, "text": 5, "zz": 1},
    {**BASE, "assertions": {"zz": 1, "forbidden_keywords": [3]}},
    {**BASE, "assertions": {"forbidden_keywords": [3], "zz": 1}}, {**BASE, LONG: 1},
    # a field fault before the class checks: an empty snippet_id together with bad assertions
    {**BASE, "snippet_id": "", "assertions": {"parameter_bounds": 5}}, {**BASE, "snippet_id": ""},
    {**BASE, "layer": "weather"}, {**BASE, "clause_id": ""}, {**BASE, "text": " \t"},
    {**BASE, "snippet_id": LONG, "text": ""},
    # checks of the classes: an unmappable action type, a bad keyword, a reversed bound
    with_assertions(forbidden_action_types=["Bogus"]), with_assertions(forbidden_action_types=[LONG]),
    with_assertions(parameter_bounds=[["Bogus", "t", 1, 2]]), with_assertions(parameter_bounds=[["Hvac", "t", 5, 1]]),
    *(with_assertions(forbidden_keywords=["ok", keyword]) for keyword in ("(", "x?", "", "a)|(b", "(" * 2000)),
]


@pytest.mark.parametrize("raw", DECODER_CASES)
def test_snippet_decoder_matches_the_field_by_field_reader(raw):
    try:
        expected = snippet_from_dict_reference(raw)
    except InputError as error:
        with pytest.raises(InputError) as err:
            snippet_from_dict(raw)
        assert err.value.code == error.code
        assert err.value.message == error.message
    else:
        decoded = snippet_from_dict(raw)
        assert decoded == expected == ConstraintSnippet(**snippet_fields_reference(raw))
        assert repr(decoded) == repr(expected) and hash(decoded) == hash(expected)
        assert snippet_to_dict(decoded) == snippet_to_dict(expected)


def through_frames(extra: int, call):
    """``call()``, made ``extra`` Python frames deeper in the stack."""
    return call() if extra == 0 else through_frames(extra - 1, call)


@pytest.mark.parametrize("extra", [0, 1, 2, 3])
def test_a_fragment_nested_too_deep_has_one_message_at_any_stack_depth(extra):
    # The recursion limit strikes inside a call from C or not depending on the depth of the stack, and
    # RecursionError's own text differs between the two.
    deep = "(" * 2000 + ")" * 2000
    with pytest.raises(InputError) as err:
        through_frames(extra, lambda: Assertions(forbidden_keywords=(deep,)))
    assert (err.value.code, err.value.message) == ("BAD_KEYWORD",
                                                   f"keyword pattern {shown(deep)}: nested too deep to compile")
    with pytest.raises(ConfigError) as err:
        through_frames(extra, lambda: compile_lexicon([deep]))
    assert (err.value.code, err.value.message) == ("BAD_LEXICON_PATTERN", "lexicon line 1: nested too deep to compile")


def seed_store_records() -> list[dict]:
    """The seed-0 store of the benchmark's retrieve_5k workload."""
    return [json.loads(line) for line in bench_inputs("retrieve_5k")["store.jsonl"].splitlines()]


def test_decoding_the_seed_store_builds_no_error_label(monkeypatch):
    records = seed_store_records()
    assert sum("assertions" in record for record in records) > 1000
    labels = []
    real = ecpo.errors.shown

    def counting(value):
        labels.append(value)
        return real(value)

    for module in [module for name, module in sys.modules.items() if name.startswith("ecpo")]:
        if getattr(module, "shown", None) is real:
            monkeypatch.setattr(module, "shown", counting)
    assert ecpo.store.shown is counting
    decoded = [snippet_from_dict(record) for record in records]
    assert labels == []
    assert decoded == [snippet_from_dict_reference(record) for record in records]
