import math
import re
import string

from hypothesis import example, given, strategies as st

from ecpo.textnorm import (
    STOPWORDS,
    TEXT_BREAK,
    content_tokens,
    dedup_preserve_order,
    normalize_text,
    phrase_run,
    token_run,
    tokenize,
    tokenize_texts,
)
from oracles import contains_phrase, jaccard, lexical_cosine

words = st.lists(st.sampled_from("alpha beta gamma delta rain fog lane".split()), max_size=8)


def test_normalize_collapses_whitespace_and_case():
    assert normalize_text("  Heavy\tRain \n ahead ") == "heavy rain ahead"


def test_tokenize_splits_on_non_alphanumerics():
    assert tokenize("Set speed to 80 km/h!") == ["set", "speed", "to", "80", "km", "h"]
    assert tokenize("x_y") == ["x", "y"]
    # each character that stays non-ASCII after casefold separates tokens; some casefold to ASCII first
    assert tokenize("a\u20acb a\u0663b a\ud800b") == ["a", "b", "a", "b", "a", "b"]
    assert tokenize("\ufb00 Stra\u00dfe") == ["ff", "strasse"]


def test_content_tokens_drop_stopwords():
    assert content_tokens("the rain on the road") == ["rain", "road"]


def test_dedup_preserves_first_occurrence():
    assert dedup_preserve_order(["b", "a", "b", "c", "a"]) == ["b", "a", "c"]


def test_jaccard_edges():
    assert jaccard(set(), set()) == 0.0
    assert jaccard({"a"}, set()) == 0.0
    assert jaccard({"a", "b"}, {"a", "b"}) == 1.0
    assert jaccard({"a", "b"}, {"b", "c"}) == 1 / 3


def test_cosine_edges():
    assert lexical_cosine([], ["a"]) == 0.0
    assert lexical_cosine(["a", "b"], ["c", "d"]) == 0.0
    assert math.isclose(lexical_cosine(["a", "b", "a"], ["a", "b", "a"]), 1.0, abs_tol=1e-12)


def test_cosine_known_value():
    # vectors (1,1) and (1,0): cos = 1/sqrt(2)
    assert math.isclose(lexical_cosine(["a", "b"], ["a"]), 1 / math.sqrt(2), rel_tol=1e-12)


def phrase_in(tokens: list[str], phrase: list[str]) -> bool:
    """Phrase matching as the validator does it: one substring test on a token run."""
    return phrase_run(phrase) in token_run([tokens])


def test_contains_phrase_requires_contiguous_match():
    haystack = tokenize("dense traffic builds up ahead")
    assert phrase_in(haystack, tokenize("dense traffic"))
    assert phrase_in(haystack, tokenize("traffic builds up"))
    assert not phrase_in(haystack, tokenize("dense ahead"))
    assert not phrase_in(haystack, [])


@given(words, words)
def test_cosine_symmetric_and_bounded(a, b):
    value = lexical_cosine(a, b)
    assert 0.0 <= value <= 1.0 + 1e-12
    assert math.isclose(value, lexical_cosine(b, a), abs_tol=1e-12)


@given(words, words)
def test_jaccard_symmetric_and_bounded(a, b):
    value = jaccard(set(a), set(b))
    assert 0.0 <= value <= 1.0
    assert value == jaccard(set(b), set(a))


# ASCII word characters, every ASCII punctuation character, separators, NUL, stopwords, characters that
# casefold into ASCII letters (German sharp s, the Kelvin sign, the ff ligature) or next to them, a lone
# surrogate, and non-ASCII digits, letters and symbols that stay non-ASCII (Arabic-Indic three, Roman
# twelve, a titlecase digraph, the euro sign).
mixed_text = st.lists(
    st.sampled_from([*"aZ09 \t\n\x00", *string.punctuation, "\u00df", "\u212a", "\u0130", "\u00e9", "\ufb00",
                     "\ud800", "\u0663", "\u216b", "\u01c5", "\u20ac", "the", "Rain"])
).map("".join)
any_text = st.one_of(mixed_text, st.text(st.characters(exclude_categories=())))


@given(any_text)
@example("")
@example("--80 km/h--")
@example("Stra\u00dfe \u212aelvin \u0130stanbul")
@example("a\x00b a\u20acb \ud800x y\udfff")
@example("\u0663\u216b\u01c5 \ufb00 1\u0663 x\u01c5y")
@example(string.punctuation + "a" + string.punctuation)
def test_tokenize_equals_split_and_drop_empty(text):
    expected = [piece for piece in re.split(r"[^0-9a-z]+", text.casefold()) if piece]
    assert tokenize(text) == expected
    assert content_tokens(text) == [token for token in expected if token not in STOPWORDS]


@given(st.lists(any_text, max_size=6))
@example(["rain", "lane"])
@example(["a\x00b", "", "\x00", "Stra\u00dfe"])
def test_tokenize_texts_equals_each_text_then_a_break(texts):
    assert tokenize_texts(texts) == [token for text in texts for token in [*tokenize(text), TEXT_BREAK]]


@given(st.lists(any_text, max_size=6))
@example(["rain", "lane"])
@example(["stop", "the", "car"])
def test_content_tokens_of_space_joined_parts_equal_each_part_in_turn(parts):
    # a retrieval query is tokenized in one scan of its parts joined by spaces
    assert content_tokens(" ".join(parts)) == [token for part in parts for token in content_tokens(part)]


@given(st.text())
def test_tokenize_stable_under_normalization(text):
    assert tokenize(normalize_text(text)) == tokenize(text)


# A three-letter alphabet forces repeated tokens and overlapping partial matches.
letters = st.lists(st.sampled_from("abc"), max_size=6)


@given(st.lists(letters, max_size=4), st.lists(letters, min_size=1, max_size=4))
@example([[], ["a"]], [[]])
@example([["a", "b"], ["c"]], [["b", "c"], ["a", "b", "c", "a"]])
def test_token_run_matching_equals_sliding_window(texts, phrases):
    # phrases include the empty phrase and phrases longer than every text
    run = token_run(texts)
    for phrase in phrases:
        assert (phrase_run(phrase) in run) == any(contains_phrase(tokens, phrase) for tokens in texts)


def test_token_run_never_spans_two_texts():
    texts = [tokenize("heavy"), tokenize("rain")]
    assert phrase_run(["heavy", "rain"]) not in token_run(texts)
    assert phrase_run(["heavy", "rain"]) in token_run([tokenize("heavy rain")])
    assert phrase_run([]) not in token_run([*texts, [], tokenize("a b")])
    assert token_run([[], []]) == ""
