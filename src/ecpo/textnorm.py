"""Text normalization shared by retrieval, matching, and evaluation.

A single tokenizer keeps lexical scores, evidence grounding, and hazard
trigger matching consistent: lowercase via ``str.casefold``, then take each
maximal run of ASCII letters and digits as a token. Digits stay (bounds and
temperatures are meaningful tokens).
"""

from __future__ import annotations

import math
import re
from collections import Counter
from itertools import filterfalse
from typing import Iterable, Sequence

_TOKEN = re.compile(r"[0-9a-z]+")

# Fixed stopword list; retrieval scores and evidence matching depend on it,
# so additions change published numbers.
STOPWORDS = frozenset(
    {
        "a", "an", "the", "and", "or", "of", "to", "in", "on", "at", "by",
        "for", "with", "is", "are", "was", "were", "be", "been", "being",
        "this", "that", "these", "those", "it", "its", "as", "from", "into",
        "please",
    }
)


def normalize_text(text: str) -> str:
    """Casefold and collapse internal whitespace; trims the ends."""
    return " ".join(text.casefold().split())


def tokenize(text: str) -> list[str]:
    """Normalized token list; empty input yields an empty list."""
    return _TOKEN.findall(text.casefold())


def content_tokens(text: str) -> list[str]:
    """Normalized tokens with stopwords removed."""
    return list(filterfalse(STOPWORDS.__contains__, tokenize(text)))


def dedup_preserve_order(items: Iterable[str]) -> list[str]:
    return list(dict.fromkeys(items))


def term_frequencies(tokens: list[str]) -> Counter:
    return Counter(tokens)


def squared_norm(frequencies: Counter) -> int:
    return sum(c * c for c in frequencies.values())


def cosine_from_counts(dot: int, lsq: int, rsq: int) -> float:
    """Cosine from an integer dot product and the two integer squared norms.

    Identical token multisets score exactly 1.0: the squared norms are exact
    integers, so one square root of their product divides out the integer dot
    product without rounding drift. Every lexical score goes through here, so
    the retrieval index and ``lexical_cosine`` agree to the last bit.
    """
    return dot / math.sqrt(lsq * rsq)


def lexical_cosine(left: list[str], right: list[str]) -> float:
    """Cosine similarity of raw term-frequency vectors; either side empty scores 0.0."""
    if not left or not right:
        return 0.0
    lf = term_frequencies(left)
    rf = term_frequencies(right)
    dot = sum(count * rf[token] for token, count in lf.items())
    if dot == 0:
        return 0.0
    return cosine_from_counts(dot, squared_norm(lf), squared_norm(rf))


def token_ngrams(token_lists: Iterable[Sequence[str]], longest: int) -> set[tuple[str, ...]]:
    """Every run of 1..``longest`` adjacent tokens inside one of the lists.

    A phrase of at most ``longest`` tokens occurs contiguously in some list
    exactly when its token tuple is in the result, so phrase matching is one
    set lookup. Runs never cross from one list into the next: two texts whose
    concatenation spells a phrase do not match it. The empty phrase never
    matches.
    """
    grams: set[tuple[str, ...]] = set()
    for tokens in token_lists:
        for width in range(1, min(longest, len(tokens)) + 1):
            grams.update(zip(*[tokens[offset:] for offset in range(width)]))
    return grams
