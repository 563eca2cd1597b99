"""Text normalization shared by retrieval, matching, and evaluation.

A single tokenizer keeps lexical scores, evidence grounding, and hazard
trigger matching consistent: lowercase via ``str.casefold``, split on any
non-alphanumeric run, drop empty pieces. Digits stay (bounds and temperatures
are meaningful tokens).
"""

from __future__ import annotations

import math
import re
from collections import Counter
from typing import Iterable

_TOKEN_SPLIT = re.compile(r"[^0-9a-z]+")

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
    return [t for t in _TOKEN_SPLIT.split(text.casefold()) if t]


def content_tokens(text: str) -> list[str]:
    """Normalized tokens with stopwords removed."""
    return [t for t in tokenize(text) if t not in STOPWORDS]


def dedup_preserve_order(items: Iterable[str]) -> list[str]:
    seen = set()
    out = []
    for item in items:
        if item not in seen:
            seen.add(item)
            out.append(item)
    return out


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


def jaccard(left: set[str], right: set[str]) -> float:
    """Token-set Jaccard; both sides empty scores 0.0 (nothing to ground)."""
    if not left or not right:
        return 0.0
    union = left | right
    return len(left & right) / len(union)


def contains_phrase(tokens: list[str], phrase_tokens: list[str]) -> bool:
    """True when ``phrase_tokens`` occurs contiguously inside ``tokens``."""
    if not phrase_tokens or len(phrase_tokens) > len(tokens):
        return False
    width = len(phrase_tokens)
    for start in range(len(tokens) - width + 1):
        if tokens[start:start + width] == phrase_tokens:
            return True
    return False
