"""Text normalization shared by retrieval, matching, and evaluation.

A single tokenizer keeps lexical scores, evidence grounding, and hazard
trigger matching consistent: lowercase via ``str.casefold``, then take each
maximal run of ASCII letters and digits as a token. Digits stay (bounds and
temperatures are meaningful tokens).
"""

from __future__ import annotations

import math
import re
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


TEXT_BREAK = "\x00"  # ends each text's tokens in ``tokenize_texts``: no token character, so never in a token
_TOKEN_OR_BREAK = re.compile(f"{_TOKEN.pattern}|{TEXT_BREAK}")


def tokenize_texts(texts: Iterable[str]) -> list[str]:
    """The ``tokenize`` tokens of each text in turn, each text's followed by ``TEXT_BREAK``, from one casefold
    (which maps each character on its own) and one scan; a ``TEXT_BREAK`` inside a text reads as a space."""
    return _TOKEN_OR_BREAK.findall("".join([text.replace(TEXT_BREAK, " ") + TEXT_BREAK for text in texts]).casefold())


def dedup_preserve_order(items: Iterable[str]) -> list[str]:
    return list(dict.fromkeys(items))


def cosine_from_counts(dot: int, lsq: int, rsq: int) -> float:
    """Cosine from an integer dot product and the two integer squared norms.

    Identical token multisets score exactly 1.0: the squared norms are exact
    integers, so one square root of their product divides out the integer dot
    product without rounding drift. Every lexical score of the retrieval index
    goes through here, so it equals the brute-force cosine of the same counts
    to the last bit.
    """
    return dot / math.sqrt(lsq * rsq)


def token_run(token_lists: Iterable[Sequence[str]]) -> str:
    """Each non-empty token list as ``" t1 t2 ... "`` on its own line. A ``phrase_run`` is a substring
    of it exactly when the phrase occurs contiguously in one list: tokens are runs of ``[0-9a-z]``,
    so a match can neither start or end inside a token nor cross into the next list."""
    return "".join(f" {' '.join(tokens)} \n" for tokens in token_lists if tokens)


def phrase_run(tokens: Sequence[str]) -> str:
    """A phrase as ``token_run`` writes a list; the empty phrase (two spaces) is in no run."""
    return f" {' '.join(tokens)} "
