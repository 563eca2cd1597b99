"""Text normalization shared by retrieval, matching, and evaluation.

A single tokenizer keeps lexical scores, evidence grounding, and hazard
trigger matching consistent: lowercase via ``str.casefold``, then take each
maximal run of ASCII letters and digits as a token. Every other character
separates tokens, and so does every character that is still non-ASCII after
the casefold (a non-ASCII letter or digit such as "\u00e9" or "\u0663" is never
part of a token; "\u00df" and "\ufb00" casefold to ASCII first). Digits stay
(bounds and temperatures are meaningful tokens). The scan runs in C: the
casefolded text is encoded as ASCII with each other character replaced by
"?", every byte but ``0-9a-z`` is mapped to a space by one byte table, and
the result is split on spaces.
"""

from __future__ import annotations

import math
from itertools import filterfalse
from typing import Iterable, Sequence

# every byte but ASCII 0-9a-z becomes a space
_TABLE = bytes(byte if byte in b"0123456789abcdefghijklmnopqrstuvwxyz" else 32 for byte in range(256))

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
    return text.casefold().encode("ascii", "replace").translate(_TABLE).decode("ascii").split()


def content_tokens(text: str) -> list[str]:
    """Normalized tokens with stopwords removed."""
    return list(filterfalse(STOPWORDS.__contains__, tokenize(text)))


TEXT_BREAK = "\x00"  # ends each text's tokens in ``tokenize_texts``: no token character, so never in a token
_BREAK_TABLE = b"\x00" + _TABLE[1:]  # ``_TABLE``, but the break byte stays


def tokenize_texts(texts: Iterable[str]) -> list[str]:
    """The ``tokenize`` tokens of each text in turn, each text's followed by ``TEXT_BREAK``, from one casefold
    (which maps each character on its own) and one byte-table pass; each break is padded with spaces, so it
    splits out as a token of its own, and a ``TEXT_BREAK`` inside a text reads as a space."""
    joined = "".join([text.replace(TEXT_BREAK, " ") + " \x00 " for text in texts])  # each break padded
    return joined.casefold().encode("ascii", "replace").translate(_BREAK_TABLE).decode("ascii").split()


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
