"""Versioned constraint snippet store, retrieval, and budgeted compression.

Snippets carry provenance (layer, jurisdiction, vehicle configuration, clause
id) plus optional machine-readable assertions that the layered checks can
evaluate deterministically; those records and their decoders are defined in
``context``, and of the CLI commands only ``retrieve`` loads this module.
The store is append-only: version 0 is empty and
every update produces version N+1 while all earlier versions stay readable,
so retrieval pinned to a version is reproducible forever.

Scoring is lexical: cosine over term-frequency vectors of normalized content
tokens of the snippet text; provenance fields do not enter the vector.
Queries run through an index of each version's snippet texts, built on the
first query against that version and kept on the store. It numbers the
snippets by squared norm, so the snippets of one norm form one contiguous
group sharing one inverse norm, and holds postings per token plus one packed
int per common token holding its term frequency in every snippet. A query
sums the packed columns of its tokens as plain ints and adds its rare tokens
through their postings. It then preselects the top ``top_k`` by a float
product a few ulps from the cosine: groups are visited best first by their
largest dot product, and the walk stops at the first group that cannot beat
the k products already held. Only the survivors are scored exactly.
``retrieve`` takes any scorer with a ``kind`` and a
``rank(store, version, query, top_k)`` method; the toolkit ships only
``LexicalScorer``.
"""

from __future__ import annotations

import heapq
import itertools
import math
import sys
from array import array
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Iterable, Sequence

# The snippet records and their decoders live in `context`, which every command loads; this module, which only
# `retrieve` loads, names the ones its callers import from it as well.
from .context import (LAYER_PRIORITY, Assertions, ConstraintSnippet, DriverProfile, PerceptionSummary,  # noqa: F401
                      VehicleProfile, snippet_from_dict, snippet_to_dict)
from .errors import InputError, check_count, shown
from .textnorm import STOPWORDS, TEXT_BREAK, content_tokens, cosine_from_counts, dedup_preserve_order, tokenize_texts

@dataclass(frozen=True)
class RetrievalQuery:
    """The jurisdiction, operating mode and term lists one retrieval matches."""

    jurisdiction: str = ""
    operating_mode: str = ""
    sensitivity_terms: tuple[str, ...] = ()
    situation_terms: tuple[str, ...] = ()

    def __post_init__(self):
        if not self.sensitivity_terms and not self.situation_terms:
            raise InputError("EMPTY_QUERY", "at least one term list must be non-empty")

    def tokens(self) -> list[str]:
        parts = [self.jurisdiction, self.operating_mode]
        parts.extend(self.sensitivity_terms)
        parts.extend(self.situation_terms)
        out: list[str] = []
        for part in parts:
            out.extend(content_tokens(part))
        return out


@dataclass(frozen=True)
class RankedSnippet:
    """A retrieved snippet id and its lexical score."""

    snippet_id: str
    score: float


@dataclass(frozen=True)
class RetrievalResult:
    """The ranked snippets of one query, the scorer and the store version ranked."""

    ranked: tuple[RankedSnippet, ...]
    scorer_kind: str
    store_version: int


# Packed term columns: a token held by at least 1/32 of a version's snippets
# is one int holding an unsigned 16-bit slot (an array("H") item) per snippet.
_PACKED_SHARE = 32
_SLOT_LIMIT = 1 << 16
# Relative margin under the k-th approximate score that still survives to the
# exact rescoring; approximate and exact scores differ by a few ulps.
_SURVIVOR_MARGIN = 1e-9
_TOKENIZE_CHUNK = 256  # texts per scan: one scan of a whole large store would hold all its tokens at once


@dataclass(frozen=True)
class LexicalIndex:
    """Postings and packed term columns of one store version's snippet texts.

    Positions number the snippets by (squared norm, snippet_id): snippets of
    one squared norm share one inverse norm and sit in one contiguous slice,
    so within a slice cosine order is dot-product order. ``snippet_ids``
    lists the ids by position and ``id_order`` the positions in snippet_id
    order, for ranking ties and the zero-score fill. ``squared_norms`` holds
    each snippet's integer squared term-frequency norm, and ``groups`` one
    ``(start, end, inverse_norm)`` entry per nonzero squared norm, in
    ascending order; snippets of stopwords only (norm 0) come first and
    belong to no group. ``postings`` maps each content token to the positions
    of the snippets holding it and its term frequency in each, ``peaks`` to
    its largest term frequency. ``columns`` maps each token held by at least
    1/32 of the snippets to one int whose 16-bit slot ``p`` is its term
    frequency in snippet ``p``.
    """

    snippet_ids: tuple[str, ...]
    id_order: array
    squared_norms: array
    groups: tuple[tuple[int, int, float], ...]
    postings: dict[str, tuple[array, array]]
    peaks: dict[str, int]
    columns: dict[str, int]


def _build_lexical_index(snippets: Sequence[ConstraintSnippet]) -> LexicalIndex:
    ordered = sorted(snippets, key=lambda snippet: snippet.snippet_id)
    size = len(ordered)
    # token -> the id rank of the snippet holding each of its occurrences, ascending
    occurrences: defaultdict[str, list[int]] = defaultdict(list)
    for start in range(0, size, _TOKENIZE_CHUNK):
        id_rank = start
        for token in tokenize_texts(snippet.text for snippet in ordered[start:start + _TOKENIZE_CHUNK]):
            if token == TEXT_BREAK:
                id_rank += 1
            else:
                occurrences[token].append(id_rank)
    norms_by_id = [0] * size
    postings: dict[str, tuple[array, array]] = {}
    for token, id_ranks in occurrences.items():
        if token in STOPWORDS:
            continue
        frequencies = Counter(id_ranks)
        postings[token] = (array("i", frequencies), array("i", frequencies.values()))
        for id_rank, count in frequencies.items():
            norms_by_id[id_rank] += count * count
    del occurrences  # freed before the packed columns are built
    # a stable sort keeps snippet_id order within one squared norm
    by_norm = sorted(range(size), key=norms_by_id.__getitem__)
    id_order = [0] * size
    for position, id_rank in enumerate(by_norm):
        id_order[id_rank] = position
    for token, (id_ranks, counts) in postings.items():
        postings[token] = (array("i", [id_order[id_rank] for id_rank in id_ranks]), counts)
    squared_norms = array("q", [norms_by_id[id_rank] for id_rank in by_norm])
    groups = []
    start = 0
    for sq, run in itertools.groupby(squared_norms):
        end = start + len(list(run))
        if sq:
            groups.append((start, end, 1 / math.sqrt(sq)))
        start = end
    peaks = {token: max(counts) for token, (_, counts) in postings.items()}
    columns: dict[str, int] = {}
    for token, (positions, counts) in postings.items():
        if len(positions) * _PACKED_SHARE >= size and peaks[token] < _SLOT_LIMIT:
            slots = array("H", bytes(2 * size))
            for position, count in zip(positions, counts):
                slots[position] = count
            columns[token] = int.from_bytes(slots, sys.byteorder)
    return LexicalIndex(
        snippet_ids=tuple(ordered[id_rank].snippet_id for id_rank in by_norm),
        id_order=array("i", id_order),
        squared_norms=squared_norms,
        groups=tuple(groups),
        postings=postings,
        peaks=peaks,
        columns=columns,
    )


def _dot_products(index: LexicalIndex, query_frequencies: Counter) -> Sequence[int]:
    """Each snippet's exact integer dot product with the query, by position.

    The packed columns of the query's tokens are summed as plain ints, so
    every slot adds up in C; rare tokens add in through their postings. When
    some dot product could reach 2**16 and carry into the next slot, every
    token goes through its postings instead.
    """
    size = len(index.snippet_ids)
    peaks = index.peaks
    if sum(m * peaks.get(token, 0) for token, m in query_frequencies.items()) < _SLOT_LIMIT:
        columns = index.columns
        # a multiplicity of 1 adds the column itself: `1 * column` copies it
        packed = sum(
            columns[token] if m == 1 else m * columns[token]
            for token, m in query_frequencies.items()
            if token in columns
        )
        dots: Sequence[int] = array("H", packed.to_bytes(2 * size, sys.byteorder))
        rare = [(token, m) for token, m in query_frequencies.items() if token not in columns]
    else:
        dots = [0] * size
        rare = list(query_frequencies.items())
    postings = index.postings
    for token, multiplicity in rare:
        entry = postings.get(token)
        if entry is not None:
            for position, count in zip(*entry):
                dots[position] += multiplicity * count
    return dots


@dataclass(frozen=True)
class ConstraintStore:
    """Append-only snapshots; versions[n] is the full content of version n."""

    versions: tuple[tuple[ConstraintSnippet, ...], ...] = ((),)
    # version -> LexicalIndex, filled by lexical_index(); derived state only.
    _lexical_indexes: dict[int, LexicalIndex] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    @property
    def version(self) -> int:
        return len(self.versions) - 1

    def _resolve(self, version: int | None) -> int:
        if version is None:
            return self.version
        if not 0 <= version <= self.version:
            raise InputError("UNKNOWN_VERSION", f"store has no version {version}")
        return version

    def snapshot(self, version: int | None = None) -> tuple[ConstraintSnippet, ...]:
        return self.versions[self._resolve(version)]

    def lexical_index(self, version: int | None = None) -> LexicalIndex:
        """The postings index of a version, built on first use and kept."""
        version = self._resolve(version)
        index = self._lexical_indexes.get(version)
        if index is None:
            index = self._lexical_indexes[version] = _build_lexical_index(self.versions[version])
        return index


def empty_store() -> ConstraintStore:
    return ConstraintStore()


def update_store(
    store: ConstraintStore,
    additions: Iterable[ConstraintSnippet] = (),
    removals: Iterable[str] = (),
) -> ConstraintStore:
    """New store at version+1; earlier versions are untouched."""
    content = {snippet.snippet_id: snippet for snippet in store.snapshot()}
    for snippet_id in removals:
        if snippet_id not in content:
            raise InputError("UNKNOWN_REMOVAL_ID", f"no snippet {shown(snippet_id)} to remove")
        del content[snippet_id]
    new_version = store.version + 1
    for snippet in additions:
        if snippet.snippet_id in content:
            raise InputError("DUPLICATE_ID", f"snippet id {shown(snippet.snippet_id)} already present")
        # Copy the instance dict of the already validated snippet:
        # `dataclasses.replace` would rerun `__post_init__`, most of the
        # cost of `load_store`.
        copy = object.__new__(type(snippet))
        copy.__dict__.update(snippet.__dict__, version=new_version)
        content[snippet.snippet_id] = copy
    return ConstraintStore(store.versions + (tuple(content.values()),))


def build_query(
    z: PerceptionSummary, driver: DriverProfile, vehicle: VehicleProfile
) -> RetrievalQuery:
    """Form the retrieval query from vehicle identity, driver profile, and z.

    Situation terms take every perception label (driver state describes the
    situation as much as the scene does) plus the content tokens of the three
    summary stages, deduplicated in source order. An all-empty context falls
    back to the single term "general" so the query invariant holds.
    """
    sensitivity = driver.query_sensitivities()
    for preference in (driver.alert_modality_preference, driver.style_preference):
        sensitivity.extend(content_tokens(preference))

    situation: list[str] = []
    for text in (*z.all_labels(), *z.summary_stages()):
        situation.extend(content_tokens(text))

    sensitivity = dedup_preserve_order(sensitivity)
    situation = dedup_preserve_order(situation)
    if not sensitivity and not situation:
        situation = ["general"]
    return RetrievalQuery(
        jurisdiction=vehicle.jurisdiction,
        operating_mode=vehicle.operating_mode,
        sensitivity_terms=tuple(sensitivity),
        situation_terms=tuple(situation),
    )


class LexicalScorer:
    """Cosine over term-frequency vectors of normalized content tokens."""

    kind = "lexical"

    def scores(self, index: LexicalIndex, query: RetrievalQuery, top_k: int) -> dict[int, float]:
        """Exact cosines keyed by index position of the snippets that share a
        query token and may rank in the ``top_k`` best; all that share one
        when ``top_k`` reaches the store size.

        Snippets are preselected by dot product times inverse norm, the cosine
        times the query norm up to a few ulps: every one within a relative
        1e-9 of the k-th largest product survives and is scored exactly. Every
        snippet left out scores 0.0 or ranks below the k best.

        The k-th largest product is found group by group, in descending order
        of each norm group's best product, stopping at the first group whose
        best cannot beat the k products already held; only the groups whose
        best reaches the floor are scanned for survivors.
        """
        check_count(top_k, "BAD_TOP_K", "top_k")
        query_frequencies = Counter(query.tokens())
        query_sq = sum(count * count for count in query_frequencies.values())
        dots = _dot_products(index, query_frequencies)
        survivors: Iterable[int] = itertools.compress(range(len(dots)), dots)
        if top_k < len(dots):
            bests = sorted(
                ((max(dots[start:end]) * inverse, start, end, inverse) for start, end, inverse in index.groups),
                reverse=True,
            )
            held: list[float] = []
            for best, start, end, inverse in bests:
                if len(held) == top_k and best <= held[0]:
                    break
                for dot in heapq.nlargest(top_k, dots[start:end]):
                    product = dot * inverse
                    if len(held) < top_k:
                        heapq.heappush(held, product)
                    elif product > held[0]:
                        heapq.heapreplace(held, product)
                    else:
                        break
            # fewer held products than top_k: the k-th largest is a stopword snippet's 0.0
            floor = held[0] * (1 - _SURVIVOR_MARGIN) if len(held) == top_k else 0.0
            if floor > 0:
                survivors = [
                    position
                    for best, start, end, inverse in bests
                    if best >= floor
                    for position in range(start, end)
                    if dots[position] * inverse >= floor
                ]
        norms = index.squared_norms
        return {
            position: cosine_from_counts(dots[position], norms[position], query_sq)
            for position in survivors
        }

    def rank(
        self, store: ConstraintStore, version: int | None, query: RetrievalQuery, top_k: int
    ) -> tuple[RankedSnippet, ...]:
        """The k best hits by (-score, snippet_id), then zero-score snippets
        in snippet_id order up to ``top_k``."""
        index = store.lexical_index(version)
        hits = self.scores(index, query, top_k)
        ids = index.snippet_ids
        best = sorted(hits, key=lambda position: (-hits[position], ids[position]))[:top_k]
        ranked = [RankedSnippet(ids[position], hits[position]) for position in best]
        # fewer hits than top_k means every snippet sharing a query token is a hit
        zero_scored = (position for position in index.id_order if position not in hits)
        for position in itertools.islice(zero_scored, top_k - len(ranked)):
            ranked.append(RankedSnippet(ids[position], 0.0))
        return tuple(ranked)


def retrieve(
    store: ConstraintStore,
    query: RetrievalQuery,
    top_k: int,
    scorer=None,
    version: int | None = None,
) -> RetrievalResult:
    """Top-k snippets by score; ties broken by snippet_id ascending.

    When fewer than ``top_k`` snippets share a query token, the lexical
    scorer fills the rest with zero-score snippets in snippet_id order.
    """
    if not store.snapshot(version):
        raise InputError("EMPTY_STORE", "no snippets in the selected store version")
    if scorer is None:
        scorer = LexicalScorer()
    ranked = scorer.rank(store, version, query, top_k)
    resolved = store.version if version is None else version
    return RetrievalResult(ranked, scorer.kind, resolved)


def compress(ranked: Sequence[ConstraintSnippet], token_budget: int) -> tuple[ConstraintSnippet, ...]:
    """Budgeted constraint summary over snippets given in retrieval order.

    Re-orders by layer priority (stable, so retrieval order survives within a
    layer), then includes whole snippets until the next one would exceed the
    budget. Tokens are whitespace-delimited units; snippets are never split,
    and the kept snippets are returned as they are.
    """
    check_count(token_budget, "BAD_BUDGET", "token_budget")
    ordered = sorted(ranked, key=lambda snippet: LAYER_PRIORITY[snippet.layer])
    kept = []
    used = 0
    for snippet in ordered:
        cost = len(snippet.text.split())
        if used + cost > token_budget:
            break
        kept.append(snippet)
        used += cost
    return tuple(kept)


def load_store(snippets: Iterable[ConstraintSnippet]) -> ConstraintStore:
    """Build a one-update store (version 1) from a snippet corpus."""
    return update_store(empty_store(), list(snippets))
