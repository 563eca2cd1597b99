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
int per common token holding its term frequency in every snippet, a byte
each. A query sums the packed columns of its tokens as plain ints and adds
its rare tokens through their postings, then preselects the top ``top_k`` by
a float product a few ulps from the cosine. When the query's largest
possible dot product is below 256, the sum's bytes are the dot products: the
walk searches them with ``bytes.find``, value by value from that bound down,
and stops at the first value that cannot beat the k products already held.
A larger bound sums 16-bit columns, packed on first use and kept, and walks
the norm groups instead, best first by their largest dot product. Only the
survivors are scored exactly.
``retrieve`` takes any scorer with a ``kind`` and a
``rank(store, version, query, top_k)`` method; the toolkit ships only
``LexicalScorer``.
"""

from __future__ import annotations

import bisect
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
        """The content tokens of every part in turn, from one scan: a space ends each part's last token."""
        return content_tokens(" ".join([self.jurisdiction, self.operating_mode, *self.sensitivity_terms,
                                        *self.situation_terms]))


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


# Packed term columns: a token held by at least 1/32 of a version's snippets is one int holding a slot per
# snippet: a byte when its peak is below _BYTE_LIMIT, and an array("H") item for a bound below _SLOT_LIMIT.
_PACKED_SHARE = 32
_SLOT_LIMIT = 1 << 16
# Relative margin under the k-th approximate score that still survives to the
# exact rescoring; approximate and exact scores differ by a few ulps.
_SURVIVOR_MARGIN = 1e-9
# A query whose largest possible dot product is below this sums the byte columns, and walks the bytes of that sum
# value by value.
_BYTE_LIMIT = 256
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
    1/32 of the snippets with a peak below 256 to one int whose byte ``p`` is
    its term frequency in snippet ``p``; ``_wide_columns``, filled and kept by
    ``_dot_products``, the same with 16-bit slots, whatever the peak.
    """

    snippet_ids: tuple[str, ...]
    id_order: array
    squared_norms: array
    groups: tuple[tuple[int, int, float], ...]
    postings: dict[str, tuple[array, array]]
    peaks: dict[str, int]
    columns: dict[str, int]
    _wide_columns: dict[str, int] = field(default_factory=dict, init=False, repr=False, compare=False)


def _pack(entry: tuple[array, array], slots: bytearray | array) -> int:
    """The zeroed ``slots`` with each posting's term frequency stored at its position, as one native-order int."""
    for position, count in zip(*entry):
        slots[position] = count
    return int.from_bytes(slots, sys.byteorder)


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
    columns = {token: _pack(entry, bytearray(size)) for token, entry in postings.items()
               if len(entry[0]) * _PACKED_SHARE >= size and peaks[token] < _BYTE_LIMIT}
    return LexicalIndex(
        snippet_ids=tuple(ordered[id_rank].snippet_id for id_rank in by_norm),
        id_order=array("i", id_order),
        squared_norms=squared_norms,
        groups=tuple(groups),
        postings=postings,
        peaks=peaks,
        columns=columns,
    )


def _dot_bound(index: LexicalIndex, query_frequencies: Counter) -> int:
    """The largest dot product any snippet can have with the query: each token's multiplicity times its largest
    term frequency, summed."""
    peaks = index.peaks
    return sum(m * peaks.get(token, 0) for token, m in query_frequencies.items())


def _dot_products(index: LexicalIndex, query_frequencies: Counter, bound: int | None = None) -> Sequence[int]:
    """Each snippet's exact integer dot product with the query, by position.

    The packed columns of the query's tokens are summed as plain ints, so
    every slot adds up in C; rare tokens add in through their postings. The
    query's ``bound`` (``_dot_bound``, computed when not given) caps every
    slot: below 256 the byte columns are summed, and the sum's bytes are the
    dot products; below 2**16 the 16-bit columns, each packed on first use
    and kept on the index; from 2**16 every token goes through its postings.
    """
    size = len(index.snippet_ids)
    if bound is None:
        bound = _dot_bound(index, query_frequencies)
    postings = index.postings
    if bound < _BYTE_LIMIT:
        columns = index.columns
    elif bound < _SLOT_LIMIT:
        columns = index._wide_columns
        for token in (query_frequencies.keys() & postings.keys()) - columns.keys():
            if len(postings[token][0]) * _PACKED_SHARE >= size:
                columns[token] = _pack(postings[token], array("H", bytes(2 * size)))
    else:
        columns = {}
    # a multiplicity of 1 adds the column itself: `1 * column` copies it
    packed = sum(columns[token] if m == 1 else m * columns[token] for token, m in query_frequencies.items()
                 if token in columns)
    rare = [(postings[token], m) for token, m in query_frequencies.items()
            if token not in columns and token in postings]
    dots: Sequence[int]
    if bound < _BYTE_LIMIT:  # the rare tokens add into a copy
        dots = (bytearray if rare else bytes)(packed.to_bytes(size, sys.byteorder))
    elif bound < _SLOT_LIMIT:
        dots = array("H", packed.to_bytes(2 * size, sys.byteorder))
    else:
        dots = [0] * size
    for (positions, counts), multiplicity in rare:
        for position, count in zip(positions, counts):
            dots[position] += multiplicity * count
    return dots


def _floor(held: list[float], top_k: int) -> float:
    """The survivor floor under the k-th largest product held; 0.0 when fewer than ``top_k`` are held, so the
    k-th largest is a 0.0."""
    return held[0] * (1 - _SURVIVOR_MARGIN) if len(held) == top_k else 0.0


def _hold(held: list[float], top_k: int, product: float) -> bool:
    """Keep ``product`` among the ``top_k`` largest held; False when it cannot beat them."""
    if len(held) < top_k:
        heapq.heappush(held, product)
    elif product > held[0]:
        heapq.heapreplace(held, product)
    else:
        return False
    return True


def _walk_values(view: bytes, index: LexicalIndex, bound: int, top_k: int) -> Iterable[int]:
    """The survivors of dot products below 256, one byte each in ``view``, found value by value.

    Positions ascend by squared norm, so within one value the first matches
    hold the largest products: each value yields matches until one cannot
    beat the k products held, and the walk stops at the first value whose
    product at the smallest nonzero norm cannot. The survivor pass then
    searches each value only up to the last squared norm that can reach the
    floor and checks each match exactly.
    """
    norms = index.squared_norms
    largest = index.groups[0][2] if index.groups else 0.0
    held: list[float] = []
    top = 0  # the largest dot product
    for value in range(bound, 0, -1):
        if len(held) == top_k and value * largest <= held[0]:
            break
        position = view.find(value)
        if position >= 0 and not top:
            top = value
        while position >= 0 and _hold(held, top_k, value * (1 / math.sqrt(norms[position]))):
            position = view.find(value, position + 1)
    floor = _floor(held, top_k)
    if not floor:
        return itertools.compress(range(len(view)), view)
    survivors = []
    for value in range(top, 0, -1):
        if value * largest < floor:
            break
        # + 1 covers the float error of the square for any squared norm below 2**49
        end = bisect.bisect_right(norms, (value / floor) ** 2 + 1)
        position = view.find(value, 0, end)
        while position >= 0:
            if value * (1 / math.sqrt(norms[position])) >= floor:
                survivors.append(position)
            position = view.find(value, position + 1, end)
    return survivors


def _walk_groups(dots: Sequence[int], index: LexicalIndex, top_k: int) -> Iterable[int]:
    """The survivors of any dot products, found norm group by norm group.

    Groups are visited in descending order of their best product (largest
    dot times inverse norm), stopping at the first whose best cannot beat the
    k products already held; only the groups whose best reaches the floor are
    scanned for survivors.
    """
    bests = sorted(
        ((max(dots[start:end]) * inverse, start, end, inverse) for start, end, inverse in index.groups),
        reverse=True,
    )
    held: list[float] = []
    for best, start, end, inverse in bests:
        if len(held) == top_k and best <= held[0]:
            break
        for dot in heapq.nlargest(top_k, dots[start:end]):
            if not _hold(held, top_k, dot * inverse):
                break
    floor = _floor(held, top_k)
    if not floor:
        return itertools.compress(range(len(dots)), dots)
    return [
        position
        for best, start, end, inverse in bests
        if best >= floor
        for position in range(start, end)
        if dots[position] * inverse >= floor
    ]


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
    preferences = content_tokens(f"{driver.alert_modality_preference} {driver.style_preference}")
    sensitivity = dedup_preserve_order(driver.query_sensitivities() + preferences)
    situation = dedup_preserve_order(content_tokens(" ".join([*z.all_labels(), *z.summary_stages()])))
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

        When the query's largest possible dot product is below 256, the k-th
        largest product is found by searching the bytes of the summed byte
        columns value by value from that bound down; otherwise norm group by
        norm group, best first. Either walk stops at the first value or
        group that cannot beat the k products already held, and every product
        is the same float ``dot * (1 / sqrt(squared_norm))``.
        """
        check_count(top_k, "BAD_TOP_K", "top_k")
        query_frequencies = Counter(query.tokens())
        query_sq = sum(count * count for count in query_frequencies.values())
        bound = _dot_bound(index, query_frequencies)
        dots = _dot_products(index, query_frequencies, bound)
        if top_k >= len(dots):
            survivors: Iterable[int] = itertools.compress(range(len(dots)), dots)
        elif bound < _BYTE_LIMIT:
            survivors = _walk_values(dots, index, bound, top_k)
        else:
            survivors = _walk_groups(dots, index, top_k)
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
