"""Independent reference implementations and generators used by the tests.

Everything here is written from the defining formulas, structured differently
from the package code on purpose: fractions instead of floats where the value
is rational, recursion instead of dynamic programming, explicit loops instead
of shared helpers. Tests compare package output against these.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
import random
import re
import sys
from array import array
from fractions import Fraction
from functools import lru_cache

from ecpo.context import (
    Assertions,
    ConstraintSnippet,
    DriverProfile,
    ParameterBound,
    PerceptionSummary,
    SampleRecord,
    SplitMix64,
    StrategyPrompt,
    VehicleProfile,
    seeded_shuffle,
    stream_seed,
)
from ecpo.errors import (InputError, cut, read_as, read_int, read_list, read_number, read_optional, read_string,
                         read_strings, shown)
from ecpo.policy import ActionType, LowLevelMatch, ParseOutcome, parse_action_type, parse_policy
from ecpo.store import LexicalIndex, RetrievalQuery
from ecpo.textnorm import STOPWORDS, content_tokens, normalize_text, tokenize
from ecpo.validator import CheckResult, EcpoReport, ViolationSummary

MASK64 = (1 << 64) - 1


def splitmix64_stream(seed: int):
    """Reference splitmix64, transcribed from the published algorithm."""
    state = seed & MASK64
    while True:
        state = (state + 0x9E3779B97F4A7C15) & MASK64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        yield z ^ (z >> 31)


def fisher_yates_reference(items: list, seed: int) -> list:
    """Modulo-draw Fisher-Yates over a fresh splitmix64 stream."""
    stream = splitmix64_stream(seed)
    out = list(items)
    for i in range(len(out) - 1, 0, -1):
        j = next(stream) % (i + 1)
        out[i], out[j] = out[j], out[i]
    return out


def fnv1a64_reference(text: str) -> int:
    value = 0xCBF29CE484222325
    for byte in text.encode("utf-8"):
        value = ((value ^ byte) * 0x100000001B3) & MASK64
    return value


def pair_mixed_reference(in_samples, out_samples, seed: int, block_size: int = 1) -> list:
    """Mixed pairing by index: the k-th in-cabin record of a split takes shuffled
    positions k*block_size .. k*block_size+block_size-1 of its split, modulo the
    pool size."""
    by_split: dict[str, list] = {}
    for record in out_samples:
        by_split.setdefault(record.split, []).append(record)
    shuffled: dict[str, list] = {}
    counters: dict[str, int] = {}
    for split in sorted({record.split for record in in_samples}):
        pool = by_split.get(split)
        if not pool:
            raise InputError("EMPTY_SPLIT", f"split {split!r} has no out-of-cabin samples")
        shuffled[split] = seeded_shuffle(pool, SplitMix64(stream_seed(seed, split)))
        counters[split] = 0
    paired = []
    for record in in_samples:
        pool = shuffled[record.split]
        position = counters[record.split]
        counters[record.split] = position + 1
        start = position * block_size
        block = [pool[(start + offset) % len(pool)] for offset in range(block_size)]
        paired.append(merge_pair_reference(record, block))
    return paired


def merge_pair_reference(in_record, block) -> SampleRecord:
    """The joint record rebuilt field by field: driver side from in-cabin, scene side from the block."""
    in_z = in_record.prompt.z
    scene_labels = list(in_z.scene_labels)
    objects = list(in_z.objects)
    stages = {name: [getattr(in_z, name)] for name in
              ("summary_initial", "summary_transition", "summary_final")}
    for member in block:
        z = member.prompt.z
        scene_labels.extend(z.scene_labels)
        objects.extend(z.objects)
        for name in stages:
            stages[name].append(getattr(z, name))
    merged_z = PerceptionSummary(
        driver_labels=in_z.driver_labels,
        scene_labels=tuple(dict.fromkeys(scene_labels)),
        summary_initial=" ".join(part for part in stages["summary_initial"] if part),
        summary_transition=" ".join(part for part in stages["summary_transition"] if part),
        summary_final=" ".join(part for part in stages["summary_final"] if part),
        objects=tuple(dict.fromkeys(objects)),
    )

    vehicle = block[0].prompt.vehicle
    if vehicle == VehicleProfile():
        vehicle = in_record.prompt.vehicle
    prompt = StrategyPrompt(
        prompt_id="+".join([in_record.prompt.prompt_id] + [m.prompt.prompt_id for m in block]),
        z=merged_z,
        driver=in_record.prompt.driver,
        vehicle=vehicle,
        constraints=in_record.prompt.constraints,
    )

    labels: dict[str, object] = {}
    for member in block:
        labels.update(member.ground_truth_labels)
    labels.update(in_record.ground_truth_labels)

    reference = in_record.reference_policy or block[0].reference_policy
    return SampleRecord(
        prompt=prompt,
        split=in_record.split,
        reference_policy=reference,
        ground_truth_labels=labels,
    )


def core_reference(severity: int, count: int) -> float:
    value = Fraction(1) - Fraction(severity, 4) - Fraction(min(count, 10), 10)
    return float(max(Fraction(0), value))


def ecpo_reference(weights, components) -> float:
    total = sum(Fraction(str(w)) * Fraction(str(s)) for w, s in zip(weights, components))
    return float(min(Fraction(1), max(Fraction(0), total)))


def iou_emr_reference(samples) -> tuple[float, float]:
    """Exact rational IoU and exact-match means over eligible samples."""
    eligible = [s for s in samples if s.truth or s.prediction]
    iou = sum(Fraction(len(s.truth & s.prediction), len(s.truth | s.prediction)) for s in eligible)
    emr = sum(1 for s in eligible if s.truth == s.prediction)
    n = len(eligible)
    return (float(100 * iou / n), float(Fraction(100 * emr, n)))


def sample_f1_reference(samples, epsilon: float) -> float:
    eligible = [s for s in samples if s.truth or s.prediction]
    total = 0.0
    for s in eligible:
        total += 2 * len(s.truth & s.prediction) / (len(s.truth) + len(s.prediction) + epsilon)
    return 100 * total / len(eligible)


def classification_reference(truth, prediction) -> tuple[float, float]:
    classes = sorted(set(truth) | set(prediction))
    accuracy = Fraction(sum(1 for t, p in zip(truth, prediction) if t == p), len(truth))
    f1_sum = Fraction(0)
    for cls in classes:
        tp = sum(1 for t, p in zip(truth, prediction) if t == cls and p == cls)
        fp = sum(1 for t, p in zip(truth, prediction) if t != cls and p == cls)
        fn = sum(1 for t, p in zip(truth, prediction) if t == cls and p != cls)
        if 2 * tp + fp + fn:
            f1_sum += Fraction(2 * tp, 2 * tp + fp + fn)
    return (float(100 * accuracy), float(100 * f1_sum / len(classes)))


def lcs_reference(a: tuple, b: tuple) -> int:
    @lru_cache(maxsize=None)
    def rec(i: int, j: int) -> int:
        if i == len(a) or j == len(b):
            return 0
        if a[i] == b[j]:
            return 1 + rec(i + 1, j + 1)
        return max(rec(i + 1, j), rec(i, j + 1))

    return rec(0, 0)


def rouge_l_reference(references, hypotheses) -> float:
    total = Fraction(0)
    for reference, hypothesis in zip(references, hypotheses):
        ref = tuple(reference.casefold().split())
        hyp = tuple(hypothesis.casefold().split())
        lcs = lcs_reference(ref, hyp)
        if lcs:
            precision = Fraction(lcs, len(hyp))
            recall = Fraction(lcs, len(ref))
            total += 2 * precision * recall / (precision + recall)
    return float(100 * total / len(references))


def bleu4_reference(references, hypotheses, epsilon: float) -> float:
    ref_tokens = [r.casefold().split() for r in references]
    hyp_tokens = [h.casefold().split() for h in hypotheses]
    hyp_len = sum(len(t) for t in hyp_tokens)
    ref_len = sum(len(t) for t in ref_tokens)
    if hyp_len == 0:
        return 0.0
    log_sum = 0.0
    for order in range(1, 5):
        matches = 0
        total = 0
        for ref, hyp in zip(ref_tokens, hyp_tokens):
            grams = [tuple(hyp[i:i + order]) for i in range(len(hyp) - order + 1)]
            ref_grams = [tuple(ref[i:i + order]) for i in range(len(ref) - order + 1)]
            total += len(grams)
            for gram in set(grams):
                matches += min(grams.count(gram), ref_grams.count(gram))
        if total == 0:
            precision = epsilon
        elif matches == 0:
            precision = epsilon / total
        else:
            precision = matches / total
        log_sum += math.log(precision) / 4
    brevity = 1.0 if hyp_len > ref_len else math.exp(1 - ref_len / hyp_len)
    return 100.0 * brevity * math.exp(log_sum)


def haz_f1_reference(truth: frozenset, addressed: frozenset, epsilon: float) -> float:
    overlap = len(truth & addressed)
    precision = overlap / (len(addressed) + epsilon)
    recall = overlap / (len(truth) + epsilon)
    return 100.0 * 2 * precision * recall / (precision + recall + epsilon)


def has_reference(no_violation: bool, safe: bool, supported: bool) -> float:
    return 100.0 * (0.5 * no_violation + 0.3 * safe + 0.2 * supported)


def spearman_reference(x, y) -> float | None:
    def ranks(values):
        ordered = sorted(values)
        return [Fraction(ordered.index(v) + 1 + ordered.index(v) + ordered.count(v), 2) for v in values]

    rx, ry = ranks(x), ranks(y)
    n = len(x)
    mx = sum(rx) / n
    my = sum(ry) / n
    vx = sum((r - mx) ** 2 for r in rx)
    vy = sum((r - my) ** 2 for r in ry)
    if vx == 0 or vy == 0:
        return None
    cov = sum((a - mx) * (b - my) for a, b in zip(rx, ry))
    return float(cov) / math.sqrt(float(vx) * float(vy))


def term_counts(tokens) -> dict[str, int]:
    """How often each token occurs, counted one token at a time."""
    counts: dict[str, int] = {}
    for token in tokens:
        counts[token] = counts.get(token, 0) + 1
    return counts


def lexical_cosine(left, right) -> float:
    """Cosine similarity of raw term-frequency vectors; either side empty scores 0.0. The dot product and the
    squared norms are exact integers divided as ``dot / math.sqrt(lsq * rsq)``, the formula
    ``textnorm.cosine_from_counts`` documents, so a score equals the index's to the last bit."""
    left_counts, right_counts = term_counts(left), term_counts(right)
    dot = sum(count * right_counts.get(token, 0) for token, count in left_counts.items())
    if dot == 0:
        return 0.0
    lsq = sum(count * count for count in left_counts.values())
    rsq = sum(count * count for count in right_counts.values())
    return dot / math.sqrt(lsq * rsq)


def query_tokens_reference(query: RetrievalQuery) -> list[str]:
    """A query's content tokens, one part at a time: the jurisdiction, the operating mode, then each
    sensitivity and situation term, each part's maximal runs of ASCII 0-9a-z after casefold, stopwords
    dropped."""
    tokens = []
    for part in (query.jurisdiction, query.operating_mode, *query.sensitivity_terms, *query.situation_terms):
        tokens.extend(token for token in re.findall(r"[0-9a-z]+", part.casefold()) if token not in STOPWORDS)
    return tokens


def lexical_ranking_reference(
    snippets, query: RetrievalQuery, top_k: int
) -> tuple[tuple[str, float], ...]:
    """Brute-force lexical retrieval: the cosine of every snippet against the
    query, sorted by (-score, snippet_id), as (snippet_id, score) pairs."""
    query_tokens = query.tokens()
    scored = [(lexical_cosine(content_tokens(s.text), query_tokens), s.snippet_id) for s in snippets]
    scored.sort(key=lambda pair: (-pair[0], pair[1]))
    return tuple((snippet_id, score) for score, snippet_id in scored[:top_k])


def lexical_survivors_reference(snippets, query: RetrievalQuery, top_k: int) -> dict[str, float]:
    """Brute-force survivor set of the lexical preselection, as {snippet_id: cosine}.

    Every snippet gets its integer dot product d with the query, its integer
    squared norm n and the product d * (1/sqrt(n)) (0.0 when n is 0). With
    ``top_k`` below the store size, the floor is the k-th largest product
    times (1 - 1e-9), and every snippet whose product reaches a positive floor
    survives; otherwise every snippet with d > 0 does.
    """
    query_counts = term_counts(query.tokens())
    rows = []
    for s in snippets:
        counts = term_counts(content_tokens(s.text))
        dot = sum(count * query_counts.get(token, 0) for token, count in counts.items())
        norm = sum(count * count for count in counts.values())
        product = dot * (1 / math.sqrt(norm)) if norm else 0.0
        rows.append((s, dot, product))
    floor = 0.0
    if top_k < len(rows):
        floor = sorted((product for _, _, product in rows), reverse=True)[top_k - 1] * (1 - 1e-9)
    return {
        s.snippet_id: lexical_cosine(content_tokens(s.text), query.tokens())
        for s, dot, product in rows
        if (product >= floor if floor > 0 else dot > 0)
    }


def lexical_index_reference(snippets) -> LexicalIndex:
    """The lexical index built one text at a time, as ``store._build_lexical_index`` built it before it
    tokenized texts in chunks: each snippet's ``content_tokens`` counted on their own, postings appended in
    snippet_id order, then renumbered by (squared norm, snippet_id). Each token held by at least 1/32 of the
    snippets with a peak below 256 gets a column of one byte per snippet, filled slot by slot."""
    ordered = sorted(snippets, key=lambda snippet: snippet.snippet_id)
    norms_by_id: list[int] = []
    postings: dict[str, tuple[array, array]] = {}
    for id_rank, snippet in enumerate(ordered):
        frequencies = term_counts(content_tokens(snippet.text))
        norms_by_id.append(sum(count * count for count in frequencies.values()))
        for token, count in frequencies.items():
            entry = postings.setdefault(token, (array("i"), array("i")))
            entry[0].append(id_rank)
            entry[1].append(count)
    size = len(ordered)
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
    columns = {}
    for token, (positions, counts) in postings.items():
        if len(positions) * 32 >= size and peaks[token] < 256:
            slots = bytearray(size)
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


# --- the JSONL reader before it streamed: the whole file decoded, then split at LF --------------------


def jsonl_reference(data: bytes, path: str) -> list | str:
    """The values of a JSONL file's non-blank lines, or the ``CODE: message`` it fails with: the whole file is
    decoded first, a leading byte order mark refused, then each line split at LF is parsed with ``json.loads``.
    A line that fails is quoted without the CR of a CRLF ending, so a CRLF file reads as its LF twin."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        return f"BAD_FILE: cannot read input {path}: {exc}"
    if text[:1] == "\ufeff":
        return f"BAD_FILE: cannot read input {path}: starts with a UTF-8 byte order mark"
    values = []
    for number, line in enumerate(text.split("\n"), start=1):
        if not line.strip(" \t\r"):
            continue
        if line.endswith("\r"):
            line = line[:-1]
        try:
            values.append(json.loads(line))
        except (ValueError, RecursionError) as error:
            return f"BAD_LINE: {path}:{number}: {error}"
    return values


# --- the policy parser before it took decoded values: an inline document encoded, then parsed as text -----


def parse_policy_reference(value: object) -> ParseOutcome:
    """``parse_policy`` of an inline ``document`` as it was reached before: the decoded value encoded by
    ``json.dumps`` (NaN, the infinities and lone surrogates included), then parsed as JSON text."""
    return parse_policy(json.dumps(value))


# --- the snippet reader before string fields were checked in place --------------------------------
# Every field goes through a reader call and every instance through its dataclass __init__; the decoder
# fault table holds the package's snippet_from_dict to the same codes, messages and values.


def _read_record_reference(raw, fields, code, what, required=()):
    if not isinstance(raw, dict):
        raise InputError(code, f"{what} must be an object, got {shown(raw)}")
    for key in required:
        if key not in raw:
            raise InputError(code, f"{what} needs a {key!r} field")
    record = {}
    for key, value in raw.items():
        try:
            reader = fields[key]
        except KeyError:
            raise InputError(code, f"{what} has unknown field {shown(key)}") from None
        record[key] = value if reader is None else reader(value, code, key)
    return record


def _action_type_reference(name, what):
    parsed = parse_action_type(read_string(name, "BAD_SNIPPET", what))
    if parsed is None:
        raise InputError("BAD_SNIPPET", f"unmappable {what} {shown(name)}")
    return parsed


def _parameter_bound_reference(entry):
    if not isinstance(entry, list) or len(entry) != 4:
        raise InputError("BAD_SNIPPET", f"parameter bound {shown(entry)} is not a 4-item list")
    action, parameter, minimum, maximum = entry
    parameter = read_string(parameter, "BAD_SNIPPET", "bound parameter")
    return ParameterBound(
        _action_type_reference(action, "bound action type"),
        parameter,
        float(read_number(minimum, "BAD_SNIPPET", f"minimum of bound {shown(parameter)}")),
        float(read_number(maximum, "BAD_SNIPPET", f"maximum of bound {shown(parameter)}")),
    )


_ASSERTION_READERS = {
    "forbidden_action_types": lambda value, code, what: frozenset(
        _action_type_reference(name, "forbidden action type") for name in read_strings(value, code, what)),
    "parameter_bounds": read_list(_parameter_bound_reference),
    "required_modalities": read_as(frozenset, read_strings),
    "forbidden_keywords": read_strings,
}


def _assertions_reference(value, code, what):
    if value is None or value == {}:
        return None
    return Assertions(**_read_record_reference(value, _ASSERTION_READERS, code, what))


def _version_reference(value, code, what):
    if read_int(value, code, what) < 0:
        raise InputError(code, f"{what} must be a non-negative integer, got {shown(value)}")
    return value


_SNIPPET_READERS = {
    "snippet_id": read_string,
    "layer": read_string,
    "clause_id": read_string,
    "text": read_string,
    "jurisdiction": read_optional(read_string),
    "vehicle_config": read_optional(read_string),
    "assertions": _assertions_reference,
    "version": _version_reference,
}


def snippet_fields_reference(raw) -> dict:
    """The decoded fields of a snippet record, read field by field through the typed readers."""
    required = ("snippet_id", "layer", "clause_id", "text")
    return _read_record_reference(raw, _SNIPPET_READERS, "BAD_SNIPPET", "snippet record", required)


def snippet_from_dict_reference(raw) -> ConstraintSnippet:
    return ConstraintSnippet(**snippet_fields_reference(raw))


def contains_phrase(tokens: list[str], phrase_tokens: list[str]) -> bool:
    """Sliding-window reference: ``phrase_tokens`` occurs contiguously in ``tokens``."""
    if not phrase_tokens or len(phrase_tokens) > len(tokens):
        return False
    width = len(phrase_tokens)
    for start in range(len(tokens) - width + 1):
        if tokens[start:start + width] == phrase_tokens:
            return True
    return False


def jaccard(left: set[str], right: set[str]) -> float:
    """Token-set Jaccard; either side empty scores 0.0 (nothing to ground)."""
    if not left or not right:
        return 0.0
    union = left | right
    return len(left & right) / len(union)


def derive_hazards_reference(z, snippets, rules) -> frozenset[str]:
    """Hazards whose trigger occurs, by sliding window, in one text of a covered scope."""
    sources = {
        "labels": list(z.driver_labels) + list(z.scene_labels),
        "summaries": [z.summary_initial, z.summary_transition, z.summary_final],
        "snippets": [snippet.text for snippet in snippets],
    }
    fired = set()
    for rule in rules:
        for scope in ("labels", "summaries", "snippets"):
            if scope not in rule.scopes:
                continue
            for text in sources[scope]:
                if any(contains_phrase(tokenize(text), tokenize(trigger)) for trigger in rule.triggers):
                    fired.add(rule.hazard_id)
    return frozenset(fired)


def maneuver_reference(z, action_texts, maneuvers) -> tuple[frozenset[str], list[str]]:
    """Maneuvers of the scene and the maneuver-consistency hits, by sliding window.

    The scene is the scene labels and summary stages, each text on its own; an
    action is the list of its texts, whose tokens run on from one to the next.
    """
    def mentioned(tokens, triggers):
        return any(contains_phrase(tokens, tokenize(trigger)) for trigger in triggers)

    scene_texts = list(z.scene_labels) + [z.summary_initial, z.summary_transition, z.summary_final]
    scene = frozenset(
        name for name, triggers in maneuvers.items()
        if any(mentioned(tokenize(text), triggers) for text in scene_texts)
    )
    hits = []
    for name, triggers in maneuvers.items():
        if name in scene:
            continue
        actions = [i for i, texts in enumerate(action_texts) if mentioned(sum(map(tokenize, texts), []), triggers)]
        if actions:
            hits.append(f"actions {actions} reference {name} absent from the scene")
    return scene, hits


def grounded_reference(entry: str, z, snippets, threshold: float) -> bool:
    """Exact label/object match, or Jaccard >= threshold against every candidate text."""
    exact = {normalize_text(text) for text in z.driver_labels + z.scene_labels + z.objects} - {""}
    if normalize_text(entry) in exact:
        return True
    texts = [z.summary_initial, z.summary_transition, z.summary_final]
    texts += list(z.driver_labels + z.scene_labels + z.objects) + [s.text for s in snippets]
    entry_tokens = set(content_tokens(entry))
    return any(jaccard(entry_tokens, set(content_tokens(text))) >= threshold for text in texts)


# --- the keyword scans before the union prefilter: every pattern over every text -----------------


def _reference_texts(action) -> list[str]:
    """An action's string parameter values by key, then its rationale."""
    return [value for _, value in sorted(action.parameters.items()) if isinstance(value, str)] + [action.rationale]


def _spans_a_character(regex: re.Pattern, text: str) -> list[str]:
    return [hit.group() for hit in regex.finditer(text) if hit.end() > hit.start()]


def low_level_matches_reference(policy, lexicon) -> list[LowLevelMatch]:
    """``detect_low_level_control`` as it scanned before its union prefilter: for each action, each text, each
    lexicon pattern, every match that spans a character."""
    return [
        LowLevelMatch(index, pattern.source, hit)
        for index, action in enumerate(policy.actions)
        for text in _reference_texts(action)
        for pattern in lexicon
        for hit in _spans_a_character(pattern.regex, text)
    ]


def forbidden_keyword_check_reference(policy, snippets, check_id: str, layer: str) -> CheckResult:
    """A forbidden-keyword check as it ran before the union prefilter: each action's joined non-empty texts
    against each keyword of each snippet, in snippet order, a keyword compiled on its own as a whole word."""
    carriers = [(s, keyword) for s in snippets if s.assertions for keyword in s.assertions.forbidden_keywords]
    if not carriers:
        return CheckResult(check_id, layer, True, "not applicable: no keyword assertions")
    hits, clause = [], None
    for index, action in enumerate(policy.actions):
        text = " ".join(t for t in _reference_texts(action) if t)
        for snippet, keyword in carriers:
            if _spans_a_character(re.compile(rf"\b(?:{keyword})\b", re.IGNORECASE), text):
                hits.append(f"action {index} matches {shown(keyword)} (clause {cut(snippet.clause_id)})")
                clause = clause or snippet.clause_id
    if hits:
        return CheckResult(check_id, layer, False, "; ".join(hits), clause)
    return CheckResult(check_id, layer, True, "no forbidden keyword present", clause)


def fake_report(ecpo: float, schema_valid: bool = True, severity: int = 0, count: int = 0) -> EcpoReport:
    """Minimal report carrying just the fields score-driven code reads."""
    return EcpoReport(
        checks=(),
        violation=ViolationSummary(severity, count),
        s_core=1.0,
        s_evd=1.0,
        s_str=1.0,
        ecpo=ecpo,
        weights_used=(0.5, 0.3, 0.2),
        low_level_matches=(),
        schema_valid=schema_valid,
        defects=(),
        hazards_truth=frozenset(),
        hazards_addressed=frozenset(),
    )


def report_dict_reference(report: EcpoReport) -> dict:
    """A validation report as JSON values, written field by field."""
    return {
        "schema_valid": report.schema_valid,
        "checks": [
            {
                "check_id": c.check_id,
                "layer": c.layer,
                "passed": c.passed,
                "detail": c.detail,
                "clause_ref": c.clause_ref,
            }
            for c in report.checks
        ],
        "violation": {"severity": report.violation.severity, "count": report.violation.count},
        "s_core": report.s_core,
        "s_evd": report.s_evd,
        "s_str": report.s_str,
        "ecpo": report.ecpo,
        "weights_used": list(report.weights_used),
        "low_level_matches": [
            {
                "action_index": m.action_index,
                "matched_pattern": m.matched_pattern,
                "matched_text": m.matched_text,
            }
            for m in report.low_level_matches
        ],
        "defects": [{"code": d.code, "path": d.path, "message": d.message} for d in report.defects],
        "hazards_truth": sorted(report.hazards_truth),
        "hazards_addressed": sorted(report.hazards_addressed),
    }


def echo_reference(config) -> dict:
    """A run config as JSON values through ``dataclasses.asdict``, its tuples as lists."""
    return {
        name: list(value) if isinstance(value, tuple) else value
        for name, value in dataclasses.asdict(config).items()
    }


_WORDS = (
    "steady", "calm", "lane", "signal", "junction", "cabin", "comfort",
    "attention", "road", "traffic", "light", "speed", "distance", "mirror",
)

_PARAM_NAMES = ("modality", "text", "fan_level", "theme", "zones", "duration_s")


def random_phrase(rng: random.Random, low: int = 2, high: int = 6) -> str:
    return " ".join(rng.choice(_WORDS) for _ in range(rng.randint(low, high)))


def random_policy_dict(rng: random.Random) -> dict:
    """Schema-valid policy with randomized shape for round-trip tests."""
    layers = ("legal_regulations", "vehicle_limits", "driver_preferences", "contextual_evidence")
    constraints = {
        layer: random_phrase(rng)
        for layer in rng.sample(layers, rng.randint(1, 4))
    }
    actions = []
    for _ in range(rng.randint(1, 5)):
        parameters = {}
        for name in rng.sample(_PARAM_NAMES, rng.randint(0, 3)):
            choice = rng.random()
            if choice < 0.4:
                parameters[name] = random_phrase(rng, 1, 3)
            elif choice < 0.7:
                parameters[name] = rng.randint(0, 40)
            else:
                parameters[name] = round(rng.uniform(0, 40), 3)
        actions.append(
            {
                "type": rng.choice([t.value for t in ActionType]),
                "parameters": parameters,
                "rationale": random_phrase(rng),
                "evidence": {
                    "in_cabin_text": [random_phrase(rng) for _ in range(rng.randint(0, 2))],
                    "out_of_vehicle_text": [random_phrase(rng) for _ in range(rng.randint(0, 2))],
                    "objects": [f"obj-{rng.randint(1, 9)}" for _ in range(rng.randint(0, 2))],
                    "labels": [rng.choice(_WORDS) for _ in range(rng.randint(0, 2))],
                },
            }
        )
    return {"objectives": random_phrase(rng), "constraints": constraints, "actions": actions}


# --- Violation-planting rig -------------------------------------------------
#
# A base (prompt, policy) pair that passes every layered check, plus eleven
# independent mutations, one per check. Mutations compose: applying any
# subset makes exactly that subset of checks fail.

BASE_POLICY = {
    "objectives": "maintain smooth safe progress through the junction",
    "constraints": {
        "legal_regulations": "observe posted signals and signage",
        "vehicle_limits": "cabin actuators operate in normal range",
        "driver_preferences": "visual prompts at low frequency",
        "contextual_evidence": "clear road with light movement",
    },
    "actions": [
        {
            "type": "HmiPrompt",
            "parameters": {"modality": "visual", "text": "route update on the display"},
            "rationale": "a single visual cue keeps attention on the road",
            "evidence": {"in_cabin_text": ["driver attentive"], "out_of_vehicle_text": [],
                         "objects": [], "labels": []},
        },
        {
            "type": "Hvac",
            "parameters": {"target_temperature": 23, "fan_level": 3},
            "rationale": "hold the cabin at a comfortable set point",
            "evidence": {"in_cabin_text": ["cabin comfortable"], "out_of_vehicle_text": [],
                         "objects": [], "labels": []},
        },
        {
            "type": "AmbientLight",
            "parameters": {"brightness_pct": 50, "intensity_level": 5},
            "rationale": "neutral lighting for a calm cabin",
            "evidence": {"in_cabin_text": ["lighting steady"], "out_of_vehicle_text": [],
                         "objects": [], "labels": []},
        },
        {
            "type": "DrivingSuggestion",
            "parameters": {"text": "keep a steady pace in the open lane"},
            "rationale": "traffic is light and the lane is clear",
            "evidence": {"in_cabin_text": [], "out_of_vehicle_text": ["open lane ahead"],
                         "objects": [], "labels": []},
        },
    ],
}

BASE_SCENE_LABELS = ("clear road",)
BASE_STAGES = (
    "clear road ahead with light movement",
    "the vehicle holds a steady pace",
    "conditions stay calm and unobstructed",
)


def _base_snippets(forbid_ambient: bool) -> tuple[ConstraintSnippet, ...]:
    legal = ConstraintSnippet(
        snippet_id="legal-01",
        layer="legal",
        clause_id="L-1",
        text="do not instruct the driver to ignore the signal",
        assertions=Assertions(
            forbidden_action_types=frozenset({ActionType.AMBIENT_LIGHT}) if forbid_ambient else frozenset(),
            parameter_bounds=(ParameterBound(ActionType.HMI_PROMPT, "display_timeout_s", 1.0, 30.0),),
            forbidden_keywords=("ignore the signal",),
        ),
    )
    vehicle = ConstraintSnippet(
        snippet_id="veh-01",
        layer="vehicle",
        clause_id="V-1",
        text="ambient brightness is limited to eighty percent",
        assertions=Assertions(
            parameter_bounds=(ParameterBound(ActionType.AMBIENT_LIGHT, "brightness_pct", 0.0, 80.0),),
        ),
    )
    driver = ConstraintSnippet(
        snippet_id="drv-01",
        layer="driver",
        clause_id="D-1",
        text="driver rejects loud siren style alerts",
        assertions=Assertions(
            required_modalities=frozenset({"visual"}),
            forbidden_keywords=("loud siren",),
        ),
    )
    return (legal, vehicle, driver)


def build_planted_case(plants: set[str], prompt_id: str = "plant") -> tuple[dict, StrategyPrompt]:
    """Base case with the given subset of named check mutations applied."""
    import copy

    policy = copy.deepcopy(BASE_POLICY)
    hmi, hvac, ambient, driving = policy["actions"]
    scene_labels = list(BASE_SCENE_LABELS)
    actuators = ["DrivingSuggestion", "HmiPrompt", "Hvac", "AmbientLight"]

    if "legal.forbidden_keyword" in plants:
        hmi["parameters"]["text"] += " and ignore the signal for now"
    if "legal.parameter_bounds" in plants:
        hmi["parameters"]["display_timeout_s"] = 0.5
    if "vehicle.actuator_available" in plants:
        actuators.remove("Hvac")
    if "vehicle.capability_limits" in plants:
        ambient["parameters"]["intensity_level"] = 12
    if "vehicle.snippet_bounds" in plants:
        ambient["parameters"]["brightness_pct"] = 95
    if "driver.modality_binding" in plants:
        hmi["parameters"]["modality"] = "audio"
    if "driver.cabin_band" in plants:
        hvac["parameters"]["target_temperature"] = 27
    if "driver.sensitivity_trigger" in plants:
        driving["parameters"]["text"] += " while a loud siren plays"
    if "contextual.hazard_conservatism" in plants:
        scene_labels.append("heavy rain")
    if "contextual.maneuver_consistency" in plants:
        driving["parameters"]["text"] += " then overtake the slow vehicle"

    prompt = StrategyPrompt(
        prompt_id=prompt_id,
        z=PerceptionSummary(
            scene_labels=tuple(scene_labels),
            summary_initial=BASE_STAGES[0],
            summary_transition=BASE_STAGES[1],
            summary_final=BASE_STAGES[2],
        ),
        driver=DriverProfile(
            alert_modality_preference="visual",
            sensitivities={"noise": "high"},
            cabin_preferences={"temperature_band": (20.0, 26.0)},
        ),
        vehicle=VehicleProfile(available_actuators=tuple(actuators),
                               capability_limits={"AmbientLight": {"intensity_level": (1.0, 10.0)}}),
        constraints=_base_snippets("legal.forbidden_action_type" in plants),
    )
    return policy, prompt


PLANT_LAYERS = {
    "legal.forbidden_action_type": "legal",
    "legal.forbidden_keyword": "legal",
    "legal.parameter_bounds": "legal",
    "vehicle.actuator_available": "vehicle",
    "vehicle.capability_limits": "vehicle",
    "vehicle.snippet_bounds": "vehicle",
    "driver.modality_binding": "driver",
    "driver.cabin_band": "driver",
    "driver.sensitivity_trigger": "driver",
    "contextual.hazard_conservatism": "contextual",
    "contextual.maneuver_consistency": "contextual",
}

LAYER_SEVERITY_TABLE = {"legal": 4, "vehicle": 3, "driver": 2, "contextual": 1}


def expected_violation(plants: set[str]) -> tuple[int, int]:
    severity = max((LAYER_SEVERITY_TABLE[PLANT_LAYERS[p]] for p in plants), default=0)
    return severity, len(plants)
