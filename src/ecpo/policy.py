"""Policy documents: parsing, canonical serialization, structural scoring.

A policy document is a JSON object with three top-level fields: ``objectives``
(free text), ``constraints`` (a four-layer ledger), and ``actions`` (an
ordered, bounded list of typed actions). Parsing is total: every input yields
a ParseOutcome, never an exception. Hard defects make the outcome Invalid;
soft defects ride along on Valid outcomes and feed structural_score.

Low-level vehicle control language (throttle, brake, steering, numeric speed
commands) is detected separately and never flips schema validity; callers
that want a hard gate check the match list themselves.

What the validators read from an action (``ActionFacts``) is built by
``action_facts`` once per parsed policy, on first read, and kept on it;
parsing builds none, so a policy that no check reads, such as a sample's
reference policy, never pays for them.
"""

from __future__ import annotations

import enum
import json
import re
import sys
import warnings
from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path
from typing import Iterable, NamedTuple

from .errors import ConfigError, cut, read_file, read_number, shown
from .textnorm import tokenize

Scalar = str | int | float

DEFAULT_J_MAX = 5

CONSTRAINT_LAYERS = (
    "legal_regulations",
    "vehicle_limits",
    "driver_preferences",
    "contextual_evidence",
)

EVIDENCE_FIELDS = ("in_cabin_text", "out_of_vehicle_text", "objects", "labels")

# Defect codes that make a document Invalid; everything else is soft.
HARD_DEFECT_CODES = frozenset(
    {"UNPARSEABLE", "MISSING_ACTIONS", "NO_ACTIONS", "TOO_MANY_ACTIONS", "BAD_ACTION_TYPE"}
)


class ActionType(enum.Enum):
    DRIVING_SUGGESTION = "DrivingSuggestion"
    HMI_PROMPT = "HmiPrompt"
    HVAC = "Hvac"
    AMBIENT_LIGHT = "AmbientLight"


_ALNUM_ONLY = re.compile(r"[^0-9a-z]+")

# Surface spellings vary in source documents ("Driving suggest", "HMI prompt",
# "HVAC"); keys here are casefolded with punctuation and whitespace stripped.
_ACTION_TYPE_ALIASES = {
    "drivingsuggestion": ActionType.DRIVING_SUGGESTION,
    "drivingsuggest": ActionType.DRIVING_SUGGESTION,
    "hmiprompt": ActionType.HMI_PROMPT,
    "hvac": ActionType.HVAC,
    "ambientlight": ActionType.AMBIENT_LIGHT,
}

_LAYER_ALIASES = {
    "legal_regulations": "legal_regulations",
    "legal": "legal_regulations",
    "vehicle_limits": "vehicle_limits",
    "vehicle": "vehicle_limits",
    "driver_preferences": "driver_preferences",
    "driver": "driver_preferences",
    "contextual_evidence": "contextual_evidence",
    "contextual": "contextual_evidence",
}


def parse_action_type(text: str) -> ActionType | None:
    """Map a surface spelling to its canonical variant, or None."""
    return _ACTION_TYPE_ALIASES.get(_ALNUM_ONLY.sub("", text.casefold()))


@lru_cache(maxsize=1024)
def _norm_key(key: str) -> str:
    """Normalize a document key: casefold, non-alphanumeric runs become '_'; cached, as keys recur."""
    return _ALNUM_ONLY.sub("_", key.casefold()).strip("_")


@dataclass(frozen=True)
class Evidence:
    """The in-cabin, out-of-vehicle, object and label entries an action cites."""

    in_cabin_text: tuple[str, ...] = ()
    out_of_vehicle_text: tuple[str, ...] = ()
    objects: tuple[str, ...] = ()
    labels: tuple[str, ...] = ()

    def is_empty(self) -> bool:
        return not (self.in_cabin_text or self.out_of_vehicle_text or self.objects or self.labels)

    def all_entries(self) -> tuple[str, ...]:
        return self.in_cabin_text + self.out_of_vehicle_text + self.objects + self.labels


@dataclass(frozen=True)
class Action:
    """One policy action: its channel, parameters, rationale and evidence."""

    action_type: ActionType
    parameters: dict[str, Scalar] = field(default_factory=dict)
    rationale: str = ""
    evidence: Evidence = field(default_factory=Evidence)


@dataclass(frozen=True)
class ConstraintLedger:
    """The policy's text for each constraint layer; None where a layer is absent."""

    legal_regulations: str | None = None
    vehicle_limits: str | None = None
    driver_preferences: str | None = None
    contextual_evidence: str | None = None

    def populated(self) -> dict[str, str]:
        out = {}
        for name in CONSTRAINT_LAYERS:
            value = getattr(self, name)
            if value is not None:
                out[name] = value
        return out


@dataclass(frozen=True)
class PolicyAction:
    """A parsed policy document: objectives, constraint ledger and actions."""

    objectives: str
    constraints: ConstraintLedger
    actions: tuple[Action, ...]
    # each action's ActionFacts, set by the first action_facts call; derived state only
    _facts: tuple[ActionFacts, ...] | None = field(default=None, init=False, repr=False, compare=False)


@dataclass(frozen=True)
class StructuralDefect:
    """One structural problem of a policy document: code, path and message."""

    code: str
    path: str
    message: str


@dataclass(frozen=True)
class ParseOutcome:
    """The parsed policy, None when invalid, and every defect found."""

    policy: PolicyAction | None
    defects: tuple[StructuralDefect, ...]

    @property
    def valid(self) -> bool:
        return self.policy is not None

    def defect_codes(self) -> list[str]:
        return [d.code for d in self.defects]


@dataclass(frozen=True)
class LowLevelMatch:
    """A low-level control pattern that matched the text of one action."""

    action_index: int
    matched_pattern: str
    matched_text: str


def parse_policy(document: object, j_max: int = DEFAULT_J_MAX) -> ParseOutcome:
    """Parse a policy document, JSON text (str or UTF-8 bytes) or its decoded value. Total: no failure escapes."""
    defects: list[StructuralDefect] = []

    def defect(code: str, path: str, message: str) -> None:
        defects.append(StructuralDefect(code, path, message))

    if isinstance(document, bytes):
        try:
            document = document.decode("utf-8")
        except UnicodeDecodeError:
            defect("UNPARSEABLE", "$", "document is not UTF-8 text")
            return ParseOutcome(None, tuple(defects))
    if isinstance(document, str):
        try:
            document = json.loads(document)
        except (ValueError, RecursionError):
            defect("UNPARSEABLE", "$", "document is not well-formed JSON")
            return ParseOutcome(None, tuple(defects))
    if not isinstance(document, dict):
        defect("UNPARSEABLE", "$", "top-level value is not an object")
        return ParseOutcome(None, tuple(defects))

    doc = _by_norm_key(document, "$", defect)

    objectives = _parse_objectives(doc.get("objectives"), defect)
    ledger = _parse_constraints(doc.get("constraints"), defect)

    raw_actions = doc.get("actions")
    if not isinstance(raw_actions, list):
        kind = "missing" if raw_actions is None else "not an array"
        defect("MISSING_ACTIONS", "$.actions", f"actions array is {kind}")
        return ParseOutcome(None, tuple(defects))
    if not raw_actions:
        defect("NO_ACTIONS", "$.actions", "policy contains no actions")
    elif len(raw_actions) > j_max:
        defect("TOO_MANY_ACTIONS", "$.actions", f"{len(raw_actions)} actions exceed the limit {j_max}")

    actions = []
    for index, entry in enumerate(raw_actions):
        action = _parse_action(entry, f"$.actions[{index}]", defect)
        if action is not None:
            actions.append(action)

    if any(d.code in HARD_DEFECT_CODES for d in defects):
        return ParseOutcome(None, tuple(defects))
    return ParseOutcome(PolicyAction(objectives, ledger, tuple(actions)), tuple(defects))


def _key_not_text(key: object, path: str, defect) -> None:
    """A key that is not text, which only a library caller can pass (JSON objects are keyed by text)."""
    defect("UNPARSEABLE", path, f"key {shown(key)} is not text")


def _by_norm_key(raw: dict, path: str, defect) -> dict[str, object]:
    """The object's values by normalized key; of two keys normalizing alike the first wins."""
    fields: dict[str, object] = {}
    for key, value in raw.items():
        if isinstance(key, str):
            fields.setdefault(_norm_key(key), value)
        else:
            _key_not_text(key, path, defect)
    return fields


def _parse_objectives(raw: object, defect) -> str:
    if isinstance(raw, str):
        objectives = raw.strip()
        if not objectives:
            defect("MISSING_OBJECTIVES", "$.objectives", "objectives is empty")
        return objectives
    if isinstance(raw, list) and raw and all(isinstance(item, str) for item in raw):
        defect("OBJECTIVES_COERCED", "$.objectives", "objectives list joined into one string")
        objectives = " ".join(item.strip() for item in raw if item.strip())
        if not objectives:
            defect("MISSING_OBJECTIVES", "$.objectives", "objectives list holds no text")
        return objectives
    reason = "missing" if raw is None else "not text"
    defect("MISSING_OBJECTIVES", "$.objectives", f"objectives is {reason}")
    return ""


def _parse_constraints(raw: object, defect) -> ConstraintLedger:
    entries: list[tuple[str, object]] = []
    if isinstance(raw, dict):
        entries = list(raw.items())
    elif isinstance(raw, list):
        for position, item in enumerate(raw):
            if isinstance(item, dict):
                entries.extend(item.items())
            else:
                defect(
                    "BAD_CONSTRAINT_VALUE",
                    f"$.constraints[{position}]",
                    "constraint entry is not an object",
                )
    elif raw is not None:
        defect("BAD_CONSTRAINT_VALUE", "$.constraints", "constraints is not an object or list")

    values: dict[str, str] = {}
    for key, value in entries:
        if not isinstance(key, str):
            _key_not_text(key, "$.constraints", defect)
            continue
        layer = _LAYER_ALIASES.get(_norm_key(key))
        path = f"$.constraints.{cut(key)}"
        if layer is None:
            defect("UNKNOWN_CONSTRAINT_KEY", path, f"unknown constraint layer {shown(key)}")
        elif layer in values:
            defect("DUPLICATE_CONSTRAINT_LAYER", path, f"layer {layer} already set; extra entry ignored")
        elif not isinstance(value, str) or not value.strip():
            defect("BAD_CONSTRAINT_VALUE", path, "constraint value is not non-empty text")
        else:
            values[layer] = value.strip()
    if not values:
        defect("MISSING_CONSTRAINTS", "$.constraints", "no populated constraint layer")
    return ConstraintLedger(**{layer: values.get(layer) for layer in CONSTRAINT_LAYERS})


def _parse_action(entry: object, path: str, defect) -> Action | None:
    if not isinstance(entry, dict):
        defect("BAD_ACTION_TYPE", path, "action entry is not an object")
        return None
    fields = _by_norm_key(entry, path, defect)

    raw_type = fields.get("type", fields.get("action_type"))
    action_type = parse_action_type(raw_type) if isinstance(raw_type, str) else None
    if action_type is None:
        defect("BAD_ACTION_TYPE", f"{path}.type", f"unmappable action type {shown(raw_type)}")
        return None

    parameters: dict[str, Scalar] = {}
    raw_params = fields.get("parameters")
    if isinstance(raw_params, dict):
        for key, value in raw_params.items():
            if not isinstance(key, str):
                _key_not_text(key, f"{path}.parameters", defect)
                continue
            name = key.strip()
            if not name:
                problem = "empty parameter key dropped"
            elif isinstance(value, bool):
                problem = "boolean parameter dropped"
            elif isinstance(value, str):
                parameters[name] = value.strip()
                continue
            elif isinstance(value, (int, float)) and abs(value) <= sys.float_info.max:  # NaN compares false
                parameters[name] = value
                continue
            else:
                problem = "parameter value is not a scalar; dropped"
            defect("BAD_PARAMETER_VALUE", f"{path}.parameters.{cut(name) or shown(key)}", problem)
    elif raw_params is not None:
        defect("BAD_PARAMETER_VALUE", f"{path}.parameters", "parameters is not an object")

    raw_rationale = fields.get("rationale")
    rationale = raw_rationale.strip() if isinstance(raw_rationale, str) else ""
    if not rationale:
        defect("MISSING_RATIONALE", f"{path}.rationale", "rationale is missing or empty")

    evidence = _parse_evidence(fields.get("evidence"), f"{path}.evidence", defect)
    if evidence.is_empty():
        defect("EMPTY_EVIDENCE", f"{path}.evidence", "all evidence lists are empty")
    return Action(action_type, parameters, rationale, evidence)


def _parse_evidence(raw: object, path: str, defect) -> Evidence:
    lists: dict[str, list[str]] = {name: [] for name in EVIDENCE_FIELDS}
    if isinstance(raw, dict):
        for key, value in raw.items():
            if not isinstance(key, str):
                _key_not_text(key, path, defect)
                continue
            name = _norm_key(key)
            if name not in lists:
                continue
            if not isinstance(value, list):
                defect("BAD_EVIDENCE_ENTRY", f"{path}.{name}", "evidence field is not a list")
                continue
            for item in value:
                if isinstance(item, str) and item.strip():
                    lists[name].append(item.strip())
                else:
                    defect("BAD_EVIDENCE_ENTRY", f"{path}.{name}", "dropped entry that is not non-empty text")
    elif raw is not None:
        defect("BAD_EVIDENCE_ENTRY", path, "evidence is not an object")
    return Evidence(**{name: tuple(values) for name, values in lists.items()})


def policy_dict(policy: PolicyAction) -> dict:
    """The canonical policy as JSON values: fixed key order, parameters sorted by key."""
    return {
        "objectives": policy.objectives,
        "constraints": policy.constraints.populated(),
        "actions": [
            {
                "type": action.action_type.value,
                "parameters": {key: action.parameters[key] for key in sorted(action.parameters)},
                "rationale": action.rationale,
                "evidence": {name: list(getattr(action.evidence, name)) for name in EVIDENCE_FIELDS},
            }
            for action in policy.actions
        ],
    }


def serialize_policy(policy: PolicyAction) -> str:
    """Canonical single-line JSON of ``policy_dict``."""
    return json.dumps(policy_dict(policy), ensure_ascii=False, separators=(",", ":"), allow_nan=False)


@dataclass(frozen=True)
class PenaltyTable:
    """Deductions applied by structural_score; all values non-negative."""

    missing_objectives: float = 0.1
    missing_constraints: float = 0.1
    missing_rationale: float = 0.1
    missing_rationale_cap: float = 0.3
    empty_evidence: float = 0.1
    empty_evidence_cap: float = 0.3
    other: float = 0.0

    def __post_init__(self):
        for name in self.__dataclass_fields__:
            if read_number(getattr(self, name), "BAD_PENALTY", f"penalty {name}", ConfigError) < 0:
                raise ConfigError("BAD_PENALTY", f"penalty {name} must be non-negative")


_CORE_PENALTY_CODES = frozenset(
    {"MISSING_OBJECTIVES", "MISSING_CONSTRAINTS", "MISSING_RATIONALE", "EMPTY_EVIDENCE"}
)


def structural_score(outcome: ParseOutcome, penalties: PenaltyTable | None = None) -> float:
    """1.0 minus configured deductions, clamped to [0,1]; Invalid scores 0.0."""
    table = penalties or PenaltyTable()
    if not outcome.valid:
        return 0.0
    counts = Counter(outcome.defect_codes())
    penalty = 0.0
    if counts["MISSING_OBJECTIVES"]:
        penalty += table.missing_objectives
    if counts["MISSING_CONSTRAINTS"]:
        penalty += table.missing_constraints
    penalty += min(table.missing_rationale_cap, table.missing_rationale * counts["MISSING_RATIONALE"])
    penalty += min(table.empty_evidence_cap, table.empty_evidence * counts["EMPTY_EVIDENCE"])
    penalty += table.other * sum(n for code, n in counts.items() if code not in _CORE_PENALTY_CODES)
    return min(1.0, max(0.0, 1.0 - penalty))


class LexiconPattern(NamedTuple):
    """One low-level control lexicon line and its compiled regex: an entry of the lexicon's ``KeywordScan``."""

    source: str
    regex: re.Pattern


# Explicit control verbs and numeric set-commands only; indirect phrasings
# ("floor it") are intentionally out of scope.
DEFAULT_LEXICON_LINES = (
    "throttle",
    r"accelerate\s+by\s+-?\d+(?:\.\d+)?",
    r"brake|braking(?:\s+force)?",
    r"steer(?:ing)?(?:\s+angle)?",
    r"set\s+speed\s+to\s+-?\d+(?:\.\d+)?",
)


def _compile(pattern: str) -> re.Pattern:
    """Case-blind ``re.compile`` without re's notes on future set syntax ("Possible nested set" for "[[")."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", FutureWarning)
        return re.compile(pattern, re.IGNORECASE)


@lru_cache(maxsize=1024)
def keyword_pattern(keyword: str) -> re.Pattern:
    """A lexicon line or forbidden keyword as a whole-word, case-blind pattern, compiled once per process;
    ``re.error``, on every call, for a fragment that does not compile on its own (``a)|(b`` escapes the wrap),
    is nested too deep to compile or matches the empty string (``x?``)."""
    try:
        if _compile(keyword).fullmatch(""):
            raise re.error("matches the empty string")
        return _compile(rf"\b(?:{keyword})\b")
    except RecursionError:  # one message: RecursionError's own text depends on the depth of the caller's stack
        raise re.error("nested too deep to compile") from None


# The flags of every ``keyword_pattern``; a union is compiled with them.
_KEYWORD_FLAGS = re.compile("", re.IGNORECASE).flags


@lru_cache(maxsize=1024)
def keyword_union(patterns: tuple[re.Pattern, ...]) -> tuple[re.Pattern | None, frozenset[re.Pattern]]:
    """A one-scan prefilter for a set of patterns, built once per distinct tuple: the alternation of those it can
    join, and the set of those scanned alone. A text that the union does not ``search`` matches none of the
    joined patterns. A pattern with groups is scanned alone (a union renumbers groups, so ``(a)\\1`` would
    change meaning inside one), and so is one compiled with other flags than ``keyword_pattern``'s. When the
    alternation does not compile (``re.error``, nested too deep, too large) there is no union and every pattern
    is scanned alone."""
    joined = [pattern for pattern in patterns if not pattern.groups and pattern.flags == _KEYWORD_FLAGS]
    if joined:
        try:
            with warnings.catch_warnings():  # the parts' notes on set syntax, once more
                warnings.simplefilter("ignore", FutureWarning)
                union = re.compile("|".join(pattern.pattern for pattern in joined), _KEYWORD_FLAGS)
            return union, frozenset(patterns).difference(joined)
        except (re.error, RecursionError, OverflowError):
            pass
    return None, frozenset(patterns)


class KeywordScan(NamedTuple):
    """A compiled pattern set: its (label, pattern) entries in order, the ``keyword_union`` of their distinct
    patterns, and the entries whose pattern that union leaves out."""

    entries: tuple[tuple[object, re.Pattern], ...]
    union: re.Pattern | None
    alone: tuple[tuple[object, re.Pattern], ...]


def keyword_scan(entries: Iterable[tuple[object, re.Pattern]]) -> KeywordScan:
    """The ``KeywordScan`` of ``entries``; build it once per pattern set and hand it to ``scan`` for every text."""
    entries = tuple(entries)
    union, alone = keyword_union(tuple(dict.fromkeys(pattern for _, pattern in entries)))
    return KeywordScan(entries, union, tuple(entry for entry in entries if entry[1] in alone))


def scan(keywords: KeywordScan, keyed_texts: Iterable[tuple[object, str]]) -> list[tuple[object, object, list[str]]]:
    """(key, label, hits) for each text and each entry whose pattern hits it, in text order, then entry order. A
    text that the union does not search is scanned only by the entries it leaves out."""
    entries, union, alone = keywords
    found = []
    for key, text in keyed_texts:
        for label, pattern in entries if union is not None and union.search(text) else alone:
            hits = _word_hits(pattern, text)
            if hits:
                found.append((key, label, hits))
    return found


def _word_hits(pattern: re.Pattern, text: str) -> list[str]:
    """The matches of a ``keyword_pattern`` in ``text`` that span at least one character. A fragment that
    only asserts a position (``\\b``, ``(?=a)``) matches the empty string between words; such a match is no hit."""
    if pattern.search(text) is None:  # most texts hit no pattern: one scan in C, no match objects
        return []
    return [hit.group() for hit in pattern.finditer(text) if hit.end() > hit.start()]


def compile_lexicon(lines: Iterable[str]) -> KeywordScan:
    """One regex fragment per line, '#' comments; each wrapped by ``keyword_pattern``."""
    patterns = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            regex = keyword_pattern(line)
        except re.error as exc:
            raise ConfigError("BAD_LEXICON_PATTERN", f"lexicon line {lineno}: {exc}")
        patterns.append(LexiconPattern(line, regex))
    return keyword_scan(patterns)


def load_lexicon(path: str | Path) -> KeywordScan:
    return compile_lexicon(read_file(path, "BAD_LEXICON_PATTERN", "lexicon", ConfigError).split("\n"))


def detect_low_level_control(policy: PolicyAction, lexicon: KeywordScan) -> list[LowLevelMatch]:
    """Every lexicon match in any action's string parameter values or rationale, by text, then pattern."""
    texts = ((index, text) for index, facts in enumerate(action_facts(policy)) for text in facts.texts)
    return [LowLevelMatch(index, source, hit) for index, source, hits in scan(lexicon, texts) for hit in hits]


class ActionFacts(NamedTuple):
    """What the checks and the low-level scan read from one action."""

    # each string parameter value by key, then the rationale; ``text`` is the non-empty ones joined
    texts: list[str]
    text: str
    tokens: list[str]
    # (parameter, normalized parameter, value) for each numeric parameter
    numeric: tuple[tuple[str, str, float], ...]
    # normalized parameter -> value; a later spelling of a name wins
    by_param: dict[str, float]


def action_facts(policy: PolicyAction) -> tuple[ActionFacts, ...]:
    """Each action's ``ActionFacts``, built on the first call for ``policy`` and kept on it."""
    facts = policy._facts
    if facts is None:
        facts = tuple(map(_build_facts, policy.actions))
        object.__setattr__(policy, "_facts", facts)
    return facts


def _build_facts(action: Action) -> ActionFacts:
    parameters = action.parameters
    texts = [parameters[key] for key in sorted(parameters) if isinstance(parameters[key], str)] + [action.rationale]
    text = " ".join(filter(None, texts))
    numeric = tuple(
        (key, _norm_key(key), float(value))
        for key, value in parameters.items()
        if isinstance(value, (int, float)) and not isinstance(value, bool)
    )
    return ActionFacts(texts, text, tokenize(text), numeric, {norm: value for _, norm, value in numeric})
