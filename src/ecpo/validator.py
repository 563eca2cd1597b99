"""Layered constraint checks and the aggregate policy score.

The check inventory is fixed and every check runs exactly once per policy, in
layer order legal -> vehicle -> driver -> contextual, with no early
termination. Checks evaluate structured data only (snippet assertions,
profile fields, labels, normalized tokens); free-text semantics are out of
scope by design, which is what keeps the verdicts auditable. A check whose
inputs are absent (no snippets for its layer, no declared band, empty
actuator set) passes with detail "not applicable": a missing corpus must not
penalize the policy.

Severity maps the highest-priority violated layer (legal=4, vehicle=3,
driver=2, contextual=1, none=0) and the violation count is the number of
distinct failed checks. The core score is max(0, 1 - L/4 - 0.1*min(C, 10));
the aggregate is the convex combination of core, evidence, and structure.

What the checks need from the prompt alone is built once per prompt and rule
set (``PromptContext``) from one tokenization of each label, stage, object and
snippet text; each candidate pays only for its own document. A trigger or
maneuver phrase matches by one substring test on a scope's ``token_run``.
The checks read each action through ``policy.action_facts``: built once per
parsed policy, on first read, and never for a policy that no check reads.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from itertools import chain
from pathlib import Path
from typing import Iterable, Mapping, NamedTuple, Sequence

from .config import DEFAULT_CONFIG, DEFAULT_WEIGHTS, RunConfig, check_weights, load_asset
from .context import PerceptionSummary, StrategyPrompt
from .errors import ConfigError, InputError, InvariantError, cut, read_file, shown
from .policy import (
    ActionType,
    KeywordScan,
    LowLevelMatch,
    PolicyAction,
    StructuralDefect,
    _norm_key,
    action_facts,
    detect_low_level_control,
    keyword_pattern,
    keyword_scan,
    parse_policy,
    scan,
    structural_score,
)
from .store import ConstraintSnippet, to_json
from .textnorm import STOPWORDS, content_tokens, normalize_text, phrase_run, token_run, tokenize

LAYER_SEVERITY = {"legal": 4, "vehicle": 3, "driver": 2, "contextual": 1}

RULE_SCOPES = ("labels", "summaries", "snippets", "policy_text")

@dataclass(frozen=True)
class CheckResult:
    """The outcome of one layered check, with the clause it cites."""

    check_id: str
    layer: str
    passed: bool
    detail: str
    clause_ref: str | None = None


@dataclass(frozen=True)
class ViolationSummary:
    """Highest violated layer severity L and count C of failed checks; L = 0 exactly when C = 0."""

    severity: int
    count: int

    def __post_init__(self):
        if (self.severity == 0) != (self.count == 0):
            raise InvariantError(
                "SEVERITY_COUNT_MISMATCH",
                f"severity {self.severity} with count {self.count} breaks L=0 iff C=0",
            )


@dataclass(frozen=True)
class EcpoReport:
    """Everything validate found for one policy: checks, scores, defects and hazards."""

    checks: tuple[CheckResult, ...]
    violation: ViolationSummary
    s_core: float
    s_evd: float
    s_str: float
    ecpo: float
    weights_used: tuple[float, float, float]
    low_level_matches: tuple[LowLevelMatch, ...]
    schema_valid: bool
    defects: tuple[StructuralDefect, ...]
    hazards_truth: frozenset[str]
    hazards_addressed: frozenset[str]


def _phrases(triggers: Iterable[str]) -> tuple[str, ...]:
    return tuple(phrase_run(tokenize(trigger)) for trigger in triggers)


@dataclass(frozen=True)
class HazardRule:
    """A hazard, the trigger phrases that derive it, and the scopes they are matched in."""

    hazard_id: str
    triggers: tuple[str, ...]
    scopes: frozenset[str]
    # Each trigger as ``phrase_run`` writes it, built once; it matches by one substring test.
    phrases: tuple[str, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.hazard_id or not self.triggers:
            raise ConfigError("BAD_RULE", "hazard rule needs a hazard id and at least one trigger")
        unknown = self.scopes - set(RULE_SCOPES)
        if unknown or not self.scopes:
            raise ConfigError("BAD_RULE", f"rule {shown(self.hazard_id)}: bad scopes {shown(sorted(unknown))}")
        object.__setattr__(self, "phrases", _phrases(self.triggers))


_DERIVE_SCOPES = frozenset({"labels", "summaries", "snippets"})

# Trigger variants are spelled out because matching is exact token phrases,
# never stemmed.
DEFAULT_HAZARD_RULES = (
    HazardRule(
        "reduced_visibility",
        ("rain", "rainy", "raining", "heavy rain", "fog", "foggy",
         "limited visibility", "low visibility", "visibility reduced"),
        _DERIVE_SCOPES,
    ),
    HazardRule("wet_road", ("rain", "rainy", "raining", "wet road", "wet roads", "puddle"), _DERIVE_SCOPES),
    HazardRule(
        "dense_traffic",
        ("traffic jam", "dense traffic", "congestion", "congested", "heavy traffic"),
        _DERIVE_SCOPES,
    ),
    HazardRule("reversing", ("reversing", "reverse", "backing up"), _DERIVE_SCOPES),
    HazardRule(
        "distraction",
        ("distraction", "distracted", "looking around", "phone use"),
        _DERIVE_SCOPES,
    ),
    HazardRule("drowsiness", ("drowsy", "drowsiness", "fatigue", "fatigued", "yawning"), _DERIVE_SCOPES),
    HazardRule(
        "emotional_agitation",
        ("anger", "angry", "anxiety", "anxious", "agitated", "agitation"),
        _DERIVE_SCOPES,
    ),
)

DEFAULT_MANEUVERS: Mapping[str, tuple[str, ...]] = {
    "parking": ("park", "parking", "parked"),
    "reversing": ("reverse", "reversing", "backing up", "back up"),
    "overtaking": ("overtake", "overtaking"),
    "merging": ("merge", "merging"),
}


def load_hazard_rules(path: str | Path) -> tuple[HazardRule, ...]:
    """Rule file: one rule per line, tab-separated triggers, scopes, hazard id.

    Triggers are '|'-separated phrases; scopes are a comma list (or '*' for
    all); '#' starts a comment.
    """
    rules = []
    for lineno, raw in enumerate(read_file(path, "BAD_RULE", "rule file", ConfigError).split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise ConfigError("BAD_RULE", f"line {lineno}: expected 3 tab-separated fields")
        triggers = tuple(t.strip() for t in parts[0].split("|") if t.strip())
        scope_field = parts[1].strip()
        scopes = frozenset(RULE_SCOPES) if scope_field == "*" else frozenset(
            s.strip() for s in scope_field.split(",") if s.strip()
        )
        rules.append(HazardRule(parts[2].strip(), triggers, scopes))
    return tuple(rules)


# The maneuver table as phrase runs, built once at import.
_MANEUVER_PHRASES = tuple((name, _phrases(t)) for name, t in DEFAULT_MANEUVERS.items())


def _matches(run: str, phrases: tuple[str, ...]) -> bool:
    """Some phrase occurs inside one line of ``run`` (a ``token_run``)."""
    return any(map(run.__contains__, phrases))


def _keyword_scan(snippets: Sequence[ConstraintSnippet]) -> KeywordScan:
    """A scope's forbidden keywords, labelled (snippet, keyword), one entry per keyword in snippet order."""
    return keyword_scan(
        ((snippet, keyword), keyword_pattern(keyword))
        for snippet in snippets
        if snippet.assertions
        for keyword in snippet.assertions.forbidden_keywords
    )


class Grounding(NamedTuple):
    """Evidence targets: exact normalized strings, and the prompt's content-token sets.

    ``candidates`` holds the distinct non-empty content-token sets in text order, as tuples of interned tokens.
    ``verdicts`` keeps ``_ground``'s verdict per (entry, threshold) for the prompt's next candidates.
    """

    exact: frozenset[str]
    candidates: tuple[tuple[str, ...], ...]
    verdicts: dict[tuple[str, float], bool]


def _prompt_tokens(z: PerceptionSummary, snippets: Sequence[ConstraintSnippet]) -> dict[str, list[list[str]]]:
    """Each prompt text's token list by scope, in grounding order; labels are driver then scene labels."""
    texts = {"summaries": z.summary_stages(), "labels": z.all_labels(), "objects": z.objects,
             "snippets": [snippet.text for snippet in snippets]}
    return {scope: [tokenize(text) for text in group] for scope, group in texts.items()}


def _grounding_targets(z: PerceptionSummary, tokens: dict[str, list[list[str]]]) -> Grounding:
    exact = frozenset(map(normalize_text, (*z.all_labels(), *z.objects))) - {""}
    # each text's content-token set: its shared token list without the stopwords
    texts = chain.from_iterable(tokens.values())
    candidates = dict.fromkeys(frozenset(text).difference(STOPWORDS) for text in texts)
    candidates.pop(frozenset(), None)
    # interned: prompts drawn from one vocabulary share their strings; a tuple is a sixth of a frozenset's size
    return Grounding(exact, tuple(tuple(map(sys.intern, content)) for content in candidates), {})


def _grounded(entry: str, targets: Grounding, threshold: float) -> bool:
    """``_ground``'s verdict, computed once per grounding, entry and threshold."""
    key = (entry, threshold)
    verdict = targets.verdicts.get(key)
    if verdict is None:
        verdict = targets.verdicts[key] = _ground(entry, targets, threshold)
    return verdict


def _ground(entry: str, targets: Grounding, threshold: float) -> bool:
    """Exact normalized match, or token-set Jaccard >= threshold with a candidate.

    With k shared tokens, k / (|E| + |C| - k) is the same integer ratio as
    |E & C| / |E | C|, so the comparison is bit-identical to brute force.
    """
    if normalize_text(entry) in targets.exact:
        return True
    tokens = set(content_tokens(entry))
    return any((k := len(tokens.intersection(c))) / (len(tokens) + len(c) - k) >= threshold for c in targets.candidates)


# (action type, parameter, normalized parameter, low, high, clause); capability rows cite no clause
BoundRows = tuple[tuple[ActionType, str, str, float, float, str | None], ...]


def _bound_rows(snippets: Sequence[ConstraintSnippet]) -> BoundRows | None:
    """The snippets' parameter bounds as rows, in snippet order; None when there are none."""
    rows = tuple(
        (bound.action_type, bound.parameter, _norm_key(bound.parameter), bound.minimum, bound.maximum,
         snippet.clause_id)
        for snippet in snippets
        if snippet.assertions
        for bound in snippet.assertions.parameter_bounds
    )
    return rows or None


class PromptContext(NamedTuple):
    """Everything validation derives from the prompt alone.

    Built by ``prompt_context`` on the first validation of a prompt under a
    rule set, then reused for every candidate. The checks read their prompt
    inputs from here, never from the prompt's snippets.
    """

    hazards_truth: frozenset[str]
    # legal snippets that forbid action types
    forbidding: tuple[ConstraintSnippet, ...]
    legal_keywords: KeywordScan
    # bound rows; None where not applicable (a declared capability map always applies)
    legal_bounds: BoundRows | None
    capability_bounds: BoundRows | None
    vehicle_bounds: BoundRows | None
    # driver snippets that bind modalities, and the normalized modalities they allow
    binding: tuple[ConstraintSnippet, ...]
    allowed_modalities: frozenset[str]
    driver_keywords: KeywordScan
    grounding: Grounding
    # maneuvers whose trigger occurs in a scene label or summary stage
    scene_maneuvers: frozenset[str]


def prompt_context(prompt: StrategyPrompt, rules: Sequence[HazardRule] | None = None) -> PromptContext:
    """The prompt's validation context, built once per rule set and kept on the prompt."""
    rules = DEFAULT_HAZARD_RULES if rules is None else tuple(rules)
    context = prompt._validation_contexts.get(rules)
    if context is None:
        context = prompt._validation_contexts[rules] = _build_context(prompt, rules)
    return context


def _build_context(prompt: StrategyPrompt, rules: tuple[HazardRule, ...]) -> PromptContext:
    z = prompt.z
    legal, vehicle, driver = (
        tuple(s for s in prompt.constraints if s.layer == layer) for layer in ("legal", "vehicle", "driver")
    )
    capability = prompt.vehicle.capability_limits
    binding = tuple(s for s in driver if s.assertions and s.assertions.required_modalities)
    preference = normalize_text(prompt.driver.alert_modality_preference)
    tokens = _prompt_tokens(z, prompt.constraints)
    scene = token_run([*tokens["labels"][len(z.driver_labels):], *tokens["summaries"]])
    return PromptContext(
        hazards_truth=_hazards(tokens, rules),
        forbidding=tuple(s for s in legal if s.assertions and s.assertions.forbidden_action_types),
        legal_keywords=_keyword_scan(legal),
        legal_bounds=_bound_rows(legal),
        capability_bounds=tuple(
            (ActionType(name), parameter, _norm_key(parameter), low, high, None)
            for name, bounds in capability.items()
            for parameter, (low, high) in bounds.items()
        ) if capability else None,
        vehicle_bounds=_bound_rows(vehicle),
        binding=binding,
        allowed_modalities=frozenset({preference} if preference else (
            normalize_text(m) for s in binding for m in s.assertions.required_modalities
        )),
        driver_keywords=_keyword_scan(driver),
        grounding=_grounding_targets(z, tokens),
        scene_maneuvers=frozenset(name for name, phrases in _MANEUVER_PHRASES if _matches(scene, phrases)),
    )


def _na(check_id: str, layer: str, why: str) -> CheckResult:
    return CheckResult(check_id, layer, True, f"not applicable: {why}")


def _verdict(check_id: str, layer: str, hits: list[str], passed: str, clause: str | None = None) -> CheckResult:
    """Fail with the hits joined by "; ", or pass with detail ``passed``; both cite ``clause``."""
    if hits:
        return CheckResult(check_id, layer, False, "; ".join(hits), clause)
    return CheckResult(check_id, layer, True, passed, clause)


def _check_forbidden_action_types(policy, carriers, check_id, layer) -> CheckResult:
    if not carriers:
        return _na(check_id, layer, "no forbidden-type assertions")
    hits = []
    clause = None
    for index, action in enumerate(policy.actions):
        for snippet in carriers:
            if action.action_type in snippet.assertions.forbidden_action_types:
                hits.append(f"action {index} type {action.action_type.value} (clause {cut(snippet.clause_id)})")
                clause = clause or snippet.clause_id
    return _verdict(check_id, layer, hits, "no forbidden action types used", clause)


def _check_forbidden_keywords(policy, keywords: KeywordScan, check_id, layer) -> CheckResult:
    """Each action's text against each of the scope's keywords, in snippet order."""
    if not keywords.entries:
        return _na(check_id, layer, "no keyword assertions")
    hits = []
    clause = None
    for index, (snippet, keyword), _ in scan(keywords, enumerate(facts.text for facts in action_facts(policy))):
        hits.append(f"action {index} matches {shown(keyword)} (clause {cut(snippet.clause_id)})")
        clause = clause or snippet.clause_id
    return _verdict(check_id, layer, hits, "no forbidden keyword present", clause)


# check_id -> (why the bound check is not applicable, its detail when every value is in range)
_BOUND_TEXTS = {
    "legal.parameter_bounds": ("no parameter-bound assertions", "all bounded parameters in range"),
    "vehicle.capability_limits": ("no capability limits declared", "all parameters within capability limits"),
    "vehicle.snippet_bounds": ("no parameter-bound assertions", "all bounded parameters in range"),
}


def _check_bounds(policy, rows, check_id, layer) -> CheckResult:
    """Each action's numeric parameters against the rows of its type; the first hit's clause is cited."""
    why, passed = _BOUND_TEXTS[check_id]
    if rows is None:
        return _na(check_id, layer, why)
    hits = []
    clause = None
    for index, (action, facts) in enumerate(zip(policy.actions, action_facts(policy))):
        for action_type, parameter, norm, low, high, row_clause in rows:
            if action_type is not action.action_type:
                continue
            value = facts.by_param.get(norm)
            if value is not None and not low <= value <= high:
                cite = "" if row_clause is None else f" (clause {cut(row_clause)})"
                hits.append(f"action {index} {cut(parameter)}={value:g} outside [{low:g}, {high:g}]{cite}")
                clause = clause or row_clause
    return _verdict(check_id, layer, hits, passed, clause)


def _check_actuators(policy, vehicle, check_id) -> CheckResult:
    if not vehicle.available_actuators:
        return _na(check_id, "vehicle", "no actuator inventory declared")
    hits = [
        f"action {index} channel {action.action_type.value} unavailable"
        for index, action in enumerate(policy.actions)
        if action.action_type.value not in vehicle.available_actuators
    ]
    return _verdict(check_id, "vehicle", hits, "all action channels available")


def _check_modality_binding(policy, binding, allowed, check_id) -> CheckResult:
    if not binding:
        return _na(check_id, "driver", "no binding modality assertion")
    hits = []
    for index, action in enumerate(policy.actions):
        modality = action.parameters.get("modality")
        if isinstance(modality, str) and modality and normalize_text(modality) not in allowed:
            hits.append(f"action {index} modality {shown(modality)} conflicts with the bound preference")
    return _verdict(check_id, "driver", hits, "modalities match the bound preference", binding[0].clause_id)


def _check_cabin_band(policy, driver, check_id) -> CheckResult:
    band = driver.temperature_band()
    if band is None:
        return _na(check_id, "driver", "no temperature band declared")
    low, high = band
    hits = []
    for index, (action, facts) in enumerate(zip(policy.actions, action_facts(policy))):
        if action.action_type is not ActionType.HVAC:
            continue
        for key, norm, value in facts.numeric:
            if "temperature" in norm and not low <= value <= high:
                hits.append(f"action {index} {cut(key)}={value:g} outside band [{low:g}, {high:g}]")
    return _verdict(check_id, "driver", hits, "cabin temperatures within the declared band")


def _check_hazard_conservatism(hazards_truth, hazards_addressed, check_id) -> CheckResult:
    if not hazards_truth:
        return _na(check_id, "contextual", "no hazards derived")
    unaddressed = sorted(hazards_truth - hazards_addressed)
    hits = [f"unaddressed hazards: {', '.join(unaddressed)}"] if unaddressed else []
    return _verdict(check_id, "contextual", hits, "every derived hazard is addressed")


def _check_maneuver_consistency(policy, context: PromptContext, check_id) -> CheckResult:
    hits = []
    action_runs = [token_run([facts.tokens]) for facts in action_facts(policy)]
    for maneuver, phrases in _MANEUVER_PHRASES:
        if maneuver in context.scene_maneuvers:
            continue
        mentioned = [index for index, run in enumerate(action_runs) if _matches(run, phrases)]
        if mentioned:
            hits.append(f"actions {mentioned} reference {maneuver} absent from the scene")
    return _verdict(check_id, "contextual", hits, "maneuver references consistent with the scene")


def run_layered_checks(
    policy: PolicyAction, prompt: StrategyPrompt, rules: Sequence[HazardRule] | None = None
) -> list[CheckResult]:
    """Run the full check inventory once, in layer order, without early exit.

    Prompt-only state comes from the prompt's memoized ``PromptContext``.
    """
    return _layered_checks(policy, prompt, prompt_context(prompt, rules), extract_addressed_hazards(policy, rules))


def _layered_checks(policy, prompt, context: PromptContext, hazards_addressed) -> list[CheckResult]:
    return [
        _check_forbidden_action_types(policy, context.forbidding, "legal.forbidden_action_type", "legal"),
        _check_forbidden_keywords(policy, context.legal_keywords, "legal.forbidden_keyword", "legal"),
        _check_bounds(policy, context.legal_bounds, "legal.parameter_bounds", "legal"),
        _check_actuators(policy, prompt.vehicle, "vehicle.actuator_available"),
        _check_bounds(policy, context.capability_bounds, "vehicle.capability_limits", "vehicle"),
        _check_bounds(policy, context.vehicle_bounds, "vehicle.snippet_bounds", "vehicle"),
        _check_modality_binding(policy, context.binding, context.allowed_modalities, "driver.modality_binding"),
        _check_cabin_band(policy, prompt.driver, "driver.cabin_band"),
        _check_forbidden_keywords(policy, context.driver_keywords, "driver.sensitivity_trigger", "driver"),
        _check_hazard_conservatism(context.hazards_truth, hazards_addressed, "contextual.hazard_conservatism"),
        _check_maneuver_consistency(policy, context, "contextual.maneuver_consistency"),
    ]


def violation_summary(checks: Sequence[CheckResult]) -> ViolationSummary:
    """Highest violated layer severity and the count of distinct failed checks."""
    failed: dict[str, str] = {}
    for check in checks:
        if not check.passed:
            failed.setdefault(check.check_id, check.layer)
    severity = max((LAYER_SEVERITY[layer] for layer in failed.values()), default=0)
    return ViolationSummary(severity=severity, count=len(failed))


def core_score_from_counts(severity: int, count: int) -> float:
    """Raw severity/count formula, without the pairing invariant."""
    if not 0 <= severity <= 4:
        raise InputError("BAD_SEVERITY", f"severity must be in 0..4, got {severity}")
    if count < 0:
        raise InputError("BAD_COUNT", f"count must be >= 0, got {count}")
    return max(0.0, 1.0 - severity / 4 - 0.1 * min(count, 10))


def core_score(summary: ViolationSummary) -> float:
    return core_score_from_counts(summary.severity, summary.count)


def derive_hazards(
    z: PerceptionSummary,
    snippets: Sequence[ConstraintSnippet] = (),
    rules: Sequence[HazardRule] | None = None,
) -> frozenset[str]:
    """Hazards H whose rule fires on labels, summary stages, or snippet text.

    A trigger fires when its tokens occur contiguously inside one label, one
    stage, or one snippet text of a scope the rule covers.
    """
    return _hazards(_prompt_tokens(z, snippets), DEFAULT_HAZARD_RULES if rules is None else tuple(rules))


def _hazards(tokens: dict[str, list[list[str]]], rules: tuple[HazardRule, ...]) -> frozenset[str]:
    runs = {scope: token_run(tokens[scope]) for scope in _DERIVE_SCOPES}
    return frozenset(
        rule.hazard_id for rule in rules if any(_matches(runs[s], rule.phrases) for s in rule.scopes & _DERIVE_SCOPES)
    )


def extract_addressed_hazards(policy: PolicyAction, rules: Sequence[HazardRule] | None = None) -> frozenset[str]:
    """Hazards the policy mentions in objectives, ledger, rationale, or params.

    Evidence entries are out of scope: quoting a hazard is not addressing it.
    Rule scopes do not apply here, so a policy that quotes every trigger of a
    derived hazard always covers it. The scanned text is the objectives, the
    ledger and each action's text as one token run, so a trigger may span two
    of its parts.
    """
    rules = DEFAULT_HAZARD_RULES if rules is None else tuple(rules)
    # each action's tokens are reused, not tokenized again
    texts = (policy.objectives, *policy.constraints.populated().values())
    parts = [*map(tokenize, texts), *(facts.tokens for facts in action_facts(policy))]
    run = token_run([list(chain.from_iterable(parts))])
    return frozenset(rule.hazard_id for rule in rules if _matches(run, rule.phrases))


def evidence_coverage(
    policy: PolicyAction,
    z: PerceptionSummary,
    snippets: Sequence[ConstraintSnippet] = (),
    config: RunConfig | None = None,
    *,
    targets: Grounding | None = None,
) -> float:
    """Mean per-action fraction of evidence entries grounded in the context.

    An entry is grounded when it equals a label or object id (normalized) or
    its content-token Jaccard overlap with any summary stage, label, object,
    or snippet text reaches ``config.match_threshold``. Zero-evidence actions
    contribute 0. ``targets`` is the prompt context's grounding, when the
    caller holds it.
    """
    threshold = (config or DEFAULT_CONFIG).match_threshold
    if targets is None:
        targets = _grounding_targets(z, _prompt_tokens(z, snippets))
    fractions = []
    for action in policy.actions:
        entries = action.evidence.all_entries()
        if not entries:
            fractions.append(0.0)
            continue
        matched = sum(_grounded(entry, targets, threshold) for entry in entries)
        fractions.append(matched / len(entries))
    if not fractions:
        return 0.0
    return sum(fractions) / len(fractions)


def ecpo_score(
    s_core: float, s_evd: float, s_str: float, weights: Sequence[float] = DEFAULT_WEIGHTS
) -> float:
    """The aggregate of the three components under ``weights``, checked first (``check_weights``)."""
    return _aggregate(s_core, s_evd, s_str, check_weights(weights))


def _aggregate(s_core: float, s_evd: float, s_str: float, weights: tuple[float, float, float]) -> float:
    """The weighted sum clamped to [0, 1], under a row already checked, such as ``RunConfig.ecpo_weights``."""
    w_core, w_evd, w_str = weights
    return min(1.0, max(0.0, w_core * s_core + w_evd * s_evd + w_str * s_str))


def validate(document: object, prompt: StrategyPrompt, config: RunConfig | None = None) -> EcpoReport:
    """Parse, check, ground, and score one candidate policy document.

    Total: an Invalid parse yields the all-zero report (checks not
    applicable, every component 0, aggregate 0) rather than an error.
    """
    cfg = config or DEFAULT_CONFIG
    path = cfg.hazard_rules_path
    rules = DEFAULT_HAZARD_RULES if path is None else load_asset(load_hazard_rules, path)
    outcome = parse_policy(document, j_max=cfg.j_max)
    context = prompt_context(prompt, rules)
    checks, hazards_addressed, low_level_matches = (), frozenset(), ()
    s_evd = s_str = 0.0
    if outcome.valid:
        policy = outcome.policy
        hazards_addressed = extract_addressed_hazards(policy, rules)
        checks = tuple(_layered_checks(policy, prompt, context, hazards_addressed))
        s_evd = evidence_coverage(policy, prompt.z, prompt.constraints, cfg, targets=context.grounding)
        s_str = structural_score(outcome, cfg.penalty_table)
        low_level_matches = tuple(detect_low_level_control(policy, cfg.lexicon()))
    summary = violation_summary(checks)
    s_core = core_score(summary) if outcome.valid else 0.0
    return EcpoReport(
        checks=checks,
        violation=summary,
        s_core=s_core,
        s_evd=s_evd,
        s_str=s_str,
        ecpo=_aggregate(s_core, s_evd, s_str, cfg.ecpo_weights),
        weights_used=cfg.ecpo_weights,
        low_level_matches=low_level_matches,
        schema_valid=outcome.valid,
        defects=outcome.defects,
        hazards_truth=context.hazards_truth,
        hazards_addressed=hazards_addressed,
    )


def report_to_dict(report: EcpoReport) -> dict:
    return to_json(report)
