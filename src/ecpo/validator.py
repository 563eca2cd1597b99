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
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

from .config import RunConfig
from .context import PerceptionSummary, StrategyPrompt
from .errors import ConfigError, InputError, InvariantError
from .policy import (
    Action,
    ActionType,
    LowLevelMatch,
    ParseOutcome,
    PolicyAction,
    StructuralDefect,
    action_text,
    detect_low_level_control,
    parse_policy,
    policy_text,
    structural_score,
)
from .store import ConstraintSnippet
from .textnorm import contains_phrase, content_tokens, jaccard, normalize_text, tokenize

LAYER_SEVERITY = {"legal": 4, "vehicle": 3, "driver": 2, "contextual": 1}

DEFAULT_ECPO_WEIGHTS = (0.5, 0.3, 0.2)

WEIGHT_SUM_TOLERANCE = 1e-9

RULE_SCOPES = ("labels", "summaries", "snippets", "policy_text")

NOT_APPLICABLE = "not applicable"


@dataclass(frozen=True)
class CheckResult:
    check_id: str
    layer: str
    passed: bool
    detail: str
    clause_ref: str | None = None


@dataclass(frozen=True)
class ViolationSummary:
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


@dataclass(frozen=True)
class MatchConfig:
    """Evidence grounding: token-set Jaccard threshold with exact shortcuts."""

    threshold: float = 0.5

    def __post_init__(self):
        if not 0.0 < self.threshold <= 1.0:
            raise ConfigError("BAD_THRESHOLD", f"match threshold must be in (0, 1], got {self.threshold}")


@dataclass(frozen=True)
class HazardRule:
    hazard_id: str
    triggers: tuple[str, ...]
    scopes: frozenset[str]

    def __post_init__(self):
        if not self.hazard_id or not self.triggers:
            raise ConfigError("BAD_RULE", "hazard rule needs a hazard id and at least one trigger")
        unknown = self.scopes - set(RULE_SCOPES)
        if unknown or not self.scopes:
            raise ConfigError("BAD_RULE", f"rule {self.hazard_id}: bad scopes {sorted(unknown)}")

    def trigger_token_lists(self) -> list[list[str]]:
        return [tokenize(trigger) for trigger in self.triggers]


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
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError("BAD_RULE", f"cannot read rule file {path}: {exc}")
    rules = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
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


def _numeric_parameters(action: Action) -> dict[str, float]:
    out = {}
    for key, value in action.parameters.items():
        if isinstance(value, bool):
            continue
        if isinstance(value, (int, float)):
            out[key] = float(value)
    return out


def _norm_param(name: str) -> str:
    return "_".join(re.split(r"[^0-9a-z]+", name.casefold())).strip("_")


def _layer_snippets(prompt: StrategyPrompt, layer: str) -> list[ConstraintSnippet]:
    return [s for s in prompt.constraints if s.layer == layer]


def _keyword_regex(keyword: str) -> re.Pattern:
    return re.compile(rf"\b(?:{keyword})\b", re.IGNORECASE)


def _na(check_id: str, layer: str, why: str) -> CheckResult:
    return CheckResult(check_id, layer, True, f"{NOT_APPLICABLE}: {why}")


def _check_forbidden_action_types(policy, snippets, check_id, layer) -> CheckResult:
    carriers = [s for s in snippets if s.assertions and s.assertions.forbidden_action_types]
    if not carriers:
        return _na(check_id, layer, "no forbidden-type assertions")
    hits = []
    clause = None
    for index, action in enumerate(policy.actions):
        for snippet in carriers:
            if action.action_type in snippet.assertions.forbidden_action_types:
                hits.append(f"action {index} type {action.action_type.value} (clause {snippet.clause_id})")
                clause = clause or snippet.clause_id
    if hits:
        return CheckResult(check_id, layer, False, "; ".join(hits), clause)
    return CheckResult(check_id, layer, True, "no forbidden action types used")


def _check_forbidden_keywords(policy, snippets, check_id, layer) -> CheckResult:
    carriers = [s for s in snippets if s.assertions and s.assertions.forbidden_keywords]
    if not carriers:
        return _na(check_id, layer, "no keyword assertions")
    hits = []
    clause = None
    for index, action in enumerate(policy.actions):
        text = action_text(action)
        for snippet in carriers:
            for keyword in snippet.assertions.forbidden_keywords:
                if _keyword_regex(keyword).search(text):
                    hits.append(f"action {index} matches {keyword!r} (clause {snippet.clause_id})")
                    clause = clause or snippet.clause_id
    if hits:
        return CheckResult(check_id, layer, False, "; ".join(hits), clause)
    return CheckResult(check_id, layer, True, "no forbidden keyword present")


def _check_snippet_bounds(policy, snippets, check_id, layer) -> CheckResult:
    carriers = [s for s in snippets if s.assertions and s.assertions.parameter_bounds]
    if not carriers:
        return _na(check_id, layer, "no parameter-bound assertions")
    hits = []
    clause = None
    for index, action in enumerate(policy.actions):
        numeric = {_norm_param(k): v for k, v in _numeric_parameters(action).items()}
        for snippet in carriers:
            for bound in snippet.assertions.parameter_bounds:
                if bound.action_type is not action.action_type:
                    continue
                value = numeric.get(_norm_param(bound.parameter))
                if value is None:
                    continue
                if not bound.minimum <= value <= bound.maximum:
                    hits.append(
                        f"action {index} {bound.parameter}={value:g} outside "
                        f"[{bound.minimum:g}, {bound.maximum:g}] (clause {snippet.clause_id})"
                    )
                    clause = clause or snippet.clause_id
    if hits:
        return CheckResult(check_id, layer, False, "; ".join(hits), clause)
    return CheckResult(check_id, layer, True, "all bounded parameters in range")


def _check_actuators(policy, vehicle, check_id) -> CheckResult:
    if not vehicle.available_actuators:
        return _na(check_id, "vehicle", "no actuator inventory declared")
    hits = [
        f"action {index} channel {action.action_type.value} unavailable"
        for index, action in enumerate(policy.actions)
        if action.action_type.value not in vehicle.available_actuators
    ]
    if hits:
        return CheckResult(check_id, "vehicle", False, "; ".join(hits))
    return CheckResult(check_id, "vehicle", True, "all action channels available")


def _check_capability_limits(policy, vehicle, check_id) -> CheckResult:
    if not vehicle.capability_limits:
        return _na(check_id, "vehicle", "no capability limits declared")
    hits = []
    for index, action in enumerate(policy.actions):
        bounds = vehicle.capability_limits.get(action.action_type.value)
        if not bounds:
            continue
        numeric = {_norm_param(k): v for k, v in _numeric_parameters(action).items()}
        for parameter, (low, high) in bounds.items():
            value = numeric.get(_norm_param(parameter))
            if value is not None and not low <= value <= high:
                hits.append(f"action {index} {parameter}={value:g} outside [{low:g}, {high:g}]")
    if hits:
        return CheckResult(check_id, "vehicle", False, "; ".join(hits))
    return CheckResult(check_id, "vehicle", True, "all parameters within capability limits")


def _check_modality_binding(policy, driver, snippets, check_id) -> CheckResult:
    binding = [s for s in snippets if s.assertions and s.assertions.required_modalities]
    if not binding:
        return _na(check_id, "driver", "no binding modality assertion")
    preference = normalize_text(driver.alert_modality_preference)
    allowed = {preference} if preference else {
        normalize_text(m) for s in binding for m in s.assertions.required_modalities
    }
    clause = binding[0].clause_id
    hits = []
    for index, action in enumerate(policy.actions):
        modality = action.parameters.get("modality")
        if not isinstance(modality, str) or not modality:
            continue
        if normalize_text(modality) not in allowed:
            hits.append(f"action {index} modality {modality!r} conflicts with the bound preference")
    if hits:
        return CheckResult(check_id, "driver", False, "; ".join(hits), clause)
    return CheckResult(check_id, "driver", True, "modalities match the bound preference", clause)


def _check_cabin_band(policy, driver, check_id) -> CheckResult:
    band = driver.temperature_band()
    if band is None:
        return _na(check_id, "driver", "no temperature band declared")
    low, high = band
    hits = []
    for index, action in enumerate(policy.actions):
        if action.action_type is not ActionType.HVAC:
            continue
        for key, value in _numeric_parameters(action).items():
            if "temperature" not in _norm_param(key):
                continue
            if not low <= value <= high:
                hits.append(f"action {index} {key}={value:g} outside band [{low:g}, {high:g}]")
    if hits:
        return CheckResult(check_id, "driver", False, "; ".join(hits))
    return CheckResult(check_id, "driver", True, "cabin temperatures within the declared band")


def _check_hazard_conservatism(hazards_truth, hazards_addressed, check_id) -> CheckResult:
    if not hazards_truth:
        return _na(check_id, "contextual", "no hazards derived")
    unaddressed = sorted(hazards_truth - hazards_addressed)
    if unaddressed:
        return CheckResult(check_id, "contextual", False, f"unaddressed hazards: {', '.join(unaddressed)}")
    return CheckResult(check_id, "contextual", True, "every derived hazard is addressed")


def _check_maneuver_consistency(policy, z, maneuvers, check_id) -> CheckResult:
    scene_token_lists = [tokenize(label) for label in z.scene_labels]
    scene_token_lists.extend(tokenize(stage) for stage in z.summary_stages())
    action_token_lists = [tokenize(action_text(action)) for action in policy.actions]
    hits = []
    for maneuver, triggers in maneuvers.items():
        trigger_tokens = [tokenize(trigger) for trigger in triggers]
        mentioned = [
            index
            for index, tokens in enumerate(action_token_lists)
            if any(contains_phrase(tokens, trig) for trig in trigger_tokens)
        ]
        if not mentioned:
            continue
        in_scene = any(
            contains_phrase(tokens, trig) for tokens in scene_token_lists for trig in trigger_tokens
        )
        if not in_scene:
            hits.append(f"actions {mentioned} reference {maneuver} absent from the scene")
    if hits:
        return CheckResult(check_id, "contextual", False, "; ".join(hits))
    return CheckResult(check_id, "contextual", True, "maneuver references consistent with the scene")


def run_layered_checks(
    policy: PolicyAction,
    prompt: StrategyPrompt,
    rules: Sequence[HazardRule] | None = None,
    maneuvers: Mapping[str, tuple[str, ...]] | None = None,
    *,
    hazards_truth: frozenset[str] | None = None,
    hazards_addressed: frozenset[str] | None = None,
) -> list[CheckResult]:
    """Run the full check inventory once, in layer order, without early exit.

    Hazard sets the caller already derived with the same rules are passed in
    rather than derived again.
    """
    rules = DEFAULT_HAZARD_RULES if rules is None else tuple(rules)
    maneuvers = DEFAULT_MANEUVERS if maneuvers is None else maneuvers
    legal = _layer_snippets(prompt, "legal")
    vehicle_snips = _layer_snippets(prompt, "vehicle")
    driver_snips = _layer_snippets(prompt, "driver")
    if hazards_truth is None:
        hazards_truth = derive_hazards(prompt.z, prompt.constraints, rules)
    if hazards_addressed is None:
        hazards_addressed = extract_addressed_hazards(policy, rules)
    return [
        _check_forbidden_action_types(policy, legal, "legal.forbidden_action_type", "legal"),
        _check_forbidden_keywords(policy, legal, "legal.forbidden_keyword", "legal"),
        _check_snippet_bounds(policy, legal, "legal.parameter_bounds", "legal"),
        _check_actuators(policy, prompt.vehicle, "vehicle.actuator_available"),
        _check_capability_limits(policy, prompt.vehicle, "vehicle.capability_limits"),
        _check_snippet_bounds(policy, vehicle_snips, "vehicle.snippet_bounds", "vehicle"),
        _check_modality_binding(policy, prompt.driver, driver_snips, "driver.modality_binding"),
        _check_cabin_band(policy, prompt.driver, "driver.cabin_band"),
        _check_forbidden_keywords(policy, driver_snips, "driver.sensitivity_trigger", "driver"),
        _check_hazard_conservatism(hazards_truth, hazards_addressed, "contextual.hazard_conservatism"),
        _check_maneuver_consistency(policy, prompt.z, maneuvers, "contextual.maneuver_consistency"),
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
    """Hazards H whose rule fires on labels, summary stages, or snippet text."""
    rules = DEFAULT_HAZARD_RULES if rules is None else tuple(rules)
    sources = {
        "labels": [tokenize(label) for label in z.all_labels()],
        "summaries": [tokenize(stage) for stage in z.summary_stages()],
        "snippets": [tokenize(snippet.text) for snippet in snippets],
    }
    hazards = set()
    for rule in rules:
        trigger_lists = rule.trigger_token_lists()
        for scope in rule.scopes & _DERIVE_SCOPES:
            if any(
                contains_phrase(tokens, trig)
                for tokens in sources[scope]
                for trig in trigger_lists
            ):
                hazards.add(rule.hazard_id)
                break
    return frozenset(hazards)


def extract_addressed_hazards(
    policy: PolicyAction, rules: Sequence[HazardRule] | None = None
) -> frozenset[str]:
    """Hazards the policy mentions in objectives, ledger, rationale, or params.

    Evidence entries are out of scope: quoting a hazard is not addressing it.
    Rule scopes do not apply here, so a policy that quotes every trigger of a
    derived hazard always covers it.
    """
    rules = DEFAULT_HAZARD_RULES if rules is None else tuple(rules)
    tokens = tokenize(policy_text(policy))
    hazards = set()
    for rule in rules:
        if any(contains_phrase(tokens, trig) for trig in rule.trigger_token_lists()):
            hazards.add(rule.hazard_id)
    return frozenset(hazards)


def evidence_coverage(
    policy: PolicyAction,
    z: PerceptionSummary,
    snippets: Sequence[ConstraintSnippet] = (),
    match_cfg: MatchConfig | None = None,
) -> float:
    """Mean per-action fraction of evidence entries grounded in the context.

    An entry is grounded when it equals a label or object id (normalized) or
    its content-token Jaccard overlap with any summary stage, label, object,
    or snippet text reaches the threshold. Zero-evidence actions contribute 0.
    """
    cfg = match_cfg or MatchConfig()
    exact = {normalize_text(label) for label in z.all_labels()}
    exact.update(normalize_text(obj) for obj in z.objects)
    exact.discard("")
    candidates = [set(content_tokens(stage)) for stage in z.summary_stages()]
    candidates.extend(set(content_tokens(label)) for label in z.all_labels())
    candidates.extend(set(content_tokens(obj)) for obj in z.objects)
    candidates.extend(set(content_tokens(snippet.text)) for snippet in snippets)
    candidates = [c for c in candidates if c]

    fractions = []
    for action in policy.actions:
        entries = action.evidence.all_entries()
        if not entries:
            fractions.append(0.0)
            continue
        matched = 0
        for entry in entries:
            if normalize_text(entry) in exact:
                matched += 1
                continue
            entry_tokens = set(content_tokens(entry))
            if any(jaccard(entry_tokens, candidate) >= cfg.threshold for candidate in candidates):
                matched += 1
        fractions.append(matched / len(entries))
    if not fractions:
        return 0.0
    return sum(fractions) / len(fractions)


def check_weights(weights: Sequence[float]) -> tuple[float, float, float]:
    values = tuple(float(w) for w in weights)
    if len(values) != 3 or any(w < 0 for w in values):
        raise ConfigError("BAD_WEIGHTS", f"need three non-negative weights, got {weights!r}")
    if abs(sum(values) - 1.0) > WEIGHT_SUM_TOLERANCE:
        raise ConfigError("BAD_WEIGHTS", f"weights {values} do not sum to 1")
    return values


def ecpo_score(
    s_core: float, s_evd: float, s_str: float, weights: Sequence[float] = DEFAULT_ECPO_WEIGHTS
) -> float:
    w_core, w_evd, w_str = check_weights(weights)
    value = w_core * s_core + w_evd * s_evd + w_str * s_str
    return min(1.0, max(0.0, value))


def validate(document: str | bytes, prompt: StrategyPrompt, config: RunConfig | None = None) -> EcpoReport:
    """Parse, check, ground, and score one candidate policy document.

    Total: an Invalid parse yields the all-zero report (checks not
    applicable, every component 0, aggregate 0) rather than an error.
    """
    cfg = config or RunConfig()
    weights = check_weights(cfg.ecpo_weights)
    rules = cfg.hazard_rules()
    outcome = parse_policy(document, j_max=cfg.j_max)
    hazards_truth = derive_hazards(prompt.z, prompt.constraints, rules)
    if not outcome.valid:
        return EcpoReport(
            checks=(),
            violation=ViolationSummary(0, 0),
            s_core=0.0,
            s_evd=0.0,
            s_str=0.0,
            ecpo=0.0,
            weights_used=weights,
            low_level_matches=(),
            schema_valid=False,
            defects=outcome.defects,
            hazards_truth=hazards_truth,
            hazards_addressed=frozenset(),
        )
    policy = outcome.policy
    hazards_addressed = extract_addressed_hazards(policy, rules)
    checks = run_layered_checks(
        policy, prompt, rules=rules, hazards_truth=hazards_truth, hazards_addressed=hazards_addressed
    )
    summary = violation_summary(checks)
    s_core = core_score(summary)
    s_evd = evidence_coverage(policy, prompt.z, prompt.constraints, MatchConfig(cfg.match_threshold))
    s_str = structural_score(outcome, cfg.penalty_table)
    return EcpoReport(
        checks=tuple(checks),
        violation=summary,
        s_core=s_core,
        s_evd=s_evd,
        s_str=s_str,
        ecpo=ecpo_score(s_core, s_evd, s_str, weights),
        weights_used=weights,
        low_level_matches=tuple(detect_low_level_control(policy, cfg.lexicon())),
        schema_valid=True,
        defects=outcome.defects,
        hazards_truth=hazards_truth,
        hazards_addressed=hazards_addressed,
    )


def report_to_dict(report: EcpoReport) -> dict:
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


def report_from_dict(raw: dict) -> EcpoReport:
    if not isinstance(raw, dict):
        raise InputError("BAD_RECORD", "report must be an object")
    violation = raw.get("violation", {})
    return EcpoReport(
        checks=tuple(
            CheckResult(
                check_id=str(c.get("check_id", "")),
                layer=str(c.get("layer", "")),
                passed=bool(c.get("passed", False)),
                detail=str(c.get("detail", "")),
                clause_ref=c.get("clause_ref"),
            )
            for c in raw.get("checks", [])
        ),
        violation=ViolationSummary(int(violation.get("severity", 0)), int(violation.get("count", 0))),
        s_core=float(raw.get("s_core", 0.0)),
        s_evd=float(raw.get("s_evd", 0.0)),
        s_str=float(raw.get("s_str", 0.0)),
        ecpo=float(raw.get("ecpo", 0.0)),
        weights_used=tuple(float(w) for w in raw.get("weights_used", DEFAULT_ECPO_WEIGHTS)),
        low_level_matches=tuple(
            LowLevelMatch(int(m["action_index"]), str(m["matched_pattern"]), str(m["matched_text"]))
            for m in raw.get("low_level_matches", [])
        ),
        schema_valid=bool(raw.get("schema_valid", False)),
        defects=tuple(
            StructuralDefect(str(d.get("code", "")), str(d.get("path", "")), str(d.get("message", "")))
            for d in raw.get("defects", [])
        ),
        hazards_truth=frozenset(str(h) for h in raw.get("hazards_truth", [])),
        hazards_addressed=frozenset(str(h) for h in raw.get("hazards_addressed", [])),
    )
