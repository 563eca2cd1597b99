import dataclasses
import json
import math
import re

import pytest
from hypothesis import given, settings, strategies as st

from ecpo import validator
from ecpo.config import RunConfig
from ecpo.context import (
    Assertions,
    ConstraintSnippet,
    DriverProfile,
    ParameterBound,
    PerceptionSummary,
    StrategyPrompt,
    VehicleProfile,
    prompt_from_dict,
    prompt_to_dict,
    sample_from_dict,
    sample_to_dict,
)
from ecpo.errors import ConfigError, InputError, InvariantError
from ecpo.policy import (DEFAULT_LEXICON_LINES, ActionType, LexiconPattern, compile_lexicon, detect_low_level_control,
                         keyword_pattern, keyword_scan, keyword_union, parse_policy)
from ecpo.validator import (
    DEFAULT_HAZARD_RULES,
    LAYER_SEVERITY,
    EcpoReport,
    HazardRule,
    ViolationSummary,
    core_score,
    core_score_from_counts,
    derive_hazards,
    ecpo_score,
    evidence_coverage,
    extract_addressed_hazards,
    load_hazard_rules,
    prompt_context,
    report_to_dict,
    run_layered_checks,
    validate,
    violation_summary,
)
from conftest import make_sample
from oracles import (
    PLANT_LAYERS,
    build_planted_case,
    core_reference,
    derive_hazards_reference,
    ecpo_reference,
    forbidden_keyword_check_reference,
    grounded_reference,
    low_level_matches_reference,
    maneuver_reference,
)


def run_checks(plants: set[str]):
    policy_dict, prompt = build_planted_case(plants)
    outcome = parse_policy(json.dumps(policy_dict))
    assert outcome.valid
    return run_layered_checks(outcome.policy, prompt)


# --- the check inventory ---------------------------------------------------------


def test_checks_run_in_layer_order():
    checks = run_checks(set())
    assert [c.check_id for c in checks] == sorted(PLANT_LAYERS, key=list(PLANT_LAYERS).index)
    assert [c.layer for c in checks] == (["legal"] * 3 + ["vehicle"] * 3 + ["driver"] * 3 + ["contextual"] * 2)


@pytest.mark.parametrize("plant", sorted(PLANT_LAYERS))
def test_each_check_fails_alone(plant):
    checks = run_checks({plant})
    failed = [c.check_id for c in checks if not c.passed]
    assert failed == [plant]


def check_bytes(checks) -> list[tuple]:
    return [(c.check_id, c.passed, c.detail, c.clause_ref) for c in checks]


def test_planted_case_check_bytes():
    assert check_bytes(run_checks(set())) == [
        ("legal.forbidden_action_type", True, "not applicable: no forbidden-type assertions", None),
        ("legal.forbidden_keyword", True, "no forbidden keyword present", None),
        ("legal.parameter_bounds", True, "all bounded parameters in range", None),
        ("vehicle.actuator_available", True, "all action channels available", None),
        ("vehicle.capability_limits", True, "all parameters within capability limits", None),
        ("vehicle.snippet_bounds", True, "all bounded parameters in range", None),
        ("driver.modality_binding", True, "modalities match the bound preference", "D-1"),
        ("driver.cabin_band", True, "cabin temperatures within the declared band", None),
        ("driver.sensitivity_trigger", True, "no forbidden keyword present", None),
        ("contextual.hazard_conservatism", True, "not applicable: no hazards derived", None),
        ("contextual.maneuver_consistency", True, "maneuver references consistent with the scene", None),
    ]
    # capability hits cite no clause; every other bound and keyword hit does
    assert check_bytes(run_checks(set(PLANT_LAYERS))) == [
        ("legal.forbidden_action_type", False, "action 2 type AmbientLight (clause L-1)", "L-1"),
        ("legal.forbidden_keyword", False, "action 0 matches 'ignore the signal' (clause L-1)", "L-1"),
        ("legal.parameter_bounds", False, "action 0 display_timeout_s=0.5 outside [1, 30] (clause L-1)", "L-1"),
        ("vehicle.actuator_available", False, "action 1 channel Hvac unavailable", None),
        ("vehicle.capability_limits", False, "action 2 intensity_level=12 outside [1, 10]", None),
        ("vehicle.snippet_bounds", False, "action 2 brightness_pct=95 outside [0, 80] (clause V-1)", "V-1"),
        ("driver.modality_binding", False, "action 0 modality 'audio' conflicts with the bound preference", "D-1"),
        ("driver.cabin_band", False, "action 1 target_temperature=27 outside band [20, 26]", None),
        ("driver.sensitivity_trigger", False, "action 3 matches 'loud siren' (clause D-1)", "D-1"),
        ("contextual.hazard_conservatism", False, "unaddressed hazards: reduced_visibility, wet_road", None),
        ("contextual.maneuver_consistency", False, "actions [3] reference overtaking absent from the scene", None),
    ]


HVAC_POLICY = {
    "objectives": "o",
    "constraints": {"legal_regulations": "x"},
    "actions": [{"type": "Hvac", "parameters": {}, "rationale": "r", "evidence": {"labels": ["a"]}}],
}

# What every check reads when its prompt input is absent.
NOT_APPLICABLE_BYTES = [
    ("legal.forbidden_action_type", True, "not applicable: no forbidden-type assertions", None),
    ("legal.forbidden_keyword", True, "not applicable: no keyword assertions", None),
    ("legal.parameter_bounds", True, "not applicable: no parameter-bound assertions", None),
    ("vehicle.actuator_available", True, "not applicable: no actuator inventory declared", None),
    ("vehicle.capability_limits", True, "not applicable: no capability limits declared", None),
    ("vehicle.snippet_bounds", True, "not applicable: no parameter-bound assertions", None),
    ("driver.modality_binding", True, "not applicable: no binding modality assertion", None),
    ("driver.cabin_band", True, "not applicable: no temperature band declared", None),
    ("driver.sensitivity_trigger", True, "not applicable: no keyword assertions", None),
    ("contextual.hazard_conservatism", True, "not applicable: no hazards derived", None),
    ("contextual.maneuver_consistency", True, "maneuver references consistent with the scene", None),
]


def test_not_applicable_checks_pass_with_reason():
    policy = parse_policy(json.dumps(HVAC_POLICY)).policy
    prompt = StrategyPrompt("p", PerceptionSummary(), DriverProfile(), VehicleProfile(), ())
    checks = run_layered_checks(policy, prompt)
    na = [c for c in checks if c.detail.startswith("not applicable")]
    assert all(c.passed for c in na)
    assert len(na) == 10  # everything except maneuver consistency
    assert check_bytes(checks) == NOT_APPLICABLE_BYTES


def test_declared_capability_map_without_bounds_is_applicable():
    policy = parse_policy(json.dumps(HVAC_POLICY)).policy
    vehicle = VehicleProfile(available_actuators=frozenset({"Hvac"}), capability_limits={"Hvac": {}})
    expected = list(NOT_APPLICABLE_BYTES)
    expected[3] = ("vehicle.actuator_available", True, "all action channels available", None)
    expected[4] = ("vehicle.capability_limits", True, "all parameters within capability limits", None)
    assert check_bytes(run_layered_checks(policy, StrategyPrompt("p", vehicle=vehicle))) == expected


def test_bound_hits_join_and_cite_the_first_clause():
    def bound(clause, parameter, low, high):
        return ConstraintSnippet(
            snippet_id=clause,
            layer="legal",
            clause_id=clause,
            text="bound",
            assertions=Assertions(parameter_bounds=(ParameterBound(ActionType.HMI_PROMPT, parameter, low, high),)),
        )

    action = {"type": "HmiPrompt", "parameters": {"volume": 9, "display_timeout_s": 0.5},
              "rationale": "r", "evidence": {"labels": ["a"]}}
    policy = parse_policy(json.dumps({**HVAC_POLICY, "actions": [action]})).policy
    prompt = StrategyPrompt("p", constraints=(bound("L-9", "volume", 0, 5), bound("L-1", "display_timeout_s", 1, 30)))
    checks = run_layered_checks(policy, prompt)
    expected = list(NOT_APPLICABLE_BYTES)
    expected[2] = (
        "legal.parameter_bounds",
        False,
        "action 0 volume=9 outside [0, 5] (clause L-9); action 0 display_timeout_s=0.5 outside [1, 30] (clause L-1)",
        "L-9",
    )
    assert check_bytes(checks) == expected


# --- violation summary and core score ------------------------------------------------


def test_violation_summary_counts_distinct_checks():
    checks = run_checks({"driver.cabin_band", "contextual.maneuver_consistency"})
    summary = violation_summary(checks)
    assert summary == ViolationSummary(severity=2, count=2)


def test_violation_summary_priority():
    checks = run_checks({"legal.forbidden_keyword", "driver.cabin_band"})
    assert violation_summary(checks).severity == 4


def test_severity_table():
    assert LAYER_SEVERITY == {"legal": 4, "vehicle": 3, "driver": 2, "contextual": 1}


def test_summary_invariant():
    with pytest.raises(InvariantError) as err:
        ViolationSummary(severity=0, count=2)
    assert err.value.code == "SEVERITY_COUNT_MISMATCH"
    with pytest.raises(InvariantError):
        ViolationSummary(severity=3, count=0)


def test_core_score_points():
    assert core_score(ViolationSummary(0, 0)) == 1.0
    assert math.isclose(core_score(ViolationSummary(2, 1)), 0.4, abs_tol=1e-12)
    assert core_score(ViolationSummary(4, 1)) == core_reference(4, 1)
    assert core_score(ViolationSummary(1, 12)) == 0.0  # count capped at 10
    with pytest.raises(InputError):
        core_score_from_counts(5, 1)
    with pytest.raises(InputError):
        core_score_from_counts(1, -1)


# --- hazards --------------------------------------------------------------------------


def summary_with(text: str = "", labels: tuple = ()) -> PerceptionSummary:
    return PerceptionSummary(scene_labels=labels, summary_initial=text)


def test_derive_hazards_from_labels_and_summaries():
    z = summary_with(text="fog rolls in near the exit", labels=("traffic jam",))
    assert derive_hazards(z, (), DEFAULT_HAZARD_RULES) == frozenset({"reduced_visibility", "dense_traffic"})


def test_derive_hazards_variant_spellings():
    for phrase, hazard in (("raining", "wet_road"), ("drowsy", "drowsiness"), ("backing up", "reversing")):
        assert hazard in derive_hazards(summary_with(text=phrase), (), DEFAULT_HAZARD_RULES)


def test_derive_hazards_requires_contiguous_phrase():
    z = summary_with(text="traffic was light near the jam factory outlet")
    assert "dense_traffic" not in derive_hazards(z, (), DEFAULT_HAZARD_RULES)


def test_derive_hazards_respects_scopes(tmp_path):
    rules_path = tmp_path / "rules.tsv"
    rules_path.write_text(
        "rain|wet road\tlabels\twet_road\nfog\tsummaries\treduced_visibility\n", encoding="utf-8"
    )
    rules = load_hazard_rules(rules_path)
    in_summary_only = summary_with(text="rain and fog")
    assert derive_hazards(in_summary_only, (), rules) == frozenset({"reduced_visibility"})
    in_labels_only = summary_with(labels=("rain", "fog"))
    assert derive_hazards(in_labels_only, (), rules) == frozenset({"wet_road"})


def test_derive_hazards_from_snippets(layered_snippets):
    z = PerceptionSummary()
    hazards = derive_hazards(z, layered_snippets, DEFAULT_HAZARD_RULES)
    # the legal snippet text mentions rain
    assert hazards == frozenset({"reduced_visibility", "wet_road"})


def test_load_hazard_rules_validation(tmp_path):
    bad = tmp_path / "bad.tsv"
    bad.write_text("rain\tnowhere\thazard\n", encoding="utf-8")
    with pytest.raises(ConfigError):
        load_hazard_rules(bad)
    star = tmp_path / "star.tsv"
    star.write_text("rain\t*\twet_road\n", encoding="utf-8")
    rules = load_hazard_rules(star)
    assert rules[0].scopes == frozenset({"labels", "summaries", "snippets", "policy_text"})


def test_addressed_hazards_scan_policy_not_evidence(rain_policy_dict, rain_prompt):
    policy = parse_policy(json.dumps(rain_policy_dict)).policy
    addressed = extract_addressed_hazards(policy, DEFAULT_HAZARD_RULES)
    assert {"reduced_visibility", "wet_road", "dense_traffic"} <= addressed

    # a policy whose only mention of hazards sits inside evidence addresses nothing
    doc = {
        "objectives": "keep steady",
        "constraints": {"legal_regulations": "obey signals"},
        "actions": [
            {
                "type": "DrivingSuggestion",
                "parameters": {"text": "carry on"},
                "rationale": "all clear",
                "evidence": {"out_of_vehicle_text": ["heavy rain with limited visibility"]},
            }
        ],
    }
    policy = parse_policy(json.dumps(doc)).policy
    assert extract_addressed_hazards(policy, DEFAULT_HAZARD_RULES) == frozenset()


def test_quoted_triggers_satisfy_conservatism():
    z = summary_with(text="heavy rain with dense traffic while reversing")
    truth = derive_hazards(z, (), DEFAULT_HAZARD_RULES)
    doc = {
        "objectives": "mitigate heavy rain, dense traffic, reversing",
        "constraints": {"contextual_evidence": "heavy rain with dense traffic while reversing"},
        "actions": [
            {
                "type": "DrivingSuggestion",
                "parameters": {"text": "slow down"},
                "rationale": "conditions degraded",
                "evidence": {"labels": ["rain"]},
            }
        ],
    }
    policy = parse_policy(json.dumps(doc)).policy
    addressed = extract_addressed_hazards(policy, DEFAULT_HAZARD_RULES)
    assert truth <= addressed


# --- evidence coverage ---------------------------------------------------------------


def coverage_doc(entries: dict) -> "PolicyAction":
    doc = {
        "objectives": "o",
        "constraints": {"legal_regulations": "x"},
        "actions": [
            {"type": "HmiPrompt", "parameters": {}, "rationale": "r", "evidence": entries}
        ],
    }
    return parse_policy(json.dumps(doc)).policy


def test_evidence_exact_label_match():
    z = PerceptionSummary(driver_labels=("Anxiety",))
    policy = coverage_doc({"labels": ["anxiety"]})
    assert evidence_coverage(policy, z) == 1.0


def test_evidence_jaccard_threshold_is_inclusive():
    z = PerceptionSummary(summary_initial="the cabin stays warm and quiet")
    policy = coverage_doc({"in_cabin_text": ["warm quiet cabin comfort"]})
    # {warm, quiet, cabin, comfort} vs {cabin, stays, warm, quiet}: 3/5 overlap
    assert evidence_coverage(policy, z) == 1.0
    assert evidence_coverage(policy, z, config=RunConfig(match_threshold=0.7)) == 0.0
    # {warm, cabin} vs the same stage: 2/4, exactly the default threshold of 0.5
    assert evidence_coverage(coverage_doc({"in_cabin_text": ["warm cabin"]}), z) == 1.0


def test_evidence_zero_entries_score_zero():
    z = PerceptionSummary(summary_initial="anything")
    policy = coverage_doc({})
    assert evidence_coverage(policy, z) == 0.0


def test_evidence_fraction_averages_over_actions():
    z = PerceptionSummary(driver_labels=("anxiety",))
    doc = {
        "objectives": "o",
        "constraints": {"legal_regulations": "x"},
        "actions": [
            {"type": "HmiPrompt", "parameters": {}, "rationale": "r",
             "evidence": {"labels": ["anxiety", "unrelated thing entirely"]}},
            {"type": "Hvac", "parameters": {}, "rationale": "r",
             "evidence": {"labels": ["anxiety"]}},
        ],
    }
    policy = parse_policy(json.dumps(doc)).policy
    assert math.isclose(evidence_coverage(policy, z), (0.5 + 1.0) / 2, abs_tol=1e-12)


def test_evidence_matches_snippet_text(layered_snippets):
    z = PerceptionSummary()
    policy = coverage_doc({"out_of_vehicle_text": ["maintain safe following distance in rain"]})
    assert evidence_coverage(policy, z, snippets=layered_snippets) == 1.0
    assert evidence_coverage(policy, z) == 0.0


# --- weights and aggregate score -------------------------------------------------------


def test_check_weights():
    # ecpo_score applies config.check_weights to a row passed outside RunConfig
    assert ecpo_score(1.0, 1.0, 1.0, (0.5, 0.3, 0.2)) == 1.0
    for row in ((0.5, 0.3), (0.5, 0.3, 0.3), (-0.1, 0.6, 0.5)):
        with pytest.raises(ConfigError) as err:
            ecpo_score(1.0, 1.0, 1.0, row)
        assert err.value.code == "BAD_WEIGHTS"


@settings(max_examples=100, deadline=None)
@given(
    st.floats(min_value=0, max_value=1),
    st.floats(min_value=0, max_value=1),
    st.floats(min_value=0, max_value=1),
)
def test_ecpo_matches_reference(s_core, s_evd, s_str):
    for weights in ((0.7, 0.15, 0.15), (0.5, 0.3, 0.2), (0.4, 0.3, 0.3)):
        got = ecpo_score(s_core, s_evd, s_str, weights)
        assert math.isclose(got, ecpo_reference(weights, (s_core, s_evd, s_str)), abs_tol=1e-12)


# --- full validate() --------------------------------------------------------------------


def test_validate_composes_scores(rain_policy_dict, rain_prompt):
    report = validate(json.dumps(rain_policy_dict), rain_prompt)
    assert report.schema_valid
    assert (report.s_core, report.s_evd, report.s_str) == (1.0, 1.0, 1.0)
    assert report.ecpo == 1.0
    assert report.hazards_truth == report.hazards_addressed
    assert report.weights_used == (0.5, 0.3, 0.2)


def test_validate_invalid_document_scores_zero(rain_prompt):
    report = validate("{broken", rain_prompt)
    assert not report.schema_valid
    assert (report.s_core, report.s_evd, report.s_str, report.ecpo) == (0.0, 0.0, 0.0, 0.0)
    assert report.checks == ()
    assert [d.code for d in report.defects] == ["UNPARSEABLE"]
    # context hazards are still derived for reporting
    assert report.hazards_truth


def test_validate_honors_config_weights(rain_policy_dict, rain_prompt, hot_cabin_policy_dict, comfort_prompt):
    config = RunConfig(ecpo_weights=(0.7, 0.15, 0.15))
    report = validate(json.dumps(hot_cabin_policy_dict), comfort_prompt, config)
    assert report.weights_used == (0.7, 0.15, 0.15)
    expected = ecpo_reference((0.7, 0.15, 0.15), (report.s_core, report.s_evd, report.s_str))
    assert math.isclose(report.ecpo, expected, abs_tol=1e-12)


def test_validate_flags_low_level_language(rain_prompt):
    doc = {
        "objectives": "o",
        "constraints": {"legal_regulations": "x"},
        "actions": [
            {
                "type": "DrivingSuggestion",
                "parameters": {"text": "brake hard now"},
                "rationale": "r",
                "evidence": {"labels": ["rainy"]},
            }
        ],
    }
    report = validate(json.dumps(doc), rain_prompt)
    assert len(report.low_level_matches) == 1
    assert report.low_level_matches[0].matched_text == "brake"
    assert report_to_dict(report)["low_level_matches"] == [
        {"action_index": 0, "matched_pattern": DEFAULT_LEXICON_LINES[2], "matched_text": "brake"}
    ]


def test_report_round_trip(hot_cabin_policy_dict, comfort_prompt):
    report = validate(json.dumps(hot_cabin_policy_dict), comfort_prompt)
    record = report_to_dict(report)
    assert set(record) == {f.name for f in dataclasses.fields(EcpoReport)}
    assert json.loads(json.dumps(record)) == record


# --- phrase matching and grounding against brute force -------------------------------

# Trigger words and their pieces, so labels and stages often hold, split, or
# repeat a trigger.
VOCAB = "heavy rain fog traffic jam dense backing up reverse the of wet road".split()
texts = st.lists(st.sampled_from(VOCAB), max_size=5).map(" ".join)
text_lists = st.lists(texts, max_size=3).map(tuple)
rule_sets = st.lists(
    st.builds(
        HazardRule,
        st.sampled_from(["h1", "h2", "h3"]),
        # "!!" tokenizes to the empty phrase, which never matches
        st.lists(st.one_of(texts, st.just("!!")), min_size=1, max_size=3).map(tuple),
        st.frozensets(st.sampled_from(["labels", "summaries", "snippets", "policy_text"]), min_size=1),
    ),
    max_size=4,
).map(tuple)


def perception(labels, stages) -> PerceptionSummary:
    return PerceptionSummary(
        driver_labels=labels[:1], scene_labels=labels[1:], summary_initial=stages[0], summary_final=stages[1]
    )


def snippets_of(bodies) -> tuple:
    return tuple(ConstraintSnippet(f"s{i}", "legal", f"c{i}", body) for i, body in enumerate(bodies) if body)


@settings(max_examples=200, deadline=None)
@given(st.lists(texts, max_size=4).map(tuple), st.tuples(texts, texts), text_lists,
       st.one_of(st.just(DEFAULT_HAZARD_RULES), rule_sets))
def test_derive_hazards_equals_sliding_window_reference(labels, stages, bodies, rules):
    z = perception(labels, stages)
    snippets = snippets_of(bodies)
    assert derive_hazards(z, snippets, rules) == derive_hazards_reference(z, snippets, rules)


def test_trigger_split_across_two_labels_does_not_fire():
    rules = (HazardRule("wet", ("heavy rain",), frozenset({"labels"})),)
    assert derive_hazards(PerceptionSummary(scene_labels=("heavy", "rain")), (), rules) == frozenset()
    assert derive_hazards(PerceptionSummary(scene_labels=("heavy rain",)), (), rules) == frozenset({"wet"})


# Maneuver triggers, their pieces and neighbours; the first label is a driver
# label, which is not part of the scene.
MANEUVER_VOCAB = "park parking parked reverse reversing backing back up overtake merge merging lane the".split()
maneuver_texts = st.lists(st.sampled_from(MANEUVER_VOCAB), max_size=4).map(" ".join)


@settings(max_examples=200, deadline=None)
@given(st.lists(maneuver_texts, max_size=4).map(tuple), st.tuples(maneuver_texts, maneuver_texts),
       st.lists(st.tuples(maneuver_texts, maneuver_texts), min_size=1, max_size=3))
def test_maneuvers_equal_sliding_window_reference(labels, stages, actions):
    z = perception(labels, stages)
    prompt = StrategyPrompt("p", z)
    document = {"objectives": "o", "actions": [
        {"type": "HmiPrompt", "parameters": {"text": text}, "rationale": rationale} for text, rationale in actions]}
    policy = parse_policy(json.dumps(document)).policy
    scene, hits = maneuver_reference(z, actions, validator.DEFAULT_MANEUVERS)
    assert prompt_context(prompt).scene_maneuvers == scene
    check = run_layered_checks(policy, prompt)[-1]
    assert check.check_id == "contextual.maneuver_consistency"
    assert (check.passed, check.detail) == (not hits, "; ".join(hits) or "maneuver references consistent with the scene")


@settings(max_examples=200, deadline=None)
@given(st.lists(texts, min_size=1, max_size=4), st.lists(texts, max_size=4).map(tuple),
       st.tuples(texts, texts), text_lists, st.floats(0.01, 1.0))
def test_grounding_equals_brute_force_jaccard(entries, labels, stages, bodies, threshold):
    z = perception(labels, stages)
    z = PerceptionSummary(z.driver_labels, z.scene_labels, z.summary_initial, "", z.summary_final, labels[:2])
    snippets = snippets_of(bodies)
    policy = coverage_doc({"in_cabin_text": entries})
    kept = policy.actions[0].evidence.all_entries()  # the parser drops empty entries
    matched = sum(grounded_reference(entry, z, snippets, threshold) for entry in kept)
    coverage = evidence_coverage(policy, z, snippets, RunConfig(match_threshold=threshold))
    assert coverage == (matched / len(kept) if kept else 0.0)


# --- the per-prompt validation context -----------------------------------------------


def test_prompt_context_built_once_per_prompt(rain_policy_dict, rain_prompt, monkeypatch):
    calls = []
    original = validator._build_context

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(validator, "_build_context", counting)
    document = json.dumps(rain_policy_dict)
    reports = [validate(document if i % 4 else "{broken", rain_prompt) for i in range(8)]
    assert len(calls) == 1
    assert all(report.hazards_truth == reports[0].hazards_truth for report in reports)


def test_prompt_context_kept_apart_per_rule_set(rain_policy_dict, rain_prompt, tmp_path):
    fog = tmp_path / "fog.tsv"
    fog.write_text("fog|rain\t*\tpoor_sight\n", encoding="utf-8")
    jam = tmp_path / "jam.tsv"
    jam.write_text("dense traffic\t*\tcongested\n", encoding="utf-8")
    document = json.dumps(rain_policy_dict)
    fog_config, jam_config = RunConfig(hazard_rules_path=str(fog)), RunConfig(hazard_rules_path=str(jam))
    for _ in range(2):
        assert validate(document, rain_prompt, fog_config).hazards_truth == {"poor_sight"}
        assert validate(document, rain_prompt, jam_config).hazards_truth == {"congested"}
        assert validate(document, rain_prompt).hazards_truth == derive_hazards(rain_prompt.z)
    assert len(rain_prompt._validation_contexts) == 3
    assert prompt_context(rain_prompt) is prompt_context(rain_prompt, DEFAULT_HAZARD_RULES)


def test_reused_prompt_reports_equal_fresh_prompt_reports(hot_cabin_policy_dict, comfort_prompt):
    document = json.dumps(hot_cabin_policy_dict)
    for _ in range(3):
        reused = validate(document, comfort_prompt)
    fresh = validate(document, prompt_from_dict(prompt_to_dict(comfort_prompt)))
    assert reused == fresh
    assert report_to_dict(reused) == report_to_dict(fresh)


def test_prompt_context_is_not_part_of_prompt_equality(rain_prompt):
    copy = prompt_from_dict(prompt_to_dict(rain_prompt))
    prompt_context(rain_prompt)
    assert rain_prompt == copy
    assert "_validation_contexts" not in repr(rain_prompt)



# --- prompt-only verdicts kept per prompt ------------------------------------------------

# The entry {cabin, warm, quiet, comfort} meets the stage {cabin, stays, warm, quiet} at Jaccard 3/5: grounded at
# 0.5, not at 0.7.
WARM_CABIN = PerceptionSummary(driver_labels=("anxiety",), summary_initial="the cabin stays warm and quiet")
LOW, HIGH = RunConfig(match_threshold=0.5), RunConfig(match_threshold=0.7)


def evidence_document(entries: list[str]) -> str:
    return json.dumps({"objectives": "o", "constraints": {"legal_regulations": "x"}, "actions": [
        {"type": "HmiPrompt", "parameters": {}, "rationale": "r", "evidence": {"in_cabin_text": entries}}]})


def test_each_verdict_is_computed_once_per_prompt_and_threshold(monkeypatch):
    computed = []
    original = validator._ground

    def counting(entry, targets, threshold):
        computed.append((entry, threshold))
        return original(entry, targets, threshold)

    monkeypatch.setattr(validator, "_ground", counting)
    entries = ["anxiety", "warm quiet cabin comfort", "unrelated thing"]
    documents = [evidence_document(entries[:n]) for n in (1, 2, 3)] * 3  # K = 9 candidates, repeated entries
    prompt = StrategyPrompt("p", WARM_CABIN)
    assert [validate(d, prompt, LOW).s_evd for d in documents[:3]] == [1.0, 1.0, 2 / 3]
    for document in documents[3:]:
        validate(document, prompt, LOW)
    assert sorted(computed) == sorted((entry, 0.5) for entry in entries)
    computed.clear()
    # a new threshold computes each verdict again, once
    assert [validate(d, prompt, HIGH).s_evd for d in documents] == [1.0, 0.5, 1 / 3] * 3
    assert sorted(computed) == sorted((entry, 0.7) for entry in entries)
    computed.clear()
    assert validate(documents[2], prompt, LOW).s_evd == 2 / 3
    assert computed == []
    # an equal prompt decoded anew has verdicts of its own
    assert validate(documents[2], prompt_from_dict(prompt_to_dict(prompt)), LOW).s_evd == 2 / 3
    assert sorted(computed) == sorted((entry, 0.5) for entry in entries)


def test_a_verdict_belongs_to_its_prompt():
    document = evidence_document(["warm quiet cabin comfort"])
    for _ in range(2):
        assert validate(document, StrategyPrompt("warm", WARM_CABIN), LOW).s_evd == 1.0
        assert validate(document, StrategyPrompt("bare"), LOW).s_evd == 0.0


@settings(max_examples=100, deadline=None)
@given(st.lists(texts, max_size=4).map(tuple), st.tuples(texts, texts), text_lists, st.data())
def test_memoized_grounding_equals_brute_force_and_a_fresh_prompt(labels, stages, bodies, data):
    z = perception(labels, stages)
    z = PerceptionSummary(z.driver_labels, z.scene_labels, z.summary_initial, "", z.summary_final, labels[:2])
    snippets = snippets_of(bodies)
    prompt = StrategyPrompt("p", z, constraints=snippets)
    # candidates cite entries from one small pool, so they repeat entries; thresholds alternate 0.3, 0.7, 0.3, ...
    pool = data.draw(st.lists(texts, min_size=1, max_size=4))
    candidates = data.draw(st.lists(st.lists(st.sampled_from(pool), min_size=1, max_size=4), min_size=2, max_size=6))
    configs = (RunConfig(match_threshold=0.3), RunConfig(match_threshold=0.7))
    for index, entries in enumerate(candidates):
        config = configs[index % 2]
        document = evidence_document(entries)
        kept = [entry.strip() for entry in entries if entry.strip()]  # the parser drops empty entries
        matched = sum(grounded_reference(entry, z, snippets, config.match_threshold) for entry in kept)
        s_evd = validate(document, prompt, config).s_evd
        assert s_evd == (matched / len(kept) if kept else 0.0)
        assert s_evd == validate(document, prompt_from_dict(prompt_to_dict(prompt)), config).s_evd


def test_equal_prompts_decoded_apart_share_their_grounding_tokens(comfort_prompt):
    text = json.dumps(prompt_to_dict(comfort_prompt))
    first, second = (prompt_context(prompt_from_dict(json.loads(text))).grounding for _ in range(2))
    tokens = {token: token for candidate in first.candidates for token in candidate}
    assert max(map(len, tokens)) > 1  # CPython keeps one object per one-character string anyway
    assert all(tokens[token] is token for candidate in second.candidates for token in candidate)


def test_allowed_modalities_belong_to_their_prompt():
    binding = ConstraintSnippet("d1", "driver", "D-1", "alerts on the display",
                                assertions=Assertions(required_modalities=frozenset({"visual"})))
    prefers_audio = StrategyPrompt("a", driver=DriverProfile(alert_modality_preference="Audio"), constraints=(binding,))
    bound_only = StrategyPrompt("b", constraints=(binding,))
    document = json.dumps({"objectives": "o", "constraints": {"legal_regulations": "x"}, "actions": [
        {"type": "HmiPrompt", "parameters": {"modality": "audio"}, "rationale": "r", "evidence": {"labels": ["a"]}}]})
    conflict = "action 0 modality 'audio' conflicts with the bound preference"
    for prompt, passed, detail in [(prefers_audio, True, "modalities match the bound preference"),
                                   (bound_only, False, conflict), (prefers_audio, True, None)]:
        check = validate(document, prompt).checks[6]
        assert (check.check_id, check.passed, check.clause_ref) == ("driver.modality_binding", passed, "D-1")
        assert detail is None or check.detail == detail


def test_bound_rows_match_parameters_by_normalized_name():
    bound = ParameterBound(ActionType.HMI_PROMPT, "Display Timeout S", 1, 30)
    legal = ConstraintSnippet("l1", "legal", "L-1", "bound", assertions=Assertions(parameter_bounds=(bound,)))
    vehicle = VehicleProfile(available_actuators=frozenset({"HmiPrompt"}),
                             capability_limits={"HmiPrompt": {"VOLUME": (0, 5)}})
    action = {"type": "HmiPrompt", "parameters": {"display_timeout_s": 0.5, "Volume": 9},
              "rationale": "r", "evidence": {"labels": ["a"]}}
    policy = parse_policy(json.dumps({**HVAC_POLICY, "actions": [action]})).policy
    prompt = StrategyPrompt("p", vehicle=vehicle, constraints=(legal,))
    checks = {c.check_id: c for c in run_layered_checks(policy, prompt)}
    assert checks["legal.parameter_bounds"].detail == "action 0 Display Timeout S=0.5 outside [1, 30] (clause L-1)"
    assert checks["vehicle.capability_limits"].detail == "action 0 VOLUME=9 outside [0, 5]"


# --- keyword scans: one union per pattern set ------------------------------------------------

# Case variants, position-only fragments, alternations, a set, and grouped fragments (backreferences and
# named groups) that must not join a union.
KEYWORD_POOL = ("brake", "Brake", "BRAKE", "race", "loud music", "ab", "brake|race", r"\b", "(?=a)", "[ab]c",
                "tail(?:gate)?", r"(a)\1", r"(b)\1", "(?P<x>a)", "(?P<x>b)b", "(ab)+")
TEXT_WORDS = ("brake", "BRAKE", "Brake", "race", "loud", "music", "aa", "bb", "ab", "abab", "ac", "a", "b",
              "tailgate", "tail", "steer", "throttle", "the", "car")


def keyword_snippet(layer: str, index: int, keywords) -> ConstraintSnippet:
    return ConstraintSnippet(f"{layer}-{index}", layer, f"{layer.upper()}-{index}", "a clause",
                             assertions=Assertions(forbidden_keywords=tuple(keywords)))


def keyword_document(actions: list[list[str]]) -> str:
    """One HMI action per entry: its texts as string parameters p0, p1, ..., the last as the rationale."""
    return json.dumps({"objectives": "o", "constraints": {"legal": "l"}, "actions": [
        {"type": "HmiPrompt", "parameters": {f"p{i}": text for i, text in enumerate(texts[:-1])},
         "rationale": texts[-1], "evidence": {"labels": ["x"]}}
        for texts in actions
    ]})


def keyword_checks(document: str, snippets) -> tuple:
    """The two keyword checks of ``validate``, then of ``run_layered_checks``."""
    prompt = StrategyPrompt("k", constraints=tuple(snippets))
    ids = ("legal.forbidden_keyword", "driver.sensitivity_trigger")
    by_validate = {c.check_id: c for c in validate(document, prompt).checks}
    by_checks = {c.check_id: c for c in run_layered_checks(parse_policy(document).policy, prompt)}
    return tuple(by_validate[i] for i in ids), tuple(by_checks[i] for i in ids)


def keyword_references(document: str, snippets) -> tuple:
    policy = parse_policy(document).policy
    return tuple(
        forbidden_keyword_check_reference(policy, [s for s in snippets if s.layer == layer], check_id, layer)
        for check_id, layer in (("legal.forbidden_keyword", "legal"), ("driver.sensitivity_trigger", "driver"))
    )


@st.composite
def keyword_cases(draw):
    keywords = st.lists(st.sampled_from(KEYWORD_POOL), max_size=3)
    legal = draw(st.lists(keywords, min_size=1, max_size=4))
    driver = draw(st.lists(keywords, max_size=3))
    for lists in (legal, driver):  # a keyword that two snippets with different clauses share
        if lists and lists[0] and draw(st.booleans()):
            lists.append([draw(st.sampled_from(lists[0]))])
    snippets = [keyword_snippet(layer, i, kws) for layer, lists in (("legal", legal), ("driver", driver))
                for i, kws in enumerate(lists)]
    text = st.lists(st.sampled_from(TEXT_WORDS), max_size=5).map(" ".join)
    actions = draw(st.lists(st.lists(text, min_size=1, max_size=3), min_size=1, max_size=4))
    lexicon = draw(st.lists(st.sampled_from(KEYWORD_POOL + DEFAULT_LEXICON_LINES), min_size=1, max_size=6))
    return snippets, keyword_document(actions), lexicon


@settings(max_examples=300, deadline=None)
@given(keyword_cases())
def test_union_scans_equal_the_per_pattern_reference(case):
    snippets, document, lines = case
    expected = keyword_references(document, snippets)
    by_validate, by_checks = keyword_checks(document, snippets)
    assert by_validate == by_checks == expected
    policy = parse_policy(document).policy
    lexicon = compile_lexicon(lines)
    expected_matches = low_level_matches_reference(policy, lexicon.entries)
    assert detect_low_level_control(policy, lexicon) == expected_matches


def test_a_keyword_shared_by_two_snippets_cites_both_clauses():
    snippets = [keyword_snippet("legal", 0, ["race"]), keyword_snippet("legal", 1, ["tailgate", "race"])]
    document = keyword_document([["no race here"], ["calm"], ["RACE and tailgate"]])
    legal, _ = keyword_checks(document, snippets)[0]
    assert legal.detail == ("action 0 matches 'race' (clause LEGAL-0); action 0 matches 'race' (clause LEGAL-1); "
                            "action 2 matches 'race' (clause LEGAL-0); action 2 matches 'tailgate' (clause LEGAL-1); "
                            "action 2 matches 'race' (clause LEGAL-1)")
    assert legal.clause_ref == "LEGAL-0"
    assert keyword_checks(document, snippets)[0] == keyword_references(document, snippets)


def test_grouped_patterns_are_scanned_alone():
    # joined, the second fragment's \1 would name the first fragment's group
    grouped = [r"(a)\1", r"(b)\1"]
    union, alone = keyword_union(tuple(map(keyword_pattern, ["race", *grouped])))
    assert union.pattern == r"\b(?:race)\b" and alone == frozenset(map(keyword_pattern, grouped))
    document = keyword_document([["bb"]])
    snippets = [keyword_snippet("driver", 0, ["race", *grouped])]
    assert keyword_checks(document, snippets)[0][1].detail == r"action 0 matches '(b)\\1' (clause DRIVER-0)"
    matches = detect_low_level_control(parse_policy(document).policy, compile_lexicon(["race", *grouped]))
    assert [(m.matched_pattern, m.matched_text) for m in matches] == [(r"(b)\1", "bb")]


def test_a_pattern_with_other_flags_or_a_union_that_fails_is_scanned_alone():
    case_blind = LexiconPattern("x", keyword_pattern("x"))
    exact = LexiconPattern("Y", re.compile(r"\bY\b"))
    union, alone = keyword_union((case_blind.regex, exact.regex))
    assert union.pattern == r"\b(?:x)\b" and alone == {exact.regex}
    policy = parse_policy(keyword_document([["X y Y"]])).policy
    assert [m.matched_text for m in detect_low_level_control(policy, keyword_scan([case_blind, exact]))] == ["X", "Y"]
    # a global flag that is not at the start of the alternation fails to compile: no union at all
    late_flag = LexiconPattern("z", re.compile("(?i)z", re.IGNORECASE))
    assert keyword_union((case_blind.regex, late_flag.regex)) == (None, {case_blind.regex, late_flag.regex})
    policy = parse_policy(keyword_document([["x z"]])).policy
    matches = detect_low_level_control(policy, keyword_scan([case_blind, late_flag]))
    assert [m.matched_text for m in matches] == ["x", "z"]


def test_validate_looks_up_the_prompt_context_once(rain_policy_dict, rain_prompt, monkeypatch):
    lookups = []
    lookup = validator.prompt_context
    monkeypatch.setattr(validator, "prompt_context", lambda *args: lookups.append(args) or lookup(*args))
    validate(json.dumps(rain_policy_dict), rain_prompt)
    assert len(lookups) == 1


@pytest.mark.parametrize("lexicon, low_level", [(None, ["brake"]), ("# custom\nbrake\nrace\n", ["brake", "race"])],
                         ids=["default-lexicon", "lexicon-path"])
def test_a_later_candidate_of_a_prompt_builds_no_keyword_union(lexicon, low_level, tmp_path, monkeypatch):
    """The lexicon's scan is built with the lexicon and each keyword scope's with the prompt context; a candidate
    only scans."""
    import ecpo.policy

    config = None
    if lexicon is not None:
        (tmp_path / "lexicon.txt").write_text(lexicon, encoding="utf-8")
        config = RunConfig(lexicon_path=str(tmp_path / "lexicon.txt"))
    prompt = StrategyPrompt("k", constraints=(keyword_snippet("legal", 0, ["race"]),
                                              keyword_snippet("driver", 0, ["loud music"])))
    validate(keyword_document([["calm"]]), prompt, config)
    unions = []
    union = ecpo.policy.keyword_union
    monkeypatch.setattr(ecpo.policy, "keyword_union", lambda patterns: unions.append(patterns) or union(patterns))
    report = validate(keyword_document([["brake before the race", "loud music"]]), prompt, config)
    assert unions == []
    checks = {c.check_id: c for c in report.checks}
    assert checks["legal.forbidden_keyword"].detail == "action 0 matches 'race' (clause LEGAL-0)"
    assert checks["driver.sensitivity_trigger"].detail == "action 0 matches 'loud music' (clause DRIVER-0)"
    assert [m.matched_text for m in report.low_level_matches] == low_level


def test_a_policy_builds_its_action_facts_once_and_only_when_read(rain_policy_dict, rain_prompt, monkeypatch):
    """Validate's readers (hazards addressed, the checks, the low-level scan) share one build of each action's
    facts, kept on that policy alone; parsing a document or decoding a sample's reference policy builds none."""
    import ecpo.policy

    built = []
    build = ecpo.policy._build_facts
    monkeypatch.setattr(ecpo.policy, "_build_facts", lambda action: built.append(action) or build(action))
    calm = json.dumps(rain_policy_dict)
    assert parse_policy(calm).valid
    sample = sample_from_dict({**sample_to_dict(make_sample("s")), "reference_policy": rain_policy_dict})
    assert sample.reference_policy is not None and built == []
    braking = dict(rain_policy_dict, actions=[dict(rain_policy_dict["actions"][0], rationale="brake in the rain")] * 2)
    for document, actions, low_level in ((calm, 1, []), (json.dumps(braking), 2, ["brake", "brake"])):
        built.clear()
        report = validate(document, rain_prompt)
        assert len(built) == actions
        assert [m.matched_text for m in report.low_level_matches] == low_level


def test_validate_reads_the_weight_row_the_config_checked(rain_policy_dict, rain_prompt, monkeypatch):
    config = RunConfig(ecpo_weights=(0.7, 0.15, 0.15))
    expected = validate(json.dumps(rain_policy_dict), rain_prompt, config)

    def no_check(weights):
        raise AssertionError("weight row checked again")

    monkeypatch.setattr(validator, "check_weights", no_check)
    assert validate(json.dumps(rain_policy_dict), rain_prompt, config) == expected
    with pytest.raises(AssertionError):
        ecpo_score(1.0, 1.0, 1.0, (0.7, 0.15, 0.15))
