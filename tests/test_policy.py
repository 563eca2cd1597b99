import json
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from ecpo.config import RunConfig
from ecpo.errors import ConfigError
from ecpo.policy import (
    EVIDENCE_FIELDS,
    ActionType,
    PenaltyTable,
    action_facts,
    compile_lexicon,
    detect_low_level_control,
    load_lexicon,
    parse_action_type,
    parse_policy,
    serialize_policy,
    structural_score,
)
from oracles import parse_policy_reference, random_policy_dict


def minimal_doc(**overrides) -> dict:
    doc = {
        "objectives": "hold a safe distance",
        "constraints": {"legal_regulations": "obey signals"},
        "actions": [
            {
                "type": "DrivingSuggestion",
                "parameters": {"text": "ease off near the junction"},
                "rationale": "traffic slows ahead",
                "evidence": {"labels": ["slowing"]},
            }
        ],
    }
    doc.update(overrides)
    return doc


def parse(doc) -> "ParseOutcome":
    return parse_policy(json.dumps(doc))


# --- parsing ---------------------------------------------------------------


def test_parse_minimal_valid():
    outcome = parse(minimal_doc())
    assert outcome.valid
    assert outcome.policy.objectives == "hold a safe distance"
    assert outcome.policy.constraints.legal_regulations == "obey signals"
    action = outcome.policy.actions[0]
    assert action.action_type is ActionType.DRIVING_SUGGESTION
    assert action.parameters == {"text": "ease off near the junction"}
    assert action.evidence.labels == ("slowing",)
    assert outcome.defect_codes() == []


@pytest.mark.parametrize(
    "surface,expected",
    [
        ("DrivingSuggestion", ActionType.DRIVING_SUGGESTION),
        ("Driving suggest", ActionType.DRIVING_SUGGESTION),
        ("HMI prompt", ActionType.HMI_PROMPT),
        ("hmi_prompt", ActionType.HMI_PROMPT),
        ("HVAC", ActionType.HVAC),
        ("Ambient Light", ActionType.AMBIENT_LIGHT),
        ("unknown", None),
    ],
)
def test_action_type_aliases(surface, expected):
    assert parse_action_type(surface) is expected


def test_layer_and_evidence_key_aliases():
    doc = minimal_doc(
        constraints={"Legal Regulations": "obey signals", "Driver Preferences": "quiet cabin"}
    )
    doc["actions"][0]["evidence"] = {"in cabin text": ["driver calm"]}
    outcome = parse(doc)
    assert outcome.valid
    assert outcome.policy.constraints.legal_regulations == "obey signals"
    assert outcome.policy.constraints.driver_preferences == "quiet cabin"
    assert outcome.policy.actions[0].evidence.in_cabin_text == ("driver calm",)


@pytest.mark.parametrize(
    "document,code",
    [
        ("not json at all {", "UNPARSEABLE"),
        ("[1, 2]", "UNPARSEABLE"),
        (b"\xff\xfe\x00", "UNPARSEABLE"),
        (json.dumps({"objectives": "x", "constraints": {}}), "MISSING_ACTIONS"),
        (json.dumps(minimal_doc(actions="nope")), "MISSING_ACTIONS"),
        (json.dumps(minimal_doc(actions=[])), "NO_ACTIONS"),
        (json.dumps(minimal_doc(actions=["nope"])), "BAD_ACTION_TYPE"),
    ],
)
def test_hard_defects_make_invalid(document, code):
    outcome = parse_policy(document)
    assert not outcome.valid
    assert code in outcome.defect_codes()
    assert structural_score(outcome) == 0.0


def with_action(**fields) -> dict:
    doc = minimal_doc()
    doc["actions"][0].update(fields)
    return doc


@pytest.mark.parametrize(
    "doc,expected",
    [
        (minimal_doc(constraints=[{"legal": "obey signals"}, "y"]), [("BAD_CONSTRAINT_VALUE", "$.constraints[1]")]),
        (minimal_doc(constraints="obey signals"), [("BAD_CONSTRAINT_VALUE", "$.constraints")]),
        (minimal_doc(constraints={"legal": "obey signals", "driver": "  "}),
         [("BAD_CONSTRAINT_VALUE", "$.constraints.driver")]),
        (with_action(parameters=[1]), [("BAD_PARAMETER_VALUE", "$.actions[0].parameters")]),
        (with_action(evidence="x"), [("BAD_EVIDENCE_ENTRY", "$.actions[0].evidence")]),
        (minimal_doc(objectives="   "), [("MISSING_OBJECTIVES", "$.objectives")]),
        (minimal_doc(objectives=["  ", ""]),
         [("OBJECTIVES_COERCED", "$.objectives"), ("MISSING_OBJECTIVES", "$.objectives")]),
    ],
)
def test_malformed_fields_flag_their_path(doc, expected):
    defects = [(d.code, d.path) for d in parse(doc).defects]
    assert all(pair in defects for pair in expected), defects


def test_too_many_actions_respects_j_max():
    action = minimal_doc()["actions"][0]
    doc = minimal_doc(actions=[dict(action) for _ in range(6)])
    assert "TOO_MANY_ACTIONS" in parse(doc).defect_codes()
    outcome = parse_policy(json.dumps(minimal_doc(actions=[dict(action) for _ in range(3)])), j_max=2)
    assert not outcome.valid
    assert "TOO_MANY_ACTIONS" in outcome.defect_codes()


def test_bad_action_type_is_hard():
    doc = minimal_doc()
    doc["actions"][0]["type"] = "Teleport"
    outcome = parse(doc)
    assert not outcome.valid
    assert "BAD_ACTION_TYPE" in outcome.defect_codes()


def test_objectives_list_coerced():
    outcome = parse(minimal_doc(objectives=["hold distance", "stay calm"]))
    assert outcome.valid
    assert outcome.policy.objectives == "hold distance stay calm"
    assert outcome.defect_codes() == ["OBJECTIVES_COERCED"]


def test_duplicate_layer_keeps_first():
    doc = minimal_doc(constraints=[{"legal": "first"}, {"legal_regulations": "second"}])
    outcome = parse(doc)
    assert outcome.policy.constraints.legal_regulations == "first"
    assert "DUPLICATE_CONSTRAINT_LAYER" in outcome.defect_codes()


def test_unknown_constraint_key_flagged_without_penalty():
    doc = minimal_doc(constraints={"legal_regulations": "x", "weather": "rainy"})
    outcome = parse(doc)
    assert outcome.valid
    assert "UNKNOWN_CONSTRAINT_KEY" in outcome.defect_codes()
    assert structural_score(outcome) == 1.0


def test_parameter_coercions():
    doc = minimal_doc()
    doc["actions"][0]["parameters"] = {
        "text": "  padded  ",
        "level": 3,
        "share": 0.25,
        "flag": True,
        "bad": [1],
        "nan": float("nan"),
        "": "empty key",
    }
    outcome = parse(doc)
    assert outcome.valid
    assert outcome.policy.actions[0].parameters == {"text": "padded", "level": 3, "share": 0.25}
    assert outcome.defect_codes().count("BAD_PARAMETER_VALUE") == 4


def test_parameter_defects_name_their_parameter():
    doc = minimal_doc()
    doc["actions"][0]["parameters"] = {"flag": True, " bad ": [1], "  ": "empty", "nan": None, "x" * 130: {}, "ok": 1}
    path = "$.actions[0].parameters."
    assert [(d.code, d.path, d.message) for d in parse(doc).defects] == [
        ("BAD_PARAMETER_VALUE", path + "flag", "boolean parameter dropped"),
        ("BAD_PARAMETER_VALUE", path + "bad", "parameter value is not a scalar; dropped"),
        ("BAD_PARAMETER_VALUE", path + "'  '", "empty parameter key dropped"),
        ("BAD_PARAMETER_VALUE", path + "nan", "parameter value is not a scalar; dropped"),
        ("BAD_PARAMETER_VALUE", path + "x" * 120 + "...", "parameter value is not a scalar; dropped"),
    ]


def test_integer_past_float_range_dropped():
    # the checks compare parameters as floats; this one would overflow
    doc = minimal_doc()
    doc["actions"][0]["parameters"] = {"temperature": 10**400, "level": -(10**300)}
    outcome = parse(doc)
    assert outcome.policy.actions[0].parameters == {"level": -(10**300)}
    assert outcome.defect_codes().count("BAD_PARAMETER_VALUE") == 1


def test_bad_evidence_entries_dropped():
    doc = minimal_doc()
    doc["actions"][0]["evidence"] = {"labels": ["ok", 7, " "], "objects": "not a list"}
    outcome = parse(doc)
    assert outcome.policy.actions[0].evidence.labels == ("ok",)
    assert outcome.defect_codes().count("BAD_EVIDENCE_ENTRY") == 3


# --- structural scoring ------------------------------------------------------


def test_soft_penalties_add_up():
    doc = minimal_doc()
    del doc["objectives"]
    doc["constraints"] = {}
    outcome = parse(doc)
    assert outcome.valid
    assert {"MISSING_OBJECTIVES", "MISSING_CONSTRAINTS"} <= set(outcome.defect_codes())
    assert math.isclose(structural_score(outcome), 0.8, abs_tol=1e-12)


def test_missing_rationale_capped():
    action = {"type": "Hvac", "parameters": {}, "evidence": {"labels": ["warm"]}}
    doc = minimal_doc(actions=[dict(action) for _ in range(5)])
    outcome = parse(doc)
    assert outcome.defect_codes().count("MISSING_RATIONALE") == 5
    # five 0.1 deductions cap at 0.3
    assert math.isclose(structural_score(outcome), 0.7, abs_tol=1e-12)


def test_empty_evidence_capped():
    action = {"type": "Hvac", "parameters": {}, "rationale": "keep warm", "evidence": {}}
    doc = minimal_doc(actions=[dict(action) for _ in range(5)])
    outcome = parse(doc)
    assert outcome.defect_codes().count("EMPTY_EVIDENCE") == 5
    assert math.isclose(structural_score(outcome), 0.7, abs_tol=1e-12)


def test_custom_penalty_table():
    doc = minimal_doc(constraints={"legal_regulations": "x", "weather": "rainy"})
    outcome = parse(doc)
    table = PenaltyTable(other=0.05)
    assert math.isclose(structural_score(outcome, table), 0.95, abs_tol=1e-12)
    with pytest.raises(ConfigError):
        PenaltyTable(missing_objectives=-0.1)


def test_score_clamped_at_zero():
    action = {"type": "Hvac", "parameters": {}, "evidence": {}}
    doc = {"actions": [dict(action) for _ in range(5)]}
    outcome = parse(doc)
    assert outcome.valid
    # 0.1 + 0.1 + 0.3 + 0.3 = 0.8 total deduction
    assert math.isclose(structural_score(outcome), 0.2, abs_tol=1e-12)
    table = PenaltyTable(missing_objectives=0.5, missing_constraints=0.5)
    assert structural_score(outcome, table) == 0.0


# --- canonical serialization -------------------------------------------------


def test_serialize_sorts_parameters_and_is_stable():
    doc = minimal_doc()
    doc["actions"][0]["parameters"] = {"zeta": 1, "alpha": 2}
    first = serialize_policy(parse(doc).policy)
    assert first.index('"alpha"') < first.index('"zeta"')
    assert serialize_policy(parse_policy(first).policy) == first


def test_round_trip_small_corpus():
    rng = random.Random(11)
    for _ in range(50):
        doc = random_policy_dict(rng)
        outcome = parse_policy(json.dumps(doc))
        assert outcome.valid
        canonical = serialize_policy(outcome.policy)
        again = parse_policy(canonical)
        assert again.valid
        assert again.policy == outcome.policy
        assert serialize_policy(again.policy) == canonical


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_round_trip_property(seed):
    doc = random_policy_dict(random.Random(seed))
    outcome = parse_policy(json.dumps(doc))
    canonical = serialize_policy(outcome.policy)
    assert parse_policy(canonical).policy == outcome.policy


# --- a decoded document parses as its JSON text did -------------------------------------------

# What JSON decodes to, junk for any field: NaN, the infinities, ints past the float range and lone surrogates.
TEXTS = st.text(st.one_of(st.characters(), st.sampled_from("\ud800\udbff\udc00\udfff")), max_size=6) | st.sampled_from(
    ["", "  ", "ease off", "throttle to 30", " HVAC "])
SCALARS = st.one_of(st.none(), st.booleans(), st.integers(), st.sampled_from([10**309, -(2**1024), 10**400]),
                    st.floats(), TEXTS)
VALUES = st.recursive(SCALARS, lambda inner: st.lists(inner, max_size=3) | st.dictionaries(TEXTS, inner, max_size=3),
                      max_leaves=6)


def field(strategy):
    """A field's well-formed value, three times in four, or any JSON value in its place."""
    return st.one_of(strategy, strategy, strategy, VALUES)


EVIDENCE = st.dictionaries(st.sampled_from([*EVIDENCE_FIELDS, "In Cabin Text", "other"]),
                           field(st.lists(field(TEXTS), max_size=3)), max_size=3)
ACTION = st.fixed_dictionaries({
    "type": field(st.sampled_from(["HVAC", "Hmi prompt", "DrivingSuggestion", " ambient light", "Steer"])),
    "Parameters": field(st.dictionaries(TEXTS, SCALARS, max_size=3)),
    "rationale": field(TEXTS), "evidence": field(EVIDENCE)}, optional={"note": VALUES})
LEDGER = st.dictionaries(st.sampled_from(["legal", "Vehicle Limits", "driver", "contextual_evidence", "weather"]),
                         field(TEXTS), max_size=3)
POLICY = st.fixed_dictionaries({
    "objectives": field(TEXTS | st.lists(TEXTS, max_size=3)), "Constraints": field(LEDGER | st.lists(LEDGER)),
    "actions": field(st.lists(ACTION, min_size=1, max_size=6))}, optional={"ACTIONS": VALUES, "extra": VALUES})


# As JSON decodes them: two escapes of a surrogate pair decode to one character. A str is text to parse, not a value.
DECODED = field(POLICY).filter(lambda value: not isinstance(value, str)).map(lambda value: json.loads(
    json.dumps(value)))


@settings(max_examples=300, deadline=None)
@given(DECODED)
def test_a_decoded_document_parses_as_its_json_text(value):
    assert parse_policy(value) == parse_policy_reference(value)


# --- low-level language lexicon ----------------------------------------------


def test_default_lexicon_hits():
    doc = minimal_doc()
    doc["actions"][0]["parameters"]["text"] = "gently brake and set speed to 40"
    doc["actions"][0]["rationale"] = "accelerate by 2.5 after the merge area"
    matches = detect_low_level_control(parse(doc).policy, RunConfig().lexicon())
    texts = {m.matched_text.casefold() for m in matches}
    assert "brake" in texts
    assert "set speed to 40" in texts
    assert "accelerate by 2.5" in texts
    assert all(m.action_index == 0 for m in matches)


def test_lexicon_word_boundaries():
    doc = minimal_doc()
    doc["actions"][0]["parameters"]["text"] = "release the handbrake warning lamp"
    assert detect_low_level_control(parse(doc).policy, RunConfig().lexicon()) == []


@pytest.mark.parametrize("line", [r"\b", r"(?=e)", r"\b|(?=g)"])
def test_position_only_lexicon_line_matches_nothing(line):
    # the pattern matches the empty string at word boundaries; an empty match is no hit
    doc = minimal_doc()
    doc["actions"][0]["parameters"]["text"] = "go ease off"
    policy = parse(doc).policy
    assert compile_lexicon([line]).entries[0].regex.search("go ease off") is not None
    assert detect_low_level_control(policy, compile_lexicon([line])) == []


def test_lexicon_hit_after_an_empty_match_at_the_same_place_counts():
    doc = minimal_doc()
    doc["actions"][0]["parameters"]["text"] = "go ease off"
    matches = detect_low_level_control(parse(doc).policy, compile_lexicon([r"\b|ease"]))
    assert [(m.matched_pattern, m.matched_text) for m in matches] == [(r"\b|ease", "ease")]


def test_compile_lexicon_rejects_bad_pattern():
    with pytest.raises(ConfigError) as err:
        compile_lexicon(["steer(", "ok"])
    assert err.value.code == "BAD_LEXICON_PATTERN"


def test_load_lexicon_skips_comments(tmp_path):
    path = tmp_path / "lexicon.txt"
    path.write_text("# low-level verbs\nbrake\n\nsteer\n", encoding="utf-8")
    patterns = load_lexicon(path)
    assert [p.source for p in patterns.entries] == ["brake", "steer"]


def test_policy_text_excludes_evidence():
    doc = minimal_doc()
    doc["actions"][0]["evidence"] = {"labels": ["EVIDENCE_ONLY_TOKEN"]}
    policy = parse(doc).policy
    assert "EVIDENCE_ONLY_TOKEN" not in action_facts(policy)[0].text
    assert "ease off near the junction" in action_facts(policy)[0].text
