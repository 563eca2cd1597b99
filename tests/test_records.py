"""One field table per outside record: decoding, encoding and the README agree with it; one encoder
writes every record the CLI writes."""

import copy
import hashlib
import io
import json
import random
import re
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from ecpo.cli import CANDIDATE_FIELDS, EVAL_FIELDS, PAIRS_FIELDS, VALIDATE_FIELDS, main
from ecpo.config import RunConfig
from ecpo.context import (
    DRIVER_FIELDS,
    PROMPT_FIELDS,
    SAMPLE_FIELDS,
    SENSITIVITY_LEVELS,
    SPLITS,
    VEHICLE_FIELDS,
    Z_FIELDS,
    DriverProfile,
    PerceptionSummary,
    SampleRecord,
    StrategyPrompt,
    VehicleProfile,
    sample_from_dict,
    sample_to_dict,
)
from ecpo.policy import ActionType, PenaltyTable, keyword_pattern, parse_policy, serialize_policy
from ecpo.store import (
    ASSERTION_FIELDS,
    LAYER_PRIORITY,
    SNIPPET_FIELDS,
    Assertions,
    ConstraintSnippet,
    ParameterBound,
    snippet_from_dict,
    to_json,
)
from ecpo.validator import prompt_context, report_to_dict, validate
from oracles import PLANT_LAYERS, build_planted_case, echo_reference, random_policy_dict, report_dict_reference

DATACLASS_TABLES = [
    (Z_FIELDS, PerceptionSummary),
    (DRIVER_FIELDS, DriverProfile),
    (VEHICLE_FIELDS, VehicleProfile),
    (PROMPT_FIELDS, StrategyPrompt),
    (SAMPLE_FIELDS, SampleRecord),
    (SNIPPET_FIELDS, ConstraintSnippet),
    (ASSERTION_FIELDS, Assertions),
]

ALL_TABLES = [table for table, _ in DATACLASS_TABLES] + [
    VALIDATE_FIELDS, CANDIDATE_FIELDS, PAIRS_FIELDS, *(table for table, _ in EVAL_FIELDS.values())]


@pytest.mark.parametrize("table, cls", DATACLASS_TABLES, ids=[cls.__name__ for _, cls in DATACLASS_TABLES])
def test_each_table_declares_its_records_init_fields(table, cls):
    # the encoder writes the init fields, so decoding its output needs exactly these keys
    assert list(table) == [f.name for f in fields(cls) if f.init]


def test_readme_names_every_table_field():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme[readme.index("**Input decoding.**"):readme.index("## Metrics")]
    missing = sorted({key for table in ALL_TABLES for key in table if f"`{key}`" not in section})
    assert missing == []


def test_to_json_writes_sets_sorted_enums_by_value_and_bounds_as_lists():
    assertions = Assertions(
        forbidden_action_types=frozenset({ActionType.HVAC, ActionType.AMBIENT_LIGHT}),
        parameter_bounds=(ParameterBound(ActionType.HVAC, "temperature", 16.0, 28.5),),
        required_modalities=frozenset({"visual", "audio"}),
        forbidden_keywords=("loud music",),
    )
    # the compiled keyword patterns are derived state: never written, never compared
    assert to_json(assertions) == {
        "forbidden_action_types": ["AmbientLight", "Hvac"],
        "parameter_bounds": [["Hvac", "temperature", 16.0, 28.5]],
        "required_modalities": ["audio", "visual"],
        "forbidden_keywords": ["loud music"],
    }
    assert to_json(StrategyPrompt("p")) == {
        "prompt_id": "p", "z": to_json(PerceptionSummary()), "driver": to_json(DriverProfile()),
        "vehicle": to_json(VehicleProfile()), "constraints": []}


def test_keywords_are_compiled_once_per_snippet(monkeypatch, rain_prompt, rain_policy_dict):
    import ecpo.policy

    def no_compile(keyword):
        raise AssertionError(f"keyword {keyword!r} compiled again")

    snippet = snippet_from_dict({"snippet_id": "k", "layer": "legal", "clause_id": "c", "text": "no racing",
                                 "assertions": {"forbidden_keywords": ["ignore the signal", "race"]}})
    patterns = [keyword_pattern(keyword) for keyword in snippet.assertions.forbidden_keywords]
    assert [p.pattern for p in patterns] == [r"\b(?:ignore the signal)\b", r"\b(?:race)\b"]
    # every keyword_pattern call compiles through policy._compile, whichever module calls it
    monkeypatch.setattr(ecpo.policy, "_compile", no_compile)
    prompt = StrategyPrompt("k", constraints=rain_prompt.constraints + (snippet,))
    validate(json.dumps(rain_policy_dict), prompt)
    carried = [pattern for (carrier, _), pattern in prompt_context(prompt).legal_keywords.entries
               if carrier is snippet]
    assert all(a is b for a, b in zip(carried, patterns, strict=True))


def test_snippets_sharing_a_keyword_compile_it_once(monkeypatch, rain_policy_dict):
    import ecpo.policy

    compiled = Counter()
    compile_pattern = ecpo.policy._compile

    def counted(pattern):
        compiled[pattern] += 1
        return compile_pattern(pattern)

    monkeypatch.setattr(ecpo.policy, "_compile", counted)
    keyword_pattern.cache_clear()
    snippets = tuple(snippet_from_dict({"snippet_id": name, "layer": "legal", "clause_id": name, "text": "no racing",
                                        "assertions": {"forbidden_keywords": ["tailgate", "race"]}})
                     for name in ("a", "b"))
    validate(json.dumps(rain_policy_dict), StrategyPrompt("k", constraints=snippets))
    # the bare fragment is compiled to test it for the empty match, the wrapped one is the pattern
    for keyword in ("tailgate", "race"):
        assert (compiled[keyword], compiled[rf"\b(?:{keyword})\b"]) == (1, 1)
    # a fragment that fails is not cached: it raises on every call, with the same message
    messages = []
    for _ in range(2):
        with pytest.raises(re.error) as err:
            keyword_pattern("x?")
        messages.append(str(err.value))
    assert messages == ["matches the empty string"] * 2 and compiled["x?"] == 2


# --- round trip --------------------------------------------------------------------------------

strings = st.text(max_size=6)
names = st.text(alphabet="abcxyz -é", min_size=1, max_size=8).filter(str.strip)
keywords = st.from_regex(r"[a-z]{1,6}( [a-z]{1,6})?", fullmatch=True)


@st.composite
def pairs(draw) -> tuple[float, float]:
    low, high = sorted(draw(st.lists(st.floats(-50, 50, allow_nan=False), min_size=2, max_size=2)))
    return low, high


@st.composite
def snippets(draw) -> ConstraintSnippet:
    assertions = draw(st.one_of(st.none(), st.builds(
        Assertions,
        forbidden_action_types=st.frozensets(st.sampled_from(ActionType)),
        parameter_bounds=st.lists(st.builds(lambda t, p, b: ParameterBound(t, p, *b), st.sampled_from(ActionType),
                                            strings, pairs()), max_size=2).map(tuple),
        required_modalities=st.frozensets(strings, max_size=2),
        forbidden_keywords=st.lists(keywords, max_size=2).map(tuple),
    )))
    return ConstraintSnippet(
        snippet_id=draw(names), layer=draw(st.sampled_from(sorted(LAYER_PRIORITY))), clause_id=draw(names),
        text=draw(names), jurisdiction=draw(st.one_of(st.none(), strings)),
        vehicle_config=draw(st.one_of(st.none(), strings)), assertions=assertions,
        version=draw(st.integers(0, 5)),
    )


@st.composite
def samples(draw) -> SampleRecord:
    actuators = draw(st.frozensets(st.sampled_from([t.value for t in ActionType])))
    limits = {name: draw(st.dictionaries(strings, pairs(), max_size=2)) for name in sorted(actuators)
              if draw(st.booleans())}
    band = draw(st.one_of(st.just({}), pairs().map(lambda b: {"temperature_band": list(b)})))
    policy_seed = draw(st.one_of(st.none(), st.integers(0, 2**32)))
    return SampleRecord(
        prompt=StrategyPrompt(
            prompt_id=draw(names),
            z=PerceptionSummary(*(draw(st.lists(strings, max_size=3).map(tuple)) for _ in range(2)),
                                *(draw(strings) for _ in range(3)), draw(st.lists(strings, max_size=3).map(tuple))),
            driver=DriverProfile(
                draw(strings), draw(strings),
                draw(st.dictionaries(strings, st.sampled_from(SENSITIVITY_LEVELS), max_size=2)),
                draw(strings), {**band, **draw(st.dictionaries(names, strings, max_size=1))},
            ),
            vehicle=VehicleProfile(draw(strings), draw(strings), actuators, limits),
            constraints=tuple(draw(st.lists(snippets(), max_size=3))),
        ),
        split=draw(st.sampled_from(SPLITS)),
        reference_policy=None if policy_seed is None else parse_policy(
            json.dumps(random_policy_dict(random.Random(policy_seed)))).policy,
        ground_truth_labels=draw(st.dictionaries(
            names, st.one_of(strings, st.lists(strings, max_size=3).map(tuple)), max_size=3)),
    )


@settings(max_examples=150, deadline=None)
@given(samples())
def test_sample_round_trips_through_its_table(record):
    assert sample_from_dict(sample_to_dict(record)) == record
    # as mixpair writes it and stratify reads it back
    assert sample_from_dict(json.loads(json.dumps(sample_to_dict(record)))) == record


# --- mixpair bytes ----------------------------------------------------------------------------


def mixpair_fixture(seed: int) -> tuple[list[dict], list[dict]]:
    """Seeded in-cabin and out-of-cabin sample records that use every record field."""
    rng = random.Random(seed)
    words = ["rain", "fog", "truck", "cyclist", "merge", "calm", "anxious", "café", "night", "tunnel"]

    def phrase(low: int = 1, high: int = 4) -> str:
        return " ".join(rng.choice(words) for _ in range(rng.randint(low, high)))

    def snippet(prompt_id: str, index: int) -> dict:
        layer = rng.choice(["legal", "vehicle", "driver"])
        record = {"snippet_id": f"{prompt_id}-s{index}", "layer": layer, "clause_id": f"{layer[0]}-{index}",
                  "text": phrase(3, 8), "jurisdiction": rng.choice(["EU", "US", None]),
                  "vehicle_config": rng.choice(["sedan", None]), "version": rng.randint(0, 3)}
        if rng.random() < 0.6:
            record["assertions"] = {
                "forbidden_action_types": rng.sample(["AmbientLight", "HVAC", "hmi prompt", "Driving suggest"], 2),
                "parameter_bounds": [["Hvac", "temperature", 16, 28.5], ["ambient light", "level", 0.5, 10]][
                    :rng.randint(0, 2)],
                "required_modalities": rng.sample(["visual", "audio", "haptic"], rng.randint(0, 2)),
                "forbidden_keywords": rng.sample(["ignore the signal", "loud music", "speed up"], rng.randint(0, 2)),
            }
        elif rng.random() < 0.5:
            record["assertions"] = {}
        return record

    def sample(prompt_id: str, split: str) -> dict:
        low = rng.randint(17, 21)
        policy = random_policy_dict(rng)
        return {
            "prompt": {
                "prompt_id": prompt_id,
                "z": {"driver_labels": [rng.choice(["anxious", "calm"])], "scene_labels": [phrase(1, 2)],
                      "summary_initial": phrase(), "summary_transition": phrase(), "summary_final": phrase(),
                      "objects": [f"obj-{rng.randint(1, 5)}" for _ in range(rng.randint(0, 2))]},
                "driver": {"alert_modality_preference": rng.choice(["visual", "audio"]), "alert_frequency": "low",
                           "sensitivities": {"noise": rng.choice(SENSITIVITY_LEVELS)}, "style_preference": phrase(),
                           "cabin_preferences": {"temperature_band": [low, low + rng.randint(2, 5)],
                                                 "seat_heat": rng.choice(["off", "low"])}},
                "vehicle": {"jurisdiction": rng.choice(["EU", "US"]), "operating_mode": "manual",
                            "available_actuators": ["hvac", "HMI prompt", "AmbientLight"],
                            "capability_limits": {"HVAC": {"fan_level": [1, 5]}, "HmiPrompt": {"volume": [0, 0.8]}}},
                "constraints": [snippet(prompt_id, index) for index in range(rng.randint(0, 3))],
            },
            "split": split,
            "reference_policy": rng.choice([None, policy, json.dumps(policy)]),
            "ground_truth_labels": {"emotion": rng.choice(["neutral", "anger"]), "traffic_scene": "rain",
                                    "objects": [f"obj-{rng.randint(1, 5)}" for _ in range(rng.randint(0, 2))]},
        }

    ins = [sample(f"in-{index}", SPLITS[index % 3]) for index in range(6)]
    outs = [sample(f"out-{index}", SPLITS[index % 3]) for index in range(9)]
    return ins, outs


# sha256 of the mixpair output on mixpair_fixture(7) with block_size 2 and seed 11, from the
# field-by-field encoders that the table encoder replaced
MIXPAIR_SHA256 = "da2d54c98d797fe9c62805226a09288fdc54d29f43763d044a1670e8f50e5946"


def test_mixpair_output_bytes_are_pinned(tmp_path):
    ins, outs = mixpair_fixture(7)
    paths = []
    for name, records in (("in", ins), ("out", outs)):
        paths.append(tmp_path / f"{name}.jsonl")
        paths[-1].write_text("".join(json.dumps(record) + "\n" for record in records), encoding="utf-8")
    (tmp_path / "config.json").write_text(json.dumps({"block_size": 2, "seeds": [11]}), encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["--config", str(tmp_path / "config.json"), "mixpair", "--in-cabin", str(paths[0]),
                     "--out-of-cabin", str(paths[1])])
    assert code == 0, err.getvalue()
    assert len(out.getvalue().splitlines()) == 6
    assert hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest() == MIXPAIR_SHA256


# sha256 of the mixpair output on mixpair_fixture(7) cut to two out-of-cabin records per split,
# with block_size 3 and seed 5, so that every block is longer than its split's pool; from the
# index arithmetic that the per-split cycles replaced
MIXPAIR_LONG_BLOCK_SHA256 = "517b91ec7f1d3b86ce17f39698b0b44b475f1b1b2192ba20cbf9a2dbd59e7d73"


def test_mixpair_blocks_longer_than_their_pool_are_pinned(tmp_path):
    ins, outs = mixpair_fixture(7)
    outs = outs[:6]
    assert sorted(record["split"] for record in outs) == sorted(SPLITS * 2)
    for name, records in (("in", ins), ("out", outs)):
        (tmp_path / f"{name}.jsonl").write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    (tmp_path / "config.json").write_text(json.dumps({"block_size": 3, "seeds": [5]}), encoding="utf-8")
    code, out, err = run_main(["--config", str(tmp_path / "config.json"), "mixpair",
                               "--in-cabin", str(tmp_path / "in.jsonl"), "--out-of-cabin", str(tmp_path / "out.jsonl")])
    assert code == 0, err
    assert [len(json.loads(line)["prompt"]["prompt_id"].split("+")) for line in out.splitlines()] == [4] * 6
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == MIXPAIR_LONG_BLOCK_SHA256


def stratify_fixture() -> list[dict]:
    """Sample records of all four scenario groups over the three splits; the first two are nominal."""
    nominal = {"emotion": "neutral", "behavior": "normal_driving", "traffic_scene": "smooth_traffic",
               "vehicle_motion": "forward_moving"}
    changes = [{}, {"emotion": " Neutral ", "vehicle_motion": "FORWARD_MOVING"}, {"emotion": "anger"},
               {"behavior": "Phone_Use"}, {"traffic_scene": "fog"}, {"vehicle_motion": "reversing"},
               {"emotion": "anxiety", "traffic_scene": "rain"}, {"behavior": "drowsy", "vehicle_motion": "merging"},
               {"emotion": "surprise", "objects": ["truck"]}]
    return [
        {"prompt": {"prompt_id": f"s-{index}"}, "split": SPLITS[index % 3],
         "ground_truth_labels": nominal | change}
        for index, change in enumerate(changes)
    ]


# sha256 of the stratify stdout and stderr on stratify_fixture(), whole and without its nominal
# records (a zero count in the log), from the list-partitioning stratify that stratum replaced
STRATIFY_SHA256 = {
    "every-group": ("7f5a4dbe2c73460e600aa5733c45f702973f1cb692949ae6dbd3eb1a31b1dc46",
                    "c2200b30d1975912eb2b7bd783188b9a830a26111d2a1076ad401afe0969fd8d"),
    "no-nominal": ("003153383ab2697c8a85e81867e2afbd60f9d76d2d3bd159a552169a054026de",
                   "ad1d81255ebecd08828438d6020d4e8f4a77a73bffecd2ecc56ec36f8c388607"),
}


@pytest.mark.parametrize("name, skip", [("every-group", 0), ("no-nominal", 2)])
def test_stratify_output_bytes_are_pinned(tmp_path, name, skip):
    path = tmp_path / "records.jsonl"
    path.write_text("".join(json.dumps(record) + "\n" for record in stratify_fixture()[skip:]), encoding="utf-8")
    code, out, err = run_main(["stratify", "--records", str(path)])
    assert code == 0, err
    assert len(out.splitlines()) == 9 - skip
    digests = tuple(hashlib.sha256(text.encode("utf-8")).hexdigest() for text in (out, err))
    assert digests == STRATIFY_SHA256[name]


# --- the one encoder: reports, config echo, retrieval records ----------------------------------


def run_main(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture
def fixture_reports(rain_prompt, rain_policy_dict) -> dict:
    """Validation reports that fill every report field between them."""
    low_level = copy.deepcopy(rain_policy_dict)
    low_level["actions"][0]["rationale"] += " Brake gently, then set speed to 40."
    low_level["actions"].append({"type": "Hvac", "parameters": {"target_temperature": 21}})
    policy, planted = build_planted_case(set(PLANT_LAYERS))
    return {
        "invalid": validate('{"objectives": 3, "actions": [{"type": "Teleport"}, 7]}', rain_prompt),
        "low-level": validate(json.dumps(low_level), rain_prompt),
        "hazards": validate(json.dumps(rain_policy_dict), rain_prompt),
        "every-check-fails": validate(json.dumps(policy), planted),
    }


def test_fixture_reports_fill_every_field(fixture_reports):
    invalid, low_level, hazards, failing = fixture_reports.values()
    assert not invalid.schema_valid and len(invalid.defects) >= 3
    assert len(low_level.low_level_matches) >= 2 and low_level.defects
    assert hazards.hazards_truth and hazards.hazards_addressed
    failed = {check.check_id for check in failing.checks if not check.passed}
    assert failed == set(PLANT_LAYERS)
    assert any(check.clause_ref is None for check in failing.checks)


def test_report_is_written_as_its_field_by_field_reference(fixture_reports):
    for name, report in fixture_reports.items():
        expected = report_dict_reference(report)
        assert report_to_dict(report) == expected, name
        assert to_json(report) == expected, name
        # the same CLI bytes: key order aside, every list is a list and every value the same type
        assert json.dumps(to_json(report), sort_keys=True) == json.dumps(expected, sort_keys=True), name


def test_config_echo_is_its_asdict_reference(tmp_path):
    paths = {}
    for name in ("lexicon_path", "hazard_rules_path", "label_vocab_path"):
        paths[name] = str(tmp_path / name)
        Path(paths[name]).write_text("", encoding="utf-8")
    config = RunConfig(ecpo_weights=(0.6, 0.25, 0.15), penalty_table=PenaltyTable(missing_objectives=0.2, other=0.05),
                       seeds=(3, 1, 4), beta=2.0, lambda_ecpo=0.5, top_k=7, **paths)
    for each in (config, RunConfig()):
        assert each.echo() == echo_reference(each)
        assert json.dumps(each.echo()) == json.dumps(echo_reference(each))
    assert config.echo()["seeds"] == [3, 1, 4]
    assert config.echo()["penalty_table"]["other"] == 0.05


def test_to_json_pins_sets_profiles_bounds_and_policies(monkeypatch):
    assert to_json(frozenset({"b", "c", "a"})) == ["a", "b", "c"]
    assert list(frozenset({8, 1})) == [8, 1] and to_json(frozenset({8, 1})) == [1, 8]  # unsorted at any hash seed
    assert to_json(frozenset({ActionType.HVAC, ActionType.HMI_PROMPT})) == ["HmiPrompt", "Hvac"]
    assert to_json(ParameterBound(ActionType.HVAC, "temperature", 16.0, 28.5)) == ["Hvac", "temperature", 16.0, 28.5]
    vehicle = VehicleProfile("EU", "manual", frozenset({"hvac", "HMI prompt"}),
                             {"HVAC": {"temperature": [16, 28], "fan_level": [1, 5]}})
    assert to_json(vehicle) == {
        "jurisdiction": "EU", "operating_mode": "manual", "available_actuators": ["HmiPrompt", "Hvac"],
        "capability_limits": {"Hvac": {"temperature": [16.0, 28.0], "fan_level": [1.0, 5.0]}}}
    policy = parse_policy(json.dumps({
        "objectives": "Keep calm.",
        "constraints": {"driver": "Visual only.", "legal": "Obey limits."},
        "actions": [{"type": "hvac", "parameters": {"zone": "front", "fan_level": 2, "target": 21.5},
                     "rationale": "Cool down.", "evidence": {"labels": ["hot"]}}],
    })).policy
    expected = {
        "objectives": "Keep calm.",
        "constraints": {"legal_regulations": "Obey limits.", "driver_preferences": "Visual only."},
        "actions": [{"type": "Hvac", "parameters": {"fan_level": 2, "target": 21.5, "zone": "front"},
                     "rationale": "Cool down.",
                     "evidence": {"in_cabin_text": [], "out_of_vehicle_text": [], "objects": [], "labels": ["hot"]}}],
    }

    def no_parse(*args, **kwargs):
        raise AssertionError("to_json parsed text back")

    monkeypatch.setattr(json, "loads", no_parse)
    encoded = to_json(policy)
    assert encoded == expected
    assert list(encoded) == list(expected)
    assert list(encoded["actions"][0]["parameters"]) == ["fan_level", "target", "zone"]
    assert type(encoded["actions"][0]["parameters"]["fan_level"]) is int
    assert json.dumps(encoded, ensure_ascii=False, separators=(",", ":")) == serialize_policy(policy)


def retrieve_fixture() -> tuple[list[dict], list[dict]]:
    """A store where a rain query hits three snippets, so two zero-score snippets fill its top 5, and a
    prompt that shares no token with the store, so all five are zero-score fill."""
    store = [
        {"snippet_id": "z-park", "layer": "legal", "clause_id": "L-9", "text": "parking permits are issued monthly"},
        {"snippet_id": "d-rain", "layer": "driver", "clause_id": "D-1",
         "text": "visual alerts only for the anxious driver in rain"},
        {"snippet_id": "l-rain", "layer": "legal", "clause_id": "L-1", "text": "reduce speed in heavy rain and fog",
         "jurisdiction": "EU", "assertions": {"forbidden_keywords": ["speed up"]}},
        {"snippet_id": "v-rain", "layer": "vehicle", "clause_id": "V-1", "text": "wipers engage automatically in rain",
         "vehicle_config": "sedan"},
        {"snippet_id": "z-roof", "layer": "vehicle", "clause_id": "V-9", "text": "the sunroof tilts open"},
        {"snippet_id": "z-seat", "layer": "driver", "clause_id": "D-9", "text": "seat memory holds three positions"},
    ]
    prompts = [
        {"prompt_id": "rain", "z": {"scene_labels": ["heavy rain"], "driver_labels": ["anxious"],
                                    "summary_initial": "fog and rain ahead"},
         "driver": {"alert_modality_preference": "visual", "sensitivities": {"noise": "high"}},
         "vehicle": {"jurisdiction": "EU", "operating_mode": "manual"}},
        {"prompt_id": "none", "z": {"scene_labels": ["quiet"]}},
    ]
    return store, prompts


# sha256 of the retrieve output on retrieve_fixture() with top_k 5 and token_budget 12, from the
# hand-written retrieval record that the one encoder replaced
RETRIEVE_SHA256 = "47283d328182f7457ef8b8e53c3d4b8897e5e6e1b7674775a7cb5f2ffccd4f5f"


def test_retrieve_output_bytes_are_pinned(tmp_path):
    store, prompts = retrieve_fixture()
    paths = {}
    for name, records in (("store", store), ("prompts", prompts)):
        paths[name] = tmp_path / f"{name}.jsonl"
        paths[name].write_text("".join(json.dumps(record) + "\n" for record in records), encoding="utf-8")
    (tmp_path / "config.json").write_text(json.dumps({"top_k": 5, "token_budget": 12}), encoding="utf-8")
    code, out, err = run_main(["--config", str(tmp_path / "config.json"), "retrieve", "--store", str(paths["store"]),
                               "--prompt", str(paths["prompts"])])
    assert code == 0, err
    rain, none = map(json.loads, out.splitlines())
    scores = [entry["score"] for entry in rain["ranked"]]
    assert len(scores) == 5 and scores[2] > 0 and scores[3:] == [0.0, 0.0]
    assert 0 < len(rain["compressed"]) < len(rain["ranked"])
    assert [entry["score"] for entry in none["ranked"]] == [0.0] * 5
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == RETRIEVE_SHA256
