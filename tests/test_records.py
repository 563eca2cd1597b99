"""One field table per outside record: decoding, encoding and the README agree with it."""

import hashlib
import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from ecpo.cli import CANDIDATE_FIELDS, EVAL_FIELDS, PAIRS_FIELDS, VALIDATE_FIELDS, main
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
from ecpo.policy import ActionType, parse_policy
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
from ecpo.validator import prompt_context, validate
from oracles import random_policy_dict

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
    patterns = snippet.assertions.keyword_patterns
    assert [p.pattern for p in patterns] == [r"\b(?:ignore the signal)\b", r"\b(?:race)\b"]
    # every keyword_pattern call compiles through policy._compile, whichever module calls it
    monkeypatch.setattr(ecpo.policy, "_compile", no_compile)
    prompt = StrategyPrompt("k", constraints=rain_prompt.constraints + (snippet,))
    validate(json.dumps(rain_policy_dict), prompt)
    carried = [pattern for carrier, _, pattern in prompt_context(prompt).legal_keywords if carrier is snippet]
    assert all(a is b for a, b in zip(carried, patterns, strict=True))


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
