import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import make_sample
from ecpo.context import (
    DEFAULT_LABEL_VOCAB,
    DriverProfile,
    LabelVocabulary,
    PerceptionSummary,
    SPLITS,
    SampleRecord,
    SplitMix64,
    StrategyPrompt,
    VehicleProfile,
    _merge_pair,
    fnv1a64,
    load_label_vocab,
    pair_mixed,
    prompt_from_dict,
    prompt_to_dict,
    sample_from_dict,
    sample_to_dict,
    seeded_shuffle,
    sensitivity_rank,
    snippet_from_dict,
    vehicle_from_dict,
    stratum,
    stream_seed,
)
from ecpo.errors import ConfigError, InputError
from ecpo.policy import parse_policy
from oracles import (fisher_yates_reference, fnv1a64_reference, merge_pair_reference, pair_mixed_reference,
                     random_policy_dict, splitmix64_stream)


# --- profiles ----------------------------------------------------------------


def test_sensitivity_rank_ordering():
    ranks = [sensitivity_rank(level) for level in ("none", "low", "medium", "high")]
    assert ranks == sorted(ranks)
    assert len(set(ranks)) == 4
    with pytest.raises(InputError):
        sensitivity_rank("extreme")


def test_driver_profile_validation():
    profile = DriverProfile(
        sensitivities={"noise": "high"},
        cabin_preferences={"temperature_band": [21, 24]},
    )
    assert profile.temperature_band() == (21.0, 24.0)
    assert DriverProfile().temperature_band() is None
    with pytest.raises(InputError):
        DriverProfile(sensitivities={"noise": "sometimes"})
    for band in ([25, 21], [0, float("nan")], [float("-inf"), 30], [True, 30]):
        with pytest.raises(InputError) as err:
            DriverProfile(cabin_preferences={"temperature_band": band})
        assert err.value.code == "BAD_PROFILE"


def test_vehicle_profile_canonicalizes_actuators():
    vehicle = VehicleProfile(
        available_actuators=("hvac", "HMI prompt"),
        capability_limits={"HVAC": {"fan_level": (1, 5)}},
    )
    assert vehicle.available_actuators == frozenset({"Hvac", "HmiPrompt"})
    assert vehicle.capability_limits == {"Hvac": {"fan_level": (1.0, 5.0)}}
    with pytest.raises(InputError):
        VehicleProfile(available_actuators=("winch",))
    with pytest.raises(InputError):
        VehicleProfile(available_actuators=("Hvac",), capability_limits={"AmbientLight": {"x": (0, 1)}})
    with pytest.raises(InputError) as err:
        vehicle_from_dict({"available_actuators": ["Hvac"], "capability_limits": {"Hvac": [14, 30]}})
    assert err.value.code == "BAD_PROFILE"


def test_sample_record_split_validated():
    with pytest.raises(InputError):
        make_sample("p", split="holdout")


# --- label vocabulary ----------------------------------------------------------


def test_default_vocab_nominals():
    assert DEFAULT_LABEL_VOCAB.nominal_for("emotion") == "neutral"
    assert DEFAULT_LABEL_VOCAB.nominal_for("traffic_scene") == "smooth_traffic"


def test_vocab_validation():
    with pytest.raises(ConfigError):
        LabelVocabulary(heads={"emotion": ("calm",)}, nominal={"emotion": "neutral"})
    with pytest.raises(ConfigError):
        DEFAULT_LABEL_VOCAB.nominal_for("weather")


def test_load_label_vocab(tmp_path):
    path = tmp_path / "vocab.json"
    path.write_text(
        json.dumps({"heads": {"emotion": {"labels": ["calm", "tense"], "nominal": "calm"}}}),
        encoding="utf-8",
    )
    vocab = load_label_vocab(path)
    assert vocab.nominal_for("emotion") == "calm"


# --- deterministic randomness ---------------------------------------------------


def test_splitmix64_known_vectors():
    rng = SplitMix64(0)
    assert [rng.next_u64() for _ in range(3)] == [
        0xE220A8397B1DCDAF,
        0x6E789E6AA1B965F4,
        0x06C45D188009454F,
    ]


def test_splitmix64_matches_reference_stream():
    stream = splitmix64_stream(123456789)
    rng = SplitMix64(123456789)
    assert [rng.next_u64() for _ in range(20)] == [next(stream) for _ in range(20)]


def test_fnv1a64_known_vectors():
    assert fnv1a64("") == 0xCBF29CE484222325
    assert fnv1a64("a") == 0xAF63DC4C8601EC8C
    for text in ("train", "val", "test", "lane change"):
        assert fnv1a64(text) == fnv1a64_reference(text)


def test_stream_seed_is_split_dependent():
    assert stream_seed(7, "train") == 7 ^ fnv1a64_reference("train")
    assert stream_seed(7, "train") != stream_seed(7, "test")


def test_seeded_shuffle_matches_reference():
    items = list(range(10))
    rng = SplitMix64(42)
    assert seeded_shuffle(items, rng) == fisher_yates_reference(items, 42)
    assert items == list(range(10))


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(), max_size=30), st.integers(min_value=0, max_value=2**64 - 1))
def test_seeded_shuffle_is_a_permutation(items, seed):
    assert sorted(seeded_shuffle(items, SplitMix64(seed))) == sorted(items)


# --- mixed pairing ---------------------------------------------------------------


def in_out_fixture():
    ins = [make_sample(f"in-{i}", split="train", driver_labels=("anxiety",)) for i in range(4)]
    outs = [
        make_sample(f"out-{i}", split="train", scene_labels=(f"scene-{i}",), objects=(f"obj-{i}",))
        for i in range(2)
    ]
    return ins, outs


def test_pair_mixed_is_reproducible():
    ins, outs = in_out_fixture()
    first = pair_mixed(ins, outs, seed=3)
    second = pair_mixed(ins, outs, seed=3)
    assert first == second


def test_pair_mixed_cycling_matches_hand_enumeration():
    ins, outs = in_out_fixture()
    shuffled = fisher_yates_reference(outs, 3 ^ fnv1a64_reference("train"))
    paired = pair_mixed(ins, outs, seed=3)
    assert len(paired) == 4
    for position, record in enumerate(paired):
        expected_partner = shuffled[position % 2]
        assert record.prompt.prompt_id == f"in-{position}+{expected_partner.prompt.prompt_id}"
        assert record.prompt.z.scene_labels == expected_partner.prompt.z.scene_labels


def test_pair_mixed_block_size_two():
    ins, outs = in_out_fixture()
    outs = outs + [make_sample("out-2", split="train", scene_labels=("scene-2",))]
    shuffled = fisher_yates_reference(outs, 9 ^ fnv1a64_reference("train"))
    paired = pair_mixed(ins, outs, seed=9, block_size=2)
    for position, record in enumerate(paired):
        block = [shuffled[(position * 2 + offset) % 3] for offset in range(2)]
        expected_id = "+".join(["in-%d" % position] + [m.prompt.prompt_id for m in block])
        assert record.prompt.prompt_id == expected_id


def test_pair_mixed_preserves_splits():
    ins = [make_sample(f"in-{split}-{i}", split=split) for split in ("train", "val", "test") for i in range(2)]
    outs = [make_sample(f"out-{split}-{i}", split=split) for split in ("train", "val", "test") for i in range(3)]
    paired = pair_mixed(ins, outs, seed=0)
    assert [record.split for record in paired] == [record.split for record in ins]
    for record in paired:
        partner = record.prompt.prompt_id.split("+")[1]
        assert partner.startswith(f"out-{record.split}-")


def test_pair_mixed_errors():
    ins, outs = in_out_fixture()
    with pytest.raises(InputError) as err:
        pair_mixed(ins, [], seed=0)
    assert err.value.code == "EMPTY_SPLIT"
    with pytest.raises(ConfigError):
        pair_mixed(ins, outs, seed=0, block_size=0)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.sampled_from(SPLITS), max_size=12),
    st.lists(st.sampled_from(SPLITS), min_size=1, max_size=12),
    st.integers(1, 4),
    st.integers(),
)
def test_pair_mixed_equals_index_reference(in_splits, out_splits, block_size, seed):
    # splits interleave in any order, and a block may be longer than its split's pool
    ins = [make_sample(f"in-{index}", split=split) for index, split in enumerate(in_splits)]
    outs = [make_sample(f"out-{index}", split=split) for index, split in enumerate(out_splits)]
    try:
        expected = [record.prompt.prompt_id for record in pair_mixed_reference(ins, outs, seed, block_size)]
    except InputError as missing:
        with pytest.raises(InputError) as err:
            pair_mixed(ins, outs, seed, block_size)
        assert str(err.value) == str(missing)
        return
    assert [record.prompt.prompt_id for record in pair_mixed(ins, outs, seed, block_size)] == expected


def test_merge_takes_driver_side_from_in_cabin():
    ins = [
        make_sample(
            "in-0",
            driver_labels=("anxiety",),
            scene_labels=("cabin cam",),
            stages=("driver tense", "driver calms", "driver settled"),
            labels={"emotion": "anxiety", "behavior": "looking_around"},
        )
    ]
    outs = [
        make_sample(
            "out-0",
            scene_labels=("dense traffic", "cabin cam"),
            objects=("truck-1",),
            stages=("jam builds", "", "jam clears"),
            labels={"emotion": "neutral", "traffic_scene": "traffic_jam"},
            vehicle=VehicleProfile(jurisdiction="EU"),
        )
    ]
    merged = pair_mixed(ins, outs, seed=1)[0]
    z = merged.prompt.z
    assert z.driver_labels == ("anxiety",)
    assert z.scene_labels == ("cabin cam", "dense traffic")
    assert z.objects == ("truck-1",)
    assert z.summary_initial == "driver tense jam builds"
    assert z.summary_transition == "driver calms"
    # in-cabin labels win on shared heads; block-only heads are kept
    assert merged.ground_truth_labels == {
        "emotion": "anxiety",
        "behavior": "looking_around",
        "traffic_scene": "traffic_jam",
    }
    assert merged.prompt.vehicle.jurisdiction == "EU"


def test_merge_falls_back_to_in_cabin_vehicle():
    ins = [make_sample("in-0", vehicle=VehicleProfile(jurisdiction="US"))]
    outs = [make_sample("out-0")]
    merged = pair_mixed(ins, outs, seed=1)[0]
    assert merged.prompt.vehicle.jurisdiction == "US"


MERGE_SNIPPETS = tuple(
    snippet_from_dict({"snippet_id": name, "layer": "legal", "clause_id": name, "text": f"clause {name}",
                       "assertions": {"forbidden_keywords": ["race"]}})
    for name in ("s-1", "s-2")
)
MERGE_DRIVERS = (
    DriverProfile(),
    DriverProfile(alert_modality_preference="visual", sensitivities={"noise": "high"},
                  cabin_preferences={"temperature_band": [22, 24]}),
)
MERGE_VEHICLES = (
    VehicleProfile(),
    VehicleProfile(jurisdiction="EU"),
    VehicleProfile(jurisdiction="US", operating_mode="manual", available_actuators=frozenset({"Hvac"})),
)
MERGE_POLICIES = (None, *(parse_policy(json.dumps(random_policy_dict(random.Random(seed)))).policy
                          for seed in (1, 2)))
merge_stages = st.sampled_from(["", "", "rain starts", "driver tense", "jam clears"])
merge_names = st.lists(st.sampled_from(["rain", "fog", "cabin cam", "truck-1"]), max_size=4).map(tuple)
merge_truth = st.dictionaries(
    st.sampled_from(["emotion", "behavior", "traffic_scene", "objects"]),
    st.sampled_from(["neutral", "anger", "rain"]) | st.lists(st.sampled_from(["car", "bus"]), max_size=2),
    max_size=3,
)


@st.composite
def merge_samples(draw, prompt_ids):
    return SampleRecord(
        prompt=StrategyPrompt(
            prompt_id=draw(st.sampled_from(prompt_ids)),
            z=PerceptionSummary(driver_labels=draw(merge_names), scene_labels=draw(merge_names),
                                summary_initial=draw(merge_stages), summary_transition=draw(merge_stages),
                                summary_final=draw(merge_stages), objects=draw(merge_names)),
            driver=draw(st.sampled_from(MERGE_DRIVERS)),
            vehicle=draw(st.sampled_from(MERGE_VEHICLES)),
            constraints=draw(st.sampled_from([(), MERGE_SNIPPETS[:1], MERGE_SNIPPETS])),
        ),
        split=draw(st.sampled_from(SPLITS)),
        reference_policy=draw(st.sampled_from(MERGE_POLICIES)),
        ground_truth_labels=draw(merge_truth),
    )


@settings(max_examples=300, deadline=None)
@given(merge_samples(["in-0", "in-1"]), st.lists(merge_samples(["out-0", "out-1", "out-2"]), min_size=1, max_size=3))
def test_merge_pair_equals_field_by_field_reference(in_record, block):
    merged = _merge_pair(in_record, block)
    expected = merge_pair_reference(in_record, block)
    assert merged == expected
    # key order too: the labels of the joint record are written in the order the merge puts them
    assert json.dumps(sample_to_dict(merged)) == json.dumps(sample_to_dict(expected))


# --- stratification ---------------------------------------------------------------


def full_labels(**overrides):
    labels = {
        "emotion": "neutral",
        "behavior": "normal_driving",
        "traffic_scene": "smooth_traffic",
        "vehicle_motion": "forward_moving",
    }
    labels.update(overrides)
    return labels


def test_stratify_four_groups():
    records = [
        make_sample("nominal", labels=full_labels()),
        make_sample("driver", labels=full_labels(emotion="anger")),
        make_sample("env", labels=full_labels(traffic_scene="traffic_jam")),
        make_sample("both", labels=full_labels(behavior="yawning", vehicle_motion="reversing")),
    ]
    names = {record.prompt.prompt_id: stratum(record, DEFAULT_LABEL_VOCAB) for record in records}
    assert names == {
        "nominal": "nominal",
        "driver": "driver_critical",
        "env": "env_critical",
        "both": "interaction_critical",
    }


def test_stratify_normalizes_case():
    record = make_sample("p", labels=full_labels(emotion="Neutral"))
    assert stratum(record, DEFAULT_LABEL_VOCAB) == "nominal"


def test_stratify_missing_head():
    record = make_sample("p", labels={"emotion": "neutral"})
    with pytest.raises(InputError) as err:
        stratum(record, DEFAULT_LABEL_VOCAB)
    assert err.value.code == "MISSING_HEAD"


def test_stratum_reads_each_nominal_from_the_vocabulary():
    angry = make_sample("angry", labels=full_labels(emotion="anger", traffic_scene="fog"))
    calm = make_sample("calm", labels=full_labels(traffic_scene="fog"))
    assert stratum(angry, DEFAULT_LABEL_VOCAB) == "interaction_critical"
    assert stratum(calm, DEFAULT_LABEL_VOCAB) == "env_critical"
    vocab = LabelVocabulary(DEFAULT_LABEL_VOCAB.heads, DEFAULT_LABEL_VOCAB.nominal | {"emotion": "anger"})
    assert stratum(angry, vocab) == "env_critical"
    assert stratum(calm, vocab) == "interaction_critical"


def test_stratum_head_without_nominal_is_bad_vocab():
    nominal = {head: label for head, label in DEFAULT_LABEL_VOCAB.nominal.items() if head != "vehicle_motion"}
    with pytest.raises(ConfigError) as err:
        stratum(make_sample("p", labels=full_labels()), LabelVocabulary(DEFAULT_LABEL_VOCAB.heads, nominal))
    assert err.value.code == "BAD_VOCAB"


def test_nominal_for_an_unknown_head_is_bad_vocab():
    with pytest.raises(ConfigError) as err:
        LabelVocabulary(DEFAULT_LABEL_VOCAB.heads, {**DEFAULT_LABEL_VOCAB.nominal, "posture": "upright"})
    assert (err.value.code, err.value.message) == ("BAD_VOCAB", "nominal label declared for unknown head 'posture'")


# --- serialization -----------------------------------------------------------------


def test_prompt_round_trip(layered_snippets):
    prompt = StrategyPrompt(
        prompt_id="p-1",
        z=PerceptionSummary(driver_labels=("anxiety",), summary_initial="rain ahead"),
        driver=DriverProfile(alert_modality_preference="visual", sensitivities={"noise": "high"}),
        vehicle=VehicleProfile(jurisdiction="EU", available_actuators=("Hvac",)),
        constraints=layered_snippets,
    )
    assert prompt_from_dict(prompt_to_dict(prompt)) == prompt


def test_sample_round_trip(rain_policy_dict):
    record = SampleRecord(
        prompt=StrategyPrompt("p-1", PerceptionSummary(), DriverProfile(), VehicleProfile(), ()),
        split="val",
        reference_policy=None,
        ground_truth_labels={"emotion": "anxiety", "objects": ("truck", "cone")},
    )
    raw = sample_to_dict(record)
    assert sample_from_dict(raw) == record

    raw["reference_policy"] = rain_policy_dict
    restored = sample_from_dict(raw)
    assert restored.reference_policy is not None
    assert restored.reference_policy.actions[0].action_type.value == "HmiPrompt"


def test_sample_rejects_invalid_reference():
    raw = {
        "prompt": {"prompt_id": "p"},
        "split": "train",
        "reference_policy": {"objectives": "x", "actions": []},
        "ground_truth_labels": {},
    }
    with pytest.raises(InputError) as err:
        sample_from_dict(raw)
    assert err.value.code == "BAD_RECORD"
