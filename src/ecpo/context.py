"""Perception summaries, driver/vehicle profiles, prompts, and sample records.

Also houses the two corpus procedures, each deciding one record at a time:
the split-preserving mixed pairing (each in-cabin record joined with the next
block of its split's out-of-cabin records, read as a cycle over one seeded,
portable shuffle per split) and ``stratum``, the one rule that puts a record
in one of four scenario groups by its classification heads.

The shuffle PRNG is splitmix64 with the published constants (increment
0x9E3779B97F4A7C15, mixers 0xBF58476D1CE4E5B9 and 0x94D049BB133111EB)
driving a Fisher-Yates pass with modulo draw, so pairings reproduce
bit-identically across implementations that follow this note.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from itertools import cycle, islice
from pathlib import Path
from typing import Sequence

from .errors import (ConfigError, InputError, check_count, read_as, read_file, read_list, read_object,
                     read_optional, read_pair, read_record, read_string, read_strings, shown)
from .policy import PolicyAction, parse_action_type, parse_policy
from .store import ConstraintSnippet, snippet_from_dict, to_json
from .textnorm import dedup_preserve_order, normalize_text

SPLITS = ("train", "val", "test")

SENSITIVITY_LEVELS = ("none", "low", "medium", "high")

STRATIFY_HEADS = ("emotion", "behavior", "traffic_scene", "vehicle_motion")

STRATIFY_GROUPS = ("driver_critical", "env_critical", "interaction_critical", "nominal")


def sensitivity_rank(level: str) -> int:
    if level not in SENSITIVITY_LEVELS:
        raise InputError("BAD_PROFILE", f"unknown sensitivity level {shown(level)}")
    return SENSITIVITY_LEVELS.index(level)


@dataclass(frozen=True)
class PerceptionSummary:
    """The perception input z: driver and scene labels, three summary stages and objects."""

    driver_labels: tuple[str, ...] = ()
    scene_labels: tuple[str, ...] = ()
    summary_initial: str = ""
    summary_transition: str = ""
    summary_final: str = ""
    objects: tuple[str, ...] = ()

    def all_labels(self) -> tuple[str, ...]:
        return self.driver_labels + self.scene_labels

    def summary_stages(self) -> tuple[str, str, str]:
        return (self.summary_initial, self.summary_transition, self.summary_final)


@dataclass(frozen=True)
class DriverProfile:
    """A driver's alert, sensitivity, style and cabin preferences."""

    alert_modality_preference: str = ""
    alert_frequency: str = ""
    sensitivities: dict[str, str] = field(default_factory=dict)
    style_preference: str = ""
    cabin_preferences: dict[str, object] = field(default_factory=dict)

    def __post_init__(self):
        for key, level in self.sensitivities.items():
            if level not in SENSITIVITY_LEVELS:
                raise InputError("BAD_PROFILE", f"sensitivity {shown(key)} has unknown level {shown(level)}")
        band = self.cabin_preferences.get("temperature_band")
        if band is not None:
            pair = read_pair(band, "BAD_PROFILE", "temperature_band")
            object.__setattr__(self, "cabin_preferences", {**self.cabin_preferences, "temperature_band": pair})

    def query_sensitivities(self) -> list[str]:
        """The keys of the sensitivities at or above ``medium``, in profile order: a retrieval query's terms."""
        return [k for k, level in self.sensitivities.items() if sensitivity_rank(level) >= sensitivity_rank("medium")]

    def temperature_band(self) -> tuple[float, float] | None:
        return self.cabin_preferences.get("temperature_band")


@dataclass(frozen=True)
class VehicleProfile:
    """A vehicle's jurisdiction, operating mode, actuators and capability bounds."""

    jurisdiction: str = ""
    operating_mode: str = ""
    available_actuators: frozenset[str] = frozenset()
    capability_limits: dict[str, dict[str, tuple[float, float]]] = field(default_factory=dict)

    def __post_init__(self):
        canonical = set()
        for name in self.available_actuators:
            parsed = parse_action_type(name)
            if parsed is None:
                raise InputError("BAD_PROFILE", f"actuator {shown(name)} is not a known channel")
            canonical.add(parsed.value)
        object.__setattr__(self, "available_actuators", frozenset(canonical))
        limits: dict[str, dict[str, tuple[float, float]]] = {}
        for name, bounds in self.capability_limits.items():
            parsed = parse_action_type(name)
            if parsed is None or parsed.value not in canonical:
                raise InputError("BAD_PROFILE", f"capability bound names unavailable actuator {shown(name)}")
            bounds = read_object(bounds, "BAD_PROFILE", f"capability limits of {shown(name)}")
            limits[parsed.value] = {
                parameter: read_pair(bound, "BAD_PROFILE", f"capability bound {shown(f'{name}.{parameter}')}")
                for parameter, bound in bounds.items()
            }
        object.__setattr__(self, "capability_limits", limits)


@dataclass(frozen=True)
class StrategyPrompt:
    """One prompt: perception, driver and vehicle profiles, and its constraint snippets."""

    prompt_id: str
    z: PerceptionSummary = field(default_factory=PerceptionSummary)
    driver: DriverProfile = field(default_factory=DriverProfile)
    vehicle: VehicleProfile = field(default_factory=VehicleProfile)
    constraints: tuple[ConstraintSnippet, ...] = ()
    # hazard rules -> validator.PromptContext, filled on the first validate of
    # this prompt; derived state only.
    _validation_contexts: dict[tuple, object] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )


@dataclass(frozen=True)
class SampleRecord:
    """A prompt with its split, optional reference policy and ground-truth labels."""

    prompt: StrategyPrompt
    split: str = ""  # a record without a split fails BAD_SPLIT like an unknown one
    reference_policy: PolicyAction | None = None
    ground_truth_labels: dict[str, object] = field(default_factory=dict)

    def __post_init__(self):
        if self.split not in SPLITS:
            raise InputError("BAD_SPLIT", f"split must be one of {SPLITS}, got {shown(self.split)}")


@dataclass(frozen=True)
class LabelVocabulary:
    """The labels of each classification head and each head's nominal label."""

    heads: dict[str, tuple[str, ...]]
    nominal: dict[str, str]

    def __post_init__(self):
        for head, label in self.nominal.items():
            labels = self.heads.get(head)
            if labels is None:
                raise ConfigError("BAD_VOCAB", f"nominal label declared for unknown head {shown(head)}")
            if label not in labels:
                raise ConfigError("BAD_VOCAB", f"nominal {shown(label)} not in labels of head {shown(head)}")

    def nominal_for(self, head: str) -> str:
        if head not in self.nominal:
            raise ConfigError("BAD_VOCAB", f"no nominal label declared for head {shown(head)}")
        return self.nominal[head]


DEFAULT_LABEL_VOCAB = LabelVocabulary(
    heads={
        "emotion": ("neutral", "anger", "anxiety", "happiness", "sadness", "surprise"),
        "behavior": (
            "normal_driving",
            "looking_around",
            "phone_use",
            "drowsy",
            "drinking",
            "reaching_back",
        ),
        "traffic_scene": (
            "smooth_traffic",
            "traffic_jam",
            "intersection",
            "highway",
            "parking_lot",
            "rain",
            "fog",
        ),
        "vehicle_motion": ("forward_moving", "reversing", "turning", "stopped", "merging", "overtaking"),
    },
    nominal={
        "emotion": "neutral",
        "behavior": "normal_driving",
        "traffic_scene": "smooth_traffic",
        "vehicle_motion": "forward_moving",
    },
)


def load_label_vocab(path: str | Path) -> LabelVocabulary:
    """Vocabulary file: {"heads": {head: {"labels": [...], "nominal": "..."}}}."""
    raw = read_file(path, "BAD_VOCAB", "vocabulary", ConfigError, json.loads)
    heads = {}
    nominal = {}
    heads_raw = read_object(raw, "BAD_VOCAB", "vocabulary file", ConfigError).get("heads")
    for head, entry in read_object(heads_raw, "BAD_VOCAB", "heads", ConfigError).items():
        entry = read_object(entry, "BAD_VOCAB", f"head {shown(head)}", ConfigError)
        heads[head] = read_strings(entry.get("labels"), "BAD_VOCAB", f"labels of head {shown(head)}", ConfigError)
        if "nominal" in entry:
            nominal[head] = read_string(entry["nominal"], "BAD_VOCAB", f"nominal of head {shown(head)}", ConfigError)
    return LabelVocabulary(heads=heads, nominal=nominal)


_MASK64 = (1 << 64) - 1


class SplitMix64:
    """splitmix64 (Steele et al. constants); the toolkit's only PRNG."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)


def fnv1a64(text: str) -> int:
    digest = 0xCBF29CE484222325
    for byte in text.encode("utf-8"):
        digest ^= byte
        digest = (digest * 0x100000001B3) & _MASK64
    return digest


def stream_seed(seed: int, name: str) -> int:
    """Per-stream seed: user seed XORed with the FNV-1a hash of the name."""
    return (seed & _MASK64) ^ fnv1a64(name)


def seeded_shuffle(items: Sequence, rng: SplitMix64) -> list:
    """Fisher-Yates with modulo draw so pairings replay identically anywhere."""
    out = list(items)
    for i in range(len(out) - 1, 0, -1):
        j = rng.next_u64() % (i + 1)
        out[i], out[j] = out[j], out[i]
    return out


def pair_mixed(
    in_samples: Sequence[SampleRecord],
    out_samples: Sequence[SampleRecord],
    seed: int,
    block_size: int = 1,
) -> list[SampleRecord]:
    """Pair every in-cabin record with a block of same-split out-of-cabin records.

    Out-of-cabin records are shuffled once per split with the stream seeded by
    (seed, split name), and each split's shuffled pool is read as a cycle: every
    in-cabin record takes the next ``block_size`` records of its split's cycle.
    Output preserves in-cabin input order.
    """
    check_count(block_size, "BAD_BLOCK_SIZE", "block_size")
    cycles = {}
    for split in sorted({record.split for record in in_samples}):
        pool = [record for record in out_samples if record.split == split]
        if not pool:
            raise InputError("EMPTY_SPLIT", f"split {split!r} has no out-of-cabin samples")
        cycles[split] = cycle(seeded_shuffle(pool, SplitMix64(stream_seed(seed, split))))
    return [_merge_pair(record, list(islice(cycles[record.split], block_size))) for record in in_samples]


def _merge_pair(in_record: SampleRecord, block: list[SampleRecord]) -> SampleRecord:
    """The in-cabin record with its block's scene side merged in; what is not named here is the in-cabin
    record's. Scene labels and objects are deduplicated over the members in order, each summary stage joins
    the members' non-empty ones and prompt ids are joined with ``+``. The vehicle is the first block member's
    unless it is the default one, the reference policy the in-cabin one else the first member's; in-cabin
    ground-truth labels win over the block's, and a later member's over an earlier one's."""
    members = (in_record, *block)
    zs = [member.prompt.z for member in members]
    initial, transition, final = (" ".join(filter(None, stage)) for stage in zip(*(z.summary_stages() for z in zs)))
    merged_z = replace(
        zs[0],
        scene_labels=tuple(dedup_preserve_order(label for z in zs for label in z.scene_labels)),
        summary_initial=initial, summary_transition=transition, summary_final=final,
        objects=tuple(dedup_preserve_order(name for z in zs for name in z.objects)),
    )
    vehicle = block[0].prompt.vehicle
    prompt = replace(
        in_record.prompt,
        prompt_id="+".join(member.prompt.prompt_id for member in members),
        z=merged_z,
        vehicle=in_record.prompt.vehicle if vehicle == VehicleProfile() else vehicle,
    )
    return replace(
        in_record,
        prompt=prompt,
        reference_policy=in_record.reference_policy or block[0].reference_policy,
        ground_truth_labels={head: label for member in (*block, in_record)
                             for head, label in member.ground_truth_labels.items()},
    )


def stratum(record: SampleRecord, vocab: LabelVocabulary) -> str:
    """The record's scenario group: a head is critical when its label is not the
    head's nominal one; emotion and behavior are the driver side, traffic scene
    and vehicle motion the environment side."""
    critical = {}
    for head in STRATIFY_HEADS:
        label = record.ground_truth_labels.get(head)
        if not isinstance(label, str):
            raise InputError("MISSING_HEAD", f"record lacks a single label for head {head!r}")
        critical[head] = normalize_text(label) != normalize_text(vocab.nominal_for(head))
    driver_side = critical["emotion"] or critical["behavior"]
    env_side = critical["traffic_scene"] or critical["vehicle_motion"]
    if driver_side:
        return "interaction_critical" if env_side else "driver_critical"
    return "env_critical" if env_side else "nominal"


Z_FIELDS = {
    "driver_labels": read_strings,
    "scene_labels": read_strings,
    "summary_initial": str,
    "summary_transition": str,
    "summary_final": str,
    "objects": read_strings,
}

DRIVER_FIELDS = {
    "alert_modality_preference": str,
    "alert_frequency": str,
    "sensitivities": read_as(dict, read_object),
    "style_preference": str,
    "cabin_preferences": read_as(dict, read_object),
}

VEHICLE_FIELDS = {
    "jurisdiction": str,
    "operating_mode": str,
    "available_actuators": read_as(frozenset, read_strings),
    "capability_limits": read_as(dict, read_object),
}


def perception_from_dict(raw: object, code: str = "BAD_RECORD", what: str = "z") -> PerceptionSummary:
    return PerceptionSummary(**read_record(raw, Z_FIELDS, code, what))


# A profile that is not an object fails with its record's code, the fields inside it with BAD_PROFILE.
def driver_from_dict(raw: object, code: str = "BAD_RECORD", what: str = "driver profile") -> DriverProfile:
    return DriverProfile(**read_record(read_object(raw, code, what), DRIVER_FIELDS, "BAD_PROFILE", what))


def vehicle_from_dict(raw: object, code: str = "BAD_RECORD", what: str = "vehicle profile") -> VehicleProfile:
    return VehicleProfile(**read_record(read_object(raw, code, what), VEHICLE_FIELDS, "BAD_PROFILE", what))


PROMPT_FIELDS = {
    "prompt_id": str,
    "z": perception_from_dict,
    "driver": driver_from_dict,
    "vehicle": vehicle_from_dict,
    "constraints": read_list(snippet_from_dict),
}


def prompt_to_dict(prompt: StrategyPrompt) -> dict:
    return to_json(prompt)


def prompt_from_dict(raw: object, code: str = "BAD_RECORD", what: str = "prompt record") -> StrategyPrompt:
    return StrategyPrompt(**read_record(raw, PROMPT_FIELDS, code, what, ("prompt_id",)))


def _reference_policy(value: object, code: str, what: str) -> PolicyAction:
    outcome = parse_policy(value)
    if not outcome.valid:
        raise InputError(code, f"{what} is not schema-valid")
    return outcome.policy


def _labels(value: object, code: str, what: str) -> dict[str, object]:
    return {
        task: label if isinstance(label, str) else read_strings(label, code, f"label {shown(task)}")
        for task, label in read_object(value, code, what).items()
    }


SAMPLE_FIELDS = {
    "prompt": prompt_from_dict,
    "split": None,  # SampleRecord checks it (BAD_SPLIT)
    "reference_policy": read_optional(_reference_policy),
    "ground_truth_labels": _labels,
}


def sample_to_dict(record: SampleRecord) -> dict:
    return to_json(record)


def sample_from_dict(raw: object) -> SampleRecord:
    return SampleRecord(**read_record(raw, SAMPLE_FIELDS, "BAD_RECORD", "sample record", ("prompt",)))
