"""Shared fixtures: two realistic scenario cases and a small snippet store."""

import importlib.util
from pathlib import Path

import pytest

from ecpo.context import DriverProfile, PerceptionSummary, SampleRecord, StrategyPrompt, VehicleProfile
from ecpo.policy import ActionType
from ecpo.store import Assertions, ConstraintSnippet, ParameterBound

RAIN_IN_CABIN = "driver shows signs of anxiety and frequent head turns"
RAIN_OUT_OF_CABIN = "heavy rain with limited visibility and dense traffic ahead"


@pytest.fixture
def rain_prompt() -> StrategyPrompt:
    """Rainy dense-traffic context with an anxious driver."""
    return StrategyPrompt(
        prompt_id="rain-01",
        z=PerceptionSummary(
            driver_labels=("anxious", "looking around"),
            scene_labels=("rainy", "dense traffic"),
            summary_initial=RAIN_OUT_OF_CABIN,
            summary_transition=RAIN_IN_CABIN,
            summary_final="the vehicle continues at reduced speed in the rain",
        ),
        driver=DriverProfile(alert_modality_preference="visual"),
        vehicle=VehicleProfile(),
        constraints=(),
    )


@pytest.fixture
def rain_policy_dict() -> dict:
    """Fully populated advisory policy matching the rain context."""
    return {
        "objectives": "Address reduced visibility and maintain safe time headway.",
        "constraints": {
            "legal_regulations": "Keep within posted speed limits.",
            "vehicle_limits": "Wipers and lights verified available.",
            "driver_preferences": "Reassure the anxious driver; avoid startling prompts while looking around.",
            "contextual_evidence": RAIN_OUT_OF_CABIN,
        },
        "actions": [
            {
                "type": "HmiPrompt",
                "parameters": {
                    "modality": "visual",
                    "text": "Visibility reduced by rain. Please maintain a larger distance...",
                },
                "rationale": "Reduced visibility calls for a longer following distance.",
                "evidence": {
                    "in_cabin_text": [RAIN_IN_CABIN],
                    "out_of_vehicle_text": [RAIN_OUT_OF_CABIN],
                    "objects": [],
                    "labels": ["emotion: anxious", "behavior: looking around"],
                },
            }
        ],
    }


@pytest.fixture
def comfort_prompt() -> StrategyPrompt:
    """Parking-in-traffic context with a 22-24 degree cabin preference."""
    return StrategyPrompt(
        prompt_id="comfort-01",
        z=PerceptionSummary(
            driver_labels=("Anxiety", "Looking Around"),
            scene_labels=("Traffic Jam", "Parking"),
            summary_initial="busy urban road with a traffic jam ahead",
            summary_transition="the driver shows anxiety and keeps looking around",
            summary_final="the vehicle searches for parking in heavy traffic",
        ),
        driver=DriverProfile(
            alert_modality_preference="visual",
            alert_frequency="low",
            sensitivities={"motion_sickness": "high", "noise": "high"},
            style_preference="active",
            cabin_preferences={"temperature_band": (22.0, 24.0), "music": "off"},
        ),
        vehicle=VehicleProfile(),
        constraints=(),
    )


@pytest.fixture
def hot_cabin_policy_dict() -> dict:
    """Otherwise-clean policy whose HVAC target sits above the comfort band."""
    return {
        "objectives": "Single clear visual prompt for calm attentive parking in a traffic jam.",
        "constraints": {
            "legal_regulations": "No turn on red where signed.",
            "vehicle_limits": "Standard cabin actuators only.",
            "driver_preferences": "Visual prompts at low frequency; quiet cabin.",
            "contextual_evidence": "Driver anxiety and looking around while parking in a traffic jam.",
        },
        "actions": [
            {
                "type": "HmiPrompt",
                "parameters": {"modality": "visual", "text": "Please stay focused."},
                "rationale": "One visual banner keeps attention without noise.",
                "evidence": {
                    "in_cabin_text": ["the driver shows anxiety and keeps looking around"],
                    "out_of_vehicle_text": [],
                    "objects": [],
                    "labels": ["Traffic Jam"],
                },
            },
            {
                "type": "DrivingSuggestion",
                "parameters": {"text": "Slow and smooth for parking."},
                "rationale": "Low speed suits the crowded lot.",
                "evidence": {
                    "in_cabin_text": [],
                    "out_of_vehicle_text": ["busy urban road with a traffic jam ahead"],
                    "objects": [],
                    "labels": ["Parking"],
                },
            },
            {
                "type": "Hvac",
                "parameters": {"target_temperature": 26, "fan_level": "low"},
                "rationale": "Keep the cabin quiet and warm.",
                "evidence": {
                    "in_cabin_text": [],
                    "out_of_vehicle_text": [],
                    "objects": [],
                    "labels": ["Anxiety"],
                },
            },
            {
                "type": "AmbientLight",
                "parameters": {"theme": "neutral white", "zones": "doors and footwells"},
                "rationale": "Reduce stress and glare while keeping the scene visible.",
                "evidence": {
                    "in_cabin_text": ["the driver shows anxiety and keeps looking around"],
                    "out_of_vehicle_text": [],
                    "objects": [],
                    "labels": [],
                },
            },
        ],
    }


@pytest.fixture
def layered_snippets() -> tuple[ConstraintSnippet, ...]:
    """One snippet per store layer, each with live assertions."""
    return (
        ConstraintSnippet(
            snippet_id="legal-001",
            layer="legal",
            clause_id="TR-4.2",
            text="Maintain a safe following distance in rain and reduced visibility.",
            jurisdiction="EU",
            assertions=Assertions(
                forbidden_keywords=("run the red light",),
                parameter_bounds=(ParameterBound(ActionType.DRIVING_SUGGESTION, "set_speed_kph", 0.0, 130.0),),
            ),
        ),
        ConstraintSnippet(
            snippet_id="veh-001",
            layer="vehicle",
            clause_id="CAP-1.1",
            text="HVAC fan level operates between one and five.",
            vehicle_config="base-trim",
            assertions=Assertions(
                parameter_bounds=(ParameterBound(ActionType.HVAC, "fan_level", 1.0, 5.0),),
            ),
        ),
        ConstraintSnippet(
            snippet_id="drv-001",
            layer="driver",
            clause_id="PRF-2.3",
            text="Driver is sensitive to noise and rejects audio alerts.",
            assertions=Assertions(
                required_modalities=frozenset({"visual"}),
                forbidden_keywords=("loud music",),
            ),
        ),
    )


def make_sample(
    prompt_id: str,
    split: str = "train",
    driver_labels: tuple[str, ...] = (),
    scene_labels: tuple[str, ...] = (),
    objects: tuple[str, ...] = (),
    stages: tuple[str, str, str] = ("", "", ""),
    labels: dict | None = None,
    vehicle: VehicleProfile | None = None,
) -> SampleRecord:
    return SampleRecord(
        prompt=StrategyPrompt(
            prompt_id=prompt_id,
            z=PerceptionSummary(
                driver_labels=driver_labels,
                scene_labels=scene_labels,
                objects=objects,
                summary_initial=stages[0],
                summary_transition=stages[1],
                summary_final=stages[2],
            ),
            driver=DriverProfile(),
            vehicle=vehicle or VehicleProfile(),
            constraints=(),
        ),
        split=split,
        reference_policy=None,
        ground_truth_labels=labels or {},
    )


def bench_inputs(workload: str, seed: int = 0) -> dict[str, str]:
    """The input files, name -> text, that ``bench/workloads.py`` generates for a benchmark workload."""
    spec = importlib.util.spec_from_file_location("workloads", Path(__file__).parent.parent / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads.generate(workload, seed)
