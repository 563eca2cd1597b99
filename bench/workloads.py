"""Seeded input generators for the three benchmark workloads.

Every generator takes the seed as an argument and returns the JSONL files of
one workload as a mapping from file name to text; the same seed and size give
the same bytes. Record shapes follow the documented CLI input formats, and the
policy and prompt shapes follow the random-policy and planted-violation
generators of the test suite (copied here, because the benchmark must not
import the tests).

The structural shape of a workload is fixed and only its contents vary with
the seed: the number of prompts, candidates, snippets and queries, the share
of hard-invalid documents and the share of queries that match no snippet are
the same on every seed, so exact per-record counts repeat from seed to seed.
"""

from __future__ import annotations

import json
import random

LAYERS = ("legal", "vehicle", "driver")

ACTION_SPELLINGS = {
    "DrivingSuggestion": ("DrivingSuggestion", "Driving suggest", "driving_suggestion"),
    "HmiPrompt": ("HmiPrompt", "HMI prompt", "hmi-prompt"),
    "Hvac": ("Hvac", "HVAC"),
    "AmbientLight": ("AmbientLight", "ambient light", "Ambient_Light"),
}
ACTION_TYPES = tuple(ACTION_SPELLINGS)

NEUTRAL_WORDS = (
    "steady", "calm", "lane", "signal", "junction", "cabin", "comfort", "attention",
    "road", "light", "speed", "distance", "mirror", "display", "route", "ahead",
    "vehicle", "pace", "driver", "gentle", "brief", "clear", "open", "keep",
    "notice", "update", "slow", "safe", "margin", "view", "zone", "exit",
)
HAZARD_PHRASES = (
    "heavy rain", "rain", "raining", "fog", "foggy", "limited visibility", "wet road",
    "puddle", "traffic jam", "dense traffic", "congestion", "heavy traffic", "reversing",
    "backing up", "distracted", "phone use", "looking around", "drowsy", "fatigue",
    "yawning", "anxious", "angry", "agitated",
)
MANEUVER_PHRASES = ("park", "parking", "reverse", "overtake", "overtaking", "merge", "merging", "back up")
LOW_LEVEL_PHRASES = (
    "brake gently", "apply the throttle", "steering angle", "set speed to 50",
    "accelerate by 10", "braking force",
)
FORBIDDEN_KEYWORDS_LEGAL = ("ignore the signal", "speed up", "run the light")
FORBIDDEN_KEYWORDS_DRIVER = ("loud siren", "flashing", "chime")
DRIVER_LABELS = ("drowsy", "distracted", "anxious", "calm driver", "attentive", "yawning", "phone use")
SCENE_LABELS = (
    "heavy rain", "fog", "traffic jam", "clear road", "highway", "intersection",
    "wet road", "parking lot", "merging lane", "tunnel",
)
OBJECT_KINDS = ("car", "pedestrian", "truck", "cyclist", "bus")
MODALITIES = ("visual", "audio", "haptic")
JURISDICTIONS = ("de", "us ca", "jp", "uk", "fr")
MODES = ("manual", "assisted", "supervised")

# Label vocabularies for the eval label, classification and text records.
EVAL_LABELS = ("rain", "fog", "traffic_jam", "drowsy", "phone_use", "anger", "neutral",
               "merging", "reversing", "highway", "intersection", "parking_lot")


def _rng(workload: str, seed: int) -> random.Random:
    # String seeds are hashed with SHA-512, so the stream does not depend on
    # PYTHONHASHSEED or the platform.
    return random.Random(f"ecpo-bench/{workload}/{seed}")


def _dumps(record: object) -> str:
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def _jsonl(records) -> str:
    return "".join(_dumps(record) + "\n" for record in records)


def _phrase(rng: random.Random, low: int = 3, high: int = 8, hazard: float = 0.0,
            maneuver: float = 0.0) -> str:
    words = []
    for _ in range(rng.randint(low, high)):
        draw = rng.random()
        if draw < hazard:
            words.append(rng.choice(HAZARD_PHRASES))
        elif draw < hazard + maneuver:
            words.append(rng.choice(MANEUVER_PHRASES))
        else:
            words.append(rng.choice(NEUTRAL_WORDS))
    return " ".join(words)


# --- prompts -----------------------------------------------------------------


def _snippet(rng: random.Random, prompt_id: str, index: int, layer: str, with_assertions: bool) -> dict:
    record = {
        "snippet_id": f"{prompt_id}-s{index:02d}",
        "layer": layer,
        "clause_id": f"{layer[0].upper()}-{index}",
        "text": _phrase(rng, 8, 16, hazard=0.08, maneuver=0.04),
        "jurisdiction": rng.choice(JURISDICTIONS),
    }
    if not with_assertions:
        return record
    if layer == "legal":
        assertions = {
            "forbidden_action_types": [rng.choice(ACTION_SPELLINGS[rng.choice(ACTION_TYPES)])]
            if rng.random() < 0.15 else [],
            "parameter_bounds": [["HmiPrompt", "display_timeout_s", 1.0, 30.0]],
            "forbidden_keywords": [rng.choice(FORBIDDEN_KEYWORDS_LEGAL)],
        }
    elif layer == "vehicle":
        assertions = {
            "parameter_bounds": [
                ["AmbientLight", "brightness_pct", 0.0, float(rng.choice((60, 70, 80)))],
                ["Hvac", "fan_level", 1.0, 4.0],
            ],
        }
    else:
        assertions = {
            "required_modalities": [rng.choice(MODALITIES)],
            "forbidden_keywords": [rng.choice(FORBIDDEN_KEYWORDS_DRIVER)],
        }
    record["assertions"] = assertions
    return record


def _perception(rng: random.Random) -> dict:
    return {
        "driver_labels": rng.sample(DRIVER_LABELS, rng.randint(1, 2)),
        "scene_labels": rng.sample(SCENE_LABELS, rng.randint(1, 3)),
        "objects": [f"{rng.choice(OBJECT_KINDS)}-{rng.randint(1, 9)}" for _ in range(rng.randint(0, 3))],
        "summary_initial": _phrase(rng, 6, 14, hazard=0.12, maneuver=0.05),
        "summary_transition": _phrase(rng, 6, 14, hazard=0.12, maneuver=0.05),
        "summary_final": _phrase(rng, 6, 14, hazard=0.12, maneuver=0.05),
    }


def make_prompt(rng: random.Random, prompt_id: str, n_snippets: int = 20) -> dict:
    """Prompt with every one of the eleven checks live.

    Snippets cycle through the three layers and the first three of every nine
    carry machine-checkable assertions; the driver declares a temperature band and
    a modality preference, and the vehicle declares actuators and capability
    limits.
    """
    actuators = list(ACTION_TYPES)
    if rng.random() < 0.25:
        actuators.remove(rng.choice(("Hvac", "AmbientLight")))
    limits = {}
    if "AmbientLight" in actuators:
        limits["AmbientLight"] = {"intensity_level": [1, 10]}
    if "Hvac" in actuators:
        limits["Hvac"] = {"fan_level": [1, 5]}
    low = rng.randint(18, 22)
    return {
        "prompt_id": prompt_id,
        "z": _perception(rng),
        "driver": {
            "alert_modality_preference": rng.choice(MODALITIES),
            "alert_frequency": rng.choice(("low", "normal")),
            "sensitivities": {"noise": rng.choice(("low", "medium", "high")),
                              "light": rng.choice(("none", "low", "high"))},
            "style_preference": rng.choice(("calm concise", "brief direct", "detailed")),
            "cabin_preferences": {"temperature_band": [low, low + rng.randint(3, 6)]},
        },
        "vehicle": {
            "jurisdiction": rng.choice(JURISDICTIONS),
            "operating_mode": rng.choice(MODES),
            "available_actuators": [rng.choice(ACTION_SPELLINGS[name]) for name in actuators],
            "capability_limits": limits,
        },
        "constraints": [
            _snippet(rng, prompt_id, index, LAYERS[index % 3], index % 9 < 3)
            for index in range(n_snippets)
        ],
    }


# --- policies ----------------------------------------------------------------


def _parameters(rng: random.Random, action_type: str) -> dict:
    text = _phrase(rng, 4, 10, hazard=0.15, maneuver=0.08)
    if rng.random() < 0.08:
        text += " " + rng.choice(FORBIDDEN_KEYWORDS_LEGAL + FORBIDDEN_KEYWORDS_DRIVER)
    if rng.random() < 0.1:
        text += " " + rng.choice(LOW_LEVEL_PHRASES)
    if action_type == "HmiPrompt":
        return {"modality": rng.choice(MODALITIES), "text": text,
                "display_timeout_s": round(rng.uniform(0.5, 35.0), 2)}
    if action_type == "Hvac":
        return {"target_temperature": rng.randint(16, 30), "fan_level": rng.randint(1, 6)}
    if action_type == "AmbientLight":
        return {"brightness_pct": rng.randint(10, 100), "intensity_level": rng.randint(1, 12),
                "theme": rng.choice(("calm", "focus"))}
    return {"text": text}


def _evidence(rng: random.Random, z: dict) -> dict:
    if rng.random() < 0.1:
        return {"in_cabin_text": [], "out_of_vehicle_text": [], "objects": [], "labels": []}
    stages = [z["summary_initial"], z["summary_transition"], z["summary_final"]]
    return {
        "in_cabin_text": [rng.choice(z["driver_labels"])] if rng.random() < 0.6 else [],
        "out_of_vehicle_text": [rng.choice(stages) if rng.random() < 0.7 else _phrase(rng)
                                for _ in range(rng.randint(0, 2))],
        "objects": z["objects"][:rng.randint(0, len(z["objects"]))],
        "labels": [rng.choice(z["scene_labels"])] if rng.random() < 0.5 else [],
    }


def make_policy(rng: random.Random, z: dict, n_actions: int) -> dict:
    """Schema-valid policy of `n_actions` actions with hazard and maneuver vocabulary."""
    actions = []
    for _ in range(n_actions):
        action_type = rng.choice(ACTION_TYPES)
        actions.append({
            "type": rng.choice(ACTION_SPELLINGS[action_type]),
            "parameters": _parameters(rng, action_type),
            "rationale": _phrase(rng, 4, 12, hazard=0.2, maneuver=0.05) if rng.random() < 0.9 else "",
            "evidence": _evidence(rng, z),
        })
    ledger_keys = rng.sample(("legal_regulations", "vehicle", "driver_preferences", "contextual"),
                             rng.randint(1, 4))
    return {
        "objectives": _phrase(rng, 4, 10, hazard=0.25),
        "constraints": {key: _phrase(rng, 3, 8) for key in ledger_keys},
        "actions": actions,
    }


def make_invalid_document(rng: random.Random, z: dict, kind: int) -> object:
    """One of four hard-invalid shapes: unparseable, no actions, too many, bad type."""
    if kind == 0:
        return '{"objectives": "unterminated'
    policy = make_policy(rng, z, rng.randint(1, 5))
    if kind == 1:
        policy["actions"] = []
    elif kind == 2:
        policy["actions"] = (policy["actions"] * 6)[:6]
    else:
        policy["actions"][0]["type"] = "Teleport"
    return policy


def _document(rng: random.Random, policy: object) -> object:
    """Half the documents travel as JSON text, half as inline objects."""
    if isinstance(policy, dict) and rng.random() < 0.5:
        return json.dumps(policy)
    return policy


# Exactly one candidate in every INVALID_EVERY is hard-invalid, on every seed.
INVALID_EVERY = 32


def _action_counts(rng: random.Random, n: int) -> list[int]:
    """1-5 actions, each count equally often, in seeded order.

    Balancing the counts keeps the total work of a workload nearly the same
    on every seed, so run-to-run spread measures the program, not the draw.
    """
    counts = [1 + index % 5 for index in range(n)]
    rng.shuffle(counts)
    return counts


def _candidate_document(rng: random.Random, z: dict, index: int, n_actions: int) -> object:
    if index % INVALID_EVERY == INVALID_EVERY - 1:
        return _document(rng, make_invalid_document(rng, z, (index // INVALID_EVERY) % 4))
    return _document(rng, make_policy(rng, z, n_actions))


# --- workloads ---------------------------------------------------------------


def gen_validate(seed: int, prompts: int = 40, k: int = 8) -> dict[str, str]:
    """`ecpo validate`: `k` candidates per prompt, each prompt 20 snippets."""
    rng = _rng("validate_k8", seed)
    action_counts = _action_counts(rng, prompts * k)
    prompt_records = []
    policy_records = []
    for p in range(prompts):
        prompt = make_prompt(rng, f"p{p:04d}")
        prompt_records.append(prompt)
        for c in range(k):
            policy_records.append({
                "prompt_id": prompt["prompt_id"],
                "candidate_id": f"c{c}",
                "document": _candidate_document(rng, prompt["z"], p * k + c, action_counts[p * k + c]),
            })
    return {"prompts.jsonl": _jsonl(prompt_records), "records.jsonl": _jsonl(policy_records)}


def _text_pair(rng: random.Random, length: int) -> tuple[str, str]:
    vocabulary = NEUTRAL_WORDS + MANEUVER_PHRASES + tuple(w for p in HAZARD_PHRASES for w in p.split())
    reference = [rng.choice(vocabulary) for _ in range(length)]
    hypothesis = []
    for token in reference:
        draw = rng.random()
        if draw < 0.1:
            continue
        if draw < 0.25:
            hypothesis.append(rng.choice(vocabulary))
        else:
            hypothesis.append(token)
        if rng.random() < 0.05:
            hypothesis.append(rng.choice(vocabulary))
    return " ".join(reference), " ".join(hypothesis)


def gen_eval(seed: int, per_kind: int = 100) -> dict[str, str]:
    """`ecpo eval`: `per_kind` records each of strategy, labels, classification, text.

    Every strategy record carries its own distinct 20-snippet prompt and
    three raters' votes; seeds 0, 1, 2 rotate across strategy records.
    """
    rng = _rng("eval_k1", seed)
    action_counts = _action_counts(rng, per_kind)
    # Reference lengths spread evenly over 20-120 tokens, in seeded order:
    # ROUGE-L cost grows with the square of the length.
    lengths = [20 + (100 * i) // max(1, per_kind - 1) for i in range(per_kind)]
    rng.shuffle(lengths)
    records = []
    for i in range(per_kind):
        prompt = make_prompt(rng, f"e{i:04d}")
        records.append({
            "kind": "strategy",
            "prompt_id": prompt["prompt_id"],
            "document": _candidate_document(rng, prompt["z"], i, action_counts[i]),
            "prompt": prompt,
            "ratings": [[rng.random() < 0.8 for _ in range(3)] for _ in range(3)],
            "seed": i % 3,
        })
    for i in range(per_kind):
        truth = rng.sample(EVAL_LABELS, rng.randint(0, 3))
        prediction = [label for label in truth if rng.random() < 0.75]
        prediction += rng.sample(EVAL_LABELS, rng.randint(0, 2))
        records.append({"kind": "labels", "truth": truth, "prediction": sorted(set(prediction))})
    for i in range(per_kind):
        truth = rng.choice(EVAL_LABELS)
        prediction = truth if rng.random() < 0.6 else rng.choice(EVAL_LABELS)
        records.append({"kind": "classification", "truth": truth, "prediction": prediction})
    for length in lengths:
        reference, hypothesis = _text_pair(rng, length)
        records.append({"kind": "text", "reference": reference, "hypothesis": hypothesis})
    rng.shuffle(records)
    return {"records.jsonl": _jsonl(records)}


# Store vocabulary: real domain words plus synthetic clause terms, drawn with
# Zipf-like weights so common terms are shared by many snippets.
_STORE_TERMS = NEUTRAL_WORDS + tuple(w for p in HAZARD_PHRASES + MANEUVER_PHRASES for w in p.split()) + tuple(
    f"{stem}{n}" for stem in ("clause", "rule", "limit", "term", "code") for n in range(80)
)
_STORE_WEIGHTS = tuple(1.0 / (rank + 1) for rank in range(len(_STORE_TERMS)))
# Words that never occur in a store snippet; queries built from them share no
# token with the store, so retrieval falls back to zero-score snippets.
_FOREIGN_WORDS = tuple(f"xq{stem}" for stem in (
    "amber", "basalt", "cobalt", "dune", "ember", "fjord", "glacier", "heath", "isle", "jade",
    "kelp", "lagoon", "marsh", "nectar", "onyx", "prairie", "quartz", "reef", "savanna", "tundra",
))
# One query in every NO_MATCH_EVERY shares no token with any snippet.
NO_MATCH_EVERY = 10


def _store_snippet(rng: random.Random, index: int) -> dict:
    layer = LAYERS[rng.randrange(3)]
    record = {
        "snippet_id": f"s{index:05d}",
        "layer": layer,
        "clause_id": f"{layer[0].upper()}-{index}",
        "text": " ".join(rng.choices(_STORE_TERMS, weights=_STORE_WEIGHTS, k=rng.randint(6, 30))),
        "jurisdiction": rng.choice(JURISDICTIONS),
    }
    if index % 3 == 0:
        record["assertions"] = _snippet(rng, "store", 0, layer, True)["assertions"]
    return record


def _foreign_prompt(rng: random.Random, prompt_id: str) -> dict:
    def words(low: int, high: int) -> str:
        return " ".join(rng.choice(_FOREIGN_WORDS) for _ in range(rng.randint(low, high)))

    return {
        "prompt_id": prompt_id,
        "z": {
            "driver_labels": [words(1, 2)],
            "scene_labels": [words(1, 2)],
            "objects": [],
            "summary_initial": words(4, 10),
            "summary_transition": words(4, 10),
            "summary_final": words(4, 10),
        },
        "driver": {"alert_modality_preference": words(1, 1), "sensitivities": {"noise": "low"},
                   "style_preference": words(1, 2)},
        "vehicle": {"jurisdiction": "", "operating_mode": ""},
    }


def gen_retrieve(seed: int, snippets: int = 5000, queries: int = 100) -> dict[str, str]:
    """`ecpo retrieve`: one store of `snippets` snippets and `queries` prompts."""
    rng = _rng("retrieve_5k", seed)
    store = [_store_snippet(rng, index) for index in range(snippets)]
    prompts = []
    for q in range(queries):
        prompt_id = f"q{q:04d}"
        if q % NO_MATCH_EVERY == NO_MATCH_EVERY - 1:
            prompts.append(_foreign_prompt(rng, prompt_id))
        else:
            prompt = make_prompt(rng, prompt_id, n_snippets=0)
            del prompt["constraints"]
            prompts.append(prompt)
    return {"store.jsonl": _jsonl(store), "records.jsonl": _jsonl(prompts)}


GENERATORS = {"validate_k8": gen_validate, "eval_k1": gen_eval, "retrieve_5k": gen_retrieve}

# Sizes per workload: the benchmark's default and a tiny one for smoke tests.
SIZES = {
    "validate_k8": {"default": {"prompts": 40, "k": 8}, "tiny": {"prompts": 2, "k": 8}},
    "eval_k1": {"default": {"per_kind": 100}, "tiny": {"per_kind": 4}},
    "retrieve_5k": {"default": {"snippets": 5000, "queries": 100},
                    "tiny": {"snippets": 60, "queries": 10}},
}


def generate(workload: str, seed: int, size: str = "default") -> dict[str, str]:
    return GENERATORS[workload](seed, **SIZES[workload][size])
