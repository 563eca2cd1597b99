"""The CLI error contract at the input boundary.

A value of the wrong JSON type in any record or config field fails with exit
1 (input) or 2 (config) and one ``error: CODE: message`` line naming the
field's code; it is never converted and never reaches the scorer. A key that
is not a field of its record fails with the record's code. A file that cannot
be read, is not UTF-8 or is nested too deep fails the same way, with the code
of that file.
"""

import copy
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import ecpo
from ecpo.cli import CANDIDATE_FIELDS, EVAL_FIELDS, PAIRS_FIELDS, VALIDATE_FIELDS, _read_jsonl, main
from ecpo.context import DRIVER_FIELDS, PROMPT_FIELDS, SAMPLE_FIELDS, VEHICLE_FIELDS, Z_FIELDS
from ecpo.errors import InputError
from ecpo.store import ASSERTION_FIELDS, SNIPPET_FIELDS
from oracles import jsonl_reference

POLICY = {
    "objectives": "Keep a safe distance in heavy rain.",
    "constraints": {
        "legal_regulations": "Keep within posted speed limits.",
        "vehicle_limits": "Standard cabin actuators only.",
        "driver_preferences": "Visual prompts only.",
        "contextual_evidence": "heavy rain ahead",
    },
    "actions": [
        {
            "type": "HmiPrompt",
            "parameters": {"modality": "visual", "text": "Rain ahead, keep your distance."},
            "rationale": "Reduced visibility calls for a longer following distance.",
            "evidence": {"in_cabin_text": [], "out_of_vehicle_text": ["heavy rain ahead"], "objects": [],
                         "labels": ["rain"]},
        },
        {
            "type": "Hvac",
            "parameters": {"temperature": 21},
            "rationale": "A calm cabin for the anxious driver.",
            "evidence": {"in_cabin_text": ["the driver looks around"], "out_of_vehicle_text": [], "objects": [],
                         "labels": ["anxious"]},
        },
    ],
}

SNIPPET = {
    "snippet_id": "s1",
    "layer": "legal",
    "clause_id": "c1",
    "text": "reduce speed in heavy rain",
    "jurisdiction": "EU",
    "vehicle_config": "sedan",
    "version": 0,
    "assertions": {
        "forbidden_action_types": ["AmbientLight"],
        "parameter_bounds": [["Hvac", "temperature", 16, 28]],
        "required_modalities": ["visual"],
        "forbidden_keywords": ["accelerate"],
    },
}

PROMPT = {
    "prompt_id": "p1",
    "z": {
        "driver_labels": ["anxious"],
        "scene_labels": ["rain"],
        "objects": ["truck"],
        "summary_initial": "heavy rain ahead",
        "summary_transition": "the driver looks around",
        "summary_final": "the vehicle slows down",
    },
    "driver": {
        "alert_modality_preference": "visual",
        "alert_frequency": "low",
        "sensitivities": {"noise": "high"},
        "style_preference": "calm",
        "cabin_preferences": {"temperature_band": [19, 24]},
    },
    "vehicle": {
        "jurisdiction": "EU",
        "operating_mode": "manual",
        "available_actuators": ["HmiPrompt", "Hvac"],
        "capability_limits": {"Hvac": {"temperature": [16, 28]}},
    },
    "constraints": [SNIPPET],
}

LABELS = {"emotion": "anger", "behavior": "normal_driving", "traffic_scene": "rain", "vehicle_motion": "forward_moving"}


def sample(prompt_id: str) -> dict:
    return {"prompt": {**PROMPT, "prompt_id": prompt_id}, "split": "train", "reference_policy": POLICY,
            "ground_truth_labels": dict(LABELS)}


# One valid input set per command: (argv with {file} placeholders, file name -> records).
COMMANDS = {
    "validate": (
        ["validate", "--policies", "{policies}", "--prompts", "{prompts}"],
        {"policies": [{"prompt_id": "p1", "candidate_id": "c1", "document": POLICY}], "prompts": [PROMPT]},
    ),
    "pairs": (
        ["pairs", "--candidates", "{candidates}"],
        {"candidates": [{"prompt_id": "p1", "prompt": PROMPT, "candidates": [
            {"candidate_id": "a", "document": POLICY}, {"candidate_id": "b", "document": {"actions": []}}]}]},
    ),
    "eval": (
        ["eval", "--records", "{records}"],
        {"records": [
            {"kind": "strategy", "prompt_id": "p1", "prompt": PROMPT, "document": POLICY,
             "ratings": [[True, True, False]], "seed": 0},
            {"kind": "labels", "truth": ["a", "b"], "prediction": ["a"]},
            {"kind": "classification", "truth": "a", "prediction": "b"},
            {"kind": "text", "reference": "keep a safe distance", "hypothesis": "keep distance"},
        ]},
    ),
    "retrieve": (
        ["retrieve", "--store", "{store}", "--prompt", "{prompts}"],
        {"store": [SNIPPET], "prompts": [PROMPT]},
    ),
    "mixpair": (
        ["mixpair", "--in-cabin", "{in}", "--out-of-cabin", "{out}"],
        {"in": [sample("in-1")], "out": [sample("out-1")]},
    ),
    "stratify": (["stratify", "--records", "{records}"], {"records": [sample("r1")]}),
}

# Sets every field but the asset paths, with integer values where a float is allowed.
CONFIG = {
    "ecpo_weights": [0.5, 0.3, 0.2],
    "penalty_table": {"missing_objectives": 0.1, "other": 0},
    "lexicon_path": None,
    "hazard_rules_path": None,
    "label_vocab_path": None,
    "match_threshold": 1,
    "epsilon": 1,
    "j_max": 5,
    "beta": 2,
    "lambda_ecpo": 0.5,
    "psi_floor": 0,
    "psi_ceiling": 1,
    "gap_min": 0,
    "top_k": 3,
    "token_budget": 50,
    "seeds": [3],
    "block_size": 1,
    "prng": "splitmix64",
}

VOCAB = {"heads": {
    "emotion": {"labels": ["neutral", "anger"], "nominal": "neutral"},
    "behavior": {"labels": ["normal_driving"], "nominal": "normal_driving"},
    "traffic_scene": {"labels": ["smooth_traffic", "rain"], "nominal": "smooth_traffic"},
    "vehicle_motion": {"labels": ["forward_moving"], "nominal": "forward_moving"},
}}


def raw(value: object) -> bytes:
    """File bytes: bytes as given, text as UTF-8, anything else as JSON."""
    if isinstance(value, bytes):
        return value
    return (value if isinstance(value, str) else json.dumps(value)).encode("utf-8")


def jsonl(records: list) -> bytes:
    return "".join(json.dumps(r) + "\n" for r in records).encode("utf-8")


def run(directory: Path, command: str, files: dict, config: object = None, options=()) -> tuple[int, str, str]:
    """Write the inputs under ``directory`` and run the command in-process.

    A list of records is written as JSONL, bytes as they are; a ``None`` file
    is not written.
    """
    template, _ = COMMANDS[command]
    paths = {}
    for name, records in files.items():
        paths[name] = directory / f"{name}.jsonl"
        if records is not None:
            paths[name].write_bytes(records if isinstance(records, bytes) else jsonl(records))
    argv = [*options, *(part.format(**paths) for part in template)]
    if config is not None:
        config_path = directory / "config.json"
        config_path.write_bytes(raw(config))
        argv = ["--config", str(config_path), *argv]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def inputs(command: str) -> dict:
    return copy.deepcopy(COMMANDS[command][1])


def test_every_valid_input_runs_clean(tmp_path):
    for command in COMMANDS:
        for config in (None, CONFIG):
            code, out, err = run(tmp_path, command, inputs(command), config)
            assert (command, code) == (command, 0), err
            assert out and "error:" not in err


def nan_config(field: str, value: str) -> str:
    """Config text with one raw JSON value, for values json.dumps cannot spell."""
    return json.dumps({field: "@"}).replace('"@"', value)


def with_vocab(directory: Path, labels: list) -> dict:
    vocab = copy.deepcopy(VOCAB)
    vocab["heads"]["emotion"]["labels"] = labels
    (directory / "vocab.json").write_text(json.dumps(vocab), encoding="utf-8")
    return {"label_vocab_path": "vocab.json"}


MISTYPED = [
    # retrieve would build the query terms "None", "5", "none" and "nan"
    pytest.param("retrieve", lambda f: f["prompts"][0]["vehicle"].update(jurisdiction=None), None, 1, "BAD_PROFILE",
                 id="retrieve-null-jurisdiction"),
    pytest.param("retrieve", lambda f: f["prompts"][0]["vehicle"].update(operating_mode=5), None, 1, "BAD_PROFILE",
                 id="retrieve-numeric-operating-mode"),
    pytest.param("retrieve", lambda f: f["prompts"][0]["z"].update(summary_initial=None), None, 1, "BAD_RECORD",
                 id="retrieve-null-summary"),
    # a profile that is not an object is the prompt's fault, a bad field inside it the profile's
    pytest.param("retrieve", lambda f: f["prompts"][0].update(driver=5), None, 1, "BAD_RECORD",
                 id="retrieve-number-driver"),
    pytest.param("retrieve", lambda f: f["prompts"][0].update(vehicle=[]), None, 1, "BAD_RECORD",
                 id="retrieve-list-vehicle"),
    pytest.param("retrieve", lambda f: f["prompts"][0]["driver"].update(alert_frequency=5), None, 1, "BAD_PROFILE",
                 id="retrieve-numeric-alert-frequency"),
    pytest.param("retrieve", lambda f: f["prompts"][0]["z"].update(summary_initial=float("nan")), None, 1,
                 "BAD_RECORD", id="retrieve-nan-summary"),
    pytest.param("validate", lambda f: f["policies"][0].update(candidate_id=[1]), None, 1, "BAD_RECORD",
                 id="validate-list-candidate-id"),
    # the prompt would be replaced by an empty one
    pytest.param("eval", lambda f: f["records"][0].update(prompt="abc"), None, 1, "BAD_RECORD",
                 id="eval-string-prompt"),
    pytest.param("eval", lambda f: f["records"][0].update(prompt=5), None, 1, "BAD_RECORD", id="eval-number-prompt"),
    pytest.param("pairs", lambda f: f["candidates"][0].update(prompt="abc"), None, 1, "BAD_RECORD",
                 id="pairs-string-prompt"),
    pytest.param("pairs", lambda f: f["candidates"][0].update(prompt=5), None, 1, "BAD_RECORD",
                 id="pairs-number-prompt"),
    # eval would score "None", "{'a': 1}" and truthiness
    pytest.param("eval", lambda f: f["records"][2].update(truth=None), None, 1, "BAD_RECORD",
                 id="eval-null-classification-truth"),
    pytest.param("eval", lambda f: f["records"][3].update(reference={"a": 1}), None, 1, "BAD_RECORD",
                 id="eval-object-text-reference"),
    pytest.param("eval", lambda f: f["records"][0].update(ratings=[["yes", 0, None]]), None, 1, "BAD_RECORD",
                 id="eval-non-bool-ratings"),
    # mixpair would write ["x", "1", "None"] and pass 5 through
    pytest.param("mixpair", lambda f: f["in"][0]["ground_truth_labels"].update(emotion=["x", 1, None]), None, 1,
                 "BAD_RECORD", id="mixpair-mixed-label-list"),
    pytest.param("mixpair", lambda f: f["in"][0]["ground_truth_labels"].update(behavior=5), None, 1, "BAD_RECORD",
                 id="mixpair-numeric-label"),
    pytest.param("stratify", None, "vocab", 2, "BAD_VOCAB", id="stratify-numeric-vocab-labels"),
    # a split that is missing or not a known split name, also in a sample record given as a prompt
    pytest.param("stratify", lambda f: f["records"][0].update(split=5), None, 1, "BAD_SPLIT",
                 id="stratify-numeric-split"),
    pytest.param("stratify", lambda f: f["records"][0].pop("split"), None, 1, "BAD_SPLIT",
                 id="stratify-missing-split"),
    pytest.param("validate", lambda f: f.update(prompts=[{**sample("p1"), "split": "holdout"}]), None, 1, "BAD_SPLIT",
                 id="validate-sample-prompt-unknown-split"),
    # config values that crashed, were truncated or split, or slipped past the range checks
    pytest.param("retrieve", None, {"top_k": 2.5}, 2, "BAD_TOP_K", id="config-float-top-k"),
    pytest.param("validate", None, {"penalty_table": {"other": "x"}}, 2, "BAD_PENALTY", id="config-string-penalty"),
    pytest.param("mixpair", None, {"seeds": ["x"]}, 2, "BAD_SEEDS", id="config-string-seed"),
    pytest.param("mixpair", None, {"seeds": [1.5]}, 2, "BAD_SEEDS", id="config-float-seed"),
    pytest.param("mixpair", None, {"seeds": "12"}, 2, "BAD_SEEDS", id="config-string-seeds"),
    pytest.param("validate", None, {"j_max": 2.5}, 2, "BAD_J_MAX", id="config-float-j-max"),
    pytest.param("mixpair", None, {"block_size": True}, 2, "BAD_BLOCK_SIZE", id="config-bool-block-size"),
    pytest.param("retrieve", None, nan_config("token_budget", "1e400"), 2, "BAD_BUDGET", id="config-inf-budget"),
    pytest.param("pairs", None, nan_config("gap_min", "NaN"), 2, "BAD_GAP_MIN", id="config-nan-gap-min"),
    pytest.param("validate", None, nan_config("beta", "NaN"), 2, "BAD_BETA", id="config-nan-beta"),
    pytest.param("validate", None, '{"penalty_table": {"other": NaN}}', 2, "BAD_PENALTY", id="config-nan-penalty"),
    pytest.param("validate", None, {"match_threshold": "0.5"}, 2, "BAD_THRESHOLD", id="config-string-threshold"),
    pytest.param("validate", None, {"epsilon": 0}, 2, "BAD_EPSILON", id="config-zero-epsilon"),
    pytest.param("validate", None, {"j_max": 0}, 2, "BAD_J_MAX", id="config-zero-j-max"),
    pytest.param("mixpair", None, {"block_size": 0}, 2, "BAD_BLOCK_SIZE", id="config-zero-block-size"),
    pytest.param("retrieve", None, {"top_kk": 3}, 2, "UNKNOWN_CONFIG_KEY", id="config-unknown-key"),
    # a keyword pattern nested too deep for the regex compiler
    pytest.param("retrieve", lambda f: f["store"][0]["assertions"].update(forbidden_keywords=["(" * 2000 + ")" * 2000]),
                 None, 1, "BAD_KEYWORD", id="retrieve-keyword-nested-deep"),
    # keyword patterns that match nothing in particular: the empty string at every word boundary, or
    # (escaping the whole-word wrap) "a" and "b" anywhere
    *(pytest.param("validate", lambda f, k=keyword: f["prompts"][0]["constraints"][0]["assertions"].update(
        forbidden_keywords=["accelerate", k]), None, 1, "BAD_KEYWORD", id=f"validate-keyword-{name}")
      for name, keyword in [("empty", ""), ("optional", "x?"), ("escaping-wrap", "a)|(b")]),
]


@pytest.mark.parametrize("command, change, config, exit_code, error_code", MISTYPED)
def test_mistyped_value_fails_with_its_fields_code(tmp_path, command, change, config, exit_code, error_code):
    files = inputs(command)
    if change is not None:
        change(files)
    if config == "vocab":
        config = with_vocab(tmp_path, ["neutral", "anger", 1, 2])
    code, out, err = run(tmp_path, command, files, config)
    assert code == exit_code
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith(f"error: {error_code}: ")


@pytest.mark.parametrize("objects, shown_whole", [([1] * 200_000, False), (5, True)])
def test_mistyped_value_is_shown_cut_short(tmp_path, objects, shown_whole):
    files = inputs("retrieve")
    files["prompts"][0]["z"]["objects"] = objects
    code, out, err = run(tmp_path, "retrieve", files)
    assert (code, out) == (1, "")
    assert len(err.splitlines()) == 1
    assert err.startswith("error: BAD_RECORD: objects must be a list of strings, got ")
    assert len(err.encode("utf-8")) < 300
    assert err.endswith(f"got {objects!r}\n") == shown_whole


# An outside id quoted by an error message: (command, error code, how the inputs carry the id).
QUOTED_IDS = {
    "duplicate-prompt": ("validate", "DUPLICATE_ID", lambda files, id_: files.update(
        prompts=[{**PROMPT, "prompt_id": id_}] * 2, policies=[{**files["policies"][0], "prompt_id": id_}])),
    "unknown-prompt": ("validate", "UNKNOWN_PROMPT", lambda files, id_: files["policies"][0].update(prompt_id=id_)),
    "blank-snippet": ("retrieve", "BAD_SNIPPET", lambda files, id_: files.update(
        store=[{**SNIPPET, "snippet_id": id_, "text": " "}])),
}


@pytest.mark.parametrize("site", QUOTED_IDS)
@pytest.mark.parametrize("id_", ["x" * 200_000, "q1"], ids=["long", "short"])
def test_quoted_id_is_shown_cut_short(tmp_path, site, id_):
    command, error_code, carry = QUOTED_IDS[site]
    files = inputs(command)
    carry(files, id_)
    code, out, err = run(tmp_path, command, files)
    assert (code, out) == (1, "")
    assert len(err.splitlines()) == 1
    assert err.startswith(f"error: {error_code}: ")
    assert len(err.encode("utf-8")) < 300
    assert (repr(id_) in err) == (id_ == "q1")


@pytest.mark.parametrize("field", ["j_max", "top_k", "token_budget", "block_size"])
def test_out_of_range_config_integer_is_shown_cut_short(tmp_path, field):
    code, out, err = run(tmp_path, "validate", inputs("validate"), {field: -int("9" * 4200)})
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1
    assert len(err.encode("utf-8")) < 300


@pytest.mark.parametrize("command, name", [("pairs", "candidates"), ("eval", "records")])
def test_record_prompt_id_must_match_its_prompt(tmp_path, command, name):
    # the record would be validated against prompt "other" and filed under "p1"
    files = inputs(command)
    files[name][0]["prompt"]["prompt_id"] = "other"
    code, out, err = run(tmp_path, command, files)
    assert (code, out) == (1, "")
    assert len(err.splitlines()) == 1
    assert err.startswith("error: BAD_RECORD: ")
    assert "'p1'" in err and "'other'" in err


def test_mixpair_output_with_unicode_line_breaks_reads_back(tmp_path):
    # json.dumps escapes these; the CLI writes them raw inside one LF-terminated line
    files = inputs("mixpair")
    files["in"][0]["prompt"]["z"]["summary_initial"] = "rain\u2028ahead\u2029now\u0085slow"
    merged = tmp_path / "merged.jsonl"
    code, _, err = run(tmp_path, "mixpair", files, options=["--out", str(merged)])
    assert code == 0, err
    assert merged.read_bytes().count(b"\n") == 1
    assert "\u2028" in merged.read_text(encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["stratify", "--records", str(merged)])
    assert code == 0, err.getvalue()
    assert [json.loads(line)["prompt_id"] for line in out.getvalue().splitlines()] == ["in-1+out-1"]


# --- JSONL lines: blank lines and the order of faults ------------------------------------------

def lines_file(lines: list[str]) -> bytes:
    return "".join(line + "\n" for line in lines).encode("utf-8")


def store_line(**change) -> str:
    return json.dumps({**SNIPPET, **change})


@pytest.mark.parametrize("command, name", [("retrieve", "store"), ("validate", "prompts"), ("eval", "records"),
                                           ("mixpair", "in"), ("stratify", "records")])
@pytest.mark.parametrize("blank", ["", " ", "\t", "\r", " \t\r "])
def test_json_whitespace_line_is_blank(tmp_path, command, name, blank):
    files = inputs(command)
    expected = run(tmp_path, command, files)
    files[name] = lines_file([blank] + [json.dumps(record) for record in files[name]] + [blank])
    assert run(tmp_path, command, files) == expected


@pytest.mark.parametrize("command, name", [("retrieve", "store"), ("validate", "prompts"), ("eval", "records"),
                                           ("mixpair", "in"), ("stratify", "records")])
@pytest.mark.parametrize("space", ["\x0b", "\x0c", "\x1c", "\x85", "\xa0", "\u2028", "\u3000"])
def test_line_of_other_whitespace_is_a_bad_line(tmp_path, command, name, space):
    # str.strip counts these as whitespace, JSON does not: such a line was skipped as blank, while the same
    # character before a value already failed
    files = inputs(command)
    for lines in ([space], [space + json.dumps(files[name][0])]):
        files[name] = lines_file([json.dumps(record) for record in files[name][:1]] + lines)
        code, out, err = run(tmp_path, command, files)
        assert (code, out) == (1, "")
        assert err == f"error: BAD_LINE: {tmp_path / f'{name}.jsonl'}:2: Expecting value: line 1 column 1 (char 0)\n"


# The store is decoded line by line as it is parsed; which fault wins, and every BAD_LINE message, is as when
# the whole file was parsed first (expectations taken from the reader that did so).
GOOD_LINES = [store_line(snippet_id=f"s{i}") for i in range(1, 7)]
STORE_FAULTS = [
    pytest.param([GOOD_LINES[0], store_line(snippet_id="b", text=5), GOOD_LINES[1], GOOD_LINES[2], "{oops",
                  GOOD_LINES[3]],
                 "BAD_LINE: {store}:5: Expecting property name enclosed in double quotes: line 1 column 2 (char 1)",
                 id="bad-snippet-2-unparseable-5"),
    pytest.param([GOOD_LINES[0], GOOD_LINES[1], GOOD_LINES[0], store_line(snippet_id="b", layer="weather")],
                 "BAD_SNIPPET: unknown snippet layer 'weather'", id="duplicate-then-bad-snippet"),
    pytest.param([GOOD_LINES[0], GOOD_LINES[1] + " x"], "BAD_LINE: {store}:2: Extra data: line 1 column 348 (char 347)",
                 id="trailing-data"),
    pytest.param([GOOD_LINES[0], GOOD_LINES[1] + " \t{}"],
                 "BAD_LINE: {store}:2: Extra data: line 1 column 349 (char 348)", id="second-value"),
    pytest.param([GOOD_LINES[0], " \t[1, 2,]\r"], "BAD_LINE: {store}:2: Expecting value: line 1 column 9 (char 8)",
                 id="whitespace-around-bad-value"),
    pytest.param([GOOD_LINES[0], '{"snippet_id": Nan}'],
                 "BAD_LINE: {store}:2: Expecting value: line 1 column 16 (char 15)", id="misspelt-nan"),
    pytest.param([GOOD_LINES[0], "NaN"], "BAD_SNIPPET: snippet record must be an object, got nan", id="nan"),
    pytest.param([GOOD_LINES[0], "[" * 100_000 + "]" * 100_000],
                 "BAD_LINE: {store}:2: maximum recursion depth exceeded while decoding a JSON array from a unicode "
                 "string", id="deep-nesting"),
    pytest.param([GOOD_LINES[0], "\ufeff" + GOOD_LINES[1]],
                 "BAD_LINE: {store}:2: Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0)",
                 id="bom-on-line-2"),
]


@pytest.mark.parametrize("lines, error", STORE_FAULTS)
def test_streamed_store_keeps_the_order_of_faults(tmp_path, lines, error):
    code, out, err = run(tmp_path, "retrieve", {"store": lines_file(lines), "prompts": [PROMPT]})
    assert (code, out) == (1, "")
    assert err == "error: " + error.format(store=tmp_path / "store.jsonl") + "\n"


def test_json_whitespace_around_a_value_is_read_past(tmp_path):
    plain = run(tmp_path, "retrieve", {"store": lines_file(GOOD_LINES[:2]), "prompts": [PROMPT]})
    padded = [" \t" + GOOD_LINES[0] + " \t\r", "\t" + GOOD_LINES[1] + "\r"]
    assert run(tmp_path, "retrieve", {"store": lines_file(padded), "prompts": [PROMPT]}) == plain
    assert plain[0] == 0


# Two faults in one input: every command reads each line as it parses and does its record's work there, yet
# raises the fault that it raised when it read the whole file first (expectations taken from that reader).
def rec(**fields) -> str:
    return json.dumps(fields)


GOOD_POLICY = rec(prompt_id="p1", candidate_id="c1", document=POLICY)
SKIPPED_SET = rec(prompt_id="p1", prompt=PROMPT, candidates=[{"document": POLICY}, {"document": POLICY}])
BOM = b"\xef\xbb\xbf"
NOT_ONE_VALUE = "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"
NOT_UTF8 = "error: BAD_FILE: cannot read input {dir}/%s.jsonl: 'utf-8' codec can't decode "
FAULT_ORDER = [
    pytest.param("validate", {"policies": lines_file([rec(prompt_id="p1", document=5), GOOD_POLICY, "{oops"])},
                 f"error: BAD_LINE: {{dir}}/policies.jsonl:3: {NOT_ONE_VALUE}",
                 id="validate-bad-record-then-bad-line"),
    pytest.param("validate", {"policies": lines_file([rec(prompt_id="nope", document=POLICY),
                                                      rec(prompt_id="p1", document=POLICY, extra=1)])},
                 "error: UNKNOWN_PROMPT: {dir}/policies.jsonl: no prompt 'nope'",
                 id="validate-unknown-prompt-then-bad-record"),
    pytest.param("validate", {"policies": lines_file(["{oops", *[GOOD_POLICY] * 20]) + b'{"prompt_id": "p\xff"}\n'},
                 NOT_UTF8 % "policies" + "byte 0xff in position 17242: invalid start byte",
                 id="validate-bad-line-then-not-utf8-past-8kb"),
    pytest.param("validate", {"policies": BOM + lines_file([GOOD_POLICY]) + b'{"prompt_id": "p\xe2\x82\n'},
                 NOT_UTF8 % "policies" + "bytes in position 880-881: invalid continuation byte",
                 id="validate-bom-then-utf8-cut-short-by-lf"),
    pytest.param("validate", {"prompts": lines_file([json.dumps(PROMPT), json.dumps(PROMPT), "[1,"])},
                 "error: BAD_LINE: {dir}/prompts.jsonl:3: Expecting value: line 1 column 4 (char 3)",
                 id="validate-duplicate-prompt-then-bad-line"),
    pytest.param("validate", {"prompts": lines_file([json.dumps(PROMPT), json.dumps(PROMPT), rec(prompt_id=5)])},
                 "error: DUPLICATE_ID: {dir}/prompts.jsonl: prompt 'p1' appears twice",
                 id="validate-duplicate-prompt-then-bad-prompt"),
    pytest.param("pairs", {"candidates": lines_file([SKIPPED_SET, SKIPPED_SET])},
                 "pairs: skip prompt 'p1' (score gap <= 0.0)\n"  # logged before the error, as it was
                 "error: DUPLICATE_ID: {dir}/candidates.jsonl: prompt 'p1' appears twice",
                 id="pairs-skip-then-duplicate"),
    pytest.param("pairs", {"candidates": lines_file([SKIPPED_SET, "{oops"])},
                 f"error: BAD_LINE: {{dir}}/candidates.jsonl:2: {NOT_ONE_VALUE}", id="pairs-skip-then-bad-line"),
    pytest.param("pairs", {"candidates": lines_file([SKIPPED_SET]) + b"\xff\n"},
                 NOT_UTF8 % "candidates" + "byte 0xff in position 2651: invalid start byte",
                 id="pairs-skip-then-not-utf8"),
    pytest.param("pairs", {"candidates": lines_file([
        rec(prompt_id="p1", candidates=[]), rec(prompt_id="p2", prompt=PROMPT, candidates=[{"document": POLICY}])])},
                 "error: BAD_RECORD: candidates must be a non-empty list",
                 id="pairs-no-candidates-then-prompt-mismatch"),
    pytest.param("eval", {"records": lines_file([rec(kind="labels", truth=5, prediction=[]), rec(kind="nope")])},
                 "error: BAD_RECORD: {dir}/records.jsonl: unknown record kind 'nope'",
                 id="eval-labels-fault-then-unknown-kind"),
    pytest.param("eval", {"records": lines_file([rec(kind="strategy", prompt_id="p2", prompt=PROMPT, document=POLICY),
                                                 rec(kind="labels", truth=["a"], prediction=5)])},
                 "error: BAD_RECORD: prediction must be a list of strings, got 5",
                 id="eval-strategy-fault-then-labels-fault"),
    pytest.param("eval", {"records": lines_file([rec(kind="text", reference=5, hypothesis="x"),
                                                 rec(kind="classification", truth=5, prediction="a")])},
                 "error: BAD_RECORD: truth must be a string, got 5", id="eval-text-fault-then-classification-fault"),
    pytest.param("eval", {"records": lines_file([rec(kind="strategy", prompt_id="p2", prompt=PROMPT, document=POLICY),
                                                 rec(kind="strategy", prompt_id="p1", prompt=PROMPT)])},
                 "error: BAD_RECORD: {dir}/records.jsonl: record prompt_id 'p2' differs from its prompt's 'p1'",
                 id="eval-two-strategy-faults"),
    pytest.param("eval", {"records": lines_file([rec(kind="labels", truth=5, prediction=[]), "{oops"])},
                 f"error: BAD_LINE: {{dir}}/records.jsonl:2: {NOT_ONE_VALUE}", id="eval-labels-fault-then-bad-line"),
    pytest.param("eval", {"records": lines_file([rec(kind="nope")]) + b'"\xc3'},
                 NOT_UTF8 % "records" + "byte 0xc3 in position 18: unexpected end of data",
                 id="eval-unknown-kind-then-utf8-cut-short-by-the-end"),
    pytest.param("retrieve", {"store": lines_file([store_line(), store_line(snippet_id="s2", layer="weather")]),
                              "prompts": lines_file(["{oops"])},
                 "error: BAD_SNIPPET: unknown snippet layer 'weather'", id="retrieve-bad-snippet-then-bad-prompt-line"),
    pytest.param("retrieve", {"prompts": lines_file([rec(prompt_id=5), rec(prompt_id="p2", z=5)])},
                 "error: BAD_RECORD: prompt_id must be a string, got 5", id="retrieve-two-bad-prompts"),
    pytest.param("retrieve", {"prompts": lines_file([rec(prompt_id=5), "{oops"])},
                 f"error: BAD_LINE: {{dir}}/prompts.jsonl:2: {NOT_ONE_VALUE}", id="retrieve-bad-prompt-then-bad-line"),
    pytest.param("retrieve", {"store": BOM + lines_file([store_line(), "{oops"])},
                 "error: BAD_FILE: cannot read input {dir}/store.jsonl: starts with a UTF-8 byte order mark",
                 id="retrieve-bom-then-bad-line"),
]


@pytest.mark.parametrize("command, files, stderr", FAULT_ORDER)
def test_of_two_faults_the_whole_file_readers_wins(tmp_path, command, files, stderr):
    code, out, err = run(tmp_path, command, {**inputs(command), **files})
    assert (code, out) == (1, "")
    assert err == stderr.replace("{dir}", str(tmp_path)) + "\n"


# A line ends at LF only: a lone CR is JSON whitespace, like the CR of a CRLF ending.

def test_a_lone_cr_does_not_end_a_line(tmp_path):
    first, second, third = (json.dumps(sample(f"r{i}")) for i in range(3))
    code, out, err = run(tmp_path, "stratify", {"records": f"{first}\r{second}\r\n{third}\n".encode("utf-8")})
    assert (code, out) == (1, "")
    at = len(first) + 1  # the second value, past the CR
    assert err == f"error: BAD_LINE: {tmp_path / 'records.jsonl'}:1: Extra data: line 1 column {at + 1} (char {at})\n"


def test_a_cr_inside_a_value_is_json_whitespace(tmp_path):
    plain = run(tmp_path, "stratify", inputs("stratify"))
    line = json.dumps(sample("r1")).replace('"split": ', '"split":\r', 1)
    assert run(tmp_path, "stratify", {"records": (line + "\n").encode("utf-8")}) == plain
    assert plain[0] == 0


@pytest.mark.parametrize("command", sorted(COMMANDS))
@pytest.mark.parametrize("tail", [b"", b'{"a":\n'], ids=["valid", "bad-last-line"])
def test_a_crlf_file_reads_as_its_lf_twin(tmp_path, command, tail):
    lf = {name: jsonl(records) + tail for name, records in inputs(command).items()}
    crlf = {name: data.replace(b"\n", b"\r\n") for name, data in lf.items()}
    result = run(tmp_path, command, lf)
    assert run(tmp_path, command, crlf) == result
    assert result[0] == (1 if tail else 0)


# Bytes a JSONL file may hold: line ends, JSON and other whitespace, byte order marks, values, bytes that are
# not UTF-8 or end a sequence early, and a value long enough to carry a fault past the first 8 KB.
LINE_PIECES = [b"\n", b"\r", b"\r\n", b" ", b"\t", BOM, b"\xff", b"\xc3", b"\xe2\x82", b"\xed\xa0\x80", b"\xc2\xa0",
               b"1", b"[1, 2]", b'{"a": "\xc3\xa9"}', b'"x\xe2\x80\xa8y"', b"null", b"NaN", b"{", b"]",
               b'"' + b"x" * 8200 + b'"']


@settings(max_examples=400, deadline=None)
@given(st.booleans(), st.lists(st.one_of(st.sampled_from(LINE_PIECES), st.binary(max_size=3)), max_size=24))
def test_the_streamed_reader_equals_the_whole_file_reader(leading_bom, pieces):
    data = (BOM if leading_bom else b"") + b"".join(pieces)
    values = []
    with tempfile.TemporaryDirectory() as directory:
        path = str(Path(directory) / "input.jsonl")
        Path(path).write_bytes(data)
        try:
            _read_jsonl(path, lambda value, number: values.append(value))
        except InputError as error:
            values = f"{error.code}: {error.message}"
    assert repr(values) == repr(jsonl_reference(data, path))


# --- side files through the CLI ----------------------------------------------------------------

GLANCE_RULES = "# trigger\tscopes\thazard\nlooks around\tsummaries\tglance\n"
NOMINAL_ANGER = {"heads": {**VOCAB["heads"], "emotion": {"labels": ["neutral", "anger"], "nominal": "anger"}}}


def side_run(directory: Path, command: str, field: str, data: str) -> tuple[int, str, str]:
    """Run ``command`` on its valid inputs with ``data`` as the side file named by config ``field``."""
    (directory / "side").write_text(data, encoding="utf-8")
    return run(directory, command, inputs(command), {field: "side"})


def report_of(out: str) -> dict:
    return json.loads(out)["report"]


def test_lexicon_file_sets_the_low_level_matches(tmp_path):
    _, out, _ = run(tmp_path, "validate", inputs("validate"))
    assert report_of(out)["low_level_matches"] == []
    code, out, err = side_run(tmp_path, "validate", "lexicon_path", "# custom\nkeep\n")
    assert code == 0, err
    assert report_of(out)["low_level_matches"] == [
        {"action_index": 0, "matched_pattern": "keep", "matched_text": "keep"}]


def test_rules_file_sets_the_derived_hazards(tmp_path):
    _, out, _ = run(tmp_path, "validate", inputs("validate"))
    assert "glance" not in report_of(out)["hazards_truth"]
    code, out, err = side_run(tmp_path, "validate", "hazard_rules_path", GLANCE_RULES)
    assert code == 0, err
    assert report_of(out)["hazards_truth"] == ["glance"]


def test_vocabulary_file_moves_the_stratify_group(tmp_path):
    _, out, _ = run(tmp_path, "stratify", inputs("stratify"))
    assert json.loads(out)["group"] == "interaction_critical"
    code, out, err = side_run(tmp_path, "stratify", "label_vocab_path", json.dumps(NOMINAL_ANGER))
    assert code == 0, err
    assert json.loads(out)["group"] == "env_critical"


@pytest.mark.parametrize("keyword, passed", [
    # the wrapped pattern matches the empty string at word boundaries; an empty match is no hit
    (r"\b", True), ("(?=a)", True),
    # a keyword hit after an empty match at the same place still counts
    (r"\b|keep", False), ("keep", False),
])
def test_forbidden_keyword_hits_only_with_text(tmp_path, keyword, passed):
    files = inputs("validate")
    files["prompts"][0]["constraints"][0]["assertions"]["forbidden_keywords"] = [keyword]
    code, out, err = run(tmp_path, "validate", files)
    assert code == 0, err
    check = {c["check_id"]: c for c in report_of(out)["checks"]}["legal.forbidden_keyword"]
    assert check["passed"] is passed
    hit = f"action 0 matches {keyword!r} (clause c1)"
    assert check["detail"] == ("no forbidden keyword present" if passed else hit)


def test_nested_set_patterns_leave_no_warning_on_stderr(tmp_path):
    # re emits "FutureWarning: Possible nested set" when it compiles "[["; stderr must stay the summary line
    files = inputs("validate")
    files["prompts"][0]["constraints"][0]["assertions"]["forbidden_keywords"] = ["accel[[e]rate"]
    argv = ["--config", str(tmp_path / "config.json"), "validate"]
    for name, records in files.items():
        (tmp_path / f"{name}.jsonl").write_bytes(jsonl(records))
        argv += [f"--{name}", str(tmp_path / f"{name}.jsonl")]
    (tmp_path / "side").write_text("ke[[e]p\n", encoding="utf-8")
    (tmp_path / "config.json").write_text(json.dumps({"lexicon_path": "side"}), encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": str(Path(ecpo.__file__).resolve().parent.parent)}
    result = subprocess.run([sys.executable, "-m", "ecpo.cli", *argv], env=env, capture_output=True, text=True,
                            timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stderr.splitlines() == ["validate: 1 records, valid_pct=100.00"]
    assert report_of(result.stdout)["low_level_matches"] == [
        {"action_index": 0, "matched_pattern": "ke[[e]p", "matched_text": "keep"}]


# A side file's line ends at LF only, as a JSONL line does: split at the character, "(keep" would not compile and
# "looks" would be a rule of one field. Split at LF, each fails with its file's code (the control).
@pytest.mark.parametrize("field, data, error_code", [
    ("lexicon_path", "(keep{}around)\n", "BAD_LEXICON_PATTERN"),
    ("hazard_rules_path", "looks{}around\tsummaries\tglance\n", "BAD_RULE"),
], ids=["lexicon", "rules"])
@pytest.mark.parametrize("inside", ["\r", "\u2028", "\x85", "\n"], ids=["cr", "u2028", "u0085", "lf"])
def test_only_lf_ends_a_side_file_line(tmp_path, field, data, error_code, inside):
    code, out, err = side_run(tmp_path, "validate", field, data.format(inside))
    if inside == "\n":
        assert (code, out) == (2, "") and err.startswith(f"error: {error_code}: ")
    else:
        assert (code, err) == (0, "validate: 1 records, valid_pct=100.00\n")


# A side file is read whole before it is parsed: a byte that is not UTF-8 or a leading byte order mark wins over
# a bad pattern or rule on an earlier line.
@pytest.mark.parametrize("field, data, error", [
    ("lexicon_path", b"steer(\n\xff\n", "BAD_LEXICON_PATTERN: cannot read lexicon {side}: 'utf-8' codec can't "
                                          "decode byte 0xff in position 7: invalid start byte"),
    ("lexicon_path", BOM + b"steer(\n", "BAD_LEXICON_PATTERN: cannot read lexicon {side}: starts with a UTF-8 "
                                         "byte order mark"),
    ("hazard_rules_path", b"one field\n\xc3", "BAD_RULE: cannot read rule file {side}: 'utf-8' codec can't decode "
                                               "byte 0xc3 in position 10: unexpected end of data"),
    ("hazard_rules_path", BOM + b"one field\n", "BAD_RULE: cannot read rule file {side}: starts with a UTF-8 byte "
                                                "order mark"),
], ids=["lexicon-not-utf8", "lexicon-bom", "rules-utf8-cut-short", "rules-bom"])
def test_a_side_files_whole_file_fault_wins(tmp_path, field, data, error):
    (tmp_path / "side").write_bytes(data)
    code, out, err = run(tmp_path, "validate", inputs("validate"), {field: "side"})
    assert (code, out) == (2, "")
    assert err == f"error: {error.format(side=(tmp_path / 'side').resolve())}\n"


def test_a_json_side_file_error_counts_the_cr_of_a_crlf(tmp_path):
    # the CRs of lines 1 and 2 count: read as its LF twin, the "}" would be char 15
    code, out, err = side_run(tmp_path, "stratify", "label_vocab_path", '{\r\n"heads": {},\r\n}\r\n')
    assert (code, out) == (2, "")
    assert err.endswith(": Expecting property name enclosed in double quotes: line 3 column 1 (char 17)\n")


@pytest.mark.parametrize("command, field, data, error_code", [
    pytest.param("validate", "lexicon_path", "keep\nsteer(\n", "BAD_LEXICON_PATTERN", id="lexicon-unbalanced"),
    pytest.param("validate", "lexicon_path", "(" * 2000 + ")" * 2000, "BAD_LEXICON_PATTERN", id="lexicon-nested-deep"),
    pytest.param("validate", "lexicon_path", "keep\nx?\n", "BAD_LEXICON_PATTERN", id="lexicon-matches-empty"),
    pytest.param("validate", "lexicon_path", "keep\na)|(b\n", "BAD_LEXICON_PATTERN", id="lexicon-escapes-wrap"),
    # a leading byte order mark would be part of line 1: "\ufeffkeep" never matches, "\ufeff#" is no comment
    pytest.param("validate", "lexicon_path", "\ufeffkeep\n", "BAD_LEXICON_PATTERN", id="lexicon-bom"),
    pytest.param("validate", "hazard_rules_path", "\ufefflooks around\tsummaries\tglance\n", "BAD_RULE", id="rules-bom"),
    pytest.param("validate", "hazard_rules_path", "looks around\tglance\n", "BAD_RULE", id="rules-two-fields"),
    pytest.param("stratify", "label_vocab_path",
                 json.dumps({"heads": {**VOCAB["heads"], "emotion": {"labels": ["neutral"], "nominal": "anger"}}}),
                 "BAD_VOCAB", id="vocab-nominal-outside-labels"),
])
def test_malformed_side_file_fails_with_its_code(tmp_path, command, field, data, error_code):
    code, out, err = side_run(tmp_path, command, field, data)
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1
    assert err.startswith(f"error: {error_code}: ")


# --- unreadable files -----------------------------------------------------------------------

NOT_UTF8 = b'{"prompt_id": "caf\xe9"}\n'
DEEP = b"[" * 100_000 + b"]" * 100_000

# (command, replaced input files, (config field or "config", bytes), exit code, error code, named file).
# A replaced input is bytes, None for a missing file or "dir" for a directory; a side file is written as
# "side" and named by the config field.
HOSTILE = [
    pytest.param("validate", {"prompts": NOT_UTF8}, None, 1, "BAD_FILE", "prompts.jsonl", id="prompts-not-utf8"),
    pytest.param("retrieve", {"store": NOT_UTF8}, None, 1, "BAD_FILE", "store.jsonl", id="store-not-utf8"),
    pytest.param("eval", {"records": DEEP + b"\n"}, None, 1, "BAD_LINE", "records.jsonl:1: ",
                 id="records-nested-deep"),
    pytest.param("validate", {}, ("lexicon_path", b"steer\xe9\n"), 2, "BAD_LEXICON_PATTERN", "side",
                 id="lexicon-not-utf8"),
    pytest.param("validate", {}, ("hazard_rules_path", b"rain\t*\twet_road\xe9\n"), 2, "BAD_RULE", "side",
                 id="rules-not-utf8"),
    pytest.param("validate", {}, ("config", DEEP), 2, "BAD_CONFIG", "config.json", id="config-nested-deep"),
    pytest.param("stratify", {}, ("label_vocab_path", DEEP), 2, "BAD_VOCAB", "side", id="vocab-nested-deep"),
    # controls
    pytest.param("validate", {"prompts": None}, None, 1, "MISSING_FILE", "prompts.jsonl", id="missing-input"),
    pytest.param("validate", {"prompts": "dir"}, None, 1, "BAD_FILE", "prompts.jsonl", id="directory-input"),
]


@pytest.mark.parametrize("command, replaced, side, exit_code, error_code, named", HOSTILE)
def test_unreadable_file_fails_with_its_files_code(tmp_path, command, replaced, side, exit_code, error_code, named):
    files = {**inputs(command), **replaced}
    for name, value in replaced.items():
        if value == "dir":
            (tmp_path / f"{name}.jsonl").mkdir()
            files[name] = None
    config = None
    if side is not None:
        field, data = side
        if field == "config":
            config = data
        else:
            (tmp_path / "side").write_bytes(data)
            config = {field: "side"}
    code, out, err = run(tmp_path, command, files, config)
    assert (code, out) == (exit_code, ""), err
    assert len(err.splitlines()) == 1
    assert err.startswith(f"error: {error_code}: ")
    assert named in err and "INTERNAL" not in err


# --- fuzz ---------------------------------------------------------------------------------

FUZZ_VALUES = [None, True, 0, -1, 1.5, float("nan"), float("inf"), "", "x", [], ["x"], [1], {}, {"a": 1}]

# The field table of each input file's records, by (command, file name); eval records by their kind.
FILE_TABLES = {
    ("validate", "policies"): VALIDATE_FIELDS,
    ("validate", "prompts"): PROMPT_FIELDS,
    ("pairs", "candidates"): PAIRS_FIELDS,
    ("retrieve", "store"): SNIPPET_FIELDS,
    ("retrieve", "prompts"): PROMPT_FIELDS,
    ("mixpair", "in"): SAMPLE_FIELDS,
    ("mixpair", "out"): SAMPLE_FIELDS,
    ("stratify", "records"): SAMPLE_FIELDS,
}
# The table of each record nested in another, by the field holding it (or a list of them).
NESTED_TABLES = {"prompt": PROMPT_FIELDS, "z": Z_FIELDS, "driver": DRIVER_FIELDS, "vehicle": VEHICLE_FIELDS,
                 "constraints": SNIPPET_FIELDS, "assertions": ASSERTION_FIELDS, "candidates": CANDIDATE_FIELDS}
# Objects with free keys that a mutation may still reach into.
FREE = {"ground_truth_labels", "penalty_table"}
# A key no record declares: writing it is the "extra key" mutation.
EXTRA = "unexpected_field"


def table_of(command: str, name: str, record: dict) -> dict:
    return EVAL_FIELDS[record["kind"]][0] if command == "eval" else FILE_TABLES[command, name]


def records_in(record: dict, table: dict, path: tuple = ()) -> list[tuple]:
    """(path, table) of ``record`` and of every record nested in it."""
    found = [(path, table)]
    for key in [key for key in NESTED_TABLES if key in table]:
        value = record.get(key)
        items = [(path + (key,), value)] if isinstance(value, dict) else list(
            ((path + (key, index), item) for index, item in enumerate(value or ())))
        for sub_path, item in items:
            found.extend(records_in(item, NESTED_TABLES[key], sub_path))
    return found


def at(value: object, path: tuple) -> object:
    for key in path:
        value = value[key]
    return value


def sites(record: dict, table: dict) -> list[tuple]:
    """Paths to every field of ``record`` and of the records nested in it, taken from their tables, to each
    key of their free objects, and to the ``EXTRA`` key of each."""
    found = []
    for path, fields in records_in(record, table):
        found += [path + (key,) for key in (*fields, EXTRA)]
        found += [path + (key, name) for key in FREE if key in fields for name in at(record, path).get(key, {})]
    return found


FUZZ_TARGETS = [
    (command, target, site)
    for command, (_, files) in COMMANDS.items()
    for target, site in [("config", (key,)) for key in CONFIG]
    + [("config", ("penalty_table", key)) for key in CONFIG["penalty_table"]]
    + [((name, index), site) for name, records in files.items()
       for index, record in enumerate(records) for site in sites(record, table_of(command, name, record))]
]

# Every record the CLI reads, with the code its unknown keys fail with.
RECORD_CODES = {id(DRIVER_FIELDS): "BAD_PROFILE", id(VEHICLE_FIELDS): "BAD_PROFILE",
                id(SNIPPET_FIELDS): "BAD_SNIPPET", id(ASSERTION_FIELDS): "BAD_SNIPPET"}
RECORD_SITES = [
    pytest.param(command, name, index, path, RECORD_CODES.get(id(fields), "BAD_RECORD"),
                 id="-".join(map(str, (command, name, index, *path))))
    for command, (_, files) in COMMANDS.items()
    for name, records in files.items()
    for index, record in enumerate(records)
    for path, fields in records_in(record, table_of(command, name, record))
]


@pytest.mark.parametrize("command, name, index, path, error_code", RECORD_SITES)
def test_extra_key_fails_with_its_records_code(tmp_path, command, name, index, path, error_code):
    files = inputs(command)
    at(files[name][index], path)[EXTRA] = "x"
    code, out, err = run(tmp_path, command, files)
    assert (code, out) == (1, "")
    assert len(err.splitlines()) == 1
    assert err.startswith(f"error: {error_code}: ") and repr(EXTRA) in err


@pytest.mark.parametrize("command, name, path, key, value, error_code", [
    pytest.param("validate", "prompts", ("z",), "summary_intial", "heavy rain", "BAD_RECORD", id="z-summary-intial"),
    pytest.param("retrieve", "prompts", (), "drivr", {}, "BAD_RECORD", id="prompt-drivr"),
    pytest.param("retrieve", "store", (), "jurisdicton", "EU", "BAD_SNIPPET", id="snippet-jurisdicton"),
    pytest.param("eval", "records", (), "sed", 1, "BAD_RECORD", id="eval-strategy-sed"),
])
def test_misspelled_field_is_named_not_dropped(tmp_path, command, name, path, key, value, error_code):
    # each exited 0 with the field's default in place of the value when unknown keys were dropped
    files = inputs(command)
    at(files[name][0], path)[key] = value
    code, out, err = run(tmp_path, command, files)
    assert (code, out) == (1, "")
    assert len(err.splitlines()) == 1
    assert err.startswith(f"error: {error_code}: ") and repr(key) in err


ERROR_LINE = re.compile(r"error: [A-Z][A-Z0-9_]*: ")


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(FUZZ_TARGETS), st.sampled_from(FUZZ_VALUES))
def test_one_mistyped_field_never_escapes_the_error_contract(target, value):
    command, where, site = target
    files, config = inputs(command), copy.deepcopy(CONFIG)
    holder = config if where == "config" else files[where[0]][where[1]]
    for key in site[:-1]:
        holder = holder[key]
    holder[site[-1]] = copy.deepcopy(value)
    with tempfile.TemporaryDirectory() as directory:
        code, _, err = run(Path(directory), command, files, config)
    assert_error_contract(code, err)


def assert_error_contract(code: int, err: str) -> None:
    assert code in (0, 1, 2), err
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(errors) == (0 if code == 0 else 1), err
    assert all(ERROR_LINE.match(line) for line in errors), err
    assert "INTERNAL" not in err and "Traceback" not in err


# Side files by config field: (file name, well-formed text, a command that loads it).
SIDE_FILES = {
    "lexicon_path": ("lexicon.txt", "# low-level control\nthrottle\nkeep\n", "validate"),
    "hazard_rules_path": ("rules.tsv", GLANCE_RULES, "validate"),
    "label_vocab_path": ("vocab.json", json.dumps(VOCAB), "stratify"),
}

# Every file the CLI reads, as (command, input file name, "config" or side-file config field).
BYTE_TARGETS = (
    [(command, name) for command, (_, files) in COMMANDS.items() for name in files]
    + [(command, "config") for command in COMMANDS]
    + [(command, field) for field, (_, _, command) in SIDE_FILES.items()]
)

NESTING = 100_000
# Bytes inserted into a file; a BOM is inserted at its start.
BYTE_MUTATIONS = {
    "invalid-utf8": b"\xff",
    "truncated-utf8": b"\xc3",
    "encoded-surrogate": b"\xed\xa0\x80",
    "bom": b"\xef\xbb\xbf",
    "nul": b"\x00",
    "lone-cr": b"\r",
    "deep-arrays": b"[" * NESTING + b"]" * NESTING,
    "deep-groups": b"(" * NESTING + b")" * NESTING,
}


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(BYTE_TARGETS), st.sampled_from(sorted(BYTE_MUTATIONS)), st.integers(min_value=0))
def test_one_mutated_file_never_escapes_the_error_contract(target, mutation, position):
    command, name = target
    config = dict(CONFIG)
    blobs = {file: jsonl(records) for file, records in inputs(command).items()}
    if name in SIDE_FILES:
        file_name, text, _ = SIDE_FILES[name]
        config[name] = file_name
        blobs[file_name] = text.encode("utf-8")
        name = file_name
    blobs["config"] = raw(config)
    data = blobs[name]
    at = 0 if mutation == "bom" else position % (len(data) + 1)
    blobs[name] = data[:at] + BYTE_MUTATIONS[mutation] + data[at:]
    with tempfile.TemporaryDirectory() as directory:
        directory = Path(directory)
        for file_name, _, _ in SIDE_FILES.values():
            if file_name in blobs:
                (directory / file_name).write_bytes(blobs[file_name])
        files = {file: blobs[file] for file in COMMANDS[command][1]}
        code, _, err = run(directory, command, files, blobs["config"])
    assert_error_contract(code, err)
