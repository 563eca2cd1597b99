import hashlib
import json
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import ecpo
from ecpo import cli
from ecpo.cli import main
from ecpo.context import DEFAULT_LABEL_VOCAB, SPLITS, STRATIFY_HEADS, prompt_to_dict, sample_to_dict
from ecpo.errors import shown
from ecpo.policy import parse_policy
from ecpo.store import snippet_to_dict
from conftest import bench_inputs, make_sample


def write_jsonl(path, records):
    path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
    return str(path)


def run_cli(argv, capsys):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    lines = [json.loads(line) for line in captured.out.splitlines() if line]
    return code, lines, captured.err


@pytest.fixture
def rain_files(tmp_path, rain_prompt, rain_policy_dict):
    prompts = write_jsonl(tmp_path / "prompts.jsonl", [prompt_to_dict(rain_prompt)])
    policies = write_jsonl(
        tmp_path / "policies.jsonl",
        [{"prompt_id": "rain-01", "candidate_id": "c1", "document": rain_policy_dict}],
    )
    return prompts, policies


# --- validate ---------------------------------------------------------------------------


def test_validate_end_to_end(rain_files, capsys):
    prompts, policies = rain_files
    code, lines, err = run_cli(["validate", "--policies", policies, "--prompts", prompts], capsys)
    assert code == 0
    assert len(lines) == 1
    record = lines[0]
    assert (record["kind"], record["prompt_id"], record["candidate_id"]) == ("report", "rain-01", "c1")
    assert record["report"]["ecpo"] == 1.0
    assert record["config"]["ecpo_weights"] == [0.5, 0.3, 0.2]
    assert "valid_pct=100.00" in err


def test_validate_defaults_candidate_id_to_index(tmp_path, rain_prompt, rain_policy_dict, capsys):
    prompts = write_jsonl(tmp_path / "p.jsonl", [prompt_to_dict(rain_prompt)])
    policies = write_jsonl(tmp_path / "d.jsonl", [{"prompt_id": "rain-01", "document": rain_policy_dict}])
    code, lines, _ = run_cli(["validate", "--policies", policies, "--prompts", prompts], capsys)
    assert code == 0
    assert lines[0]["candidate_id"] == "0"


def test_validate_out_file_reruns_byte_identical(rain_files, tmp_path, capsys):
    prompts, policies = rain_files
    out_a = tmp_path / "a.jsonl"
    out_b = tmp_path / "b.jsonl"
    for out in (out_a, out_b):
        code = main(["--out", str(out), "validate", "--policies", policies, "--prompts", prompts])
        assert code == 0
    capsys.readouterr()
    assert out_a.read_bytes() == out_b.read_bytes()
    assert out_a.read_bytes().endswith(b"\n")


def test_validate_empty_input_writes_nothing(tmp_path, rain_prompt, capsys):
    prompts = write_jsonl(tmp_path / "p.jsonl", [prompt_to_dict(rain_prompt)])
    policies = tmp_path / "empty.jsonl"
    policies.write_text("", encoding="utf-8")
    out = tmp_path / "out.jsonl"
    code = main(["--out", str(out), "validate", "--policies", str(policies), "--prompts", prompts])
    capsys.readouterr()
    assert code == 0
    assert out.read_text(encoding="utf-8") == ""


def test_validate_unknown_prompt_exits_1(tmp_path, rain_prompt, rain_policy_dict, capsys):
    prompts = write_jsonl(tmp_path / "p.jsonl", [prompt_to_dict(rain_prompt)])
    policies = write_jsonl(tmp_path / "d.jsonl", [{"prompt_id": "ghost", "document": rain_policy_dict}])
    code, lines, err = run_cli(["validate", "--policies", policies, "--prompts", prompts], capsys)
    assert code == 1
    assert not lines
    assert "UNKNOWN_PROMPT" in err


def test_validate_missing_file_exits_1(tmp_path, rain_prompt, capsys):
    prompts = write_jsonl(tmp_path / "p.jsonl", [prompt_to_dict(rain_prompt)])
    code, _, err = run_cli(["validate", "--policies", tmp_path / "nope.jsonl", "--prompts", prompts], capsys)
    assert code == 1
    assert "MISSING_FILE" in err


def assert_one_error(err: str, code: str) -> None:
    assert len(err.splitlines()) == 1
    assert err.startswith(f"error: {code}: ")
    assert "Traceback" not in err


def prompt_argv(tmp_path, command, prompt, document):
    """argv running ``validate`` or ``retrieve`` on one prompt record."""
    prompts = write_jsonl(tmp_path / "p.jsonl", [prompt])
    if command == "validate":
        policies = write_jsonl(tmp_path / "d.jsonl", [{"prompt_id": prompt["prompt_id"], "document": document}])
        return ["validate", "--policies", policies, "--prompts", prompts]
    store = write_jsonl(tmp_path / "s.jsonl", [{"snippet_id": "a", "layer": "legal", "clause_id": "c",
                                               "text": "keep right"}])
    return ["retrieve", "--store", store, "--prompt", prompts]


@pytest.mark.parametrize("bound", [["a", 1], [True, 5], [0, float("nan")], [float("-inf"), 1], [0, 10**400]])
@pytest.mark.parametrize("command", ["validate", "retrieve"])
def test_mistyped_capability_bound_exits_1(tmp_path, rain_prompt, rain_policy_dict, bound, command, capsys):
    prompt = prompt_to_dict(rain_prompt)
    prompt["vehicle"] = {"available_actuators": ["Hvac"], "capability_limits": {"Hvac": {"temp": bound}}}
    code, lines, err = run_cli(prompt_argv(tmp_path, command, prompt, rain_policy_dict), capsys)
    assert code == 1
    assert lines == []
    assert_one_error(err, "BAD_PROFILE")


@pytest.mark.parametrize(
    "section, value",
    [
        ("driver", {"cabin_preferences": {"temperature_band": [0, float("nan")]}}),
        ("vehicle", {"available_actuators": ["Hvac"], "capability_limits": {"Hvac": [14, 30]}}),
    ],
)
@pytest.mark.parametrize("command", ["validate", "retrieve"])
def test_malformed_profile_exits_1(tmp_path, rain_prompt, rain_policy_dict, section, value, command, capsys):
    prompt = prompt_to_dict(rain_prompt)
    prompt[section] = value
    code, lines, err = run_cli(prompt_argv(tmp_path, command, prompt, rain_policy_dict), capsys)
    assert code == 1
    assert lines == []
    assert_one_error(err, "BAD_PROFILE")


@pytest.mark.parametrize("prompt_id", [["rain-01"], {"id": "rain-01"}, 7, None])
def test_validate_non_string_prompt_id_exits_1(tmp_path, rain_prompt, rain_policy_dict, prompt_id, capsys):
    prompts = write_jsonl(tmp_path / "p.jsonl", [prompt_to_dict(rain_prompt)])
    policies = write_jsonl(tmp_path / "d.jsonl", [{"prompt_id": prompt_id, "document": rain_policy_dict}])
    code, lines, err = run_cli(["validate", "--policies", policies, "--prompts", prompts], capsys)
    assert code == 1
    assert lines == []
    assert_one_error(err, "BAD_RECORD")


@pytest.mark.parametrize("prompt_id", [["rain-01"], {"id": "rain-01"}, 7, None])
@pytest.mark.parametrize("command", ["pairs", "eval"])
def test_pairs_and_eval_non_string_prompt_id_exits_1(tmp_path, rain_prompt, rain_policy_dict, prompt_id, command,
                                                     capsys):
    prompt = prompt_to_dict(rain_prompt)
    if command == "pairs":
        row = {"prompt_id": prompt_id, "prompt": prompt, "candidates": [{"document": rain_policy_dict}]}
        argv = ["pairs", "--candidates", write_jsonl(tmp_path / "c.jsonl", [row])]
    else:
        row = {"kind": "strategy", "prompt_id": prompt_id, "prompt": prompt, "document": rain_policy_dict}
        argv = ["eval", "--records", write_jsonl(tmp_path / "r.jsonl", [row])]
    code, lines, err = run_cli(argv, capsys)
    assert code == 1
    assert lines == []
    assert_one_error(err, "BAD_RECORD")


@pytest.mark.parametrize("ids", [[1, "b"], ["a", 2], [1, 2]])
def test_pairs_non_string_candidate_id_exits_1(tmp_path, rain_policy_dict, ids, capsys):
    # equal documents score equal, so the tie-break compares the ids
    row = {"prompt_id": "p1", "candidates": [{"candidate_id": i, "document": rain_policy_dict} for i in ids]}
    code, lines, err = run_cli(["pairs", "--candidates", write_jsonl(tmp_path / "c.jsonl", [row])], capsys)
    assert code == 1
    assert lines == []
    assert_one_error(err, "BAD_RECORD")


@pytest.mark.parametrize("command", ["validate", "retrieve"])
def test_config_echoed_once_per_run(tmp_path, rain_prompt, command, monkeypatch, capsys):
    if command == "validate":
        prompts = write_jsonl(tmp_path / "p.jsonl", [prompt_to_dict(rain_prompt)])
        policies = write_jsonl(tmp_path / "d.jsonl", [{"prompt_id": "rain-01", "document": "{broken"}] * 3)
        argv = ["validate", "--policies", policies, "--prompts", prompts]
    else:
        prompts = write_jsonl(tmp_path / "p.jsonl", [prompt_to_dict(rain_prompt)] * 3)
        store = write_jsonl(tmp_path / "s.jsonl", [{"snippet_id": "a", "layer": "legal", "clause_id": "c",
                                                   "text": "slow down in rain"}])
        argv = ["retrieve", "--store", store, "--prompt", prompts]
    calls = []
    echo = cli.RunConfig.echo
    monkeypatch.setattr(cli.RunConfig, "echo", lambda self: calls.append(self) or echo(self))
    code, lines, _ = run_cli(argv, capsys)
    assert code == 0
    assert len(calls) == 1
    assert [line["config"] for line in lines] == [echo(cli.RunConfig())] * 3


def test_weights_flag_overrides_config(rain_files, capsys):
    prompts, policies = rain_files
    code, lines, _ = run_cli(
        ["--weights", "0.7,0.15,0.15", "validate", "--policies", policies, "--prompts", prompts], capsys
    )
    assert code == 0
    assert lines[0]["report"]["weights_used"] == [0.7, 0.15, 0.15]
    assert lines[0]["config"]["ecpo_weights"] == [0.7, 0.15, 0.15]


def test_bad_weights_flag_exits_2(rain_files, capsys):
    prompts, policies = rain_files
    for raw in ("0.5,0.5", "a,b,c", "0.6,0.3,0.3", "nan,0.5,0.5"):
        code, lines, err = run_cli(
            ["--weights", raw, "validate", "--policies", policies, "--prompts", prompts], capsys
        )
        assert code == 2
        assert not lines
        assert "BAD_WEIGHTS" in err


def test_config_file_governs_run(rain_files, tmp_path, capsys):
    prompts, policies = rain_files
    config_path = tmp_path / "run.json"
    config_path.write_text(json.dumps({"ecpo_weights": [0.4, 0.3, 0.3], "top_k": 2}), encoding="utf-8")
    code, lines, _ = run_cli(
        ["--config", config_path, "validate", "--policies", policies, "--prompts", prompts], capsys
    )
    assert code == 0
    assert lines[0]["config"]["ecpo_weights"] == [0.4, 0.3, 0.3]
    assert lines[0]["config"]["top_k"] == 2


def test_bad_config_file_exits_2(rain_files, tmp_path, capsys):
    prompts, policies = rain_files
    config_path = tmp_path / "bad.json"
    config_path.write_text(json.dumps({"ecpo_weights": [0.9, 0.3, 0.3]}), encoding="utf-8")
    code, _, err = run_cli(
        ["--config", config_path, "validate", "--policies", policies, "--prompts", prompts], capsys
    )
    assert code == 2
    assert "BAD_WEIGHTS" in err


@pytest.mark.parametrize("weights", [["a", 0.3, 0.2], ["0.5", "0.3", "0.2"], 1.0, [1e400, 0, 0]])
def test_mistyped_config_weights_exit_2(rain_files, tmp_path, weights, capsys):
    prompts, policies = rain_files
    config_path = tmp_path / "bad.json"
    config_path.write_text(json.dumps({"ecpo_weights": weights}), encoding="utf-8")
    code, lines, err = run_cli(
        ["--config", config_path, "validate", "--policies", policies, "--prompts", prompts], capsys
    )
    assert code == 2
    assert lines == []
    assert_one_error(err, "BAD_WEIGHTS")


UNREAD_FILES = ["--policies", "p.jsonl", "--prompts", "q.jsonl"]


@pytest.mark.parametrize("argv", [["validate"], ["--top-k", "x", "validate", *UNREAD_FILES],
                                  ["--verbose", "validate", *UNREAD_FILES], ["frobnicate"],
                                  ["--top-k", "x" * 10_000, "validate", *UNREAD_FILES]],
                         ids=["no-flags", "bad-top-k", "unknown-flag", "unknown-command", "long-top-k"])
def test_usage_error_is_one_bad_args_line(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert_one_error(captured.err, "BAD_ARGS")
    assert len(captured.err) < 300


@pytest.mark.parametrize("value", [sys.maxsize + 1, 10**30], ids=["maxsize-plus-1", "ten-to-the-30"])
@pytest.mark.parametrize("field, code", [("j_max", "BAD_J_MAX"), ("top_k", "BAD_TOP_K"),
                                         ("token_budget", "BAD_BUDGET"), ("block_size", "BAD_BLOCK_SIZE")])
def test_a_count_past_the_largest_index_is_a_config_error(tmp_path, field, code, value, capsys):
    config_path = tmp_path / "run.json"
    config_path.write_text(json.dumps({field: value}), encoding="utf-8")
    code_run, lines, err = run_cli(["--config", config_path, "validate", *UNREAD_FILES], capsys)
    assert (code_run, lines) == (2, [])
    assert_one_error(err, code)
    if field == "top_k":
        assert run_cli(["--top-k", value, "validate", *UNREAD_FILES], capsys)[0] == 2


def test_top_k_of_the_largest_index_ranks_the_whole_store(tmp_path, capsys):
    store = write_jsonl(tmp_path / "s.jsonl", [{"snippet_id": name, "layer": "legal", "clause_id": "c",
                                                "text": text} for name, text in (("a", "keep right"), ("b", "rain"),
                                                                                 ("c", "slow in rain"))])
    prompts = write_jsonl(tmp_path / "p.jsonl", [{"prompt_id": "p", "z": {"scene_labels": ["rain"]}}])
    code, lines, err = run_cli(["--top-k", sys.maxsize, "retrieve", "--store", store, "--prompt", prompts], capsys)
    assert code == 0, err
    assert [hit["snippet_id"] for hit in lines[0]["ranked"]] == ["b", "c", "a"]


def empty_candidates(tmp_path, rain_files) -> list:
    return ["pairs", "--candidates", write_jsonl(tmp_path / "c.jsonl", [{"prompt_id": "p1", "candidates": []}])]


def blank_triggers(tmp_path, rain_files) -> list:
    (tmp_path / "rules.tsv").write_text("|\tsummaries\thazard\n", encoding="utf-8")
    (tmp_path / "run.json").write_text(json.dumps({"hazard_rules_path": str(tmp_path / "rules.tsv")}),
                                       encoding="utf-8")
    prompts, policies = rain_files
    return ["--config", tmp_path / "run.json", "validate", "--policies", policies, "--prompts", prompts]


def out_is_a_directory(tmp_path, rain_files) -> list:
    prompts, policies = rain_files
    return ["--out", tmp_path, "validate", "--policies", policies, "--prompts", prompts]


def out_in_a_missing_folder(tmp_path, rain_files) -> list:
    prompts, policies = rain_files
    return ["--out", tmp_path / "missing" / "out.jsonl", "validate", "--policies", policies, "--prompts", prompts]


@pytest.mark.parametrize("build, exit_code, error", [
    (empty_candidates, 1, "error: BAD_RECORD: candidates must be a non-empty list"),
    (blank_triggers, 2, "error: BAD_RULE: hazard rule needs a hazard id and at least one trigger"),
    (out_is_a_directory, 1, "error: BAD_OUT: cannot write "),
    (out_in_a_missing_folder, 1, "error: BAD_OUT: cannot write "),
], ids=["pairs-empty-candidates", "rules-blank-triggers", "out-directory", "out-missing-folder"])
def test_error_branch_fails_with_its_code(tmp_path, rain_files, build, exit_code, error, capsys):
    code, lines, err = run_cli(build(tmp_path, rain_files), capsys)
    assert (code, lines) == (exit_code, [])
    # one line: a bad --out fails before validate reads its input and logs its record count
    assert len(err.splitlines()) == 1
    assert err.startswith(error)


def test_out_is_checked_before_any_input_is_read_and_left_untouched(tmp_path, rain_files, capsys):
    prompts, _ = rain_files
    missing_input = ["validate", "--policies", tmp_path / "nope.jsonl", "--prompts", prompts]
    bad_out, kept_out = tmp_path / "missing" / "out.jsonl", tmp_path / "out.jsonl"
    code, _, err = run_cli(["--out", bad_out, *missing_input], capsys)
    assert code == 1
    assert_one_error(err, "BAD_OUT")  # not MISSING_FILE
    assert not bad_out.parent.exists()
    kept_out.write_text("kept\n", encoding="utf-8")
    code, _, err = run_cli(["--out", kept_out, *missing_input], capsys)
    assert code == 1
    assert_one_error(err, "MISSING_FILE")
    assert kept_out.read_text(encoding="utf-8") == "kept\n"  # a good --out is not truncated before the work


def test_a_closed_stdout_is_bad_out(tmp_path, rain_prompt, rain_policy_dict):
    # far more output than a pipe holds, so the write after the reader closes its end fails
    prompts = write_jsonl(tmp_path / "p.jsonl", [prompt_to_dict(rain_prompt)])
    policies = write_jsonl(tmp_path / "d.jsonl", [{"prompt_id": "rain-01", "document": rain_policy_dict}] * 300)
    env = {**os.environ, "PYTHONPATH": str(Path(ecpo.__file__).resolve().parent.parent)}
    argv = [sys.executable, "-m", "ecpo.cli", "validate", "--policies", policies, "--prompts", prompts]
    with subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True) as run:
        assert run.stdout.read(10) == '{"candidat'
        run.stdout.close()
        err = run.stderr.read()
    assert run.returncode == 1, err
    assert err.splitlines() == ["validate: 300 records, valid_pct=100.00",
                                "error: BAD_OUT: cannot write stdout: [Errno 32] Broken pipe"]


# --- values nested too deep to encode again ---------------------------------------------

DEEP = "@deep@"  # stands for the nested value until the line is written: json.dumps could not write it


def deep_validate_document(tmp_path, rain_prompt, rain_policy_dict) -> tuple[list, dict]:
    prompts = write_jsonl(tmp_path / "p.jsonl", [prompt_to_dict(rain_prompt)])
    return ["validate", "--policies", tmp_path / "d.jsonl", "--prompts", prompts], {
        "d.jsonl": [{"prompt_id": "rain-01", "document": DEEP}]}


def deep_pairs_document(tmp_path, rain_prompt, rain_policy_dict) -> tuple[list, dict]:
    row = {"prompt_id": "rain-01", "prompt": prompt_to_dict(rain_prompt),
           "candidates": [{"document": rain_policy_dict}, {"document": DEEP}]}
    return ["pairs", "--candidates", tmp_path / "c.jsonl"], {"c.jsonl": [row]}


def deep_pairs_prompt(tmp_path, rain_prompt, rain_policy_dict) -> tuple[list, dict]:
    # a pair is chosen, so the prompt is written as the line carried it
    prompt = prompt_to_dict(rain_prompt)
    prompt["driver"]["cabin_preferences"] = {"seat": DEEP}
    row = {"prompt_id": "rain-01", "prompt": prompt, "candidates": [{"document": rain_policy_dict}, {"document": "{}"}]}
    return ["pairs", "--candidates", tmp_path / "c.jsonl"], {"c.jsonl": [row]}


def deep_eval_document(tmp_path, rain_prompt, rain_policy_dict) -> tuple[list, dict]:
    row = {"kind": "strategy", "prompt_id": "rain-01", "prompt": prompt_to_dict(rain_prompt), "document": DEEP}
    return ["eval", "--records", tmp_path / "r.jsonl"], {"r.jsonl": [row]}


def deep_cabin_preferences(tmp_path, rain_prompt, rain_policy_dict) -> tuple[list, dict]:
    in_sample, out_sample = sample_to_dict(make_sample("in")), sample_to_dict(make_sample("out"))
    in_sample["prompt"]["driver"]["cabin_preferences"] = {"seat": DEEP}
    out_path = write_jsonl(tmp_path / "out.jsonl", [out_sample])
    return ["mixpair", "--in-cabin", tmp_path / "in.jsonl", "--out-of-cabin", out_path], {"in.jsonl": [in_sample]}


# A document is parsed as its decoded value, never encoded again: until its line no longer parses it gets a report.
REPORTED, ENCODED = {"BAD_LINE"}, {"BAD_LINE", "BAD_RECORD"}


@pytest.mark.parametrize("build, at_line, seen", [(deep_validate_document, True, REPORTED),
                                                   (deep_pairs_document, True, ENCODED),
                                                   (deep_pairs_prompt, True, ENCODED),
                                                   (deep_eval_document, True, REPORTED),
                                                   (deep_cabin_preferences, False, ENCODED)],
                         ids=["validate-document", "pairs-document", "pairs-prompt", "eval-document",
                              "mixpair-cabin-preferences"])
def test_a_value_too_deep_to_encode_fails_as_its_record(tmp_path, rain_prompt, rain_policy_dict, build, at_line,
                                                        seen, capsys):
    """Every depth from where re-encoding a parsed value starts to overflow the stack to where the line no
    longer parses: exit 0 or 1, never INTERNAL, with at most one error line. A value that a record's own step
    encodes (a pair's documents and carried prompt) fails naming its file and line; mixpair encodes its merged
    records after pairing, so it names neither, and logs no count before the error."""
    argv, files = build(tmp_path, rain_prompt, rain_policy_dict)
    (name,) = files
    too_deep = f"error: BAD_RECORD: {f'{tmp_path / name}:1: ' if at_line else ''}a record holds a value nested " \
               "too deep to encode\n"
    limit = sys.getrecursionlimit()
    depths = [*range(limit - 250, limit + 6), limit // 2]  # mixpair's encoder takes more than one frame a level
    failures = set()
    for depth in depths:
        nested = "[" * depth + "0" + "]" * depth
        for name, rows in files.items():
            lines = (json.dumps(row).replace(json.dumps(DEEP), nested) + "\n" for row in rows)
            (tmp_path / name).write_text("".join(lines), encoding="utf-8")
        code = main([str(a) for a in argv])
        err = capsys.readouterr().err
        errors = [line for line in err.splitlines() if line.startswith("error: ")]
        assert code in (0, 1) and len(errors) == code, (depth, err)
        if errors and "BAD_RECORD" in errors[0]:
            assert err == too_deep, depth
        failures.update(line.split(":")[1].strip() for line in errors)
    assert failures == seen  # the scan reaches the parser's limit, and the encoder's where a step encodes


TOO_DEEP_TO_SHOW = "<a value nested too deep to show>"


def test_a_value_too_deep_to_show_is_shown_as_a_marker():
    value = 0
    for _ in range(100_000):
        value = [value]
    assert shown(value) == TOO_DEEP_TO_SHOW
    assert shown([[0]]) == "[[0]]"


def test_an_action_type_too_deep_to_show_is_a_defect_of_its_report(tmp_path, rain_prompt, rain_policy_dict, capsys):
    """Every depth from well inside the limit to past it: the line parses and its report holds the
    BAD_ACTION_TYPE defect, which quotes the type or, where ``repr`` would overflow, the marker; or the line no
    longer parses (BAD_LINE)."""
    prompts = write_jsonl(tmp_path / "p.jsonl", [prompt_to_dict(rain_prompt)])
    rain_policy_dict["actions"][0]["type"] = DEEP
    row = json.dumps({"prompt_id": "rain-01", "document": rain_policy_dict})
    policies = tmp_path / "d.jsonl"
    limit = sys.getrecursionlimit()
    seen = set()
    for depth in range(limit - 250, limit + 6):
        policies.write_text(row.replace(json.dumps(DEEP), "[" * depth + "0" + "]" * depth) + "\n", encoding="utf-8")
        code, lines, err = run_cli(["validate", "--policies", policies, "--prompts", prompts], capsys)
        if code == 1:
            assert_one_error(err, "BAD_LINE")
            seen.add("BAD_LINE")
            continue
        assert code == 0 and len(lines) == 1, (depth, err)
        (defect,) = [d for d in lines[0]["report"]["defects"] if d["code"] == "BAD_ACTION_TYPE"]
        seen.add(TOO_DEEP_TO_SHOW if TOO_DEEP_TO_SHOW in defect["message"] else "shown")
    assert seen == {"shown", TOO_DEEP_TO_SHOW, "BAD_LINE"}


# --- what a run holds: one input line and its value at a time, and what it writes ---------------

def traced_peak(argv, capsys) -> int:
    """The traced heap peak of one in-process run, which must succeed; the code it runs is imported first."""
    from ecpo import metrics, validator  # noqa: F401  (a handler imports them on its first run)

    tracemalloc.start()
    try:
        code = main([str(a) for a in argv])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0, capsys.readouterr().err
    return peak


def test_validate_holds_one_policy_line_at_a_time(tmp_path, rain_prompt, capsys):
    prompts = write_jsonl(tmp_path / "p.jsonl", [prompt_to_dict(rain_prompt)])
    policies = write_jsonl(tmp_path / "d.jsonl", [{"prompt_id": "rain-01", "candidate_id": f"c{i}",
                                                   "document": "not json " * 12_000} for i in range(40)])
    decoded = Path(policies).stat().st_size  # ASCII: as many characters as bytes
    out = tmp_path / "out.jsonl"
    peak = traced_peak(["--out", out, "validate", "--policies", policies, "--prompts", prompts], capsys)
    assert decoded > 4_000_000 and out.stat().st_size < 1_000_000
    assert peak < decoded / 2, (peak, decoded)


def test_eval_holds_one_strategy_record_at_a_time(tmp_path, layered_snippets, rain_prompt, rain_policy_dict, capsys):
    snippets = [snippet_to_dict(layered_snippets[i % 3]) | {"snippet_id": f"s{i}", "vehicle_config": "v" * 2_000}
                for i in range(20)]
    rows = [{"kind": "strategy", "prompt_id": f"p{i}", "document": rain_policy_dict,
             "prompt": prompt_to_dict(rain_prompt) | {"prompt_id": f"p{i}", "constraints": snippets}}
            for i in range(90)]
    records = write_jsonl(tmp_path / "r.jsonl", rows)
    decoded = Path(records).stat().st_size
    out = tmp_path / "out.jsonl"
    peak = traced_peak(["--out", out, "eval", "--records", records], capsys)
    assert decoded > 4_000_000 and out.stat().st_size < 10_000
    assert peak < decoded / 2, (peak, decoded)


def long_value_files(tmp_path, clause: str) -> tuple[str, str]:
    """A prompt and two policies that put a 200,000-character outside string into every report field that
    quotes one: action type, constraint key, parameter names, modality, keyword and bound parameter."""
    n = 200_000
    keyword, bound_parameter = "k" * n, "b" * n
    prompt = {
        "prompt_id": "p",
        "driver": {"alert_modality_preference": "visual", "cabin_preferences": {"temperature_band": [20, 22]}},
        "vehicle": {"available_actuators": ["Hvac", "HmiPrompt"],
                    "capability_limits": {"Hvac": {bound_parameter: [0, 1]}}},
        "constraints": [
            {"snippet_id": "legal", "layer": "legal", "clause_id": clause, "text": "no hvac",
             "assertions": {"forbidden_action_types": ["Hvac"], "forbidden_keywords": [keyword],
                            "parameter_bounds": [["Hvac", bound_parameter, 0, 1]]}},
            {"snippet_id": "driver", "layer": "driver", "clause_id": clause, "text": "visual alerts",
             "assertions": {"required_modalities": ["visual"]}},
        ],
    }
    evidence = {"in_cabin_text": ["driver"], "out_of_vehicle_text": ["road"]}
    parameters = {bound_parameter: 5, "temperature" + "t" * n: 30, "d" * n: True, " " * n: True}
    valid = {"objectives": "stay calm", "constraints": {"legal_regulations": "obey", "q" * n: "x"},
             "actions": [{"type": "Hvac", "parameters": parameters, "rationale": keyword, "evidence": evidence},
                         {"type": "HmiPrompt", "parameters": {"modality": "m" * n}, "rationale": "r",
                          "evidence": evidence}]}
    invalid = {"objectives": "x", "constraints": {"legal_regulations": "obey"},
               "actions": [{"type": "T" * n, "rationale": "r", "evidence": evidence}]}
    return (write_jsonl(tmp_path / "prompts.jsonl", [prompt]),
            write_jsonl(tmp_path / "policies.jsonl", [{"prompt_id": "p", "document": valid},
                                                      {"prompt_id": "p", "document": invalid}]))


def test_long_outside_values_are_cut_in_report_data(tmp_path, capsys):
    prompts, policies = long_value_files(tmp_path, "c-1")
    assert main(["validate", "--policies", policies, "--prompts", prompts]) == 0
    captured = capsys.readouterr()
    assert captured.err == "validate: 2 records, valid_pct=50.00\n"
    assert max(map(len, captured.out.encode("utf-8").splitlines())) < 10_000
    valid = json.loads(captured.out.splitlines()[0])["report"]
    assert {check["check_id"] for check in valid["checks"] if not check["passed"]} == {
        "legal.forbidden_action_type", "legal.forbidden_keyword", "legal.parameter_bounds",
        "vehicle.capability_limits", "driver.modality_binding", "driver.cabin_band"}
    # a clause id is cut where a detail quotes it; clause_ref names the clause whole
    prompts, policies = long_value_files(tmp_path, "c" * 200_000)
    _, lines, _ = run_cli(["validate", "--policies", policies, "--prompts", prompts], capsys)
    checks = lines[0]["report"]["checks"]
    assert max(len(check["detail"]) for check in checks) < 1_000
    assert {check["clause_ref"] for check in checks} == {None, "c" * 200_000}


# --- pairs ------------------------------------------------------------------------------


def test_pairs_builds_dataset(tmp_path, rain_prompt, rain_policy_dict, capsys):
    broken = {"objectives": "x", "constraints": {}, "actions": []}
    candidates = write_jsonl(
        tmp_path / "c.jsonl",
        [
            {
                "prompt_id": "rain-01",
                "prompt": prompt_to_dict(rain_prompt),
                "candidates": [
                    {"candidate_id": "good", "document": rain_policy_dict},
                    {"candidate_id": "bad", "document": broken},
                ],
            }
        ],
    )
    code, lines, err = run_cli(["pairs", "--candidates", candidates], capsys)
    assert code == 0
    assert len(lines) == 1
    record = lines[0]
    assert record["prompt_id"] == "rain-01"
    assert json.loads(record["chosen"]) == rain_policy_dict
    assert json.loads(record["rejected"]) == broken
    assert record["gap"] == 1.0
    assert record["weight"] == 1.0
    assert record["prompt"]["prompt_id"] == "rain-01"
    assert "1 pairs from 1 candidate sets" in err


def test_pairs_skips_gapless_sets(tmp_path, rain_policy_dict, capsys):
    candidates = write_jsonl(
        tmp_path / "c.jsonl",
        [
            {
                "prompt_id": "p1",
                "candidates": [
                    {"candidate_id": "a", "document": rain_policy_dict},
                    {"candidate_id": "b", "document": rain_policy_dict},
                ],
            }
        ],
    )
    code, lines, err = run_cli(["pairs", "--candidates", candidates], capsys)
    assert code == 0
    assert lines == []
    assert "skip prompt 'p1'" in err


def test_pairs_duplicate_prompt_exits_1(tmp_path, rain_policy_dict, capsys):
    row = {"prompt_id": "p1", "candidates": [{"document": rain_policy_dict}]}
    candidates = write_jsonl(tmp_path / "c.jsonl", [row, row])
    code, _, err = run_cli(["pairs", "--candidates", candidates], capsys)
    assert code == 1
    assert "DUPLICATE_ID" in err


def good_and_bad(policy: dict) -> list[dict]:
    return [{"candidate_id": "good", "document": policy},
            {"candidate_id": "bad", "document": {"objectives": "x", "constraints": {}, "actions": []}}]


def test_pairs_writes_records_in_prompt_id_order(tmp_path, rain_policy_dict, capsys):
    rows = [{"prompt_id": prompt_id, "candidates": good_and_bad(rain_policy_dict)} for prompt_id in ("p3", "p1", "p2")]
    code, lines, err = run_cli(["pairs", "--candidates", write_jsonl(tmp_path / "c.jsonl", rows)], capsys)
    assert code == 0
    assert [line["prompt_id"] for line in lines] == ["p1", "p2", "p3"]
    assert err == "pairs: 3 pairs from 3 candidate sets\n"


def test_pairs_writes_the_prompt_as_its_line_carried_it(tmp_path, rain_policy_dict, capsys):
    # a carried prompt is written as it came, not re-encoded: its left-out fields stay left out
    carried = {"prompt_id": "a", "z": {"scene_labels": ["rain"]}}
    rows = [{"prompt_id": "a", "prompt": carried, "candidates": good_and_bad(rain_policy_dict)},
            {"prompt_id": "b", "prompt": None, "candidates": good_and_bad(rain_policy_dict)},
            {"prompt_id": "c", "candidates": good_and_bad(rain_policy_dict)}]
    code, lines, _ = run_cli(["pairs", "--candidates", write_jsonl(tmp_path / "c.jsonl", rows)], capsys)
    assert code == 0
    assert [(line["prompt_id"], line["prompt"]) for line in lines] == [("a", carried), ("b", None), ("c", None)]


def test_pairs_breaks_a_score_tie_by_candidate_id(tmp_path, rain_policy_dict, capsys):
    # documents that parse alike score alike; their texts tell which candidate was picked
    broken = {"objectives": "x", "constraints": {}, "actions": []}
    documents = {"b": json.dumps(rain_policy_dict), "a": json.dumps(rain_policy_dict, indent=1),
                 "z": json.dumps(broken), "y": json.dumps(broken, indent=1)}
    row = {"prompt_id": "p1", "candidates": [{"candidate_id": cid, "document": doc} for cid, doc in documents.items()]}
    code, lines, _ = run_cli(["pairs", "--candidates", write_jsonl(tmp_path / "c.jsonl", [row])], capsys)
    assert code == 0
    assert (lines[0]["chosen"], lines[0]["rejected"]) == (documents["a"], documents["y"])


def test_pairs_repeated_candidate_id_exits_1(tmp_path, rain_policy_dict, capsys):
    rows = [{"prompt_id": "p1", "candidates": good_and_bad(rain_policy_dict)},
            {"prompt_id": "p2", "candidates": [{"candidate_id": "c", "document": rain_policy_dict}] * 2}]
    code, lines, err = run_cli(["pairs", "--candidates", write_jsonl(tmp_path / "c.jsonl", rows)], capsys)
    assert (code, lines) == (1, [])
    assert err == "error: DUPLICATE_ID: prompt 'p2' repeats a candidate_id\n"


def pairs_corpus() -> list[dict]:
    """The seed-0 validate_k8 prompts and candidates as 40 pairs records in shuffled order: a prompt carried,
    null or absent in turn, some candidates without an id, and every seventh set given one document only,
    so that it has no score gap."""
    files = bench_inputs("validate_k8")
    candidates: dict[str, list[dict]] = {}
    for line in files["records.jsonl"].splitlines():
        record = json.loads(line)
        candidates.setdefault(record.pop("prompt_id"), []).append(record)
    rows = []
    for index, line in enumerate(files["prompts.jsonl"].splitlines()):
        prompt = json.loads(line)
        entries = candidates[prompt["prompt_id"]]
        if index % 7 == 6:
            entries = [{**entry, "document": entries[0]["document"]} for entry in entries]
        if index % 4 == 3:
            entries = [{"document": entry["document"]} for entry in entries]
        row = {"prompt_id": prompt["prompt_id"], "candidates": entries}
        if index % 3 < 2:
            row["prompt"] = prompt if index % 3 == 0 else None
        rows.append(row)
    random.Random(0).shuffle(rows)
    return rows


# --- eval -------------------------------------------------------------------------------


def test_eval_mixed_kinds(tmp_path, rain_prompt, rain_policy_dict, capsys):
    no_rationale = {
        "objectives": "steady pace",
        "constraints": {"legal_regulations": "obey limits"},
        "actions": [{"type": "DrivingSuggestion", "parameters": {"text": "steady"}, "evidence": {"labels": ["x"]}}],
    }
    records = write_jsonl(
        tmp_path / "r.jsonl",
        [
            {"kind": "labels", "truth": ["a", "b"], "prediction": ["a", "b"]},
            {"kind": "classification", "truth": "anger", "prediction": "anger"},
            {"kind": "text", "reference": "please slow down right now", "hypothesis": "please slow down right now"},
            {
                "kind": "strategy",
                "prompt_id": "rain-01",
                "prompt": prompt_to_dict(rain_prompt),
                "document": rain_policy_dict,
                "ratings": [[True, True, True], [True, True, True]],
            },
            {
                "kind": "strategy",
                "prompt_id": "p2",
                "document": no_rationale,
                "ratings": [[False, False, False]],
            },
        ],
    )
    code, lines, err = run_cli(["eval", "--records", records], capsys)
    assert code == 0
    assert len(lines) == 1
    values = lines[0]["values"]
    assert values["labels_iou"] == 100.0
    assert values["labels_emr"] == 100.0
    assert values["cls_accuracy"] == 100.0
    assert values["cls_macro_f1"] == 100.0
    assert values["text_bleu4"] == pytest.approx(100.0, abs=1e-6)
    assert values["text_rouge_l"] == 100.0
    assert values["valid_pct"] == 100.0
    assert values["has_mean"] == 50.0
    assert values["has_std"] == 0.0
    assert values["ecpo_has_spearman"] == 1.0
    assert lines[0]["counts"]["records"] == 5
    assert lines[0]["config"]["ecpo_weights"] == [0.5, 0.3, 0.2]
    assert "valid_pct" in err


def test_eval_empty_label_sets_reported_na(tmp_path, capsys):
    records = write_jsonl(
        tmp_path / "r.jsonl",
        [{"kind": "labels", "truth": [], "prediction": []}],
    )
    code, lines, _ = run_cli(["eval", "--records", records], capsys)
    assert code == 0
    values, reasons = lines[0]["values"], lines[0]["reasons"]
    for name in ("labels_iou", "labels_emr", "labels_f1"):
        assert values[name] is None
        assert reasons[name] == "NO_ELIGIBLE_SAMPLES"


def test_eval_gates_has_below_validity_floor(tmp_path, rain_policy_dict, capsys):
    rows = [
        {
            "kind": "strategy",
            "prompt_id": f"p{i}",
            "document": "{broken" if i else rain_policy_dict,
            "ratings": [[True, True, True]],
        }
        for i in range(3)
    ]
    records = write_jsonl(tmp_path / "r.jsonl", rows)
    code, lines, _ = run_cli(["eval", "--records", records], capsys)
    assert code == 0
    values, reasons = lines[0]["values"], lines[0]["reasons"]
    assert values["valid_pct"] == pytest.approx(100 / 3)
    for name in ("viol_sev", "low_ctrl_pct", "haz_f1", "has_mean", "has_std", "ecpo_has_spearman"):
        assert values[name] is None
        assert reasons[name] == "VALIDITY_BELOW_50"


def test_eval_without_ratings_reports_no_ratings(tmp_path, rain_policy_dict, capsys):
    records = write_jsonl(
        tmp_path / "r.jsonl",
        [{"kind": "strategy", "prompt_id": "p1", "document": rain_policy_dict}],
    )
    code, lines, _ = run_cli(["eval", "--records", records], capsys)
    assert code == 0
    assert lines[0]["reasons"]["has_mean"] == "NO_RATINGS"


@pytest.mark.parametrize(
    "record",
    [
        {"truth": "abc", "prediction": ["a"]},
        {"truth": ["a"], "prediction": 5},
        {"truth": ["a", 1], "prediction": []},
        {"truth": {"a": 1}, "prediction": []},
    ],
)
def test_eval_mistyped_label_record_exits_1(tmp_path, record, capsys):
    records = write_jsonl(tmp_path / "r.jsonl", [{"kind": "labels", **record}])
    code, lines, err = run_cli(["eval", "--records", records], capsys)
    assert code == 1
    assert lines == []
    assert_one_error(err, "BAD_RECORD")


FULL_POLICY = {
    "objectives": "Address reduced visibility and keep a safe headway.",
    "constraints": {
        "legal_regulations": "Keep within posted speed limits.",
        "vehicle_limits": "Wipers and lights verified available.",
        "driver_preferences": "Visual alerts only.",
        "contextual_evidence": "heavy rain ahead",
    },
    "actions": [
        {
            "type": "HmiPrompt",
            "parameters": {"modality": "visual", "text": "Rain ahead. Keep a larger distance."},
            "rationale": "Reduced visibility calls for a longer following distance.",
            "evidence": {"out_of_vehicle_text": ["heavy rain ahead"], "labels": ["rainy"]},
        }
    ],
}
THIN_POLICY = {
    "objectives": "steady pace",
    "constraints": {"legal_regulations": "obey limits"},
    "actions": [{"type": "DrivingSuggestion", "parameters": {"text": "steady"}, "evidence": {"labels": ["x"]}}],
}


def strategy_row(prompt_id, document, ratings=None, seed=None):
    row = {"kind": "strategy", "prompt_id": prompt_id, "document": document}
    if ratings is not None:
        row["ratings"] = ratings
    if seed is not None:
        row["seed"] = seed
    return row


ALL_YES, FIRST_ONLY, ALL_NO = [True, True, True], [True, False, False], [False, False, False]

# One input per branch of the strategy section: (rows, sha256 of stdout, sha256 of stderr). The
# digests were taken while the CLI still worked out the HAS gate itself, so they pin that output.
EVAL_BRANCHES = {
    "gated": (
        [strategy_row("p0", FULL_POLICY, [ALL_YES]), strategy_row("p1", "{broken", [ALL_YES]),
         strategy_row("p2", "{broken", [ALL_YES])],
        "1c28fae47319c15cc532cc87d4511d7e95b68114d8d30426c6ff516ef223b772",
        "2dde67ab0859528ae22ad6f1fcd7b22381259ed2c14727fc78e4a7891f55eedd",
    ),
    "unrated": (
        [strategy_row("p0", FULL_POLICY), strategy_row("p1", THIN_POLICY), strategy_row("p2", FULL_POLICY, [])],
        "755f02c1c8e13e956509302a8ed6a0af764e41d0376ca29f0715e306ca15a2e2",
        "8a5fc61c6d11cf940c9220c69554ed189664d7d6b9c400c477d39beb6022e127",
    ),
    "one_rated": (
        [strategy_row("p0", FULL_POLICY, [ALL_YES, FIRST_ONLY]), strategy_row("p1", THIN_POLICY)],
        "2756f4210fbfe26393721e76047fa896d157092c8592ff46d7a4a87534f35955",
        "7ea1e1174ac95d864c94b5e5281450b10c291de8856e2250b5d1e36901663f0c",
    ),
    "constant_ratings": (
        [strategy_row("p0", FULL_POLICY, [FIRST_ONLY]), strategy_row("p1", THIN_POLICY, [FIRST_ONLY]),
         strategy_row("p2", FULL_POLICY, [FIRST_ONLY, FIRST_ONLY], seed=1)],
        "1355aaa8e17428f8513c70dd4b6c09cfb91c23e44a03fe4b6a9b99f48e183c5f",
        "7ea1e1174ac95d864c94b5e5281450b10c291de8856e2250b5d1e36901663f0c",
    ),
    "mixed_kinds": (
        [
            {"kind": "labels", "truth": ["rain", "fog"], "prediction": ["rain"]},
            {"kind": "classification", "truth": "anger", "prediction": "calm"},
            {"kind": "classification", "truth": "calm", "prediction": "calm"},
            {"kind": "text", "reference": "please slow down now", "hypothesis": "please slow down"},
            strategy_row("p0", FULL_POLICY, [ALL_YES, ALL_YES], seed=0),
            strategy_row("p1", THIN_POLICY, [ALL_NO], seed=1),
            strategy_row("p2", THIN_POLICY, [FIRST_ONLY, ALL_YES], seed=1),
            strategy_row("p3", "{broken", [ALL_YES], seed=2),
            strategy_row("p4", FULL_POLICY),
        ],
        "1ddaac630a7239e6754cef886aa7311f21f9256e7ed5d0cc2a723e7b0e855f31",
        "8bf4f566d939876cc71acd90fd6c3ff4e63ee89f56a322bca27d55138e932789",
    ),
}


@pytest.mark.parametrize("rows, stdout_sha, stderr_sha", EVAL_BRANCHES.values(), ids=EVAL_BRANCHES.keys())
def test_eval_strategy_branches_pinned(tmp_path, rows, stdout_sha, stderr_sha, capsys):
    code = main(["eval", "--records", write_jsonl(tmp_path / "r.jsonl", rows)])
    captured = capsys.readouterr()
    assert code == 0
    assert hashlib.sha256(captured.out.encode()).hexdigest() == stdout_sha
    assert hashlib.sha256(captured.err.encode()).hexdigest() == stderr_sha


def test_eval_unknown_kind_exits_1(tmp_path, capsys):
    records = write_jsonl(tmp_path / "r.jsonl", [{"kind": "mystery"}])
    code, _, err = run_cli(["eval", "--records", records], capsys)
    assert code == 1
    assert "BAD_RECORD" in err


# --- retrieve ---------------------------------------------------------------------------


def test_retrieve_ranks_and_compresses(tmp_path, layered_snippets, comfort_prompt, capsys):
    store = write_jsonl(tmp_path / "s.jsonl", [snippet_to_dict(s) for s in layered_snippets])
    prompts = write_jsonl(tmp_path / "p.jsonl", [prompt_to_dict(comfort_prompt)])
    code, lines, _ = run_cli(["retrieve", "--store", store, "--prompt", prompts], capsys)
    assert code == 0
    record = lines[0]
    assert record["kind"] == "retrieval"
    assert record["prompt_id"] == "comfort-01"
    assert record["store_version"] == 1
    assert record["scorer"] == "lexical"
    assert len(record["ranked"]) == 3
    assert {entry["snippet_id"] for entry in record["ranked"]} == {"legal-001", "veh-001", "drv-001"}
    assert all(set(entry) == {"snippet_id", "layer", "clause_id", "score", "text"} for entry in record["ranked"])
    # compression orders whole snippets legal > vehicle > driver
    layers = [entry["layer"] for entry in record["compressed"]]
    assert layers == sorted(layers, key=("legal", "vehicle", "driver").index)
    assert "sensitivity_terms" in record["query"] and "situation_terms" in record["query"]


def test_retrieve_top_k_flag(tmp_path, layered_snippets, comfort_prompt, capsys):
    store = write_jsonl(tmp_path / "s.jsonl", [snippet_to_dict(s) for s in layered_snippets])
    prompts = write_jsonl(tmp_path / "p.jsonl", [prompt_to_dict(comfort_prompt)])
    code, lines, _ = run_cli(["--top-k", "1", "retrieve", "--store", store, "--prompt", prompts], capsys)
    assert code == 0
    assert len(lines[0]["ranked"]) == 1
    assert lines[0]["config"]["top_k"] == 1


def test_retrieve_empty_store_exits_1(tmp_path, comfort_prompt, capsys):
    store = tmp_path / "s.jsonl"
    store.write_text("", encoding="utf-8")
    prompts = write_jsonl(tmp_path / "p.jsonl", [prompt_to_dict(comfort_prompt)])
    code, _, err = run_cli(["retrieve", "--store", store, "--prompt", prompts], capsys)
    assert code == 1
    assert "EMPTY_STORE" in err


@pytest.mark.parametrize(
    "change",
    [{"version": "x"}, {"assertions": {"parameter_bounds": [["Hvac", "temp", "a", "1"]]}}],
)
def test_retrieve_mistyped_snippet_exits_1(tmp_path, comfort_prompt, change, capsys):
    record = {"snippet_id": "a", "layer": "legal", "clause_id": "c", "text": "keep right", **change}
    store = write_jsonl(tmp_path / "s.jsonl", [record])
    prompts = write_jsonl(tmp_path / "p.jsonl", [prompt_to_dict(comfort_prompt)])
    code, lines, err = run_cli(["retrieve", "--store", store, "--prompt", prompts], capsys)
    assert code == 1
    assert lines == []
    assert len(err.splitlines()) == 1
    assert err.startswith("error: BAD_SNIPPET: ")
    assert "Traceback" not in err


def test_unexpected_exception_exits_3_without_traceback(tmp_path, monkeypatch, capsys):
    def broken(args, config):
        raise ZeroDivisionError("division by zero")

    monkeypatch.setitem(cli.HANDLERS, "stratify", broken)
    code, lines, err = run_cli(["stratify", "--records", tmp_path / "r.jsonl"], capsys)
    assert code == 3
    assert lines == []
    assert err == "error: INTERNAL: ZeroDivisionError: division by zero\n"


# --- mixpair ----------------------------------------------------------------------------


def mix_inputs(tmp_path):
    ins = [
        make_sample("in-a", driver_labels=("anxiety",), stages=("driver is anxious", "", "")),
        make_sample("in-b", driver_labels=("neutral",), stages=("calm driver", "", "")),
    ]
    outs = [
        make_sample("out-a", scene_labels=("rain",), stages=("", "heavy rain", "")),
        make_sample("out-b", scene_labels=("traffic jam",), stages=("", "dense traffic", "")),
    ]
    in_path = write_jsonl(tmp_path / "in.jsonl", [sample_to_dict(s) for s in ins])
    out_path = write_jsonl(tmp_path / "out.jsonl", [sample_to_dict(s) for s in outs])
    return in_path, out_path


def test_mixpair_merges_deterministically(tmp_path, capsys):
    in_path, out_path = mix_inputs(tmp_path)
    out_a = tmp_path / "a.jsonl"
    out_b = tmp_path / "b.jsonl"
    for out in (out_a, out_b):
        code = main(["--seed", "7", "--out", str(out), "mixpair", "--in-cabin", in_path, "--out-of-cabin", out_path])
        assert code == 0
    err = capsys.readouterr().err
    assert out_a.read_bytes() == out_b.read_bytes()
    assert "seed=7" in err
    records = [json.loads(line) for line in out_a.read_text(encoding="utf-8").splitlines()]
    assert len(records) == 2
    for record in records:
        assert "+" in record["prompt"]["prompt_id"]
        assert record["split"] == "train"


def test_mixpair_missing_split_partner_exits_1(tmp_path, capsys):
    ins = [make_sample("in-a", split="test")]
    outs = [make_sample("out-a", split="train")]
    in_path = write_jsonl(tmp_path / "in.jsonl", [sample_to_dict(s) for s in ins])
    out_path = write_jsonl(tmp_path / "out.jsonl", [sample_to_dict(s) for s in outs])
    code, _, err = run_cli(["mixpair", "--in-cabin", in_path, "--out-of-cabin", out_path], capsys)
    assert code == 1
    assert "EMPTY_SPLIT" in err


# --- stratify ---------------------------------------------------------------------------


def test_stratify_reports_groups_in_input_order(tmp_path, capsys):
    records = [
        make_sample("nominal-1", labels={"emotion": "neutral", "behavior": "normal_driving",
                                         "traffic_scene": "smooth_traffic", "vehicle_motion": "forward_moving"}),
        make_sample("driver-1", labels={"emotion": "anger", "behavior": "normal_driving",
                                        "traffic_scene": "smooth_traffic", "vehicle_motion": "forward_moving"}),
        make_sample("env-1", labels={"emotion": "neutral", "behavior": "normal_driving",
                                     "traffic_scene": "traffic_jam", "vehicle_motion": "forward_moving"}),
        make_sample("both-1", labels={"emotion": "anxiety", "behavior": "looking_around",
                                      "traffic_scene": "rain", "vehicle_motion": "reversing"}),
    ]
    path = write_jsonl(tmp_path / "records.jsonl", [sample_to_dict(s) for s in records])
    code, lines, err = run_cli(["stratify", "--records", path], capsys)
    assert code == 0
    assert [line["prompt_id"] for line in lines] == ["nominal-1", "driver-1", "env-1", "both-1"]
    assert [line["group"] for line in lines] == [
        "nominal", "driver_critical", "env_critical", "interaction_critical",
    ]
    assert all(line["kind"] == "stratum" for line in lines)
    assert '"interaction_critical":1' in err


def test_stratify_missing_head_exits_1(tmp_path, capsys):
    path = write_jsonl(tmp_path / "records.jsonl", [sample_to_dict(make_sample("x", labels={"emotion": "anger"}))])
    code, _, err = run_cli(["stratify", "--records", path], capsys)
    assert code == 1
    assert "MISSING_HEAD" in err


# --- one same-bytes gate ----------------------------------------------------------------


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def bench_samples() -> tuple[list[dict], list[dict]]:
    """The seed-0 validate_k8 prompts as in-cabin and out-of-cabin sample records ("in-" and "out-" ids):
    splits in rotation, one step apart on the two sides; each head's label drawn nominal or at random; every
    other in-cabin record carries its prompt's first schema-valid candidate as the reference policy."""
    files = bench_inputs("validate_k8")
    references: dict[str, object] = {}
    for line in files["records.jsonl"].splitlines():
        record = json.loads(line)
        if parse_policy(record["document"]).valid:
            references.setdefault(record["prompt_id"], record["document"])
    rng = random.Random(0)
    vocab = DEFAULT_LABEL_VOCAB
    in_cabin, out_of_cabin = [], []
    for index, line in enumerate(files["prompts.jsonl"].splitlines()):
        prompt = json.loads(line)
        for side, samples in (("in", in_cabin), ("out", out_of_cabin)):
            samples.append({
                "prompt": {**prompt, "prompt_id": f"{side}-{prompt['prompt_id']}"},
                "split": SPLITS[(index + (side == "out")) % len(SPLITS)],
                "reference_policy": references[prompt["prompt_id"]] if side == "in" and index % 2 == 0 else None,
                "ground_truth_labels": {
                    head: vocab.nominal_for(head) if rng.random() < 0.6 else rng.choice(vocab.heads[head])
                    for head in STRATIFY_HEADS
                },
            })
    return in_cabin, out_of_cabin


# The benchmark workload of each command it runs, and its stdout pin (``bench/run.py`` writes the same
# lines through ``--out``).
BENCH_WORKLOADS = {"validate": "validate_k8", "eval": "eval_k1", "retrieve": "retrieve_5k"}
BENCH_SPEC = json.loads((Path(__file__).resolve().parent.parent / "bench" / "spec.json").read_text())["workloads"]
BENCH_SHA256 = {command: BENCH_SPEC[workload]["sha256"]["default"] for command, workload in BENCH_WORKLOADS.items()}


def bench_argv(command: str, tmp_path) -> list[str]:
    """The command's argv on its seed-0 bench-shaped inputs, written under ``tmp_path``."""
    if command in BENCH_WORKLOADS:
        for name, text in bench_inputs(BENCH_WORKLOADS[command]).items():
            (tmp_path / name).write_text(text, encoding="utf-8")
        return {
            "validate": ["validate", "--policies", tmp_path / "records.jsonl", "--prompts", tmp_path / "prompts.jsonl"],
            "eval": ["eval", "--records", tmp_path / "records.jsonl"],
            "retrieve": ["retrieve", "--store", tmp_path / "store.jsonl", "--prompt", tmp_path / "records.jsonl"],
        }[command]
    if command == "pairs":
        return ["pairs", "--candidates", write_jsonl(tmp_path / "c.jsonl", pairs_corpus())]
    in_cabin, out_of_cabin = bench_samples()
    if command == "mixpair":
        return ["mixpair", "--in-cabin", write_jsonl(tmp_path / "in.jsonl", in_cabin),
                "--out-of-cabin", write_jsonl(tmp_path / "out.jsonl", out_of_cabin)]
    return ["stratify", "--records", write_jsonl(tmp_path / "s.jsonl", in_cabin + out_of_cabin)]


# (exit code, sha256 of stdout, sha256 of stderr) per command; stdout of validate, eval and retrieve is
# the benchmark's pin. The pairs digests were taken while its records still went through a separate export
# step (35 records, 5 sets skipped), the others before the keyword scans went through one union per pattern set.
PINNED = {
    "validate": (0, BENCH_SHA256["validate"], "709e4736943af291f301f5296e7b76f50660b4cdea46aab1609c3acf1876776c"),
    "pairs": (0, "5465ed479e9d3f7dc5458b4c9dc4acb90745ad971c87a0ff9c8ff9261b172093",
              "26f899883f0a9231498413e5e09d578012dd63c12246b7007de40a316e54df17"),
    "eval": (0, BENCH_SHA256["eval"], "6ec3352c13400ddcfdf3d8de3517348b9e71640d00e82db8b22df0b8d8ad0bab"),
    "retrieve": (0, BENCH_SHA256["retrieve"], "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "mixpair": (0, "5d09d108ddced209e6ed7eb34e397ccd4f6a62320df0ee9ff81e223d6d8915bc",
                "7ee25b72c1352d9dca4ec85faa5fdf8013c12db1ef524ba0cbd1594a0fb548d9"),
    "stratify": (0, "6cfb787a09e3b08d179278e77e41172e679b23579f91cd423c82ff710811a08d",
                 "5dd478d2d20d3514d30408e44df6de08d0aa32aade3ecc1f45fa7eceb6ecfdcc"),
}


@pytest.mark.parametrize("command", list(PINNED))
def test_command_output_on_bench_inputs_is_pinned(tmp_path, command, capsys):
    """Every command on the seed-0 bench-shaped inputs writes the same bytes and exits the same way."""
    code = main([str(arg) for arg in bench_argv(command, tmp_path)])
    captured = capsys.readouterr()
    assert (code, sha256(captured.out), sha256(captured.err)) == PINNED[command]


# --- module loading ---------------------------------------------------------------------

# Modules a command must not import: each handler imports only what it runs.
NOT_LOADED = {
    "retrieve": {"ecpo.validator", "ecpo.metrics", "ecpo.preference", "statistics"},
    "mixpair": {"ecpo.validator", "ecpo.metrics", "ecpo.preference", "statistics"},
    "stratify": {"ecpo.validator", "ecpo.metrics", "ecpo.preference", "statistics"},
    "validate": {"ecpo.metrics", "ecpo.preference", "statistics"},
    "pairs": {"ecpo.metrics", "statistics"},
    "eval": {"ecpo.preference"},
}

# Commands that scan no text for keywords, so build no ``policy.keyword_union``: not even the default lexicon's.
NO_KEYWORD_UNION = {"retrieve", "mixpair", "stratify"}

_RUN_AND_LIST_MODULES = (
    "import json, sys\n"
    "from ecpo.cli import main\n"
    "code = main(sys.argv[1:])\n"
    "unions = sys.modules['ecpo.policy'].keyword_union.cache_info().misses if 'ecpo.policy' in sys.modules else 0\n"
    "print(json.dumps({'code': code, 'modules': sorted(sys.modules), 'unions': unions}))\n"
)


def command_argv(tmp_path, command, rain_prompt, rain_policy_dict):
    """argv running ``command`` successfully on the shared fixtures."""
    prompt = prompt_to_dict(rain_prompt)
    if command in ("validate", "retrieve"):
        return prompt_argv(tmp_path, command, prompt, rain_policy_dict)
    if command == "pairs":
        row = {"prompt_id": "rain-01", "prompt": prompt, "candidates": [{"document": rain_policy_dict}]}
        return ["pairs", "--candidates", write_jsonl(tmp_path / "c.jsonl", [row])]
    if command == "eval":
        rows = [
            {"kind": "text", "reference": "slow down", "hypothesis": "slow down"},
            {"kind": "strategy", "prompt_id": "rain-01", "prompt": prompt, "document": rain_policy_dict,
             "ratings": [[True, True, True]]},
        ]
        return ["eval", "--records", write_jsonl(tmp_path / "r.jsonl", rows)]
    if command == "mixpair":
        in_path, out_path = mix_inputs(tmp_path)
        return ["mixpair", "--in-cabin", in_path, "--out-of-cabin", out_path]
    sample = make_sample("nominal-1", labels={"emotion": "neutral", "behavior": "normal_driving",
                                              "traffic_scene": "smooth_traffic", "vehicle_motion": "forward_moving"})
    return ["stratify", "--records", write_jsonl(tmp_path / "s.jsonl", [sample_to_dict(sample)])]


def run_python(code, *argv):
    """``python -c code argv...`` importing this package: the completed process."""
    paths = [str(Path(ecpo.__file__).resolve().parent.parent), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    return subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("command", sorted(NOT_LOADED))
def test_command_loads_only_its_modules(tmp_path, rain_prompt, rain_policy_dict, command):
    argv = ["--out", str(tmp_path / "out.jsonl"), *command_argv(tmp_path, command, rain_prompt, rain_policy_dict)]
    result = run_python(_RUN_AND_LIST_MODULES, *argv)
    assert result.returncode == 0, result.stderr
    loaded = json.loads(result.stdout)
    assert loaded["code"] == 0, result.stderr
    assert "ecpo.cli" in loaded["modules"]
    assert NOT_LOADED[command].isdisjoint(loaded["modules"])
    if command in NO_KEYWORD_UNION:
        assert loaded["unions"] == 0


# Runs main with -I (no PYTHONPATH, no user site) and -S (no site-packages), so
# only the standard library and this package can load; lists what did.
_RUN_ON_STDLIB_ALONE = (
    "import json, sys\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "from ecpo.cli import main\n"
    "code = main(sys.argv[2:])\n"
    "allowed = sys.stdlib_module_names | {'ecpo', '__main__'}\n"
    "print(json.dumps({'code': code, 'foreign': sorted(m for m in sys.modules if m.split('.')[0] not in allowed)}))\n"
)


@pytest.mark.parametrize("command", sorted(NOT_LOADED))
def test_command_runs_on_the_standard_library_alone(tmp_path, rain_prompt, rain_policy_dict, command):
    argv = ["--out", str(tmp_path / "out.jsonl"), *command_argv(tmp_path, command, rain_prompt, rain_policy_dict)]
    package_root = str(Path(ecpo.__file__).resolve().parent.parent)
    # -I ignores PYTHONDONTWRITEBYTECODE: -B keeps the run from writing bytecode into the package
    result = subprocess.run([sys.executable, "-I", "-S", "-B", "-c", _RUN_ON_STDLIB_ALONE, package_root, *argv],
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout) == {"code": 0, "foreign": []}


def test_package_attribute_imports_the_module():
    result = run_python(
        "import sys, ecpo.cli\n"
        "assert 'ecpo.metrics' not in sys.modules\n"
        "assert ecpo.metrics is sys.modules['ecpo.metrics']\n"
        "assert not hasattr(ecpo, 'no_such_module')\n"
    )
    assert result.returncode == 0, result.stderr
    assert ecpo._MODULES == {path.stem for path in Path(ecpo.__file__).parent.glob("*.py")} - {"__init__"}
