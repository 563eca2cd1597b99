"""Tests of the benchmark itself: `python3 -m pytest bench`."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import run
import spans
import workloads

BENCH = Path(__file__).resolve().parent
DECLARED = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_generator_is_deterministic_per_seed(name):
    assert workloads.generate(name, 3, "tiny") == workloads.generate(name, 3, "tiny")
    assert workloads.generate(name, 3, "tiny") != workloads.generate(name, 4, "tiny")


def test_workload_names_match_the_declaration():
    assert [w["name"] for w in DECLARED["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_run_prints_the_declared_metrics(trace, kind):
    completed = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "all", "--seed", "0",
         "--seconds", "0.2", "--trace", str(trace), "--size", "tiny"],
        capture_output=True, text=True, timeout=170,
    )
    assert completed.returncode == 0, completed.stderr
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in DECLARED[kind]}
    expected = {f"{w}.{name}": unit for w in run.WORKLOADS for name, unit in declared.items()}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected


def test_per_layer_counts_match_the_workload_shape():
    completed = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "retrieve_5k", "--seed", "1",
         "--seconds", "0.2", "--trace", "1", "--size", "tiny"],
        capture_output=True, text=True, timeout=170,
    )
    assert completed.returncode == 0, completed.stderr
    metrics = json.loads(completed.stdout.strip().splitlines()[-1])["metrics"]
    snippets = workloads.SIZES["retrieve_5k"]["tiny"]["snippets"]
    assert metrics["store.snippets_scored_per_query"]["value"] == snippets
    assert metrics["store.retrieve.calls_per_record"]["value"] == 1.0


@pytest.fixture
def validate_workload(tmp_path):
    workload = run.ValidateWorkload("validate_k8", 0, "tiny", tmp_path)
    result = run.run_cli(workload, workload.cli_args("records.jsonl"))
    assert result["problems"] == []
    return workload, result["output"]


def test_check_passes_a_real_output(validate_workload):
    workload, output = validate_workload
    assert workload.check(output, workload.records) == []


def corrupt_score(output: str, index: int) -> str:
    lines = output.splitlines(keepends=True)
    record = json.loads(lines[index])
    record["report"]["ecpo"] += 0.01
    lines[index] = json.dumps(record) + "\n"
    return "".join(lines)


@pytest.mark.parametrize("corrupt", [
    lambda output: corrupt_score(output, 3),
    lambda output: output.replace("\n", "\n{", 1),
    lambda output: "".join(output.splitlines(keepends=True)[1:]),
])
def test_one_corrupted_line_counts_as_a_failure(validate_workload, corrupt):
    workload, output = validate_workload
    tally = run.Tally()
    tally.add("batch", workload.check(output, workload.records))
    tally.add("batch", workload.check(corrupt(output), workload.records))
    assert (tally.attempted, tally.failed) == (2, 1)


def test_retrieve_check_catches_a_misordered_ranking(tmp_path):
    workload = run.RetrieveWorkload("retrieve_5k", 0, "tiny", tmp_path)
    output = run.run_cli(workload, workload.cli_args("records.jsonl"))["output"]
    assert workload.check(output, workload.records) == []
    lines = output.splitlines()
    record = json.loads(lines[0])
    record["ranked"].reverse()
    lines[0] = json.dumps(record)
    assert workload.check("\n".join(lines) + "\n", workload.records)


def test_compression_expectation_stops_at_the_first_overflow():
    ranked = [
        {"snippet_id": "a", "layer": "driver", "text": "one two"},
        {"snippet_id": "b", "layer": "legal", "text": "one two three"},
        {"snippet_id": "c", "layer": "vehicle", "text": "one two three four"},
    ]
    assert checks.expected_compression(ranked, 7) == ["b", "c"]
    assert checks.expected_compression(ranked, 6) == ["b"]


def test_tracer_self_time_excludes_children_and_bindings_are_restored():
    ecpo = run.import_ecpo()
    from ecpo.context import PerceptionSummary

    tracer = spans.Tracer(frozenset({"validator.derive_hazards"}))
    original = ecpo.validator.tokenize
    targets = (("validator.derive_hazards", "validator", "derive_hazards"),
               ("textnorm.tokenize", "textnorm", "tokenize"))
    with spans.patched(targets, tracer.wrap) as missing:
        assert missing == []
        assert ecpo.validator.tokenize is not original
        ecpo.validator.derive_hazards(PerceptionSummary(scene_labels=("heavy rain",)))
    assert ecpo.validator.tokenize is original
    self_ns, calls = tracer.self_times()
    assert calls["validator.derive_hazards"] == 1 and calls["textnorm.tokenize"] >= 1
    parent = tracer.spans[0]
    children = sum(span[2] - span[1] for span in tracer.spans if span[3] == 0)
    assert self_ns["validator.derive_hazards"] == parent[2] - parent[1] - children
    assert {span[4] for span in tracer.spans} == {0}
