"""Output checks: the invariants every CLI output must satisfy on any seed.

Each checker takes the raw output text of one CLI invocation and the parsed
input records, and returns a list of problems (empty when the output is
correct). One problem is enough for the invocation to count as failed.
"""

from __future__ import annotations

import json

TOLERANCE = 1e-12

LAYER_SEVERITY = {"legal": 4, "vehicle": 3, "driver": 2, "contextual": 1}

LAYER_PRIORITY = {"legal": 0, "vehicle": 1, "driver": 2}


def parse_lines(text: str, expected: int) -> tuple[list[dict], list[str]]:
    """One JSON object per line, `expected` lines, LF-terminated."""
    problems = []
    if text and not text.endswith("\n"):
        problems.append("output does not end with a newline")
    lines = text.splitlines()
    if len(lines) != expected:
        problems.append(f"{len(lines)} output lines for {expected} expected")
    parsed = []
    for number, line in enumerate(lines, start=1):
        try:
            value = json.loads(line)
        except ValueError as error:
            problems.append(f"line {number}: not JSON ({error})")
            continue
        if not isinstance(value, dict):
            problems.append(f"line {number}: not a JSON object")
            continue
        parsed.append(value)
    return parsed, problems


def report_problems(report: dict, where: str) -> list[str]:
    """Score invariants of one validation report (a `report_to_dict` value)."""
    problems = []
    try:
        checks = report["checks"]
        severity = report["violation"]["severity"]
        count = report["violation"]["count"]
        s_core, s_evd, s_str, ecpo = report["s_core"], report["s_evd"], report["s_str"], report["ecpo"]
        w_core, w_evd, w_str = report["weights_used"]
        failed = {}
        for check in checks:
            if not check["passed"]:
                failed.setdefault(check["check_id"], check["layer"])
    except (KeyError, TypeError, ValueError) as error:
        return [f"{where}: malformed report ({error!r})"]
    if not report["schema_valid"]:
        if checks or (severity, count) != (0, 0) or any(v != 0.0 for v in (s_core, s_evd, s_str, ecpo)):
            problems.append(f"{where}: invalid document without the all-zero report")
        return problems
    if count != len(failed):
        problems.append(f"{where}: violation count {count} for {len(failed)} failed checks")
    expected_severity = max((LAYER_SEVERITY.get(layer, 0) for layer in failed.values()), default=0)
    if severity != expected_severity:
        problems.append(f"{where}: severity {severity}, failed layers give {expected_severity}")
    core = max(0.0, 1.0 - severity / 4 - 0.1 * min(count, 10))
    if abs(s_core - core) > TOLERANCE:
        problems.append(f"{where}: s_core {s_core!r} != max(0, 1 - L/4 - 0.1*min(C, 10)) = {core!r}")
    total = min(1.0, max(0.0, w_core * s_core + w_evd * s_evd + w_str * s_str))
    if abs(ecpo - total) > TOLERANCE:
        problems.append(f"{where}: ecpo {ecpo!r} != weighted sum {total!r}")
    return problems


def check_validate(text: str, records: list[dict]) -> list[str]:
    lines, problems = parse_lines(text, len(records))
    for index, (line, record) in enumerate(zip(lines, records)):
        where = f"record {index}"
        if (line.get("kind"), line.get("prompt_id"), line.get("candidate_id")) != (
            "report", record["prompt_id"], record.get("candidate_id", str(index))
        ):
            problems.append(f"{where}: wrong kind or ids")
            continue
        problems.extend(report_problems(line.get("report", {}), where))
    return problems


def check_eval(text: str, records: list[dict]) -> list[str]:
    lines, problems = parse_lines(text, 1)
    if not lines:
        return problems
    report = lines[0]
    if report.get("counts", {}).get("records") != len(records):
        problems.append(f"counts.records is not {len(records)}")
    for name, value in report.get("values", {}).items():
        if value is None and name not in report.get("reasons", {}):
            problems.append(f"{name}: null without a reason code")
        elif value is not None and not isinstance(value, (int, float)):
            problems.append(f"{name}: value {value!r} is not a number")
    return problems


def expected_compression(ranked: list[dict], budget: int) -> list[str]:
    """Snippet ids compression must keep: layer order, whole snippets, stop at overflow."""
    kept = []
    used = 0
    for entry in sorted(ranked, key=lambda e: LAYER_PRIORITY[e["layer"]]):
        cost = len(entry["text"].split())
        if used + cost > budget:
            break
        kept.append(entry["snippet_id"])
        used += cost
    return kept


def check_retrieve(text: str, records: list[dict], store_ids: list[str], top_k: int, budget: int) -> list[str]:
    lines, problems = parse_lines(text, len(records))
    lowest_ids = sorted(store_ids)[:top_k]
    for index, (line, record) in enumerate(zip(lines, records)):
        where = f"query {index}"
        if (line.get("kind"), line.get("prompt_id")) != ("retrieval", record["prompt_id"]):
            problems.append(f"{where}: wrong kind or prompt id")
            continue
        try:
            ranked = line["ranked"]
            compressed = line["compressed"]
            keys = [(-entry["score"], entry["snippet_id"]) for entry in ranked]
            layers = [LAYER_PRIORITY[entry["layer"]] for entry in compressed]
            cost = sum(len(entry["text"].split()) for entry in compressed)
            kept = expected_compression(ranked, budget)
        except (KeyError, TypeError, AttributeError) as error:
            problems.append(f"{where}: malformed retrieval ({error!r})")
            continue
        if len(ranked) != top_k:
            problems.append(f"{where}: {len(ranked)} ranked snippets for top_k {top_k}")
        if keys != sorted(keys):
            problems.append(f"{where}: ranking is not sorted by (-score, snippet_id)")
        if any(not 0.0 <= -key[0] <= 1.0 + TOLERANCE for key in keys):
            problems.append(f"{where}: score outside [0, 1]")
        if ranked and ranked[0]["score"] == 0.0 and [e["snippet_id"] for e in ranked] != lowest_ids:
            problems.append(f"{where}: zero-score ranking is not the lowest snippet ids")
        if cost > budget:
            problems.append(f"{where}: compressed uses {cost} tokens over budget {budget}")
        if layers != sorted(layers):
            problems.append(f"{where}: compressed is not in layer order")
        if [entry["snippet_id"] for entry in compressed] != kept:
            problems.append(f"{where}: compressed is not the budgeted layer-order prefix")
    return problems
