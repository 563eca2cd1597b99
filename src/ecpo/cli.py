"""Command-line batch pipelines over JSONL files.

Every command reads line-delimited JSON (UTF-8, LF), writes data records to
stdout or --out, and logs to stderr. A single config file governs all
tunables; CLI flags override it. Outputs are deterministic: re-running a
command on the same inputs and config is byte-identical. Exit codes: 0
success, 1 input error, 2 config error, 3 violated internal invariant.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterator, Sequence

from .config import RunConfig, load_config
from .errors import (ConfigError, InputError, ToolkitError, cut, read_file, read_int, read_list, read_optional,
                     read_record, read_strings, shown)
from .policy import document_text

# Each handler imports the modules it runs, so a command loads only those.
if TYPE_CHECKING:
    from .context import StrategyPrompt
    from .metrics import StrategyEvalRecord


def _dumps(payload: object) -> str:
    return json.dumps(payload, ensure_ascii=False, sort_keys=True, separators=(",", ":"))


_JSON_SPACE = " \t\r"  # the JSON whitespace a line can hold (LF ends it); a line of nothing else is blank
_scan = json.JSONDecoder().scan_once


def _read_jsonl(path: str, decode: Callable[[object], object] | None = None) -> list:
    """Each non-blank line's value, through ``decode`` as soon as it parses, so a file's raw values are never all
    held. A decode failure waits until every line has parsed: a ``BAD_LINE`` anywhere still wins."""
    if not os.path.exists(path):
        raise InputError("MISSING_FILE", f"no such file: {path}")
    records, failure = [], None
    # LF only: str.splitlines() would also break at U+2028, U+2029 and U+0085,
    # which _dumps writes raw inside strings.
    for number, line in enumerate(read_file(path, "BAD_FILE", "input").split("\n"), start=1):
        start = len(line) - len(line.lstrip(_JSON_SPACE))
        if start == len(line):
            continue
        try:  # the scanner at once; json.loads only for the error of a line that is not one JSON value
            value, end = _scan(line, start)
            if line[end:].strip(_JSON_SPACE):
                raise ValueError
        except (StopIteration, ValueError, RecursionError):
            try:
                value = json.loads(line)
            except (ValueError, RecursionError) as error:
                raise InputError("BAD_LINE", f"{path}:{number}: {error}")
        if failure is None:
            try:
                records.append(value if decode is None else decode(value))
            except Exception as error:  # any failure, INTERNAL ones too, waits until every line has parsed
                failure = error
    if failure is not None:
        raise failure
    return records


def _emit(lines: Sequence[str], out_path: str | None) -> None:
    payload = "".join(line + "\n" for line in lines)
    if out_path is None:
        sys.stdout.write(payload)
        return
    try:
        Path(out_path).write_text(payload, encoding="utf-8")
    except OSError as error:
        raise InputError("BAD_OUT", f"cannot write {out_path}: {error}")


def _log(message: str) -> None:
    print(message, file=sys.stderr)


def _prompt_of(record: object) -> StrategyPrompt:
    """A bare prompt record, or the prompt of a sample record (keyed 'prompt')."""
    from .context import prompt_from_dict, sample_from_dict

    if isinstance(record, dict) and "prompt" in record:
        return sample_from_dict(record).prompt
    return prompt_from_dict(record)


def _carried_prompt(value: object, code: str, what: str) -> StrategyPrompt:
    from .context import prompt_from_dict  # imported on first use, as the handlers import their modules

    return prompt_from_dict(value, code, what)


def _candidates(value: object, code: str, what: str) -> list[dict]:
    if not isinstance(value, list) or not value:
        raise InputError(code, f"{what} must be a non-empty list")
    return [read_record(entry, CANDIDATE_FIELDS, code, "candidate", ("document",)) for entry in value]


def _vote(vote: object) -> tuple[bool, bool, bool]:
    if not isinstance(vote, list) or len(vote) != 3 or not all(isinstance(flag, bool) for flag in vote):
        raise InputError("BAD_RECORD", f"a rating must be a [bool, bool, bool] list, got {shown(vote)}")
    return tuple(vote)


# The records each command reads, field -> rule (see `errors.read_record`), with
# their required fields. A document is read as text; a carried `prompt` that is
# absent or null stands for an empty prompt under the record's prompt_id.
VALIDATE_FIELDS = {"prompt_id": str, "candidate_id": str, "document": document_text}
CANDIDATE_FIELDS = {"candidate_id": str, "document": document_text}
PAIRS_FIELDS = {"prompt_id": str, "prompt": read_optional(_carried_prompt), "candidates": _candidates}
# eval records by kind: (fields, required)
EVAL_FIELDS = {
    "strategy": (
        {"kind": None, "prompt_id": str, "prompt": read_optional(_carried_prompt),
         "document": document_text, "ratings": read_optional(read_list(_vote)), "seed": read_int},
        ("prompt_id", "document"),
    ),
    "labels": ({"kind": None, "truth": read_strings, "prediction": read_strings}, ("truth", "prediction")),
    "classification": ({"kind": None, "truth": str, "prediction": str}, ("truth", "prediction")),
    "text": ({"kind": None, "reference": str, "hypothesis": str}, ("reference", "hypothesis")),
}


def _strategy_prompt(record: dict, path: str) -> StrategyPrompt:
    """The prompt a decoded strategy record carries, which must have the record's
    own prompt_id, or an empty prompt under its prompt_id."""
    from .context import StrategyPrompt

    prompt_id = record["prompt_id"]
    prompt = record.get("prompt") or StrategyPrompt(prompt_id)
    if prompt.prompt_id != prompt_id:
        raise InputError("BAD_RECORD", f"{path}: record prompt_id {shown(prompt_id)} differs from its prompt's "
                                       f"{shown(prompt.prompt_id)}")
    return prompt


def _load_prompts(path: str) -> dict[str, StrategyPrompt]:
    prompts: dict[str, StrategyPrompt] = {}
    for record in _read_jsonl(path):
        prompt = _prompt_of(record)
        if prompt.prompt_id in prompts:
            raise InputError("DUPLICATE_ID", f"{path}: prompt {shown(prompt.prompt_id)} appears twice")
        prompts[prompt.prompt_id] = prompt
    return prompts


def cmd_validate(args, config: RunConfig) -> list[str]:
    from .validator import report_to_dict, validate

    prompts = _load_prompts(args.prompts)
    echo = config.echo()
    lines = []
    valid_count = 0
    records = _read_jsonl(args.policies)
    where = f"{args.policies}: record"
    for index, record in enumerate(records):
        record = read_record(record, VALIDATE_FIELDS, "BAD_RECORD", where, ("prompt_id", "document"))
        prompt_id = record["prompt_id"]
        candidate_id = record.get("candidate_id", str(index))
        prompt = prompts.get(prompt_id)
        if prompt is None:
            raise InputError("UNKNOWN_PROMPT", f"{args.policies}: no prompt {shown(prompt_id)}")
        report = validate(record["document"], prompt, config)
        valid_count += report.schema_valid
        lines.append(_dumps({"kind": "report", "prompt_id": prompt_id, "candidate_id": candidate_id,
                             "report": report_to_dict(report), "config": echo}))
    if records:
        _log(f"validate: {len(records)} records, valid_pct={100.0 * valid_count / len(records):.2f}")
    else:
        _log("validate: 0 records")
    return lines


def cmd_pairs(args, config: RunConfig) -> list[str]:
    from .preference import Candidate, CandidateSet, select_pair
    from .validator import validate

    records, seen = [], set()
    where = f"{args.candidates}: record"
    for raw in _read_jsonl(args.candidates):
        record = read_record(raw, PAIRS_FIELDS, "BAD_RECORD", where, ("prompt_id", "candidates"))
        prompt_id = record["prompt_id"]
        if prompt_id in seen:
            raise InputError("DUPLICATE_ID", f"{args.candidates}: prompt {shown(prompt_id)} appears twice")
        seen.add(prompt_id)
        prompt = _strategy_prompt(record, args.candidates)
        candidates = []
        for index, entry in enumerate(record["candidates"]):
            document = entry["document"]
            candidate_id = entry.get("candidate_id", str(index))
            candidates.append(Candidate(candidate_id, document, validate(document, prompt, config)))
        pair = select_pair(CandidateSet(prompt_id=prompt_id, candidates=tuple(candidates)), config)
        if pair is None:
            _log(f"pairs: skip prompt {shown(prompt_id)} (score gap <= {config.gap_min})")
            continue
        documents = {c.candidate_id: c.document for c in candidates}
        # the prompt as the line carried it: an object verbatim, an absent one as null
        records.append({"prompt_id": prompt_id, "prompt": raw.get("prompt"), "chosen": documents[pair.plus_id],
                        "rejected": documents[pair.minus_id], "gap": pair.gap, "weight": pair.weight})
    records.sort(key=lambda r: r["prompt_id"])  # prompt ids are unique: one record per prompt
    _log(f"pairs: {len(records)} pairs from {len(seen)} candidate sets")
    return [_dumps(record) for record in records]


def _eval_rows(records: list[dict], kind: str, path: str) -> Iterator[dict]:
    """The records of one eval kind, each decoded by its table as it is taken."""
    fields, required = EVAL_FIELDS[kind]
    return (read_record(record, fields, "BAD_RECORD", f"{path}: {kind} record", required) for record in records)


def _eval_strategy_records(records: list[dict], config: RunConfig, path: str) -> list[StrategyEvalRecord]:
    from .metrics import StrategyEvalRecord
    from .validator import validate

    out = []
    # one record decoded at a time: a prompt and its validation context live
    # only while their record is scored
    for record in _eval_rows(records, "strategy", path):
        report = validate(record["document"], _strategy_prompt(record, path), config)
        ratings, seed = record.get("ratings"), record.get("seed", 0)
        out.append(StrategyEvalRecord.from_report(record["prompt_id"], report, ratings=ratings, seed=seed))
    return out


def cmd_eval(args, config: RunConfig) -> list[str]:
    from .metrics import (
        LabelSetSample,
        MetricReport,
        bleu4,
        classification_metrics,
        multilabel_metrics,
        rouge_l,
        strategy_metrics,
        text_tokens,
    )
    from .store import to_json

    records = _read_jsonl(args.records)
    by_kind: dict[str, list[dict]] = {}
    for record in records:
        kind = record.get("kind") if isinstance(record, dict) else None
        if not isinstance(kind, str) or kind not in EVAL_FIELDS:
            raise InputError("BAD_RECORD", f"{args.records}: unknown record kind {shown(kind)}")
        by_kind.setdefault(kind, []).append(record)

    report = MetricReport(config=config.echo())
    report.counts["records"] = len(records)

    if "labels" in by_kind:
        samples = [
            LabelSetSample.from_lists(r["truth"], r["prediction"])
            for r in _eval_rows(by_kind["labels"], "labels", args.records)
        ]
        report.counts["labels"] = len(samples)
        try:
            iou, emr, f1 = multilabel_metrics(samples, epsilon=config.epsilon)
        except InputError as error:
            for name in ("labels_iou", "labels_emr", "labels_f1"):
                report.set_na(name, error.code)
        else:
            report.set("labels_iou", iou)
            report.set("labels_emr", emr)
            report.set("labels_f1", f1)

    if "classification" in by_kind:
        rows = list(_eval_rows(by_kind["classification"], "classification", args.records))
        truth = [r["truth"] for r in rows]
        prediction = [r["prediction"] for r in rows]
        report.counts["classification"] = len(truth)
        accuracy, macro_f1 = classification_metrics(truth, prediction)
        report.set("cls_accuracy", accuracy)
        report.set("cls_macro_f1", macro_f1)

    if "text" in by_kind:
        rows = list(_eval_rows(by_kind["text"], "text", args.records))
        references = [text_tokens(r["reference"]) for r in rows]
        hypotheses = [text_tokens(r["hypothesis"]) for r in rows]
        report.counts["text"] = len(references)
        report.set("text_bleu4", bleu4(references, hypotheses, epsilon=config.epsilon))
        report.set("text_rouge_l", rouge_l(references, hypotheses))
        # Free the token lists before the strategy section, where peak RSS is.
        del references, hypotheses

    if "strategy" in by_kind:
        strategy = strategy_metrics(_eval_strategy_records(by_kind["strategy"], config, args.records),
                                    epsilon=config.epsilon)
        report.values.update(strategy.values)
        report.reasons.update(strategy.reasons)
        report.counts.update(strategy=strategy.counts["records"], schema_valid=strategy.counts["schema_valid"])

    _log(report.render_table())
    return [_dumps(to_json(report))]


def _snippet_view(snippet) -> dict:
    """The fields a retrieval record shows of a ranked or kept snippet."""
    return {"snippet_id": snippet.snippet_id, "layer": snippet.layer, "clause_id": snippet.clause_id,
            "text": snippet.text}


def cmd_retrieve(args, config: RunConfig) -> list[str]:
    from .store import LexicalScorer, build_query, compress, load_store, retrieve, snippet_from_dict, to_json

    store = load_store(_read_jsonl(args.store, snippet_from_dict))
    by_id = {snippet.snippet_id: snippet for snippet in store.snapshot()}
    scorer = LexicalScorer()
    echo = config.echo()
    lines = []
    for record in _read_jsonl(args.prompt):
        prompt = _prompt_of(record)
        query = build_query(prompt.z, prompt.driver, prompt.vehicle)
        result = retrieve(store, query, config.top_k, scorer=scorer)
        ranked = [by_id[hit.snippet_id] for hit in result.ranked]
        lines.append(_dumps({
            "kind": "retrieval",
            "prompt_id": prompt.prompt_id,
            "store_version": result.store_version,
            "scorer": result.scorer_kind,
            "query": to_json(query),
            "ranked": [_snippet_view(snippet) | {"score": hit.score} for snippet, hit in zip(ranked, result.ranked)],
            "compressed": [_snippet_view(snippet) for snippet in compress(ranked, config.token_budget)],
            "config": echo,
        }))
    return lines


def cmd_mixpair(args, config: RunConfig) -> list[str]:
    from .context import pair_mixed, sample_from_dict, sample_to_dict

    in_samples = _read_jsonl(args.in_cabin, sample_from_dict)
    out_samples = _read_jsonl(args.out_of_cabin, sample_from_dict)
    seed = config.seeds[0]
    paired = pair_mixed(in_samples, out_samples, seed=seed, block_size=config.block_size)
    _log(f"mixpair: {len(paired)} merged records (seed={seed}, block_size={config.block_size})")
    return [_dumps(sample_to_dict(record)) for record in paired]


def cmd_stratify(args, config: RunConfig) -> list[str]:
    from .context import STRATIFY_GROUPS, sample_from_dict, stratum

    records = _read_jsonl(args.records, sample_from_dict)
    vocab = config.label_vocab()
    groups = [stratum(record, vocab) for record in records]
    _log(f"stratify: {_dumps({group: groups.count(group) for group in STRATIFY_GROUPS})}")
    return [
        _dumps({"kind": "stratum", "prompt_id": record.prompt.prompt_id, "split": record.split, "group": group})
        for record, group in zip(records, groups)
    ]


HANDLERS = {
    "validate": cmd_validate,
    "pairs": cmd_pairs,
    "eval": cmd_eval,
    "retrieve": cmd_retrieve,
    "mixpair": cmd_mixpair,
    "stratify": cmd_stratify,
}


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors follow the error contract; its subparsers are of this class too."""

    def error(self, message: str):
        raise ConfigError("BAD_ARGS", cut(message))  # exit 2, as argparse exits on a usage error


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ecpo", description="Batch pipelines for policy validation, pairing, and evaluation."
    )
    parser.add_argument("--config", help="JSON run-config file; flags below override it")
    parser.add_argument("--out", help="output path (default: stdout)")
    parser.add_argument("--seed", type=int, help="override the config seed list with one seed")
    parser.add_argument("--top-k", type=int, dest="top_k", help="override retrieval depth")
    parser.add_argument("--weights", help="override score weights as w_core,w_evd,w_str")
    commands = parser.add_subparsers(dest="command", required=True)

    cmd = commands.add_parser("validate", help="score policy documents against their prompts")
    cmd.add_argument("--policies", required=True, help="JSONL of {prompt_id, candidate_id?, document}")
    cmd.add_argument("--prompts", required=True, help="JSONL of prompt or sample records")

    cmd = commands.add_parser("pairs", help="build a weighted preference dataset from candidate sets")
    cmd.add_argument("--candidates", required=True, help="JSONL of {prompt_id, prompt?, candidates: [...]}")

    cmd = commands.add_parser("eval", help="run the offline metric protocol over mixed-kind records")
    cmd.add_argument("--records", required=True, help="JSONL of kind-tagged evaluation records")

    cmd = commands.add_parser("retrieve", help="rank and compress constraint snippets for prompts")
    cmd.add_argument("--store", required=True, help="JSONL of constraint snippets")
    cmd.add_argument("--prompt", required=True, help="JSONL of prompt or sample records")

    cmd = commands.add_parser("mixpair", help="pair in-cabin with out-of-cabin samples, split-preserving")
    cmd.add_argument("--in-cabin", required=True, dest="in_cabin", help="JSONL of sample records")
    cmd.add_argument("--out-of-cabin", required=True, dest="out_of_cabin", help="JSONL of sample records")

    cmd = commands.add_parser("stratify", help="partition samples into scenario-criticality groups")
    cmd.add_argument("--records", required=True, help="JSONL of sample records")
    return parser


def _parse_weights(raw: str) -> tuple[float, ...]:
    """The comma-separated numbers of --weights; ``RunConfig`` checks the row."""
    try:
        return tuple(float(part) for part in raw.split(","))
    except ValueError:
        raise ConfigError("BAD_WEIGHTS", f"weights must be comma-separated numbers, got {shown(raw)}")


def _resolve_config(args) -> RunConfig:
    config = load_config(args.config) if args.config else RunConfig()
    overrides = {}
    if args.seed is not None:
        overrides["seeds"] = (args.seed,)
    if args.top_k is not None:
        overrides["top_k"] = args.top_k
    if args.weights is not None:
        overrides["ecpo_weights"] = _parse_weights(args.weights)
    if overrides:
        config = dataclasses.replace(config, **overrides)
    return config


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        config = _resolve_config(args)
        lines = HANDLERS[args.command](args, config)
        _emit(lines, args.out)
    except ToolkitError as error:
        _log(f"error: {error}")
        return error.exit_code
    except Exception as error:  # the error contract: no traceback escapes
        _log(f"error: INTERNAL: {type(error).__name__}: {error}")
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
