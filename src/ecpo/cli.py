"""Command-line batch pipelines over JSONL files.

Every command reads line-delimited JSON (UTF-8, LF), writes data records to
stdout or --out, and logs to stderr. A single config file governs all
tunables; CLI flags override it. Outputs are deterministic: re-running a
command on the same inputs and config is byte-identical. Exit codes: 0
success, 1 input error, 2 config error, 3 violated internal invariant.
"""

from __future__ import annotations

import sys

if __name__ == "__main__":  # ``python -m ecpo.cli`` starts as the ``ecpo`` executable does, which imports this module
    import ecpo

    sys.exit(ecpo.run())

import argparse
import dataclasses
import json
import os
from operator import itemgetter
from pathlib import Path
from typing import Callable, Sequence

from .config import RunConfig, load_config
from .context import (STRATIFY_GROUPS, StrategyPrompt, pair_mixed, prompt_from_dict, sample_from_dict,
                      sample_to_dict, snippet_from_dict, stratum, to_json)
from .errors import (ConfigError, InputError, ToolkitError, cut, read_int, read_lines, read_list, read_optional,
                     read_record, read_strings, shown)

# Every command loads the modules above; a handler imports the validator, preference, metrics or store code it runs.


def _dumps(payload: object) -> str:
    return json.dumps(payload, ensure_ascii=False, sort_keys=True, separators=(",", ":"))


_JSON_SPACE = " \t\r\n"  # JSON whitespace, the LF that ends a line included; a line of nothing else is blank
_scan = json.JSONDecoder().scan_once


def _read_jsonl(path: str, step: Callable[[object], object]) -> list:
    """``step`` of each non-blank line's value as soon as the line parses, so a file is held one line at a time; the
    list of what it returned. Once every line has parsed, the first of the file's faults in this order is raised: a
    byte that is not UTF-8, a leading byte order mark, the first ``BAD_LINE``, the first record whose step fails. No
    record after that one is stepped. The one writer of a record's location: an ``InputError`` a step raises gains
    ``<path>:<line>: ``; any other error, a side file's ``ConfigError`` included, is raised as it is."""
    if not os.path.exists(path):
        raise InputError("MISSING_FILE", f"no such file: {path}")
    results, bad_line, failure = [], None, None
    for number, line in enumerate(read_lines(path, "BAD_FILE", "input"), start=1):
        start = len(line) - len(line.lstrip(_JSON_SPACE))
        if bad_line is not None or start == len(line):
            continue
        try:  # the scanner at once; json.loads only for the error of a line that is not one JSON value
            value, end = _scan(line, start)
            if line[end:].strip(_JSON_SPACE):
                raise ValueError
        except (StopIteration, ValueError, RecursionError):
            try:  # without its line break, CRLF included, as the error's positions counted it
                value = json.loads(line.removesuffix("\n").removesuffix("\r"))
            except (ValueError, RecursionError) as error:
                bad_line = InputError("BAD_LINE", f"{path}:{number}: {error}")
                continue
        if failure is None:
            try:
                results.append(step(value))
            except RecursionError:  # a value that parsed, too deep for the step to encode again
                failure = InputError("BAD_RECORD", f"{path}:{number}: a record holds a value nested too deep to encode")
            except InputError as error:
                failure = InputError(error.code, f"{path}:{number}: {error.message}")
            except Exception as error:  # any failure, INTERNAL ones too, waits until every line has parsed
                failure = error
    if bad_line or failure:
        raise bad_line or failure
    return results


def _emit(lines: Sequence[str], out_path: str | None) -> None:
    """Each line to ``out_path``, or to stdout, one at a time; either one failing to take them is ``BAD_OUT``."""
    try:
        if out_path is None:
            sys.stdout.writelines(line + "\n" for line in lines)
            sys.stdout.flush()
            return
        with open(out_path, "w", encoding="utf-8") as out:
            out.writelines(line + "\n" for line in lines)
    except OSError as error:
        if out_path is None:  # what stdout still buffers goes nowhere, not to a second error at the final flush
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        raise InputError("BAD_OUT", f"cannot write {out_path or 'stdout'}: {error}")


def _log(message: str) -> None:
    print(message, file=sys.stderr)


def _prompt_of(record: object) -> StrategyPrompt:
    """A bare prompt record, or the prompt of a sample record (keyed 'prompt')."""
    if isinstance(record, dict) and "prompt" in record:
        return sample_from_dict(record).prompt
    return prompt_from_dict(record)


def _carried_prompt(value: object, code: str, what: str) -> StrategyPrompt:
    # reads the module binding per call, the binding bench/spans.py patches: a field table would keep the original
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
# their required fields. A document is kept as decoded, for `parse_policy`; a carried `prompt` that is
# absent or null stands for an empty prompt under the record's prompt_id.
VALIDATE_FIELDS = {"prompt_id": str, "candidate_id": str, "document": None}
CANDIDATE_FIELDS = {"candidate_id": str, "document": None}
PAIRS_FIELDS = {"prompt_id": str, "prompt": read_optional(_carried_prompt), "candidates": _candidates}
# eval records by kind: (fields, required)
EVAL_FIELDS = {
    "strategy": (
        {"kind": None, "prompt_id": str, "prompt": read_optional(_carried_prompt),
         "document": None, "ratings": read_optional(read_list(_vote)), "seed": read_int},
        ("prompt_id", "document"),
    ),
    "labels": ({"kind": None, "truth": read_strings, "prediction": read_strings}, ("truth", "prediction")),
    "classification": ({"kind": None, "truth": str, "prediction": str}, ("truth", "prediction")),
    "text": ({"kind": None, "reference": str, "hypothesis": str}, ("reference", "hypothesis")),
}


def _strategy_prompt(record: dict) -> StrategyPrompt:
    """The prompt a strategy record carries, which must have the record's own prompt_id, or an empty one under it."""
    prompt_id = record["prompt_id"]
    prompt = record.get("prompt") or StrategyPrompt(prompt_id)
    if prompt.prompt_id != prompt_id:
        raise InputError("BAD_RECORD", f"record prompt_id {shown(prompt_id)} differs from its prompt's "
                                       f"{shown(prompt.prompt_id)}")
    return prompt


def _load_prompts(path: str) -> dict[str, StrategyPrompt]:
    prompts: dict[str, StrategyPrompt] = {}

    def take(record: object) -> None:
        prompt = _prompt_of(record)
        if prompt.prompt_id in prompts:
            raise InputError("DUPLICATE_ID", f"prompt {shown(prompt.prompt_id)} appears twice")
        prompts[prompt.prompt_id] = prompt

    _read_jsonl(path, take)
    return prompts


def cmd_validate(args, config: RunConfig) -> list[str]:
    from .validator import report_to_dict, validate

    prompts = _load_prompts(args.prompts)
    echo = config.echo()
    index, valid_count = 0, 0

    def report_line(raw: object) -> str:
        nonlocal index, valid_count
        record = read_record(raw, VALIDATE_FIELDS, "BAD_RECORD", "record", ("prompt_id", "document"))
        prompt_id = record["prompt_id"]
        candidate_id = record.get("candidate_id", str(index))
        prompt = prompts.get(prompt_id)
        if prompt is None:
            raise InputError("UNKNOWN_PROMPT", f"no prompt {shown(prompt_id)}")
        report = validate(record["document"], prompt, config)
        index += 1
        valid_count += report.schema_valid
        return _dumps({"kind": "report", "prompt_id": prompt_id, "candidate_id": candidate_id,
                       "report": report_to_dict(report), "config": echo})

    lines = _read_jsonl(args.policies, report_line)
    if lines:
        _log(f"validate: {len(lines)} records, valid_pct={100.0 * valid_count / len(lines):.2f}")
    else:
        _log("validate: 0 records")
    return lines


def cmd_pairs(args, config: RunConfig) -> list[str]:
    from .preference import Candidate, CandidateSet, select_pair
    from .validator import validate

    seen = set()

    def pair_line(raw: object) -> tuple[str, str] | None:
        """(prompt_id, the pair's line), or None for a set whose pair is skipped, logged as it is decided."""
        record = read_record(raw, PAIRS_FIELDS, "BAD_RECORD", "record", ("prompt_id", "candidates"))
        prompt_id = record["prompt_id"]
        if prompt_id in seen:
            raise InputError("DUPLICATE_ID", f"prompt {shown(prompt_id)} appears twice")
        seen.add(prompt_id)
        prompt = _strategy_prompt(record)
        candidates = [Candidate(entry.get("candidate_id", str(index)), entry["document"],
                                validate(entry["document"], prompt, config))
                      for index, entry in enumerate(record["candidates"])]
        pair = select_pair(CandidateSet(prompt_id=prompt_id, candidates=tuple(candidates)), config)
        if pair is None:
            _log(f"pairs: skip prompt {shown(prompt_id)} (score gap <= {config.gap_min})")
            return None
        documents = {c.candidate_id: c.document for c in candidates}
        # the documents as text, an inline one as its JSON; the prompt as the line carried it, an absent one as null
        chosen, rejected = (document if isinstance(document, str) else json.dumps(document)
                            for document in (documents[pair.plus_id], documents[pair.minus_id]))
        return prompt_id, _dumps({"prompt_id": prompt_id, "prompt": raw.get("prompt"), "chosen": chosen,
                                  "rejected": rejected, "gap": pair.gap, "weight": pair.weight})

    pairs = _read_jsonl(args.candidates, pair_line)
    lines = [line for _, line in sorted(filter(None, pairs))]  # in prompt_id order: prompt ids are unique
    _log(f"pairs: {len(lines)} pairs from {len(seen)} candidate sets")
    return lines


def cmd_eval(args, config: RunConfig) -> list[str]:
    from .metrics import (LabelSetSample, MetricReport, StrategyEvalRecord, bleu4, classification_metrics,
                          multilabel_metrics, rouge_l, strategy_metrics)
    from .validator import validate

    def strategy_record(record: dict) -> StrategyEvalRecord:
        report = validate(record["document"], _strategy_prompt(record), config)
        ratings, seed = record.get("ratings"), record.get("seed", 0)
        return StrategyEvalRecord.from_report(record["prompt_id"], report, ratings=ratings, seed=seed)

    # What each kind's section reads of a record: a strategy record is validated as it is read, so its prompt and
    # validation context live only while it is scored.
    keeps = {"labels": lambda record: LabelSetSample.from_lists(record["truth"], record["prediction"]),
             "classification": itemgetter("truth", "prediction"), "text": itemgetter("reference", "hypothesis"),
             "strategy": strategy_record}
    sections: dict[str, list] = {}

    def take(record: object) -> None:
        """The record decoded by its kind's table, then kept in its kind's section as that section reads it."""
        kind = record.get("kind") if isinstance(record, dict) else None
        if not isinstance(kind, str) or kind not in EVAL_FIELDS:
            raise InputError("BAD_RECORD", f"unknown record kind {shown(kind)}")
        fields, required = EVAL_FIELDS[kind]
        sections.setdefault(kind, []).append(keeps[kind](read_record(record, fields, "BAD_RECORD", f"{kind} record",
                                                                     required)))

    _read_jsonl(args.records, take)
    report = MetricReport(config=config.echo())
    report.counts["records"] = sum(map(len, sections.values()))

    if "labels" in sections:
        samples = sections["labels"]
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

    if "classification" in sections:
        truths, predictions = zip(*sections["classification"])
        report.counts["classification"] = len(truths)
        accuracy, macro_f1 = classification_metrics(truths, predictions)
        report.set("cls_accuracy", accuracy)
        report.set("cls_macro_f1", macro_f1)

    if "text" in sections:
        references, hypotheses = zip(*sections["text"])
        report.counts["text"] = len(references)
        report.set("text_bleu4", bleu4(references, hypotheses, epsilon=config.epsilon))
        report.set("text_rouge_l", rouge_l(references, hypotheses))

    if "strategy" in sections:
        strategy = strategy_metrics(sections["strategy"], epsilon=config.epsilon)
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
    from .store import LexicalScorer, build_query, compress, load_store, retrieve

    store = load_store(_read_jsonl(args.store, snippet_from_dict))
    by_id = {snippet.snippet_id: snippet for snippet in store.snapshot()}
    scorer = LexicalScorer()
    echo = config.echo()

    def retrieval_line(record: object) -> str:
        prompt = _prompt_of(record)
        query = build_query(prompt.z, prompt.driver, prompt.vehicle)
        result = retrieve(store, query, config.top_k, scorer=scorer)
        ranked = [by_id[hit.snippet_id] for hit in result.ranked]
        return _dumps({
            "kind": "retrieval",
            "prompt_id": prompt.prompt_id,
            "store_version": result.store_version,
            "scorer": result.scorer_kind,
            "query": to_json(query),
            "ranked": [_snippet_view(snippet) | {"score": hit.score} for snippet, hit in zip(ranked, result.ranked)],
            "compressed": [_snippet_view(snippet) for snippet in compress(ranked, config.token_budget)],
            "config": echo,
        })

    return _read_jsonl(args.prompt, retrieval_line)


def cmd_mixpair(args, config: RunConfig) -> list[str]:
    in_samples = _read_jsonl(args.in_cabin, sample_from_dict)
    out_samples = _read_jsonl(args.out_of_cabin, sample_from_dict)
    seed = config.seeds[0]
    paired = pair_mixed(in_samples, out_samples, seed=seed, block_size=config.block_size)
    lines = [_dumps(sample_to_dict(record)) for record in paired]
    _log(f"mixpair: {len(lines)} merged records (seed={seed}, block_size={config.block_size})")
    return lines


def cmd_stratify(args, config: RunConfig) -> list[str]:
    vocab = config.label_vocab()
    counts = dict.fromkeys(STRATIFY_GROUPS, 0)

    def stratum_line(raw: object) -> str:
        """The sample's group line, counted as it is decided: only the output lines are kept."""
        record = sample_from_dict(raw)
        group = stratum(record, vocab)
        counts[group] += 1
        return _dumps({"kind": "stratum", "prompt_id": record.prompt.prompt_id, "split": record.split, "group": group})

    lines = _read_jsonl(args.records, stratum_line)
    _log(f"stratify: {_dumps(counts)}")
    return lines


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
        # a bad --out fails before any work; the file itself is neither created nor truncated here
        if args.out is not None and (Path(args.out).is_dir() or not Path(args.out).parent.is_dir()):
            raise InputError("BAD_OUT", f"cannot write {args.out}: it is a directory or its folder does not exist")
        lines = HANDLERS[args.command](args, config)
        _emit(lines, args.out)
    except ToolkitError as error:
        _log(f"error: {error}")
        return error.exit_code
    except RecursionError:  # every reader catches its own: a value that parsed, too deep to encode again
        _log("error: BAD_RECORD: a record holds a value nested too deep to encode")
        return 1
    except Exception as error:  # the error contract: no traceback escapes
        _log(f"error: INTERNAL: {type(error).__name__}: {error}")
        return 3
    return 0
