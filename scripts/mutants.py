"""Mutation check: every mutant in the table must be killed by the tests it names.

Each entry of ``MUTANTS`` names one file of the checkout, a text that occurs in
it exactly once, the text that replaces it, and the test node ids expected to
fail on that change. For each entry the script copies ``src``, ``tests``,
``bench`` and ``pyproject.toml`` to a temporary directory, applies the mutant
there, and runs the named tests with ``pytest -x``. A mutant whose tests all
pass survived. The checkout itself is never changed. Run it directly:

    python3 scripts/mutants.py              # every mutant
    python3 scripts/mutants.py NAME ...     # the named mutants

The exit status is 0 when every mutant run was killed, and 1 when one survived
or could not be applied or run. Technique: DeMillo, Lipton & Sayward, "Hints on
Test Data Selection: Help for the Practicing Programmer", IEEE Computer 1978.
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "bench", "pyproject.toml")
TIMEOUT_S = 600


class Mutant(NamedTuple):
    name: str
    file: str  # relative to the checkout
    old: str
    new: str
    tests: tuple[str, ...]  # pytest node ids, relative to the checkout


MUTANTS = (
    # --- one keyword scanner: each pattern set's KeywordScan built once, one scan loop
    Mutant(
        "union-hit-taken-as-hits", "src/ecpo/policy.py",
        "            hits = _word_hits(pattern, text)\n",
        "            hits = _word_hits(union or pattern, text)\n",
        ("tests/test_validator.py::test_union_scans_equal_the_per_pattern_reference",
         "tests/test_validator.py::test_grouped_patterns_are_scanned_alone"),
    ),
    Mutant(
        "union-branch-inverted", "src/ecpo/policy.py",
        "        for label, pattern in entries if union is not None and union.search(text) else alone:\n",
        "        for label, pattern in entries if union is not None and not union.search(text) else alone:\n",
        ("tests/test_validator.py::test_a_keyword_shared_by_two_snippets_cites_both_clauses",
         "tests/test_validator.py::test_union_scans_equal_the_per_pattern_reference"),
    ),
    Mutant(
        "carriers-deduplicated-per-keyword", "src/ecpo/validator.py",
        "    return keyword_scan(\n"
        "        ((snippet, keyword), keyword_pattern(keyword))\n"
        "        for snippet in snippets\n"
        "        if snippet.assertions\n"
        "        for keyword in snippet.assertions.forbidden_keywords\n"
        "    )\n",
        "    seen = set()\n"
        "    return keyword_scan(\n"
        "        ((snippet, keyword), keyword_pattern(keyword))\n"
        "        for snippet in snippets\n"
        "        if snippet.assertions\n"
        "        for keyword in snippet.assertions.forbidden_keywords\n"
        "        if not (keyword in seen or seen.add(keyword))\n"
        "    )\n",
        ("tests/test_validator.py::test_a_keyword_shared_by_two_snippets_cites_both_clauses",
         "tests/test_validator.py::test_union_scans_equal_the_per_pattern_reference"),
    ),
    Mutant(
        "clause-from-a-later-hit", "src/ecpo/validator.py",
        "        clause = clause or snippet.clause_id\n"
        "    return _verdict(check_id, layer, hits, \"no forbidden keyword present\", clause)\n",
        "        clause = snippet.clause_id\n"
        "    return _verdict(check_id, layer, hits, \"no forbidden keyword present\", clause)\n",
        ("tests/test_validator.py::test_a_keyword_shared_by_two_snippets_cites_both_clauses",),
    ),
    Mutant(
        "lexicon-scan-built-per-call", "src/ecpo/policy.py",
        " in scan(lexicon, texts) ",
        " in scan(keyword_scan(lexicon.entries), texts) ",
        ("tests/test_validator.py::test_a_later_candidate_of_a_prompt_builds_no_keyword_union",),
    ),
    Mutant(
        "default-lexicon-compiled-per-call", "src/ecpo/config.py",
        "return load_asset(compile_lexicon, DEFAULT_LEXICON_LINES) if path is None else",
        "return compile_lexicon(DEFAULT_LEXICON_LINES) if path is None else",
        ("tests/test_validator.py::test_a_later_candidate_of_a_prompt_builds_no_keyword_union",),
    ),
    Mutant(
        "lexicon-file-loaded-per-call", "src/ecpo/config.py",
        " else load_asset(load_lexicon, path)\n",
        " else load_lexicon(path)\n",
        ("tests/test_validator.py::test_a_later_candidate_of_a_prompt_builds_no_keyword_union",),
    ),
    # --- action facts: built by the first read of a policy, kept on that policy alone
    Mutant(
        "facts-rebuilt-per-read", "src/ecpo/policy.py",
        "    facts = policy._facts\n    if facts is None:\n",
        "    facts = policy._facts\n    if True:\n",
        ("tests/test_validator.py::test_a_policy_builds_its_action_facts_once_and_only_when_read",),
    ),
    Mutant(
        "facts-shared-across-policies", "src/ecpo/policy.py",
        "    facts = policy._facts\n"
        "    if facts is None:\n"
        "        facts = tuple(map(_build_facts, policy.actions))\n"
        "        object.__setattr__(policy, \"_facts\", facts)\n",
        "    facts = action_facts.__dict__.get(\"facts\")\n"
        "    if facts is None:\n"
        "        facts = action_facts.__dict__[\"facts\"] = tuple(map(_build_facts, policy.actions))\n",
        ("tests/test_validator.py::test_a_policy_builds_its_action_facts_once_and_only_when_read",),
    ),
    Mutant(
        "facts-built-by-parse", "src/ecpo/policy.py",
        "    return ParseOutcome(PolicyAction(objectives, ledger, tuple(actions)), tuple(defects))\n",
        "    policy = PolicyAction(objectives, ledger, tuple(actions))\n"
        "    action_facts(policy)\n"
        "    return ParseOutcome(policy, tuple(defects))\n",
        ("tests/test_validator.py::test_a_policy_builds_its_action_facts_once_and_only_when_read",),
    ),
    Mutant(
        "grouped-patterns-joined", "src/ecpo/policy.py",
        "if not pattern.groups and pattern.flags == _KEYWORD_FLAGS]",
        "if pattern.flags == _KEYWORD_FLAGS]",
        ("tests/test_validator.py::test_grouped_patterns_are_scanned_alone",
         "tests/test_validator.py::test_union_scans_equal_the_per_pattern_reference"),
    ),
    Mutant(
        "ecpo-score-unchecked", "src/ecpo/validator.py",
        "    return _aggregate(s_core, s_evd, s_str, check_weights(weights))\n",
        "    return _aggregate(s_core, s_evd, s_str, weights)\n",
        ("tests/test_validator.py::test_check_weights",),
    ),
    Mutant(
        "context-looked-up-twice", "src/ecpo/validator.py",
        "        checks = tuple(_layered_checks(policy, prompt, context, hazards_addressed))\n",
        "        checks = tuple(run_layered_checks(policy, prompt, rules))\n",
        ("tests/test_validator.py::test_validate_looks_up_the_prompt_context_once",),
    ),
    Mutant(
        "weights-checked-per-candidate", "src/ecpo/validator.py",
        "        ecpo=_aggregate(s_core, s_evd, s_str, cfg.ecpo_weights),\n",
        "        ecpo=ecpo_score(s_core, s_evd, s_str, cfg.ecpo_weights),\n",
        ("tests/test_validator.py::test_validate_reads_the_weight_row_the_config_checked",),
    ),
    # --- grounding: one pass over the prompt's interned content-token sets
    Mutant(
        "jaccard-without-minus-k", "src/ecpo/validator.py",
        " / (len(tokens) + len(c) - k) >= threshold",
        " / (len(tokens) + len(c)) >= threshold",
        ("tests/test_validator.py::test_evidence_jaccard_threshold_is_inclusive",
         "tests/test_validator.py::test_grounding_equals_brute_force_jaccard"),
    ),
    Mutant(
        "threshold-exclusive", "src/ecpo/validator.py",
        " / (len(tokens) + len(c) - k) >= threshold",
        " / (len(tokens) + len(c) - k) > threshold",
        ("tests/test_validator.py::test_evidence_jaccard_threshold_is_inclusive",),
    ),
    Mutant(
        "grounding-tokens-not-interned", "src/ecpo/validator.py",
        "tuple(tuple(map(sys.intern, content)) for content in candidates)",
        "tuple(tuple(content) for content in candidates)",
        ("tests/test_validator.py::test_equal_prompts_decoded_apart_share_their_grounding_tokens",),
    ),
    # --- per-prompt verdicts, the key cache, bound rows, modalities, defect paths, the default config
    Mutant(
        "memo-without-threshold", "src/ecpo/validator.py",
        "    key = (entry, threshold)\n",
        "    key = entry\n",
        ("tests/test_validator.py::test_each_verdict_is_computed_once_per_prompt_and_threshold",
         "tests/test_validator.py::test_memoized_grounding_equals_brute_force_and_a_fresh_prompt"),
    ),
    Mutant(
        "memo-shared-across-prompts", "src/ecpo/validator.py",
        " for content in candidates), {})\n",
        " for content in candidates),\n"
        "                     _grounding_targets.__dict__.setdefault(\"verdicts\", {}))\n",
        ("tests/test_validator.py::test_a_verdict_belongs_to_its_prompt",),
    ),
    Mutant(
        "norm-key-uncached-raw", "src/ecpo/policy.py",
        "@lru_cache(maxsize=1024)\ndef _norm_key(key: str) -> str:",
        "def _norm_key(key: str) -> str:\n    return key",
        ("tests/test_policy.py::test_layer_and_evidence_key_aliases",),
    ),
    Mutant(
        "bound-row-raw-parameter", "src/ecpo/validator.py",
        "(bound.action_type, bound.parameter, _norm_key(bound.parameter), ",
        "(bound.action_type, bound.parameter, bound.parameter, ",
        ("tests/test_validator.py::test_bound_rows_match_parameters_by_normalized_name",),
    ),
    Mutant(
        "modalities-from-first-prompt", "src/ecpo/validator.py",
        "        allowed_modalities=frozenset({preference} if preference else (\n"
        "            normalize_text(m) for s in binding for m in s.assertions.required_modalities\n"
        "        )),\n",
        "        allowed_modalities=_build_context.__dict__.setdefault(\"allowed\", frozenset(\n"
        "            {preference} if preference else (\n"
        "            normalize_text(m) for s in binding for m in s.assertions.required_modalities\n"
        "        ))),\n",
        ("tests/test_validator.py::test_allowed_modalities_belong_to_their_prompt",),
    ),
    Mutant(
        "parameter-path-dropped", "src/ecpo/policy.py",
        'defect("BAD_PARAMETER_VALUE", f"{path}.parameters.{cut(name) or shown(key)}", problem)',
        'defect("BAD_PARAMETER_VALUE", f"{path}.parameters", problem)',
        ("tests/test_policy.py::test_parameter_defects_name_their_parameter",),
    ),
    Mutant(
        "config-built-per-call", "src/ecpo/validator.py",
        "    cfg = config or DEFAULT_CONFIG\n",
        "    cfg = config or RunConfig()\n",
        ("tests/test_config.py::test_library_calls_without_a_config_read_the_one_default",),
    ),
    # --- every JSONL line streamed through its command's per-record step
    Mutant(
        "raw-values-kept", "src/ecpo/cli.py",
        "    lines = _read_jsonl(args.policies, report_line)\n",
        "    lines = list(map(report_line, _read_jsonl(args.policies, lambda value: value)))\n",
        ("tests/test_cli.py::test_validate_holds_one_policy_line_at_a_time",),
    ),
    Mutant(
        "bad-line-before-later-utf8", "src/ecpo/cli.py",
        '                bad_line = InputError("BAD_LINE", f"{path}:{number}: {error}")\n',
        '                raise InputError("BAD_LINE", f"{path}:{number}: {error}")\n',
        ("tests/test_cli_boundary.py::test_of_two_faults_the_whole_file_readers_wins",
         "tests/test_cli_boundary.py::test_the_streamed_reader_equals_the_whole_file_reader"),
    ),
    Mutant(
        "later-failure-kept", "src/ecpo/cli.py",
        "        if failure is None:\n",
        "        if True:\n",
        ("tests/test_cli_boundary.py::test_eval_steps_no_record_after_its_first_failing_one",
         "tests/test_cli_boundary.py::test_each_file_fails_as_its_first_faulty_line_alone"),
    ),
    # --- one writer of a record fault's location; stratify groups each sample as it reads it
    Mutant(
        "location-dropped", "src/ecpo/cli.py",
        '                failure = InputError(error.code, f"{path}:{number}: {error.message}")\n',
        "                failure = error\n",
        ("tests/test_cli_boundary.py::test_extra_key_fails_with_its_records_code",
         "tests/test_cli_boundary.py::test_each_file_fails_as_its_first_faulty_line_alone"),
    ),
    Mutant(
        "stratify-groups-after-the-read", "src/ecpo/cli.py",
        "    lines = _read_jsonl(args.records, stratum_line)\n",
        "    lines = list(map(stratum_line, _read_jsonl(args.records, lambda raw: sample_from_dict(raw) and raw)))\n",
        ("tests/test_cli_boundary.py::test_of_two_faults_the_whole_file_readers_wins",),
    ),
    Mutant(
        "pairs-skips-logged-after-the-read", "src/ecpo/cli.py",
        "    pairs = _read_jsonl(args.candidates, pair_line)\n",
        "    import contextlib, io\n"
        "    with contextlib.redirect_stderr(io.StringIO()) as held:\n"
        "        pairs = _read_jsonl(args.candidates, pair_line)\n"
        "    sys.stderr.write(held.getvalue())\n",
        ("tests/test_cli_boundary.py::test_of_two_faults_the_whole_file_readers_wins",),
    ),
    Mutant(
        "decode-position-without-offset", "src/ecpo/errors.py",
        "raise ValueError(_decode_error(exc, offset)) from None",
        "raise ValueError(_decode_error(exc, 0)) from None",
        ("tests/test_cli_boundary.py::test_of_two_faults_the_whole_file_readers_wins",
         "tests/test_cli_boundary.py::test_the_streamed_reader_equals_the_whole_file_reader"),
    ),
    # --- each rule in the module that owns it: the query floor, the count bound, the nesting guard
    Mutant(
        "query-floor-exclusive", "src/ecpo/context.py",
        " if sensitivity_rank(level) >= sensitivity_rank(\"medium\")]",
        " if sensitivity_rank(level) > sensitivity_rank(\"medium\")]",
        ("tests/test_store.py::test_build_query_fields",),
    ),
    Mutant(
        "count-unbounded-above", "src/ecpo/errors.py",
        "read_int(value, code, name, ConfigError) <= sys.maxsize:",
        "read_int(value, code, name, ConfigError):",
        ("tests/test_cli.py::test_a_count_past_the_largest_index_is_a_config_error",),
    ),
    Mutant(
        "nesting-guard-dropped", "src/ecpo/cli.py",
        "            except RecursionError:  # a value that parsed, too deep for the step to encode again\n",
        "            except ZeroDivisionError:  # a value that parsed, too deep for the step to encode again\n",
        ("tests/test_cli.py::test_a_value_too_deep_to_encode_fails_as_its_record",),
    ),
    # --- each outside value decoded once: documents parse from their value, side files share the line reader
    Mutant(
        "document-re-encoded", "src/ecpo/policy.py",
        "    if isinstance(document, str):\n        try:\n",
        "    if not isinstance(document, str):\n        document = json.dumps(document)\n    if True:\n        try:\n",
        ("tests/test_cli.py::test_a_value_too_deep_to_encode_fails_as_its_record",
         "tests/test_cli.py::test_an_action_type_too_deep_to_show_is_a_defect_of_its_report"),
    ),
    Mutant(
        "pairs-writes-the-inline-value", "src/ecpo/cli.py",
        "(document if isinstance(document, str) else json.dumps(document)\n",
        "(document if isinstance(document, str) else document\n",
        ("tests/test_cli.py::test_pairs_builds_dataset",
         "tests/test_cli.py::test_command_output_on_bench_inputs_is_pinned"),
    ),
    Mutant(
        "shown-without-fallback", "src/ecpo/errors.py",
        "    except RecursionError:\n        return \"<a value nested too deep to show>\"\n",
        "    except ZeroDivisionError:\n        return \"<a value nested too deep to show>\"\n",
        ("tests/test_cli.py::test_a_value_too_deep_to_show_is_shown_as_a_marker",
         "tests/test_cli.py::test_an_action_type_too_deep_to_show_is_a_defect_of_its_report"),
    ),
    Mutant(
        "lexicon-split-at-any-line-break", "src/ecpo/policy.py",
        '"lexicon", ConfigError).split("\\n"))',
        '"lexicon", ConfigError).splitlines())',
        ("tests/test_cli_boundary.py::test_only_lf_ends_a_side_file_line",),
    ),
    # --- start-up: only retrieve loads the store, statistics only for pstdev, no collection while modules load
    Mutant(
        "store-imported-by-every-command", "src/ecpo/cli.py",
        "                      sample_to_dict, snippet_from_dict, stratum, to_json)\n",
        "                      sample_to_dict, snippet_from_dict, stratum, to_json)\n"
        "from .store import load_store\n",
        ("tests/test_cli.py::test_command_loads_only_its_modules",),
    ),
    Mutant(
        "per-seed-mean-regrouped", "src/ecpo/metrics.py",
        "100.0 * (math.fsum(scores) / len(scores))",
        "100.0 * math.fsum(scores) / len(scores)",
        ("tests/test_cli.py::test_command_output_on_bench_inputs_is_pinned",),
    ),
    Mutant(
        "collector-off-on-import", "src/ecpo/__init__.py",
        "import gc\n",
        "import gc\n\ngc.disable()\n",
        ("tests/test_cli.py::test_importing_the_cli_leaves_the_collector_as_it_was",),
    ),
    Mutant(
        "collector-left-off", "src/ecpo/__init__.py",
        "    gc.freeze()\n    gc.enable()\n",
        "    gc.freeze()\n",
        ("tests/test_cli.py::test_the_cli_as_its_own_process_freezes_what_its_imports_built_and_collects_again",),
    ),
    Mutant(
        "python-m-skips-the-launcher", "src/ecpo/cli.py",
        "    sys.exit(ecpo.run())\n",
        "    sys.exit(ecpo.cli.main())\n",
        ("tests/test_cli.py::test_the_cli_as_its_own_process_freezes_what_its_imports_built_and_collects_again",),
    ),
    Mutant(
        "bytes-parameter-key-kept", "src/ecpo/policy.py",
        "            if not isinstance(key, str):\n                _key_not_text(key, f\"{path}.parameters\", defect)\n",
        "            if not hasattr(key, \"strip\"):\n                _key_not_text(key, f\"{path}.parameters\", defect)\n",
        ("tests/test_policy.py::test_a_key_that_is_not_text_is_an_unparseable_defect_at_its_object",),
    ),
    # --- one byte-table tokenizer pass; each retrieval query tokenized in one scan of its parts
    Mutant(
        "tokenizer-drops-non-ascii", "src/ecpo/textnorm.py",
        "    return text.casefold().encode(\"ascii\", \"replace\").translate(_TABLE).decode(\"ascii\").split()\n",
        "    return text.casefold().encode(\"ascii\", \"ignore\").translate(_TABLE).decode(\"ascii\").split()\n",
        ("tests/test_textnorm.py::test_tokenize_splits_on_non_alphanumerics",
         "tests/test_textnorm.py::test_tokenize_equals_split_and_drop_empty"),
    ),
    Mutant(
        "tokenizer-keeps-underscore", "src/ecpo/textnorm.py",
        "b\"0123456789abcdefghijklmnopqrstuvwxyz\"",
        "b\"0123456789_abcdefghijklmnopqrstuvwxyz\"",
        ("tests/test_textnorm.py::test_tokenize_splits_on_non_alphanumerics",
         "tests/test_textnorm.py::test_tokenize_equals_split_and_drop_empty"),
    ),
    Mutant(
        "text-break-glued", "src/ecpo/textnorm.py",
        "text.replace(TEXT_BREAK, \" \") + \" \\x00 \" for text in texts",
        "text.replace(TEXT_BREAK, \" \") + \"\\x00\" for text in texts",
        ("tests/test_textnorm.py::test_tokenize_texts_equals_each_text_then_a_break",
         "tests/test_store.py::test_tokenize_texts_breaks_after_each_text",
         "tests/test_store.py::test_chunked_index_equals_per_text_reference"),
    ),
    Mutant(
        "query-parts-joined-without-space", "src/ecpo/store.py",
        "        return content_tokens(\" \".join([self.jurisdiction,",
        "        return content_tokens(\"\".join([self.jurisdiction,",
        ("tests/test_store.py::test_query_tokens_equal_the_per_part_reference",
         "tests/test_store.py::test_duplicate_text_ranks_first_with_full_score"),
    ),
    # --- earlier changes
    Mutant(
        "survivor-margin-zero", "src/ecpo/store.py",
        "_SURVIVOR_MARGIN = 1e-9\n",
        "_SURVIVOR_MARGIN = 0.0\n",
        ("tests/test_store.py::test_survivor_margin_keeps_a_near_tie_at_the_kth_place",
         "tests/test_store.py::test_near_tie_one_ulp_apart_ranks_by_exact_cosine"),
    ),
    Mutant(
        "gate-over-first-three-names", "src/ecpo/metrics.py",
        "        for name in GATED_METRICS:\n",
        "        for name in GATED_METRICS[:3]:\n",
        ("tests/test_metrics.py::test_strategy_metrics_gates_all_six_below_the_floor",),
    ),
    Mutant(
        "sets-unsorted-by-to-json", "src/ecpo/context.py",
        "        return lambda items: sorted(_items(items))\n",
        "        return _items\n",
        ("tests/test_records.py::test_to_json_pins_sets_profiles_bounds_and_policies",),
    ),
    Mutant(
        "old-beta-check", "src/ecpo/preference.py",
        "    check_beta(beta)\n",
        "    if beta <= 0:\n"
        "        raise ConfigError(\"BAD_BETA\", f\"beta must be > 0, got {beta}\")\n",
        ("tests/test_preference.py::test_pairwise_loss_rejects_what_the_config_rejects",),
    ),
    Mutant(
        "has-over-valid-records-only", "src/ecpo/metrics.py",
        "    rated = [r for r in records if r.ratings]\n",
        "    rated = [r for r in valid if r.ratings]\n",
        ("tests/test_metrics.py::test_strategy_metrics_has_equals_its_parts_over_rated_records",),
    ),
    Mutant(
        "shown-not-cut", "src/ecpo/errors.py",
        "    return cut(repr(value))\n",
        "    return repr(value)\n",
        ("tests/test_cli_boundary.py::test_mistyped_value_is_shown_cut_short",),
    ),
    Mutant(
        "unknown-keys-dropped", "src/ecpo/errors.py",
        '            raise InputError(code, f"{what} has unknown field {shown(key)}") from None\n',
        "            continue\n",
        ("tests/test_cli_boundary.py::test_extra_key_fails_with_its_records_code",),
    ),
    Mutant(
        "bom-check-removed", "src/ecpo/errors.py",
        '                bom = bom or (offset == 0 and text.startswith("\\ufeff"))\n',
        "                bom = False\n",
        ("tests/test_cli_boundary.py::test_of_two_faults_the_whole_file_readers_wins",
         "tests/test_cli_boundary.py::test_the_streamed_reader_equals_the_whole_file_reader",
         "tests/test_cli_boundary.py::test_malformed_side_file_fails_with_its_code"),
    ),
    Mutant(
        "keywords-recompiled", "src/ecpo/policy.py",
        "@lru_cache(maxsize=1024)\ndef keyword_pattern(",
        "def keyword_pattern(",
        ("tests/test_records.py::test_snippets_sharing_a_keyword_compile_it_once",),
    ),
    Mutant(
        "lcs-operator-flipped", "src/ecpo/metrics.py",
        "            v = ((v + u) | (v - u)) & full\n",
        "            v = ((v + u) & (v - u)) & full\n",
        ("tests/test_metrics.py::test_lcs_length_equals_oracle",),
    ),
)


def apply(mutant: Mutant, root: Path) -> None:
    """Write ``mutant`` into the copy at ``root``; ValueError unless its old text occurs exactly once."""
    path = root / mutant.file
    text = path.read_text(encoding="utf-8")
    found = text.count(mutant.old)
    if found != 1:
        raise ValueError(f"old text occurs {found} times in {mutant.file}")
    path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")


def run(mutant: Mutant) -> str:
    """``killed``, ``SURVIVED`` or ``ERROR: ...`` for one mutant, run in a fresh copy of the checkout."""
    with tempfile.TemporaryDirectory(prefix="ecpo-mutant-") as tmp:
        root = Path(tmp)
        for name in COPIED:
            source = ROOT / name
            if source.is_dir():
                shutil.copytree(source, root / name, ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
            else:
                shutil.copy2(source, root / name)
        try:
            apply(mutant, root)
        except ValueError as exc:
            return f"ERROR: {exc}"
        env = {**os.environ, "PYTHONPATH": str(root / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *mutant.tests]
        try:
            result = subprocess.run(command, cwd=root, env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return f"ERROR: tests ran past {TIMEOUT_S} s"
    # pytest exits 1 when a test failed; other codes mean the tests could not be collected or run
    return {0: "SURVIVED", 1: "killed"}.get(result.returncode, f"ERROR: pytest exit {result.returncode}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("names", nargs="*", help="mutants to run (default: all)")
    args = parser.parse_args()
    by_name = {mutant.name: mutant for mutant in MUTANTS}
    unknown = [name for name in args.names if name not in by_name]
    if unknown:
        parser.error(f"unknown mutants: {', '.join(unknown)}")
    chosen = [by_name[name] for name in args.names] if args.names else list(MUTANTS)
    outcomes = []
    for mutant in chosen:
        start = time.perf_counter()
        outcome = run(mutant)
        outcomes.append(outcome)
        print(f"{mutant.name:32} {outcome:10} {time.perf_counter() - start:6.1f} s", flush=True)
    killed = outcomes.count("killed")
    print(f"{len(outcomes)} mutants: {killed} killed, {outcomes.count('SURVIVED')} survived, "
          f"{len(outcomes) - killed - outcomes.count('SURVIVED')} not run")
    return 0 if killed == len(outcomes) else 1


if __name__ == "__main__":
    sys.exit(main())
