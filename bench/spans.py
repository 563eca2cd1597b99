"""Span tracing and call counting around the public functions of `ecpo`.

The package's modules import each other's functions by name (`from .textnorm
import tokenize`), so wrapping a function only in its defining module would
miss every call made through another module's binding. `patched` therefore
replaces every binding of the target function in every loaded `ecpo` module
(and the class attribute, for methods), and restores them all on exit.

A `Tracer` keeps spans in memory as `[name, start_ns, end_ns, parent, record]`
lists: `parent` is the index of the enclosing span (-1 at the top) and
`record` numbers the input record being processed (None for batch-level work
such as reading or emitting the JSONL files). A span's self time is its
duration minus the durations of its child spans; calls are single-threaded
and nested, so children never overlap.

The cheap, very frequent `textnorm` functions are only counted, in a pass of
their own (`CallCounter`), so that wrapper cost does not distort the timed spans.
"""

from __future__ import annotations

import contextlib
import importlib
import sys
import time
from collections import Counter

# (span name, module under ecpo, attribute path). The span name is the layer
# plus the public function name, as reported in the per-layer metrics.
SPANS = (
    ("cli.main", "cli", "main"),
    ("cli.read_jsonl", "cli", "_read_jsonl"),
    ("cli.emit", "cli", "_emit"),
    ("context.prompt_from_dict", "context", "prompt_from_dict"),
    ("policy.parse_policy", "policy", "parse_policy"),
    ("policy.structural_score", "policy", "structural_score"),
    ("policy.detect_low_level_control", "policy", "detect_low_level_control"),
    ("validator.validate", "validator", "validate"),
    ("validator.run_layered_checks", "validator", "run_layered_checks"),
    ("validator.derive_hazards", "validator", "derive_hazards"),
    ("validator.extract_addressed_hazards", "validator", "extract_addressed_hazards"),
    ("validator.evidence_coverage", "validator", "evidence_coverage"),
    ("validator.report_to_dict", "validator", "report_to_dict"),
    ("config.RunConfig.echo", "config", "RunConfig.echo"),
    ("store.load_store", "store", "load_store"),
    ("store.build_query", "store", "build_query"),
    ("store.retrieve", "store", "retrieve"),
    ("store.LexicalScorer.scores", "store", "LexicalScorer.scores"),
    ("store.compress", "store", "compress"),
    ("metrics.strategy_metrics", "metrics", "strategy_metrics"),
    ("metrics.multilabel_metrics", "metrics", "multilabel_metrics"),
    ("metrics.classification_metrics", "metrics", "classification_metrics"),
    ("metrics.bleu4", "metrics", "bleu4"),
    ("metrics.rouge_l", "metrics", "rouge_l"),
    ("metrics.has_aggregate", "metrics", "has_aggregate"),
    ("metrics.spearman", "metrics", "spearman"),
)

# Spans that process a whole file rather than one record.
BATCH_SPANS = frozenset({
    "cli.main", "cli.read_jsonl", "cli.emit", "store.load_store",
    "metrics.strategy_metrics", "metrics.multilabel_metrics", "metrics.classification_metrics",
    "metrics.bleu4", "metrics.rouge_l", "metrics.has_aggregate", "metrics.spearman",
})

COUNTED = (
    ("textnorm.tokenize", "textnorm", "tokenize"),
    ("textnorm.contains_phrase", "textnorm", "contains_phrase"),
    ("textnorm.content_tokens", "textnorm", "content_tokens"),
    ("textnorm.jaccard", "textnorm", "jaccard"),
)

# Counted in the counting pass: snippets the lexical scorer scores.
SCORED = ("store.snippets_scored", "store", "LexicalScorer.scores")


def _resolve(module_name: str, path: str):
    """(owner, attribute, function) for `ecpo.<module>.<path>`, or None if absent."""
    owner = importlib.import_module(f"ecpo.{module_name}")
    *outer, attribute = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    function = getattr(owner, attribute, None)
    return None if function is None else (owner, attribute, function)


def _bindings(owner, attribute: str, function) -> list[tuple[object, str]]:
    """Every place a caller can look the function up: its owner plus each
    `ecpo` module global bound to the same object."""
    places = [(owner, attribute)]
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "ecpo" or name.startswith("ecpo.")):
            continue
        for key, value in list(vars(module).items()):
            if value is function and (module, key) != (owner, attribute):
                places.append((module, key))
    return places


@contextlib.contextmanager
def patched(targets, make_wrapper):
    """Replace each target's bindings with `make_wrapper(name, function)`.

    Yields the names that could not be resolved (a renamed or removed
    function), so the caller can report them instead of silently reading 0.
    """
    saved = []
    missing = []
    try:
        for name, module_name, path in targets:
            resolved = _resolve(module_name, path)
            if resolved is None:
                missing.append(name)
                continue
            owner, attribute, function = resolved
            wrapper = make_wrapper(name, function)
            for place, key in _bindings(owner, attribute, function):
                saved.append((place, key, vars(place)[key]))
                setattr(place, key, wrapper)
        yield missing
    finally:
        for place, key, original in reversed(saved):
            setattr(place, key, original)


class Tracer:
    """Records one span per wrapped call; see the module docstring."""

    def __init__(self, record_roots: frozenset[str]):
        self.record_roots = record_roots
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._record: int | None = None
        self._open_roots = 0

    def wrap(self, name: str, function):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns
        is_root = name in self.record_roots
        is_batch = name in BATCH_SPANS

        def traced(*args, **kwargs):
            if is_root:
                if not self._open_roots:
                    self._record = 0 if self._record is None else self._record + 1
                self._open_roots += 1
            span = [name, 0, 0, stack[-1] if stack else -1, None if is_batch else self._record]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                return function(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
                if is_root:
                    self._open_roots -= 1

        traced.__wrapped__ = function
        return traced

    def self_times(self) -> tuple[dict[str, int], dict[str, int]]:
        """(self time in ns, call count) per span name."""
        own = [span[2] - span[1] for span in self.spans]
        for span in self.spans:
            if span[3] >= 0:
                own[span[3]] -= span[2] - span[1]
        self_ns: dict[str, int] = {}
        calls: dict[str, int] = {}
        for span, value in zip(self.spans, own):
            self_ns[span[0]] = self_ns.get(span[0], 0) + value
            calls[span[0]] = calls.get(span[0], 0) + 1
        return self_ns, calls


class CallCounter:
    """Counts calls per name, and the snippets the lexical scorer scored."""

    def __init__(self):
        self.counts: Counter = Counter()

    def wrap(self, name: str, function):
        counts = self.counts
        if name == SCORED[0]:
            def counted(*args, **kwargs):
                result = function(*args, **kwargs)
                counts[name] += len(result)
                return result
        else:
            def counted(*args, **kwargs):
                counts[name] += 1
                return function(*args, **kwargs)

        counted.__wrapped__ = function
        return counted
