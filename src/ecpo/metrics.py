"""Offline evaluation metrics and corpus-level reports.

Set metrics (IoU, exact-match rate, sample F1) skip samples where truth and
prediction are both empty; classification adds accuracy and macro F1 with
absent classes scoring 0. Text overlap is corpus BLEU-4 with additive-epsilon
smoothing and mean per-pair ROUGE-L (F-measure, beta = 1). Strategy metrics,
human agreement (HAS) included, carry the 50% validity rule: when fewer
than half of the records are schema-valid, everything except the validity
rate is reported N/A with reason VALIDITY_BELOW_50. HAS scoring treats any
rater disagreement as negative and reports mean and population std across
seeds.

All percentages are on the 0-100 scale. Every N/A in a report carries a
reason code; reports embed the configuration that produced them.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from itertools import repeat
from typing import Iterable, Sequence

from .config import DEFAULT_EPSILON, check_epsilon
from .errors import InputError
from .validator import EcpoReport
from .textnorm import normalize_text

HAS_WEIGHTS = (0.5, 0.3, 0.2)

VALIDITY_FLOOR_PCT = 50.0

# Reason codes for N/A values.
VALIDITY_BELOW_50 = "VALIDITY_BELOW_50"
NO_SAMPLES = "NO_SAMPLES"
NO_RATINGS = "NO_RATINGS"
DEGENERATE = "DEGENERATE"

# The strategy metrics that the validity floor gates, in report order.
GATED_METRICS = ("viol_sev", "low_ctrl_pct", "haz_f1", "has_mean", "has_std", "ecpo_has_spearman")


@dataclass(frozen=True)
class LabelSetSample:
    """The true and predicted label sets of one multi-label sample."""

    truth: frozenset[str]
    prediction: frozenset[str]

    @classmethod
    def from_lists(cls, truth: Iterable[str], prediction: Iterable[str]) -> "LabelSetSample":
        return cls(
            frozenset(normalize_text(label) for label in truth),
            frozenset(normalize_text(label) for label in prediction),
        )


@dataclass(frozen=True)
class StrategyEvalRecord:
    """One validated policy with its optional ratings, as the strategy metrics read it."""

    prompt_id: str
    report: EcpoReport
    schema_valid: bool
    low_level: bool
    hazards_truth: frozenset[str]
    hazards_addressed: frozenset[str]
    ratings: tuple[tuple[bool, bool, bool], ...] | None = None
    seed: int = 0

    def __post_init__(self):
        if self.low_level and not self.schema_valid:
            raise InputError("BAD_RECORD", "low_level is defined over schema-valid policies only")

    @classmethod
    def from_report(
        cls,
        prompt_id: str,
        report: EcpoReport,
        ratings: tuple[tuple[bool, bool, bool], ...] | None = None,
        seed: int = 0,
    ) -> "StrategyEvalRecord":
        return cls(
            prompt_id=prompt_id,
            report=report,
            schema_valid=report.schema_valid,
            low_level=bool(report.low_level_matches),
            hazards_truth=report.hazards_truth,
            hazards_addressed=report.hazards_addressed,
            ratings=ratings,
            seed=seed,
        )


@dataclass
class MetricReport:
    """Metric values, reasons for N/A values, record counts and the config echo; ``context.to_json`` writes it."""

    values: dict[str, float | None] = field(default_factory=dict)
    reasons: dict[str, str] = field(default_factory=dict)
    counts: dict[str, int] = field(default_factory=dict)
    config: dict = field(default_factory=dict)

    def set(self, name: str, value: float) -> None:
        self.values[name] = value

    def set_na(self, name: str, reason: str) -> None:
        self.values[name] = None
        self.reasons[name] = reason

    def render_table(self) -> str:
        """Aligned plain-text table for terminal display."""
        rows = []
        for name, value in self.values.items():
            if value is None:
                rows.append((name, f"N/A ({self.reasons.get(name, 'UNSPECIFIED')})"))
            else:
                rows.append((name, f"{value:.4f}"))
        if not rows:
            return "(no metrics)"
        width = max(len(name) for name, _ in rows)
        return "\n".join(f"{name.ljust(width)}  {value}" for name, value in rows)


def multilabel_metrics(
    samples: Sequence[LabelSetSample], epsilon: float = DEFAULT_EPSILON
) -> tuple[float, float, float]:
    """(IoU, exact-match rate, sample F1) x100 over non-degenerate samples."""
    check_epsilon(epsilon)
    eligible = [s for s in samples if s.truth or s.prediction]
    if not eligible:
        raise InputError("NO_ELIGIBLE_SAMPLES", "every sample has empty truth and prediction")
    iou_total = emr_total = f1_total = 0.0
    for sample in eligible:
        overlap = len(sample.truth & sample.prediction)
        iou_total += overlap / len(sample.truth | sample.prediction)
        emr_total += 1.0 if sample.truth == sample.prediction else 0.0
        f1_total += 2 * overlap / (len(sample.truth) + len(sample.prediction) + epsilon)
    n = len(eligible)
    return (100.0 * iou_total / n, 100.0 * emr_total / n, 100.0 * f1_total / n)


def classification_metrics(truth: Sequence[str], prediction: Sequence[str]) -> tuple[float, float]:
    """(accuracy, macro F1) x100; absent classes contribute F1 = 0."""
    if len(truth) != len(prediction):
        raise InputError("LENGTH_MISMATCH", f"{len(truth)} truths vs {len(prediction)} predictions")
    if not truth:
        raise InputError(NO_SAMPLES, "no classification samples")
    truth_norm = [normalize_text(label) for label in truth]
    pred_norm = [normalize_text(label) for label in prediction]
    class_set = sorted(set(truth_norm) | set(pred_norm))
    accuracy = sum(t == p for t, p in zip(truth_norm, pred_norm)) / len(truth_norm)
    f1_total = 0.0
    for cls in class_set:
        tp = sum(t == cls and p == cls for t, p in zip(truth_norm, pred_norm))
        fp = sum(t != cls and p == cls for t, p in zip(truth_norm, pred_norm))
        fn = sum(t == cls and p != cls for t, p in zip(truth_norm, pred_norm))
        denominator = 2 * tp + fp + fn
        f1_total += 2 * tp / denominator if denominator else 0.0
    macro_f1 = f1_total / len(class_set) if class_set else 0.0
    return (100.0 * accuracy, 100.0 * macro_f1)


def text_tokens(item) -> list[str]:
    """A text casefolded and split on whitespace; a token sequence as strings."""
    if isinstance(item, str):
        return item.casefold().split()
    return [str(token) for token in item]


def _ngram_counts(tokens: list[str], n: int) -> Counter:
    return Counter(zip(*[tokens[i:] for i in range(n)]))


def bleu4(references: Sequence, hypotheses: Sequence, epsilon: float = DEFAULT_EPSILON) -> float:
    """Corpus BLEU, n-grams 1..4, uniform weights, brevity penalty, x100.

    Smoothing: a zero clipped-match count is replaced by epsilon; an order
    with no candidate n-grams at all contributes p_n = epsilon.
    """
    check_epsilon(epsilon)
    if len(references) != len(hypotheses):
        raise InputError("LENGTH_MISMATCH", f"{len(references)} references vs {len(hypotheses)} hypotheses")
    if not references:
        raise InputError(NO_SAMPLES, "no text pairs")
    ref_tokens = [text_tokens(r) for r in references]
    hyp_tokens = [text_tokens(h) for h in hypotheses]
    hyp_length = sum(len(t) for t in hyp_tokens)
    ref_length = sum(len(t) for t in ref_tokens)
    if hyp_length == 0:
        return 0.0
    log_precision_sum = 0.0
    for n in range(1, 5):
        matches = 0
        total = 0
        for ref, hyp in zip(ref_tokens, hyp_tokens):
            if len(hyp) < n:
                continue
            hyp_counts = _ngram_counts(hyp, n)
            ref_get = _ngram_counts(ref, n).get
            # Clipped matches: each hypothesis n-gram counts at most as often as the reference has it.
            matches += sum(map(min, hyp_counts.values(), map(ref_get, hyp_counts, repeat(0))))
            total += len(hyp) - n + 1
        if total == 0:
            p_n = epsilon
        else:
            p_n = max(matches, epsilon) / total
        log_precision_sum += 0.25 * math.log(p_n)
    brevity = 1.0 if hyp_length > ref_length else math.exp(1.0 - ref_length / hyp_length)
    return 100.0 * brevity * math.exp(log_precision_sum)


def _lcs_length(a: list[str], b: list[str]) -> int:
    """Bit-parallel LCS length (Allison & Dix 1986; Hyyrö 2004).

    Bit i of a token's mask is set where b[i] is that token. After each token
    of a, the zero bits of V count the LCS of the part of a read so far with
    b. Each token costs a few operations on len(b)-bit Python ints, so the
    whole is O(len(a) * ceil(len(b) / 64)) machine-word operations.
    """
    if not a or not b:
        return 0
    masks: dict[str, int] = {}
    for i, token in enumerate(b):
        masks[token] = masks.get(token, 0) | (1 << i)
    full = (1 << len(b)) - 1
    v = full
    for token in a:
        mask = masks.get(token)
        if mask is not None:
            u = v & mask
            v = ((v + u) | (v - u)) & full
    return len(b) - v.bit_count()


def rouge_l(references: Sequence, hypotheses: Sequence) -> float:
    """Mean per-pair LCS F-measure (beta = 1), x100."""
    if len(references) != len(hypotheses):
        raise InputError("LENGTH_MISMATCH", f"{len(references)} references vs {len(hypotheses)} hypotheses")
    if not references:
        raise InputError(NO_SAMPLES, "no text pairs")
    total = 0.0
    for reference, hypothesis in zip(references, hypotheses):
        ref = text_tokens(reference)
        hyp = text_tokens(hypothesis)
        lcs = _lcs_length(ref, hyp)
        if lcs == 0:
            continue
        precision = lcs / len(hyp)
        recall = lcs / len(ref)
        total += 2 * precision * recall / (precision + recall)
    return 100.0 * total / len(references)


def strategy_metrics(
    records: Sequence[StrategyEvalRecord], epsilon: float = DEFAULT_EPSILON
) -> MetricReport:
    """Valid%; over schema-valid records ViolSev, LowCtrl%, HazF1; over rated
    records HAS mean/std and its rank correlation with the aggregate score.

    Valid% is always reported; below the 50% floor the rest is N/A.
    """
    check_epsilon(epsilon)
    report = MetricReport()
    report.counts["records"] = len(records)
    if not records:
        for name in ("valid_pct",) + GATED_METRICS:
            report.set_na(name, NO_SAMPLES)
        return report
    valid = [r for r in records if r.schema_valid]
    report.counts["schema_valid"] = len(valid)
    valid_pct = 100.0 * len(valid) / len(records)
    report.set("valid_pct", valid_pct)
    if valid_pct < VALIDITY_FLOOR_PCT:
        for name in GATED_METRICS:
            report.set_na(name, VALIDITY_BELOW_50)
        return report
    report.set("viol_sev", sum(r.report.violation.severity for r in valid) / len(valid))
    report.set("low_ctrl_pct", 100.0 * sum(r.low_level for r in valid) / len(valid))
    f1_total = 0.0
    for record in valid:
        overlap = len(record.hazards_truth & record.hazards_addressed)
        precision = overlap / (len(record.hazards_addressed) + epsilon)
        recall = overlap / (len(record.hazards_truth) + epsilon)
        f1_total += 100.0 * 2 * precision * recall / (precision + recall + epsilon)
    report.set("haz_f1", f1_total / len(valid))
    rated = [r for r in records if r.ratings]
    if not rated:
        for name in ("has_mean", "has_std", "ecpo_has_spearman"):
            report.set_na(name, NO_RATINGS)
        return report
    mean, std = has_aggregate(rated)
    report.set("has_mean", mean)
    report.set("has_std", std)
    correlation = None
    if len(rated) > 1:
        correlation = spearman([r.report.ecpo for r in rated], [has_score(r.ratings) for r in rated])
    if correlation is None:
        report.set_na("ecpo_has_spearman", DEGENERATE)
    else:
        report.set("ecpo_has_spearman", correlation)
    return report


def has_score(ratings: Sequence[Sequence[bool]]) -> float:
    """HAS score of one record under ``HAS_WEIGHTS``.

    Each of the three items counts only when every rater voted positive;
    disagreement is negative by construction.
    """
    items = [all(vote[i] for vote in ratings) for i in range(3)]
    return sum(w * float(flag) for w, flag in zip(HAS_WEIGHTS, items))


def has_aggregate(records: Sequence[StrategyEvalRecord]) -> tuple[float, float]:
    """(mean, population std) across seeds of the per-seed mean ``has_score`` x100."""
    by_seed: dict[int, list[float]] = {}
    for record in records:
        if not record.ratings:
            continue
        by_seed.setdefault(record.seed, []).append(has_score(record.ratings))
    if not by_seed:
        raise InputError(NO_RATINGS, "no rated records")
    from statistics import pstdev  # loaded only by a run with rated records

    # each mean is statistics.fmean's fsum over count, parenthesized so the x100 rounds as after fmean
    per_seed = [100.0 * (math.fsum(scores) / len(scores)) for _, scores in sorted(by_seed.items())]
    return (math.fsum(per_seed) / len(per_seed), pstdev(per_seed))


def _average_ranks(values: Sequence[float]) -> list[float]:
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        # 1-based positions i+1 .. j+1 share the average rank.
        rank = (i + j + 2) / 2
        for k in range(i, j + 1):
            ranks[order[k]] = rank
        i = j + 1
    return ranks


def spearman(x: Sequence[float], y: Sequence[float]) -> float | None:
    """Pearson correlation of average ranks; None when an input is constant."""
    if len(x) != len(y) or len(x) < 2:
        raise InputError("LENGTH_MISMATCH", f"need two equal-length lists of >= 2, got {len(x)} and {len(y)}")
    rx = _average_ranks(x)
    ry = _average_ranks(y)
    mean_x = math.fsum(rx) / len(rx)
    mean_y = math.fsum(ry) / len(ry)
    var_x = sum((v - mean_x) ** 2 for v in rx)
    var_y = sum((v - mean_y) ** 2 for v in ry)
    if var_x == 0 or var_y == 0:
        return None
    covariance = sum((a - mean_x) * (b - mean_y) for a, b in zip(rx, ry))
    return covariance / math.sqrt(var_x * var_y)
