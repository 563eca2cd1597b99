import math
import random
import re
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from ecpo.config import check_weights
from ecpo.errors import ConfigError, InputError
from ecpo.metrics import (
    DEFAULT_EPSILON,
    HAS_WEIGHTS,
    LabelSetSample,
    MetricReport,
    StrategyEvalRecord,
    _lcs_length,
    bleu4,
    classification_metrics,
    has_aggregate,
    has_score,
    multilabel_metrics,
    rouge_l,
    spearman,
    strategy_metrics,
)
from ecpo.context import to_json
from oracles import (
    bleu4_reference,
    classification_reference,
    fake_report,
    has_reference,
    haz_f1_reference,
    iou_emr_reference,
    lcs_reference,
    random_phrase,
    rouge_l_reference,
    sample_f1_reference,
    spearman_reference,
)


def sample(truth, prediction):
    return LabelSetSample(frozenset(truth), frozenset(prediction))


# --- multilabel ---------------------------------------------------------------------


def test_multilabel_hand_case():
    samples = [sample({"a", "b"}, {"b", "c"}), sample({"a"}, {"a"})]
    iou, emr, f1 = multilabel_metrics(samples)
    assert math.isclose(iou, 100 * (1 / 3 + 1.0) / 2, abs_tol=1e-9)
    assert emr == 50.0
    expected_f1 = 100 * (2 * 1 / (4 + DEFAULT_EPSILON) + 2 * 1 / (2 + DEFAULT_EPSILON)) / 2
    assert math.isclose(f1, expected_f1, rel_tol=1e-12)


def test_multilabel_skips_empty_empty():
    samples = [sample(set(), set()), sample({"a"}, {"a"})]
    iou, emr, f1 = multilabel_metrics(samples)
    assert (iou, emr) == (100.0, 100.0)


def test_multilabel_counts_one_sided_empties():
    iou, emr, f1 = multilabel_metrics([sample({"a"}, set())])
    assert (iou, emr, f1) == (0.0, 0.0, 0.0)


def test_multilabel_no_eligible_samples():
    with pytest.raises(InputError) as err:
        multilabel_metrics([sample(set(), set())])
    assert err.value.code == "NO_ELIGIBLE_SAMPLES"


@pytest.mark.parametrize("epsilon", [0, -1, float("nan"), float("inf")])
@pytest.mark.parametrize(
    "metric",
    [
        lambda epsilon: multilabel_metrics([sample({"a"}, {"a"})], epsilon=epsilon),
        lambda epsilon: strategy_metrics([], epsilon=epsilon),
        lambda epsilon: bleu4(["a b c"], ["x y z"], epsilon=epsilon),
    ],
    ids=["multilabel_metrics", "strategy_metrics", "bleu4"],
)
def test_metrics_reject_bad_epsilon(metric, epsilon):
    with pytest.raises(ConfigError) as err:
        metric(epsilon)
    assert err.value.code == "BAD_EPSILON"


def test_from_lists_normalizes():
    s = LabelSetSample.from_lists(["  Traffic Jam "], ["traffic jam"])
    assert s.truth == s.prediction == frozenset({"traffic jam"})


def test_multilabel_against_oracle():
    rng = random.Random(11)
    vocab = [f"l{i}" for i in range(8)]
    samples = []
    for _ in range(200):
        truth = frozenset(rng.sample(vocab, rng.randint(0, 4)))
        prediction = frozenset(rng.sample(vocab, rng.randint(0, 4)))
        samples.append(LabelSetSample(truth, prediction))
    iou, emr, f1 = multilabel_metrics(samples)
    ref_iou, ref_emr = iou_emr_reference(samples)
    assert math.isclose(iou, ref_iou, abs_tol=1e-9)
    assert math.isclose(emr, ref_emr, abs_tol=1e-9)
    assert math.isclose(f1, sample_f1_reference(samples, DEFAULT_EPSILON), rel_tol=1e-12)


# --- classification --------------------------------------------------------------------


def test_classification_hand_case():
    truth = ["happy", "sad", "happy", "calm"]
    prediction = ["happy", "happy", "sad", "calm"]
    accuracy, macro_f1 = classification_metrics(truth, prediction)
    assert accuracy == 50.0
    ref_acc, ref_f1 = classification_reference(truth, prediction)
    assert math.isclose(macro_f1, ref_f1, abs_tol=1e-9)


def test_classification_absent_class_scores_zero():
    # "sad" is predicted but absent from the truth: it scores F1 = 0 and dilutes macro F1
    accuracy, macro_f1 = classification_metrics(["happy", "happy"], ["happy", "sad"])
    assert accuracy == 50.0
    assert macro_f1 == pytest.approx((200 / 3 + 0.0) / 2)


def test_classification_validation():
    with pytest.raises(InputError) as err:
        classification_metrics(["a"], [])
    assert err.value.code == "LENGTH_MISMATCH"
    with pytest.raises(InputError) as err:
        classification_metrics([], [])
    assert err.value.code == "NO_SAMPLES"


def test_classification_against_oracle():
    rng = random.Random(12)
    labels = ["anger", "joy", "fear", "neutral"]
    truth = [rng.choice(labels) for _ in range(300)]
    prediction = [rng.choice(labels) for _ in range(300)]
    got = classification_metrics(truth, prediction)
    ref = classification_reference(truth, prediction)
    assert math.isclose(got[0], ref[0], abs_tol=1e-9)
    assert math.isclose(got[1], ref[1], abs_tol=1e-9)


# --- text overlap ------------------------------------------------------------------------


def test_bleu_identity_is_100():
    texts = ["the quick brown fox jumps over the lazy dog"]
    assert math.isclose(bleu4(texts, texts), 100.0, abs_tol=1e-6)


def test_bleu_empty_hypothesis_is_zero():
    assert bleu4(["some reference text"], [""]) == 0.0


def test_bleu_applies_brevity_penalty():
    refs = ["a b c d e f g h"]
    hyps = ["a b c d"]
    score = bleu4(refs, hyps)
    # all n-grams match, so the score is exactly the brevity penalty
    assert math.isclose(score, 100.0 * math.exp(1 - 8 / 4), rel_tol=1e-9)


def test_bleu_smoothing_keeps_score_positive():
    score = bleu4(["alpha beta gamma delta"], ["alpha zeta eta theta"])
    assert 0.0 < score < 100.0


def test_bleu_token_sequences_accepted():
    assert math.isclose(bleu4([["a", "b", "c", "d"]], [["a", "b", "c", "d"]]), 100.0, abs_tol=1e-6)


def test_bleu_validation():
    with pytest.raises(InputError):
        bleu4(["a"], [])
    with pytest.raises(InputError):
        bleu4([], [])


@pytest.mark.parametrize("references, hypotheses, error_code", [([], [], "NO_SAMPLES"), (["a"], [], "LENGTH_MISMATCH")])
def test_rouge_validation(references, hypotheses, error_code):
    with pytest.raises(InputError) as err:
        rouge_l(references, hypotheses)
    assert err.value.code == error_code


def test_bleu_against_oracle():
    rng = random.Random(13)
    refs = [random_phrase(rng, 3, 12) for _ in range(50)]
    hyps = [random_phrase(rng, 1, 12) for _ in range(50)]
    assert math.isclose(bleu4(refs, hyps), bleu4_reference(refs, hyps, DEFAULT_EPSILON), rel_tol=1e-9)


# Two words force repeated n-grams, so clipping decides most matches; texts
# shorter than four words have no n-grams of the higher orders.
short_texts = st.lists(st.sampled_from(["x", "y"]), max_size=9).map(" ".join)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(short_texts, short_texts), min_size=1, max_size=5))
@example([("x x x x", "x x x x x x")])
@example([("", "x y x"), ("y", "")])
def test_bleu_equals_oracle_exactly(pairs):
    # Same match and n-gram totals, same float operations: equal to the last bit.
    refs = [ref for ref, _ in pairs]
    hyps = [hyp for _, hyp in pairs]
    assert bleu4(refs, hyps) == bleu4_reference(refs, hyps, DEFAULT_EPSILON)


def test_rouge_identity_and_disjoint():
    assert rouge_l(["a b c"], ["a b c"]) == 100.0
    assert rouge_l(["a b c"], ["x y z"]) == 0.0


def test_rouge_hand_case():
    # LCS("the cat sat", "the cat ran fast") = 2; P = 2/4, R = 2/3
    score = rouge_l(["the cat sat"], ["the cat ran fast"])
    p, r = 2 / 4, 2 / 3
    assert math.isclose(score, 100 * 2 * p * r / (p + r), rel_tol=1e-12)


def test_rouge_against_oracle():
    rng = random.Random(14)
    refs = [random_phrase(rng, 1, 10) for _ in range(60)]
    hyps = [random_phrase(rng, 1, 10) for _ in range(60)]
    assert math.isclose(rouge_l(refs, hyps), rouge_l_reference(refs, hyps), rel_tol=1e-9)


def test_rouge_past_one_machine_word_against_oracle():
    rng = random.Random(15)
    refs = [random_phrase(rng, 100, 100) for _ in range(8)]
    hyps = [random_phrase(rng, 100, 100) for _ in range(8)]
    assert math.isclose(rouge_l(refs, hyps), rouge_l_reference(refs, hyps), rel_tol=1e-9)


# Two words repeat heavily; forty rarely do. "unseen" is drawn for `a` only,
# so some tokens of `a` have no position in `b`.
_LCS_VOCABULARIES = (("x", "y"), ("p", "q", "r", "s", "t", "u"), tuple(f"w{i}" for i in range(40)))


@st.composite
def token_pairs(draw):
    vocabulary = draw(st.sampled_from(_LCS_VOCABULARIES))
    sizes = st.integers(0, 150)
    a = draw(st.lists(st.sampled_from(vocabulary + ("unseen",)), min_size=draw(sizes), max_size=150))
    n = draw(sizes)
    b = draw(st.lists(st.sampled_from(vocabulary), min_size=n, max_size=n))
    return a, b


@settings(max_examples=100, deadline=None)
@given(token_pairs())
@example(([], []))
@example(([], ["x"]))
@example((["x"], []))
@example((["x"], ["x"]))
@example((["x"], ["y"]))
@example((["unseen"] * 70, ["x", "y"] * 35))
@example((["x", "y"] * 75, ["y", "x"] * 75))
@example((["x"] * 129, ["x"] * 65 + ["y"] * 64 + ["x"]))
def test_lcs_length_equals_oracle(pair):
    a, b = pair
    expected = lcs_reference(tuple(a), tuple(b))
    assert _lcs_length(a, b) == expected
    assert _lcs_length(b, a) == expected


# --- strategy metrics ---------------------------------------------------------------------


def strategy_record(prompt_id, ecpo=1.0, schema_valid=True, low_level=False,
                    truth=frozenset(), addressed=frozenset(), severity=0, count=0,
                    ratings=None, seed=0):
    return StrategyEvalRecord(
        prompt_id=prompt_id,
        report=fake_report(ecpo, schema_valid=schema_valid, severity=severity, count=count),
        schema_valid=schema_valid,
        low_level=low_level,
        hazards_truth=frozenset(truth),
        hazards_addressed=frozenset(addressed),
        ratings=ratings,
        seed=seed,
    )


def agree(no_violation, safe, supported, raters=3):
    return tuple((no_violation, safe, supported) for _ in range(raters))


def test_strategy_record_invariant():
    with pytest.raises(InputError) as err:
        strategy_record("p", schema_valid=False, low_level=True)
    assert err.value.code == "BAD_RECORD"


def test_strategy_metrics_hand_case():
    records = [
        strategy_record("a", severity=4, count=1, low_level=True,
                        truth={"wet_road"}, addressed={"wet_road"}),
        strategy_record("b", truth={"wet_road", "fog"}, addressed={"wet_road"}),
        strategy_record("c", schema_valid=False),
    ]
    report = strategy_metrics(records)
    assert math.isclose(report.values["valid_pct"], 200 / 3, abs_tol=1e-9)
    assert report.values["viol_sev"] == 2.0
    assert report.values["low_ctrl_pct"] == 50.0
    expected = (haz_f1_reference(frozenset({"wet_road"}), frozenset({"wet_road"}), DEFAULT_EPSILON)
                + haz_f1_reference(frozenset({"wet_road", "fog"}), frozenset({"wet_road"}), DEFAULT_EPSILON)) / 2
    assert math.isclose(report.values["haz_f1"], expected, rel_tol=1e-9)
    assert report.counts == {"records": 3, "schema_valid": 2}


def test_strategy_metrics_gate_below_50():
    records = [strategy_record("a")] + [strategy_record(f"x{i}", schema_valid=False) for i in range(2)]
    report = strategy_metrics(records)
    assert math.isclose(report.values["valid_pct"], 100 / 3, abs_tol=1e-9)
    for name in ("viol_sev", "low_ctrl_pct", "haz_f1"):
        assert report.values[name] is None
        assert report.reasons[name] == "VALIDITY_BELOW_50"


def test_strategy_metrics_gate_boundary():
    # exactly 50% valid is not below the floor
    records = [strategy_record("a"), strategy_record("b", schema_valid=False)]
    report = strategy_metrics(records)
    assert report.values["viol_sev"] is not None


def test_strategy_metrics_empty():
    report = strategy_metrics([])
    assert list(report.values) == ["valid_pct", *STRATEGY_GATED]
    assert all(value is None for value in report.values.values())
    assert set(report.reasons.values()) == {"NO_SAMPLES"}


STRATEGY_GATED = ("viol_sev", "low_ctrl_pct", "haz_f1", "has_mean", "has_std", "ecpo_has_spearman")


def rated_corpus(valid_count, total=1000):
    return [
        strategy_record(f"p{i}", ecpo=(i % 7) / 7, schema_valid=i < valid_count,
                        ratings=agree(True, i % 2 == 0, i % 3 == 0), seed=i % 3)
        for i in range(total)
    ]


def test_strategy_metrics_gates_all_six_below_the_floor():
    gated = strategy_metrics(rated_corpus(499))
    assert gated.values["valid_pct"] == pytest.approx(49.9)
    assert list(gated.values) == ["valid_pct", *STRATEGY_GATED]
    assert gated.reasons == dict.fromkeys(STRATEGY_GATED, "VALIDITY_BELOW_50")
    assert gated.counts == {"records": 1000, "schema_valid": 499}
    reported = strategy_metrics(rated_corpus(500))
    assert list(reported.values) == ["valid_pct", *STRATEGY_GATED]
    assert all(reported.values[name] is not None for name in STRATEGY_GATED)
    assert reported.reasons == {}


def test_readme_lists_the_gated_metrics():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme[readme.index("## Metrics"):readme.index("## Preference pairs and loss")]
    listed = section[section.index("every other strategy metric ("):].split(")", 1)[0]
    gated = strategy_metrics(rated_corpus(499)).reasons
    assert re.findall(r"`(\w+)`", listed) == [name for name, reason in gated.items() if reason == "VALIDITY_BELOW_50"]


def test_strategy_metrics_has_equals_its_parts_over_rated_records():
    # a third of the rated records are schema-invalid: HAS reads them too
    records = rated_corpus(20, total=30) + [strategy_record("u1", ecpo=0.9), strategy_record("u2", ecpo=0.1)]
    report = strategy_metrics(records)
    rated = records[:30]
    mean, std = has_aggregate(rated)
    assert (report.values["has_mean"], report.values["has_std"]) == (mean, std)
    expected = spearman([r.report.ecpo for r in rated], [has_score(r.ratings) for r in rated])
    assert expected is not None
    assert report.values["ecpo_has_spearman"] == expected


def test_strategy_metrics_leaves_unrated_records_out_of_has():
    rated = [strategy_record("a", ecpo=0.2, ratings=agree(True, True, True)),
             strategy_record("b", ecpo=0.8, ratings=agree(False, False, False))]
    unrated = [strategy_record("c", ecpo=0.5), strategy_record("d", ecpo=0.9, ratings=())]
    with_unrated = strategy_metrics(rated + unrated)
    alone = strategy_metrics(rated)
    for name in ("has_mean", "has_std", "ecpo_has_spearman"):
        assert with_unrated.values[name] == alone.values[name]
    assert with_unrated.values["has_mean"] == 50.0
    assert with_unrated.values["ecpo_has_spearman"] == -1.0


def test_strategy_metrics_without_ratings_reports_no_ratings():
    report = strategy_metrics([strategy_record("a"), strategy_record("b", ratings=())])
    assert report.values["haz_f1"] == 0.0
    for name in ("has_mean", "has_std", "ecpo_has_spearman"):
        assert report.values[name] is None
        assert report.reasons[name] == "NO_RATINGS"


@pytest.mark.parametrize(
    "ratings",
    [
        [agree(True, False, False), None],  # one rated record
        [agree(True, False, False), agree(True, False, False), agree(True, False, False)],  # constant ratings
    ],
    ids=["one_rated", "constant_ratings"],
)
def test_strategy_metrics_degenerate_correlation(ratings):
    report = strategy_metrics([strategy_record(f"p{i}", ecpo=i / 4, ratings=r) for i, r in enumerate(ratings)])
    assert (report.values["has_mean"], report.values["has_std"]) == (50.0, 0.0)
    assert report.values["ecpo_has_spearman"] is None
    assert report.reasons == {"ecpo_has_spearman": "DEGENERATE"}


def test_haz_f1_empty_sets_score_zero():
    report = strategy_metrics([strategy_record("a")])
    assert report.values["haz_f1"] == 0.0


# --- HAS ------------------------------------------------------------------------------------


def test_has_canonical_combinations():
    cases = [
        ((True, True, True), 100.0),
        ((True, False, False), 50.0),
        ((False, True, False), 30.0),
        ((False, False, True), 20.0),
        ((False, False, False), 0.0),
    ]
    for flags, expected in cases:
        mean, std = has_aggregate([strategy_record("p", ratings=agree(*flags))])
        assert mean == expected == has_reference(*flags)
        assert std == 0.0


def test_has_split_vote_counts_negative():
    ratings = ((True, True, True), (True, True, True), (True, False, True))
    mean, _ = has_aggregate([strategy_record("p", ratings=ratings)])
    assert mean == 70.0  # safety item vetoed by one rater


def test_has_multi_seed_spread():
    records = [
        strategy_record("a", ratings=agree(True, True, True), seed=1),
        strategy_record("b", ratings=agree(False, False, False), seed=1),
        strategy_record("c", ratings=agree(True, True, True), seed=2),
    ]
    mean, std = has_aggregate(records)
    assert math.isclose(mean, (50.0 + 100.0) / 2, abs_tol=1e-9)
    assert math.isclose(std, 25.0, abs_tol=1e-9)


def test_has_skips_unrated_records():
    records = [
        strategy_record("a", ratings=agree(True, True, True)),
        strategy_record("b"),
    ]
    mean, _ = has_aggregate(records)
    assert mean == 100.0


def test_has_requires_ratings():
    with pytest.raises(InputError) as err:
        has_aggregate([strategy_record("a")])
    assert err.value.code == "NO_RATINGS"


def test_has_weight_validation():
    # the fixed HAS row passes the one weight-row rule
    assert HAS_WEIGHTS == (0.5, 0.3, 0.2)
    assert check_weights(HAS_WEIGHTS) == HAS_WEIGHTS


# --- rank correlation --------------------------------------------------------------------


def test_spearman_known_values():
    assert spearman([1, 2, 3], [10, 20, 30]) == 1.0
    assert spearman([1, 2, 3], [30, 20, 10]) == -1.0


def test_spearman_tie_handling():
    got = spearman([1.0, 1.0, 2.0], [1.0, 2.0, 3.0])
    ref = spearman_reference([1.0, 1.0, 2.0], [1.0, 2.0, 3.0])
    assert math.isclose(got, ref, abs_tol=1e-12)


def test_spearman_constant_input_is_none():
    assert spearman([1.0, 1.0, 1.0], [1.0, 2.0, 3.0]) is None
    assert spearman([1.0, 2.0, 3.0], [5.0, 5.0, 5.0]) is None


def test_spearman_validation():
    with pytest.raises(InputError) as err:
        spearman([1.0], [1.0])
    assert err.value.code == "LENGTH_MISMATCH"
    with pytest.raises(InputError):
        spearman([1.0, 2.0], [1.0])


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(min_value=-100, max_value=100), min_size=2, max_size=20))
def test_spearman_against_oracle(x):
    y = list(reversed(x))
    got = spearman(x, y)
    ref = spearman_reference(x, y)
    if ref is None:
        assert got is None
    else:
        assert math.isclose(got, ref, abs_tol=1e-9)
        assert -1.0 - 1e-12 <= got <= 1.0 + 1e-12


# --- MetricReport -----------------------------------------------------------------------


def test_metric_report_render_and_dict():
    report = MetricReport(config={"seeds": [3]})
    report.set("valid_pct", 87.5)
    report.set_na("haz_f1", "VALIDITY_BELOW_50")
    table = report.render_table()
    assert "valid_pct  87.5000" in table
    assert "N/A (VALIDITY_BELOW_50)" in table
    payload = to_json(report)
    assert payload["values"]["haz_f1"] is None
    assert payload["reasons"]["haz_f1"] == "VALIDITY_BELOW_50"
    assert payload["config"] == {"seeds": [3]}


def test_empty_report_renders_placeholder():
    assert MetricReport().render_table() == "(no metrics)"
