import sys

import pytest

from ecpo.config import RunConfig, check_weights
from ecpo.errors import ConfigError


@pytest.mark.parametrize(
    "field, value, code",
    [
        ("ecpo_weights", (0.5, 0.3), "BAD_WEIGHTS"),
        ("ecpo_weights", (0.5, 0.3, 0.3), "BAD_WEIGHTS"),
        ("ecpo_weights", (-0.1, 0.6, 0.5), "BAD_WEIGHTS"),
        ("ecpo_weights", (float("nan"), 0.5, 0.5), "BAD_WEIGHTS"),
        ("ecpo_weights", ("0.5", "0.3", "0.2"), "BAD_WEIGHTS"),
        ("ecpo_weights", (True, 0, 0), "BAD_WEIGHTS"),
        ("ecpo_weights", 1.0, "BAD_WEIGHTS"),
        ("match_threshold", 0.0, "BAD_THRESHOLD"),
        ("match_threshold", 1.5, "BAD_THRESHOLD"),
        ("psi_floor", -0.1, "BAD_PSI"),
        ("psi_ceiling", 0.01, "BAD_PSI"),  # below the default floor 0.05
        ("beta", 0.0, "BAD_BETA"),
        ("beta", -1.0, "BAD_BETA"),
        ("lambda_ecpo", -0.5, "BAD_LAMBDA"),
        ("gap_min", -0.01, "BAD_GAP_MIN"),
    ],
)
def test_run_config_rejects_bad_tunable(field, value, code):
    with pytest.raises(ConfigError) as err:
        RunConfig(**{field: value})
    assert err.value.code == code


def test_run_config_accepts_boundary_values():
    config = RunConfig(
        ecpo_weights=(1, 0, 0), match_threshold=1.0, psi_floor=0.3, psi_ceiling=0.3, lambda_ecpo=0.0, gap_min=0.0
    )
    assert config.ecpo_weights == (1.0, 0.0, 0.0)
    assert check_weights([0.5, 0.3, 0.2]) == (0.5, 0.3, 0.2)



# --- the count rule, at each library entry point that takes a count ---------------------


def retrieve_with_top_k(top_k):
    from ecpo.store import ConstraintSnippet, RetrievalQuery, load_store, retrieve

    store = load_store([ConstraintSnippet("a", "legal", "c-a", "keep right"),
                        ConstraintSnippet("b", "legal", "c-b", "slow")])
    retrieve(store, RetrievalQuery("", "", (), ("slow",)), top_k)


def compress_with_budget(token_budget):
    from ecpo.store import ConstraintSnippet, compress

    compress([ConstraintSnippet("a", "legal", "c-a", "keep right")], token_budget)


def pair_mixed_with_block_size(block_size):
    from conftest import make_sample
    from ecpo.context import pair_mixed

    pair_mixed([make_sample("in")], [make_sample("out")], seed=0, block_size=block_size)


@pytest.mark.parametrize("value", [True, 2.5, "3", 0, -1, sys.maxsize + 1, 10**30])
@pytest.mark.parametrize("call, field, code", [
    (retrieve_with_top_k, "top_k", "BAD_TOP_K"),
    (compress_with_budget, "token_budget", "BAD_BUDGET"),
    (pair_mixed_with_block_size, "block_size", "BAD_BLOCK_SIZE"),
], ids=["retrieve", "compress", "pair_mixed"])
def test_entry_points_read_counts_by_the_config_rule(call, field, code, value):
    with pytest.raises(ConfigError) as err:
        call(value)
    assert err.value.code == code
    with pytest.raises(ConfigError) as config_err:
        RunConfig(**{field: value})
    assert err.value.message == config_err.value.message
    call(1)


def test_library_calls_without_a_config_read_the_one_default(monkeypatch, rain_policy_dict, rain_prompt):
    import json

    from ecpo import preference, validator
    from ecpo.config import DEFAULT_CONFIG
    from ecpo.policy import parse_policy
    from oracles import fake_report

    assert DEFAULT_CONFIG == RunConfig()

    def refuse(self):
        raise AssertionError("a RunConfig was built for a call made without one")

    monkeypatch.setattr(RunConfig, "__post_init__", refuse)
    document = json.dumps(rain_policy_dict)
    assert validator.validate(document, rain_prompt) == validator.validate(document, rain_prompt, DEFAULT_CONFIG)
    policy = parse_policy(document).policy
    assert validator.evidence_coverage(policy, rain_prompt.z) == validator.evidence_coverage(
        policy, rain_prompt.z, config=DEFAULT_CONFIG)
    assert preference.weight(0.01) == DEFAULT_CONFIG.psi_floor
    candidates = tuple(preference.Candidate(name, "{}", fake_report(score)) for name, score in (("a", 0.9), ("b", 0.2)))
    pair = preference.select_pair(preference.CandidateSet("p", candidates))
    assert (pair.plus_id, pair.minus_id, pair.weight) == ("a", "b", pytest.approx(0.7))
